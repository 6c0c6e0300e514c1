"""Winograd / Cook-Toom minimal filtering transforms.

The paper (§2.1) uses F(2×2, 3×3) with the transform matrices

    AT = [[1, 1, 1, 0],
          [0, 1, -1, -1]]

    G  = [[1, 0, 0],
          [1/2, 1/2, 1/2],
          [1/2, -1/2, 1/2],
          [0, 0, 1]]

    BT = [[1, 0, -1, 0],
          [0, 1, 1, 0],
          [0, -1, 1, 0],
          [0, 1, 0, -1]]

and refers to Lavin & Gray [11] / Winograd [26] for F(4×4, 3×3) and the
other variants.  This module provides:

* the exact published matrices for F(2,3) and F(4,3) (`f23()`, `f43()`);
* a general Cook-Toom constructor (`cook_toom`) that builds a provably
  correct F(m, r) algorithm from any set of distinct interpolation
  points, using exact rational arithmetic — the data-transform matrix
  ``BT`` is *solved for* from the algorithm's defining identity rather
  than transcribed, so construction bugs are structurally impossible;
* 2-D nesting helpers (``Y = AT [ (G F Gᵀ) ⊙ (BT I B) ] A``), vectorized
  over arbitrary leading batch dimensions.

Everything downstream (reference conv, fused kernel model, SASS kernel
generator) pulls its constants from here.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..common.errors import ConvConfigError

# ---------------------------------------------------------------------------
# Exact rational linear algebra (tiny, n <= ~10)
# ---------------------------------------------------------------------------
FracMatrix = list[list[Fraction]]


def _frac_matmul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def _frac_transpose(a: FracMatrix) -> FracMatrix:
    return [list(col) for col in zip(*a)]


def _frac_solve(a: FracMatrix, rhs: FracMatrix) -> FracMatrix:
    """Solve A X = RHS exactly by Gauss-Jordan elimination (A square, n×n)."""
    n = len(a)
    # Augment.
    m = [list(a[i]) + list(rhs[i]) for i in range(n)]
    width = len(m[0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ConvConfigError("singular system while constructing Winograd transform")
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [m[r][j] - factor * m[col][j] for j in range(width)]
    return [row[n:] for row in m]


def _to_float(a: FracMatrix, dtype=np.float64) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in a], dtype=dtype)


# ---------------------------------------------------------------------------
# Transform container
# ---------------------------------------------------------------------------
#: Contraction order of ``M X Mᵀ``: the matrix with X first, then the
#: result with Mᵀ.  It is the path ``optimize=True`` finds for every
#: transform shape; passing it skips the search on every call.
_NESTING_PATH = ("einsum_path", (0, 1), (0, 1))


def _nest(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat · X · matᵀ`` over the trailing two dims of *x*."""
    return np.einsum("ij,...jk,lk->...il", mat, x, mat, optimize=_NESTING_PATH)


@dataclasses.dataclass(frozen=True)
class WinogradTransform:
    """A 1-D minimal filtering algorithm F(m, r) and its nesting helpers.

    Attributes
    ----------
    m: outputs per tile.
    r: filter taps.
    at: output transform, shape ``(m, alpha)``.
    g: filter transform, shape ``(alpha, r)``.
    bt: data transform, shape ``(alpha, alpha)``.
    """

    m: int
    r: int
    at: np.ndarray
    g: np.ndarray
    bt: np.ndarray

    @property
    def alpha(self) -> int:
        """Transformed tile size m + r - 1 (the "4" of 4×4 tiles)."""
        return self.m + self.r - 1

    def __post_init__(self) -> None:
        alpha = self.m + self.r - 1
        if self.at.shape != (self.m, alpha):
            raise ConvConfigError(f"AT must be {(self.m, alpha)}, got {self.at.shape}")
        if self.g.shape != (alpha, self.r):
            raise ConvConfigError(f"G must be {(alpha, self.r)}, got {self.g.shape}")
        if self.bt.shape != (alpha, alpha):
            raise ConvConfigError(f"BT must be {(alpha, alpha)}, got {self.bt.shape}")

    # -- 1-D identity check -------------------------------------------------
    def check_identity(self, rng: np.random.Generator | None = None) -> float:
        """Max abs error of ``AT[(Gg)⊙(BTd)]`` vs direct 1-D correlation."""
        rng = rng or np.random.default_rng(7)
        d = rng.standard_normal(self.alpha)
        g = rng.standard_normal(self.r)
        fast = self.at @ ((self.g @ g) * (self.bt @ d))
        direct = np.array(
            [sum(d[j + i] * g[i] for i in range(self.r)) for j in range(self.m)]
        )
        return float(np.max(np.abs(fast - direct)))

    # -- 2-D nesting, vectorized over leading dims --------------------------
    def transform_filter(self, f: np.ndarray) -> np.ndarray:
        """``G F Gᵀ`` for trailing (r, r) dims; leading dims are batched."""
        return _nest(self.g, f)

    def transform_input(self, d: np.ndarray) -> np.ndarray:
        """``Bᵀ I B`` for trailing (alpha, alpha) dims."""
        return _nest(self.bt, d)

    def transform_output(self, o: np.ndarray) -> np.ndarray:
        """``Aᵀ Ô A`` for trailing (alpha, alpha) dims."""
        return _nest(self.at, o)

    # -- instruction accounting (paper §2.1) --------------------------------
    def tile_multiplies_2d(self) -> int:
        """Element-wise multiplies per 2-D tile (16 for F(2,3))."""
        return self.alpha * self.alpha

    def direct_multiplies_2d(self) -> int:
        """Multiplies a direct conv spends on the same m×m outputs (36)."""
        return self.m * self.m * self.r * self.r

    def reduction_2d(self) -> float:
        """Arithmetic reduction factor (2.25 for F(2,3))."""
        return self.direct_multiplies_2d() / self.tile_multiplies_2d()


# ---------------------------------------------------------------------------
# Published matrices
# ---------------------------------------------------------------------------
def f23(dtype=np.float32) -> WinogradTransform:
    """F(2, 3) exactly as printed in the paper (§2.1, Eqs. 2-3)."""
    at = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=dtype)
    g = np.array(
        [[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]], dtype=dtype
    )
    bt = np.array(
        [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]], dtype=dtype
    )
    return WinogradTransform(2, 3, at, g, bt)


def f43(dtype=np.float32) -> WinogradTransform:
    """F(4, 3) as published by Lavin & Gray (points 0, ±1, ±2, ∞)."""
    at = np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [0, 1, -1, 2, -2, 0],
            [0, 1, 1, 4, 4, 0],
            [0, 1, -1, 8, -8, 1],
        ],
        dtype=dtype,
    )
    g = np.array(
        [
            [1 / 4, 0, 0],
            [-1 / 6, -1 / 6, -1 / 6],
            [-1 / 6, 1 / 6, -1 / 6],
            [1 / 24, 1 / 12, 1 / 6],
            [1 / 24, -1 / 12, 1 / 6],
            [0, 0, 1],
        ],
        dtype=dtype,
    )
    bt = np.array(
        [
            [4, 0, -5, 0, 1, 0],
            [0, -4, -4, 1, 1, 0],
            [0, 4, -4, -1, 1, 0],
            [0, -2, -1, 2, 1, 0],
            [0, 2, -1, -2, 1, 0],
            [0, 4, 0, -5, 0, 1],
        ],
        dtype=dtype,
    )
    return WinogradTransform(4, 3, at, g, bt)


DEFAULT_POINTS: dict[int, tuple] = {
    # alpha - 1 finite interpolation points; the last point is implicitly ∞.
    1: (0,),
    2: (0, 1),
    3: (0, 1, -1),
    4: (0, 1, -1, 2),
    5: (0, 1, -1, 2, -2),
    6: (0, 1, -1, 2, -2, Fraction(1, 2)),
    7: (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)),
    8: (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 4),
    9: (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 4, -4),
}


def cook_toom(
    m: int,
    r: int,
    points: Sequence | None = None,
    dtype=np.float64,
) -> WinogradTransform:
    """Construct F(m, r) from interpolation points (plus the point at ∞).

    ``AT`` and ``G`` are the standard Vandermonde / scaled-Vandermonde
    forms; ``BT`` is then the *unique* matrix making the minimal
    filtering identity hold for all data and filters, found by solving
    the identity's normal equations in exact rational arithmetic.  The
    result is verified (exactly, over ℚ) before being returned.
    """
    if m < 1 or r < 1:
        raise ConvConfigError("m and r must be >= 1")
    alpha = m + r - 1
    if points is None:
        if alpha - 1 not in DEFAULT_POINTS:
            raise ConvConfigError(
                f"no default points for alpha={alpha}; pass `points` explicitly"
            )
        points = DEFAULT_POINTS[alpha - 1]
    pts = [Fraction(p) for p in points]
    if len(pts) != alpha - 1:
        raise ConvConfigError(
            f"need {alpha - 1} finite points for F({m},{r}), got {len(pts)}"
        )
    if len(set(pts)) != len(pts):
        raise ConvConfigError("interpolation points must be distinct")

    # AT: Vandermonde rows over the finite points, plus the ∞ column which
    # picks out the leading coefficient (active only in the last output row).
    at: FracMatrix = [
        [pts[j] ** i for j in range(alpha - 1)] + [Fraction(int(i == m - 1))]
        for i in range(m)
    ]
    # G: evaluate the filter polynomial at each point, scaled by the node
    # polynomial derivative (Lavin's convention); ∞ row takes the top tap.
    g: FracMatrix = []
    for i in range(alpha - 1):
        n_i = Fraction(1)
        for k in range(alpha - 1):
            if k != i:
                n_i *= pts[i] - pts[k]
        g.append([pts[i] ** j / n_i for j in range(r)])
    g.append([Fraction(0)] * (r - 1) + [Fraction(1)])

    # Solve for BT from the defining identity:
    #   sum_p AT[j,p] * G[p,i] * BT[p,l]  ==  [l == j + i]
    # Rows of the coefficient matrix are indexed by (j, i); unknown columns
    # of BT are solved one output index l at a time via normal equations.
    k_rows: FracMatrix = []  # (m*r, alpha)
    for j in range(m):
        for i in range(r):
            k_rows.append([at[j][p] * g[p][i] for p in range(alpha)])
    kt = _frac_transpose(k_rows)  # (alpha, m*r)
    gram = _frac_matmul(kt, k_rows)  # (alpha, alpha)
    rhs: FracMatrix = []
    for p in range(alpha):
        row = []
        for l in range(alpha):
            acc = Fraction(0)
            idx = 0
            for j in range(m):
                for i in range(r):
                    if j + i == l:
                        acc += kt[p][idx]
                    idx += 1
            row.append(acc)
        rhs.append(row)
    bt = _frac_solve(gram, rhs)  # (alpha, alpha); column l solves index l

    # Exact verification of the identity over the rationals.
    idx = 0
    for j in range(m):
        for i in range(r):
            for l in range(alpha):
                acc = sum(
                    (k_rows[idx][p] * bt[p][l] for p in range(alpha)), Fraction(0)
                )
                if acc != Fraction(int(l == j + i)):
                    raise ConvConfigError(
                        f"Cook-Toom identity failed at (j={j}, i={i}, l={l}); "
                        "the chosen points do not admit a minimal algorithm"
                    )
            idx += 1

    return WinogradTransform(
        m, r, _to_float(at, dtype), _to_float(g, dtype), _to_float(bt, dtype)
    )


def get_transform(m: int, r: int = 3, dtype=np.float32) -> WinogradTransform:
    """The transform used throughout the library for F(m×m, r×r).

    F(2,3) and F(4,3) return the exact published matrices (bit-identical
    to the paper / Lavin & Gray); other sizes are constructed on the fly.
    """
    if (m, r) == (2, 3):
        return f23(dtype)
    if (m, r) == (4, 3):
        return f43(dtype)
    t = cook_toom(m, r)
    return WinogradTransform(
        m, r, t.at.astype(dtype), t.g.astype(dtype), t.bt.astype(dtype)
    )


# Float-op counts from the paper §2.1 for F(2,3) (used by the roofline).
PAPER_FTF_FLOPS = 28  # filter transform float instructions per tile
PAPER_ITF_FLOPS = 32  # input transform float additions per tile
PAPER_OTF_FLOPS = 24  # output transform float additions per tile
