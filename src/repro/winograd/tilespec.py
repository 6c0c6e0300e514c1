"""Frozen tile descriptors for the F(m×m, r×r) Winograd family.

Everything downstream of the transforms — tiling geometry, the numpy
fused model, the SASS kernel generators, the dispatcher, the schedule
autotuner and the inference session — used to hard-code m=2 / alpha=4.
A :class:`TileSpec` makes the tile an explicit, hashable parameter:

* ``m``/``r``/``alpha`` — the F(m×m, r×r) geometry (alpha = m + r − 1);
* ``name`` — the family key used in cache keys, schedule books, trace
  spans and benchmark artifacts ("f22", "f44", ...);
* ``bk``/``bn``/``bc`` — the default kernel blocking for this family
  (the paper's §4 choice for f22; the best feasible blocking from
  ``perfmodel.f44_study`` for f44);
* ``transform()`` — the exact transform matrices (lazy; numpy arrays
  are not hashable, so they are not fields), whose ``reduction_2d()``
  is the tile's multiplication reduction.  Tiles per output extent are
  ``ConvProblem.tiles_h(m)`` / ``tiles_w(m)``.

``TILE_F22``/``TILE_F44`` are the two shipped families; ``get_tile``
resolves either a name or a spec, so every refactored layer can accept
``tile: TileSpec | str``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError
from .tiling import mask_words
from .transforms import WinogradTransform, get_transform


@dataclasses.dataclass(frozen=True)
class TileSpec:
    """One member of the F(m×m, r×r) family, with its kernel blocking."""

    m: int
    r: int
    name: str
    bk: int
    bn: int
    bc: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.r < 1:
            raise ConvConfigError(f"F({self.m},{self.r}) needs m, r >= 1")
        if min(self.bk, self.bn, self.bc) < 1:
            raise ConvConfigError(
                f"blocking ({self.bk}, {self.bn}, {self.bc}) must be positive"
            )

    @property
    def alpha(self) -> int:
        """Transformed tile size m + r − 1 (4 for f22, 6 for f44)."""
        return self.m + self.r - 1

    @property
    def elements(self) -> int:
        """Predicate bits / transformed elements per 2-D tile (alpha²)."""
        return self.alpha * self.alpha

    @property
    def mask_words(self) -> int:
        """32-bit registers needed to hold one tile's predicate mask
        (:func:`~repro.winograd.tiling.mask_words` of its alpha² bits).

        F(2×2,3×3) fits its 16 bits in one register (the paper's single
        P2R); F(4×4,3×3) needs 36 bits, i.e. two words.
        """
        return mask_words(self.elements)

    def transform(self, dtype=np.float32) -> WinogradTransform:
        """The exact transform matrices for this tile (lazily built)."""
        return get_transform(self.m, self.r, dtype)

    def label(self) -> str:
        return f"F({self.m}x{self.m},{self.r}x{self.r})"


#: The paper's §4 kernel: F(2×2,3×3), bk=64 / bn=32 / bc=8.
TILE_F22 = TileSpec(m=2, r=3, name="f22", bk=64, bn=32, bc=8)

#: §8.1's next step: F(4×4,3×3) at the best feasible blocking from
#: ``perfmodel.f44_study`` (bk=16 / bn=32 / bc=8 under the 253-register
#: and 64 KB shared-memory ceilings; see ``docs/winograd_tiles.md``).
TILE_F44 = TileSpec(m=4, r=3, name="f44", bk=16, bn=32, bc=8)

#: Registry of shipped tile families, keyed by family name.
TILE_FAMILIES: dict[str, TileSpec] = {
    TILE_F22.name: TILE_F22,
    TILE_F44.name: TILE_F44,
}


def get_tile(tile: "TileSpec | str | None" = None) -> TileSpec:
    """Resolve a tile argument: a spec, a family name, or None (f22)."""
    if tile is None:
        return TILE_F22
    if isinstance(tile, TileSpec):
        return tile
    try:
        return TILE_FAMILIES[tile]
    except KeyError:
        raise ConvConfigError(
            f"unknown tile family {tile!r}; known: {sorted(TILE_FAMILIES)}"
        ) from None
