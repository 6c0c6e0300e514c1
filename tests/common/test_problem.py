"""ConvProblem geometry and accounting."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConvConfigError, ConvProblem
from repro.models import resnet_layer
from repro.perfmodel.workspace import transformed_filter_bytes


def test_resnet_conv2_geometry():
    p = resnet_layer("Conv2", 32)
    assert (p.n, p.c, p.h, p.w, p.k) == (32, 64, 56, 56, 64)
    assert p.out_h == 56 and p.out_w == 56  # SAME padding
    assert p.name == "Conv2N32"


def test_output_size_shrinks_without_padding():
    p = ConvProblem(n=1, c=1, h=8, w=8, k=1, pad=0)
    assert p.out_h == 6 and p.out_w == 6


def test_tiles_round_up():
    p = resnet_layer("Conv5", 32)  # 7×7 output
    assert p.tiles_h(2) == 4 and p.tiles_w(2) == 4
    assert p.tiles_per_image(2) == 16
    assert p.total_tiles(2) == 16 * 32


def test_direct_flops_conv2():
    p = resnet_layer("Conv2", 32)
    expected = 2 * 32 * 64 * 56 * 56 * 64 * 9
    assert p.direct_flops == expected


def test_arithmetic_reduction_f2_is_2_25_for_even_sizes():
    p = resnet_layer("Conv2", 32)  # 56 divisible by 2: no tile waste
    assert p.arithmetic_reduction(2) == pytest.approx(2.25)


def test_arithmetic_reduction_f2_conv5_pays_overcompute():
    p = resnet_layer("Conv5", 32)  # 7×7 → 8×8 tiles
    assert p.arithmetic_reduction(2) == pytest.approx(2.25 * (7 / 8) ** 2)


def test_arithmetic_reduction_f4():
    p = resnet_layer("Conv2", 32)
    assert p.arithmetic_reduction(4) == pytest.approx(4.0)


def test_winograd_multiplies_f2():
    p = ConvProblem(n=1, c=1, h=4, w=4, k=1)
    # 2×2 tiles of 4×4 → 4 tiles × 16 multiplies
    assert p.winograd_multiplies(2) == 4 * 16


def test_byte_accounting():
    p = ConvProblem(n=2, c=3, h=4, w=5, k=6)
    assert p.input_bytes == 4 * 2 * 3 * 4 * 5
    assert p.filter_bytes == 4 * 6 * 3 * 9
    assert p.output_bytes == 4 * 2 * 6 * 4 * 5
    # The transformed filter is a workspace closed form (perfmodel.workspace);
    # a fused kernel's tile is 3×3 whatever the layer's R.
    assert transformed_filter_bytes(p, 2) == 4 * 3 * 6 * 16
    assert transformed_filter_bytes(dataclasses.replace(p, r=5, s=5), 4) == 4 * 3 * 6 * 36


def test_with_batch_renames():
    p = resnet_layer("Conv3", 32)
    q = p.with_batch(96)
    assert q.n == 96 and q.name == "Conv3N96"
    assert q.c == p.c and q.h == p.h


@pytest.mark.parametrize("field", ["n", "c", "h", "w", "k"])
def test_rejects_nonpositive(field):
    kwargs = dict(n=1, c=1, h=4, w=4, k=1)
    kwargs[field] = 0
    with pytest.raises(ConvConfigError):
        ConvProblem(**kwargs)


def test_accepts_stride_2_for_dwm():
    # Stride 2 is admitted for the DWM decomposition path.
    p = ConvProblem(n=1, c=1, h=9, w=9, k=1, stride=2)
    assert p.out_h == 5 and p.out_w == 5


def test_rejects_stride_3():
    with pytest.raises(ConvConfigError):
        ConvProblem(n=1, c=1, h=9, w=9, k=1, stride=3)


def test_rejects_negative_pad():
    with pytest.raises(ConvConfigError):
        ConvProblem(n=1, c=1, h=4, w=4, k=1, pad=-1)


@given(
    n=st.integers(1, 16),
    c=st.integers(1, 32),
    h=st.integers(3, 64),
    w=st.integers(3, 64),
    k=st.integers(1, 32),
    m=st.sampled_from([2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_tiles_cover_output(n, c, h, w, k, m):
    p = ConvProblem(n=n, c=c, h=h, w=w, k=k)
    assert p.tiles_h(m) * m >= p.out_h
    assert (p.tiles_h(m) - 1) * m < p.out_h
    assert p.tiles_w(m) * m >= p.out_w
    assert p.total_tiles(m) == p.tiles_h(m) * p.tiles_w(m) * n


@given(
    n=st.integers(1, 8),
    c=st.integers(1, 16),
    hw=st.integers(4, 32),
    k=st.integers(1, 16),
)
@settings(max_examples=40, deadline=None)
def test_winograd_multiplies_never_below_ideal(n, c, hw, k):
    """Tile overcompute can only reduce the reduction factor below 2.25."""
    p = ConvProblem(n=n, c=c, h=hw, w=hw, k=k)
    assert p.arithmetic_reduction(2) <= 2.25 + 1e-9


def test_label_fallback():
    p = ConvProblem(n=2, c=3, h=4, w=5, k=6)
    assert "conv3x4x5k6n2" == p.label()
