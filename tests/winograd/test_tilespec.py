"""TileSpec — the frozen F(m×m, r×r) family descriptors (docs/winograd_tiles.md)."""

import dataclasses

import numpy as np
import pytest

from repro.common import ConvConfigError, ConvProblem
from repro.winograd import TILE_F22, TILE_F44, TILE_FAMILIES, TileSpec, get_tile
from repro.winograd.transforms import f23, f43


def test_f22_geometry():
    assert (TILE_F22.m, TILE_F22.r) == (2, 3)
    assert TILE_F22.alpha == 4
    assert TILE_F22.elements == 16
    assert TILE_F22.mask_words == 1  # one P2R register (§3.5)
    assert TILE_F22.transform().reduction_2d() == pytest.approx(2.25)
    assert (TILE_F22.bk, TILE_F22.bn, TILE_F22.bc) == (64, 32, 8)
    assert TILE_F22.label() == "F(2x2,3x3)"


def test_f44_geometry():
    assert (TILE_F44.m, TILE_F44.r) == (4, 3)
    assert TILE_F44.alpha == 6
    assert TILE_F44.elements == 36
    assert TILE_F44.mask_words == 2  # 36 predicate bits span two words
    assert TILE_F44.transform().reduction_2d() == pytest.approx(4.0)
    # the best feasible blocking from perfmodel.f44_study
    assert (TILE_F44.bk, TILE_F44.bn, TILE_F44.bc) == (16, 32, 8)
    assert TILE_F44.label() == "F(4x4,3x3)"


def test_get_tile_resolution():
    assert get_tile() is TILE_F22
    assert get_tile(None) is TILE_F22
    assert get_tile("f22") is TILE_F22
    assert get_tile("f44") is TILE_F44
    assert get_tile(TILE_F44) is TILE_F44
    custom = TileSpec(m=6, r=3, name="f66", bk=8, bn=16, bc=4)
    assert get_tile(custom) is custom


def test_get_tile_rejects_unknown_family():
    with pytest.raises(ConvConfigError, match="unknown tile family"):
        get_tile("f88")


def test_registry_is_consistent():
    assert set(TILE_FAMILIES) == {"f22", "f44"}
    for name, spec in TILE_FAMILIES.items():
        assert spec.name == name


def test_transform_returns_published_matrices():
    t22 = TILE_F22.transform()
    np.testing.assert_array_equal(t22.at, f23().at)
    np.testing.assert_array_equal(t22.bt, f23().bt)
    t44 = TILE_F44.transform()
    np.testing.assert_array_equal(t44.g, f43().g)
    assert t44.alpha == TILE_F44.alpha


def test_transform_matches_tile_geometry():
    spec = TileSpec(m=3, r=3, name="f33", bk=16, bn=32, bc=8)
    t = spec.transform(np.float64)
    assert (t.m, t.r) == (3, 3)
    assert spec.elements == t.alpha * t.alpha
    assert spec.mask_words == 1  # 25 bits still fit one word


def test_tiles_along_is_ceil_div():
    """Tiles per output extent are ConvProblem's, at the tile's m."""

    def tiles_along(tile, extent):
        prob = ConvProblem(n=1, c=1, h=extent, w=extent, k=1)
        assert prob.tiles_w(tile.m) == prob.tiles_h(tile.m)
        return prob.tiles_h(tile.m)

    assert tiles_along(TILE_F22, 8) == 4
    assert tiles_along(TILE_F22, 7) == 4
    assert tiles_along(TILE_F44, 8) == 2
    assert tiles_along(TILE_F44, 7) == 2
    assert tiles_along(TILE_F44, 1) == 1


def test_spec_is_frozen_and_hashable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TILE_F22.m = 4
    book = {TILE_F22: "a", TILE_F44: "b"}
    assert book[TileSpec(m=2, r=3, name="f22", bk=64, bn=32, bc=8)] == "a"


def test_validation_rejects_bad_specs():
    with pytest.raises(ConvConfigError):
        TileSpec(m=0, r=3, name="bad", bk=1, bn=1, bc=1)
    with pytest.raises(ConvConfigError):
        TileSpec(m=2, r=3, name="bad", bk=0, bn=32, bc=8)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
