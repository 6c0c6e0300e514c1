"""Winograd convolution: transforms, reference oracle, fused & non-fused pipelines."""

from .fused import (
    CUDNN_CONFIG,
    PAPER_CONFIG,
    BlockConfig,
    FusedRunStats,
    FusedWinogradConv,
    tile_block_config,
)
from .fused_nchw import FusedWinogradConvNCHW, warp_load_sectors
from .nonfused import NonFusedRunStats, NonFusedWinogradConv
from .reference import winograd_conv2d_nchw
from .tilespec import TILE_F22, TILE_F44, TILE_FAMILIES, TileSpec, get_tile
from .tiling import (
    gather_tiles,
    mask_words,
    pack_mask,
    tile_index_grid,
    tile_windows,
    unpack_mask,
    zero_pad_mask,
)
from .transforms import (
    PAPER_FTF_FLOPS,
    PAPER_ITF_FLOPS,
    PAPER_OTF_FLOPS,
    WinogradTransform,
    cook_toom,
    f23,
    f43,
    get_transform,
)

__all__ = [
    "BlockConfig",
    "CUDNN_CONFIG",
    "FusedRunStats",
    "FusedWinogradConv",
    "FusedWinogradConvNCHW",
    "NonFusedRunStats",
    "NonFusedWinogradConv",
    "PAPER_CONFIG",
    "PAPER_FTF_FLOPS",
    "PAPER_ITF_FLOPS",
    "PAPER_OTF_FLOPS",
    "TILE_F22",
    "TILE_F44",
    "TILE_FAMILIES",
    "TileSpec",
    "WinogradTransform",
    "cook_toom",
    "f23",
    "f43",
    "gather_tiles",
    "get_tile",
    "get_transform",
    "mask_words",
    "pack_mask",
    "tile_block_config",
    "tile_index_grid",
    "tile_windows",
    "unpack_mask",
    "warp_load_sectors",
    "winograd_conv2d_nchw",
    "zero_pad_mask",
]
