"""Attention-enhanced thin-plate spline rectification."""

from .tps import make_grid, solve_transform
from .warp import AttentionMatrix, SamplingGrid, map_point, warp
from .network import WeightStore
from .rectify import rectify_map, rectify_with_network

__all__ = ["make_grid", "solve_transform", "map_point", "AttentionMatrix", "SamplingGrid", "warp",
           "WeightStore", "rectify_map", "rectify_with_network"]

__version__ = "0.1.0"
