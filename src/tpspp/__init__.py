"""Attention-enhanced thin-plate spline rectification."""

from .tps import (ControlPointGrid, TpsTransform, build_kernel_matrix,
                  kernel_u, make_grid, output_lattice, solve_transform)
from .warp import (AttentionMatrix, SamplingGrid, basis_vector, build_sampling_grid,
                   map_point, warp)
from .network import (EncodedDecodedPair, FeatureBundle, WeightStore, aipe_forward,
                      cbam_forward, dgab_forward, init_weights, msfa_forward,
                      rectification_forward, rectifier_parameter_count, toy_backbone)
from .rectify import rectify_map, rectify_with_network

__all__ = [
    "ControlPointGrid", "TpsTransform", "build_kernel_matrix",
    "kernel_u", "make_grid", "output_lattice", "solve_transform",
    "AttentionMatrix", "SamplingGrid", "basis_vector", "build_sampling_grid",
    "map_point", "warp",
    "EncodedDecodedPair", "FeatureBundle", "WeightStore", "aipe_forward",
    "cbam_forward", "dgab_forward", "init_weights", "msfa_forward",
    "rectification_forward", "rectifier_parameter_count", "toy_backbone",
    "rectify_map", "rectify_with_network",
]

__version__ = "0.1.0"
