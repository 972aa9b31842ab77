"""Multiplication-free point-cloud classifiers.

Shift layers quantize weights to signed powers of two (affine becomes
bitwise shifts), adder layers score relevance by negative L1 distance,
and the hybrid model interleaves the two at unchanged depth with
per-layer-type optimizers. A bit-exact 5-bit / Q16.16 fixed-point path
runs shift layers in pure integer arithmetic.
"""

from .errors import MulfreeError
from .layers import (AdderLinear, BatchNorm, MaxPool, MulLinear, Param, ReLU,
                     ShiftLinear, concat_coords, quantize_shift)
from .models import ModelConfig, PointCloudClassifier, build_model, knn_group
from .optim import (AdaptiveMoment, CosineSchedule, ModulatedSgd, modulate_gradient,
                    modulated_sgd_step, route_parameters)
from .tensor import (affine_map, global_max_pool, make_rng, pairwise_l1_neg,
                     softmax_cross_entropy, substream)

__version__ = "0.1.0"

__all__ = [
    "AdderLinear", "AdaptiveMoment", "BatchNorm", "CosineSchedule", "MaxPool",
    "ModelConfig", "ModulatedSgd", "MulLinear", "MulfreeError", "Param",
    "PointCloudClassifier", "ReLU", "ShiftLinear", "affine_map", "build_model",
    "concat_coords", "global_max_pool", "knn_group", "make_rng", "modulate_gradient",
    "modulated_sgd_step", "pairwise_l1_neg", "quantize_shift", "route_parameters",
    "softmax_cross_entropy", "substream",
]
