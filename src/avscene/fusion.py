"""Gated fusion of the two deepest backbone maps into one refined map.

The deeper map is projected to the shallower map's channel count by a 1x1
convolution at its own resolution and then upsampled to the shallower map's
grid. That is the same map as upsampling first, at a quarter of the
projection's cost: the 1x1 convolution mixes channels cell by cell, and
bilinear resampling is one linear map per channel whose interpolation rows
sum to 1, so the two commute and the bias passes through unchanged; only
round-off differs. A per-sample, per-channel sigmoid gate,
computed from globally pooled statistics of both maps, convexly blends them
in one ``gate_blend`` op, gate·f_m4 + (1 − gate)·proj. The gate stays a tensor
of its own, between the sigmoid and the blend. Saturating the gate recovers
the shallow map exactly, which makes the module easy to test.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import (
    ParamRegistry,
    Tensor,
    bilinear_upsample,
    concat,
    conv2d,
    gate_blend,
    global_avg_pool,
    linear,
    reshape,
    sigmoid,
)
from .backbone import he_uniform


class AttentionFusion:
    """Blend f_m4[N,c4,H4,W4] with projected, upsampled f_m5[N,c5,H5,W5]."""

    def __init__(self, registry: ParamRegistry, c4: int, c5: int, rng: np.random.Generator):
        self.c4 = c4
        self.c5 = c5
        self.proj_weight = registry.register("afm.proj.weight", he_uniform(rng, (c4, c5), c5))
        self.proj_bias = registry.register("afm.proj.bias", np.zeros(c4))
        self.gate_weight = registry.register(
            "afm.gate.weight", he_uniform(rng, (c4, 2 * c4), 2 * c4)
        )
        self.gate_bias = registry.register("afm.gate.bias", np.zeros(c4))

    def forward(self, f_m4: Tensor, f_m5: Tensor) -> Tensor:
        n, c4, h4, w4 = f_m4.shape
        n5, c5, h5, w5 = f_m5.shape
        if c4 != self.c4 or c5 != self.c5 or n != n5:
            raise ConfigurationError(
                f"fusion built for channels ({self.c4}, {self.c5}), "
                f"got ({c4}, {c5}) with batches {n}/{n5}"
            )
        if h5 != (h4 + 1) // 2 or w5 != (w4 + 1) // 2:
            raise ConfigurationError(
                f"deep map {h5}x{w5} is not the ceil-half of {h4}x{w4}"
            )
        proj_kernel = reshape(self.proj_weight, (c4, c5, 1, 1))
        proj = bilinear_upsample(conv2d(f_m5, proj_kernel, self.proj_bias), h4, w4)

        pooled = global_avg_pool(concat([f_m4, proj], axis=1))
        gate = sigmoid(linear(pooled, self.gate_weight, self.gate_bias))
        return gate_blend(f_m4, proj, gate)
