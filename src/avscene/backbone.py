"""Residual backbone producing two deep feature maps and a pooled embedding.

The stride pattern is fixed: a 7x7 stride-2 stem, a stride-1 second stage,
then three stride-2 stages. ``conv2d`` owns the padding rule: it pads each
kernel (1, 3 or 7) by ``kernel // 2``, so a stride-s conv maps n cells to
ceil(n / s), and any input of at least 1x1 runs (``feature_map_dims``).
Channel widths and depth are configurable so the same code serves both the
full-width network and a tiny trainable variant. No batch statistics are
kept, so the forward pass is deterministic and batch-size independent. A
conv unit has a weight and a per-channel bias (``shift``) and no scale:
without normalization, a per-channel scale on ``w ⋆ x`` equals a scaled
weight. Its bias and ReLU live inside its ``conv2d`` op, and a residual
block's join (shortcut sum and ReLU) inside the op of its last unit: each
unit records one tape node, and no block keeps its pre-join output.
``FIELD_TYPES`` checks the fields of this config and of
``model.ModelConfig`` and stores each as a plain Python value, which is
what the checkpoint's JSON manifest holds.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, is_int
from .tensor import ParamRegistry, Tensor, conv2d, global_avg_pool

STEM_STRIDE = 2
STAGE_STRIDES = (1, 2, 2, 2)  # stages 2..5


def _is_float(value) -> bool:
    """Whether value is a real number that a float can hold; a bool is none."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and not (is_int(value) and abs(value) > sys.float_info.max)


class FieldType(NamedTuple):
    """How a config field of one annotation is checked and stored."""

    check: Callable  # whether a value may be the field's; a bool is no number
    plain: Callable  # the plain Python value a checked value is stored as


# One row per field annotation (as text) of ModelConfig and BackboneConfig.
FIELD_TYPES = {
    "bool": FieldType(lambda v: isinstance(v, bool), bool),
    "int": FieldType(is_int, int),
    "float": FieldType(_is_float, float),
    "str": FieldType(lambda v: isinstance(v, str), str),
    "list[int]": FieldType(
        lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
        lambda v: [int(i) for i in v],
    ),
    "BackboneConfig": FieldType(lambda v: isinstance(v, BackboneConfig), lambda v: v),
}


def check_field_types(config) -> None:
    """Store each field of the dataclass ``config`` as its type's plain value
    (``FIELD_TYPES``); raise ConfigurationError naming a field of another type."""
    for f in fields(config):
        kind, value = FIELD_TYPES[f.type], getattr(config, f.name)
        if not kind.check(value):
            raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
        setattr(config, f.name, kind.plain(value))


@dataclass
class BackboneConfig:
    """Stem and stage 2-5 widths, stage 2-5 depths; bottleneck widths divide by 4."""

    in_channels: int
    stage_channels: list[int]
    blocks_per_stage: list[int]
    block_type: str

    def __post_init__(self):
        check_field_types(self)
        if len(self.stage_channels) != 5:
            raise ConfigurationError(
                f"need 5 stage channel counts, got {len(self.stage_channels)}"
            )
        if len(self.blocks_per_stage) != 4:
            raise ConfigurationError(
                f"need 4 block counts, got {len(self.blocks_per_stage)}"
            )
        if any(c < 1 for c in self.stage_channels) or self.in_channels < 1:
            raise ConfigurationError("channel counts must be positive")
        if any(b < 1 for b in self.blocks_per_stage):
            raise ConfigurationError("block counts must be positive")
        if self.block_type not in ("basic", "bottleneck"):
            raise ConfigurationError(f"unknown block type {self.block_type!r}")
        if self.block_type == "bottleneck" and any(
            c % 4 for c in self.stage_channels[1:]
        ):
            raise ConfigurationError("bottleneck stages need channels divisible by 4")

    @classmethod
    def tiny(cls, in_channels: int) -> "BackboneConfig":
        return cls(in_channels, [4, 8, 8, 16, 32], [1, 1, 1, 1], "basic")

    @classmethod
    def full(cls, in_channels: int) -> "BackboneConfig":
        return cls(in_channels, [64, 256, 512, 1024, 2048], [3, 4, 6, 3], "bottleneck")


@dataclass
class FeaturePyramid:
    """Stage-4 and stage-5 feature maps plus the pooled stage-5 embedding."""

    f_m4: Tensor
    f_m5: Tensor
    embedding: Tensor


def feature_map_dims(h: int, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Spatial dims of the stage-4 and stage-5 maps for an h x w input.

    Each conv pads by ``kernel // 2`` and so maps n cells to ceil(n / stride);
    a map's size is therefore one rounded-up division of the input's by the
    product of the strides before it: 8 for stage 4 and 16 for stage 5.
    """
    s4 = STEM_STRIDE * math.prod(STAGE_STRIDES[:3])
    s5 = s4 * STAGE_STRIDES[3]
    return (-(-h // s4), -(-w // s4)), (-(-h // s5), -(-w // s5))


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ConvUnit:
    """Convolution, learnable per-channel bias and optional ReLU, as one ``conv2d`` op."""

    def __init__(self, registry, rng, name, c_in, c_out, kernel, stride, relu):
        self.stride = stride
        self.relu = relu
        self.weight = registry.register(
            f"{name}.weight",
            he_uniform(rng, (c_out, c_in, kernel, kernel), c_in * kernel * kernel),
        )
        self.shift = registry.register(f"{name}.shift", np.zeros(c_out))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.shift, self.stride, self.relu)

    def join(self, x: Tensor, shortcut: Tensor) -> Tensor:
        """relu(unit(x) + shortcut): a residual block's last unit and its join, as one op."""
        return conv2d(x, self.weight, self.shift, self.stride, relu=True, residual=shortcut)


class ResidualBlock:
    """Two-conv basic block or 1-3-1 bottleneck, identity or projected shortcut."""

    def __init__(self, registry, rng, name, c_in, c_out, stride, block_type):
        self.block_type = block_type
        if block_type == "basic":
            self.conv_a = ConvUnit(registry, rng, f"{name}.conv_a", c_in, c_out, 3, stride, relu=True)
            self.conv_b = ConvUnit(registry, rng, f"{name}.conv_b", c_out, c_out, 3, 1, relu=False)
        else:
            mid = c_out // 4
            self.conv_a = ConvUnit(registry, rng, f"{name}.conv_a", c_in, mid, 1, 1, relu=True)
            self.conv_b = ConvUnit(registry, rng, f"{name}.conv_b", mid, mid, 3, stride, relu=True)
            self.conv_c = ConvUnit(registry, rng, f"{name}.conv_c", mid, c_out, 1, 1, relu=False)
        if stride != 1 or c_in != c_out:
            self.proj = ConvUnit(registry, rng, f"{name}.proj", c_in, c_out, 1, stride, relu=False)
        else:
            self.proj = None

    def forward(self, x: Tensor) -> Tensor:
        y = self.conv_a.forward(x)
        last = self.conv_b
        if self.block_type == "bottleneck":
            y, last = self.conv_b.forward(y), self.conv_c
        shortcut = self.proj.forward(x) if self.proj is not None else x
        return last.join(y, shortcut)


class Backbone:
    """The stem and stages 2-5 of residual blocks, registered in ``registry`` in layer order.

    The draws advance ``rng`` itself, so a caller can go on drawing from it
    after the backbone.
    """

    def __init__(self, config: BackboneConfig, rng: np.random.Generator, registry: ParamRegistry):
        self.config = config
        c = config.stage_channels
        self.stem = ConvUnit(
            registry, rng, "backbone.conv1", config.in_channels, c[0], 7, STEM_STRIDE, relu=True
        )
        self.stages = []  # per stage 2-5, its list of ResidualBlock
        for i, (c_in, c_out, n_blocks, stride) in enumerate(
            zip(c, c[1:], config.blocks_per_stage, STAGE_STRIDES), start=2
        ):
            # The first block takes the stage's input width and stride.
            plan = [(c_in, stride)] + [(c_out, 1)] * (n_blocks - 1)
            self.stages.append([
                ResidualBlock(
                    registry, rng, f"backbone.stage{i}.block{b}", c_b, c_out, s, config.block_type
                )
                for b, (c_b, s) in enumerate(plan, start=1)
            ])

    def forward(self, x: Tensor) -> FeaturePyramid:
        if x.data.ndim != 4 or x.data.shape[1] != self.config.in_channels:
            raise ConfigurationError(
                f"backbone expects [N,{self.config.in_channels},H,W], got {x.data.shape}"
            )
        y = self.stem.forward(x)
        outputs = []
        for stage in self.stages:
            for block in stage:
                y = block.forward(y)
            outputs.append(y)
        f_m4, f_m5 = outputs[2], outputs[3]
        return FeaturePyramid(f_m4=f_m4, f_m5=f_m5, embedding=global_avg_pool(f_m5))
