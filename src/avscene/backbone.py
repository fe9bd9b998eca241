"""Residual backbone producing two deep feature maps and a pooled embedding.

The stride pattern is fixed: a 7x7 stride-2 stem, a stride-1 second stage,
then three stride-2 stages. Channel widths and depth are configurable so the
same code serves both the full-width network and a tiny trainable variant.
Per-channel affine (scale/shift) parameters stand in for batch statistics,
keeping the forward pass deterministic and batch-size independent. A conv
unit's affine and ReLU live inside its ``conv2d`` op, and a residual block's
join (shortcut sum and ReLU) inside the op of its last unit: each unit records
one tape node, and no block keeps its pre-join output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .tensor import ParamRegistry, Tensor, conv2d, global_avg_pool

STAGE_STRIDES = (1, 2, 2, 2)  # stages 2..5; the stem is always stride 2


@dataclass
class BackboneConfig:
    """Stem and stage 2-5 widths, stage 2-5 depths; bottleneck widths divide by 4."""

    in_channels: int
    stage_channels: list[int]
    blocks_per_stage: list[int]
    block_type: str = "basic"

    def __post_init__(self):
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
    def tiny(cls, in_channels: int = 1) -> "BackboneConfig":
        return cls(in_channels, [4, 8, 8, 16, 32], [1, 1, 1, 1], "basic")

    @classmethod
    def full(cls, in_channels: int = 3, blocks=None) -> "BackboneConfig":
        return cls(
            in_channels,
            [64, 256, 512, 1024, 2048],
            list(blocks) if blocks is not None else [3, 4, 6, 3],
            "bottleneck",
        )


@dataclass
class FeaturePyramid:
    """Stage-4 and stage-5 feature maps plus the pooled stage-5 embedding."""

    f_m4: Tensor
    f_m5: Tensor
    embedding: Tensor


def _conv_out(n: int, kernel: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - kernel) // stride + 1


def feature_map_dims(h: int, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Spatial dims of the stage-4 and stage-5 maps for an h x w input.

    Pure stride arithmetic; raises before any compute if the input is too
    small for the stride chain.
    """
    if h < 16 or w < 16:
        raise ConfigurationError(
            f"input {h}x{w} too small for the stride chain (needs >= 16 per axis)"
        )
    dims = (_conv_out(h, 7, 2, 3), _conv_out(w, 7, 2, 3))
    per_stage = []
    for stride in STAGE_STRIDES:
        dims = (_conv_out(dims[0], 3, stride, 1), _conv_out(dims[1], 3, stride, 1))
        per_stage.append(dims)
    return per_stage[2], per_stage[3]


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ConvUnit:
    """Convolution, learnable per-channel affine and optional ReLU, as one ``conv2d`` op."""

    def __init__(self, registry, rng, name, c_in, c_out, kernel, stride, padding, relu):
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.weight = registry.register(
            f"{name}.weight",
            he_uniform(rng, (c_out, c_in, kernel, kernel), c_in * kernel * kernel),
        )
        self.scale = registry.register(f"{name}.scale", np.ones(c_out))
        self.shift = registry.register(f"{name}.shift", np.zeros(c_out))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(
            x, self.weight, self.shift, self.stride, self.padding, self.scale, self.relu
        )

    def join(self, x: Tensor, shortcut: Tensor) -> Tensor:
        """relu(unit(x) + shortcut): a residual block's last unit and its join, as one op."""
        return conv2d(
            x, self.weight, self.shift, self.stride, self.padding, self.scale,
            relu=True, residual=shortcut,
        )


class ResidualBlock:
    """Two-conv basic block or 1-3-1 bottleneck, identity or projected shortcut."""

    def __init__(self, registry, rng, name, c_in, c_out, stride, block_type):
        self.block_type = block_type
        if block_type == "basic":
            self.conv_a = ConvUnit(registry, rng, f"{name}.conv_a", c_in, c_out, 3, stride, 1, relu=True)
            self.conv_b = ConvUnit(registry, rng, f"{name}.conv_b", c_out, c_out, 3, 1, 1, relu=False)
        else:
            mid = c_out // 4
            self.conv_a = ConvUnit(registry, rng, f"{name}.conv_a", c_in, mid, 1, 1, 0, relu=True)
            self.conv_b = ConvUnit(registry, rng, f"{name}.conv_b", mid, mid, 3, stride, 1, relu=True)
            self.conv_c = ConvUnit(registry, rng, f"{name}.conv_c", mid, c_out, 1, 1, 0, relu=False)
        if stride != 1 or c_in != c_out:
            self.proj = ConvUnit(registry, rng, f"{name}.proj", c_in, c_out, 1, stride, 0, relu=False)
        else:
            self.proj = None

    def forward(self, x: Tensor) -> Tensor:
        y = self.conv_a.forward(x)
        last = self.conv_b
        if self.block_type == "bottleneck":
            y, last = self.conv_b.forward(y), self.conv_c
        shortcut = self.proj.forward(x) if self.proj is not None else x
        return last.join(y, shortcut)


@dataclass
class Backbone:
    config: BackboneConfig
    registry: ParamRegistry
    stem: ConvUnit
    stages: list = field(default_factory=list)

    def forward(self, x: Tensor) -> FeaturePyramid:
        if x.data.ndim != 4 or x.data.shape[1] != self.config.in_channels:
            raise ConfigurationError(
                f"backbone expects [N,{self.config.in_channels},H,W], got {x.data.shape}"
            )
        feature_map_dims(x.data.shape[2], x.data.shape[3])  # raises if too small
        y = self.stem.forward(x)
        outputs = []
        for stage in self.stages:
            for block in stage:
                y = block.forward(y)
            outputs.append(y)
        f_m4, f_m5 = outputs[2], outputs[3]
        return FeaturePyramid(f_m4=f_m4, f_m5=f_m5, embedding=global_avg_pool(f_m5))


def build_backbone(
    config: BackboneConfig,
    seed: int | np.random.Generator = 0,
    registry: ParamRegistry | None = None,
) -> Backbone:
    """Register all backbone parameters, deterministically from the seed.

    A Generator ``seed`` is drawn from as it is, so a caller can go on
    drawing from it after the backbone.
    """
    registry = registry if registry is not None else ParamRegistry()
    rng = np.random.default_rng(seed)
    c = config.stage_channels
    stem = ConvUnit(registry, rng, "backbone.conv1", config.in_channels, c[0], 7, 2, 3, relu=True)
    stages = []
    c_in = c[0]
    for stage_idx, (c_out, n_blocks, stride) in enumerate(
        zip(c[1:], config.blocks_per_stage, STAGE_STRIDES), start=2
    ):
        blocks = []
        for b in range(n_blocks):
            blocks.append(
                ResidualBlock(
                    registry,
                    rng,
                    f"backbone.stage{stage_idx}.block{b + 1}",
                    c_in if b == 0 else c_out,
                    c_out,
                    stride if b == 0 else 1,
                    config.block_type,
                )
            )
        stages.append(blocks)
        c_in = c_out
    return Backbone(config=config, registry=registry, stem=stem, stages=stages)
