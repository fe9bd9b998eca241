"""Backbone: stage shapes, init determinism, parameter accounting, gradients."""

import tracemalloc

import numpy as np
import pytest

from avscene import tensor as T
from avscene.backbone import (
    Backbone,
    BackboneConfig,
    ResidualBlock,
    build_backbone,
    feature_map_dims,
)
from avscene.errors import ConfigurationError


def count_params_basic(in_channels, channels, blocks):
    """Closed-form parameter count for the basic-block backbone.

    Derived by hand from the layer plan: every conv carries
    c_out*c_in*k*k weights plus 2*c_out affine scalars; the first block of a
    stage projects whenever channels or stride change (stages 3-5 stride 2,
    stage 2 stride 1).
    """
    def conv(c_in, c_out, k):
        return c_out * c_in * k * k + 2 * c_out

    total = conv(in_channels, channels[0], 7)
    c_in = channels[0]
    for stage, (c_out, n_blocks) in enumerate(zip(channels[1:], blocks), start=2):
        stride = 1 if stage == 2 else 2
        for b in range(n_blocks):
            block_in = c_in if b == 0 else c_out
            block_stride = stride if b == 0 else 1
            total += conv(block_in, c_out, 3) + conv(c_out, c_out, 3)
            if block_stride != 1 or block_in != c_out:
                total += conv(block_in, c_out, 1)
        c_in = c_out
    return total


class TestConfig:
    def test_rejects_bad_channel_counts(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(1, [4, 8, 8], [1, 1, 1, 1])
        with pytest.raises(ConfigurationError):
            BackboneConfig(1, [4, 8, 8, 0, 32], [1, 1, 1, 1])
        with pytest.raises(ConfigurationError, match="bottleneck"):
            BackboneConfig(1, [4, 8, 8, 15, 32], [1, 1, 1, 1], "bottleneck")

    def test_named_presets(self):
        tiny = BackboneConfig.tiny()
        assert tiny.stage_channels == [4, 8, 8, 16, 32]
        full = BackboneConfig.full()
        assert full.stage_channels == [64, 256, 512, 1024, 2048]
        assert full.block_type == "bottleneck"


class TestBuild:
    def test_same_seed_identical_params(self):
        a = build_backbone(BackboneConfig.tiny(), seed=5)
        b = build_backbone(BackboneConfig.tiny(), seed=5)
        assert a.registry.names() == b.registry.names()
        for name in a.registry.names():
            assert np.array_equal(a.registry[name].data, b.registry[name].data)

    def test_generator_seed_is_drawn_from_as_given(self):
        a = build_backbone(BackboneConfig.tiny(), seed=5)
        b = build_backbone(BackboneConfig.tiny(), seed=np.random.default_rng(5))
        assert a.registry.names() == b.registry.names()
        for name in a.registry.names():
            assert np.array_equal(a.registry[name].data, b.registry[name].data), name

    def test_different_seed_differs(self):
        a = build_backbone(BackboneConfig.tiny(), seed=5)
        b = build_backbone(BackboneConfig.tiny(), seed=6)
        assert not np.array_equal(
            a.registry["backbone.conv1.weight"].data,
            b.registry["backbone.conv1.weight"].data,
        )

    def test_param_count_matches_formula(self):
        config = BackboneConfig(1, [8, 8, 16, 32, 64], [1, 1, 1, 1], "basic")
        net = build_backbone(config, seed=0)
        assert net.registry.num_scalars() == count_params_basic(1, config.stage_channels, [1, 1, 1, 1])

    def test_full_width_stage_shapes_visual(self):
        config = BackboneConfig.full(3, blocks=[1, 1, 1, 1])
        net = build_backbone(config, seed=0)
        x = T.Tensor(np.random.default_rng(0).standard_normal((1, 3, 224, 224)) * 0.1)
        with T.no_grad():
            pyramid = net.forward(x)
        assert pyramid.f_m4.shape == (1, 1024, 28, 28)
        assert pyramid.f_m5.shape == (1, 2048, 14, 14)
        assert pyramid.embedding.shape == (1, 2048)


class TestForward:
    def test_tiny_audio_shapes(self):
        net = build_backbone(BackboneConfig.tiny(1), seed=1)
        x = T.Tensor(np.random.default_rng(1).standard_normal((2, 1, 201, 64)))
        with T.no_grad():
            pyramid = net.forward(x)
        assert pyramid.f_m4.shape == (2, 16, 26, 8)
        assert pyramid.f_m5.shape == (2, 32, 13, 4)

    def test_stride_arithmetic_helper(self):
        assert feature_map_dims(224, 224) == ((28, 28), (14, 14))
        assert feature_map_dims(201, 64) == ((26, 8), (13, 4))

    def test_stride_arithmetic_range(self):
        # Holds for any visual input >= 32x32 and audio input >= 64x32.
        for h in (32, 33, 63, 64, 100, 201):
            for w in (32, 45, 64):
                (h4, w4), (h5, w5) = feature_map_dims(h, w)
                assert h4 == (((h - 1) // 2) // 2 + 1 - 1) // 2 + 1 or h4 >= 1
                assert h5 == (h4 - 1) // 2 + 1
                assert w5 == (w4 - 1) // 2 + 1

    def test_zero_input_zero_embedding(self):
        # Affine shifts start at zero, convs have no bias: zeros propagate.
        net = build_backbone(BackboneConfig.tiny(1), seed=2)
        x = T.Tensor(np.zeros((1, 1, 64, 32)))
        with T.no_grad():
            pyramid = net.forward(x)
        assert np.all(pyramid.embedding.data == 0.0)

    def test_wrong_channel_count(self):
        net = build_backbone(BackboneConfig.tiny(1), seed=0)
        with pytest.raises(ConfigurationError):
            net.forward(T.Tensor(np.zeros((1, 3, 64, 32))))

    def test_too_small_input(self):
        with pytest.raises(ConfigurationError):
            feature_map_dims(2, 2)

    def test_gradients_reach_every_parameter(self):
        net = build_backbone(BackboneConfig.tiny(1), seed=3)
        x = T.Tensor(np.random.default_rng(3).standard_normal((2, 1, 64, 32)))
        pyramid = net.forward(x)
        loss = T.add(T.total_sum(pyramid.f_m4), T.total_sum(pyramid.embedding))
        loss.backward()
        for name, p in net.registry.items():
            assert p.grad is not None, name
            assert np.linalg.norm(p.grad) > 0.0, name

    def test_forward_deterministic(self):
        net = build_backbone(BackboneConfig.tiny(1), seed=4)
        x = T.Tensor(np.random.default_rng(4).standard_normal((1, 1, 64, 32)))
        with T.no_grad():
            a = net.forward(x).f_m5.data
            b = net.forward(x).f_m5.data
        assert np.array_equal(a, b)


def taped_nodes(out):
    """Count the recorded op nodes reachable from out through ``_parents``."""
    seen, stack, count = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) in seen or t._backward is None:  # leaves end the walk
            continue
        seen.add(id(t))
        count += 1
        stack.extend(t._parents)
    return count


class TestTape:
    @pytest.mark.parametrize(
        "block_type, c_in, c_out, stride, nodes",
        [
            ("bottleneck", 8, 16, 2, 4),  # 4 conv units, the last with the join
            ("bottleneck", 16, 16, 1, 3),  # identity shortcut
            ("basic", 8, 8, 1, 2),  # 2 conv units, the last with the join
            ("basic", 4, 8, 2, 3),  # projected shortcut
        ],
    )
    def test_one_node_per_conv_unit_and_join(self, block_type, c_in, c_out, stride, nodes):
        reg = T.ParamRegistry()
        block = ResidualBlock(reg, np.random.default_rng(0), "b", c_in, c_out, stride, block_type)
        x = T.Tensor(np.random.default_rng(1).standard_normal((2, c_in, 8, 8)))
        assert taped_nodes(block.forward(x)) == nodes

    def test_stem_is_one_node(self):
        net = build_backbone(BackboneConfig.tiny(1), seed=0)
        x = T.Tensor(np.random.default_rng(0).standard_normal((1, 1, 32, 32)))
        assert taped_nodes(net.stem.forward(x)) == 1

    def test_forward_tape_allocation_stays_bounded(self):
        config = BackboneConfig(1, [8, 16, 16, 32, 64], [1, 1, 1, 1], "bottleneck")
        net = build_backbone(config, seed=0)
        x = T.Tensor(np.random.default_rng(0).standard_normal((2, 1, 64, 64)))
        net.forward(x)  # warm every lazily built cache first
        tracemalloc.start()
        try:
            pyramid = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pyramid.embedding.shape == (2, 64)
        # One output per conv unit, the join inside the block's last unit and
        # no im2col columns: 1.16 MiB measured. Keeping each conv's columns and
        # each block's pre-join output held 3.17 MiB; a separate affine and
        # ReLU node per unit on top of that, ~5.0 MiB.
        assert peak <= 1.25 * 1024 * 1024, peak / 2**20
