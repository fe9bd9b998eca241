"""Attention fusion: shape contract, gate saturation, convexity, gradients."""

import numpy as np
import pytest

from avscene import tensor as T
from avscene.errors import ConfigurationError
from avscene.fusion import AttentionFusion


def make_fusion(c4, c5, seed=0):
    registry = T.ParamRegistry(np.float64)
    fusion = AttentionFusion(registry, c4, c5, np.random.default_rng(seed))
    return registry, fusion


class TestShapes:
    def test_full_audio_shapes(self):
        registry, fusion = make_fusion(1024, 2048)
        f4 = T.Tensor(np.zeros((1, 1024, 26, 8)))
        f5 = T.Tensor(np.zeros((1, 2048, 13, 4)))
        with T.no_grad():
            out = fusion.forward(f4, f5)
        assert out.shape == (1, 1024, 26, 8)

    def test_full_visual_shapes(self):
        registry, fusion = make_fusion(1024, 2048)
        f4 = T.Tensor(np.zeros((1, 1024, 28, 28)))
        f5 = T.Tensor(np.zeros((1, 2048, 14, 14)))
        with T.no_grad():
            out = fusion.forward(f4, f5)
        assert out.shape == (1, 1024, 28, 28)

    def test_odd_sized_ceil_half(self):
        registry, fusion = make_fusion(8, 16)
        f4 = T.Tensor(np.zeros((1, 8, 7, 5)))
        f5 = T.Tensor(np.zeros((1, 16, 4, 3)))
        with T.no_grad():
            assert fusion.forward(f4, f5).shape == (1, 8, 7, 5)

    def test_spatial_mismatch_rejected(self):
        registry, fusion = make_fusion(8, 16)
        f4 = T.Tensor(np.zeros((1, 8, 8, 8)))
        f5 = T.Tensor(np.zeros((1, 16, 3, 3)))
        with pytest.raises(ConfigurationError):
            fusion.forward(f4, f5)


class TestBehavior:
    def test_saturated_gate_returns_shallow_map(self):
        registry, fusion = make_fusion(4, 8, seed=1)
        fusion.gate_bias.data[:] = 40.0  # sigmoid saturates to exactly 1.0
        rng = np.random.default_rng(2)
        f4 = T.Tensor(rng.standard_normal((2, 4, 6, 6)))
        f5 = T.Tensor(rng.standard_normal((2, 8, 3, 3)))
        with T.no_grad():
            out = fusion.forward(f4, f5)
        assert np.array_equal(out.data, f4.data)

    def test_output_is_convex_combination(self):
        registry, fusion = make_fusion(4, 8, seed=3)
        rng = np.random.default_rng(4)
        f4 = T.Tensor(rng.standard_normal((2, 4, 6, 4)))
        f5 = T.Tensor(rng.standard_normal((2, 8, 3, 2)))
        with T.no_grad():
            out = fusion.forward(f4, f5)
            # Recompute the projected map to bound the blend.
            kernel = T.reshape(fusion.proj_weight, (4, 8, 1, 1))
            proj = T.bilinear_upsample(T.conv2d(f5, kernel, fusion.proj_bias), 6, 4)
        lo = np.minimum(f4.data, proj.data)
        hi = np.maximum(f4.data, proj.data)
        assert np.all(out.data >= lo - 1e-12)
        assert np.all(out.data <= hi + 1e-12)

    def test_each_sample_matches_its_one_sample_forward(self):
        # float32, where a gate product whose rounding depends on the batch
        # size would change the bits of a sample's output.
        registry = T.ParamRegistry(np.float32)
        fusion = AttentionFusion(registry, 16, 32, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        fusion.gate_bias.data[:] = rng.uniform(-1.0, 1.0, 16)
        fusion.proj_bias.data[:] = rng.uniform(-1.0, 1.0, 16)
        f4 = rng.standard_normal((4, 16, 6, 4)).astype(np.float32)
        f5 = rng.standard_normal((4, 32, 3, 2)).astype(np.float32)
        with T.no_grad():
            batched = fusion.forward(T.Tensor(f4), T.Tensor(f5)).data
            for i in range(4):
                one = fusion.forward(T.Tensor(f4[i : i + 1]), T.Tensor(f5[i : i + 1]))
                assert np.array_equal(batched[i : i + 1], one.data), i

    def test_forward_is_eight_tape_nodes(self):
        # reshape, conv2d and bilinear_upsample project f_m5; concat,
        # global_avg_pool, linear and sigmoid make the gate; gate_blend mixes.
        registry, fusion = make_fusion(4, 8, seed=5)
        f4 = T.Tensor(np.ones((1, 4, 4, 4)), requires_grad=True)
        f5 = T.Tensor(np.ones((1, 8, 2, 2)), requires_grad=True)
        nodes, stack = set(), [fusion.forward(f4, f5)]
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node._parents)
        assert len(nodes) == 8

    def test_gradients_pass_finite_difference(self):
        registry, fusion = make_fusion(4, 8, seed=5)
        rng = np.random.default_rng(6)
        f4 = T.Tensor(rng.standard_normal((1, 4, 4, 4)))
        f5 = T.Tensor(rng.standard_normal((1, 8, 2, 2)))

        def loss():
            return T.total_sum(T.sigmoid(fusion.forward(f4, f5)))

        report = T.finite_diff_check(registry, loss, epsilon=1e-5)
        assert report.max_relative_error < 1e-5, report.per_param


def upsample_first_forward(fusion, f4, f5):
    """The fusion output with f5 upsampled before the 1x1 projection."""
    n, c4, h4, w4 = f4.shape
    kernel = T.reshape(fusion.proj_weight, (c4, fusion.c5, 1, 1))
    proj = T.conv2d(T.bilinear_upsample(f5, h4, w4), kernel, fusion.proj_bias)
    pooled = T.global_avg_pool(T.concat([f4, proj], axis=1))
    gate = T.sigmoid(T.linear(pooled, fusion.gate_weight, fusion.gate_bias))
    g = gate.data[:, :, None, None]
    return f4.data * g + proj.data * (1.0 - g)


class TestProjectionOrder:
    """Projecting at the deep map's resolution, then upsampling, is the same map."""

    @pytest.mark.parametrize("h4, w4", [(6, 4), (7, 5)])
    def test_matches_upsampling_first(self, h4, w4):
        registry, fusion = make_fusion(4, 8, seed=9)
        rng = np.random.default_rng(h4 * 10 + w4)
        fusion.proj_bias.data[:] = rng.uniform(-2.0, 2.0, 4)
        fusion.gate_bias.data[:] = rng.uniform(-1.0, 1.0, 4)
        f4 = T.Tensor(rng.standard_normal((2, 4, h4, w4)))
        f5 = T.Tensor(rng.standard_normal((2, 8, (h4 + 1) // 2, (w4 + 1) // 2)))
        with T.no_grad():
            kernel = T.reshape(fusion.proj_weight, (4, 8, 1, 1))
            late = T.bilinear_upsample(T.conv2d(f5, kernel, fusion.proj_bias), h4, w4)
            early = T.conv2d(T.bilinear_upsample(f5, h4, w4), kernel, fusion.proj_bias)
            out = fusion.forward(f4, f5).data
        for got, want in ((late.data, early.data), (out, upsample_first_forward(fusion, f4, f5))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
