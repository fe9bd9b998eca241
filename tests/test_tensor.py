"""Tensor core: forward oracles, gradients, serialization."""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avscene import tensor as T
from avscene.errors import ConfigurationError, DataError


def naive_conv2d(x, w, bias=None, stride=1, padding=0, scale=None, relu=False, residual=None):
    """Six-loop reference conv unit, independent of the im2col path.

    Computes relu?(scale[O] * (w ⋆ x) + bias[O] + residual) one output scalar
    at a time.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    xp[ni, ci, yi * stride + i, xi * stride + j]
                                    * w[oi, ci, i, j]
                                )
                    out[ni, oi, yi, xi] = acc
            if scale is not None:
                out[ni, oi] *= scale[oi]
            if bias is not None:
                out[ni, oi] += bias[oi]
    if residual is not None:
        out += residual
    return np.maximum(out, 0.0) if relu else out


def naive_conv2d_grads(
    x, w, g, stride=1, padding=0, bias=None, scale=None, relu=False, residual=None
):
    """Loop reference for the conv unit's backward: (dx, dw, dscale, dbias, dresidual).

    With the ReLU, g is first zeroed where the pre-activation is not
    positive; that masked g is the residual's gradient. Every output position
    then scatters g times scale times its input window into dw and g times
    scale times the kernel into dx, and adds g times its raw window product
    to dscale, with no im2col and no matrix product. Without ``scale``,
    dscale is the gradient a unit scale would get.
    """
    n, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    if relu:
        g = g * (naive_conv2d(x, w, bias, stride, padding, scale, residual=residual) > 0.0)
    s = np.ones(o) if scale is None else scale
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    ds = np.zeros(o)
    db = np.zeros(o)
    for ni in range(n):
        for oi in range(o):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    ys, xs = yi * stride, xi * stride
                    gv = g[ni, oi, yi, xi]
                    window = xp[ni, :, ys : ys + kh, xs : xs + kw]
                    dw[oi] += gv * s[oi] * window
                    dxp[ni, :, ys : ys + kh, xs : xs + kw] += gv * s[oi] * w[oi]
                    ds[oi] += gv * np.sum(window * w[oi])
                    db[oi] += gv
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw, ds, db, g


class TestConv2d:
    def test_all_ones_3x3(self):
        x = T.Tensor(np.ones((1, 1, 4, 4)))
        w = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w)
        assert out.data.shape == (1, 1, 2, 2)
        assert np.all(out.data == 9.0)

    def test_table_stem_shape(self):
        # 3x224x224 through 64 filters of 7x7, stride 2, pad 3.
        x = T.Tensor(np.zeros((1, 3, 224, 224)))
        w = T.Tensor(np.zeros((64, 3, 7, 7)))
        out = T.conv2d(x, w, stride=2, padding=3)
        assert out.data.shape == (1, 64, 112, 112)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=1, padding=0)
        want = naive_conv2d(x, w, b)
        assert np.max(np.abs(got.data - want)) < 1e-12

    def test_naive_oracle_random_sweep(self):
        # 100 random small shapes, stride/padding included.
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k, k + 5))
            wd = int(rng.integers(k, k + 5))
            x = rng.standard_normal((n, c, h, wd))
            w = rng.standard_normal((o, c, k, k))
            got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=pad)
            want = naive_conv2d(x, w, stride=stride, padding=pad)
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_shape_mismatch_names_dims(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8)))
        w = T.Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ConfigurationError, match="4 channels.*3"):
            T.conv2d(x, w)

    def test_kernel_too_large(self):
        x = T.Tensor(np.zeros((1, 1, 4, 4)))
        w = T.Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, w)

    def test_negative_padding_names_padding(self):
        x = T.Tensor(np.zeros((1, 1, 8, 8)))
        w = T.Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match="padding"):
            T.conv2d(x, w, padding=-1)

    @pytest.mark.parametrize("name", ["scale", "bias"])
    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_channel_vector_shape_names_it(self, name, shape):
        x = T.Tensor(np.zeros((1, 1, 4, 4)))
        w = T.Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match=f"{name} shape"):
            T.conv2d(x, w, **{name: T.Tensor(np.zeros(shape))})

    def test_residual_shape_names_it(self):
        x = T.Tensor(np.zeros((1, 1, 4, 4)))
        w = T.Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match=r"residual shape \(1, 2, 4, 4\) != \(1, 2, 2, 2\)"):
            T.conv2d(x, w, residual=T.Tensor(np.zeros((1, 2, 4, 4))))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        a = T.conv2d(T.Tensor(x), T.Tensor(w), stride=2, padding=1).data
        b = T.conv2d(T.Tensor(x), T.Tensor(w), stride=2, padding=1).data
        assert np.array_equal(a, b)


def conv2d_grads(x, w, g, stride, padding, bias=None, scale=None, relu=False, residual=None):
    """(out, dx, dw, dscale, dbias, dresidual) from conv2d's forward and taped backward.

    dscale, dbias and dresidual are None when the unit has no scale, bias or
    residual.
    """
    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    bt, st, rt = (
        None if a is None else T.Tensor(a, requires_grad=True) for a in (bias, scale, residual)
    )
    out = T.conv2d(
        xt, wt, bt, stride=stride, padding=padding, scale=st, relu=relu, residual=rt
    )
    T.total_sum(T.mul(out, T.Tensor(g))).backward()
    grads = tuple(None if t is None else t.grad for t in (xt, wt, st, bt, rt))
    return (out.data,) + grads


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# (scaled, relu, joined): bias only, the backbone's proj unit, its inner units,
# and a block's last unit with the residual join
CONV_UNIT_MODES = (
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, True, True),
)


class TestConv2dBackward:
    @pytest.mark.parametrize(
        "n, c, o, k, stride, pad, h, wd",
        [
            (1, 3, 4, 1, 1, 0, 5, 6),  # 1x1 stride 1: columns are the input
            (3, 3, 4, 1, 1, 1, 4, 5),  # same, with padding
            (1, 3, 4, 1, 2, 0, 7, 6),
            (3, 2, 5, 1, 2, 0, 5, 5),
            (1, 3, 4, 3, 1, 1, 6, 5),
            (3, 3, 4, 3, 1, 1, 5, 5),
            (1, 3, 4, 3, 2, 1, 7, 6),
            (3, 2, 3, 3, 2, 1, 6, 7),
            (1, 3, 4, 7, 2, 3, 11, 9),  # the stem
            (3, 3, 2, 7, 2, 3, 9, 10),
        ],
    )
    def test_matches_loop_reference(self, n, c, o, k, stride, pad, h, wd):
        rng = np.random.default_rng(n * 1000 + k * 10 + stride)
        pre = self.check(rng, n, c, o, k, stride, pad, h, wd)
        assert (pre > 0.0).any() and (pre < 0.0).any()  # both ReLU sides

    @pytest.mark.parametrize("n", [1, 3])
    def test_loop_reference_random_sweep(self, n):
        rng = np.random.default_rng(29 + n)
        signs = []
        for _ in range(30):
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k, k + 5))
            wd = int(rng.integers(k, k + 5))
            signs.append(self.check(rng, n, c, o, k, stride, pad, h, wd).ravel() > 0.0)
        positive = np.concatenate(signs).mean()
        assert 0.25 < positive < 0.75  # both ReLU sides, in about equal share

    @staticmethod
    def check(rng, n, c, o, k, stride, pad, h, wd, kw=None):
        """Compare forward and gradients in every mode; returns the pre-activation.

        The kernel is k x k, or k x kw when kw is given.
        """
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((o, c, k, kw or k))
        b = rng.standard_normal(o)
        s = rng.standard_normal(o)
        pre = naive_conv2d(x, w, b, stride, pad, scale=s)
        # Windows wholly in the padding give exactly the bias, which is not 0.
        assert np.all(pre != 0.0)  # no pre-activation on the ReLU's kink
        g = rng.standard_normal(pre.shape)
        r = rng.standard_normal(pre.shape)
        for scaled, relu, joined in CONV_UNIT_MODES:
            scale = s if scaled else None
            residual = r if joined else None
            got = conv2d_grads(x, w, g, stride, pad, b, scale, relu, residual)
            want = (
                naive_conv2d(x, w, b, stride, pad, scale, relu, residual),
            ) + naive_conv2d_grads(x, w, g, stride, pad, b, scale, relu, residual)
            # out, dx, dw, dscale, dbias, dresidual
            present = (True, True, True, scaled, True, joined)
            for has, gv, wv in zip(present, got, want):
                if has:
                    assert gv is not None
                    assert_rel_close(gv, wv)
        return pre


@st.composite
def conv_geometries(draw):
    """(n, c, o, kh, kw, stride, padding, h, w) with the kernel inside the padded input."""
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    h0, w0 = max(1, kh - 2 * pad), max(1, kw - 2 * pad)
    h = draw(st.integers(h0, h0 + 2 * stride + 1))
    w = draw(st.integers(w0, w0 + 2 * stride + 1))
    n, c, o = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return n, c, o, kh, kw, stride, pad, h, w


def read_cells(h, wd, kh, kw, stride, pad):
    """Boolean [H,W]: the input cells that some conv window reads."""
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    read = np.zeros((h + 2 * pad, wd + 2 * pad), dtype=bool)
    for yo in range(ho):
        for xo in range(wo):
            read[yo * stride : yo * stride + kh, xo * stride : xo * stride + kw] = True
    return read[pad : pad + h, pad : pad + wd]


class TestConv2dGeometry:
    """The phase-plane columns against the loop references, and what no window reads."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(geometry=conv_geometries(), seed=st.integers(0, 2**32 - 1))
    # Kernels that are not square, on sizes where (hp - kh) is not a
    # multiple of the stride, so the last rows and columns go unread.
    @example(geometry=(2, 2, 3, 3, 2, 2, 0, 6, 5), seed=1)
    @example(geometry=(1, 3, 2, 7, 3, 2, 3, 10, 7), seed=2)
    @example(geometry=(2, 1, 2, 2, 5, 3, 1, 6, 8), seed=3)
    @example(geometry=(1, 2, 2, 1, 4, 3, 2, 5, 4), seed=4)
    @example(geometry=(2, 2, 1, 5, 1, 1, 3, 2, 6), seed=5)
    def test_matches_loop_reference(self, geometry, seed):
        n, c, o, kh, kw, stride, pad, h, wd = geometry
        rng = np.random.default_rng(seed)
        TestConv2dBackward.check(rng, n, c, o, kh, stride, pad, h, wd, kw=kw)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "h, wd, k, stride, pad",
        [
            (6, 5, 3, 2, 0),  # the last row
            (5, 6, 3, 2, 0),  # the last column
            (7, 7, 2, 2, 0),  # both
            (7, 8, 1, 2, 1),  # every other row and column: the kernel is narrower than the stride
            (6, 5, 3, 3, 1),  # the last input row, inside the padding's frame
        ],
    )
    def test_unread_cells_reach_no_output_or_gradient(self, h, wd, k, stride, pad, dtype):
        rng = np.random.default_rng(h * 100 + wd * 10 + k)
        read = read_cells(h, wd, k, k, stride, pad)
        assert not read.all()
        x = rng.standard_normal((2, 2, h, wd)).astype(dtype)
        w = rng.standard_normal((3, 2, k, k)).astype(dtype)
        b, s = rng.standard_normal((2, 3)).astype(dtype)
        ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
        g, r = rng.standard_normal((2, 2, 3, ho, wo)).astype(dtype)
        runs = []
        for fill in (np.nan, 0.0):
            xf = x.copy()
            xf[:, :, ~read] = fill
            runs.append(conv2d_grads(xf, w, g, stride, pad, b, s, True, r))
        # out, dx, dw, dscale, dbias, dresidual
        for got, want in zip(*runs):
            assert np.array_equal(got, want)
        assert np.all(runs[0][1][:, :, ~read] == 0.0)

    def test_unpadded_1x1_stride_1_columns_are_the_input(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 4, 5)).astype(np.float32)
        taps = T._tap_layout(4, 5, 1, 1, 1, 0)
        cols = T._im2col(x, taps)
        assert cols.shape == (2, 3, 20) and np.shares_memory(cols, x)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_unpadded_strided_1x1_columns_are_the_strided_input(self, stride):
        x = np.random.default_rng(8).standard_normal((2, 3, 7, 5)).astype(np.float32)
        cols = T._im2col(x, T._tap_layout(7, 5, 1, 1, stride, 0))
        assert np.array_equal(cols, x[:, :, ::stride, ::stride].reshape(2, 3, -1))

    @pytest.mark.parametrize(
        "k, stride, pad, h, wd",
        [(1, 1, 0, 6, 5), (1, 2, 0, 7, 6), (3, 1, 1, 6, 5), (3, 2, 1, 7, 6), (7, 2, 3, 11, 9)],
    )
    def test_one_item_weight_gradients_are_the_batch_sum_bit_for_bit(self, k, stride, pad, h, wd):
        # With one item the backward hands over its product uncopied; that
        # must equal the sum over a batch of one, scale gradient included.
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        x = rng.standard_normal((1, 3, h, wd)).astype(np.float32)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        b, s = rng.standard_normal((2, 4)).astype(np.float32)
        layout = T._tap_layout(h, wd, k, k, stride, pad)
        g = rng.standard_normal((1, 4, layout.ho, layout.wo)).astype(np.float32)
        _, _, dw, dscale, _, _ = conv2d_grads(x, w, g, stride, pad, b, s)
        gq = np.zeros((1, 4, layout.ho, layout.wq), dtype=np.float32)
        gq[..., : layout.wo] = g
        cols = T._im2col(x, layout)
        gw = np.matmul(gq.reshape(1, 4, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(dscale, np.einsum("ok,ok->o", gw, w.reshape(4, -1)))
        assert np.array_equal(dw, (gw * s[:, None]).reshape(w.shape))


class TestBatchedMatrixApply:
    def test_one_matrix_applies_to_every_item(self):
        rng = np.random.default_rng(59)
        m = rng.standard_normal((4, 4))
        x = rng.standard_normal((3, 4, 2)).astype(np.float32)
        one = T.batched_matrix_apply(m, T.Tensor(x)).data
        per_item = T.batched_matrix_apply(np.stack([m] * 3), T.Tensor(x)).data
        assert one.dtype == np.float32 and np.array_equal(one, per_item)
        for i in range(3):
            single = T.batched_matrix_apply(m, T.Tensor(x[i : i + 1])).data
            assert np.array_equal(one[i : i + 1], single)

    @pytest.mark.parametrize("m_shape", [(3, 3), (3, 4, 4), (2, 4, 3), (4,)])
    def test_shape_error_names_both_shapes(self, m_shape):
        x = T.Tensor(np.zeros((2, 4, 3)))
        want = re.escape(f"m {m_shape} does not fit x (2, 4, 3)")
        with pytest.raises(ConfigurationError, match=want):
            T.batched_matrix_apply(np.zeros(m_shape), x)


class TestLinearRank3:
    """linear on x[N,K,F], as the GCN layer calls it; the batch test adds rank 2."""

    def test_identity_weight(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 3))
        out = T.linear(T.Tensor(x), T.Tensor(np.eye(3)))
        assert np.array_equal(out.data, x)

    def test_zero_weight(self):
        x = T.Tensor(np.random.default_rng(1).standard_normal((1, 6, 4)))
        out = T.linear(x, T.Tensor(np.zeros((2, 4))))
        assert out.shape == (1, 6, 2) and np.all(out.data == 0.0)

    def test_matmul_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 4))
        w = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        got = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
        want = np.empty((2, 6, 2))
        for i in range(2):
            for k in range(6):
                want[i, k] = w @ x[i, k] + b
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ConfigurationError, match="linear"):
            T.linear(T.Tensor(np.zeros((1, 4, 3))), T.Tensor(np.zeros((2, 5))))
        with pytest.raises(ConfigurationError, match="linear"):
            T.linear(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("n", [1, 3])
    def test_backward_matches_per_sample_products(self, n):
        rng = np.random.default_rng(41 + n)
        x = rng.standard_normal((n, 6, 4))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        g = rng.standard_normal((n, 6, 3))
        xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
        T.total_sum(T.mul(T.linear(xt, wt, bt), T.Tensor(g))).backward()
        assert_rel_close(wt.grad, sum(g[i].T @ x[i] for i in range(n)))
        assert_rel_close(xt.grad, np.stack([g[i] @ w for i in range(n)]))
        assert_rel_close(bt.grad, g.sum(axis=(0, 1)))

    def test_each_item_is_independent_of_its_batch(self):
        # float32, where a product whose rounding depends on N would show.
        # Rank 2 is the model head: one [N,F] GEMM would fail here.
        rng = np.random.default_rng(43)
        w = T.Tensor(rng.standard_normal((48, 96)).astype(np.float32))
        b = T.Tensor(rng.standard_normal(48).astype(np.float32))
        for shape in ((5, 1, 96), (5, 96)):
            x = rng.standard_normal(shape).astype(np.float32)
            batched = T.linear(T.Tensor(x), w, b).data
            for i in range(5):
                single = T.linear(T.Tensor(x[i : i + 1]), w, b).data
                assert np.array_equal(batched[i : i + 1], single), (shape, i)


class TestElementwiseAndPooling:
    def test_relu_definition(self):
        out = T.relu(T.Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_relu_is_relu_of_add_bit_for_bit(self):
        # The residual join fused into conv2d against relu(add(conv2d, r)).
        rng = np.random.default_rng(19)
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((2, 3, 5, 5)).astype(dtype)
            w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
            s, b = rng.standard_normal((2, 4)).astype(dtype)
            r, g = rng.standard_normal((2, 2, 4, 5, 5)).astype(dtype)
            pre = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), padding=1, scale=T.Tensor(s))
            r[0, 0] = -pre.data[0, 0]  # sums exactly on the kink

            def run(fused):
                xt, wt, st, bt, rt = (T.Tensor(a, requires_grad=True) for a in (x, w, s, b, r))
                if fused:
                    out = T.conv2d(xt, wt, bt, padding=1, scale=st, relu=True, residual=rt)
                else:
                    out = T.relu(T.add(T.conv2d(xt, wt, bt, padding=1, scale=st), rt))
                T.total_sum(T.mul(out, T.Tensor(g))).backward()
                return out.data, xt.grad, wt.grad, st.grad, bt.grad, rt.grad

            fused, reference = run(True), run(False)
            assert np.all(fused[0][0, 0] == 0.0) and (fused[0] > 0.0).any()
            for got, want in zip(fused, reference):
                assert got.dtype == dtype
                assert np.array_equal(got, want)

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(T.Tensor(np.array([-1000.0, 0.0, 1000.0])))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 0.5

    def test_global_avg_pool_constant(self):
        x = T.Tensor(np.full((2, 3, 4, 5), 7.0))
        out = T.global_avg_pool(x)
        assert out.data.shape == (2, 3)
        assert np.all(out.data == 7.0)

    def test_bilinear_2x2_to_4x4_hand_oracle(self):
        # Half-pixel centers: along each axis the source positions for the
        # four outputs are clip({-0.25, 0.25, 0.75, 1.25}) -> one-dim weights
        # [(1,0), (.75,.25), (.25,.75), (0,1)] over the two input samples.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 1, 2, 2))
        w1d = np.array([[1.0, 0.0], [0.75, 0.25], [0.25, 0.75], [0.0, 1.0]])
        want = np.zeros((4, 4))
        for yi in range(4):
            for xi in range(4):
                for a in range(2):
                    for b in range(2):
                        want[yi, xi] += w1d[yi, a] * w1d[xi, b] * x[0, 0, a, b]
        got = T.bilinear_upsample(T.Tensor(x), 4, 4).data[0, 0]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_bilinear_identity(self):
        x = np.random.default_rng(2).standard_normal((1, 2, 5, 3))
        out = T.bilinear_upsample(T.Tensor(x), 5, 3)
        assert np.max(np.abs(out.data - x)) < 1e-12


def four_corner_coords(n_in, n_out):
    # Half-pixel-center mapping, clamped at the borders.
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


def four_corner_weights(h, w, h2, w2):
    """The four (row, col, weight) corner terms of each output pixel."""
    y0, y1, fy = four_corner_coords(h, h2)
    x0, x1, fx = four_corner_coords(w, w2)
    wy, wx = fy[:, None], fx[None, :]
    return [
        (y0[:, None], x0[None, :], (1 - wy) * (1 - wx)),
        (y0[:, None], x1[None, :], (1 - wy) * wx),
        (y1[:, None], x0[None, :], wy * (1 - wx)),
        (y1[:, None], x1[None, :], wy * wx),
    ]


def four_corner_resize(a, h2, w2):
    """Reference bilinear resize: gather the four neighbours of each output."""
    terms = four_corner_weights(a.shape[-2], a.shape[-1], h2, w2)
    return sum(wt * a[..., ys, xs] for ys, xs, wt in terms)


def four_corner_resize_grad(g, h, w):
    """Reference backward: scatter-add g times each corner weight."""
    dx = np.zeros(g.shape[:2] + (h, w))
    sl = (slice(None), slice(None))
    for ys, xs, wt in four_corner_weights(h, w, g.shape[2], g.shape[3]):
        np.add.at(dx, sl + (ys, xs), g * wt)
    return dx


class TestBilinearMatrixForm:
    @pytest.mark.parametrize(
        "h, w, h2, w2",
        [
            (3, 3, 5, 7),  # up
            (4, 4, 8, 8),  # up 2x, the AFM's stage-5 to stage-4 case
            (7, 6, 3, 4),  # down
            (9, 5, 2, 5),  # down along one axis only
            (5, 3, 5, 3),  # identity
            (1, 4, 3, 4),  # 1-pixel input axis
            (4, 1, 2, 5),
            (1, 1, 3, 2),
            (4, 5, 1, 1),  # 1-pixel output
        ],
    )
    def test_matches_four_corner_formula(self, h, w, h2, w2):
        rng = np.random.default_rng(h * 100 + w * 10 + h2 + w2)
        x = rng.standard_normal((2, 3, h, w))
        g = rng.standard_normal((2, 3, h2, w2))
        want = four_corner_resize(x, h2, w2)
        assert np.max(np.abs(T.bilinear_resize_array(x, h2, w2) - want)) < 1e-12
        xt = T.Tensor(x, requires_grad=True)
        out = T.bilinear_upsample(xt, h2, w2)
        assert np.max(np.abs(out.data - want)) < 1e-12
        T.total_sum(T.mul(out, T.Tensor(g))).backward()
        assert np.max(np.abs(xt.grad - four_corner_resize_grad(g, h, w))) < 1e-12

    def test_resize_array_keeps_leading_axes(self):
        a = np.random.default_rng(4).standard_normal((3, 4, 6))
        got = T.bilinear_resize_array(a, 7, 2)
        assert got.shape == (3, 7, 2)
        assert np.max(np.abs(got - four_corner_resize(a, 7, 2))) < 1e-12

    def test_cached_matrix_is_read_only(self):
        r = T._resize_matrix(3, 5, np.dtype(np.float64))
        assert r is T._resize_matrix(3, 5, np.dtype(np.float64))
        with pytest.raises(ValueError):
            r[0, 0] = 2.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.Tensor(np.zeros((2, 4))), [1, 3])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 50.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), [2])
        assert loss.item() < 1e-12

    def test_logsumexp_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((3, 5))
        labels = [0, 4, 2]
        loss = T.softmax_cross_entropy(T.Tensor(logits), labels).item()
        want = 0.0
        for i, y in enumerate(labels):
            want += math.log(np.exp(logits[i]).sum()) - logits[i, y]
        want /= 3
        assert abs(loss - want) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((1, 3))), [3])

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(17)
        probs = T.softmax_probs(rng.standard_normal((10, 6)) * 30)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


class TestAutodiff:
    def test_quadratic_gradient(self):
        reg = T.ParamRegistry()
        w = reg.register("w", np.array([3.0]))
        report = T.finite_diff_check(reg, lambda: T.mul(w, w), epsilon=1e-5)
        assert w.grad[0] == pytest.approx(6.0)
        assert report.max_relative_error < 1e-8

    def test_constant_loss_all_zero(self):
        reg = T.ParamRegistry()
        reg.register("w", np.ones(4))
        const = T.Tensor(np.array(5.0))
        report = T.finite_diff_check(reg, lambda: const, epsilon=1e-5)
        assert report.max_relative_error == 0.0

    @pytest.mark.parametrize(
        "name",
        [
            "conv2d",
            "conv2d_affine_relu",
            "conv2d_residual",
            "conv2d_1x1_bias",
            "relu",
            "sigmoid",
            "global_avg_pool",
            "bilinear_upsample",
            "linear",
            "linear_rank3",
            "channel_scale",
            "gather_pixels",
            "batched_matrix_apply",
            "batched_matrix_apply_per_item",
            "concat_slice",
            "softmax_cross_entropy",
        ],
    )
    def test_op_gradients_in_isolation(self, name):
        # A checksum, not hash(): str hashes change with PYTHONHASHSEED.
        rng = np.random.default_rng(zlib.adler32(name.encode()))
        reg = T.ParamRegistry()

        if name == "conv2d":
            w = reg.register("w", rng.standard_normal((2, 3, 3, 3)) * 0.5)
            b = reg.register("b", rng.standard_normal(2) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 3, 5, 4)) * 0.5)
            fn = lambda: T.total_sum(
                T.sigmoid(T.conv2d(x, w, b, stride=2, padding=1))
            )
        elif name == "conv2d_affine_relu":
            w = reg.register("w", rng.standard_normal((3, 2, 3, 3)) * 0.5)
            s = reg.register("s", rng.standard_normal(3))
            b = reg.register("b", rng.standard_normal(3) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 2, 5, 4)) * 0.5)
            fn = lambda: T.total_sum(
                T.sigmoid(T.conv2d(x, w, b, stride=2, padding=1, scale=s, relu=True))
            )
        elif name == "conv2d_residual":
            w = reg.register("w", rng.standard_normal((3, 2, 3, 3)) * 0.5)
            s = reg.register("s", rng.standard_normal(3))
            b = reg.register("b", rng.standard_normal(3) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 2, 5, 4)) * 0.5)
            r = reg.register("r", rng.standard_normal((2, 3, 3, 2)))
            fn = lambda: T.total_sum(
                T.sigmoid(
                    T.conv2d(x, w, b, stride=2, padding=1, scale=s, relu=True, residual=r)
                )
            )
        elif name == "conv2d_1x1_bias":
            w = reg.register("w", rng.standard_normal((2, 4, 1, 1)))
            b = reg.register("b", rng.standard_normal(2))
            x = reg.register("x", rng.standard_normal((2, 4, 3, 5)))
            fn = lambda: T.total_sum(T.sigmoid(T.conv2d(x, w, b)))
        elif name == "relu":
            x = reg.register("x", rng.standard_normal(20) + 0.05)
            fn = lambda: T.total_sum(T.mul(T.relu(x), x))
        elif name == "sigmoid":
            x = reg.register("x", rng.standard_normal(20))
            fn = lambda: T.total_sum(T.mul(T.sigmoid(x), x))
        elif name == "global_avg_pool":
            x = reg.register("x", rng.standard_normal((2, 3, 4, 4)))
            fn = lambda: T.total_sum(T.sigmoid(T.global_avg_pool(x)))
        elif name == "bilinear_upsample":
            x = reg.register("x", rng.standard_normal((1, 2, 3, 3)))
            fn = lambda: T.total_sum(T.sigmoid(T.bilinear_upsample(x, 5, 7)))
        elif name == "linear":
            w = reg.register("w", rng.standard_normal((3, 4)))
            b = reg.register("b", rng.standard_normal(3))
            x = reg.register("x", rng.standard_normal((2, 4)))
            fn = lambda: T.total_sum(T.sigmoid(T.linear(x, w, b)))
        elif name == "linear_rank3":
            w = reg.register("w", rng.standard_normal((2, 4)))
            b = reg.register("b", rng.standard_normal(2))
            x = reg.register("x", rng.standard_normal((2, 5, 4)))
            fn = lambda: T.total_sum(T.sigmoid(T.linear(x, w, b)))
        elif name == "channel_scale":
            x = reg.register("x", rng.standard_normal((2, 3, 4, 4)))
            s = reg.register("s", rng.standard_normal((2, 3)))
            fn = lambda: T.total_sum(T.sigmoid(T.channel_scale(x, s)))
        elif name == "gather_pixels":
            x = reg.register("x", rng.standard_normal((2, 3, 4, 4)))
            fn = lambda: T.total_sum(T.sigmoid(T.gather_pixels(x, [0, 5, 5, 15])))
        elif name == "batched_matrix_apply":
            m = rng.standard_normal((4, 4))
            x = reg.register("x", rng.standard_normal((2, 4, 3)))
            fn = lambda: T.total_sum(T.sigmoid(T.batched_matrix_apply(m, x)))
        elif name == "batched_matrix_apply_per_item":
            m = rng.standard_normal((2, 4, 4))
            x = reg.register("x", rng.standard_normal((2, 4, 3)))
            fn = lambda: T.total_sum(T.sigmoid(T.batched_matrix_apply(m, x)))
        elif name == "concat_slice":
            a = reg.register("a", rng.standard_normal((2, 3)))
            b = reg.register("b", rng.standard_normal((2, 5)))

            def fn():
                c = T.concat([a, b], axis=1)
                return T.total_sum(T.sigmoid(T.slice_batch(c, 1)))

        else:  # softmax_cross_entropy
            x = reg.register("x", rng.standard_normal((4, 3)))
            fn = lambda: T.softmax_cross_entropy(x, [0, 1, 2, 1])

        report = T.finite_diff_check(reg, fn, epsilon=1e-5)
        assert report.max_relative_error < 1e-6, report.per_param

    def test_shared_input_residual_pattern(self):
        # x feeds both branches of an addition; gradients must not alias.
        reg = T.ParamRegistry()
        rng = np.random.default_rng(23)
        x = reg.register("x", rng.standard_normal((2, 2)))
        w = reg.register("w", rng.standard_normal((2, 2)))

        def fn():
            return T.total_sum(T.sigmoid(T.add(T.linear(x, w), x)))

        report = T.finite_diff_check(reg, fn, epsilon=1e-5)
        assert report.max_relative_error < 1e-6

    def test_no_grad_blocks_recording(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.relu(x)
        assert y._backward is None and y._parents == ()


def affine_chain(x, length=16):
    """x -> scalar_affine applied `length` times; returns every node."""
    nodes = [x]
    for i in range(length):
        nodes.append(T.scalar_affine(nodes[-1], 1.0 + 0.01 * i, 0.5))
    return nodes


class TestTapeRelease:
    def test_interior_arrays_freed_after_backward(self):
        x = T.Tensor(np.ones(64), requires_grad=True)
        nodes = affine_chain(x)
        interior = weakref.ref(nodes[8].data)
        out = nodes[-1]
        del nodes
        loss = T.total_sum(out)
        assert interior() is not None
        loss.backward()
        assert interior() is None
        assert loss.grad is None and out.grad is None
        want = np.prod(1.0 + 0.01 * np.arange(16))
        assert np.allclose(x.grad, want, rtol=1e-14, atol=0.0)

    def test_backward_peak_stays_bounded(self):
        mib = 1024 * 1024
        x = T.Tensor(np.ones(mib // 8), requires_grad=True)
        loss = T.total_sum(affine_chain(x)[-1])
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One live interior gradient, its scaled copy and x.grad: ~3 MiB.
        # Keeping every interior gradient would take ~18 MiB.
        assert peak <= 4 * mib, peak / mib

    def test_taped_conv_keeps_no_im2col_columns(self):
        rng = np.random.default_rng(53)
        x = T.Tensor(rng.standard_normal((2, 8, 32, 32)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, padding=1, relu=True)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The output is 128 KiB and 1.01x of it stays traced; keeping the
        # columns, 9x the input, held 10.0x.
        assert out.data.nbytes <= kept <= 1.1 * out.data.nbytes, kept / out.data.nbytes

    def test_one_item_1x1_backward_makes_one_weight_sized_array(self):
        # Beyond the input gradient, the backward of a one-item 1x1 conv
        # allocates its weight gradient and no copy of it for a batch sum.
        rng = np.random.default_rng(59)
        x = T.Tensor(rng.standard_normal((1, 512, 4, 4)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.standard_normal((512, 512, 1, 1)).astype(np.float32), requires_grad=True)
        loss = T.total_sum(T.conv2d(x, w))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1 MiB of weight gradient and 32 KiB of input gradient; a second
        # weight-sized array would take the peak past 2 MiB.
        limit = w.data.nbytes + x.data.nbytes + w.data.nbytes // 4
        assert peak <= limit, peak / w.data.nbytes

    def test_second_backward_on_same_root_raises(self):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = T.total_sum(T.relu(x))
        loss.backward()
        before = x.grad.copy()
        with pytest.raises(ConfigurationError, match="already consumed"):
            loss.backward()
        assert np.array_equal(x.grad, before)
        assert np.array_equal(before, [1.0, 0.0, 1.0])

    def test_second_root_through_consumed_node_raises(self):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        w = T.Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
        h = T.relu(x)
        first = T.total_sum(h)
        second = T.total_sum(T.mul(h, w))
        first.backward()
        before = x.grad.copy()
        with pytest.raises(ConfigurationError, match="already consumed"):
            second.backward()
        assert np.array_equal(x.grad, before) and w.grad is None

    def test_leaf_gradients_accumulate_across_graphs(self):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        T.total_sum(T.relu(x)).backward()
        T.total_sum(T.relu(x)).backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 2.0])


class TestAccumulate:
    @staticmethod
    def shared_weight_grads(op, pairs, w, b):
        """(w.grad, b.grad, [x.grad]) with one w and b applied to each (x, g) pair."""
        wt, bt = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
        xts = [T.Tensor(x, requires_grad=True) for x, _ in pairs]
        terms = [T.total_sum(T.mul(op(xt, wt, bt), T.Tensor(g))) for xt, (_, g) in zip(xts, pairs)]
        (terms[0] if len(terms) == 1 else T.add(*terms)).backward()
        return wt.grad, bt.grad, [xt.grad for xt in xts]

    @pytest.mark.parametrize("kind", ["conv2d", "linear"])
    def test_two_uses_of_one_weight_sum_and_change_nothing_else(self, kind):
        # float32 throughout, so each first weight gradient is handed over uncopied.
        rng = np.random.default_rng(47)
        if kind == "conv2d":
            op = lambda x, w, b: T.conv2d(x, w, b, padding=1)
            x_shape, w_shape, g_shape = (2, 3, 5, 5), (4, 3, 3, 3), (2, 4, 5, 5)
        else:
            op = T.linear
            x_shape, w_shape, g_shape = (2, 5, 3), (4, 3), (2, 5, 4)
        draw = lambda shape: rng.standard_normal(shape).astype(np.float32)
        xs, gs = [draw(x_shape), draw(x_shape)], [draw(g_shape), draw(g_shape)]
        w, b = draw(w_shape), draw(4)
        inputs = [a.copy() for a in xs + gs + [w, b]]
        w1, b1, (x1,) = self.shared_weight_grads(op, [(xs[0], gs[0])], w, b)
        w2, b2, (x2,) = self.shared_weight_grads(op, [(xs[1], gs[1])], w, b)
        wj, bj, (xj1, xj2) = self.shared_weight_grads(op, list(zip(xs, gs)), w, b)
        assert wj.dtype == bj.dtype == np.float32
        assert np.array_equal(wj, w1 + w2) and np.array_equal(bj, b1 + b2)
        assert np.array_equal(xj1, x1) and np.array_equal(xj2, x2)
        for before, after in zip(inputs, xs + gs + [w, b]):
            assert np.array_equal(before, after)
        for p, q in itertools.combinations([wj, bj, xj1, xj2, w1, w2, b1, b2], 2):
            assert not np.shares_memory(p, q)

    def test_fresh_gradient_of_another_dtype_is_cast(self):
        # A float64 input makes linear's weight gradient float64.
        w = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        T.total_sum(T.linear(T.Tensor(np.arange(6.0).reshape(2, 3)), w)).backward()
        assert w.grad.dtype == np.float32
        assert np.array_equal(w.grad, np.tile([3.0, 5.0, 7.0], (2, 1)))


class TestAgt1Format:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 4, 5)).astype(np.float32).astype(np.float64)
        p = tmp_path / "t.agt1"
        T.write_agt1(p, a)
        back = T.read_agt1(p)
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back, a)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.agt1"
        T.write_agt1(p, np.zeros((2, 3)))
        raw = p.read_bytes()
        assert raw[:4] == b"\x41\x47\x54\x31"
        assert raw[4] == 2
        assert raw[5:13] == b"\x02\x00\x00\x00\x03\x00\x00\x00"
        assert len(raw) == 13 + 4 * 6

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.agt1"
        p.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(DataError, match="byte 0"):
            T.read_agt1(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.agt1"
        T.write_agt1(p, np.zeros(4))
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(DataError, match="byte"):
            T.read_agt1(p)


class TestParamRegistry:
    def test_insertion_order_and_uniqueness(self):
        reg = T.ParamRegistry()
        reg.register("b.w", np.zeros(2))
        reg.register("a.w", np.zeros(2))
        assert reg.names() == ["b.w", "a.w"]
        with pytest.raises(ConfigurationError):
            reg.register("a.w", np.zeros(2))

    def test_num_scalars(self):
        reg = T.ParamRegistry()
        reg.register("a", np.zeros((2, 3)))
        reg.register("b", np.zeros(5))
        assert reg.num_scalars() == 11

    def test_casts_arrays_to_its_dtype(self):
        reg = T.ParamRegistry(np.float32)
        assert reg.dtype == np.float32
        w = reg.register("w", np.arange(3.0))
        assert w.data.dtype == np.float32 and w.requires_grad
        assert T.ParamRegistry().dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, "float32", None])
    def test_rejects_other_dtypes(self, dtype):
        with pytest.raises(ConfigurationError, match="dtype"):
            T.ParamRegistry(dtype)

    def test_rejects_tensor_of_another_dtype(self):
        reg = T.ParamRegistry(np.float32)
        with pytest.raises(ConfigurationError, match="stem.weight"):
            reg.register("stem.weight", T.Tensor(np.zeros(3)))
        assert "stem.weight" not in reg
        kept = T.Tensor(np.zeros(3, dtype=np.float32))
        assert reg.register("stem.weight", kept) is kept


class TestDtypes:
    def test_tensor_keeps_float32_and_float64_only(self):
        for dtype in (np.float32, np.float64):
            a = np.zeros(2, dtype=dtype)
            assert T.Tensor(a).data is a
        for value in (np.zeros(2, dtype=np.float16), np.arange(2), [1, 2], 3.0):
            assert T.Tensor(value).data.dtype == np.float64

    def test_cast_passes_the_gradient_back_in_the_source_dtype(self):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        assert T.cast(x, np.dtype(np.float64)) is x
        y = T.cast(x, np.dtype(np.float32))
        assert y.data.dtype == np.float32
        T.total_sum(T.mul(y, y)).backward()
        assert x.grad.dtype == np.float64
        assert np.array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_loss_reduces_in_float64(self):
        rng = np.random.default_rng(21)
        z64 = rng.standard_normal((4, 5)) * 10
        z32 = z64.astype(np.float32)
        labels = [0, 4, 2, 1]
        logits = T.Tensor(z32, requires_grad=True)
        loss = T.softmax_cross_entropy(logits, labels)
        assert loss.data.dtype == np.float64
        ref = T.Tensor(z32.astype(np.float64), requires_grad=True)
        want = T.softmax_cross_entropy(ref, labels)
        assert loss.item() == want.item()
        loss.backward()
        want.backward()
        assert logits.grad.dtype == np.float32
        assert np.array_equal(logits.grad, ref.grad.astype(np.float32))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_backward_stays_float32(self, padding):
        rng = np.random.default_rng(22)
        x = T.Tensor(rng.standard_normal((2, 3, 6, 5)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, stride=2, padding=padding)
        assert out.data.dtype == np.float32
        T.total_sum(out).backward()
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32
        # _accumulate would cast a float64 input gradient back; check col2im itself.
        taps = T._tap_layout(6, 5, 3, 3, 2, padding)
        dcols = np.ones((2, 3 * 3 * 3, taps.ho * taps.wq), dtype=np.float32)
        assert T._col2im(dcols, (2, 3, 6, 5), taps).dtype == np.float32


class TestModuleSurface:
    def test_only_test_support_lacks_a_package_caller(self):
        # An op that no avscene module imports is dead code or test support;
        # the three below are test support.
        import avscene

        public = {
            name: fn
            for name, fn in vars(T).items()
            if inspect.isfunction(fn)
            and fn.__module__ == T.__name__
            and not name.startswith("_")
        }
        imported = set()
        for info in pkgutil.iter_modules(avscene.__path__):
            module = importlib.import_module(f"avscene.{info.name}")
            if module is not T:
                imported.update(id(value) for value in vars(module).values())
        unused = {name for name, fn in public.items() if id(fn) not in imported}
        assert unused == {"mul", "total_sum", "finite_diff_check"}

    def test_package_surface_without_a_package_caller_is_pinned(self):
        # A public top-level function or class that no avscene module names
        # outside its own definition is an entry point, an input of the
        # planned command line (wav and image loading, manifests), or test
        # support. Anything else without a caller is dead code.
        import avscene

        trees = {
            path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(avscene.__path__[0]).glob("*.py"))
        }

        def names_outside(tree, skip):
            found, stack = set(), [node for node in tree.body if node is not skip]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name)
                stack.extend(ast.iter_child_nodes(node))
            return found

        uncalled = {
            f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names_outside(t, node) for t in trees.values())
        }
        assert uncalled == {
            "frontend.extract_logmel",
            "frontend.fix_length",
            "frontend.load_image",
            "frontend.load_wav",
            "frontend.read_manifest",
            "frontend.resample",
            "frontend.write_wav",
            "model.load_checkpoint",
            "model.save_checkpoint",
            "model.synth_splits",
            "pnm.write_ppm",
            "tensor.finite_diff_check",
            "tensor.mul",
            "tensor.total_sum",
        }
