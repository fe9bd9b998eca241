"""Tensor core: forward oracles, gradients, serialization."""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import sys
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avscene import tensor as T
from avscene.backbone import ResidualBlock
from avscene.errors import ConfigurationError, DataError


def naive_conv2d(x, w, bias=None, stride=1, padding=0, relu=False, residual=None):
    """Six-loop reference conv unit, independent of the im2col path.

    Computes relu?((w ⋆ x) + bias[O] + residual) one output scalar at a time.
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
            if bias is not None:
                out[ni, oi] += bias[oi]
    if residual is not None:
        out += residual
    return np.maximum(out, 0.0) if relu else out


def naive_conv2d_grads(x, w, g, stride=1, padding=0, bias=None, relu=False, residual=None):
    """Loop reference for the conv unit's backward: (dx, dw, dbias, dresidual).

    With the ReLU, g is first zeroed where the pre-activation is not
    positive; that masked g is the residual's gradient. Every output position
    then scatters g times its input window into dw and g times the kernel
    into dx, with no im2col and no matrix product.
    """
    n, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    if relu:
        g = g * (naive_conv2d(x, w, bias, stride, padding, residual=residual) > 0.0)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = np.zeros(o)
    for ni in range(n):
        for oi in range(o):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    ys, xs = yi * stride, xi * stride
                    gv = g[ni, oi, yi, xi]
                    window = xp[ni, :, ys : ys + kh, xs : xs + kw]
                    dw[oi] += gv * window
                    dxp[ni, :, ys : ys + kh, xs : xs + kw] += gv * w[oi]
                    db[oi] += gv
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw, db, g


def zero_bias(w):
    """A zero bias for conv2d's weight w[O,C,kh,kw], in w's dtype."""
    return T.Tensor(np.zeros(w.data.shape[0], dtype=w.data.dtype))


class TestConv2d:
    def test_all_ones_3x3(self):
        # Same padding: a cell sums the ones of its window inside the input.
        x = T.Tensor(np.ones((1, 1, 4, 4)))
        w = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, zero_bias(w))
        edge = np.array([2.0, 3.0, 3.0, 2.0])
        assert np.array_equal(out.data[0, 0], np.outer(edge, edge))

    def test_table_stem_shape(self):
        # 3x224x224 through 64 filters of 7x7, stride 2, padded by 3.
        x = T.Tensor(np.zeros((1, 3, 224, 224)))
        w = T.Tensor(np.zeros((64, 3, 7, 7)))
        out = T.conv2d(x, w, zero_bias(w), stride=2)
        assert out.data.shape == (1, 64, 112, 112)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=1)
        want = naive_conv2d(x, w, b, padding=1)
        assert np.max(np.abs(got.data - want)) < 1e-12

    def test_naive_oracle_random_sweep(self):
        # 100 random small shapes: every odd kernel up to 7, both strides.
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            k = int(rng.choice(CONV_KERNELS))
            stride = int(rng.integers(1, 3))
            h = int(rng.integers(1, k + 5))
            wd = int(rng.integers(1, k + 5))
            x = rng.standard_normal((n, c, h, wd))
            w = rng.standard_normal((o, c, k, k))
            b = T.Tensor(np.zeros(o))
            got = T.conv2d(T.Tensor(x), T.Tensor(w), b, stride=stride)
            want = naive_conv2d(x, w, stride=stride, padding=k // 2)
            assert got.data.shape == (n, o, -(-h // stride), -(-wd // stride))
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_shape_mismatch_names_dims(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8)))
        w = T.Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ConfigurationError, match="4 channels.*3"):
            T.conv2d(x, w, zero_bias(w))

    @pytest.mark.parametrize("kh, kw", [(2, 2), (4, 4), (3, 1), (1, 3), (3, 5)])
    def test_kernel_that_is_not_odd_and_square_names_it(self, kh, kw):
        x = T.Tensor(np.zeros((1, 1, 8, 8)))
        w = T.Tensor(np.zeros((1, 1, kh, kw)))
        with pytest.raises(ConfigurationError, match=f"kernel {kh}x{kw} is not odd and square$"):
            T.conv2d(x, w, zero_bias(w))

    @pytest.mark.parametrize("stride", [0, -1, 3, 4, 2.0, True])
    def test_stride_other_than_1_or_2_names_it(self, stride):
        x = T.Tensor(np.zeros((1, 1, 8, 8)))
        w = T.Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match=f"stride must be 1 or 2, got {stride!r}$"):
            T.conv2d(x, w, zero_bias(w), stride=stride)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape", [(1, 1, 0, 4), (1, 1, 4, 0), (2, 1, 0, 0), (0, 1, 4, 4)])
    def test_empty_spatial_axis_names_the_shape(self, shape, k):
        w = T.Tensor(np.zeros((1, 1, k, k)))
        want = re.escape(f"input {shape} has an empty axis")
        with pytest.raises(ConfigurationError, match=want):
            T.conv2d(T.Tensor(np.zeros(shape)), w, zero_bias(w))

    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_channel_vector_shape_names_it(self, shape):
        x = T.Tensor(np.zeros((1, 1, 4, 4)))
        w = T.Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match=re.escape(f"bias shape {shape} != (2,)")):
            T.conv2d(x, w, T.Tensor(np.zeros(shape)))

    def test_residual_shape_names_it(self):
        x = T.Tensor(np.zeros((1, 1, 4, 4)))
        w = T.Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match=r"residual shape \(1, 2, 2, 2\) != \(1, 2, 4, 4\)"):
            T.conv2d(x, w, zero_bias(w), residual=T.Tensor(np.zeros((1, 2, 2, 2))))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = T.Tensor(np.zeros(4))
        one = T.conv2d(T.Tensor(x), T.Tensor(w), b, stride=2).data
        two = T.conv2d(T.Tensor(x), T.Tensor(w), b, stride=2).data
        assert np.array_equal(one, two)


def conv2d_grads(x, w, g, stride, bias, relu=False, residual=None):
    """(out, dx, dw, dbias, dresidual) from conv2d's forward and taped backward.

    dresidual is None when the unit has no residual.
    """
    xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, bias))
    rt = None if residual is None else T.Tensor(residual, requires_grad=True)
    out = T.conv2d(xt, wt, bt, stride=stride, relu=relu, residual=rt)
    T.total_sum(T.mul(out, T.Tensor(g))).backward()
    grads = tuple(None if t is None else t.grad for t in (xt, wt, bt, rt))
    return (out.data,) + grads


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# (relu, joined): the backbone's proj unit, its inner units, and a block's
# last unit with the residual join
CONV_UNIT_MODES = (
    (False, False),
    (True, False),
    (True, True),
)
# The odd kernels conv2d takes, up to the stem's 7.
CONV_KERNELS = (1, 3, 5, 7)


class TestConv2dBackward:
    # pad is the naive oracles' padding: the k // 2 that conv2d applies.
    @pytest.mark.parametrize(
        "n, c, o, k, stride, pad, h, wd",
        [
            (1, 3, 4, 1, 1, 0, 5, 6),  # 1x1 stride 1: columns are the input
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
        assert pad == k // 2
        rng = np.random.default_rng(n * 1000 + k * 10 + stride)
        pre = self.check(rng, n, c, o, k, stride, h, wd)
        assert (pre > 0.0).any() and (pre < 0.0).any()  # both ReLU sides

    @pytest.mark.parametrize("n", [1, 3])
    def test_loop_reference_random_sweep(self, n):
        rng = np.random.default_rng(29 + n)
        signs = []
        for _ in range(30):
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            k = int(rng.choice(CONV_KERNELS))
            stride = int(rng.integers(1, 3))
            h = int(rng.integers(1, k + 5))
            wd = int(rng.integers(1, k + 5))
            signs.append(self.check(rng, n, c, o, k, stride, h, wd).ravel() > 0.0)
        positive = np.concatenate(signs).mean()
        assert 0.25 < positive < 0.75  # both ReLU sides, in about equal share

    @staticmethod
    def check(rng, n, c, o, k, stride, h, wd):
        """Compare forward and gradients in every mode with the oracles at padding k // 2.

        Returns the pre-activation.
        """
        pad = k // 2
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((o, c, k, k))
        b = rng.standard_normal(o)
        pre = naive_conv2d(x, w, b, stride, pad)
        assert np.all(pre != 0.0)  # no pre-activation on the ReLU's kink
        g = rng.standard_normal(pre.shape)
        r = rng.standard_normal(pre.shape)
        for relu, joined in CONV_UNIT_MODES:
            residual = r if joined else None
            got = conv2d_grads(x, w, g, stride, b, relu, residual)
            want = (
                naive_conv2d(x, w, b, stride, pad, relu, residual),
            ) + naive_conv2d_grads(x, w, g, stride, pad, b, relu, residual)
            # out, dx, dw, dbias, dresidual
            present = (True, True, True, True, joined)
            for has, gv, wv in zip(present, got, want):
                if has:
                    assert gv is not None
                    assert_rel_close(gv, wv)
        return pre


@st.composite
def conv_geometries(draw):
    """(n, c, o, k, stride, h, w): an odd kernel up to 7, stride 1 or 2, sizes from 1."""
    k, stride = draw(st.sampled_from(CONV_KERNELS)), draw(st.integers(1, 2))
    h, w = draw(st.integers(1, k + 2 * stride + 1)), draw(st.integers(1, k + 2 * stride + 1))
    n, c, o = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return n, c, o, k, stride, h, w


def read_cells(h, wd, k, stride, pad):
    """Boolean [H,W]: the input cells that some k x k window reads."""
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    read = np.zeros((h + 2 * pad, wd + 2 * pad), dtype=bool)
    for yo in range(ho):
        for xo in range(wo):
            read[yo * stride : yo * stride + k, xo * stride : xo * stride + k] = True
    return read[pad : pad + h, pad : pad + wd]


class TestConv2dGeometry:
    """The phase-plane columns against the loop references, and what no window reads."""

    @settings(max_examples=60, deadline=None)
    @given(geometry=conv_geometries(), seed=st.integers(0, 2**32 - 1))
    # Kernels wider than the input, one-cell axes, and sizes that the
    # stride does not divide.
    @example(geometry=(2, 2, 3, 7, 2, 1, 1), seed=1)
    @example(geometry=(1, 3, 2, 7, 1, 2, 9), seed=2)
    @example(geometry=(2, 1, 2, 5, 2, 3, 8), seed=3)
    @example(geometry=(1, 2, 2, 3, 2, 5, 1), seed=4)
    @example(geometry=(2, 2, 1, 1, 2, 1, 6), seed=5)
    def test_matches_loop_reference(self, geometry, seed):
        n, c, o, k, stride, h, wd = geometry
        rng = np.random.default_rng(seed)
        TestConv2dBackward.check(rng, n, c, o, k, stride, h, wd)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "h, wd, k, stride, pad",
        [
            (7, 8, 1, 2, 0),  # every other row and column: the kernel is narrower than the stride
            (6, 5, 1, 2, 0),
        ],
    )
    def test_unread_cells_reach_no_output_or_gradient(self, h, wd, k, stride, pad, dtype):
        rng = np.random.default_rng(h * 100 + wd * 10 + k)
        read = read_cells(h, wd, k, stride, pad)
        assert not read.all()
        x = rng.standard_normal((2, 2, h, wd)).astype(dtype)
        w = rng.standard_normal((3, 2, k, k)).astype(dtype)
        b = rng.standard_normal(3).astype(dtype)
        ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
        g, r = rng.standard_normal((2, 2, 3, ho, wo)).astype(dtype)
        runs = []
        for fill in (np.nan, 0.0):
            xf = x.copy()
            xf[:, :, ~read] = fill
            runs.append(conv2d_grads(xf, w, g, stride, b, True, r))
        # out, dx, dw, dbias, dresidual
        for got, want in zip(*runs):
            assert np.array_equal(got, want)
        assert np.all(runs[0][1][:, :, ~read] == 0.0)

    def test_unpadded_1x1_stride_1_columns_are_the_input(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 4, 5)).astype(np.float32)
        taps = T._tap_layout(4, 5, 1, 1)
        cols = T._im2col(x, taps)
        assert cols.shape == (2, 3, 20) and np.shares_memory(cols, x)

    @pytest.mark.parametrize("stride", [2])
    def test_unpadded_strided_1x1_columns_are_the_strided_input(self, stride):
        x = np.random.default_rng(8).standard_normal((2, 3, 7, 5)).astype(np.float32)
        cols = T._im2col(x, T._tap_layout(7, 5, 1, stride))
        assert np.array_equal(cols, x[:, :, ::stride, ::stride].reshape(2, 3, -1))

    @pytest.mark.parametrize(
        "k, stride, pad, h, wd",
        [(1, 1, 0, 6, 5), (1, 2, 0, 7, 6), (3, 1, 1, 6, 5), (3, 2, 1, 7, 6), (7, 2, 3, 11, 9)],
    )
    def test_one_item_weight_gradients_are_the_batch_sum_bit_for_bit(self, k, stride, pad, h, wd):
        # With one item the backward hands over its product uncopied; that
        # must equal the sum over a batch of one.
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        x = rng.standard_normal((1, 3, h, wd)).astype(np.float32)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        layout = T._tap_layout(h, wd, k, stride)
        # pad is the padding conv2d applies, k // 2.
        assert layout.ho == (h + 2 * pad - k) // stride + 1
        assert layout.wo == (wd + 2 * pad - k) // stride + 1
        g = rng.standard_normal((1, 4, layout.ho, layout.wo)).astype(np.float32)
        _, _, dw, _, _ = conv2d_grads(x, w, g, stride, b)
        gq = np.zeros((1, 4, layout.ho, layout.wq), dtype=np.float32)
        gq[..., : layout.wo] = g
        cols = T._im2col(x, layout)
        gw = np.matmul(gq.reshape(1, 4, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(dw, gw.reshape(w.shape))


class TestConv2dChunks:
    """conv2d's forward over several chunks of items against one chunk, bit for bit."""

    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2), (7, 1), (7, 2)])
    def test_several_chunks_match_one_bit_for_bit(self, monkeypatch, k, stride):
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.standard_normal((5, 3, 9, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        layout = T._tap_layout(9, 8, k, stride)
        g, r = rng.standard_normal((2, 5, 4, layout.ho, layout.wo)).astype(np.float32)
        item = 3 * k * k * layout.pitch * x.itemsize  # one item's columns and gap
        assert 5 * item <= T._COLUMN_BYTES  # the default budget takes the batch whole

        def runs():
            found = []
            for relu, joined in CONV_UNIT_MODES:
                residual = r if joined else None
                with T.no_grad():
                    untaped = T.conv2d(
                        *(T.Tensor(a) for a in (x, w, b)), stride, relu,
                        None if residual is None else T.Tensor(residual),
                    )
                # out, dx, dw, dbias, dresidual
                taped = conv2d_grads(x, w, g, stride, b, relu, residual)
                found.append((untaped.data,) + taped)
            return found

        want = runs()
        chunks = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda xs, t: chunks.append(len(xs)) or im2col(xs, t))
        for budget, sizes in ((item - 1, [1] * 5), (2 * item, [2, 2, 1])):
            monkeypatch.setattr(T, "_COLUMN_BYTES", budget)
            chunks.clear()
            with T.no_grad():
                T.conv2d(*(T.Tensor(a) for a in (x, w, b)), stride)
            assert chunks == sizes
            for got_mode, want_mode in zip(runs(), want):
                for got, ref in zip(got_mode, want_mode):
                    assert (got is None) == (ref is None)
                    assert got is None or np.array_equal(got, ref)


def contiguous_conv2d_grads(x, w, g, stride, bias, relu=False, residual=None):
    """(out, dx, dw, dbias, dresidual) of conv2d's arithmetic on contiguous columns.

    Each item's columns are one C-contiguous [C·k·k, ho·wq] matrix, sliced
    tap by tap from a zero-padded copy of x that is wide enough for the
    extra columns; a tap's column gradient adds into that padded copy, in
    tap order. The matrix products and the sums per output or input cell
    are conv2d's own, so its tap planes must give the same bits.
    """
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    s, p = stride, k // 2
    ho, wo = (h - 1) // s + 1, (wd - 1) // s + 1
    wq = wo + (k - 1) // s
    xp = np.zeros((n, c, s * ho + k, s * wq + k), x.dtype)
    xp[:, :, p : p + h, p : p + wd] = x
    cols = np.empty((n, c, k, k, ho, wq), x.dtype)
    for i, j in itertools.product(range(k), repeat=2):
        cols[:, :, i, j] = xp[:, :, i : i + s * ho : s, j : j + s * wq : s]
    cols = cols.reshape(n, c * k * k, ho * wq)
    w2 = w.reshape(o, -1)
    y = np.ascontiguousarray(np.matmul(w2, cols).reshape(n, o, ho, wq)[..., :wo])
    y += bias.reshape(1, o, 1, 1)
    if residual is not None:
        y += residual
    if relu:
        np.maximum(y, 0.0, out=y)
    g2 = g * (y > 0.0) if relu else g
    gq = np.zeros((n, o, ho, wq), g.dtype)
    gq[..., :wo] = g2
    gq = gq.reshape(n, o, ho * wq)
    dw = np.matmul(gq, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w2.T, gq).reshape(n, c, k, k, ho, wq)
    dxp = np.zeros_like(xp)
    for i, j in itertools.product(range(k), repeat=2):
        dxp[:, :, i : i + s * ho : s, j : j + s * wq : s] += dcols[:, :, i, j]
    dx = dxp[:, :, p : p + h, p : p + wd]
    return y, dx, dw, g2.sum(axis=(0, 2, 3)), None if residual is None else g2


@st.composite
def tap_geometries(draw):
    """(n, c, h, w, k, stride): a batch of up to 3 items, sizes from 1."""
    k, stride = draw(st.sampled_from(CONV_KERNELS[1:])), draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 2 * k + 3)), draw(st.integers(1, 2 * k + 3))
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, k, stride


class TestConv2dTapLayout:
    """The [phase, C, N] tap planes against contiguous columns, and what the planes keep apart."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2), (7, 1), (7, 2)])
    def test_matches_contiguous_columns_bit_for_bit(self, k, stride, n, dtype):
        # Two or more output channels: with one, each item's product is a
        # matrix-vector BLAS call, whose rounding can depend on the row
        # stride of the columns (seen at spans of up to 8 cells, batch 2 or
        # more); the loop references above cover it within round-off.
        rng = np.random.default_rng(k * 100 + stride * 10 + n)
        for h, wd in ((9, 8), (7, 5), (6, 11)):  # even, odd and mixed sizes
            x = rng.standard_normal((n, 3, h, wd)).astype(dtype)
            w = rng.standard_normal((4, 3, k, k)).astype(dtype)
            b = rng.standard_normal(4).astype(dtype)
            ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
            g, r = rng.standard_normal((2, n, 4, ho, wo)).astype(dtype)
            for relu, joined in CONV_UNIT_MODES:
                residual = r if joined else None
                got = conv2d_grads(x, w, g, stride, b, relu, residual)
                want = contiguous_conv2d_grads(x, w, g, stride, b, relu, residual)
                # out, dx, dw, dbias, dresidual
                for gv, wv in zip(got, want):
                    assert (gv is None) == (wv is None)
                    assert gv is None or (gv.dtype == wv.dtype and np.array_equal(gv, wv))
                with T.no_grad():
                    untaped = T.conv2d(
                        *(T.Tensor(a) for a in (x, w, b)), stride, relu,
                        None if residual is None else T.Tensor(residual),
                    )
                assert np.array_equal(untaped.data, want[0])

    @settings(max_examples=80, deadline=None)
    @given(geometry=tap_geometries())
    def test_planes_keep_each_item_apart(self, geometry):
        n, c, h, wd, k, stride = geometry
        t = T._tap_layout(h, wd, k, stride)
        biggest = max(offset for _, offset in t.taps)
        assert t.taps[-1][1] == biggest  # _col2im's buffer tail relies on it
        assert t.pitch >= t.hq * t.wq + (k - 1) // stride  # a tap's span stays in its plane
        # Plane j of a phase is channel j // n of item j % n; its cells of x are j + 1.
        x = (np.arange(c)[None, :] * n + np.arange(n)[:, None] + 1.0)[:, :, None, None]
        x = np.ascontiguousarray(np.broadcast_to(x, (n, c, h, wd)))
        for run in T._phase_planes(x, t).reshape(stride**2, -1):
            cells = np.flatnonzero(run)
            if cells.size == 0:
                continue  # a phase that holds no cell of x
            plane = run[cells] - 1.0
            assert np.array_equal(cells // t.pitch, plane)  # each plane within its pitch
            # Between the cells of two planes lie at least `biggest` zeros.
            change = np.flatnonzero(np.diff(plane)) + 1
            assert np.all(cells[change] - cells[change - 1] - 1 >= biggest)
            # Each plane's span of each tap reads its own cells or zeros.
            for _, start in t.taps:
                for j in range(c * n):
                    window = run[j * t.pitch + start : j * t.pitch + start + t.span]
                    assert np.all((window == 0.0) | (window == j + 1.0))
        assert np.count_nonzero(T._phase_planes(x, t)) == x.size
        # So an item's columns, extra ones included, do not depend on the batch.
        xr = np.random.default_rng(n * c * h).standard_normal((n, c, h, wd))
        cols = T._im2col(xr, t)
        assert cols.shape == (n, c * k * k, t.span)
        for i in range(n):
            assert np.array_equal(cols[i], T._im2col(xr[i : i + 1], t)[0])


class TestBatchedMatrixApply:
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

    @pytest.mark.parametrize("b_shape", [(1,), (4, 1), (3,)])
    def test_bias_of_another_shape_names_both_shapes(self, b_shape):
        # A (1,) bias would broadcast in the forward and take a (4,) gradient.
        x, w, b = (T.Tensor(np.zeros(shape)) for shape in ((2, 3), (4, 3), b_shape))
        want = re.escape(f"linear: b shape {b_shape} != (4,) of w (4, 3)")
        with pytest.raises(ConfigurationError, match=f"^{want}$"):
            T.linear(x, w, b)

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
            b = rng.standard_normal(4).astype(dtype)
            r, g = rng.standard_normal((2, 2, 4, 5, 5)).astype(dtype)
            pre = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b))
            r[0, 0] = -pre.data[0, 0]  # sums exactly on the kink

            def run(fused):
                xt, wt, bt, rt = (T.Tensor(a, requires_grad=True) for a in (x, w, b, r))
                if fused:
                    out = T.conv2d(xt, wt, bt, relu=True, residual=rt)
                else:
                    out = T.relu(T.add(T.conv2d(xt, wt, bt), rt))
                T.total_sum(T.mul(out, T.Tensor(g))).backward()
                return out.data, xt.grad, wt.grad, bt.grad, rt.grad

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
        xt = T.Tensor(x, requires_grad=True)
        out = T.bilinear_upsample(xt, h2, w2)
        assert np.max(np.abs(out.data - want)) < 1e-12
        T.total_sum(T.mul(out, T.Tensor(g))).backward()
        assert np.max(np.abs(xt.grad - four_corner_resize_grad(g, h, w))) < 1e-12

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

    @pytest.mark.parametrize("labels", [[1.7], [1.0], [True]], ids=["fraction", "float", "bool"])
    def test_non_integer_label_is_rejected(self, labels):
        # Cast to int64, 1.7 and True would both be read as class 1.
        want = "softmax_cross_entropy: labels must be integers, got dtype"
        with pytest.raises(DataError, match=want):
            T.softmax_cross_entropy(T.Tensor(np.zeros((1, 3))), labels)


def composed_blend(a, b, gate, grad):
    """Output and (a, b, gate) gradients of the blend written as four ops.

    The ops are add(channel_scale(a, gate), channel_scale(b, scalar_affine(gate,
    -1.0, 1.0))), each done in numpy as its op did it, with output gradient grad.
    """
    g = gate[:, :, None, None]
    rest = gate * -1.0 + 1.0  # scalar_affine
    out = a * g + b * rest[:, :, None, None]
    da = grad * g  # channel_scale's input gradients
    db = grad * rest[:, :, None, None]
    d_rest = (grad * b).sum(axis=(2, 3))  # channel_scale's gain gradients
    dgate = (grad * a).sum(axis=(2, 3))
    dgate += d_rest * -1.0  # scalar_affine's backward, summed into the gate
    return out, da, db, dgate


class TestGateBlend:
    @staticmethod
    def blend_and_grads(a, b, gate, grad):
        ts = [T.Tensor(v, requires_grad=True) for v in (a, b, gate)]
        out = T.gate_blend(*ts)
        T.total_sum(T.mul(out, T.Tensor(grad))).backward()
        return out.data, *(t.grad for t in ts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("saturated", [False, True], ids=["open", "saturated"])
    def test_matches_the_composed_ops_bit_for_bit(self, dtype, saturated):
        rng = np.random.default_rng(61)
        a, b, grad = (rng.standard_normal((3, 4, 5, 6)).astype(dtype) for _ in range(3))
        gate = np.ones((3, 4), dtype) if saturated else rng.uniform(0, 1, (3, 4)).astype(dtype)
        got = self.blend_and_grads(a, b, gate, grad)
        for got_part, want_part in zip(got, composed_blend(a, b, gate, grad)):
            assert got_part.dtype == want_part.dtype == dtype
            assert np.array_equal(got_part, want_part)
        if saturated:
            assert np.array_equal(got[0], a)

    @pytest.mark.parametrize(
        "a_shape, b_shape, gate_shape",
        [
            ((2, 3, 4, 4), (2, 3, 4, 5), (2, 3)),
            ((2, 3, 4, 4), (2, 3, 4, 4), (2, 4)),
            ((2, 3, 4), (2, 3, 4), (2, 3)),
        ],
        ids=["maps", "gate", "rank"],
    )
    def test_shape_mismatch_names_the_op_and_every_shape(self, a_shape, b_shape, gate_shape):
        a, b, gate = (T.Tensor(np.zeros(shape)) for shape in (a_shape, b_shape, gate_shape))
        want = re.escape(f"gate_blend: a {a_shape}, b {b_shape} and gate {gate_shape} ")
        with pytest.raises(ConfigurationError, match=want):
            T.gate_blend(a, b, gate)


class TestAutodiff:
    def test_quadratic_gradient(self):
        reg = T.ParamRegistry(np.float64)
        w = reg.register("w", np.array([3.0]))
        report = T.finite_diff_check(reg, lambda: T.mul(w, w), epsilon=1e-5)
        assert w.grad[0] == pytest.approx(6.0)
        assert report.max_relative_error < 1e-8

    def test_constant_loss_all_zero(self):
        reg = T.ParamRegistry(np.float64)
        reg.register("w", np.ones(4))
        const = T.Tensor(np.array(5.0))
        report = T.finite_diff_check(reg, lambda: const, epsilon=1e-5)
        assert report.max_relative_error == 0.0

    @pytest.mark.parametrize(
        "name",
        [
            "conv2d",
            "conv2d_bias_relu",
            "conv2d_residual",
            "conv2d_1x1_bias",
            "relu",
            "sigmoid",
            "global_avg_pool",
            "bilinear_upsample",
            "linear",
            "linear_rank3",
            "gate_blend",
            "gather_pixels",
            "batched_matrix_apply_per_item",
            "concat_slice",
            "softmax_cross_entropy",
        ],
    )
    def test_op_gradients_in_isolation(self, name):
        # A checksum, not hash(): str hashes change with PYTHONHASHSEED.
        rng = np.random.default_rng(zlib.adler32(name.encode()))
        reg = T.ParamRegistry(np.float64)

        if name == "conv2d":
            w = reg.register("w", rng.standard_normal((2, 3, 3, 3)) * 0.5)
            b = reg.register("b", rng.standard_normal(2) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 3, 5, 4)) * 0.5)
            fn = lambda: T.total_sum(
                T.sigmoid(T.conv2d(x, w, b, stride=2))
            )
        elif name == "conv2d_bias_relu":
            w = reg.register("w", rng.standard_normal((3, 2, 3, 3)) * 0.5)
            b = reg.register("b", rng.standard_normal(3) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 2, 5, 4)) * 0.5)
            fn = lambda: T.total_sum(T.sigmoid(T.conv2d(x, w, b, stride=2, relu=True)))
        elif name == "conv2d_residual":
            w = reg.register("w", rng.standard_normal((3, 2, 3, 3)) * 0.5)
            b = reg.register("b", rng.standard_normal(3) * 0.5)
            x = reg.register("x", rng.standard_normal((2, 2, 5, 4)) * 0.5)
            r = reg.register("r", rng.standard_normal((2, 3, 3, 2)))
            fn = lambda: T.total_sum(
                T.sigmoid(T.conv2d(x, w, b, stride=2, relu=True, residual=r))
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
        elif name == "gate_blend":
            a = reg.register("a", rng.standard_normal((2, 3, 4, 4)))
            b = reg.register("b", rng.standard_normal((2, 3, 4, 4)))
            g = reg.register("g", rng.standard_normal((2, 3)))
            fn = lambda: T.total_sum(T.sigmoid(T.gate_blend(a, b, g)))
        elif name == "gather_pixels":
            x = reg.register("x", rng.standard_normal((2, 3, 4, 4)))
            fn = lambda: T.total_sum(T.sigmoid(T.gather_pixels(x, [0, 5, 5, 15])))
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
        reg = T.ParamRegistry(np.float64)
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
    """x times a constant tensor, `length` times; returns every node."""
    nodes = [x]
    for i in range(length):
        nodes.append(T.mul(nodes[-1], T.Tensor(np.full(x.shape, 1.0 + 0.01 * i))))
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
        b = zero_bias(w)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, relu=True)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The output is 128 KiB and 1.01x of it stays traced; keeping the
        # columns, 9x the input, held 10.0x.
        assert out.data.nbytes <= kept <= 1.1 * out.data.nbytes, kept / out.data.nbytes

    def test_one_item_1x1_backward_makes_one_weight_sized_array(self):
        # Beyond the input gradient, the backward of a one-item 1x1 conv
        # allocates its weight gradient and no copy of it for a batch sum.
        # A weight reshaped into the kernel, as the AFM's projection is, gets
        # that same array: reshape's backward hands it on without a copy.
        rng = np.random.default_rng(59)
        x_data = rng.standard_normal((1, 512, 4, 4)).astype(np.float32)
        w_data = rng.standard_normal((512, 512)).astype(np.float32)
        for reshaped in (False, True):
            x = T.Tensor(x_data, requires_grad=True)
            if reshaped:
                w = T.Tensor(w_data, requires_grad=True)
                kernel = T.reshape(w, (512, 512, 1, 1))
            else:
                w = kernel = T.Tensor(w_data.reshape(512, 512, 1, 1), requires_grad=True)
            loss = T.total_sum(T.conv2d(x, kernel, zero_bias(kernel)))
            tracemalloc.start()
            try:
                loss.backward()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 1 MiB of weight gradient and 32 KiB of input gradient; a second
            # weight-sized array would take the peak past 2 MiB.
            limit = w.data.nbytes + x.data.nbytes + w.data.nbytes // 4
            assert peak <= limit, (reshaped, peak / w.data.nbytes)

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
            op = lambda x, w, b: T.conv2d(x, w, b)
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

    @pytest.mark.parametrize(
        "op",
        ["relu", "sigmoid", "mul", "slice_batch", "bilinear_upsample", "gather_pixels", "softmax"],
    )
    def test_single_consumer_leaf_gets_the_closures_own_array(self, monkeypatch, op):
        # Each of these closures builds its gradient afresh, so it hands the
        # array over instead of having it copied.
        handed = []
        accumulate = T._accumulate
        monkeypatch.setattr(
            T, "_accumulate", lambda t, g, fresh=False: handed.append((t, g)) or accumulate(t, g, fresh)
        )
        rng = np.random.default_rng(61)
        shape = (3, 4) if op == "softmax" else (2, 3, 4, 4)
        x = T.Tensor(rng.standard_normal(shape), requires_grad=True)
        out = {
            "relu": lambda: T.relu(x),
            "sigmoid": lambda: T.sigmoid(x),
            "mul": lambda: T.mul(x, T.Tensor(rng.standard_normal(shape))),
            "slice_batch": lambda: T.slice_batch(x, 1),
            "bilinear_upsample": lambda: T.bilinear_upsample(x, 6, 5),
            "gather_pixels": lambda: T.gather_pixels(x, [0, 5, 15]),
            "softmax": lambda: T.softmax_cross_entropy(x, [0, 3, 1]),
        }[op]()
        (out if op == "softmax" else T.total_sum(out)).backward()
        (g,) = [g for t, g in handed if t is x]
        assert x.grad is g

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    def test_conv2d_residual_gets_the_closures_own_array(self, monkeypatch, relu):
        # The masked gradient, or a view of the node's own gradient, which
        # the node drops after its closure.
        handed = []
        accumulate = T._accumulate
        monkeypatch.setattr(
            T, "_accumulate", lambda t, g, fresh=False: handed.append((t, g)) or accumulate(t, g, fresh)
        )
        rng = np.random.default_rng(67)
        x, w, b = (T.Tensor(rng.standard_normal(s)) for s in [(2, 3, 5, 4), (4, 3, 3, 3), 4])
        r = T.Tensor(rng.standard_normal((2, 4, 5, 4)), requires_grad=True)
        T.total_sum(T.conv2d(x, w, b, relu=relu, residual=r)).backward()
        (g,) = [g for t, g in handed if t is r]
        assert r.grad is g

    @staticmethod
    def copied_and_handed_grads(monkeypatch, run):
        """Leaf gradients of ``run()`` with every first gradient copied, then with handoffs.

        Copying every first gradient is the reference: no array is then held
        by two tensors, so an adopted gradient that a later ``+=`` changes
        while something still reads it would show as a changed bit.
        """
        accumulate = T._accumulate
        with monkeypatch.context() as patch:
            patch.setattr(T, "_accumulate", lambda t, g, fresh=False: accumulate(t, g))
            copied = run()
        return copied, run()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    def test_conv2d_onto_its_own_input_is_bit_for_bit(self, monkeypatch, dtype, k):
        # The residual is x, so the array x adopts then takes x's own += of
        # the input gradient.
        rng = np.random.default_rng(71 + k)
        draw = lambda *shape: rng.standard_normal(shape).astype(dtype)
        x_data, w_data, b_data, g = draw(2, 4, 6, 5), draw(4, 4, k, k), draw(4), draw(2, 4, 6, 5)

        def run():
            x, w, b = (T.Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
            out = T.conv2d(x, w, b, relu=True, residual=x)
            T.total_sum(T.mul(out, T.Tensor(g))).backward()
            return [x.grad, w.grad, b.grad]

        copied, handed = self.copied_and_handed_grads(monkeypatch, run)
        for want, got in zip(copied, handed):
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_type, width", [("basic", 4), ("bottleneck", 8)])
    def test_identity_shortcut_block_is_bit_for_bit(self, monkeypatch, dtype, block_type, width):
        # The shortcut x also feeds the block's first conv, whose input
        # gradient adds into the array x adopted from the join.
        rng = np.random.default_rng(73)
        x_data = rng.standard_normal((2, width, 6, 5)).astype(dtype)
        g = rng.standard_normal((2, width, 6, 5)).astype(dtype)

        def run():
            registry = T.ParamRegistry(dtype)
            block = ResidualBlock(registry, np.random.default_rng(74), "b", width, width, 1, block_type)
            assert block.proj is None
            bias_rng = np.random.default_rng(75)
            for name, p in registry.items():  # non-zero biases, so each ReLU mask is mixed
                if name.endswith(".shift"):
                    p.data[...] = bias_rng.standard_normal(p.data.shape)
            x = T.Tensor(x_data, requires_grad=True)
            T.total_sum(T.mul(block.forward(x), T.Tensor(g))).backward()
            return [x.grad] + [p.grad for p in registry.tensors()]

        copied, handed = self.copied_and_handed_grads(monkeypatch, run)
        assert len(copied) == len(handed) > 1
        for want, got in zip(copied, handed):
            assert got.dtype == dtype and np.array_equal(got, want)


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_element_of_any_rank(self, shape, dtype):
        value = T.Tensor(np.full(shape, 0.1, dtype=dtype)).item()
        assert type(value) is float and value == float(dtype(0.1))

    @pytest.mark.parametrize("shape", [(2,), (0,), (1, 3), (2, 1, 1)])
    def test_other_sizes_name_the_shape(self, shape):
        with pytest.raises(ConfigurationError, match=re.escape(f"got shape {shape}")):
            T.Tensor(np.zeros(shape)).item()


class TestParamRegistry:
    def test_insertion_order_and_uniqueness(self):
        reg = T.ParamRegistry(np.float64)
        reg.register("b.w", np.zeros(2))
        reg.register("a.w", np.zeros(2))
        assert reg.names() == ["b.w", "a.w"]
        with pytest.raises(ConfigurationError):
            reg.register("a.w", np.zeros(2))

    def test_num_scalars(self):
        reg = T.ParamRegistry(np.float64)
        reg.register("a", np.zeros((2, 3)))
        reg.register("b", np.zeros(5))
        assert reg.num_scalars() == 11

    def test_casts_arrays_to_its_dtype(self):
        reg = T.ParamRegistry(np.float32)
        assert reg.dtype == np.float32
        w = reg.register("w", np.arange(3.0))
        assert w.data.dtype == np.float32 and w.requires_grad

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, "float32", None])
    def test_rejects_other_dtypes(self, dtype):
        with pytest.raises(ConfigurationError, match="dtype"):
            T.ParamRegistry(dtype)


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

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv2d_backward_stays_float32(self, k):
        rng = np.random.default_rng(22)
        x = T.Tensor(rng.standard_normal((2, 3, 6, 5)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 3, k, k)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, zero_bias(w), stride=2)
        assert out.data.dtype == np.float32
        T.total_sum(out).backward()
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32
        # _accumulate would cast a float64 input gradient back; check col2im itself.
        taps = T._tap_layout(6, 5, k, 2)
        w2 = np.ones((4, 3 * k * k), dtype=np.float32)
        gq = np.ones((2, 4, taps.span), dtype=np.float32)
        assert T._col2im(w2, gq, (2, 3, 6, 5), taps).dtype == np.float32


REPO = Path(__file__).resolve().parents[1]


def parsed_modules(directory, pattern="*.py"):
    """{path below directory, without .py: ast} of the files matching pattern."""
    return {
        path.relative_to(directory).with_suffix("").as_posix(): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(Path(directory).glob(pattern))
    }


class TestModuleSurface:
    def test_only_test_support_lacks_a_package_caller(self):
        # An op that no avscene module imports is dead code or test support;
        # the four below are test support. add stays for the reference
        # compositions that tests build, such as conv2d's fused residual.
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
        assert unused == {"add", "mul", "total_sum", "finite_diff_check"}

    def test_package_surface_without_a_package_caller_is_pinned(self):
        # A public top-level function or class that no avscene module names
        # outside its own definition is an entry point that perfbench or the
        # planned command line calls (wav loading and writing, log-Mel
        # extraction, checkpoints, synthetic splits), or test support.
        # Anything else without a caller is dead code.
        trees = parsed_modules(REPO / "src" / "avscene")

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
            "frontend.load_wav",
            "frontend.write_wav",
            "model.load_checkpoint",
            "model.save_checkpoint",
            "model.synth_splits",
            "tensor.finite_diff_check",
            "tensor.mul",
            "tensor.total_sum",
        }

    def test_methods_without_a_caller_are_pinned(self):
        # A public method or property of an avscene class whose name no
        # avscene or perfbench module uses as an attribute has no program
        # caller. The four below are test helpers; anything else is dead code.
        trees = parsed_modules(REPO / "src" / "avscene")
        bench = parsed_modules(REPO / "perfbench", "**/*.py")
        used = {
            node.attr
            for tree in [*trees.values(), *bench.values()]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        uncalled = {
            f"{module}.{cls.name}.{fn.name}"
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_")
            and fn.name not in used
        }
        assert uncalled == {
            "tensor.GradCheckReport.max_relative_error",
            "tensor.GradCheckReport.worst_param",
            "tensor.ParamRegistry.num_scalars",
            "tensor.ParamRegistry.tensors",
        }


def settings_of(fn, call):
    """``call(name)`` for each parameter of fn with a default, ``call(**name)`` for **kwargs."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults) :] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    found = [f"{call}({arg.arg})" for arg in named]
    if args.kwarg:
        found.append(f"{call}(**{args.kwarg.arg})")
    return found


class TestSettingsLedger:
    # Every parameter of a public avscene function, method, constructor or
    # dataclass field that has a default, or is **kwargs, is a setting. A new
    # entry here is a new option: ROADMAP aim 2 admits one only when two
    # program callers need different values, so growing this list is a
    # visible diff in review.
    LEDGER = [
        "model.ModelConfig(batch_size)",
        "model.ModelConfig(disable_graph)",
        "model.ModelConfig(epochs)",
        "model.ModelConfig(gcn_out_channels)",
        "model.ModelConfig(k_nodes)",
        "model.ModelConfig(lr0)",
        "model.ModelConfig(lr_decay_every)",
        "model.ModelConfig(lr_decay_factor)",
        "model.ModelConfig(momentum)",
        "model.ModelConfig(seed)",
        "model.ModelConfig.full(**overrides)",
        "model.ModelConfig.full(modality)",
        "model.ModelConfig.tiny(**overrides)",
        "model.ModelConfig.tiny(modality)",
        "model.ModelConfig.tiny(num_classes)",
        "model.synth_dataset(height)",
        "model.synth_dataset(width)",
        "model.train(progress)",
        "tensor.Tensor(requires_grad)",
        "tensor.conv2d(relu)",
        "tensor.conv2d(residual)",
        "tensor.conv2d(stride)",
        "tensor.finite_diff_check(epsilon)",
        "tensor.linear(b)",
    ]

    def test_settings_are_pinned(self):
        found = []
        for module, tree in parsed_modules(REPO / "src" / "avscene").items():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    found += settings_of(node, f"{module}.{node.name}")
                if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                    continue
                cls = f"{module}.{node.name}"
                dataclass = any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list
                )
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                        found += settings_of(member, cls)
                    elif isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found += settings_of(member, f"{cls}.{member.name}")
                    elif dataclass and isinstance(member, ast.AnnAssign) and member.value:
                        found.append(f"{cls}({member.target.id})")
        assert sorted(found) == self.LEDGER


class TestOneHomePerRule:
    def test_integral_is_named_only_in_is_int(self):
        # The integer rule (numbers.Integral, and a bool is none) is
        # errors.is_int; config fields, labels, sample rates and conv strides
        # all call it rather than spell it again.
        where = {
            f"{module}.{getattr(top, 'name', '<module>')}"
            for module, tree in parsed_modules(REPO / "src" / "avscene").items()
            for top in tree.body
            for node in ast.walk(top)
            if (isinstance(node, ast.Attribute) and node.attr == "Integral")
            or (isinstance(node, ast.Name) and node.id == "Integral")
            or (isinstance(node, ast.alias) and node.name.endswith("Integral"))
        }
        assert where == {"errors.is_int"}

    def test_every_config_annotation_has_one_field_type_row(self):
        # A config field's check and stored value are its annotation's row
        # of backbone.FIELD_TYPES, so a new field type is one new row, and a
        # row that no field uses is dead code.
        from avscene.backbone import FIELD_TYPES

        trees = parsed_modules(REPO / "src" / "avscene")
        annotations = {
            ast.unparse(member.annotation)
            for module, name in (("model", "ModelConfig"), ("backbone", "BackboneConfig"))
            for cls in trees[module].body
            if isinstance(cls, ast.ClassDef) and cls.name == name
            for member in cls.body
            if isinstance(member, ast.AnnAssign)
        }
        assert annotations == set(FIELD_TYPES)


def third_party_imports(directory):
    """{module in directory: top-level names it imports from outside the stdlib and avscene}.

    Relative imports are the package itself.
    """
    local = set(sys.stdlib_module_names) | {"avscene"}
    found = {}
    for module, tree in parsed_modules(directory).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if (top := name.split(".")[0]) not in local:
                    found.setdefault(module, set()).add(top)
    return found


class TestRuntimeImports:
    def test_package_imports_only_the_standard_library_numpy_and_itself(self):
        # The runtime stays numpy-only: a package that happens to be installed
        # next to numpy (scipy, say) is still not a runtime dependency.
        outside = {
            f"{module}: {name}"
            for module, names in third_party_imports(REPO / "src" / "avscene").items()
            for name in names
            if name != "numpy"
        }
        assert outside == set()

    def test_pyproject_declares_what_the_code_imports_and_nothing_else(self):
        # No declared dependency or entry point that does not exist, and no
        # import that a fresh install would lack. Each requirement's
        # distribution name is compared with import names, which match for
        # every dependency so far.
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]

        def declared(requirements):
            return {re.match(r"[A-Za-z0-9._-]+", r).group(0).lower() for r in requirements}

        def imported(directory):
            return set().union(*third_party_imports(directory).values())

        runtime = declared(project["dependencies"])
        assert runtime == imported(REPO / "src" / "avscene")
        test = declared(project["optional-dependencies"]["test"])
        assert imported(REPO / "tests") <= runtime | test
        for name, target in project.get("scripts", {}).items():
            module, _, attr = target.partition(":")
            entry = importlib.import_module(module)
            for part in attr.split("."):
                entry = getattr(entry, part)
            assert callable(entry), f"script {name}: {target} is not callable"
