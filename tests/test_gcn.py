"""Spectral graph convolution: the propagation matrix's spectral contract and layer math."""

import numpy as np
import pytest

from avscene import gcn
from avscene import tensor as T
from avscene.errors import ConfigurationError
from avscene.graphs import propagation_matrix


def random_positions(rng, k):
    """k flat positions on a small grid, so coincident positions are common."""
    w = int(rng.integers(1, 6))
    return rng.integers(0, w * int(rng.integers(1, 6)), size=k), w


class TestPropagationMatrix:
    def test_two_site_hand_case(self):
        # Nodes 0, 1 share cell 0 and nodes 2, 3 cell 1: every cross edge
        # weighs 1, the two same-cell edges 0, and every degree is 2.
        l_norm = propagation_matrix(np.array([0, 0, 1, 1]), 4)
        want = np.array([[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1]]) / 3
        assert np.max(np.abs(l_norm - want)) < 1e-12
        eig = np.sort(np.linalg.eigvalsh(l_norm))
        assert eig == pytest.approx([-1 / 3, 1 / 3, 1 / 3, 1.0], abs=1e-12)

    def test_isolated_nodes_give_identity(self):
        # All nodes on one cell: every edge weighs 0.
        assert np.array_equal(propagation_matrix(np.full(8, 5), 4), np.eye(8))

    def test_spectral_bound_sweep(self):
        # Dense eigensolver oracle over random positions, coincident ones included.
        rng = np.random.default_rng(2)
        coincident = 0
        for k in (8, 20, 24):
            for _ in range(34):
                idx, w = random_positions(rng, k)
                coincident += len(set(idx)) < k
                l_norm = propagation_matrix(idx, w)
                assert np.max(np.abs(l_norm - l_norm.T)) <= 1e-12
                radius = np.max(np.abs(np.linalg.eigvalsh(l_norm)))
                assert radius <= 1.0 + 1e-9
        assert coincident > 50


class TestGcnLayer:
    def test_double_identity(self):
        x = T.Tensor(np.abs(np.random.default_rng(3).standard_normal((2, 4, 3))))
        out = gcn.gcn_layer(x, np.tile(np.eye(4), (2, 1, 1)), T.Tensor(np.eye(3)))
        assert np.array_equal(out.data, x.data)

    def test_constant_nodes_stay_constant_pre_activation(self):
        # Any propagation matrix with unit row sums preserves constants.
        rng = np.random.default_rng(4)
        raw = rng.uniform(0.1, 1.0, size=(4, 4))
        sym = (raw + raw.T) / 2
        row_stochastic = sym / sym.sum(axis=1, keepdims=True)
        # Symmetrize while keeping row sums 1: average with its transpose is
        # not stochastic in general, so use a symmetric doubly-stochastic mix.
        m = 0.5 * row_stochastic + 0.5 * row_stochastic.T
        m = m / m.sum(axis=1, keepdims=True)
        m = (m + m.T) / 2
        m = m / m.sum(axis=1, keepdims=True)
        # Positive features and filters keep every output above the ReLU kink.
        x = T.Tensor(np.tile(np.array([1.5, 2.0, 0.5]), (1, 4, 1)))
        theta = T.Tensor(np.abs(rng.standard_normal((2, 3))))
        out = gcn.gcn_layer(x, m[None], theta)
        assert out.data.min() > 0.0
        spread = out.data.max(axis=1) - out.data.min(axis=1)
        assert np.max(np.abs(spread)) < 1e-9

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        n, k, cin, cout = 2, 4, 3, 2
        x = rng.standard_normal((n, k, cin))
        lm = rng.standard_normal((n, k, k))
        theta = rng.standard_normal((cout, cin))
        got = gcn.gcn_layer(T.Tensor(x), lm, T.Tensor(theta)).data
        want = np.zeros((n, k, cout))
        for ni in range(n):
            for i in range(k):
                for o in range(cout):
                    acc = 0.0
                    for j in range(k):
                        for c in range(cin):
                            acc += lm[ni, i, j] * x[ni, j, c] * theta[o, c]
                    want[ni, i, o] = max(acc, 0.0)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.any(want == 0.0) and np.any(want > 0.0)  # both ReLU sides

    def test_node_count_mismatch_rejected(self):
        x = T.Tensor(np.zeros((1, 4, 3)))
        with pytest.raises(ConfigurationError):
            gcn.gcn_layer(x, np.eye(5)[None], T.Tensor(np.eye(3)))
        with pytest.raises(ConfigurationError):
            gcn.gcn_layer(T.Tensor(np.zeros((4, 3))), np.eye(4)[None], T.Tensor(np.eye(3)))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        reg = T.ParamRegistry(np.float64)
        theta = reg.register("theta", rng.standard_normal((2, 3)))
        x = reg.register("x", rng.standard_normal((2, 4, 3)))
        l_norm = np.stack([propagation_matrix(*random_positions(rng, 4)) for _ in range(2)])

        def loss():
            return T.total_sum(gcn.gcn_layer(x, l_norm, theta))

        report = T.finite_diff_check(reg, loss, epsilon=1e-5)
        assert report.max_relative_error < 1e-5, report.per_param


    def test_layer_is_three_tape_nodes(self):
        # relu(linear(batched_matrix_apply(l_norm, x), theta)): no transposes.
        x = T.Tensor(np.ones((1, 4, 3)), requires_grad=True)
        out = gcn.gcn_layer(x, np.eye(4)[None], T.Tensor(np.eye(3), requires_grad=True))
        ops, node = 0, out
        while node._parents:
            ops += 1
            node = node._parents[0]
        assert ops == 3 and node is x


class TestReadout:
    def test_flattened_width(self):
        # 2 * K * C: both graphs' node features side by side.
        y1 = T.Tensor(np.zeros((2, 20, 256)))
        y2 = T.Tensor(np.zeros((2, 20, 256)))
        out = gcn.graph_readout(y1, y2)
        assert out.shape == (2, 2 * 20 * 256)

    def test_zero_inputs(self):
        out = gcn.graph_readout(T.Tensor(np.zeros((1, 4, 2))), T.Tensor(np.zeros((1, 4, 2))))
        assert np.all(out.data == 0.0)

    def test_batch_equivariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 2))
        b = rng.standard_normal((3, 4, 2))
        base = gcn.graph_readout(T.Tensor(a), T.Tensor(b)).data
        perm = [2, 0, 1]
        swapped = gcn.graph_readout(T.Tensor(a[perm]), T.Tensor(b[perm])).data
        assert np.array_equal(swapped, base[perm])

    def test_two_tape_nodes_with_the_two_reshape_values_and_gradients(self):
        # One concat along K and one reshape replace a reshape per graph and
        # a concat of the rows: one tape node fewer, the same bits.
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, 3, 4, 5))
        upstream = T.Tensor(rng.standard_normal((3, 2 * 4 * 5)))

        def two_reshapes(ys, yc):
            return T.concat([T.reshape(ys, (3, 20)), T.reshape(yc, (3, 20))], axis=1)

        def run(readout):
            ys, yc = T.Tensor(a, requires_grad=True), T.Tensor(b, requires_grad=True)
            out = readout(ys, yc)
            nodes = taped_nodes(out)
            T.total_sum(T.mul(out, upstream)).backward()
            return nodes, out.data, ys.grad, yc.grad

        got, want = run(gcn.graph_readout), run(two_reshapes)
        assert (got[0], want[0]) == (2, 3)
        for value, reference in zip(got[1:], want[1:]):
            assert np.array_equal(value, reference)


def taped_nodes(out):
    """Count the recorded op nodes reachable from out through ``_parents``."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)
