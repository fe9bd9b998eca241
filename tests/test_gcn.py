"""Spectral graph convolution: normalization contracts and layer math."""

import numpy as np
import pytest

from avscene import gcn
from avscene import tensor as T
from avscene.errors import ConfigurationError, DataError


def random_adjacency(rng, k):
    """Random valid adjacency: symmetric, nonnegative, zero diagonal."""
    raw = rng.uniform(0.0, 5.0, size=(k, k)) * (rng.random((k, k)) < 0.4)
    adj = np.triu(raw, 1)
    return adj + adj.T


class TestPropagationMatrix:
    def test_two_node_hand_case(self):
        l_norm = gcn.propagation_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        want = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert np.max(np.abs(l_norm - want)) < 1e-12
        eig = np.sort(np.linalg.eigvalsh(l_norm))
        assert eig[1] == pytest.approx(1.0, abs=1e-12)
        assert eig[0] == pytest.approx(-1 / 3, abs=1e-12)

    def test_isolated_nodes_give_identity(self):
        assert np.array_equal(gcn.propagation_matrix(np.zeros((5, 5))), np.eye(5))

    def test_spectral_bound_sweep(self):
        # Dense eigensolver oracle over random valid adjacencies.
        rng = np.random.default_rng(2)
        for k in (8, 20, 24):
            for _ in range(34):
                l_norm = gcn.propagation_matrix(random_adjacency(rng, k))
                assert np.max(np.abs(l_norm - l_norm.T)) <= 1e-12
                radius = np.max(np.abs(np.linalg.eigvalsh(l_norm)))
                assert radius <= 1.0 + 1e-9

    def test_asymmetry_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError, match="symmetric"):
            gcn.propagation_matrix(bad)

    def test_invalid_adjacency_rejected(self):
        with pytest.raises(ConfigurationError, match="square"):
            gcn.propagation_matrix(np.zeros((2, 3)))
        with pytest.raises(DataError, match="negative"):
            gcn.propagation_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(DataError, match="diagonal"):
            gcn.propagation_matrix(np.eye(2))


def reference_verdict(adj):
    """The adjacency checks written with np.* functions: the message word, or None."""
    if np.max(np.abs(adj - adj.T), initial=0.0) > 1e-12:
        return "symmetric"
    if np.any(adj < 0.0):
        return "negative"
    if np.any(np.diag(adj) != 0.0):
        return "diagonal"
    return None


def adjacency_case(*entries):
    """4x4 valid adjacency with (row, col, value) entries overwritten."""
    adj = random_adjacency(np.random.default_rng(12), 4)
    for i, j, value in entries:
        adj[i, j] = value
    return adj


NAN = float("nan")
VALIDATION_CASES = {
    "valid": (),
    "asymmetric": ((0, 1, 7.0),),
    "negative": ((1, 2, -1.0), (2, 1, -1.0)),
    "diagonal": ((3, 3, 0.5),),
    "negative zero diagonal": ((3, 3, -0.0),),
    "nan pair": ((0, 1, NAN), (1, 0, NAN)),
    "nan one side": ((0, 1, NAN),),
    "nan and asymmetric": ((0, 1, NAN), (2, 3, 9.0)),
    "nan and negative": ((0, 1, NAN), (2, 3, -1.0), (3, 2, -1.0)),
    "nan diagonal": ((2, 2, NAN),),
}


class TestValidation:
    @pytest.mark.parametrize("case", VALIDATION_CASES)
    def test_same_verdict_as_the_numpy_function_checks(self, case):
        adj = adjacency_case(*VALIDATION_CASES[case])
        want = reference_verdict(adj)
        if want is None:
            assert gcn.propagation_matrix(adj).shape == (4, 4)
        else:
            with pytest.raises(DataError, match=want):
                gcn.propagation_matrix(adj)

    def test_cases_reach_every_verdict(self):
        verdicts = {reference_verdict(adjacency_case(*e)) for e in VALIDATION_CASES.values()}
        assert verdicts == {None, "symmetric", "negative", "diagonal"}


class TestGcnLayer:
    def test_double_identity(self):
        x = T.Tensor(np.abs(np.random.default_rng(3).standard_normal((2, 4, 3))))
        out = gcn.gcn_layer(x, np.eye(4), T.Tensor(np.eye(3)))
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
        out = gcn.gcn_layer(x, m, theta)
        assert out.data.min() > 0.0
        spread = out.data.max(axis=1) - out.data.min(axis=1)
        assert np.max(np.abs(spread)) < 1e-9

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        n, k, cin, cout = 2, 4, 3, 2
        x = rng.standard_normal((n, k, cin))
        lm = rng.standard_normal((k, k))
        theta = rng.standard_normal((cout, cin))
        got = gcn.gcn_layer(T.Tensor(x), lm, T.Tensor(theta)).data
        want = np.zeros((n, k, cout))
        for ni in range(n):
            for i in range(k):
                for o in range(cout):
                    acc = 0.0
                    for j in range(k):
                        for c in range(cin):
                            acc += lm[i, j] * x[ni, j, c] * theta[o, c]
                    want[ni, i, o] = max(acc, 0.0)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.any(want == 0.0) and np.any(want > 0.0)  # both ReLU sides

    def test_node_count_mismatch_rejected(self):
        x = T.Tensor(np.zeros((1, 4, 3)))
        with pytest.raises(ConfigurationError):
            gcn.gcn_layer(x, np.eye(5), T.Tensor(np.eye(3)))
        with pytest.raises(ConfigurationError):
            gcn.gcn_layer(T.Tensor(np.zeros((4, 3))), np.eye(4), T.Tensor(np.eye(3)))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        reg = T.ParamRegistry()
        theta = reg.register("theta", rng.standard_normal((2, 3)))
        x = reg.register("x", rng.standard_normal((2, 4, 3)))
        l_norm = gcn.propagation_matrix(random_adjacency(rng, 4))

        def loss():
            return T.total_sum(gcn.gcn_layer(x, l_norm, theta))

        report = T.finite_diff_check(reg, loss, epsilon=1e-5)
        assert report.max_relative_error < 1e-5, report.per_param


    def test_layer_is_three_tape_nodes(self):
        # relu(linear(batched_matrix_apply(l_norm, x), theta)): no transposes.
        x = T.Tensor(np.ones((1, 4, 3)), requires_grad=True)
        out = gcn.gcn_layer(x, np.eye(4), T.Tensor(np.eye(3), requires_grad=True))
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
