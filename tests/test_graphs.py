"""Graph construction: node ranking, subgraph grouping, renormalized geometric adjacency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avscene import graphs as G
from avscene import tensor as T
from avscene.errors import ConfigurationError


def brute_force_selection(values, h, w, k):
    """Independent oracle: full sort with explicit tie-breaking, then slicing."""
    cells = h * w
    ranked = sorted(range(cells), key=lambda i: (-values[i], i))
    m_left = cells // 2 - k // 2
    return sorted(ranked[:k]), sorted(ranked[m_left : m_left + k])


def groups(k):
    """0-based 4-node groups read off the mask.

    Ranks below k/4 are never centers, so their neighbours are exactly their
    group peers.
    """
    mask = G.edge_mask(k)
    return [(i, *map(int, np.flatnonzero(mask[i]))) for i in range(k // 4)]


def center_chain(k):
    """Edges of the mask that join two different groups, as sorted pairs."""
    group_of = {r: gi for gi, g in enumerate(groups(k)) for r in g}
    return [
        (int(i), int(j))
        for i, j in np.argwhere(np.triu(G.edge_mask(k)))
        if group_of[i] != group_of[j]
    ]


def flat(positions, w):
    """(x, y) grid positions -> row-major flat indices."""
    return np.array([y * w + x for x, y in positions])


class TestIntensityMap:
    def test_constant_channels_sum(self):
        # Channel 0 alone would rank cell 5 first and channel 1 cell 10; the
        # channel sum is a descending ramp, so it picks cells 0..3.
        ramp = np.arange(16, 0, -1, dtype=np.float64)
        c0 = np.zeros(16)
        c0[5] = 100.0
        f = np.stack([c0, ramp - c0]).reshape(1, 2, 4, 4)
        _, (salient, contextual) = G.build_scene_graphs(T.Tensor(f), 4)
        assert list(salient) == [0, 1, 2, 3]
        assert list(contextual) == [6, 7, 8, 9]

    def test_single_channel_is_flatten(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((1, 1, 4, 5))
        _, indices = G.build_scene_graphs(T.Tensor(f), 4)
        assert np.array_equal(indices, np.stack(G.select_nodes(f[0, 0].reshape(-1), 4)))

    def test_loop_oracle(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((1, 3, 4, 4))
        values = [0.0] * 16
        for y in range(4):
            for x in range(4):
                values[y * 4 + x] = sum(f[0, c, y, x] for c in range(3))
        _, indices = G.build_scene_graphs(T.Tensor(f), 4)
        assert indices.tolist() == list(brute_force_selection(values, 4, 4, 4))

    def test_rejects_non_single_map(self):
        with pytest.raises(ConfigurationError, match=r"\[1,C,H,W\]"):
            G.build_scene_graphs(T.Tensor(np.zeros((2, 1, 6, 6))), 4)
        with pytest.raises(ConfigurationError, match=r"\[1,C,H,W\]"):
            G.build_scene_graphs(T.Tensor(np.zeros((1, 6, 6))), 4)


class TestSelectNodes:
    def test_descending_grid(self):
        values = np.arange(16, 0, -1, dtype=np.float64)  # 16, 15, ..., 1
        salient, contextual = G.select_nodes(values, 4)
        assert list(salient) == [0, 1, 2, 3]
        assert list(contextual) == [6, 7, 8, 9]

    def test_constant_map_tie_break(self):
        salient, contextual = G.select_nodes(np.ones(16), 4)
        assert list(salient) == [0, 1, 2, 3]
        assert list(contextual) == [6, 7, 8, 9]

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(36)
        a, b = G.select_nodes(values, 8), G.select_nodes(values * 3.7 + 11.0, 8)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_brute_force_oracle_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = int(rng.integers(6, 13))
            w = int(rng.integers(6, 13))
            k = int(rng.choice([4, 8, 12]))
            if h * w < 3 * k:
                continue
            values = np.round(rng.standard_normal(h * w), 2)  # induce ties
            salient, contextual = G.select_nodes(values, k)
            want_sal, want_ctx = brute_force_selection(values, h, w, k)
            assert list(salient) == want_sal
            assert list(contextual) == want_ctx

    def test_windows_disjoint(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            salient, contextual = G.select_nodes(rng.standard_normal(48), 16)
            assert not set(salient) & set(contextual)

    def test_preconditions(self):
        values = np.zeros(36)
        with pytest.raises(ConfigurationError):
            G.select_nodes(values, 6)  # not a multiple of 4
        with pytest.raises(ConfigurationError):
            G.select_nodes(values, 16)  # 36 < 48


class TestSubgraphs:
    def test_k20_centers_match_known_assignment(self):
        chain = center_chain(20)
        centers = sorted({r + 1 for pair in chain for r in pair})
        assert centers == [11, 12, 13, 14, 15]
        assert chain == [(10, 11), (11, 12), (12, 13), (13, 14)]

    def test_k20_first_group(self):
        assert tuple(r + 1 for r in groups(20)[0]) == (1, 6, 11, 16)

    def test_k8_groups_and_centers(self):
        one_based = [tuple(r + 1 for r in g) for g in groups(8)]
        assert one_based == [(1, 3, 5, 7), (2, 4, 6, 8)]
        assert center_chain(8) == [(4, 5)]  # 1-based centers 5 and 6

    def test_groups_partition_ranks(self):
        for k in (4, 8, 12, 20, 24):
            layout = groups(k)
            members = [r for g in layout for r in g]
            assert sorted(members) == list(range(k))
            assert all(len(g) == 4 for g in layout)
            mask = G.edge_mask(k)
            for g in layout:
                # Each group is a clique.
                assert all(mask[a, b] for a in g for b in g if a != b)
            # Each center is the third element of its group.
            centers = sorted({r for pair in center_chain(k) for r in pair})
            if k > 4:
                assert centers == [g[2] for g in layout]
            else:
                assert centers == []

    def test_rejects_non_multiple(self):
        with pytest.raises(ConfigurationError):
            G.edge_mask(10)
        with pytest.raises(ConfigurationError):
            G.edge_mask(0)

    def test_mask_is_cached_and_read_only(self):
        mask = G.edge_mask(12)
        assert mask is G.edge_mask(12)
        assert mask.dtype == bool and mask.shape == (12, 12)
        with pytest.raises(ValueError):
            mask[0, 1] = False


def normalized(weights, i, j):
    """w_ij / sqrt((d_i+1)(d_j+1)) for a dict {(i, j): w} of undirected edge weights."""
    def degree(n):
        return sum(w for pair, w in weights.items() if n in pair)

    return weights.get((min(i, j), max(i, j)), 0.0) / np.sqrt((degree(i) + 1) * (degree(j) + 1))


class TestPositionsAndAdjacency:
    # k = 4 is one group, so all six pairs are edges.
    def test_position_rule(self):
        # x = idx % w, y = idx // w: ranks at (0, 0), (4, 1), (7, 0), (1, 0).
        l_norm = G.propagation_matrix(np.array([0, 12, 7, 1]), 8)
        # |0-4| + |0-1|, |0-7| + 0, |0-1| + 0, |4-7| + |1-0|, |4-1| + |1-0|, |7-1| + 0
        weights = {(0, 1): 5, (0, 2): 7, (0, 3): 1, (1, 2): 4, (1, 3): 4, (2, 3): 6}
        for i, j in [(0, 1), (0, 2), (1, 2), (1, 3)]:
            assert l_norm[i, j] == pytest.approx(normalized(weights, i, j), rel=1e-15)
        assert l_norm[0, 1] == pytest.approx(5 / 14, rel=1e-15)  # degrees 13 and 13

    def test_manhattan_weight(self):
        positions = [(3, 0), (4, 1), (0, 0), (9, 9)]
        l_norm = G.propagation_matrix(flat(positions, 10), 10)
        # Edge 0-1 weighs |3-4| + |0-1| = 2; both nodes have degree 20.
        assert l_norm[0, 1] == pytest.approx(2 / 21, rel=1e-15)
        assert l_norm[1, 0] == l_norm[0, 1]
        assert l_norm[0, 0] == pytest.approx(1 / 21, rel=1e-15)

    def test_coincident_nodes_keep_edge_with_zero_weight(self):
        positions = [(2, 2), (2, 2), (0, 0), (1, 1)]
        l_norm = G.propagation_matrix(flat(positions, 10), 10)
        assert G.edge_mask(4)[0, 1]
        assert l_norm[0, 1] == 0.0
        # The zero-weight edge adds nothing to either degree: 0 + 4 + 2.
        assert l_norm[0, 0] == pytest.approx(1 / 7, rel=1e-15)

    def test_non_edges_are_zero(self):
        l_norm = G.propagation_matrix(np.arange(8), 100)  # positions (x, 0), x = 0..7
        mask = G.edge_mask(8)
        weights = {
            (i, j): abs(i - j) for i in range(8) for j in range(i + 1, 8) if mask[i, j]
        }
        for i in range(8):
            for j in range(8):
                if i != j and not mask[i, j]:
                    assert l_norm[i, j] == 0.0
                elif i != j:
                    assert l_norm[i, j] == pytest.approx(normalized(weights, i, j), rel=1e-15)

    def test_edge_count_formula(self):
        for k in (8, 12, 20, 24):
            q = k // 4
            assert np.triu(G.edge_mask(k)).sum() == 6 * q + (q - 1)

    def test_adjacency_symmetric_zero_diagonal(self):
        # L = S (A + I) S with S = diag(1/sqrt(d+1)). A symmetric A leaves L
        # symmetric (to the order of the two products), and a zero diagonal
        # leaves S**2 = 1/(d+1) there: A read back from L has row sums d.
        rng = np.random.default_rng(5)
        l_norm = G.propagation_matrix(rng.integers(0, 100, 12), 10)
        assert l_norm.dtype == np.float64
        assert np.max(np.abs(l_norm - l_norm.T)) <= 1e-15
        assert np.all(l_norm >= 0.0)
        scale = np.sqrt(np.diag(l_norm))
        adj = l_norm / (scale[:, None] * scale[None, :]) - np.eye(12)
        assert np.allclose(adj.sum(axis=1), 1.0 / np.diag(l_norm) - 1.0, rtol=1e-12)


class TestGatherAndCompose:
    def test_gather_reproduces_indices(self):
        h, w = 4, 6
        ramp = T.Tensor(np.arange(h * w, dtype=np.float64).reshape(1, 1, h, w))
        v_sal = T.gather_pixels(ramp, np.array([0, 5, 9, 23]))
        v_ctx = T.gather_pixels(ramp, np.array([1, 2, 3, 4]))
        assert v_sal.shape == (1, 4, 1)
        assert list(v_sal.data[0, :, 0]) == [0.0, 5.0, 9.0, 23.0]
        assert list(v_ctx.data[0, :, 0]) == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ConfigurationError, match="out of range"):
            T.gather_pixels(ramp, np.array([0, h * w]))

    def test_gather_scatter_lossless(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((1, 3, 4, 4))
        idx = np.array([2, 7, 8, 13])
        v = T.gather_pixels(T.Tensor(f), idx)
        canvas = np.zeros((3, 16))
        canvas[:, idx] = v.data[0].T
        assert np.array_equal(canvas[:, idx], f[0].reshape(3, 16)[:, idx])

    def test_build_scene_graphs_k20(self):
        rng = np.random.default_rng(7)
        f = T.Tensor(rng.standard_normal((1, 4, 8, 8)))
        (salient, contextual), indices = G.build_scene_graphs(f, 20)
        assert indices.shape == (2, 20) and indices.dtype == np.int64
        assert salient.shape == contextual.shape == (1, 20, 4)
        assert np.array_equal(contextual.data[0], f.data[0].reshape(4, -1)[:, indices[1]].T)
        assert G.propagation_matrix(indices[0], 8).shape == (20, 20)
        assert len(groups(20)) == 5
        assert len(set(indices.reshape(-1))) == 40

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        f = T.Tensor(rng.standard_normal((1, 2, 6, 6)))
        (_, a), idx_a = G.build_scene_graphs(f, 8)
        (_, b), idx_b = G.build_scene_graphs(f, 8)
        assert np.array_equal(idx_a, idx_b) and np.array_equal(a.data, b.data)
        assert np.array_equal(G.propagation_matrix(idx_a[1], 6), G.propagation_matrix(idx_b[1], 6))


# ---------------------------------------------------------------------------
# reference: the set-and-loop construction the array code replaced
# ---------------------------------------------------------------------------


def reference_edge_set(k):
    """All pairs within each 4-node group plus the chain of group centers."""
    q = k // 4
    subgraphs = [(i, i + q, i + 2 * q, i + 3 * q) for i in range(q)]
    centers = [i + 2 * q for i in range(q)]
    edges = set()
    for group in subgraphs:
        for a in range(4):
            for b in range(a + 1, 4):
                i, j = group[a], group[b]
                edges.add((min(i, j), max(i, j)))
    for a, b in zip(centers, centers[1:]):
        edges.add((min(a, b), max(a, b)))
    return edges


def reference_adjacency(positions, edges):
    k = len(positions)
    adj = np.zeros((k, k))
    for i, j in edges:
        (xi, yi), (xj, yj) = positions[i], positions[j]
        adj[i, j] = adj[j, i] = abs(xi - xj) + abs(yi - yj)
    return adj


def renormalized(adj):
    """(D+I)^{-1/2} (A+I) (D+I)^{-1/2}, D the diagonal of A's row sums."""
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    return inv_sqrt[:, None] * (adj + np.eye(len(adj))) * inv_sqrt[None, :]


class TestLoopEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.sampled_from([4, 8, 12, 16, 20, 24]),
        extra_h=st.integers(0, 5),
        w=st.integers(1, 12),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    def test_matches_set_and_loop_construction(self, k, extra_h, w, channels, seed, ties):
        h = -(-3 * k // w) + extra_h  # smallest height with 3k cells, plus slack
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((1, channels, h, w))
        if ties:
            f = np.round(f, 1)
        _, indices = G.build_scene_graphs(T.Tensor(f), k)
        edges = reference_edge_set(k)
        want = brute_force_selection(f.sum(axis=1).reshape(-1), h, w, k)
        for got, idx in zip(indices, want):
            assert list(got) == idx
            l_norm = G.propagation_matrix(got, w)
            ref = renormalized(reference_adjacency([(i % w, i // w) for i in idx], edges))
            assert l_norm.dtype == ref.dtype
            assert l_norm.tobytes() == ref.tobytes()
