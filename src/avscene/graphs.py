"""Construction of the salient and contextual scene graphs.

From the fused feature map we rank spatial positions by channel-summed
intensity, pick the top-K positions (salient graph) and the middle-K
positions of the ranking (contextual graph), and gather their features.
Selection is plain indexing: gradients flow through the gathered node
features only, never through the ranking.

A graph is determined by its node positions. The edge set is the constant
``edge_mask(k)``: 4-node groups {i, i+k/4, i+2k/4, i+3k/4} (stated 1-based)
plus a chain linking the group centers, ranks 2k/4 ... 3k/4-1 (0-based).
Each edge is weighted by the Manhattan distance between its nodes' grid
positions, and ``propagation_matrix`` renormalizes these weights as
(D+I)^{-1/2} (A+I) (D+I)^{-1/2} (Kipf & Welling), with D the weighted
degree, which bounds every eigenvalue in [-1, 1].
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, gather_pixels


def validate_k(k: int, cells: int) -> None:
    """Raise unless k is a positive multiple of 4 and a map of ``cells`` holds 3*k nodes."""
    if k < 4 or k % 4:
        raise ConfigurationError(f"node count must be a positive multiple of 4, got {k}")
    if cells < 3 * k:
        raise ConfigurationError(
            f"feature map has {cells} cells; need at least 3*k = {3 * k} "
            "for disjoint salient and contextual windows"
        )


def select_nodes(values: np.ndarray, k: int):
    """Pick the top-k and middle-k positions of the descending intensity sort.

    values is the flat [H*W] intensity map. The middle window is the
    half-open rank range [H*W//2 - k//2, H*W//2 + k//2). Ties sort by lower
    flat index. Both index arrays are returned ascending, restoring the
    original spatial order.
    """
    validate_k(k, values.size)
    # Stable argsort of the negated values: descending, ties by lower index.
    order = np.argsort(-values, kind="stable")
    m_left = values.size // 2 - k // 2
    return np.sort(order[:k]), np.sort(order[m_left : m_left + k])


@functools.lru_cache(maxsize=64)
def edge_mask(k: int) -> np.ndarray:
    """Read-only bool [K,K]: same 4-node group, or neighbouring group centers."""
    validate_k(k, 3 * k)  # no map here: only the multiple-of-4 rule can fail
    q = k // 4
    r = np.arange(k)
    mask = r[:, None] % q == r[None, :] % q
    centers = np.arange(2 * q, 3 * q - 1)
    mask[centers, centers + 1] = mask[centers + 1, centers] = True
    np.fill_diagonal(mask, False)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=64)
def _edge_weights(k: int) -> np.ndarray:
    """Read-only float64 [K,K] copy of ``edge_mask(k)``."""
    weights = edge_mask(k).astype(np.float64)
    weights.flags.writeable = False
    return weights


def propagation_matrix(flat_indices: np.ndarray, w: int) -> np.ndarray:
    """[K,K] (D+I)^{-1/2} (A+I) (D+I)^{-1/2} of the graph on these node positions.

    flat_indices are row-major positions on a grid of width w. A holds the
    Manhattan distance between positions on the edges of ``edge_mask(k)``
    and 0 elsewhere, so it is symmetric with a zero diagonal; D is the
    diagonal of its row sums. A connected pair at coincident positions keeps
    its edge with weight 0. Every entry of A + I, and every row sum, is a
    small integer, exact in float64 in any order of addition.
    """
    k = len(flat_indices)
    y, x = np.divmod(np.asarray(flat_indices, dtype=np.float64), w)
    adj = np.abs(y[:, None] - y)
    adj += np.abs(x[:, None] - x)
    adj *= _edge_weights(k)
    adj.flat[:: k + 1] = 1.0  # A's diagonal is 0, so adj is now A + I
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))  # the row sums of A + I are D + 1
    out = inv_sqrt[:, None] * adj
    out *= inv_sqrt
    return out


def build_scene_graphs(f_ffr: Tensor, k: int):
    """Both graphs' node features from a fused feature map f_ffr[1,C,H,W].

    Returns ((salient, contextual), indices): the [1,K,C] node features of
    each graph and the int64 [2,K] flat positions of their nodes, salient
    row first, each row ascending.
    """
    if f_ffr.data.ndim != 4 or f_ffr.data.shape[0] != 1:
        raise ConfigurationError(
            f"build_scene_graphs expects a [1,C,H,W] map, got {f_ffr.data.shape}"
        )
    indices = np.stack(select_nodes(f_ffr.data.sum(axis=1).reshape(-1), k))
    return tuple(gather_pixels(f_ffr, idx) for idx in indices), indices
