"""Construction of the salient and contextual scene graphs.

From the fused feature map we rank spatial positions by channel-summed
intensity, pick the top-K positions (salient graph) and the middle-K
positions of the ranking (contextual graph), and weight edges by the
Manhattan distance between node grid positions. Selection is plain indexing:
gradients flow through the gathered node features only, never through the
ranking.

The edge set is the constant ``edge_mask(k)``: 4-node groups
{i, i+k/4, i+2k/4, i+3k/4} (stated 1-based) plus a chain linking the group
centers, ranks 2k/4 ... 3k/4-1 (0-based). Only the node positions, and so
the edge weights, vary per sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, gather_pixels


@dataclass
class SceneGraph:
    node_features: Tensor  # [1, K, C]
    flat_indices: np.ndarray  # [K], ascending row-major grid indices
    adjacency: np.ndarray  # [K, K], symmetric, zero diagonal


def _validate_k(k: int, cells: int) -> None:
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
    _validate_k(k, values.size)
    # Stable argsort of the negated values: descending, ties by lower index.
    order = np.argsort(-values, kind="stable")
    m_left = values.size // 2 - k // 2
    return np.sort(order[:k]), np.sort(order[m_left : m_left + k])


@functools.lru_cache(maxsize=64)
def edge_mask(k: int) -> np.ndarray:
    """Read-only bool [K,K]: same 4-node group, or neighbouring group centers."""
    _validate_k(k, 3 * k)  # no map here: only the multiple-of-4 rule can fail
    q = k // 4
    r = np.arange(k)
    mask = r[:, None] % q == r[None, :] % q
    centers = np.arange(2 * q, 3 * q - 1)
    mask[centers, centers + 1] = mask[centers + 1, centers] = True
    np.fill_diagonal(mask, False)
    mask.flags.writeable = False
    return mask


def adjacency(flat_indices: np.ndarray, w: int) -> np.ndarray:
    """Manhattan distance between grid positions on the edges of edge_mask(k).

    A connected pair at coincident positions keeps its edge with weight 0.
    """
    x, y = flat_indices % w, flat_indices // w
    dist = np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])
    return (edge_mask(len(flat_indices)) * dist).astype(np.float64)


def build_scene_graphs(f_ffr: Tensor, k: int):
    """Full pipeline from a fused feature map f_ffr[1,C,H,W] to both graphs."""
    if f_ffr.data.ndim != 4 or f_ffr.data.shape[0] != 1:
        raise ConfigurationError(
            f"build_scene_graphs expects a [1,C,H,W] map, got {f_ffr.data.shape}"
        )
    w = f_ffr.data.shape[3]
    salient, contextual = select_nodes(f_ffr.data.sum(axis=1).reshape(-1), k)
    return tuple(
        SceneGraph(gather_pixels(f_ffr, idx), idx, adjacency(idx, w))
        for idx in (salient, contextual)
    )
