"""Spectral graph convolution over the scene graphs.

The adjacency is normalized as (D+I)^{-1/2} (A+I) (D+I)^{-1/2} with D the
weighted degree (row sums of A), which bounds every eigenvalue in [-1, 1].
One layer per graph, relu(L_norm X Theta^T), mixes each node's features
with its neighbours' and maps them to a lower channel count with a shared
weight Theta; the readout flattens and concatenates the salient and
contextual node features.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError
from .tensor import Tensor, batched_matrix_apply, concat, linear, relu, reshape


def _validate_adjacency(adj: np.ndarray) -> None:
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ConfigurationError(f"adjacency must be square, got {adj.shape}")
    # ndarray methods: the np.* wrappers cost more than the checks on 8x8.
    # A NaN makes the symmetry check pass, as np.max did; a negative weight
    # is found next to a NaN, so no .min() here.
    if abs(adj - adj.T).max(initial=0.0) > 1e-12:
        raise DataError("adjacency is not symmetric within 1e-12")
    if (adj < 0.0).any():
        raise DataError("adjacency has negative weights")
    if adj.diagonal().any():
        raise DataError("adjacency has a nonzero diagonal")


def propagation_matrix(adj: np.ndarray) -> np.ndarray:
    """[K,K] (D+I)^{-1/2} (A+I) (D+I)^{-1/2} with D = diag of row sums of A."""
    _validate_adjacency(adj)
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    a_hat = adj + np.eye(adj.shape[0])
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def gcn_layer(x: Tensor, l_norm: np.ndarray, theta: Tensor) -> Tensor:
    """One propagation step: relu(L_norm @ X @ theta^T) per batch item.

    x is [N,K,C_in], l_norm the [K,K] propagation matrix of every item or
    [N,K,K] with one per item, and theta the [C_out,C_in] weight that
    ``linear`` applies to every node.
    """
    return relu(linear(batched_matrix_apply(l_norm, x), theta))


def graph_readout(y_salient: Tensor, y_contextual: Tensor) -> Tensor:
    """Flatten both [N,K,C] node tensors and concatenate salient-first."""
    if y_salient.data.shape != y_contextual.data.shape:
        raise ConfigurationError(
            f"readout shapes differ: {y_salient.data.shape} vs {y_contextual.data.shape}"
        )
    n, k, c = y_salient.data.shape
    return concat(
        [reshape(y_salient, (n, k * c)), reshape(y_contextual, (n, k * c))],
        axis=1,
    )
