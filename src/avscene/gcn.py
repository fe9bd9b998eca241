"""Spectral graph convolution over the scene graphs.

One layer per graph, relu(L_norm X Theta^T), mixes each node's features
with its neighbours' through the propagation matrix L_norm that
``graphs.propagation_matrix`` builds from the node positions, and maps them
to a lower channel count with a shared weight Theta; the readout flattens
and concatenates the salient and contextual node features.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, batched_matrix_apply, concat, linear, relu, reshape


def gcn_layer(x: Tensor, l_norm: np.ndarray, theta: Tensor) -> Tensor:
    """One propagation step: relu(L_norm @ X @ theta^T) per batch item.

    x is [N,K,C_in], l_norm the [N,K,K] propagation matrices, one per item,
    and theta the [C_out,C_in] weight that ``linear`` applies to every node.
    """
    return relu(linear(batched_matrix_apply(l_norm, x), theta))


def graph_readout(y_salient: Tensor, y_contextual: Tensor) -> Tensor:
    """Join both [N,K,C] node tensors salient-first along K and flatten each row."""
    if y_salient.data.shape != y_contextual.data.shape:
        raise ConfigurationError(
            f"readout shapes differ: {y_salient.data.shape} vs {y_contextual.data.shape}"
        )
    n, k, c = y_salient.data.shape
    return reshape(concat([y_salient, y_contextual], axis=1), (n, 2 * k * c))
