"""Implicit-topology encoder branch.

Two message-passing layers in the sum-aggregation style: each node adds
its own embedding to the sum of its neighbors' embeddings (the GIN update
with its self-weight eps fixed at 0) and pushes the result through a
two-layer MLP. Graph-level representations come from a sum readout; the
branch's ``ad.Mlp`` head maps them to class logits. A batch of graphs is
processed as one disjoint union, gathered by index from its dataset's
packed graphs; readout uses a constant graph-membership matrix, so
batching is mathematically identical to per-graph processing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .graphs import PackedGraphs


class GraphBatch:
    """Constant matrices for the disjoint union of graphs ``indices`` of ``packed``.

    All three are read off ``packed.take(indices)``: the one-hot node
    features from its node labels, its adjacency, symmetric with sorted
    indices as ``ad.aggregate`` needs, and the sum readout, whose
    ``indptr`` is its node offsets. Node labels must lie in
    ``[0, input_dim)``, as a dataset checks when built.
    """

    def __init__(self, packed: PackedGraphs, indices, input_dim: int):
        self.graphs = indices  # read only by perfbench/spans.py; ROADMAP item 4 deletes it
        union = packed.take(indices)
        total = len(union.node_labels)
        self.features = np.zeros((total, input_dim))
        self.features[np.arange(total), union.node_labels] = 1.0
        self.adjacency = union.adjacency
        self.readout = sp.csr_matrix((np.ones(total), np.arange(total), union.node_offsets),
                                     shape=(len(union), total))

    def feature_tensor(self, tape: ad.Tape, perturbation: ad.Tensor | None = None) -> ad.Tensor:
        """One-hot inputs plus an optional additive perturbation of the whole batch.

        ``perturbation`` is ``None`` or a tensor shaped like the features:
        each graph's block is its rows. Gradients flow to it unless it is
        a constant.
        """
        if perturbation is None:
            return ad.constant(self.features)
        return ad.add(tape, ad.constant(self.features), perturbation)


class GinLayer(ad.Mlp):
    """The GIN update: the two-layer perceptron applied to ``h + A h``."""

    def __call__(self, tape: ad.Tape, h: ad.Tensor, adjacency) -> ad.Tensor:
        return super().__call__(tape, ad.aggregate(tape, adjacency, h))


class GinEncoder(ad.Module):
    """Two stacked GIN layers plus sum readout."""

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int):
        self.layer0 = GinLayer(rng, input_dim, hidden_dim, hidden_dim)
        self.layer1 = GinLayer(rng, hidden_dim, hidden_dim, hidden_dim)

    def encode_batch(self, tape: ad.Tape, batch: GraphBatch, perturbation=None):
        """Node embeddings for the disjoint union and per-graph readouts."""
        h = batch.feature_tensor(tape, perturbation)
        for layer in (self.layer0, self.layer1):
            h = layer(tape, h, batch.adjacency)
        z = ad.segment_sum(tape, batch.readout, h)
        return h, z
