"""Implicit-topology encoder branch.

Two message-passing layers in the sum-aggregation style: each node adds
its own embedding to the sum of its neighbors' embeddings (the GIN update
with its self-weight eps fixed at 0) and pushes the result through a
two-layer MLP. Graph-level representations come from a sum readout, and
an MLP head maps them to class probabilities. A batch of graphs is
processed as one disjoint union; readout uses a constant graph-membership
matrix, so batching is mathematically identical to per-graph processing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ContractViolation
from .graphs import Graph


def one_hot_features(g: Graph, input_dim: int) -> np.ndarray:
    x = np.zeros((g.node_count, input_dim))
    for i, label in enumerate(g.node_labels):
        if not 0 <= label < input_dim:
            raise ContractViolation(f"node label {label} outside alphabet of size {input_dim}")
        x[i, label] = 1.0
    return x


def adjacency_matrix(g: Graph) -> sp.csr_matrix:
    n = g.node_count
    if not g.edges:
        return sp.csr_matrix((n, n))
    rows, cols = [], []
    for u, v in g.edges:
        rows += [u, v]
        cols += [v, u]
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


class GraphBatch:
    """Constant matrices for a disjoint union of graphs."""

    def __init__(self, graphs, input_dim: int):
        graphs = list(graphs)
        self.graphs = graphs
        self.input_dim = input_dim
        self.node_counts = [g.node_count for g in graphs]
        self.total_nodes = sum(self.node_counts)
        self.features = (np.vstack([one_hot_features(g, input_dim) for g in graphs])
                         if self.total_nodes else np.zeros((0, input_dim)))
        self.adjacency = sp.block_diag([adjacency_matrix(g) for g in graphs], format="csr")
        rows = np.repeat(np.arange(len(graphs)), self.node_counts)
        cols = np.arange(self.total_nodes)
        self.readout = sp.csr_matrix((np.ones(self.total_nodes), (rows, cols)),
                                     shape=(len(graphs), self.total_nodes))

    def feature_tensor(self, tape: ad.Tape, perturbations=None) -> ad.Tensor:
        """One-hot inputs, with optional per-graph additive perturbations.

        ``perturbations`` is a list aligned with the batch; entries may be
        tensors (gradients flow), arrays (baked in), or ``None``.
        """
        if perturbations is None:
            return ad.constant(self.features)
        if len(perturbations) != len(self.graphs):
            raise ContractViolation(
                f"{len(perturbations)} perturbations for {len(self.graphs)} graphs"
            )
        parts = []
        offset = 0
        for g, pert in zip(self.graphs, perturbations):
            block = self.features[offset:offset + g.node_count]
            offset += g.node_count
            if pert is None:
                parts.append(ad.constant(block))
                continue
            shape = pert.shape
            if shape != (g.node_count, self.input_dim):
                raise ContractViolation(
                    f"perturbation shape {shape} != {(g.node_count, self.input_dim)}"
                )
            if isinstance(pert, ad.Tensor):
                parts.append(ad.add(tape, ad.constant(block), pert))
            else:
                parts.append(ad.constant(block + pert))
        if len(parts) == 1:
            return parts[0]
        return ad.concat(tape, parts, axis=0)


class GinLayer:
    def __init__(self, rng: np.random.Generator, in_dim: int, hidden_dim: int):
        self.lin1 = ad.Linear(rng, in_dim, hidden_dim)
        self.lin2 = ad.Linear(rng, hidden_dim, hidden_dim)

    def __call__(self, tape: ad.Tape, h: ad.Tensor, adjacency) -> ad.Tensor:
        agg = ad.matmul_const(tape, adjacency, h)
        combined = ad.add(tape, h, agg)
        return self.lin2(tape, ad.relu(tape, self.lin1(tape, combined)))

    def params(self):
        return self.lin1.params() + self.lin2.params()


class GinEncoder:
    """Stacked GIN layers plus sum readout."""

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int = 64,
                 num_layers: int = 2):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.layers = []
        in_dim = input_dim
        for _ in range(num_layers):
            self.layers.append(GinLayer(rng, in_dim, hidden_dim))
            in_dim = hidden_dim

    def encode_batch(self, tape: ad.Tape, batch: GraphBatch, perturbations=None):
        """Node embeddings for the disjoint union and per-graph readouts."""
        h = batch.feature_tensor(tape, perturbations)
        for layer in self.layers:
            h = layer(tape, h, batch.adjacency)
        z = ad.matmul_const(tape, batch.readout, h)
        return h, z

    def encode(self, tape: ad.Tape, g: Graph, delta=None):
        """Single-graph encode; ``delta`` perturbs the one-hot inputs."""
        batch = GraphBatch([g], self.input_dim)
        perturbations = None if delta is None else [delta]
        return self.encode_batch(tape, batch, perturbations)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def named_params(self) -> dict[str, ad.Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}/lin1/weight"] = layer.lin1.weight
            out[f"layer{i}/lin1/bias"] = layer.lin1.bias
            out[f"layer{i}/lin2/weight"] = layer.lin2.weight
            out[f"layer{i}/lin2/bias"] = layer.lin2.bias
        return out


class ClassifierHead:
    """linear -> relu -> linear map from graph representations to logits."""

    def __init__(self, rng: np.random.Generator, hidden_dim: int, num_classes: int):
        self.lin1 = ad.Linear(rng, hidden_dim, hidden_dim)
        self.lin2 = ad.Linear(rng, hidden_dim, num_classes)

    def logits(self, tape: ad.Tape, z: ad.Tensor) -> ad.Tensor:
        return self.lin2(tape, ad.relu(tape, self.lin1(tape, z)))

    def predict(self, tape: ad.Tape, z: ad.Tensor) -> ad.Tensor:
        return ad.softmax(tape, self.logits(tape, z))

    def params(self):
        return self.lin1.params() + self.lin2.params()

    def named_params(self) -> dict[str, ad.Tensor]:
        return {
            "lin1/weight": self.lin1.weight,
            "lin1/bias": self.lin1.bias,
            "lin2/weight": self.lin2.weight,
            "lin2/bias": self.lin2.bias,
        }
