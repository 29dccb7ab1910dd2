"""Explicit-topology branch: label refinement, subtree kernel, and head.

Nodes are iteratively relabeled by compressing the pair (own label,
sorted multiset of neighbor labels) through an injective table shared by
every graph in a source/target pair. Counting label matches between two
graphs at each refinement depth and summing over depths 0..l yields the
subtree kernel; equivalently, the kernel is the inner product of sparse
per-graph label histograms. Those histograms, densified over a frozen
vocabulary, feed a small trainable head whose embedding layer accepts an
additive perturbation.

The refinement table assigns fresh labels in lexicographic signature
order per iteration, so a fitted table does not depend on graph order.
Fresh labels start above the raw alphabet and signatures at different
depths can never collide, which keeps one flat histogram per graph exact.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigurationError, ContractViolation
from .graphs import DomainDataset, Graph

UNKNOWN_LABEL = -1


class WlRefinement:
    """Shared label-compression table over a set of graphs."""

    def __init__(self, depth: int = 2):
        if depth < 0:
            raise ConfigurationError(f"refinement depth must be >= 0, got {depth}")
        self.depth = depth
        self.label_table: dict[tuple, int] = {}
        self._next_label: int | None = None
        self._observed: set[int] = set()
        self.feature_index: dict[int, int] = {}

    @property
    def fitted(self) -> bool:
        return self._next_label is not None

    @property
    def vocab_size(self) -> int:
        """Number of feature coordinates, including the reserved UNK slot."""
        return len(self.feature_index) + 1

    @property
    def unknown_column(self) -> int:
        return len(self.feature_index)

    def fit(self, graphs) -> "WlRefinement":
        """Build the table from one pass over ``graphs``.

        Iterations run synchronized across all graphs; new signatures are
        sorted lexicographically before insertion so the resulting labels
        are independent of graph order.
        """
        graphs = list(graphs)
        if not graphs:
            raise ConfigurationError("cannot fit a refinement on zero graphs")
        current = [np.asarray(g.node_labels, dtype=np.int64) for g in graphs]
        self._observed = {int(v) for labels in current for v in labels}
        self._next_label = (max(self._observed) + 1) if self._observed else 0
        self.label_table = {}
        neighbor_lists = [g.neighbors() for g in graphs]
        for _ in range(self.depth):
            signatures = [self._signatures(labels, nbrs)
                          for labels, nbrs in zip(current, neighbor_lists)]
            fresh = sorted({s for per_graph in signatures for s in per_graph
                            if s not in self.label_table})
            for sig in fresh:
                self.label_table[sig] = self._next_label
                self._next_label += 1
            current = [np.array([self.label_table[s] for s in per_graph], dtype=np.int64)
                       for per_graph in signatures]
            self._observed.update(int(v) for labels in current for v in labels)
        self.feature_index = {label: i for i, label in enumerate(sorted(self._observed))}
        return self

    @staticmethod
    def _signatures(labels: np.ndarray, neighbor_lists) -> list[tuple]:
        return [
            (int(labels[v]), tuple(sorted(int(labels[u]) for u in neighbor_lists[v])))
            for v in range(len(labels))
        ]

    def node_labels(self, g: Graph) -> list[np.ndarray]:
        """Per-iteration label arrays for ``g`` under the fitted table.

        Signatures absent from the table map to ``UNKNOWN_LABEL``; this
        only happens for graphs outside the fitted collection.
        """
        if not self.fitted:
            raise ContractViolation("refinement not fitted")
        labels = np.asarray(g.node_labels, dtype=np.int64)
        out = [labels]
        nbrs = g.neighbors()
        for _ in range(self.depth):
            sigs = self._signatures(out[-1], nbrs)
            out.append(np.array([self.label_table.get(s, UNKNOWN_LABEL) for s in sigs],
                                dtype=np.int64))
        return out

    def feature_counts(self, g: Graph) -> Counter:
        """Histogram of labels over all refinement depths 0..l."""
        counts: Counter = Counter()
        for labels in self.node_labels(g):
            counts.update(int(v) for v in labels)
        return counts

    def feature_row(self, g: Graph) -> sp.csr_matrix:
        """Densified histogram over the frozen vocabulary (1 x vocab_size).

        Labels outside the vocabulary land on the reserved UNK coordinate
        with their counts preserved.
        """
        counts = self.feature_counts(g)
        cols: dict[int, float] = {}
        for label, c in counts.items():
            col = self.feature_index.get(label, self.unknown_column)
            cols[col] = cols.get(col, 0.0) + c
        idx = sorted(cols)
        data = np.array([cols[i] for i in idx])
        return sp.csr_matrix((data, (np.zeros(len(idx), dtype=int), idx)),
                             shape=(1, self.vocab_size))

    def feature_matrix(self, graphs) -> sp.csr_matrix:
        rows = [self.feature_row(g) for g in graphs]
        if not rows:
            raise ContractViolation("feature_matrix of zero graphs")
        return sp.vstack(rows, format="csr")

    def dataset_features(self, dataset: DomainDataset) -> sp.csr_matrix:
        """The feature matrix of ``dataset.graphs``, computed at first use.

        Batches gather their rows from it. It is kept in
        ``dataset.feature_matrices`` under this refinement, so every branch and
        phase that shares the refinement shares the rows.
        """
        features = dataset.feature_matrices.get(self)
        if features is None:
            features = dataset.feature_matrices[self] = self.feature_matrix(dataset.graphs)
        return features


def kernel(refinement: WlRefinement, g1: Graph, g2: Graph) -> int:
    """Subtree-kernel value: matched label pairs summed over depths 0..l."""
    total = 0
    for l1, l2 in zip(refinement.node_labels(g1), refinement.node_labels(g2)):
        c1, c2 = Counter(l1.tolist()), Counter(l2.tolist())
        total += sum(c1[label] * c2[label] for label in c1 if label in c2)
    return total


def gram_matrix(refinement: WlRefinement, graphs) -> np.ndarray:
    """Pairwise kernel values as inner products of feature histograms."""
    fv = refinement.feature_matrix(graphs)
    return np.asarray((fv @ fv.T).todense(), dtype=np.float64)


def normalized_gram(gram: np.ndarray) -> np.ndarray:
    diag = np.sqrt(np.diag(gram))
    if np.any(diag == 0):
        raise ContractViolation("graph with zero self-similarity cannot be normalized")
    return gram / np.outer(diag, diag)


class GknHead:
    """Embedding plus classifier over densified refinement histograms."""

    def __init__(self, rng: np.random.Generator, vocab_size: int, num_classes: int,
                 hidden_dim: int = 64):
        self.hidden_dim = hidden_dim
        self.embedding = ad.Linear(rng, vocab_size, hidden_dim)
        self.lin1 = ad.Linear(rng, hidden_dim, hidden_dim)
        self.lin2 = ad.Linear(rng, hidden_dim, num_classes)

    def forward(self, tape: ad.Tape, features, zeta=None):
        """Representation, probabilities, and logits for a feature batch.

        ``features`` is a (B, vocab) constant, dense or sparse; ``zeta``
        an optional (B, hidden) additive perturbation tensor applied to
        the embedding before the nonlinearity.
        """
        emb = self.embedding.apply_const(tape, features)
        if zeta is not None:
            if zeta.shape != emb.shape:
                raise ContractViolation(f"perturbation shape {zeta.shape} != {emb.shape}")
            emb = ad.add(tape, emb, zeta)
        z = ad.relu(tape, emb)
        logits = self.lin2(tape, ad.relu(tape, self.lin1(tape, z)))
        return z, ad.softmax(tape, logits), logits

    def params(self):
        return self.embedding.params() + self.lin1.params() + self.lin2.params()

    def named_params(self) -> dict[str, ad.Tensor]:
        return {
            "embedding/weight": self.embedding.weight,
            "embedding/bias": self.embedding.bias,
            "lin1/weight": self.lin1.weight,
            "lin1/bias": self.lin1.bias,
            "lin2/weight": self.lin2.weight,
            "lin2/bias": self.lin2.bias,
        }

