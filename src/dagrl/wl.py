"""Explicit-topology branch: label refinement, subtree-kernel feature map, and head.

Nodes are iteratively relabeled by compressing the pair (own label,
sorted multiset of neighbor labels) through an injective table shared by
every graph in a source/target pair. Each graph is read through the
subtree kernel's feature map: its sparse label histogram over depths
0..l, whose inner products are the kernel values (counting label
matches between two graphs at each depth and summing over depths).
Those histograms, sparse CSR rows over a frozen vocabulary, feed a small
trainable head whose embedding layer accepts an additive perturbation.

Refinement is one vectorized pass per depth over a packed union of
graphs. A node's key row is its own label, its sorted neighbor labels,
then a pad below every label (``UNKNOWN_LABEL`` included), so ranking the
rows with ``np.lexsort`` orders signatures exactly as Python orders the
tuples. Fresh labels follow that order, so a fitted table does not depend
on graph order. Fresh labels start above the raw alphabet and signatures
at different depths can never collide, which keeps one flat histogram per
graph exact.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigurationError, ContractViolation
from .graphs import Graph, PackedGraphs, pack

UNKNOWN_LABEL = -1
_PAD = UNKNOWN_LABEL - 1  # below every label: raw labels are nonnegative


class WlRefinement:
    """Shared label-compression table over a set of graphs."""

    def __init__(self, depth: int):
        if depth < 0:
            raise ConfigurationError(f"refinement depth must be >= 0, got {depth}")
        self.depth = depth
        self.label_table: dict[tuple, int] = {}
        self._next_label: int | None = None
        self._vocab = np.zeros(0, dtype=np.int64)

    @property
    def vocab_size(self) -> int:
        """Number of feature coordinates, including the reserved UNK slot."""
        return len(self._vocab) + 1

    @property
    def unknown_column(self) -> int:
        return len(self._vocab)

    def fit(self, packed: PackedGraphs) -> "WlRefinement":
        """Build the table from one synchronized pass over all graphs of ``packed``."""
        if not len(packed):
            raise ConfigurationError("cannot fit a refinement on zero graphs")
        self.label_table = {}
        raw = packed.node_labels
        self._next_label = int(raw.max()) + 1 if len(raw) else 0
        self._vocab = np.unique(np.concatenate(self._refine(packed, grow=True)))
        return self

    def _refine(self, packed: PackedGraphs, grow: bool = False) -> list[np.ndarray]:
        """Label arrays over the union's nodes for depths 0..l.

        With ``grow``, each depth's signatures get fresh labels in rank
        order; all of them are new, because their own labels come from
        the previous depth's fresh range. Otherwise a signature absent
        from the table maps to ``UNKNOWN_LABEL``.
        """
        if self._next_label is None:
            raise ContractViolation("refinement not fitted")
        labels, adjacency = packed.node_labels, packed.adjacency
        degrees = np.diff(adjacency.indptr)
        owner = np.repeat(np.arange(len(labels)), degrees)
        slot = np.arange(len(owner)) - adjacency.indptr[owner] + 1
        keys = np.empty((len(labels), 1 + int(degrees.max(initial=0))), dtype=np.int64)
        out = [labels]
        for _ in range(self.depth):
            neighbor_labels = labels[adjacency.indices]
            keys.fill(_PAD)
            keys[:, 0] = labels
            keys[owner, slot] = neighbor_labels[np.lexsort((neighbor_labels, owner))]
            order = np.lexsort(keys.T[::-1])
            ranked = keys[order]
            first = np.diff(ranked, axis=0, prepend=_PAD).any(axis=1)  # no label equals _PAD
            signatures = [(row[0], tuple(row[1:1 + d])) for row, d in
                          zip(ranked[first].tolist(), degrees[order[first]].tolist())]
            if grow:
                fresh = range(self._next_label, self._next_label + len(signatures))
                self.label_table.update(zip(signatures, fresh))
                self._next_label += len(signatures)
            codes = np.array([self.label_table.get(s, UNKNOWN_LABEL) for s in signatures],
                             dtype=np.int64)
            labels = np.empty_like(labels)
            labels[order] = codes[np.cumsum(first) - 1]
            out.append(labels)
        return out

    def histograms(self, packed: PackedGraphs) -> sp.csr_matrix:
        """Per graph of ``packed``, label counts over depths 0..l; unseen labels count on UNK."""
        labels = np.concatenate(self._refine(packed))
        cols = np.searchsorted(self._vocab, labels)
        known = cols < len(self._vocab)
        known[known] = self._vocab[cols[known]] == labels[known]
        cols[~known] = self.unknown_column
        graph_of = np.repeat(np.arange(len(packed)), np.diff(packed.node_offsets))
        rows = np.tile(graph_of, self.depth + 1)
        return sp.csr_matrix((np.ones(len(cols)), (rows, cols)),
                             shape=(len(packed), self.vocab_size))

    def feature_row(self, g: Graph) -> sp.csr_matrix:
        """The graph's histogram over the frozen vocabulary, one sparse CSR row."""
        return self.histograms(pack([g]))


class GknHead(ad.Mlp):
    """Embedding plus classifier over sparse refinement-histogram rows.

    The embedding is assigned, and so drawn, before the classifier's two
    layers: parameter names and order are embedding, lin1, lin2.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, num_classes: int,
                 hidden_dim: int):
        self.embedding = ad.Linear(rng, vocab_size, hidden_dim)
        super().__init__(rng, hidden_dim, hidden_dim, num_classes)

    def forward(self, tape: ad.Tape, features, zeta=None):
        """Representation, probabilities, and logits for a feature batch.

        ``features`` is a (B, vocab) constant, dense or sparse; ``zeta``
        an optional (B, hidden) additive perturbation tensor applied to
        the embedding before the nonlinearity.
        """
        emb = self.embedding(tape, features)
        if zeta is not None:
            emb = ad.add(tape, emb, zeta)
        z = ad.relu(tape, emb)
        logits = self(tape, z)
        return z, ad.softmax(tape, logits), logits
