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
graphs. A node's key row is its own label, its neighbor labels sorted by
one ``np.sort`` of ``node * radix + label``, then a pad below every label
(``UNKNOWN_LABEL`` included). The row is packed big-endian into as few
int64 words as the label radix allows, so ranking the rows by their words
(one ``np.argsort`` per word, the last word first) orders signatures
exactly as Python orders the tuples, and a run of equal signatures starts
where the words of neighboring ranked rows differ. Tied rows are equal
signatures, so the first sort need not be stable. Fresh labels follow
that order, so a fitted table does not depend on graph order. Fresh
labels start above the raw alphabet and signatures at different depths
can never collide, which keeps one flat histogram per graph exact.
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

    def fit(self, packed: PackedGraphs) -> sp.csr_matrix:
        """Build the table from one synchronized pass over all graphs of
        ``packed``, and return their histogram rows, as :meth:`histograms`
        would count them."""
        if not len(packed):
            raise ConfigurationError("cannot fit a refinement on zero graphs")
        self.label_table = {}
        alphabet, raw_columns = np.unique(packed.node_labels, return_inverse=True)
        fresh = self._next_label = int(alphabet[-1]) + 1 if len(alphabet) else 0
        levels = self._refine(packed, grow=True)
        # Every fresh label is some node's label, and all lie above the raw
        # alphabet: the vocabulary is the raw labels seen, then the fresh range.
        self._vocab = np.concatenate((alphabet, np.arange(fresh, self._next_label)))
        shift = len(alphabet) - fresh
        return self._rows(packed, np.concatenate([raw_columns] + [
            level + shift for level in levels[1:]]))

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
        nodes = len(labels)
        degrees = np.diff(adjacency.indptr)
        owner = np.repeat(np.arange(nodes), degrees)
        slot = np.arange(len(owner)) - adjacency.indptr[owner] + 1
        width = 1 + int(degrees.max(initial=0))
        out = [labels]
        for _ in range(self.depth):
            # Key values are label - _PAD: the pad is 0, UNK 1, a label above.
            # A parsed dataset's raw labels lie below its node count, and each
            # depth adds at most one fresh label per node, so labels stay below
            # (depth + 1) * n for the fitted union's n nodes. For unions under
            # 10**9 nodes at depth <= 8, node * radix + value then fits in 63
            # bits; wider inputs are refused.
            radix = int(labels.max(initial=0)) - _PAD + 1
            if nodes * radix >= 2 ** 63:
                raise ContractViolation(
                    f"{nodes} nodes with labels up to {radix + _PAD - 1} overflow the packed keys")
            bits = (radix - 1).bit_length()
            words = -(-width // (63 // bits))
            per_word = -(-width // words)
            values = np.zeros((words * per_word, nodes), dtype=np.int64)
            values[0] = labels - _PAD
            base = owner * radix
            values[slot, owner] = np.sort(base + labels[adjacency.indices] - _PAD) - base
            columns = values.reshape(words, per_word, nodes)
            keys = columns[:, 0] << bits * (per_word - 1)
            for i in range(1, per_word):
                keys |= columns[:, i] << bits * (per_word - 1 - i)
            order = np.argsort(keys[-1])
            for key in keys[-2::-1]:
                order = order[np.argsort(key[order], kind="stable")]
            ranked = keys[:, order]
            first = np.ones(nodes, dtype=bool)
            first[1:] = np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1])
            starts = order[first]
            signatures = [(row[0], tuple(row[1:1 + d])) for row, d in
                          zip((values[:, starts].T + _PAD).tolist(), degrees[starts].tolist())]
            rank = np.cumsum(first) - 1
            if grow:
                fresh = self._next_label
                self._next_label += len(signatures)
                self.label_table.update(zip(signatures, range(fresh, self._next_label)))
                codes = fresh + rank
            else:
                codes = np.array([self.label_table.get(s, UNKNOWN_LABEL) for s in signatures],
                                 dtype=np.int64)[rank]
            labels = np.empty_like(labels)
            labels[order] = codes
            out.append(labels)
        return out

    def histograms(self, packed: PackedGraphs) -> sp.csr_matrix:
        """Per graph of ``packed``, label counts over depths 0..l; unseen labels count on UNK."""
        labels = np.concatenate(self._refine(packed))
        cols = np.searchsorted(self._vocab, labels)
        known = cols < len(self._vocab)
        known[known] = self._vocab[cols[known]] == labels[known]
        cols[~known] = self.unknown_column
        return self._rows(packed, cols)

    def _rows(self, packed: PackedGraphs, cols: np.ndarray) -> sp.csr_matrix:
        """Canonical CSR counts of ``cols``, the vocabulary columns of depths 0..l's labels."""
        graph_of = np.repeat(np.arange(len(packed)), np.diff(packed.node_offsets))
        # Sorted (graph, column) keys are the CSR entries in row-major order.
        keys, counts = np.unique(np.tile(graph_of, self.depth + 1) * self.vocab_size + cols,
                                 return_counts=True)
        rows, columns = np.divmod(keys, self.vocab_size)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(packed)))))
        return sp.csr_matrix((counts.astype(np.float64), columns, indptr),
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
