"""Shared test utilities: graph builders, reference implementations and the
finite-difference oracle."""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from dagrl import autodiff as ad
from dagrl.adversarial import (
    discriminator_update,
    domain_accuracy,
    domain_loss,
    perturbation_step,
)
from dagrl.gin import GraphBatch
from dagrl.graphs import Graph, pack
from dagrl.trainer import Batch, source_loss


def path_graph(n: int, labels=None) -> Graph:
    edges = tuple((i, i + 1) for i in range(n - 1))
    labels = tuple(labels) if labels is not None else tuple(0 for _ in range(n))
    return Graph(node_count=n, edges=edges, node_labels=labels)


def complete_graph(n: int, labels=None) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    labels = tuple(labels) if labels is not None else tuple(0 for _ in range(n))
    return Graph(node_count=n, edges=edges, node_labels=labels)


def random_graph(rng: np.random.Generator, max_nodes: int = 6, num_labels: int = 3,
                 edge_prob: float = 0.4) -> Graph:
    n = int(rng.integers(1, max_nodes + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    labels = tuple(int(v) for v in rng.integers(0, num_labels, size=n))
    return Graph(node_count=n, edges=tuple(edges), node_labels=labels)


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel nodes by ``perm`` (new id of old node i is perm[i])."""
    perm = list(perm)
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
    labels = tuple(g.node_labels[inv[i]] for i in range(g.node_count))
    return Graph(node_count=g.node_count, edges=edges, node_labels=labels)


def unpack(packed) -> list[Graph]:
    """The records of ``packed``'s graphs, edges in sorted order: ``pack`` inverted."""
    graphs = []
    offsets = packed.node_offsets.tolist()
    for start, end in zip(offsets[:-1], offsets[1:]):
        block = sp.triu(packed.adjacency[start:end, start:end]).tocoo()
        graphs.append(Graph(node_count=end - start,
                            edges=tuple(zip(block.row.tolist(), block.col.tolist())),
                            node_labels=tuple(packed.node_labels[start:end].tolist())))
    return graphs


def assert_same_packed(a, b):
    """``a`` and ``b`` hold the same graphs: equal offsets, node labels and adjacency arrays."""
    for name in ("node_offsets", "node_labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.adjacency.shape == b.adjacency.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.adjacency, name), getattr(b.adjacency, name)), name


def edge_density(g: Graph) -> float:
    """Fraction of possible undirected edges present; 0.0 when |V| <= 1."""
    n = g.node_count
    return 0.0 if n <= 1 else 2.0 * len(g.edges) / (n * (n - 1))


def reference_split(graphs):
    """Oracle for ``split_by_density``, record by record: its groups and boundaries.

    Sorts by ``(edge_density, index)`` and deals four contiguous groups,
    the first ``len(graphs) % 4`` of them one graph larger.
    """
    densities = [edge_density(g) for g in graphs]
    order = sorted(range(len(graphs)), key=lambda i: (densities[i], i))
    base, rem = divmod(len(graphs), 4)
    groups, start = [], 0
    for k in range(4):
        size = base + (1 if k < rem else 0)
        groups.append(tuple(order[start:start + size]))
        start += size
    return tuple(groups), tuple(max(densities[i] for i in group) for group in groups[:3])


def one_graph_batch(encoder, g: Graph) -> GraphBatch:
    """The disjoint union of ``g`` alone, over ``encoder``'s input alphabet."""
    return GraphBatch(pack([g]), [0], encoder.layer0.lin1.weight.shape[0])


def encode_graph(encoder, tape, g: Graph, delta=None):
    """``encoder.encode_batch`` on a one-graph batch; ``delta`` perturbs its one-hot inputs."""
    return encoder.encode_batch(tape, one_graph_batch(encoder, g), delta)


class ReferenceRefinement:
    """Per-graph tuple refinement: the oracle for ``dagrl.wl.WlRefinement``.

    Each node's signature is the Python tuple ``(own label, sorted
    neighbor labels)``. Per depth, the signatures not yet in the table get
    fresh labels in ``sorted`` order; a signature outside the table maps
    to -1 (``UNKNOWN_LABEL``). Feature rows are built graph by graph and
    stacked.
    """

    def __init__(self, graphs, depth: int):
        self.depth = depth
        self.label_table: dict[tuple, int] = {}
        current = [list(g.node_labels) for g in graphs]
        observed = {v for labels in current for v in labels}
        next_label = max(observed) + 1 if observed else 0
        self.fitted_labels = [[labels] for labels in current]
        for _ in range(depth):
            signatures = [self._signatures(labels, g) for labels, g in zip(current, graphs)]
            fresh = sorted({s for per_graph in signatures for s in per_graph
                            if s not in self.label_table})
            for sig in fresh:
                self.label_table[sig] = next_label
                next_label += 1
            current = [[self.label_table[s] for s in per_graph] for per_graph in signatures]
            for per_depth, labels in zip(self.fitted_labels, current):
                per_depth.append(labels)
            observed.update(v for labels in current for v in labels)
        self.feature_index = {label: i for i, label in enumerate(sorted(observed))}

    @staticmethod
    def _signatures(labels, g: Graph) -> list[tuple]:
        neighbors: list[list[int]] = [[] for _ in range(g.node_count)]
        for u, v in g.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return [(labels[v], tuple(sorted(labels[u] for u in neighbors[v])))
                for v in range(g.node_count)]

    def node_labels(self, g: Graph) -> list[list[int]]:
        out = [list(g.node_labels)]
        for _ in range(self.depth):
            out.append([self.label_table.get(s, -1) for s in self._signatures(out[-1], g)])
        return out

    def feature_row(self, g: Graph) -> sp.csr_matrix:
        counts = Counter(v for labels in self.node_labels(g) for v in labels)
        unknown = len(self.feature_index)
        cols: dict[int, float] = {}
        for label, c in counts.items():
            col = self.feature_index.get(label, unknown)
            cols[col] = cols.get(col, 0.0) + c
        idx = sorted(cols)
        data = np.array([cols[i] for i in idx])
        return sp.csr_matrix((data, (np.zeros(len(idx), dtype=int), idx)),
                             shape=(1, unknown + 1))

    def feature_matrix(self, graphs) -> sp.csr_matrix:
        return sp.vstack([self.feature_row(g) for g in graphs], format="csr")


def histograms(refinement, graphs) -> sp.csr_matrix:
    """The refinement's histogram rows of ``graphs``, counted as training counts them."""
    return refinement._histograms(pack(graphs))


def kernel_gram(refinement, graphs, normalized: bool = False) -> np.ndarray:
    """Subtree-kernel values of every pair of ``graphs``: ``h @ h.T`` over their histogram rows.

    ``normalized`` divides entry (i, j) by the square roots of entries
    (i, i) and (j, j).
    """
    h = histograms(refinement, graphs)
    gram = np.asarray((h @ h.T).todense(), dtype=np.float64)
    if not normalized:
        return gram
    diag = np.sqrt(np.diag(gram))
    assert np.all(diag > 0), "a graph with zero self-similarity cannot be normalized"
    return gram / np.outer(diag, diag)


def brute_force_kernel(oracle: ReferenceRefinement, g1: Graph, g2: Graph) -> int:
    """Subtree-kernel value as a double sum over node pairs at every depth.

    The labels come from the oracle, not from the code under test.
    """
    return sum(int(a == b) for l1, l2 in zip(oracle.node_labels(g1), oracle.node_labels(g2))
               for a in l1 for b in l2)


def _stored(state, b, src):
    """Branch ``b``'s stored perturbations of the batch, read from the store as one constant."""
    rows = state.store.gather(b, src.indices)
    return None if rows is None else ad.constant(rows)


def _phase_discriminators(state, src, tgt):
    """Branches are frozen: each backward reaches one discriminator only."""
    values = []
    with ad.frozen(state.branch_params()):
        for b, (branch, disc, opt) in enumerate(
                zip(state.branches, state.discriminators, state.disc_opts)):
            tape = ad.Tape()
            z_s, p_s, _ = branch.forward(tape, src, _stored(state, b, src))
            z_t, p_t, _ = branch.forward(tape, tgt)
            loss = domain_loss(tape, disc, z_s, p_s, z_t, p_t)
            discriminator_update(tape, loss, opt)
            opt.zero_grad()
            values.append(loss.item())
    return values


def _phase_perturbations(state, src):
    """Branches and discriminators are frozen: only the batch leaf gets a gradient."""
    with ad.frozen(state.branch_params() + state.discriminator_params()):
        for b, (branch, disc) in enumerate(zip(state.branches, state.discriminators)):
            if state.store.rows[b] is None:
                continue
            leaf = ad.parameter(state.store.gather(b, src.indices))
            tape = ad.Tape()
            z_s, p_s, _ = branch.forward(tape, src, leaf)
            logit = disc.logits(tape, z_s, p_s)
            tape.backward(ad.sum_rows(tape, ad.log_sigmoid(tape, logit)))
            grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            perturbation_step(state.store, b, src.indices, grad)


def _phase_model(state, src, labels, tgt):
    """Discriminators are frozen: the backward reaches the branches only."""
    cfg = state.config
    with ad.frozen(state.discriminator_params()):
        tape = ad.Tape()
        outputs = [branch.forward(tape, src, _stored(state, b, src))
                   for b, branch in enumerate(state.branches)]
        l_s = source_loss(tape, outputs, labels)
        total = l_s
        lambdas = (cfg.lambda1, cfg.lambda2)
        da_values = [None, None]
        for b, (branch, disc) in enumerate(zip(state.branches, state.discriminators)):
            if lambdas[b] == 0.0:
                continue
            z_t, p_t, _ = branch.forward(tape, tgt)
            da = domain_loss(tape, disc, *outputs[b][:2], z_t, p_t)
            da_values[b] = da.item()
            total = ad.add(tape, total, ad.scale(tape, da, -lambdas[b]))
        tape.backward(total)
    state.model_opt.step()
    state.model_opt.zero_grad()
    return l_s.item(), total.item(), da_values


def reference_train_step(state, src, labels, tgt):
    """Oracle for ``dagrl.trainer._train_step``: three phases, each with its own forwards.

    Discriminators, then perturbations, then the model; every phase runs
    its branch forwards afresh, ten per step on two adversarial branches.
    Returns ``(L_S, L_DA_C, L_DA_K, L)``.
    """
    da_phase1 = _phase_discriminators(state, src, tgt) or [0.0, 0.0]
    _phase_perturbations(state, src)
    l_s, total, da_phase3 = _phase_model(state, src, labels, tgt)
    da = [p3 if p3 is not None else p1 for p3, p1 in zip(da_phase3, da_phase1)]
    return l_s, da[0], da[1], total


def discriminator_domain_accuracy(state, b: int) -> float:
    """Domain accuracy of branch ``b``'s discriminator over the state's whole pair.

    Source graphs enter with their trained perturbations, as the
    discriminator saw them in training. Nothing is recorded: the branch
    and the discriminator are frozen and the perturbations are constants.
    """
    branch, disc = state.branches[b], state.discriminators[b]
    src = Batch(state, state.source, range(len(state.source)))
    tgt = Batch(state, state.target, range(len(state.target)))
    with ad.frozen(branch.params() + disc.params()):
        tape = ad.Tape()
        z_s, p_s, _ = branch.forward(tape, src, _stored(state, b, src))
        z_t, p_t, _ = branch.forward(tape, tgt)
        return domain_accuracy(disc.logits(tape, z_s, p_s).data, disc.logits(tape, z_t, p_t).data)


def finite_difference(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       abs_floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def dataset_root() -> Path | None:
    """Directory holding benchmark datasets, if one is configured."""
    env = os.environ.get("DAGRL_DATA_ROOT")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parents[1] / "data")
    for c in candidates:
        if c.is_dir():
            return c
    return None


def have_dataset(name: str) -> bool:
    root = dataset_root()
    return root is not None and (root / name / f"{name}_A.txt").is_file()
