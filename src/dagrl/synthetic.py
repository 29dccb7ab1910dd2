"""Synthetic two-domain graph classification tasks.

Each graph carries a class-defining motif over nodes with a dedicated
label: a triangle for class 0, an open 3-path for class 1. The motif is
attached to an Erdos-Renyi background by a single bridge edge, so the
motif neighborhood barely changes when the background density shifts.
Domains differ in two ways: the background edge probability moves, and
the background node labels are strongly class-correlated in the source
domain but uninformative in the target domain. A model trained on the
source alone can ride the label shortcut; transferring to the target
requires the motif.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graphs import SOURCE, DomainDataset, Graph, subset_as_target

MOTIF_LABEL = 2
ALPHABET_SIZE = 3
NUM_CLASSES = 2


@dataclass(frozen=True)
class DomainSpec:
    """Knobs for one domain's generator."""
    edge_prob: float
    # Probability that a background node takes label 1, per class.
    background_label1_prob: tuple[float, float]


SOURCE_SPEC = DomainSpec(edge_prob=0.08, background_label1_prob=(0.05, 0.95))
TARGET_SPEC = DomainSpec(edge_prob=0.20, background_label1_prob=(0.5, 0.5))


def _motif_edges(label: int, offset: int) -> list[tuple[int, int]]:
    a, b, c = offset, offset + 1, offset + 2
    if label == 0:
        return [(a, b), (b, c), (a, c)]  # triangle
    return [(a, b), (b, c)]  # open path


def _stream(seed: int, salt: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def make_graph(rng: np.random.Generator, label: int, spec: DomainSpec) -> Graph:
    n_bg = int(rng.integers(8, 12 + 1))
    p1 = spec.background_label1_prob[label]
    bg_labels = [1 if rng.random() < p1 else 0 for _ in range(n_bg)]
    edges = []
    for i in range(n_bg):
        for j in range(i + 1, n_bg):
            if rng.random() < spec.edge_prob:
                edges.append((i, j))
    motif_offset = n_bg
    edges.extend(_motif_edges(label, motif_offset))
    # One bridge keeps the motif attached without flooding it with
    # density-dependent neighbors.
    edges.append((int(rng.integers(0, n_bg)), motif_offset))
    labels = tuple(bg_labels) + (MOTIF_LABEL,) * 3
    return Graph(node_count=n_bg + 3, edges=tuple(edges), node_labels=labels,
                 graph_label=label)


def make_domain(rng: np.random.Generator, spec: DomainSpec, graphs_per_class: int) -> DomainDataset:
    graphs = []
    for label in range(NUM_CLASSES):
        for _ in range(graphs_per_class):
            graphs.append(make_graph(rng, label, spec))
    order = rng.permutation(len(graphs))
    return DomainDataset(graphs=tuple(graphs[i] for i in order), domain=SOURCE,
                         num_classes=NUM_CLASSES, label_alphabet_size=ALPHABET_SIZE)


def make_shifted_pair(seed: int, graphs_per_class: int = 60):
    """A labeled ``SOURCE_SPEC`` dataset and a label-detached ``TARGET_SPEC`` one."""
    rng = _stream(seed, 0x51)
    source = make_domain(rng, SOURCE_SPEC, graphs_per_class)
    target_full = make_domain(rng, TARGET_SPEC, graphs_per_class)
    target = subset_as_target(target_full, range(len(target_full.graphs)))
    return source, target


def make_benchmark(seed: int, graphs_per_block: int = 40) -> DomainDataset:
    """One labeled dataset whose density split recovers four shifted blocks.

    Block k uses an increasing background edge probability and a
    class-correlation that fades with k, so density-quartile transfer
    tasks on the written files exhibit a real shift. Each block holds
    ``graphs_per_block // NUM_CLASSES`` graphs per class, so it must be
    at least ``NUM_CLASSES``.
    """
    if graphs_per_block < NUM_CLASSES:
        raise ConfigurationError(
            f"graphs_per_block must be at least {NUM_CLASSES} (one graph per class), "
            f"got {graphs_per_block}")
    rng = _stream(seed, 0x3E)
    specs = [
        DomainSpec(edge_prob=0.06, background_label1_prob=(0.05, 0.95)),
        DomainSpec(edge_prob=0.14, background_label1_prob=(0.2, 0.8)),
        DomainSpec(edge_prob=0.24, background_label1_prob=(0.35, 0.65)),
        DomainSpec(edge_prob=0.36, background_label1_prob=(0.5, 0.5)),
    ]
    graphs = []
    for spec in specs:
        for label in range(NUM_CLASSES):
            for _ in range(graphs_per_block // NUM_CLASSES):
                graphs.append(make_graph(rng, label, spec))
    order = rng.permutation(len(graphs))
    return DomainDataset(graphs=tuple(graphs[i] for i in order), domain=SOURCE,
                         num_classes=NUM_CLASSES, label_alphabet_size=ALPHABET_SIZE)
