"""Shared test utilities: graph builders and the finite-difference oracle."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from dagrl.gin import GraphBatch
from dagrl.graphs import Graph, PackedGraphs


def path_graph(n: int, labels=None) -> Graph:
    edges = tuple((i, i + 1) for i in range(n - 1))
    labels = tuple(labels) if labels is not None else tuple(0 for _ in range(n))
    return Graph(node_count=n, edges=edges, node_labels=labels, graph_label=0)


def complete_graph(n: int, labels=None) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    labels = tuple(labels) if labels is not None else tuple(0 for _ in range(n))
    return Graph(node_count=n, edges=edges, node_labels=labels, graph_label=0)


def random_graph(rng: np.random.Generator, max_nodes: int = 6, num_labels: int = 3,
                 edge_prob: float = 0.4, label: int = 0) -> Graph:
    n = int(rng.integers(1, max_nodes + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    labels = tuple(int(v) for v in rng.integers(0, num_labels, size=n))
    return Graph(node_count=n, edges=tuple(edges), node_labels=labels, graph_label=label)


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel nodes by ``perm`` (new id of old node i is perm[i])."""
    perm = list(perm)
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
    labels = tuple(g.node_labels[inv[i]] for i in range(g.node_count))
    return Graph(node_count=g.node_count, edges=edges, node_labels=labels,
                 graph_label=g.graph_label)


def encode_graph(encoder, tape, g: Graph, delta=None):
    """``encoder.encode_batch`` on a one-graph batch; ``delta`` perturbs its one-hot inputs."""
    batch = GraphBatch(PackedGraphs([g]), [0], encoder.input_dim)
    return encoder.encode_batch(tape, batch, delta)


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
