"""Graph data model, benchmark-format parsing, and edge-density splitting.

Datasets arrive in the common graph-benchmark text layout (one ``_A.txt``
edge file, a ``_graph_indicator.txt`` node-to-graph map, plus graph and
node label files). Parsing produces immutable :class:`Graph` records with
0-indexed contiguous node ids; directed duplicate edges in the files are
merged into single undirected edges. A graph's class sits on its dataset,
in ``graph_labels``, aligned by graph index as in ``_graph_labels.txt``.

A dataset packs its graphs into flat arrays once, at first use
(:class:`PackedGraphs`); batches are then gathered from those arrays by
index instead of being rebuilt graph by graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ContractViolation, DatasetFormatError, IngestionError
from .fileio import atomic_write, output_dir

SOURCE = "source"
TARGET = "target"


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph with categorical node labels.

    ``edges`` holds each undirected edge once as an ``(u, v)`` pair of
    0-indexed node ids. Node labels are nonnegative.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_labels: tuple[int, ...]

    def __post_init__(self):
        if self.node_count < 0:
            raise ContractViolation(f"negative node_count {self.node_count}")
        if len(self.node_labels) != self.node_count:
            raise ContractViolation(
                f"node_labels length {len(self.node_labels)} != node_count {self.node_count}"
            )
        if min(self.node_labels, default=0) < 0:
            node = next(i for i, label in enumerate(self.node_labels) if label < 0)
            raise ContractViolation(f"negative label {self.node_labels[node]} at node {node}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ContractViolation(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ContractViolation(f"edge ({u}, {v}) outside node range [0, {self.node_count})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ContractViolation(f"duplicate undirected edge ({u}, {v})")
            seen.add(key)


class PackedGraphs:
    """A sequence of graphs as one disjoint union, stored as flat arrays.

    Graph ``i`` owns the union's nodes ``node_offsets[i]:node_offsets[i + 1]``.
    ``node_labels`` concatenates the graphs' node labels, and ``adjacency``
    is the symmetric 0/1 block-diagonal adjacency of the union in CSR form
    with sorted column indices. A node id or node label that is not a whole
    number raises ``ContractViolation`` here.
    """

    def __init__(self, graphs):
        self.graphs = tuple(graphs)
        counts = np.fromiter((g.node_count for g in self.graphs), dtype=np.int64,
                             count=len(self.graphs))
        self.node_offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(self.node_offsets[-1])
        self.node_labels = _whole_numbers(
            (label for g in self.graphs for label in g.node_labels), total, "node label")
        edge_counts = [len(g.edges) for g in self.graphs]
        ends = _whole_numbers((v for g in self.graphs for edge in g.edges for v in edge),
                              2 * sum(edge_counts), "node id").reshape(-1, 2)
        ends += np.repeat(self.node_offsets[:-1], edge_counts)[:, None]
        rows = np.concatenate((ends[:, 0], ends[:, 1]))
        cols = np.concatenate((ends[:, 1], ends[:, 0]))
        self.adjacency = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(total, total))
        self.adjacency.sort_indices()

    @classmethod
    def join(cls, parts) -> PackedGraphs:
        """The union of packed ``parts``, in order, built from their arrays.

        Equal to packing all of their graphs at once, without the pass
        over the graphs.
        """
        joined = cls.__new__(cls)
        joined.graphs = tuple(g for part in parts for g in part.graphs)
        shifts = np.cumsum([0] + [part.node_offsets[-1] for part in parts])
        joined.node_offsets = np.concatenate(
            [[0]] + [part.node_offsets[1:] + shift for part, shift in zip(parts, shifts)])
        joined.node_labels = np.concatenate([part.node_labels for part in parts])
        joined.adjacency = sp.block_diag([part.adjacency for part in parts], format="csr")
        return joined


def _whole_numbers(values, count: int, what: str) -> np.ndarray:
    """``values`` as int64; one that is not a whole number raises ``ContractViolation``."""
    exact = np.fromiter(values, dtype=np.float64, count=count)
    with np.errstate(invalid="ignore"):  # NaN and infinities fail the comparison below
        whole = exact.astype(np.int64)
    if (whole != exact).any():
        raise ContractViolation(f"{what} {exact[whole != exact][0]} is not an integer")
    return whole


def gather_rows(offsets: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray]:
    """The rows of segments ``indices``, in order, and their offsets among them.

    Segment ``i`` owns rows ``offsets[i]:offsets[i + 1]``; an index outside
    ``[0, len(offsets) - 1)`` raises ``ContractViolation``. Returns
    ``row_index``, the picked segments' row numbers concatenated, and
    ``local_offsets``: picked segment ``k`` is
    ``row_index[local_offsets[k]:local_offsets[k + 1]]``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    outside = (idx < 0) | (idx >= len(offsets) - 1)
    if outside.any():
        raise ContractViolation(f"index {idx[outside][0]} outside [0, {len(offsets) - 1})")
    starts = offsets[idx]
    counts = offsets[idx + 1] - starts
    local_offsets = np.concatenate(([0], np.cumsum(counts)))
    row_index = np.arange(local_offsets[-1]) + np.repeat(starts - local_offsets[:-1], counts)
    return row_index, local_offsets


@dataclass(frozen=True)
class DomainDataset:
    """An ordered collection of graphs tagged as one adaptation domain.

    Entry ``i`` of ``graph_labels`` is graph ``i``'s class, in
    ``[0, num_classes)``. A source dataset must have ``graph_labels``; a
    target dataset must not, so its classes cannot reach training. A
    target may keep them aside in ``eval_labels``, which only evaluation
    and the writer read. Node labels are checked against the alphabet at
    packing.
    """

    graphs: tuple[Graph, ...]
    domain: str
    num_classes: int
    label_alphabet_size: int
    graph_labels: tuple[int, ...] | None = None
    eval_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.domain not in (SOURCE, TARGET):
            raise ContractViolation(f"domain must be {SOURCE!r} or {TARGET!r}, got {self.domain!r}")
        if self.domain == SOURCE and (self.graph_labels is None or self.eval_labels is not None):
            raise ContractViolation("a source dataset needs graph_labels and takes no eval_labels")
        if self.domain == TARGET and self.graph_labels is not None:
            raise ContractViolation("a target dataset takes no graph_labels, only eval_labels")
        for name, labels in (("graph_labels", self.graph_labels), ("eval_labels", self.eval_labels)):
            if labels is not None and len(labels) != len(self):
                raise ContractViolation(f"{name} has {len(labels)} entries for {len(self)} graphs")
            for i, label in enumerate(labels or ()):
                if label not in range(self.num_classes):
                    raise ContractViolation(
                        f"{name}[{i}] is {label}, outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.graphs)

    @cached_property
    def packed(self) -> PackedGraphs:
        """The graphs packed once, at first use; GIN batches and WL rows are built from it."""
        packed = PackedGraphs(self.graphs)
        top = packed.node_labels.max(initial=-1)
        if top >= self.label_alphabet_size:
            raise ContractViolation(
                f"node label {top} outside alphabet of size {self.label_alphabet_size}")
        return packed


@dataclass(frozen=True)
class DensityPartition:
    """Four disjoint index groups covering a dataset, ordered by density."""

    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    boundaries: tuple[float, float, float]


def edge_density(g: Graph) -> float:
    """Fraction of possible undirected edges present; 0.0 when |V| <= 1."""
    n = g.node_count
    if n <= 1:
        return 0.0
    return 2.0 * len(g.edges) / (n * (n - 1))


def split_by_density(ds: DomainDataset) -> DensityPartition:
    """Split a dataset into four density quartiles.

    Graphs are sorted by ``(edge_density, original index)`` ascending and
    chunked into four contiguous groups whose sizes differ by at most one;
    group 0 holds the sparsest graphs. The split is deterministic.
    """
    n = len(ds.graphs)
    if n < 4:
        raise ConfigurationError(f"need at least 4 graphs to build a density partition, got {n}")
    densities = [edge_density(g) for g in ds.graphs]
    order = sorted(range(n), key=lambda i: (densities[i], i))
    base, rem = divmod(n, 4)
    groups: list[tuple[int, ...]] = []
    start = 0
    for k in range(4):
        size = base + (1 if k < rem else 0)
        groups.append(tuple(order[start:start + size]))
        start += size
    boundaries = tuple(max(densities[i] for i in grp) for grp in groups[:3])
    return DensityPartition(groups=(groups[0], groups[1], groups[2], groups[3]),
                            boundaries=boundaries)  # type: ignore[arg-type]


def _pick(ds: DomainDataset, indices) -> tuple[tuple[Graph, ...], tuple[int, ...]]:
    """Graphs ``indices`` of ``ds``, shared with it, and their classes."""
    if ds.graph_labels is None:
        raise ConfigurationError(f"a {ds.domain} dataset holds no graph_labels to subset")
    return tuple(ds.graphs[i] for i in indices), tuple(ds.graph_labels[i] for i in indices)


def subset_as_source(ds: DomainDataset, indices) -> DomainDataset:
    """Build a labeled source-domain dataset from a subset of ``ds``."""
    graphs, labels = _pick(ds, indices)
    return DomainDataset(graphs=graphs, domain=SOURCE, num_classes=ds.num_classes,
                         label_alphabet_size=ds.label_alphabet_size, graph_labels=labels)


def subset_as_target(ds: DomainDataset, indices) -> DomainDataset:
    """Build a target-domain dataset from a subset of ``ds``.

    The classes go to ``eval_labels``, and the target holds no
    ``graph_labels``, so they can never reach training code.
    """
    graphs, labels = _pick(ds, indices)
    return DomainDataset(graphs=graphs, domain=TARGET, num_classes=ds.num_classes,
                         label_alphabet_size=ds.label_alphabet_size, eval_labels=labels)


def _dataset_files(root_path, dataset_name: str) -> dict[str, Path]:
    base = Path(root_path) / dataset_name
    return {
        "A": base / f"{dataset_name}_A.txt",
        "graph_indicator": base / f"{dataset_name}_graph_indicator.txt",
        "graph_labels": base / f"{dataset_name}_graph_labels.txt",
        "node_labels": base / f"{dataset_name}_node_labels.txt",
    }


def _open_text(path: Path):
    # Undecodable bytes become lone surrogates, which int() rejects, so they
    # fail as a malformed line with its number.
    return path.open("r", encoding="utf-8", errors="surrogateescape", newline=None)


def _read_int_lines(path: Path) -> list[int]:
    values = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(int(text))
            except ValueError:
                raise DatasetFormatError(f"{path.name}: expected an integer, got {text!r}", lineno)
    return values


def parse_tudataset(root_path, dataset_name: str) -> DomainDataset:
    """Parse a benchmark-format dataset directory into a DomainDataset.

    Expects ``<root>/<name>/<name>_A.txt`` and its sibling indicator and
    label files, with 1-indexed node ids and comma-separated edge pairs.
    Node ids are renumbered per graph starting at 0; the two directed
    copies of each undirected edge are merged. Graph labels are remapped
    onto ``[0, C)`` and node labels onto ``[0, d)``, both preserving the
    sorted order of the raw values.
    """
    files = _dataset_files(root_path, dataset_name)
    for name, path in files.items():
        if not path.is_file():
            raise IngestionError(f"missing dataset file: {path}")

    indicator = _read_int_lines(files["graph_indicator"])
    if not indicator:
        raise DatasetFormatError(f"{files['graph_indicator'].name}: no nodes listed")
    raw_node_labels = _read_int_lines(files["node_labels"])
    if len(raw_node_labels) != len(indicator):
        raise DatasetFormatError(
            f"{files['node_labels'].name}: {len(raw_node_labels)} node labels for "
            f"{len(indicator)} indicator entries"
        )
    raw_graph_labels = _read_int_lines(files["graph_labels"])
    num_graphs = max(indicator)
    if len(raw_graph_labels) != num_graphs:
        raise DatasetFormatError(
            f"{files['graph_labels'].name}: {len(raw_graph_labels)} labels for {num_graphs} graphs"
        )

    # Global 1-indexed node id -> (graph index, local 0-indexed id).
    graph_of: list[int] = []
    local_of: list[int] = []
    counts = [0] * num_graphs
    for gid in indicator:
        if not (1 <= gid <= num_graphs):
            raise DatasetFormatError(f"graph indicator {gid} out of range")
        g = gid - 1
        graph_of.append(g)
        local_of.append(counts[g])
        counts[g] += 1

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    with _open_text(files["A"]) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise DatasetFormatError(f"{files['A'].name}: expected 'u, v', got {text!r}", lineno)
            try:
                u, v = int(parts[0].strip()), int(parts[1].strip())
            except ValueError:
                raise DatasetFormatError(f"{files['A'].name}: non-integer endpoint in {text!r}", lineno)
            if not (1 <= u <= len(indicator)) or not (1 <= v <= len(indicator)):
                raise DatasetFormatError(
                    f"{files['A'].name}: edge ({u}, {v}) references a node outside 1..{len(indicator)}",
                    lineno,
                )
            if graph_of[u - 1] != graph_of[v - 1]:
                raise DatasetFormatError(
                    f"{files['A'].name}: edge ({u}, {v}) crosses graphs "
                    f"{graph_of[u - 1] + 1} and {graph_of[v - 1] + 1}",
                    lineno,
                )
            if u == v:
                raise DatasetFormatError(f"{files['A'].name}: self-loop at node {u}", lineno)
            g = graph_of[u - 1]
            a, b = local_of[u - 1], local_of[v - 1]
            edge_sets[g].add((a, b) if a < b else (b, a))

    graph_label_map = {raw: i for i, raw in enumerate(sorted(set(raw_graph_labels)))}
    node_label_map = {raw: i for i, raw in enumerate(sorted(set(raw_node_labels)))}

    node_labels_per_graph: list[list[int]] = [[] for _ in range(num_graphs)]
    for raw_label, g in zip(raw_node_labels, graph_of):
        node_labels_per_graph[g].append(node_label_map[raw_label])

    graphs = tuple(
        Graph(
            node_count=counts[g],
            edges=tuple(sorted(edge_sets[g])),
            node_labels=tuple(node_labels_per_graph[g]),
        )
        for g in range(num_graphs)
    )
    return DomainDataset(
        graphs=graphs,
        domain=SOURCE,
        num_classes=len(graph_label_map),
        label_alphabet_size=len(node_label_map),
        graph_labels=tuple(graph_label_map[raw] for raw in raw_graph_labels),
    )


def write_tudataset(ds: DomainDataset, root_path, dataset_name: str) -> Path:
    """Serialize a dataset back to the benchmark text layout.

    Each undirected edge is written in both directions, matching the way
    published benchmark files list edges. The classes written are a
    source's ``graph_labels`` or a target's ``eval_labels``, which a
    target must then have. Parsing renumbers node labels and classes
    densely, so re-parsing gives back ``ds``, as a source dataset, only
    when every node label in ``[0, label_alphabet_size)`` and every class
    in ``[0, num_classes)`` occurs. The layout counts graphs up to the
    last node's graph, so an empty last graph is rejected. Every graph is
    checked before any file is opened, and each file is written
    atomically, so a failed or killed writer leaves no partial file;
    ``_A.txt`` is written last.
    """
    if not ds.graphs:
        raise ConfigurationError("no graphs to serialize")
    if ds.graphs[-1].node_count == 0:
        raise ConfigurationError(
            f"graph {len(ds.graphs) - 1} has no nodes; the text layout cannot hold an empty "
            "last graph")
    labels = ds.graph_labels if ds.domain == SOURCE else ds.eval_labels
    if labels is None:
        raise ConfigurationError("a target dataset without eval_labels has no classes to serialize")

    packed = ds.packed
    base = output_dir(Path(root_path) / dataset_name)
    files = _dataset_files(root_path, dataset_name)
    sizes = np.diff(packed.node_offsets)

    with atomic_write(files["graph_indicator"]) as fh:
        for gid in np.repeat(np.arange(1, len(sizes) + 1), sizes).tolist():
            fh.write(f"{gid}\n")
    with atomic_write(files["node_labels"]) as fh:
        for label in packed.node_labels.tolist():
            fh.write(f"{label}\n")
    with atomic_write(files["graph_labels"]) as fh:
        for label in labels:
            fh.write(f"{label}\n")
    # The union's adjacency in row-major order lists each graph's directed
    # edges in (u, v) order, graph after graph.
    edges = packed.adjacency.tocoo()
    with atomic_write(files["A"]) as fh:
        for u, v in zip((edges.row + 1).tolist(), (edges.col + 1).tolist()):
            fh.write(f"{u}, {v}\n")
    return base
