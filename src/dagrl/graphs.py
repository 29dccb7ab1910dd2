"""Graph data model, benchmark-format parsing, and edge-density splitting.

A dataset holds its graphs in one store, :class:`PackedGraphs`: node
offsets, one node-label vector and the symmetric CSR adjacency of their
disjoint union. The parser builds it straight from the common
graph-benchmark text layout (an ``_A.txt`` edge file, a
``_graph_indicator.txt`` node-to-graph map, graph and node label files).
A :class:`Graph` record is an input form only, which :func:`pack` turns
into a store. Subsets and batches are index gathers from a store
(:meth:`PackedGraphs.take`). A graph's class sits on its dataset, in
``graph_labels``, aligned by graph index as in ``_graph_labels.txt``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ContractViolation, DatasetFormatError, IngestionError
from .fileio import atomic_write, output_dir, plain_number


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph with categorical node labels, as input to :func:`pack`.

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


@dataclass(frozen=True, eq=False)
class PackedGraphs:
    """A sequence of graphs as one disjoint union, stored as flat arrays.

    Graph ``i`` owns the union's nodes ``node_offsets[i]:node_offsets[i + 1]``.
    ``node_labels`` concatenates the graphs' node labels, and ``adjacency``
    is the symmetric 0/1 block-diagonal adjacency of the union in CSR form
    with sorted column indices. :func:`pack`, :func:`parse_tudataset`,
    :meth:`take` and :meth:`join` build one.
    """

    node_offsets: np.ndarray
    node_labels: np.ndarray
    adjacency: sp.csr_matrix

    def __len__(self) -> int:
        return len(self.node_offsets) - 1

    def take(self, indices) -> PackedGraphs:
        """Graphs ``indices``, in order and repeats allowed, as a new union.

        Every array is an index gather; an adjacency row keeps its sorted
        columns, shifted to the new node ids. An index outside
        ``[0, len(self))`` raises ``ContractViolation``.
        """
        nodes, offsets = gather_rows(self.node_offsets, indices)
        total = len(nodes)
        # New node k is packed node nodes[k]; columns move back by the shift.
        shift = nodes - np.arange(total)
        positions, indptr = gather_rows(self.adjacency.indptr, nodes)
        cols = self.adjacency.indices[positions] - np.repeat(shift, np.diff(indptr))
        adjacency = sp.csr_matrix((np.ones(len(positions)), cols, indptr), shape=(total, total))
        return PackedGraphs(offsets, self.node_labels[nodes], adjacency)

    @classmethod
    def join(cls, parts) -> PackedGraphs:
        """The union of ``parts``, in order: equal to packing all of their graphs at once."""
        shifts = np.cumsum([0] + [part.node_offsets[-1] for part in parts])
        offsets = np.concatenate(
            [[0]] + [part.node_offsets[1:] + shift for part, shift in zip(parts, shifts)])
        return cls(offsets, np.concatenate([part.node_labels for part in parts]),
                   sp.block_diag([part.adjacency for part in parts], format="csr"))


def pack(graphs) -> PackedGraphs:
    """The :class:`Graph` records ``graphs``, in order, as one union; a node
    id or node label that is not a whole number in int64 raises ``ContractViolation``."""
    graphs = tuple(graphs)
    counts = np.fromiter((g.node_count for g in graphs), dtype=np.int64, count=len(graphs))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    labels = _whole_numbers([label for g in graphs for label in g.node_labels], "node label")
    edge_counts = [len(g.edges) for g in graphs]
    ends = _whole_numbers([v for g in graphs for edge in g.edges for v in edge],
                          "node id").reshape(-1, 2)
    ends += np.repeat(offsets[:-1], edge_counts)[:, None]
    return PackedGraphs(offsets, labels, _adjacency(ends[:, 0], ends[:, 1], total))


def _adjacency(u: np.ndarray, v: np.ndarray, total: int) -> sp.csr_matrix:
    """The symmetric 0/1 CSR adjacency of undirected edges ``(u[i], v[i])``, columns sorted.

    An edge listed more than once, in either direction, is one edge.
    """
    # Sorted row * total + column keys are the CSR entries in row-major
    # order. np.unique without a return flag hashes in numpy 2.4 and takes
    # ten times as long as this sort.
    keys = np.sort(np.concatenate((u * total + v, v * total + u)))
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], total)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=total))))
    return sp.csr_matrix((np.ones(len(rows)), cols, indptr), shape=(total, total))


def _whole_numbers(values: list, what: str) -> np.ndarray:
    """``values`` as int64, read exactly; one that is not a whole number,
    or lies outside int64, raises ``ContractViolation``."""
    try:
        floats = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float64: each value is read below
        floats = np.full(len(values), np.inf)
    with np.errstate(invalid="ignore"):  # NaN and infinities are read below
        whole = floats.astype(np.int64)
    # float64 holds every whole number of magnitude below 2**53 exactly;
    # any other value is read again on its own.
    for i in np.flatnonzero(~(np.abs(floats) < 2.0 ** 53) | (whole != floats)).tolist():
        value = values[i]
        try:
            exact = int(value)
        except (TypeError, ValueError, OverflowError):
            exact = None
        if exact is None or exact != value:
            raise ContractViolation(f"{what} {value} is not an integer")
        if not -2 ** 63 <= exact < 2 ** 63:
            raise ContractViolation(f"{what} {value} is outside int64")
        whole[i] = exact
    return whole


def gather_rows(offsets: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray]:
    """The rows of segments ``indices``, in order, and their offsets among them.

    Segment ``i`` owns rows ``offsets[i]:offsets[i + 1]``; an index outside
    ``[0, len(offsets) - 1)``, or indices that are not integers (a float,
    a string or a boolean mask), raise ``ContractViolation``. Returns
    ``row_index``, the picked segments' row numbers concatenated, and
    ``local_offsets``: picked segment ``k`` is
    ``row_index[local_offsets[k]:local_offsets[k + 1]]``.
    """
    idx = np.asarray(indices)
    # numpy reads an empty list or range as float64.
    if idx.dtype.kind not in "iu" and idx.size:
        raise ContractViolation(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    outside = (idx < 0) | (idx >= len(offsets) - 1)
    if outside.any():
        raise ContractViolation(f"index {idx[outside][0]} outside [0, {len(offsets) - 1})")
    starts = offsets[idx]
    counts = offsets[idx + 1] - starts
    local_offsets = np.concatenate(([0], np.cumsum(counts)))
    row_index = np.arange(local_offsets[-1]) + np.repeat(starts - local_offsets[:-1], counts)
    return row_index, local_offsets


@dataclass(frozen=True, eq=False)
class DomainDataset:
    """An ordered collection of graphs from one adaptation domain.

    ``graphs`` packs every graph; a node label must lie in
    ``[0, label_alphabet_size)``. Entry ``i`` of ``graph_labels`` is graph
    ``i``'s class, in ``[0, num_classes)``: training reads them from a
    source. A target holds none, so its classes cannot reach training; it
    may keep them aside in ``eval_labels``, which only evaluation and the
    writer read. A dataset with ``graph_labels`` takes no ``eval_labels``.
    """

    graphs: PackedGraphs
    num_classes: int
    label_alphabet_size: int
    graph_labels: tuple[int, ...] | None = None
    eval_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.graph_labels is not None and self.eval_labels is not None:
            raise ContractViolation("a dataset with graph_labels takes no eval_labels")
        for name, labels in (("graph_labels", self.graph_labels), ("eval_labels", self.eval_labels)):
            if labels is None:
                continue
            if len(labels) != len(self):
                raise ContractViolation(f"{name} has {len(labels)} entries for {len(self)} graphs")
            # A bool or a float class would be written as "True" or "1.0".
            integers = {kind for kind in set(map(type, labels))
                        if issubclass(kind, numbers.Integral) and kind is not bool}
            for i, label in enumerate(labels):
                if type(label) not in integers:
                    raise ContractViolation(f"{name}[{i}] is {label!r}, not an integer")
                if label not in range(self.num_classes):
                    raise ContractViolation(
                        f"{name}[{i}] is {label}, outside [0, {self.num_classes})")
        top = self.graphs.node_labels.max(initial=-1)
        if top >= self.label_alphabet_size:
            raise ContractViolation(
                f"node label {top} outside alphabet of size {self.label_alphabet_size}")

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class DensityPartition:
    """Four disjoint index groups covering a dataset, ordered by density."""

    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    boundaries: tuple[float, float, float]


def split_by_density(ds: DomainDataset) -> DensityPartition:
    """Split a dataset into four density quartiles.

    A graph's edge density is the fraction of its possible undirected
    edges present, 0.0 when it has at most one node. Graphs are sorted by
    ``(edge_density, original index)`` ascending and chunked into four
    contiguous groups whose sizes differ by at most one; group 0 holds
    the sparsest graphs. The split is deterministic.
    """
    n = len(ds)
    if n < 4:
        raise ConfigurationError(f"need at least 4 graphs to build a density partition, got {n}")
    offsets = ds.graphs.node_offsets
    nodes = np.diff(offsets)
    # Each undirected edge is two adjacency entries of its graph's rows.
    edges = np.diff(ds.graphs.adjacency.indptr[offsets]) // 2
    pairs = nodes * (nodes - 1)
    densities = np.divide(2.0 * edges, pairs, out=np.zeros(n), where=pairs > 0)
    order = np.argsort(densities, kind="stable")
    groups = np.split(order, np.cumsum([n // 4 + (k < n % 4) for k in range(3)]))
    return DensityPartition(groups=tuple(tuple(g.tolist()) for g in groups),
                            boundaries=tuple(float(densities[g].max()) for g in groups[:3]))


def _pick(ds: DomainDataset, indices) -> tuple[PackedGraphs, tuple[int, ...]]:
    """Graphs ``indices`` of ``ds`` and their classes; each index once."""
    if ds.graph_labels is None:
        raise ConfigurationError("a target dataset holds no graph_labels to subset")
    graphs = ds.graphs.take(indices)  # type- and range-checked
    idx = np.asarray(indices, dtype=np.int64)
    repeated = np.flatnonzero(np.bincount(idx) > 1)
    if len(repeated):
        raise ContractViolation(f"index {repeated[0]} repeated")
    return graphs, tuple(ds.graph_labels[i] for i in idx.tolist())


def subset_as_source(ds: DomainDataset, indices) -> DomainDataset:
    """Build a labeled source-domain dataset from a subset of ``ds``."""
    graphs, labels = _pick(ds, indices)
    return replace(ds, graphs=graphs, graph_labels=labels)


def subset_as_target(ds: DomainDataset, indices) -> DomainDataset:
    """Build a target-domain dataset from a subset of ``ds``.

    The classes go to ``eval_labels``, and the target holds no
    ``graph_labels``, so they can never reach training code.
    """
    graphs, labels = _pick(ds, indices)
    return replace(ds, graphs=graphs, graph_labels=None, eval_labels=labels)


def _dataset_files(root_path, dataset_name: str) -> dict[str, Path]:
    base = Path(root_path) / dataset_name
    return {
        "A": base / f"{dataset_name}_A.txt",
        "graph_indicator": base / f"{dataset_name}_graph_indicator.txt",
        "graph_labels": base / f"{dataset_name}_graph_labels.txt",
        "node_labels": base / f"{dataset_name}_node_labels.txt",
    }


# The bytes a file read in one numpy call may hold. "." and "e" are not
# among them: numpy before 2.0 reads "1.0" and "1e3" as integers.
_PLAIN = b"0123456789+-, \n"


def _read_ints(path: Path, pairs: bool = False):
    """Each nonblank line's integer, or with ``pairs`` its ``u, v`` row, and the line numbers.

    Reading stops at a malformed line, whose ``DatasetFormatError`` comes
    back third (``None`` if there is none) for :func:`_raise_first`. The
    values are int64, or exact Python ints if one needs more bits.

    A plain file, nonblank and holding only ASCII digits, ``+``, ``-``,
    commas, spaces and newlines, is read in one ``np.loadtxt`` call. The
    read stands only when it has one row of one integer (two with
    ``pairs``) per line up to the last nonblank one: then no line was
    blank or malformed, and the lines are numbered from 1. Every other
    file, and a plain file whose read has another shape or that numpy
    refuses (a value beyond int64 included), goes to :func:`_read_lines`,
    which alone defines what a line may hold and builds each error naming
    a line. This relies on numpy's integer reader refusing every plain
    token that ``int()`` refuses, which was checked with numpy 2.4.6 only.
    """
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline=None) as fh:
        content = fh.read()
    body = content.rstrip(" \n")  # blank lines at the end hold nothing
    if body and body.isascii() and not body.encode("ascii").translate(None, _PLAIN):
        lines = body.count("\n") + 1
        try:
            array = np.loadtxt(StringIO(body), dtype=np.int64, comments=None,
                               delimiter="," if pairs else None, ndmin=2)
        except (ValueError, OverflowError):
            pass  # the line reader names the bad line
        else:
            # numpy skips an empty line and reads "1 2" as two columns, so
            # either changes the shape.
            if array.shape == (lines, 2 if pairs else 1):
                return (array if pairs else array[:, 0]), range(1, lines + 1), None
    return _read_lines(path, content, pairs)


def _read_lines(path: Path, content: str, pairs: bool):
    """:func:`_read_ints` on ``path``'s decoded ``content``, one line at a time.

    This reader is the one definition of what a line may hold. An
    integer is read by :func:`plain_number`, so a line holding a
    non-ASCII digit or an underscore is malformed. Undecodable bytes
    become lone surrogates, which that rule rejects too.
    """
    values, lines, malformed = [], [], None
    for lineno, line in enumerate(content.split("\n"), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            if pairs:
                u, v = text.split(",")
                values += plain_number(u), plain_number(v)
            else:
                values.append(plain_number(text))
        except ValueError:
            problem = ("expected an integer, got" if not pairs else "non-integer endpoint in"
                       if text.count(",") == 1 else "expected 'u, v', got")
            malformed = DatasetFormatError(f"{path.name}: {problem} {text!r}", lineno)
            break
        lines.append(lineno)
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        array = np.array(values, dtype=object)
    return (array.reshape(-1, 2) if pairs else array), lines, malformed


def _raise_first(path: Path, lines: list[int], checks, malformed) -> None:
    """Raise ``DatasetFormatError`` for the first line failing ``checks``, else raise ``malformed``.

    ``checks`` lists ``(mask, message)`` pairs over the lines read before
    ``malformed``, in the order a line is checked; ``message(i)``
    describes row ``i``. So the first bad line of the file wins.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        message = next(message for mask, message in checks if mask[i])
        raise DatasetFormatError(f"{path.name}: {message(i)}", lines[i])
    if malformed is not None:
        raise malformed


def parse_tudataset(root_path, dataset_name: str) -> DomainDataset:
    """Parse a benchmark-format dataset directory into a DomainDataset.

    Expects ``<root>/<name>/<name>_A.txt`` and its sibling indicator and
    label files, with 1-indexed node ids and comma-separated edge pairs.
    Each graph's nodes keep their file order and are renumbered from 0;
    the two directed copies of each undirected edge are merged. Graph
    labels are remapped onto ``[0, C)`` and node labels onto ``[0, d)``,
    both preserving the sorted order of the raw values. The files are
    checked in order: indicator, node labels, graph labels, edges. The
    first malformed or inconsistent line raises ``DatasetFormatError``
    naming its file and line.
    """
    files = _dataset_files(root_path, dataset_name)
    for path in files.values():
        if not path.is_file():
            raise IngestionError(f"missing dataset file: {path}")

    indicator_file, edge_file = files["graph_indicator"], files["A"]
    indicator, lines, malformed = _read_ints(indicator_file)
    # Only the lower bound can fail: the largest value is the graph count.
    _raise_first(indicator_file, lines, [
        (indicator < 1, lambda i: f"graph indicator {indicator[i]} out of range")], malformed)
    if not len(indicator):
        raise DatasetFormatError(f"{indicator_file.name}: no nodes listed")
    raw_node_labels, lines, malformed = _read_ints(files["node_labels"])
    _raise_first(files["node_labels"], lines, [], malformed)
    if len(raw_node_labels) != len(indicator):
        raise DatasetFormatError(
            f"{files['node_labels'].name}: {len(raw_node_labels)} node labels for "
            f"{len(indicator)} indicator entries"
        )
    raw_graph_labels, lines, malformed = _read_ints(files["graph_labels"])
    _raise_first(files["graph_labels"], lines, [], malformed)
    num_graphs = int(indicator.max())
    if len(raw_graph_labels) != num_graphs:
        raise DatasetFormatError(
            f"{files['graph_labels'].name}: {len(raw_graph_labels)} labels for {num_graphs} graphs"
        )
    graph_of = indicator.astype(np.int64) - 1
    n = len(indicator)

    ends, lines, malformed = _read_ints(edge_file, pairs=True)
    u, v = ends[:, 0], ends[:, 1]
    # Column by column: numpy reduces a row of two one row at a time.
    outside = (u < 1) | (u > n) | (v < 1) | (v > n)
    # Outside ids look up node 1 instead; the range check reports them first.
    graphs = graph_of[np.where(outside[:, None], 1, ends).astype(np.int64) - 1]
    _raise_first(edge_file, lines, [
        (outside, lambda i: f"edge ({u[i]}, {v[i]}) references a node outside 1..{n}"),
        (graphs[:, 0] != graphs[:, 1], lambda i: f"edge ({u[i]}, {v[i]}) crosses graphs "
                                                f"{graphs[i, 0] + 1} and {graphs[i, 1] + 1}"),
        (u == v, lambda i: f"self-loop at node {u[i]}"),
    ], malformed)

    # Graph by graph, each in file order: packed node k is file node order[k].
    order = np.argsort(graph_of, kind="stable")
    packed_id = np.empty(n, dtype=np.int64)
    packed_id[order] = np.arange(n)
    ends = packed_id[ends.astype(np.int64) - 1]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(graph_of, minlength=num_graphs))))
    node_alphabet, node_labels = np.unique(raw_node_labels, return_inverse=True)
    classes, graph_labels = np.unique(raw_graph_labels, return_inverse=True)
    return DomainDataset(
        graphs=PackedGraphs(offsets, node_labels[order],
                            _adjacency(ends[:, 0], ends[:, 1], n)),
        num_classes=len(classes),
        label_alphabet_size=len(node_alphabet),
        graph_labels=tuple(graph_labels.tolist()),
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
    if not len(ds):
        raise ConfigurationError("no graphs to serialize")
    packed = ds.graphs
    sizes = np.diff(packed.node_offsets)
    if sizes[-1] == 0:
        raise ConfigurationError(
            f"graph {len(ds) - 1} has no nodes; the text layout cannot hold an empty last graph")
    labels = ds.eval_labels if ds.graph_labels is None else ds.graph_labels
    if labels is None:
        raise ConfigurationError("a target dataset without eval_labels has no classes to serialize")

    base = output_dir(Path(root_path) / dataset_name)
    files = _dataset_files(root_path, dataset_name)

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
