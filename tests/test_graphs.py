import re
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from dagrl import graphs as graphs_module
from dagrl.errors import ConfigurationError, ContractViolation, DatasetFormatError, IngestionError
from dagrl.graphs import (
    DomainDataset,
    Graph,
    PackedGraphs,
    pack,
    parse_tudataset,
    split_by_density,
    subset_as_source,
    subset_as_target,
    write_tudataset,
)
from dagrl.synthetic import make_shifted_pair
from helpers import (
    assert_same_packed,
    complete_graph,
    dataset_root,
    edge_density,
    have_dataset,
    path_graph,
    permute_graph,
    random_graph,
    reference_parse,
    reference_split,
    unpack,
)


def write_fixture(root, name, indicator, edges, graph_labels, node_labels, edge_sep=", "):
    base = root / name
    base.mkdir()
    (base / f"{name}_graph_indicator.txt").write_text("".join(f"{i}\n" for i in indicator))
    (base / f"{name}_A.txt").write_text("".join(f"{u}{edge_sep}{v}\n" for u, v in edges))
    (base / f"{name}_graph_labels.txt").write_text("".join(f"{l}\n" for l in graph_labels))
    (base / f"{name}_node_labels.txt").write_text("".join(f"{l}\n" for l in node_labels))
    return root


def assert_same_dataset(a, b):
    assert_same_packed(a.graphs, b.graphs)
    for name in ("num_classes", "label_alphabet_size", "graph_labels", "eval_labels"):
        assert getattr(a, name) == getattr(b, name), name


class TestParser:
    def test_two_graphs_with_merged_directed_edges(self, tmp_path):
        # Hand-built fixture: graph 1 has nodes {1, 2} and the edge listed
        # both ways; graph 2 is the isolated node 3.
        write_fixture(tmp_path, "toy", indicator=[1, 1, 2], edges=[(1, 2), (2, 1)],
                      graph_labels=[0, 1], node_labels=[0, 0, 1])
        ds = parse_tudataset(tmp_path, "toy")
        assert len(ds.graphs) == 2
        first, second = unpack(ds.graphs)
        assert first.node_count == 2
        assert first.edges == ((0, 1),)
        assert second.node_count == 1
        assert second.edges == ()

    def test_single_node_no_edges(self, tmp_path):
        write_fixture(tmp_path, "one", indicator=[1], edges=[], graph_labels=[0], node_labels=[0])
        ds = parse_tudataset(tmp_path, "one")
        assert unpack(ds.graphs) == [Graph(node_count=1, edges=(), node_labels=(0,))]

    def test_label_remapping_preserves_sorted_order(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 2], edges=[],
                      graph_labels=[1, -1], node_labels=[7, 3])
        ds = parse_tudataset(tmp_path, "toy")
        assert ds.num_classes == 2
        assert ds.graph_labels == (1, 0)  # raw 1 sorts after raw -1
        assert ds.label_alphabet_size == 2
        assert ds.graphs.node_labels.tolist() == [1, 0]  # raw 7 sorts after raw 3

    def test_comma_without_space_and_crlf(self, tmp_path):
        base = tmp_path / "toy"
        base.mkdir()
        (base / "toy_graph_indicator.txt").write_bytes(b"1\r\n1\r\n")
        (base / "toy_A.txt").write_bytes(b"1,2\r\n2,1\r\n")
        (base / "toy_graph_labels.txt").write_bytes(b"0\r\n")
        (base / "toy_node_labels.txt").write_bytes(b"0\r\n0\r\n")
        ds = parse_tudataset(tmp_path, "toy")
        assert unpack(ds.graphs)[0].edges == ((0, 1),)

    def test_missing_file_names_it(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1], edges=[], graph_labels=[0], node_labels=[0])
        (tmp_path / "toy" / "toy_A.txt").unlink()
        with pytest.raises(IngestionError, match="toy_A.txt"):
            parse_tudataset(tmp_path, "toy")

    def test_edge_out_of_range_reports_line(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 1], edges=[(1, 2), (1, 9)],
                      graph_labels=[0], node_labels=[0, 0])
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_tudataset(tmp_path, "toy")

    def test_edge_crossing_graphs_rejected(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 2], edges=[(1, 2)],
                      graph_labels=[0, 0], node_labels=[0, 0])
        with pytest.raises(DatasetFormatError, match="crosses graphs"):
            parse_tudataset(tmp_path, "toy")

    @pytest.mark.parametrize("suffix,line", [("graph_labels", 3), ("node_labels", 2), ("A", 2)])
    def test_undecodable_bytes_report_file_and_line(self, tmp_path, suffix, line):
        write_fixture(tmp_path, "toy", indicator=[1, 1, 2, 3], edges=[(1, 2), (2, 1)],
                      graph_labels=[0, 1, 0], node_labels=[0, 0, 0, 0])
        path = tmp_path / "toy" / f"toy_{suffix}.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"1\xff" + lines[line - 1][1:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError, match=rf"toy_{suffix}\.txt: .*\(line {line}\)"):
            parse_tudataset(tmp_path, "toy")

    @pytest.mark.parametrize("suffix,text,message", [
        ("node_labels", "\u0663", "expected an integer, got '\u0663'"),
        ("node_labels", "1_0", "expected an integer, got '1_0'"),
        ("graph_indicator", "\uff12", "expected an integer, got '\uff12'"),
        ("A", "2, 1_0", "non-integer endpoint in '2, 1_0'"),
    ], ids=["arabic-indic-digit", "underscore", "fullwidth-digit", "underscored-endpoint"])
    def test_integers_outside_ascii_are_malformed(self, tmp_path, suffix, text, message):
        # int() reads each of these as a number; the text layout does not.
        write_fixture(tmp_path, "toy", indicator=[1, 1, 2], edges=[(1, 2), (2, 1)],
                      graph_labels=[0, 1], node_labels=[0, 0, 0])
        path = tmp_path / "toy" / f"toy_{suffix}.txt"
        lines = path.read_text().splitlines()
        lines[1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(f"toy_{suffix}.txt: {message}")) \
                as caught:
            parse_tudataset(tmp_path, "toy")
        assert caught.value.line == 2

    def test_interleaved_indicator_renumbers_nodes_per_graph(self, tmp_path):
        # Nodes 1 and 3 form graph 1, in file order, so edge (1, 3) is its (0, 1).
        write_fixture(tmp_path, "toy", indicator=[1, 2, 1], edges=[(1, 3), (3, 1)],
                      graph_labels=[0, 1], node_labels=[5, 6, 7])
        assert unpack(parse_tudataset(tmp_path, "toy").graphs) == [
            Graph(node_count=2, edges=((0, 1),), node_labels=(0, 2)),
            Graph(node_count=1, edges=(), node_labels=(1,))]

    def test_directed_copies_merge_into_one_edge(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 1, 1], edges=[(2, 1), (1, 2), (3, 2)],
                      graph_labels=[0], node_labels=[0, 0, 0])
        assert unpack(parse_tudataset(tmp_path, "toy").graphs)[0].edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("third", [(1, 9), ("x", "y")], ids=["out-of-range", "malformed"])
    def test_first_bad_edge_line_is_reported(self, tmp_path, third):
        write_fixture(tmp_path, "toy", indicator=[1, 1, 2], edges=[(1, 2), (2, 3), third],
                      graph_labels=[0, 1], node_labels=[0, 0, 0])
        message = "toy_A.txt: edge (2, 3) crosses graphs 1 and 2 (line 2)"
        with pytest.raises(DatasetFormatError, match=re.escape(message)) as caught:
            parse_tudataset(tmp_path, "toy")
        assert caught.value.line == 2

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 1], edges=[], graph_labels=[0],
                      node_labels=[0, 0])
        base = tmp_path / "toy"
        (base / "toy_graph_indicator.txt").write_text("\n1\n  \n1\n\n")
        (base / "toy_A.txt").write_text("1, 2\n\n \n2, 1\n1, 9\n")
        with pytest.raises(DatasetFormatError, match=re.escape("1..2 (line 5)")):
            parse_tudataset(tmp_path, "toy")
        (base / "toy_A.txt").write_text("1, 2\n\n \n2, 1\n")
        assert unpack(parse_tudataset(tmp_path, "toy").graphs)[0].edges == ((0, 1),)

    def test_indicator_out_of_range_names_file_and_line(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 0, 1], edges=[], graph_labels=[0],
                      node_labels=[0, 0, 0])
        message = "toy_graph_indicator.txt: graph indicator 0 out of range (line 2)"
        with pytest.raises(DatasetFormatError, match=re.escape(message)) as caught:
            parse_tudataset(tmp_path, "toy")
        assert caught.value.line == 2

    def test_indicator_range_error_before_a_malformed_line(self, tmp_path):
        write_fixture(tmp_path, "toy", indicator=[1, 0, "x"], edges=[], graph_labels=[0],
                      node_labels=[0, 0, 0])
        message = "toy_graph_indicator.txt: graph indicator 0 out of range (line 2)"
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            parse_tudataset(tmp_path, "toy")

    @pytest.mark.parametrize("suffix", ["node_labels", "graph_labels"])
    def test_files_are_checked_in_order(self, tmp_path, suffix):
        # A bad indicator line wins over a malformed label file read after it.
        write_fixture(tmp_path, "toy", indicator=[1, 0], edges=[], graph_labels=[0],
                      node_labels=[0, 0])
        (tmp_path / "toy" / f"toy_{suffix}.txt").write_text("x\n")
        with pytest.raises(DatasetFormatError, match="graph indicator 0 out of range"):
            parse_tudataset(tmp_path, "toy")

    @pytest.mark.skipif(not have_dataset("Mutagenicity"), reason="Mutagenicity files not present")
    def test_mutagenicity_graph_count(self):
        ds = parse_tudataset(dataset_root(), "Mutagenicity")
        assert len(ds.graphs) == 4337

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        drawn = [(int(rng.integers(0, 3)), random_graph(rng, max_nodes=8, num_labels=4))
                 for _ in range(12)]
        labels, graphs = zip(*drawn)
        ds = DomainDataset(graphs=pack(graphs), num_classes=3, label_alphabet_size=4,
                           graph_labels=labels)
        write_tudataset(ds, tmp_path, "rt")
        again = parse_tudataset(tmp_path, "rt")
        assert_same_dataset(again, ds)
        assert unpack(again.graphs) == list(graphs)
        # Serializing the parsed dataset and re-parsing is also stable.
        write_tudataset(again, tmp_path, "rt2")
        assert_same_dataset(parse_tudataset(tmp_path, "rt2"), again)

    def test_unlabeled_graph_writes_no_file(self, tmp_path):
        # A target dataset whose classes were never kept for evaluation.
        ds = DomainDataset(graphs=pack([path_graph(3), path_graph(2)]), num_classes=1,
                           label_alphabet_size=1)
        with pytest.raises(ConfigurationError, match="without eval_labels has no classes"):
            write_tudataset(ds, tmp_path, "bad")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("with_graphs, message", [(True, "graph 1 has no nodes"),
                                                       (False, "no graphs")])
    def test_empty_last_graph_writes_no_file(self, tmp_path, with_graphs, message):
        # The parser counts graphs up to the last node's graph, so the
        # files would hold one graph label too many, or no node at all,
        # and fail to parse.
        empty = Graph(node_count=0, edges=(), node_labels=())
        graphs = (path_graph(3), empty) if with_graphs else ()
        ds = DomainDataset(graphs=pack(graphs), num_classes=2, label_alphabet_size=1,
                           graph_labels=(0, 1)[:len(graphs)])
        with pytest.raises(ConfigurationError, match=message):
            write_tudataset(ds, tmp_path, "bad")
        assert list(tmp_path.iterdir()) == []

    def test_empty_graph_before_the_last_round_trips(self, tmp_path):
        empty = Graph(node_count=0, edges=(), node_labels=())
        ds = DomainDataset(graphs=pack([path_graph(3), empty, path_graph(2)]), num_classes=2,
                           label_alphabet_size=1, graph_labels=(0, 1, 0))
        write_tudataset(ds, tmp_path, "rt")
        assert_same_dataset(parse_tudataset(tmp_path, "rt"), ds)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_written_files_are_read_whole(self, tmp_path, monkeypatch, ending):
        # The writer's files are plain, so the line reader never runs on them.
        ds = DomainDataset(graphs=pack([path_graph(4), complete_graph(3)]), num_classes=2,
                           label_alphabet_size=1, graph_labels=(1, 0))
        for path in write_tudataset(ds, tmp_path, "rt").iterdir():
            path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))

        def line_reader(*args):
            raise AssertionError("the line reader ran on a plain file")

        monkeypatch.setattr(graphs_module, "_read_lines", line_reader)
        assert_same_dataset(parse_tudataset(tmp_path, "rt"), ds)

    @pytest.mark.parametrize("suffix,message", [
        ("graph_indicator", "toy_graph_indicator.txt: no nodes listed"),
        ("node_labels", "toy_node_labels.txt: 0 node labels for 3 indicator entries"),
        ("graph_labels", "toy_graph_labels.txt: 0 labels for 2 graphs"),
        ("A", None),
    ])
    @pytest.mark.parametrize("text", ["", "\n", " \n\n", "\r\n  "],
                             ids=["empty", "newline", "spaces", "crlf"])
    def test_empty_file_without_warning(self, tmp_path, suffix, message, text):
        # numpy warns on a file with no data; such a file never reaches it.
        write_fixture(tmp_path, "toy", indicator=[1, 1, 2], edges=[(1, 2), (2, 1)],
                      graph_labels=[0, 1], node_labels=[0, 0, 0])
        (tmp_path / "toy" / f"toy_{suffix}.txt").write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:  # no edges is a valid edge file
                assert parse_tudataset(tmp_path, "toy").graphs.adjacency.nnz == 0
                return
            with pytest.raises(DatasetFormatError) as caught:
                parse_tudataset(tmp_path, "toy")
        assert (str(caught.value), caught.value.line) == (message, None)

    def test_failure_while_writing_edges_leaves_no_edge_file(self, tmp_path, monkeypatch):
        # The edge file fails after two lines; a truncated edge list would
        # still parse as a dataset with fewer edges.
        real_atomic_write = graphs_module.atomic_write

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.left = fh, 2

            def write(self, text):
                if self.left == 0:
                    raise OSError("injected write failure")
                self.left -= 1
                return self.fh.write(text)

        @contextmanager
        def failing_atomic_write(path):
            with real_atomic_write(path) as fh:
                yield FailingFile(fh) if path.name.endswith("_A.txt") else fh

        monkeypatch.setattr(graphs_module, "atomic_write", failing_atomic_write)
        ds = DomainDataset(graphs=pack([path_graph(4), path_graph(3)]), num_classes=1,
                           label_alphabet_size=1, graph_labels=(0, 0))
        with pytest.raises(OSError, match="injected"):
            write_tudataset(ds, tmp_path, "cut")
        assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == [
            "cut_graph_indicator.txt", "cut_graph_labels.txt", "cut_node_labels.txt"]
        with pytest.raises(IngestionError, match="cut_A.txt"):
            parse_tudataset(tmp_path, "cut")


# Lines a fuzzed file may gain: blank, malformed, huge, non-ASCII
# ("\u0663" and "\uff13" are 3 to int()) or underscored integers, non-ASCII
# space around an integer, and an undecodable byte; then near-plain lines
# that numpy's whole-file read must take as int() does or leave to the
# line reader: two numbers on a line, spaces, signs, leading zeros, and
# the first value beyond int64.
ODD_LINES = ["", "  ", "x", "1.5", "1,", "1, 2, 3", "a, b", "2, y", "\u0663", "\uff13, 1",
             "1_0", "2, 1_0", "1,\u20032", "\u00a02\u3000",
             str(10 ** 25), f"1, {10 ** 25}", f"-{10 ** 25}", "0", "-1", "1\udcff",
             "1 2", " 3 ", "+4", "007", "1 , 2", "-0", str(2 ** 63)]


# Near-plain files, each read whole by numpy or handed to the line reader.
@pytest.mark.parametrize("pairs,text", [
    (False, "1\n2\n"), (False, "1 2\n"), (False, "1\n\n2\n"), (False, " \n1\n"),
    (False, "1\n2\n\n \n"), (False, "+4\n007\n-0\n 3 \n"), (False, "1\r\n2"),
    (False, f"{2 ** 63 - 1}\n{-2 ** 63}\n"), (False, f"1\n{2 ** 63}\n"), (False, "1,2\n"),
    (False, "1.0\n"), (False, "1e3\n"), (True, "1, 2\n2,1\n"), (True, "1 , 2\n  3, 4  \n"),
    (True, "1, 2, 3\n"), (True, "1,\n"), (True, "1 2\n"), (True, "1, 2\n\n2, 1\n"),
    (True, f"1, {2 ** 63}\n"), (True, "+1, -0\n"), (True, "1\n2\n"),
])
def test_whole_file_read_equals_the_line_reader(tmp_path, pairs, text):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode())
    outcomes = [graphs_module._read_ints(path, pairs),
                graphs_module._read_lines(path, path.read_text(), pairs)]
    got, want = [(values.dtype, values.tolist(), list(lines),
                  malformed and (str(malformed), malformed.line))
                 for values, lines, malformed in outcomes]
    assert got == want


def fuzzed_files(rng) -> dict[str, list[str]]:
    """The lines of a small valid dataset, then up to three seeded faults."""
    sizes = rng.integers(0, 4, size=int(rng.integers(1, 4)))
    sizes[-1] += 1  # the layout cannot hold an empty last graph
    indicator = [g + 1 for g, size in enumerate(sizes) for _ in range(size)]
    if rng.random() < 0.3:
        rng.shuffle(indicator)
    n = len(indicator)
    members = [[i + 1 for i, g in enumerate(indicator) if g == k + 1] for k in range(len(sizes))]
    edges = [pair for nodes in members for a in nodes for b in nodes if a != b
             for pair in [(a, b)] if rng.random() < 0.4]
    files = {"graph_indicator": [str(g) for g in indicator],
             "node_labels": [str(v) for v in rng.integers(0, 3, size=n)],
             "graph_labels": [str(v) for v in rng.integers(-1, 2, size=len(sizes))],
             "A": [f"{u}, {v}" for u, v in edges]}
    for _ in range(int(rng.integers(0, 4))):
        lines = files[rng.choice(list(files), p=[0.15, 0.15, 0.15, 0.55])]
        at = int(rng.integers(0, len(lines) + 1))
        fault = rng.integers(0, 10)
        if fault < 3:
            lines.insert(at, str(rng.choice(ODD_LINES)))
        elif fault < 5 and lines:
            del lines[min(at, len(lines) - 1)]
        elif fault == 5 and rng.random() < 0.2:
            lines.clear()
        elif lines is files["A"]:
            u, v = rng.integers(0, n + 2, size=2)
            lines.insert(at, f"{u}, {v}")
        else:
            lines.insert(at, str(rng.integers(-1, 5)))
    return files


def test_parser_matches_the_line_by_line_reference(tmp_path):
    seen = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        base = tmp_path / str(seed) / "fz"
        base.mkdir(parents=True)
        for suffix, lines in fuzzed_files(rng).items():
            ending = "\r\n" if rng.random() < 0.2 else "\n"
            text = "".join(line + ending for line in lines)
            (base / f"fz_{suffix}.txt").write_bytes(text.encode("utf-8", "surrogateescape"))
        outcomes = []
        for parse in (parse_tudataset, reference_parse):
            try:
                outcomes.append(parse(tmp_path / str(seed), "fz"))
            except DatasetFormatError as error:
                outcomes.append(error)
        got, want = outcomes
        if isinstance(want, DomainDataset):
            assert isinstance(got, DomainDataset), f"seed {seed}: {got}"
            assert_same_dataset(got, want)
            seen.add("parsed")
        else:
            assert isinstance(got, DatasetFormatError), f"seed {seed}: parsed, want {want}"
            assert (str(got), got.line) == (str(want), want.line), f"seed {seed}"
            seen.add(re.sub(r"-?\d+|'.*?'", "#", str(want).split(": ", 1)[1]))
    # Every kind of outcome occurs.
    assert seen >= {
        "parsed", "no nodes listed", "graph indicator # out of range (line #)",
        "expected an integer, got # (line #)", "# node labels for # indicator entries",
        "# labels for # graphs", "expected #, got # (line #)",
        "non-integer endpoint in # (line #)", "edge (#, #) references a node outside #..# (line #)",
        "edge (#, #) crosses graphs # and # (line #)", "self-loop at node # (line #)"}, seen


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ContractViolation):
            Graph(node_count=2, edges=((0, 0),), node_labels=(0, 0))

    def test_rejects_duplicate_undirected_edge(self):
        with pytest.raises(ContractViolation):
            Graph(node_count=2, edges=((0, 1), (1, 0)), node_labels=(0, 0))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ContractViolation):
            Graph(node_count=2, edges=((0, 2),), node_labels=(0, 0))

    def test_holds_structure_only(self):
        with pytest.raises(TypeError, match="graph_label"):
            Graph(node_count=1, edges=(), node_labels=(0,), graph_label=0)


class TestDatasetLabels:
    """Class labels and node labels are checked when a dataset is built."""

    @pytest.fixture(scope="class")
    def pair(self):
        return make_shifted_pair(0, 10)

    def test_source_class_outside_range_rejected(self, pair):
        source, _ = pair
        with pytest.raises(ContractViolation, match=r"graph_labels\[0\] is 2, outside \[0, 2\)"):
            replace(source, graph_labels=(2,) + source.graph_labels[1:])

    def test_eval_labels_outside_range_rejected(self, pair):
        _, target = pair
        with pytest.raises(ContractViolation, match=r"eval_labels\[0\] is 7, outside \[0, 2\)"):
            replace(target, eval_labels=(7,) * len(target))

    @pytest.mark.parametrize("field", ["graph_labels", "eval_labels"])
    @pytest.mark.parametrize("label", [1.0, True, np.bool_(True), "1", np.float64(1.0)],
                             ids=repr)
    def test_class_that_is_not_an_integer_rejected(self, pair, field, label):
        # Written out, a float or bool class is a line its own parser rejects.
        source, target = pair
        dataset = source if field == "graph_labels" else target
        labels = getattr(dataset, field)
        with pytest.raises(ContractViolation,
                           match=rf"{field}\[1\] is {re.escape(repr(label))}, not an integer"):
            replace(dataset, **{field: labels[:1] + (label,) + labels[2:]})

    @pytest.mark.parametrize("field", ["graph_labels", "eval_labels"])
    def test_numpy_integer_classes_round_trip(self, pair, field, tmp_path):
        source, target = pair
        dataset = source if field == "graph_labels" else target
        classes = tuple(np.int64(label) for label in getattr(dataset, field))
        dataset = replace(dataset, **{field: classes})
        write_tudataset(dataset, tmp_path, "np")
        assert parse_tudataset(tmp_path, "np").graph_labels == classes

    def test_source_with_eval_labels_rejected(self, pair):
        source, _ = pair
        with pytest.raises(ContractViolation,
                           match="a dataset with graph_labels takes no eval_labels"):
            replace(source, eval_labels=source.graph_labels)

    @pytest.mark.parametrize("field", ["graph_labels", "eval_labels"])
    def test_label_count_mismatch_rejected(self, pair, field):
        source, target = pair
        dataset = source if field == "graph_labels" else target
        labels = getattr(dataset, field)[:-1]
        with pytest.raises(ContractViolation,
                           match=rf"{field} has {len(labels)} entries for {len(dataset)} graphs"):
            replace(dataset, **{field: labels})

    def test_node_label_outside_alphabet_rejected_when_built(self, pair):
        source, _ = pair
        labels = source.graphs.node_labels.copy()
        labels[0] = 9
        with pytest.raises(ContractViolation, match="node label 9 outside alphabet of size 3"):
            replace(source, graphs=replace(source.graphs, node_labels=labels))


class TestEdgeDensity:
    def test_complete_graph(self):
        assert edge_density(complete_graph(4)) == 1.0

    def test_path(self):
        assert edge_density(path_graph(4)) == 0.5

    def test_single_node(self):
        assert edge_density(path_graph(1)) == 0.0

    def test_isomorphism_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_graph(rng, max_nodes=7)
            perm = rng.permutation(g.node_count)
            assert edge_density(g) == edge_density(permute_graph(g, perm))


def graphs_with_densities(densities):
    # n=5 gives 10 possible edges, so density k/10 is exact.
    out = []
    for d in densities:
        m = round(d * 10)
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)][:m]
        out.append(Graph(node_count=5, edges=tuple(edges), node_labels=(0,) * 5))
    return out


def dataset_of(graphs) -> DomainDataset:
    """One class, an alphabet wide enough for ``random_graph``'s labels."""
    return DomainDataset(graphs=pack(graphs), num_classes=1, label_alphabet_size=3,
                         graph_labels=(0,) * len(graphs))


class TestSplit:
    def test_quartiles(self):
        densities = [0.5, 0.1, 0.8, 0.3, 0.7, 0.2, 0.6, 0.4]
        ds = dataset_of(graphs_with_densities(densities))
        part = split_by_density(ds)
        grouped = [sorted(densities[i] for i in grp) for grp in part.groups]
        assert grouped == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]
        assert part.boundaries == (0.2, 0.4, 0.6)

    def test_ties_break_by_index(self):
        ds = dataset_of(graphs_with_densities([0.4] * 8))
        part = split_by_density(ds)
        assert part.groups == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_too_few_graphs(self):
        ds = dataset_of(graphs_with_densities([0.1, 0.2, 0.3]))
        with pytest.raises(ConfigurationError):
            split_by_density(ds)

    def test_partition_is_permutation(self):
        rng = np.random.default_rng(11)
        part = split_by_density(dataset_of([random_graph(rng, max_nodes=9) for _ in range(23)]))
        merged = sorted(i for grp in part.groups for i in grp)
        assert merged == list(range(23))
        sizes = sorted(len(grp) for grp in part.groups)
        assert sizes == [5, 6, 6, 6]

    def test_group_densities_respect_boundaries(self):
        rng = np.random.default_rng(13)
        graphs = [random_graph(rng, max_nodes=9) for _ in range(20)]
        part = split_by_density(dataset_of(graphs))
        for k in range(3):
            assert all(edge_density(graphs[i]) <= part.boundaries[k] for i in part.groups[k])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_record_reference(self, seed):
        rng = np.random.default_rng(seed)
        graphs = [random_graph(rng, max_nodes=9, edge_prob=rng.random())
                  for _ in range(int(rng.integers(4, 30)))]
        empty, single = Graph(node_count=0, edges=(), node_labels=()), path_graph(1)
        for g in (empty, single, empty, complete_graph(3)):
            graphs.insert(int(rng.integers(0, len(graphs) + 1)), g)
        part = split_by_density(dataset_of(graphs))
        assert (part.groups, part.boundaries) == reference_split(graphs)


class TestSubsets:
    @pytest.fixture
    def records(self):
        rng = np.random.default_rng(5)
        records = [random_graph(rng) for _ in range(6)]
        records[2] = Graph(node_count=0, edges=(), node_labels=())
        records[4] = Graph(node_count=3, edges=(), node_labels=(2, 0, 2))
        return records

    @pytest.fixture
    def ds(self, records):
        return DomainDataset(graphs=pack(records), num_classes=2, label_alphabet_size=3,
                             graph_labels=(0, 1) * 3)

    def test_source_subset_keeps_labels(self, ds):
        sub = subset_as_source(ds, [0, 3, 4])
        assert sub.graph_labels == (0, 1, 0)
        assert sub.eval_labels is None

    def test_source_subset_of_unlabeled_graphs_rejected(self):
        _, target = make_shifted_pair(0, 10)
        with pytest.raises(ConfigurationError, match="target dataset holds no graph_labels"):
            subset_as_source(target, [4, 5])

    def test_target_subset_detaches_labels(self, ds):
        sub = subset_as_target(ds, [1, 3, 5])
        assert sub.graph_labels is None
        assert sub.eval_labels == (1, 1, 1)

    @pytest.mark.parametrize("subset", [subset_as_source, subset_as_target])
    def test_subset_equals_packing_the_records(self, records, ds, subset):
        rng = np.random.default_rng(9)
        for idx in (rng.permutation(6), [4, 2], rng.permutation(6)[:3], []):
            sub = subset(ds, idx)
            assert_same_packed(sub.graphs, pack([records[i] for i in idx]))
            labels = sub.graph_labels if subset is subset_as_source else sub.eval_labels
            assert labels == tuple(ds.graph_labels[i] for i in idx)

    @pytest.mark.parametrize("subset", [subset_as_source, subset_as_target])
    @pytest.mark.parametrize("index", [-1, -6, 6])
    def test_index_outside_the_graphs_rejected(self, ds, subset, index):
        # A negative index would wrap to a graph at the end.
        with pytest.raises(ContractViolation, match=re.escape(f"index {index} outside [0, 6)")):
            subset(ds, [0, index])

    @pytest.mark.parametrize("subset", [subset_as_source, subset_as_target])
    def test_repeated_index_rejected(self, ds, subset):
        with pytest.raises(ContractViolation, match="index 3 repeated"):
            subset(ds, [3, 1, 5, 3])

    # A float would be truncated, a mask read as 0s and 1s, a string parsed.
    NOT_INTEGERS = [[1.9, 0.2], [True, False], ["1", "0"], np.array([True, False, True]),
                    np.array([1.0, 0.0])]

    @pytest.mark.parametrize("gather", [subset_as_source, subset_as_target,
                                        lambda ds, idx: ds.graphs.take(idx)],
                             ids=["source", "target", "take"])
    @pytest.mark.parametrize("indices", NOT_INTEGERS, ids=repr)
    def test_indices_that_are_not_integers_rejected(self, ds, gather, indices):
        with pytest.raises(ContractViolation, match="indices must be integers"):
            gather(ds, indices)

    @pytest.mark.parametrize("subset", [subset_as_source, subset_as_target])
    @pytest.mark.parametrize("indices", [[], range(0), np.array([], dtype=np.int64)], ids=repr)
    def test_empty_indices_accepted(self, ds, subset, indices):
        # numpy reads an empty list or range as float64.
        assert len(subset(ds, indices)) == 0
        assert len(ds.graphs.take(indices)) == 0


@pytest.mark.parametrize("graph, message", [
    (Graph(node_count=3, edges=((0, 1.5),), node_labels=(0, 0, 0)), "node id 1.5 "),
    (Graph(node_count=2, edges=((0, 1),), node_labels=(0.7, 1)), "node label 0.7 "),
], ids=["node-id", "node-label"])
def test_fractional_value_rejected_at_packing(graph, message):
    # Packing into int64 arrays would truncate it to a valid-looking value.
    with pytest.raises(ContractViolation, match=message):
        pack([graph])


@pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 63 - 1, np.int64(2 ** 62 + 3)])
def test_large_values_packed_exactly(value):
    # float64 rounds 2**53 + 1 to 2**53.
    graphs = pack([Graph(2, ((0, 1),), (value, 3))])
    assert graphs.node_labels.tolist() == [int(value), 3]
    assert graphs.node_labels.dtype == np.int64


@pytest.mark.parametrize("graph, message", [
    (Graph(node_count=2, edges=((0, 1),), node_labels=(2 ** 63 + 5, 1)),
     f"node label {2 ** 63 + 5} is outside int64"),
    (Graph(node_count=2, edges=((0, 1),), node_labels=(2 ** 2000, 1)), "is outside int64"),
    (Graph(node_count=2, edges=((0, 1),), node_labels=(float("nan"), 1)),
     "node label nan is not an integer"),
    (Graph(node_count=2, edges=((0, 1),), node_labels=(2.0 ** 70, 1)), "outside int64"),
], ids=["2**63+5", "2**2000", "nan", "2.0**70"])
def test_value_outside_int64_rejected_at_packing(graph, message):
    with pytest.raises(ContractViolation, match=re.escape(message)):
        pack([graph])


def test_join_equals_packing_all_graphs():
    rng = np.random.default_rng(17)
    empty = Graph(node_count=0, edges=(), node_labels=())
    parts = [[random_graph(rng) for _ in range(5)] + [empty], [empty], [random_graph(rng)]]
    joined = PackedGraphs.join([pack(graphs) for graphs in parts])
    assert_same_packed(joined, pack([g for graphs in parts for g in graphs]))
