import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.errors import ContractViolation
from dagrl.graphs import (
    DomainDataset,
    Graph,
    PackedGraphs,
    pack,
    split_by_density,
    subset_as_source,
    subset_as_target,
)
from dagrl.synthetic import make_benchmark
from dagrl.wl import UNKNOWN_LABEL, GknHead, WlRefinement
from helpers import (
    ReferenceRefinement,
    brute_force_kernel,
    histograms,
    kernel_gram,
    permute_graph,
    random_graph,
    unpack,
)


def node_labels(refinement, g):
    """Per-depth label arrays of ``g`` under the fitted table."""
    return refinement._refine(pack([g]))


def kernel(refinement, g1, g2):
    """Subtree-kernel value of two graphs, read off their Gram matrix."""
    return int(kernel_gram(refinement, [g1, g2])[0, 1])


def star_graph(leaves, label=0):
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return Graph(node_count=leaves + 1, edges=edges,
                 node_labels=(label,) * (leaves + 1))


class TestRefinement:
    def test_single_node_refinement_depends_only_on_raw_label(self):
        # With no neighbors the signature chain is determined by the raw
        # label alone, so two isolated nodes with equal raw labels stay
        # label-identical at every depth and contribute one kernel match
        # per depth.
        a = Graph(node_count=1, edges=(), node_labels=(5,))
        b = Graph(node_count=1, edges=(), node_labels=(5,))
        ref = WlRefinement(depth=3).fit(pack([a, b]))
        la, lb = node_labels(ref, a), node_labels(ref, b)
        assert len(la) == 4
        assert la[0][0] == 5
        for step_a, step_b in zip(la, lb):
            assert step_a[0] == step_b[0]
        assert kernel(ref, a, b) == 4

    def test_star_center_and_leaves_diverge(self):
        # Manual signatures: leaves see (0, (0,)), the center sees
        # (0, (0, 0, 0)), so iteration 1 must separate them.
        g = star_graph(3)
        ref = WlRefinement(depth=1).fit(pack([g]))
        labels = node_labels(ref, g)
        assert len(set(labels[0].tolist())) == 1
        center, leaf = labels[1][0], labels[1][1]
        assert center != leaf
        assert labels[1].tolist() == [center, leaf, leaf, leaf]

    def test_isomorphic_graphs_have_equal_label_multisets(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, max_nodes=7)
            g2 = permute_graph(g, rng.permutation(g.node_count))
            ref = WlRefinement(depth=2).fit(pack([g, g2]))
            for l1, l2 in zip(node_labels(ref, g), node_labels(ref, g2)):
                assert sorted(l1.tolist()) == sorted(l2.tolist())

    def test_table_independent_of_graph_order(self):
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(8)]
        ref_a = WlRefinement(depth=2).fit(pack(graphs))
        ref_b = WlRefinement(depth=2).fit(pack(list(reversed(graphs))))
        assert ref_a.label_table == ref_b.label_table

    def test_feature_counts_partition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, max_nodes=8)
            ref = WlRefinement(depth=2).fit(pack([g]))
            row = ref.feature_row(g)
            assert row.sum() == g.node_count * 3
            assert np.all(row.data > 0)
            assert row[0, ref.unknown_column] == 0


def assert_bitwise_csr(a, b):
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


class TestReferenceEquality:
    """The packed refinement reproduces the per-graph tuple refinement bit for bit."""

    def assert_matches_reference(self, fitted, unseen, depth):
        ref = WlRefinement(depth=depth).fit(pack(fitted))
        oracle = ReferenceRefinement(fitted, depth)
        assert ref.label_table == oracle.label_table
        # The oracle numbers its columns in sorted label order.
        assert ref._vocab.tolist() == sorted(oracle.feature_index)
        assert ref.vocab_size == len(oracle.feature_index) + 1
        for g, expected in zip(fitted, oracle.fitted_labels):
            assert [labels.tolist() for labels in node_labels(ref, g)] == expected
        for g in unseen:
            assert [labels.tolist() for labels in node_labels(ref, g)] == oracle.node_labels(g)
        for graphs in (fitted, unseen):
            assert_bitwise_csr(histograms(ref, graphs), oracle.feature_matrix(graphs))
        return ref, oracle

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_random_graphs(self, depth):
        rng = np.random.default_rng(20 + depth)
        empty = Graph(node_count=0, edges=(), node_labels=())
        isolated = Graph(node_count=3, edges=(), node_labels=(0, 2, 0))
        # Twelve distinct neighbor labels fill the widest key row.
        mixed_star = Graph(node_count=13, edges=star_graph(12).edges,
                           node_labels=(0,) + tuple(range(12)))
        for _ in range(15):
            graphs = [random_graph(rng, max_nodes=7, num_labels=3, edge_prob=0.5)
                      for _ in range(6)]
            graphs += [empty, isolated, star_graph(12), mixed_star, graphs[0], graphs[0]]
            unseen = [random_graph(rng, max_nodes=7, num_labels=4) for _ in range(4)]
            unseen += [empty, star_graph(13, label=1)]
            order = rng.permutation(len(graphs))
            self.assert_matches_reference([graphs[i] for i in order], unseen, depth)

    @pytest.mark.parametrize("pair", [(0, 1), (2, 3)])
    def test_benchmark_groups(self, pair):
        dataset = make_benchmark(1, graphs_per_block=12)
        records = unpack(dataset.graphs)
        groups = split_by_density(dataset).groups
        source = subset_as_source(dataset, groups[pair[0]])
        target = subset_as_target(dataset, groups[pair[1]])
        fitted = [records[i] for group in (groups[pair[0]], groups[pair[1]]) for i in group]
        unseen = [records[i] for i in groups[3 - pair[1]]]
        ref, oracle = self.assert_matches_reference(fitted, unseen, depth=2)
        for part, group in ((source, groups[pair[0]]), (target, groups[pair[1]])):
            assert_bitwise_csr(ref.dataset_features(part),
                               oracle.feature_matrix([records[i] for i in group]))


    def test_fit_on_joined_unions_equals_fit_on_graphs(self):
        dataset = make_benchmark(2, graphs_per_block=12)
        groups = split_by_density(dataset).groups
        source = subset_as_source(dataset, groups[0])
        target = subset_as_target(dataset, groups[2])
        joined = WlRefinement(depth=2).fit(PackedGraphs.join((source.graphs, target.graphs)))
        listed = WlRefinement(depth=2).fit(pack(unpack(source.graphs) + unpack(target.graphs)))
        assert joined.label_table == listed.label_table
        assert joined._vocab.tolist() == listed._vocab.tolist()


class TestEdgeCases:
    def test_fit_on_empty_graphs_keeps_only_unk(self):
        empty = Graph(node_count=0, edges=(), node_labels=())
        ref = WlRefinement(depth=2).fit(pack([empty, empty]))
        assert ref.label_table == {}
        assert ref.vocab_size == 1
        assert histograms(ref, [empty]).toarray().tolist() == [[0.0]]
        g = Graph(node_count=1, edges=(), node_labels=(3,))
        assert ref.feature_row(g).toarray().tolist() == [[3.0]]

    def test_unfitted_refinement_rejected(self):
        dataset = DomainDataset(graphs=pack([star_graph(2)]), num_classes=1,
                                label_alphabet_size=1, graph_labels=(0,))
        with pytest.raises(ContractViolation, match="not fitted"):
            WlRefinement(depth=1).dataset_features(dataset)

    def test_dataset_rows_are_kept_per_refinement_until_refit(self):
        graphs = [star_graph(2), star_graph(3)]
        dataset = DomainDataset(graphs=pack(graphs), num_classes=1, label_alphabet_size=1,
                                graph_labels=(0, 0))
        ref = WlRefinement(depth=1).fit(pack(graphs[:1]))
        rows = ref.dataset_features(dataset)
        assert ref.dataset_features(dataset) is rows
        assert WlRefinement(depth=1).fit(pack(graphs[:1])).dataset_features(dataset) is not rows
        ref.fit(dataset.graphs)
        refit = ref.dataset_features(dataset)
        assert refit.shape[1] == ref.vocab_size > rows.shape[1]
        assert_bitwise_csr(refit, ReferenceRefinement(graphs, 1).feature_matrix(graphs))

    def test_negative_raw_labels_rejected(self):
        # A raw label equal to UNKNOWN_LABEL would become a vocabulary column
        # and collect the unseen counts of other graphs, so it never gets in.
        for label in (UNKNOWN_LABEL, -2):
            with pytest.raises(ContractViolation, match=f"negative label {label} at node 1"):
                Graph(node_count=2, edges=((0, 1),), node_labels=(0, label))
        ref = WlRefinement(depth=1).fit(pack([Graph(node_count=1, edges=(), node_labels=(0,))]))
        unseen = Graph(node_count=1, edges=(), node_labels=(7,))
        # Both depths of the unseen node count on UNK, the last column.
        assert ref.feature_row(unseen).toarray().tolist() == [[0.0, 0.0, 2.0]]

    def test_unknown_neighbor_stays_unknown(self):
        # Fitted: an edge 0-1 and an isolated 0, so depth-2 signatures with
        # an empty neighborhood are in the table. Unseen: 0-1-5, where the
        # middle node's signature is new at depth 1.
        fitted = [Graph(node_count=3, edges=((0, 1),), node_labels=(0, 1, 0))]
        ref = WlRefinement(depth=3).fit(pack(fitted))
        assert any(neighbors == () for _, neighbors in ref.label_table)
        unseen = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(0, 1, 5))
        labels = node_labels(ref, unseen)
        assert labels[1][0] == node_labels(ref, fitted[0])[1][0]
        assert labels[1][1] == UNKNOWN_LABEL
        assert labels[2].tolist() == [UNKNOWN_LABEL] * 3
        assert labels[3].tolist() == [UNKNOWN_LABEL] * 3
        oracle = ReferenceRefinement(fitted, 3)
        assert [l.tolist() for l in labels] == oracle.node_labels(unseen)


class TestKernel:
    def test_two_single_nodes_same_label_depth_zero(self):
        a = Graph(node_count=1, edges=(), node_labels=(4,))
        b = Graph(node_count=1, edges=(), node_labels=(4,))
        ref = WlRefinement(depth=0).fit(pack([a, b]))
        assert kernel(ref, a, b) == 1

    def test_single_edge_self_kernel(self):
        # Both nodes share a label: 4 matched pairs at depth 0, and the
        # identical signatures keep all 4 pairs matched at depth 1.
        g = Graph(node_count=2, edges=((0, 1),), node_labels=(3, 3))
        ref = WlRefinement(depth=1).fit(pack([g]))
        assert kernel(ref, g, g) == 8
        assert brute_force_kernel(ReferenceRefinement([g], 1), g, g) == 8

    def test_disjoint_alphabets_give_zero(self):
        a = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(0, 0, 0))
        b = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(5, 5, 5))
        ref = WlRefinement(depth=2).fit(pack([a, b]))
        assert kernel(ref, a, b) == 0

    def test_feature_map_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g1 = random_graph(rng, max_nodes=6, num_labels=3)
            g2 = random_graph(rng, max_nodes=6, num_labels=3)
            ref = WlRefinement(depth=2).fit(pack([g1, g2]))
            oracle = ReferenceRefinement([g1, g2], 2)
            assert kernel(ref, g1, g2) == brute_force_kernel(oracle, g1, g2)

    def test_kernel_symmetric(self):
        rng = np.random.default_rng(6)
        g1, g2 = random_graph(rng), random_graph(rng)
        ref = WlRefinement(depth=2).fit(pack([g1, g2]))
        assert kernel(ref, g1, g2) == kernel(ref, g2, g1)

    def test_self_kernel_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, max_nodes=6)
            ref = WlRefinement(depth=2).fit(pack([g]))
            value = kernel(ref, g, g)
            floor = g.node_count * 3
            assert value >= floor
            labels = node_labels(ref, g)
            all_distinct = all(len(set(l.tolist())) == len(l) for l in labels)
            assert (value == floor) == all_distinct

    def test_gram_psd(self):
        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(16)]
        ref = WlRefinement(depth=2).fit(pack(graphs))
        gram = kernel_gram(ref, graphs, normalized=True)
        sym = (gram + gram.T) / 2.0
        assert np.linalg.eigvalsh(sym).min() >= -1e-8


class TestGknHead:
    def test_zero_zeta_matches_unperturbed(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, max_nodes=5)
        ref = WlRefinement(depth=2).fit(pack([g]))
        head = GknHead(np.random.default_rng(11), ref.vocab_size, num_classes=3, hidden_dim=8)
        tape = ad.Tape()
        _, p_plain, _ = head.forward(tape, ref.feature_row(g))
        _, p_zero, _ = head.forward(tape, ref.feature_row(g), ad.constant(np.zeros((1, 8))))
        assert np.array_equal(p_plain.data, p_zero.data)

    def test_zero_initialized_head_uniform(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, max_nodes=5)
        ref = WlRefinement(depth=2).fit(pack([g]))
        head = GknHead(np.random.default_rng(13), ref.vocab_size, num_classes=4, hidden_dim=8)
        for p in head.params():
            p.data[:] = 0.0
        tape = ad.Tape()
        _, probs, _ = head.forward(tape, ref.feature_row(g))
        assert np.allclose(probs.data, 0.25, atol=1e-15)

    def test_unseen_graph_buckets_to_unk_and_normalizes(self):
        train = Graph(node_count=2, edges=((0, 1),), node_labels=(0, 0))
        ref = WlRefinement(depth=2).fit(pack([train]))
        # Every label of this graph is outside the fitted vocabulary.
        alien = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(9, 9, 9))
        labels = node_labels(ref, alien)
        assert all(v == UNKNOWN_LABEL for v in labels[1])
        row = ref.feature_row(alien)
        # Raw label 9 is itself unseen, so every count lands on UNK.
        assert row[0, ref.unknown_column] == alien.node_count * 3
        assert row.sum() == alien.node_count * 3
        head = GknHead(np.random.default_rng(14), ref.vocab_size, num_classes=3, hidden_dim=8)
        tape = ad.Tape()
        _, probs, _ = head.forward(tape, row)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
