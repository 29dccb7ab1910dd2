import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.graphs import Graph
from dagrl.wl import UNKNOWN_LABEL, GknHead, WlRefinement, gram_matrix, kernel, normalized_gram
from helpers import permute_graph, random_graph


def brute_force_kernel(refinement, g1, g2):
    # Independent oracle: double sum over node pairs at every depth.
    total = 0
    for l1, l2 in zip(refinement.node_labels(g1), refinement.node_labels(g2)):
        for a in l1:
            for b in l2:
                if a == b:
                    total += 1
    return total


def star_graph(leaves, label=0):
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return Graph(node_count=leaves + 1, edges=edges,
                 node_labels=(label,) * (leaves + 1), graph_label=0)


class TestRefinement:
    def test_single_node_refinement_depends_only_on_raw_label(self):
        # With no neighbors the signature chain is determined by the raw
        # label alone, so two isolated nodes with equal raw labels stay
        # label-identical at every depth and contribute one kernel match
        # per depth.
        a = Graph(node_count=1, edges=(), node_labels=(5,), graph_label=0)
        b = Graph(node_count=1, edges=(), node_labels=(5,), graph_label=0)
        ref = WlRefinement(depth=3).fit([a, b])
        la, lb = ref.node_labels(a), ref.node_labels(b)
        assert len(la) == 4
        assert la[0][0] == 5
        for step_a, step_b in zip(la, lb):
            assert step_a[0] == step_b[0]
        assert kernel(ref, a, b) == 4

    def test_star_center_and_leaves_diverge(self):
        # Manual signatures: leaves see (0, (0,)), the center sees
        # (0, (0, 0, 0)), so iteration 1 must separate them.
        g = star_graph(3)
        ref = WlRefinement(depth=1).fit([g])
        labels = ref.node_labels(g)
        assert len(set(labels[0].tolist())) == 1
        center, leaf = labels[1][0], labels[1][1]
        assert center != leaf
        assert labels[1].tolist() == [center, leaf, leaf, leaf]

    def test_isomorphic_graphs_have_equal_label_multisets(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, max_nodes=7)
            g2 = permute_graph(g, rng.permutation(g.node_count))
            ref = WlRefinement(depth=2).fit([g, g2])
            for l1, l2 in zip(ref.node_labels(g), ref.node_labels(g2)):
                assert sorted(l1.tolist()) == sorted(l2.tolist())

    def test_table_independent_of_graph_order(self):
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(8)]
        ref_a = WlRefinement(depth=2).fit(graphs)
        ref_b = WlRefinement(depth=2).fit(list(reversed(graphs)))
        assert ref_a.label_table == ref_b.label_table

    def test_feature_counts_partition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, max_nodes=8)
            ref = WlRefinement(depth=2).fit([g])
            counts = ref.feature_counts(g)
            assert sum(counts.values()) == g.node_count * 3
            assert all(c > 0 for c in counts.values())


class TestKernel:
    def test_two_single_nodes_same_label_depth_zero(self):
        a = Graph(node_count=1, edges=(), node_labels=(4,), graph_label=0)
        b = Graph(node_count=1, edges=(), node_labels=(4,), graph_label=0)
        ref = WlRefinement(depth=0).fit([a, b])
        assert kernel(ref, a, b) == 1

    def test_single_edge_self_kernel(self):
        # Both nodes share a label: 4 matched pairs at depth 0, and the
        # identical signatures keep all 4 pairs matched at depth 1.
        g = Graph(node_count=2, edges=((0, 1),), node_labels=(3, 3), graph_label=0)
        ref = WlRefinement(depth=1).fit([g])
        assert kernel(ref, g, g) == 8
        assert brute_force_kernel(ref, g, g) == 8

    def test_disjoint_alphabets_give_zero(self):
        a = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(0, 0, 0), graph_label=0)
        b = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(5, 5, 5), graph_label=0)
        ref = WlRefinement(depth=2).fit([a, b])
        assert kernel(ref, a, b) == 0

    def test_feature_map_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g1 = random_graph(rng, max_nodes=6, num_labels=3)
            g2 = random_graph(rng, max_nodes=6, num_labels=3)
            ref = WlRefinement(depth=2).fit([g1, g2])
            via_features = int(gram_matrix(ref, [g1, g2])[0, 1])
            assert kernel(ref, g1, g2) == brute_force_kernel(ref, g1, g2)
            assert via_features == kernel(ref, g1, g2)

    def test_kernel_symmetric(self):
        rng = np.random.default_rng(6)
        g1, g2 = random_graph(rng), random_graph(rng)
        ref = WlRefinement(depth=2).fit([g1, g2])
        assert kernel(ref, g1, g2) == kernel(ref, g2, g1)

    def test_self_kernel_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, max_nodes=6)
            ref = WlRefinement(depth=2).fit([g])
            value = kernel(ref, g, g)
            floor = g.node_count * 3
            assert value >= floor
            labels = ref.node_labels(g)
            all_distinct = all(len(set(l.tolist())) == len(l) for l in labels)
            assert (value == floor) == all_distinct

    def test_gram_psd(self):
        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(16)]
        ref = WlRefinement(depth=2).fit(graphs)
        gram = normalized_gram(gram_matrix(ref, graphs))
        sym = (gram + gram.T) / 2.0
        assert np.linalg.eigvalsh(sym).min() >= -1e-8


class TestGknHead:
    def test_zero_zeta_matches_unperturbed(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, max_nodes=5)
        ref = WlRefinement(depth=2).fit([g])
        head = GknHead(np.random.default_rng(11), ref.vocab_size, num_classes=3, hidden_dim=8)
        tape = ad.Tape()
        _, p_plain, _ = head.forward(tape, ref.feature_row(g))
        _, p_zero, _ = head.forward(tape, ref.feature_row(g), ad.constant(np.zeros((1, 8))))
        assert np.array_equal(p_plain.data, p_zero.data)

    def test_zero_initialized_head_uniform(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, max_nodes=5)
        ref = WlRefinement(depth=2).fit([g])
        head = GknHead(np.random.default_rng(13), ref.vocab_size, num_classes=4, hidden_dim=8)
        for p in head.params():
            p.data[:] = 0.0
        tape = ad.Tape()
        _, probs, _ = head.forward(tape, ref.feature_row(g))
        assert np.allclose(probs.data, 0.25, atol=1e-15)

    def test_unseen_graph_buckets_to_unk_and_normalizes(self):
        train = Graph(node_count=2, edges=((0, 1),), node_labels=(0, 0), graph_label=0)
        ref = WlRefinement(depth=2).fit([train])
        # Every label of this graph is outside the fitted vocabulary.
        alien = Graph(node_count=3, edges=((0, 1), (1, 2)), node_labels=(9, 9, 9), graph_label=0)
        labels = ref.node_labels(alien)
        assert all(v == UNKNOWN_LABEL for v in labels[1])
        row = ref.feature_row(alien)
        # Raw label 9 is itself unseen, so every count lands on UNK.
        assert row[0, ref.unknown_column] == alien.node_count * 3
        assert row.sum() == alien.node_count * 3
        head = GknHead(np.random.default_rng(14), ref.vocab_size, num_classes=3, hidden_dim=8)
        tape = ad.Tape()
        _, probs, _ = head.forward(tape, row)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
