import re

import numpy as np
import pytest
import scipy.sparse as sp

from dagrl import autodiff as ad
from dagrl.errors import ContractViolation
from dagrl.gin import GinEncoder, GraphBatch
from dagrl.graphs import DomainDataset, Graph, PackedGraphs, pack, subset_as_source
from helpers import (
    encode_graph,
    finite_difference,
    fit_wl,
    max_relative_error,
    path_graph,
    permute_graph,
    random_graph,
)


def make_encoder(seed=0, input_dim=3, hidden_dim=8):
    rng = np.random.default_rng(seed)
    return GinEncoder(rng, input_dim=input_dim, hidden_dim=hidden_dim)


def test_zero_delta_matches_unperturbed():
    enc = make_encoder()
    g = random_graph(np.random.default_rng(1), max_nodes=6)
    tape = ad.Tape()
    _, z_plain = encode_graph(enc, tape, g)
    tape2 = ad.Tape()
    _, z_zero = encode_graph(enc, tape2, g, delta=ad.constant(np.zeros((g.node_count, 3))))
    assert np.array_equal(z_plain.data, z_zero.data)


def test_single_node_is_mlp_of_own_features():
    enc = make_encoder()
    g = Graph(node_count=1, edges=(), node_labels=(2,))
    tape = ad.Tape()
    h, z = encode_graph(enc, tape, g)
    # No neighbors: the aggregation term is zero, so layer 1 sees x.
    expected = np.array([[0.0, 0.0, 1.0]])
    for layer in (enc.layer0, enc.layer1):
        pre = np.maximum(expected @ layer.lin1.weight.data + layer.lin1.bias.data, 0.0)
        expected = pre @ layer.lin2.weight.data + layer.lin2.bias.data
    assert np.allclose(h.data, expected, atol=1e-12)
    assert np.array_equal(z.data, h.data)


def test_isomorphic_graphs_share_representation():
    enc = make_encoder(seed=3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, max_nodes=7)
        perm = rng.permutation(g.node_count)
        g2 = permute_graph(g, perm)
        tape = ad.Tape()
        _, z1 = encode_graph(enc, tape, g)
        tape2 = ad.Tape()
        _, z2 = encode_graph(enc, tape2, g2)
        assert np.max(np.abs(z1.data - z2.data)) <= 1e-9


def test_node_embeddings_are_permutation_equivariant():
    enc = make_encoder(seed=4)
    rng = np.random.default_rng(8)
    g = random_graph(rng, max_nodes=6, edge_prob=0.6)
    perm = rng.permutation(g.node_count)
    g2 = permute_graph(g, perm)
    tape = ad.Tape()
    h1, _ = encode_graph(enc, tape, g)
    tape2 = ad.Tape()
    h2, _ = encode_graph(enc, tape2, g2)
    assert np.max(np.abs(h2.data[list(perm)] - h1.data)) <= 1e-9


def test_two_hop_locality():
    # Attaching a disconnected component must not change existing nodes'
    # embeddings (2 layers see at most the 2-hop neighborhood).
    enc = make_encoder(seed=6)
    g = path_graph(4, labels=[0, 1, 2, 1])
    extra = Graph(node_count=7, edges=g.edges + ((4, 5), (5, 6)),
                  node_labels=g.node_labels + (2, 0, 1))
    tape = ad.Tape()
    h_small, _ = encode_graph(enc, tape, g)
    tape2 = ad.Tape()
    h_big, _ = encode_graph(enc, tape2, extra)
    assert np.allclose(h_big.data[:4], h_small.data, atol=1e-12)


def test_delta_shape_mismatch_rejected():
    enc = make_encoder()
    g = path_graph(3)
    tape = ad.Tape()
    with pytest.raises(ContractViolation):
        encode_graph(enc, tape, g, delta=ad.constant(np.zeros((2, 3))))


def test_loss_gradient_wrt_delta_is_nonzero():
    enc = make_encoder(seed=9)
    head = ad.Mlp(np.random.default_rng(10), 8, 8, 2)
    g = random_graph(np.random.default_rng(11), max_nodes=5)
    tape = ad.Tape()
    delta = ad.parameter(np.zeros((g.node_count, 3)))
    _, z = encode_graph(enc, tape, g, delta=delta)
    loss = ad.softmax_cross_entropy(tape, head(tape, z), [1])
    tape.backward(loss)
    assert delta.grad is not None
    assert np.linalg.norm(delta.grad) > 0.0


def test_delta_gradient_matches_finite_differences():
    enc = make_encoder(seed=12)
    head = ad.Mlp(np.random.default_rng(13), 8, 8, 3)
    g = random_graph(np.random.default_rng(14), max_nodes=5)
    delta = ad.parameter(0.1 * np.random.default_rng(15).standard_normal((g.node_count, 3)))

    def run():
        tape = ad.Tape()
        _, z = encode_graph(enc, tape, g, delta=delta)
        return tape, ad.softmax_cross_entropy(tape, head(tape, z), [2])

    tape, loss = run()
    tape.backward(loss)
    numeric = finite_difference(lambda: run()[1].item(), delta.data)
    assert max_relative_error(delta.grad, numeric) <= 1e-4


class TestHead:
    def test_zero_initialized_head_is_uniform(self):
        head = ad.Mlp(np.random.default_rng(0), 8, 8, 4)
        for p in head.params():
            p.data[:] = 0.0
        tape = ad.Tape()
        z = ad.constant(np.random.default_rng(1).standard_normal((1, 8)))
        p = ad.softmax(tape, head(tape, z))
        assert np.allclose(p.data, 0.25, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        head = ad.Mlp(np.random.default_rng(2), 8, 8, 5)
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        p = ad.softmax(tape, head(tape, ad.constant(rng.standard_normal((7, 8)))))
        assert np.max(np.abs(p.data.sum(axis=1) - 1.0)) <= 1e-12

    def test_positive_logit_scaling_preserves_argmax(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 4))
        for c in (0.5, 2.0, 10.0):
            tape = ad.Tape()
            p1 = ad.softmax(tape, ad.constant(logits))
            p2 = ad.softmax(tape, ad.constant(c * logits))
            assert np.array_equal(p1.data.argmax(axis=1), p2.data.argmax(axis=1))


def test_batch_matches_per_graph_encode():
    enc = make_encoder(seed=20)
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, max_nodes=5) for _ in range(4)]
    tape = ad.Tape()
    _, z_batch = enc.encode_batch(tape, GraphBatch(pack(graphs), range(4), 3))
    singles = []
    for g in graphs:
        t = ad.Tape()
        _, z = encode_graph(enc, t, g)
        singles.append(z.data)
    assert np.allclose(z_batch.data, np.vstack(singles), atol=1e-12)


def reference_batch(graphs, input_dim):
    """Per-graph construction: one CSR per graph, then ``block_diag``."""
    features, blocks, members = [], [], []
    for k, g in enumerate(graphs):
        x = np.zeros((g.node_count, input_dim))
        for i, label in enumerate(g.node_labels):
            x[i, label] = 1.0
        features.append(x)
        rows = [u for u, v in g.edges] + [v for u, v in g.edges]
        cols = [v for u, v in g.edges] + [u for u, v in g.edges]
        blocks.append(sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                    shape=(g.node_count, g.node_count)))
        members += [k] * g.node_count
    total = len(members)
    readout = sp.csr_matrix((np.ones(total), (members, np.arange(total))),
                            shape=(len(graphs), total))
    return np.vstack(features), sp.block_diag(blocks, format="csr"), readout


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


class TestPackedBatch:
    @pytest.fixture
    def records(self):
        rng = np.random.default_rng(30)
        graphs = [random_graph(rng, max_nodes=7, num_labels=4, edge_prob=0.5)
                  for _ in range(12)]
        graphs[3] = Graph(node_count=0, edges=(), node_labels=())
        graphs[8] = Graph(node_count=4, edges=(), node_labels=(3, 0, 2, 1))
        return graphs

    @pytest.fixture
    def packed(self, records):
        return pack(records)

    def test_matches_per_graph_reference(self, records, packed):
        indices = np.random.default_rng(31).permutation(len(packed))
        batch = GraphBatch(packed, indices, 4)
        features, adjacency, readout = reference_batch([records[i] for i in indices], 4)
        assert batch.graphs is indices
        assert np.array_equal(batch.features, features)
        assert_same_csr(batch.adjacency, adjacency)
        assert_same_csr(batch.readout, readout)

    def test_subset_with_empty_graph_matches_reference(self, records, packed):
        indices = [8, 3, 0, 3]
        batch = GraphBatch(packed, indices, 4)
        features, adjacency, readout = reference_batch([records[i] for i in indices], 4)
        assert np.array_equal(batch.features, features)
        assert_same_csr(batch.adjacency, adjacency)
        assert_same_csr(batch.readout, readout)

    def test_label_outside_alphabet_names_the_label(self, packed):
        # The alphabet is checked once, when a dataset is built.
        with pytest.raises(ContractViolation, match="node label 3 "):
            DomainDataset(graphs=packed, num_classes=1, label_alphabet_size=3,
                          graph_labels=(0,) * 12)

    @pytest.mark.parametrize("index", [-2, -1, 12])
    def test_index_outside_the_graphs_rejected(self, packed, index):
        with pytest.raises(ContractViolation, match=re.escape(f"index {index} outside [0, 12)")):
            GraphBatch(packed, [0, index], 4)

    def test_wrong_shape_perturbation_rejected(self, packed):
        batch = GraphBatch(packed, [0, 1], 4)
        wrong = np.zeros((batch.features.shape[0] + 1, 4))
        with pytest.raises(ContractViolation, match="shape mismatch"):
            batch.feature_tensor(ad.Tape(), ad.parameter(wrong))

    def test_gathered_kernel_rows_equal_feature_rows(self, records, packed):
        ref = fit_wl(2, packed)
        indices = [5, 3, 11, 0, 8]
        rows = ref.histograms(packed)[indices]
        for k, i in enumerate(indices):
            assert_same_csr(rows[k], ref.feature_row(records[i]))


def assert_symmetric_with_sorted_indices(a):
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    same_row = rows[1:] == rows[:-1]
    # Strictly rising columns within each row: sorted, with no duplicates.
    assert np.all(np.diff(a.indices)[same_row] > 0)
    # Converting the transpose back to CSR sorts its indices.
    assert_same_csr(a, sp.csr_matrix(a.T))


class TestBackwardPremises:
    """``ad.aggregate`` and ``ad.segment_sum`` backwards rest on the batch's structure."""

    @pytest.fixture(params=["shuffled", "repeated", "subset", "join"])
    def batch(self, request):
        rng = np.random.default_rng(40)
        graphs = [random_graph(rng, max_nodes=7, num_labels=4, edge_prob=0.5)
                  for _ in range(10)]
        graphs += [Graph(node_count=0, edges=(), node_labels=()),
                   Graph(node_count=5, edges=((3, 1), (0, 4), (2, 0), (4, 3), (1, 2)),
                         node_labels=(0, 1, 2, 3, 0))]
        dataset = DomainDataset(graphs=pack(graphs), num_classes=1, label_alphabet_size=4,
                                graph_labels=(0,) * len(graphs))
        subset = subset_as_source(dataset, [11, 4, 10, 7, 0, 2])
        packed = {"shuffled": dataset.graphs, "repeated": dataset.graphs,
                  "subset": subset.graphs,
                  "join": PackedGraphs.join((subset.graphs, dataset.graphs))}[request.param]
        indices = rng.permutation(len(packed))
        if request.param == "repeated":
            indices = np.concatenate([indices, indices[:4]])
        return GraphBatch(packed, indices, 4)

    def test_adjacency_is_symmetric_with_sorted_indices(self, batch):
        assert_symmetric_with_sorted_indices(batch.adjacency)

    @staticmethod
    def signed_zero_gradient(rows, width, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((rows, width))
        g[rng.random(g.shape) < 0.2] = 0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        return g

    @pytest.mark.parametrize("width", [3, 32])
    def test_products_equal_the_transposed_ones(self, batch, width):
        a, r = batch.adjacency, batch.readout
        g = self.signed_zero_gradient(a.shape[0], width, seed=width)
        assert (a @ g).tobytes() == (a.T @ g).tobytes()
        pooled = self.signed_zero_gradient(r.shape[0], width, seed=width + 1)
        # The tape stores a fresh contribution plus 0.0, which turns
        # np.repeat's -0.0 into the product's +0.0.
        repeated = np.repeat(pooled, np.diff(r.indptr), axis=0) + 0.0
        assert repeated.tobytes() == (r.T @ pooled).tobytes()

    @staticmethod
    def stored_gradient(build, rows, g):
        """The gradient the tape stores on a leaf when ``g`` flows into ``build``'s output."""
        x = ad.parameter(np.zeros((rows, g.shape[1])))
        tape = ad.Tape()
        out = build(tape, x)
        loss = ad.Tensor(np.zeros((1, 1)), requires_grad=True)
        tape.record(loss, (out,), lambda _: (g.copy(),))
        tape.backward(loss)
        return x.grad

    def test_records_store_the_two_record_gradients(self, batch):
        a, r = batch.adjacency, batch.readout
        n = a.shape[0]
        # A stored gradient never holds -0.0, so a backward never sees one.
        g = self.signed_zero_gradient(n, 8, seed=3) + 0.0
        # The replaced records: add handed g to both inputs, then the
        # adjacency product added A.T @ g.
        old = g + a.T @ g
        new = self.stored_gradient(lambda tape, x: ad.aggregate(tape, a, x), n, g)
        assert new.tobytes() == old.tobytes()
        pooled = self.signed_zero_gradient(r.shape[0], 8, seed=4) + 0.0
        new = self.stored_gradient(lambda tape, x: ad.segment_sum(tape, r, x), n, pooled)
        assert new.tobytes() == (r.T @ pooled).tobytes()
