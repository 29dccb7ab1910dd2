import re

import numpy as np
import pytest
from scipy.special import logit as inverse_sigmoid

from dagrl import autodiff as ad
from dagrl.adversarial import (
    DomainDiscriminator,
    PerturbationStore,
    discriminator_update,
    domain_accuracy,
    domain_loss,
    domain_loss_from_logits,
    perturbation_step,
    segment_norms,
)
from dagrl.errors import ContractViolation


def make_disc(seed=0, repr_dim=8, num_classes=2):
    return DomainDiscriminator(np.random.default_rng(seed), repr_dim, num_classes, hidden_dim=8)


class TestDomainLoss:
    def test_constant_half_discriminator(self):
        # Zero-initialized parameters give D = 0.5 on every input.
        disc = make_disc()
        for p in disc.params():
            p.data[:] = 0.0
        rng = np.random.default_rng(1)
        tape = ad.Tape()
        loss = domain_loss(tape, disc,
                           ad.constant(rng.standard_normal((3, 8))),
                           ad.constant(rng.uniform(size=(3, 2))),
                           ad.constant(rng.standard_normal((5, 8))),
                           ad.constant(rng.uniform(size=(5, 2))))
        assert loss.item() == pytest.approx(2.0 * np.log(0.5), abs=1e-12)

    def test_hand_computed_probabilities(self):
        # One source graph with D = 0.8, one target with D = 0.3.
        tape = ad.Tape()
        loss = domain_loss_from_logits(
            tape,
            ad.constant([[inverse_sigmoid(0.8)]]),
            ad.constant([[inverse_sigmoid(0.3)]]),
        )
        assert loss.item() == pytest.approx(np.log(0.8) + np.log(0.7), abs=1e-12)

    def test_perfect_discriminator_approaches_zero_from_below(self):
        tape = ad.Tape()
        loss = domain_loss_from_logits(tape, ad.constant([[30.0]]), ad.constant([[-30.0]]))
        assert loss.item() < 0.0
        assert loss.item() > -1e-6

    def test_empty_batch_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ContractViolation):
            domain_loss_from_logits(tape, ad.constant(np.zeros((0, 1))),
                                    ad.constant(np.zeros((3, 1))))

    def test_swap_antisymmetry(self):
        # Replacing D by 1 - D (negated logits) and swapping the batches
        # leaves the value unchanged.
        rng = np.random.default_rng(2)
        s = rng.standard_normal((4, 1))
        t = rng.standard_normal((6, 1))
        tape = ad.Tape()
        base = domain_loss_from_logits(tape, ad.constant(s), ad.constant(t))
        swapped = domain_loss_from_logits(tape, ad.constant(-t), ad.constant(-s))
        assert base.item() == pytest.approx(swapped.item(), abs=1e-12)


class TestPerturbationStep:
    def make_store(self, eps=0.5):
        # Slot 0: two graphs of 3 and 2 rows of width 2; slot 1: one row of width 4 each.
        return PerturbationStore.zeros(eps, [(np.array([0, 3, 5]), 2), (np.array([0, 1, 2]), 4)])

    def test_step_from_origin_lands_on_sphere(self):
        store = self.make_store(eps=0.5)
        grad = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, 1.0]])
        perturbation_step(store, 0, [0], grad)
        assert np.linalg.norm(store.as_arrays()["delta/0"]) == pytest.approx(0.5, abs=1e-12)
        assert store.steps == 1 and store.degenerate_steps == 0
        assert store.max_step_error <= 1e-12

    def test_zero_gradient_is_noop(self):
        store = self.make_store()
        store.as_arrays()["delta/1"][:] = 0.123
        before = store.rows[0].copy()
        perturbation_step(store, 0, [1], np.zeros((2, 2)))
        assert np.array_equal(store.rows[0], before)
        assert store.steps == 1 and store.degenerate_steps == 1
        assert store.max_step_error == 0.0

    def test_outward_step_projected_back(self):
        eps = 0.5
        store = self.make_store(eps=eps)
        rng = np.random.default_rng(3)
        current = rng.standard_normal((1, 4))
        current *= eps / np.linalg.norm(current)  # on the sphere
        store.as_arrays()["zeta/0"][:] = current
        grad = -current.copy()  # descent direction points outward
        perturbation_step(store, 1, [0], grad)
        # Projection oracle: raw step then rescale onto the ball.
        raw = current - eps * grad / np.linalg.norm(grad)
        expected = raw * (eps / np.linalg.norm(raw))
        assert np.allclose(store.as_arrays()["zeta/0"], expected, atol=1e-12)
        assert np.linalg.norm(store.as_arrays()["zeta/0"]) == pytest.approx(eps, abs=1e-12)

    def test_norm_never_exceeds_epsilon(self):
        store = self.make_store(eps=0.7)
        rng = np.random.default_rng(4)
        for _ in range(50):
            perturbation_step(store, 0, [0, 1], rng.standard_normal((5, 2)))
            for key, arr in store.as_arrays().items():
                assert np.linalg.norm(arr) <= 0.7 + 1e-12, key
        assert store.max_post_norm <= 0.7 + 1e-12

    def test_counters_accumulate(self):
        store = self.make_store()
        perturbation_step(store, 0, [0], np.ones((3, 2)))
        perturbation_step(store, 1, [1, 0], np.ones((2, 4)))
        assert store.steps == 3 and store.degenerate_steps == 0
        assert store.max_post_norm == pytest.approx(0.5, abs=1e-12)

    def test_gradient_shape_mismatch_rejected(self):
        store = self.make_store()
        with pytest.raises(ContractViolation, match="gradient shape"):
            perturbation_step(store, 0, [1, 0], np.ones((4, 2)))

    @pytest.mark.parametrize("index", [-2, -1, 2])
    def test_index_outside_the_slot_rejected(self, index):
        store = self.make_store()
        with pytest.raises(ContractViolation, match=re.escape(f"index {index} outside [0, 2)")):
            perturbation_step(store, 0, [index], np.ones((2, 2)))
        assert store.steps == 0
        assert not store.rows[0].any()

    @pytest.mark.parametrize("index", [-2, -1, 2])
    def test_gather_outside_the_slot_rejected(self, index):
        with pytest.raises(ContractViolation, match=re.escape(f"index {index} outside [0, 2)")):
            self.make_store().gather(0, [index])

    @pytest.mark.parametrize("indices", [[1.0], [True, False], ["1"], np.array([0.5])], ids=repr)
    def test_gather_of_indices_that_are_not_integers_rejected(self, indices):
        with pytest.raises(ContractViolation, match="indices must be integers"):
            self.make_store().gather(0, indices)

    def test_repeated_index_rejected(self):
        # Each graph's rows would be stepped twice from the same entries and
        # the scatter would keep only one of them.
        store = self.make_store()
        before = {k: v.copy() for k, v in store.as_arrays().items()}
        with pytest.raises(ContractViolation, match="graph index 0 repeats"):
            perturbation_step(store, 0, [0, 1, 0], np.ones((8, 2)))
        assert store.steps == 0
        assert all(np.array_equal(v, before[k]) for k, v in store.as_arrays().items())


def reference_step(entries, eps, gradients):
    """The per-graph update on a list of arrays, one graph at a time.

    Every norm is ``segment_norms`` of the graph alone, so the batched step
    must match it bit for bit. Returns (steps, degenerate steps,
    max |step length - eps|, max post-step norm).
    """
    def norm(x):
        return float(segment_norms(x, [0, len(x)])[0])

    degenerate, errors, posts = 0, [0.0], [0.0]
    for index in sorted(gradients):
        grad, current = gradients[index], entries[index]
        gnorm = norm(grad)
        if gnorm < 1e-12:
            degenerate += 1
            posts.append(norm(current))
            continue
        step = (eps / gnorm) * grad
        raw = current - step
        raw_norm = norm(raw)
        new = raw * (eps / raw_norm) if raw_norm > eps else raw
        entries[index] = new
        errors.append(abs(norm(step) - eps))
        posts.append(norm(new))
    return len(gradients), degenerate, max(errors), max(posts)


def test_flat_step_matches_per_graph_reference():
    eps = 0.6
    counts = [3, 0, 2, 4, 1, 2]  # graph 1 has no rows; graph 3 is never in a batch
    store = PerturbationStore.zeros(eps, [(np.concatenate(([0], np.cumsum(counts))), 3)])
    reference = [np.zeros((n, 3)) for n in counts]
    rng = np.random.default_rng(16)
    steps = degenerate = 0
    step_error = post_norm = 0.0
    for round_ in range(8):
        indices = [int(i) for i in rng.permutation([0, 1, 2, 4, 5])]
        grads = {i: rng.standard_normal((counts[i], 3)) * 10.0 ** rng.integers(-3, 3)
                 for i in indices}
        if round_ in (2, 5):
            grads[2] = np.zeros((2, 3))  # degenerate, like the 0-row graph 1 every round
        stacked = store.gather(0, indices)
        assert np.array_equal(stacked, np.vstack([reference[i] for i in indices]))
        perturbation_step(store, 0, indices, np.vstack([grads[i] for i in indices]))
        n, d, err, post = reference_step(reference, eps, grads)
        steps, degenerate = steps + n, degenerate + d
        step_error, post_norm = max(step_error, err), max(post_norm, post)
    arrays = store.as_arrays()
    assert list(arrays) == [f"delta/{i}" for i in range(len(counts))]
    for i, expected in enumerate(reference):
        assert np.array_equal(arrays[f"delta/{i}"], expected), i
    assert not np.any(arrays["delta/3"])
    assert (store.steps, store.degenerate_steps) == (steps, degenerate) == (40, 10)
    assert store.max_step_error == step_error
    assert store.max_post_norm == post_norm


class TestSegmentNorms:
    def test_matches_frobenius_norm_per_segment(self):
        x = np.random.default_rng(17).standard_normal((7, 3))
        offsets = [0, 2, 3, 7]
        expected = [np.linalg.norm(x[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert np.allclose(segment_norms(x, offsets), expected, rtol=1e-14, atol=0.0)

    def test_empty_segments_in_the_middle_and_at_the_end_are_zero(self):
        x = np.arange(1.0, 7.0).reshape(3, 2)
        norms = segment_norms(x, [0, 1, 1, 3, 3])
        assert norms[1] == 0.0 and norms[3] == 0.0
        assert norms[0] == np.sqrt(5.0)
        assert norms[2] == np.sqrt(9.0 + 16.0 + 25.0 + 36.0)

    def test_all_empty(self):
        assert np.array_equal(segment_norms(np.zeros((0, 4)), [0, 0, 0]), [0.0, 0.0])


def test_all_degenerate_batch_keeps_entries_and_step_error():
    store = PerturbationStore.zeros(0.5, [(np.array([0, 3, 5, 5]), 2)])
    perturbation_step(store, 0, [0], np.ones((3, 2)))
    error = store.max_step_error
    store.rows[0][3:] = [[0.1, -0.0], [-0.2, 0.3]]
    before = store.rows[0].copy()
    perturbation_step(store, 0, [2, 1, 0], np.zeros((5, 2)))
    assert store.rows[0].tobytes() == before.tobytes()
    assert (store.steps, store.degenerate_steps) == (4, 3)
    assert store.max_step_error == error
    assert store.max_post_norm == pytest.approx(0.5, abs=1e-12)


class TestDiscriminatorUpdate:
    def separable_batches(self, rng):
        src = rng.standard_normal((8, 8)) + 2.0
        tgt = rng.standard_normal((8, 8)) - 2.0
        p = np.full((8, 2), 0.5)
        return src, tgt, p

    def test_ascent_increases_objective(self):
        rng = np.random.default_rng(5)
        disc = make_disc(seed=6)
        opt = ad.Adam(disc.params(), lr=1e-2)
        src, tgt, p = self.separable_batches(rng)

        def compute():
            tape = ad.Tape()
            loss = domain_loss(tape, disc, ad.constant(src), ad.constant(p),
                               ad.constant(tgt), ad.constant(p))
            return tape, loss

        tape, before = compute()
        discriminator_update(tape, before, opt)
        opt.zero_grad()
        _, after = compute()
        assert after.item() > before.item()

    def test_zero_gradient_leaves_params(self):
        disc = make_disc(seed=7)
        opt = ad.Adam(disc.params(), lr=1e-2)
        snapshot = [p.data.copy() for p in disc.params()]
        for p in disc.params():
            p.grad = np.zeros_like(p.data)
        opt.step()
        for p, s in zip(disc.params(), snapshot):
            assert np.array_equal(p.data, s)

    def test_two_discriminators_update_independently(self):
        rng = np.random.default_rng(8)
        disc_a, disc_b = make_disc(seed=9), make_disc(seed=10)
        opt_a = ad.Adam(disc_a.params(), lr=1e-2)
        frozen = [p.data.copy() for p in disc_b.params()]
        src, tgt, p = self.separable_batches(rng)
        tape = ad.Tape()
        loss = domain_loss(tape, disc_a, ad.constant(src), ad.constant(p),
                           ad.constant(tgt), ad.constant(p))
        discriminator_update(tape, loss, opt_a)
        for p_b, s in zip(disc_b.params(), frozen):
            assert np.array_equal(p_b.data, s)


def test_discriminator_gradients_match_finite_differences():
    from helpers import finite_difference, max_relative_error

    rng = np.random.default_rng(11)
    disc = make_disc(seed=12)
    src = rng.standard_normal((3, 8))
    tgt = rng.standard_normal((4, 8))
    p_src = rng.uniform(size=(3, 2))
    p_tgt = rng.uniform(size=(4, 2))

    def run():
        tape = ad.Tape()
        loss = domain_loss(tape, disc, ad.constant(src), ad.constant(p_src),
                           ad.constant(tgt), ad.constant(p_tgt))
        return tape, loss

    tape, loss = run()
    tape.backward(loss)
    for t in disc.params():
        numeric = finite_difference(lambda: run()[1].item(), t.data)
        assert max_relative_error(t.grad, numeric) <= 1e-4


def test_domain_accuracy_counts_correct_sides():
    # A source row is right above sigmoid 0.5, a target row at or below
    # it; a logit of exactly 0 (sigmoid 0.5) counts for the target only.
    source = np.array([[3.0], [0.0], [-1e4], [1e4]])
    target = np.array([[-2.0], [0.0], [5.0]])
    assert domain_accuracy(source, target) == 4 / 7
    assert domain_accuracy(np.array([[0.0]]), np.array([[0.0]])) == 0.5
