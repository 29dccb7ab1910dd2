"""Finite-difference check of one whole training step.

Criterion 1 and the unit tests check each component alone; here the
gradients that ``trainer._train_step`` hands to its three updates are
compared with central differences of the objectives they serve:

- each discriminator's Adam gets the gradient of ``-L_DA`` (its ascent),
  with the branches as the step found them and the source forward
  perturbed by the stored perturbations;
- each perturbation step gets the gradient of ``sum log D`` over the
  batch's source graphs with respect to their perturbations, through
  the discriminator as its ascent left it;
- the model's Adam gets the gradient of
  ``L = L_S - lambda1 * L_DA_C - lambda2 * L_DA_K``, with the
  discriminators after their ascent and the perturbations after their
  step.

Each check runs inside the wrapped update, before it applies, so the
parameters are exactly those the step differentiated at.
"""

from dataclasses import replace

import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl import trainer
from dagrl.adversarial import domain_loss
from dagrl.graphs import DomainDataset, pack
from dagrl.trainer import VARIANTS, TrainConfig, build_state, source_loss
from helpers import (finite_difference, max_relative_error, random_graph,
                     stored_perturbation, whole_batch)

GRAD_TOL = 1e-4  # criterion 1's tolerance and finite-difference step
FD_STEP = 1e-4


def objective(state, src, labels, tgt, perturbations):
    """README's model objective ``L_S - lambda1 * L_DA_C - lambda2 * L_DA_K``, as a number."""
    tape = ad.Tape()
    sources = [branch.forward(tape, src, p) for branch, p in zip(state.branches, perturbations)]
    total = source_loss(tape, sources, labels).item()
    lambdas = (state.config.lambda1, state.config.lambda2)
    for b, (disc, lam) in enumerate(zip(state.discriminators, lambdas)):
        total -= lam * domain_value(state, b, sources[b], tgt)
    return total


def domain_value(state, b, source, tgt):
    """Branch ``b``'s ``L_DA`` of a source forward ``(z, p, logits)`` against ``tgt``."""
    tape = ad.Tape()
    z_t, p_t, _ = state.branches[b].forward(tape, tgt)
    return domain_loss(tape, state.discriminators[b], *source[:2], z_t, p_t).item()


def sum_log_d(state, b, src, perturbation):
    """``sum log D`` over the source graphs of branch ``b``, perturbed by ``perturbation``."""
    tape = ad.Tape()
    z, p, _ = state.branches[b].forward(tape, src, perturbation)
    logit = state.discriminators[b].logits(tape, z, p)
    return float(ad.log_sigmoid(tape, logit).data.sum())


def worst_error(params, grads, f):
    """Largest relative error of ``grads`` against central differences of ``f`` in ``params``."""
    return max(max_relative_error(g, finite_difference(f, p.data, h=FD_STEP))
               for p, g in zip(params, grads))


def tiny_pair():
    rng = np.random.default_rng(3)
    graphs = [random_graph(rng, max_nodes=5, num_labels=3, edge_prob=0.5) for _ in range(7)]
    source = DomainDataset(graphs=pack(graphs[:4]), num_classes=2, label_alphabet_size=3,
                           graph_labels=(0, 1, 1, 0))
    target = DomainDataset(graphs=pack(graphs[4:]), num_classes=2, label_alphabet_size=3)
    return source, target


CONFIGS = {
    **{variant: {"variant": variant} for variant in VARIANTS},
    "full_lambda1_zero": {"lambda1": 0.0},
}


@pytest.mark.parametrize("name", CONFIGS)
def test_step_gradients_match_finite_differences(monkeypatch, name):
    source, target = tiny_pair()
    config = replace(TrainConfig(hidden_dim=4, lr=1e-2, lambda1=0.5, lambda2=0.3, epsilon=0.5,
                                 wl_depth=1), **CONFIGS[name])
    state = build_state(config, source, target)
    src, tgt = whole_batch(state, source), whole_batch(state, target)
    labels = np.array(source.graph_labels)
    # A first step moves the discriminators and the perturbations off their start.
    trainer._train_step(state, src, labels, tgt)

    errors = {}
    all_params = state.branch_params() + state.discriminator_params()

    def checked(update, check):
        """``update``, run after ``check``, which records nothing on a tape."""
        def wrapped(*args):
            with ad.frozen(all_params):
                check(*args)
            return update(*args)
        return wrapped

    for b, opt in enumerate(state.disc_opts):
        def ascent(b=b, opt=opt):
            grads = [p.grad.copy() for p in opt.params]
            perturbation = stored_perturbation(state, b, src)
            source_out = state.branches[b].forward(ad.Tape(), src, perturbation)
            errors[f"ascent{b}"] = worst_error(opt.params, grads,
                                               lambda: -domain_value(state, b, source_out, tgt))
        opt.step = checked(opt.step, ascent)

    def leaf(store, b, indices, grad):
        rows = store.gather(b, indices)
        errors[f"leaf{b}"] = max_relative_error(grad, finite_difference(
            lambda: sum_log_d(state, b, src, ad.constant(rows)), rows, h=FD_STEP))
    monkeypatch.setattr(trainer, "perturbation_step", checked(trainer.perturbation_step, leaf))

    def model():
        grads = [p.grad.copy() for p in state.model_opt.params]
        perturbations = [stored_perturbation(state, b, src) for b in range(len(state.branches))]
        errors["model"] = worst_error(state.model_opt.params, grads,
                                      lambda: objective(state, src, labels, tgt, perturbations))
    state.model_opt.step = checked(state.model_opt.step, model)

    trainer._train_step(state, src, labels, tgt)
    perturbed = [b for b, (_, on) in enumerate(VARIANTS[config.variant]) if on]
    ascents = range(len(state.discriminators))
    assert set(errors) == {"model", *(f"ascent{b}" for b in ascents),
                           *(f"leaf{b}" for b in perturbed)}
    assert max(errors.values()) <= GRAD_TOL, errors
