"""Per-branch domain discriminators and perturbation learning.

Each branch owns a small discriminator that scores a graph
representation conditioned on the branch's class prediction
(concatenated inputs). The domain objective is

    L_DA = E_src[log D(z, p)] + E_tgt[log(1 - D(z, p))],

maximized over discriminator parameters and minimized over per-graph
source perturbations. Perturbations move by a normalized gradient step
of exact length epsilon and are projected back onto the epsilon
Frobenius ball after every update (the l2 projected-gradient step).
They live in one flat array per branch, indexed like the packed graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .errors import ContractViolation
from .graphs import gather_rows

DEGENERATE_GRADIENT_NORM = 1e-12


class DomainDiscriminator(ad.Mlp):
    """Sigmoid classifier over concatenated [representation, prediction]."""

    def __init__(self, rng: np.random.Generator, repr_dim: int, num_classes: int,
                 hidden_dim: int):
        super().__init__(rng, repr_dim + num_classes, hidden_dim, 1)

    def logits(self, tape: ad.Tape, z: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
        return self(tape, ad.concat(tape, z, p))


def domain_loss_from_logits(tape: ad.Tape, source_logits: ad.Tensor,
                            target_logits: ad.Tensor) -> ad.Tensor:
    """Batch-mean domain objective from raw discriminator logits."""
    if source_logits.shape[0] == 0 or target_logits.shape[0] == 0:
        raise ContractViolation("domain loss needs nonempty source and target batches")
    src_term = ad.mean_rows(tape, ad.log_sigmoid(tape, source_logits))
    tgt_term = ad.mean_rows(tape, ad.log_sigmoid(tape, ad.scale(tape, target_logits, -1.0)))
    return ad.add(tape, src_term, tgt_term)


def domain_loss(tape: ad.Tape, disc: DomainDiscriminator,
                source_repr: ad.Tensor, source_pred: ad.Tensor,
                target_repr: ad.Tensor, target_pred: ad.Tensor) -> ad.Tensor:
    """L_DA for one branch; source inputs are the perturbed ones."""
    s_logits = disc.logits(tape, source_repr, source_pred)
    t_logits = disc.logits(tape, target_repr, target_pred)
    return domain_loss_from_logits(tape, s_logits, t_logits)


def discriminator_update(tape: ad.Tape, loss: ad.Tensor, optimizer: ad.Adam) -> None:
    """Gradient ascent on the domain objective (descends the negated loss)."""
    tape.backward(ad.scale(tape, loss, -1.0))
    optimizer.step()


@dataclass
class PerturbationStore:
    """Persistent per-source-graph perturbations for the two branches.

    Slot ``b`` ("delta", then "zeta") perturbs branch ``b``: source graph
    ``i`` owns rows ``offsets[b][i]:offsets[b][i + 1]`` of ``rows[b]``. An
    unperturbed branch's slot is ``None`` in both lists.
    Entries stay inside the epsilon Frobenius ball. The counters cover
    every step so far, no-ops (``degenerate_steps``) included; the maxima
    are of |step length - epsilon| and of the norm a step leaves.
    """

    epsilon: float
    rows: list[np.ndarray | None]
    offsets: list[np.ndarray | None]
    steps: int = 0
    degenerate_steps: int = 0
    max_step_error: float = 0.0
    max_post_norm: float = 0.0

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ContractViolation(f"epsilon must be positive and finite, got {self.epsilon}")

    @classmethod
    def zeros(cls, epsilon: float, layouts) -> "PerturbationStore":
        """One zero slot per ``(offsets, width)`` layout; ``None`` leaves the slot out."""
        return cls(epsilon=epsilon,
                   rows=[None if layout is None else np.zeros((int(layout[0][-1]), layout[1]))
                         for layout in layouts],
                   offsets=[None if layout is None else np.asarray(layout[0], dtype=np.int64)
                            for layout in layouts])

    def gather(self, slot: int, indices) -> np.ndarray | None:
        """The entries of graphs ``indices`` in slot ``slot``, stacked (a copy), or ``None``."""
        if self.rows[slot] is None:
            return None
        row_index, _ = gather_rows(self.offsets[slot], indices)
        return self.rows[slot][row_index]

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Each graph's entry as a view: ``delta/<i>`` for slot 0, ``zeta/<i>`` for slot 1."""
        out = {}
        for name, rows, offsets in zip(("delta", "zeta"), self.rows, self.offsets):
            if rows is None:
                continue
            bounds = offsets.tolist()
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                out[f"{name}/{i}"] = rows[lo:hi]
        return out


def segment_norms(x: np.ndarray, offsets) -> np.ndarray:
    """Frobenius norm of each segment ``x[offsets[i]:offsets[i + 1]]``.

    One fixed numpy reduction, no BLAS: row sums of squares, summed per
    segment with ``np.add.reduceat``, then ``sqrt``. ``offsets`` spans the
    rows of ``x``. An empty segment's norm is 0; ``reduceat`` alone would
    give it the next row's value, or raise for an empty last segment, so
    only the non-empty segments' starts reach it.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sums = np.zeros(len(offsets) - 1)
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat((x * x).sum(axis=1), offsets[:-1][nonempty])
    return np.sqrt(sums)


def perturbation_step(store: PerturbationStore, slot: int, indices,
                      grad: np.ndarray) -> np.ndarray:
    """Apply the normalized-gradient update to the graphs ``indices`` of one slot.

    ``grad`` is the gradient of the stacked entries ``store.gather(slot,
    indices)``; each graph's gradient is its rows. Each entry moves by
    exactly epsilon along -grad/||grad||_F, then is rescaled onto the ball
    if the raw result leaves it. The whole batch moves at once: per-graph
    scales from :func:`segment_norms`, repeated onto the rows, one raw
    step, one shrink and one scatter. Gradients with Frobenius norm below
    1e-12 are documented no-ops, not errors: those entries keep their
    bytes. A repeated index raises ``ContractViolation``. Returns the
    updated entries, stacked like ``grad``: what ``store.gather(slot,
    indices)`` now gives.
    """
    if len(set(indices)) != len(indices):
        repeated = next(i for i, n in Counter(indices).items() if n > 1)
        raise ContractViolation(f"graph index {repeated} repeats in one perturbation step")
    row_index, local_offsets = gather_rows(store.offsets[slot], indices)
    entries = store.rows[slot][row_index]
    if grad.shape != entries.shape:
        raise ContractViolation(
            f"gradient shape {grad.shape} != perturbation shape {entries.shape}")
    eps = store.epsilon
    counts = np.diff(local_offsets)
    gnorm = segment_norms(grad, local_offsets)
    live = ~(gnorm < DEGENERATE_GRADIENT_NORM)  # a NaN norm steps, and shows in the entries
    scale = np.zeros_like(gnorm)
    scale[live] = eps / gnorm[live]
    step = np.repeat(scale, counts)[:, None] * grad
    raw = entries - step
    raw_norm = segment_norms(raw, local_offsets)
    shrink = np.ones_like(raw_norm)
    outside = raw_norm > eps
    shrink[outside] = eps / raw_norm[outside]
    moved = np.where(np.repeat(live, counts)[:, None], raw * np.repeat(shrink, counts)[:, None],
                     entries)
    store.rows[slot][row_index] = moved
    store.steps += len(counts)
    store.degenerate_steps += int(len(counts) - live.sum())
    step_error = np.abs(segment_norms(step, local_offsets)[live] - eps)
    store.max_step_error = float(np.max(step_error, initial=store.max_step_error))
    store.max_post_norm = float(np.max(segment_norms(moved, local_offsets),
                                       initial=store.max_post_norm))
    return moved


def domain_accuracy(source_logits: np.ndarray, target_logits: np.ndarray) -> float:
    """Fraction of graphs whose domain the discriminator logits get right.

    A source row is right when its sigmoid is above 0.5, a target row
    otherwise.
    """
    correct = int((expit(source_logits) > 0.5).sum()) + int((expit(target_logits) <= 0.5).sum())
    return correct / (len(source_logits) + len(target_logits))
