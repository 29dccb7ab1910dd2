"""Per-branch domain discriminators and perturbation learning.

Each branch owns a small discriminator that scores a graph
representation conditioned on the branch's class prediction
(concatenated inputs). The domain objective is

    L_DA = E_src[log D(z, p)] + E_tgt[log(1 - D(z, p))],

maximized over discriminator parameters and minimized over per-graph
source perturbations. Perturbations move by a normalized gradient step
of exact length epsilon and are projected back onto the epsilon
Frobenius ball after every update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation

DEGENERATE_GRADIENT_NORM = 1e-12


class DomainDiscriminator:
    """Sigmoid classifier over concatenated [representation, prediction]."""

    def __init__(self, rng: np.random.Generator, repr_dim: int, num_classes: int,
                 hidden_dim: int = 64):
        self.lin1 = ad.Linear(rng, repr_dim + num_classes, hidden_dim)
        self.lin2 = ad.Linear(rng, hidden_dim, 1)

    def logits(self, tape: ad.Tape, z: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
        if z.shape[0] != p.shape[0]:
            raise ContractViolation(f"{z.shape[0]} representations vs {p.shape[0]} predictions")
        joint = ad.concat(tape, [z, p], axis=1)
        return self.lin2(tape, ad.relu(tape, self.lin1(tape, joint)))

    def probabilities(self, z: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Evaluation-only domain probabilities, clamped inside (0, 1)."""
        tape = ad.Tape()
        logit = self.logits(tape, ad.constant(z), ad.constant(p))
        return ad.sigmoid_probabilities(logit.data)

    def params(self):
        return self.lin1.params() + self.lin2.params()

    def named_params(self) -> dict[str, ad.Tensor]:
        return {
            "lin1/weight": self.lin1.weight,
            "lin1/bias": self.lin1.bias,
            "lin2/weight": self.lin2.weight,
            "lin2/bias": self.lin2.bias,
        }


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
class PerturbationStep:
    """Audit record for one per-graph perturbation update."""
    graph_index: int
    raw_step_norm: float  # length of the normalized-gradient step, 0.0 for no-ops
    post_norm: float      # Frobenius norm after projection


@dataclass
class PerturbationStore:
    """Persistent per-source-graph perturbations for the two branches.

    Slot 0 ("delta") perturbs the first branch, slot 1 ("zeta") the
    second. Entries stay inside the epsilon Frobenius ball at all times.
    """

    epsilon: float
    delta: list[np.ndarray]
    zeta: list[np.ndarray]
    audit: list[PerturbationStep] = field(default_factory=list)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ContractViolation(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def zeros(cls, epsilon: float, delta_shapes, zeta_shapes) -> "PerturbationStore":
        return cls(epsilon=epsilon,
                   delta=[np.zeros(s) for s in delta_shapes],
                   zeta=[np.zeros(s) for s in zeta_shapes])

    def slot(self, name: str) -> list[np.ndarray]:
        if name == "delta":
            return self.delta
        if name == "zeta":
            return self.zeta
        raise ContractViolation(f"unknown perturbation slot {name!r}")

    def max_norm(self) -> float:
        norms = [np.linalg.norm(a) for a in self.delta + self.zeta if a.size]
        return max(norms, default=0.0)

    def as_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for i, a in enumerate(self.delta):
            out[f"delta/{i}"] = a
        for i, a in enumerate(self.zeta):
            out[f"zeta/{i}"] = a
        return out


def perturbation_step(store: PerturbationStore, slot: str,
                      gradients: dict[int, np.ndarray]) -> list[PerturbationStep]:
    """Apply the normalized-gradient update to the given per-graph gradients.

    Each entry moves by exactly epsilon along -grad/||grad||_F, then is
    rescaled onto the ball if the raw result leaves it. Gradients with
    Frobenius norm below 1e-12 are documented no-ops, not errors.
    """
    entries = store.slot(slot)
    eps = store.epsilon
    records = []
    for index in sorted(gradients):
        grad = gradients[index]
        current = entries[index]
        if grad.shape != current.shape:
            raise ContractViolation(
                f"gradient shape {grad.shape} != perturbation shape {current.shape}"
            )
        gnorm = float(np.linalg.norm(grad))
        if gnorm < DEGENERATE_GRADIENT_NORM:
            records.append(PerturbationStep(index, 0.0, float(np.linalg.norm(current))))
            continue
        step = (eps / gnorm) * grad
        raw = current - step
        raw_norm = float(np.linalg.norm(raw))
        new = raw * (eps / raw_norm) if raw_norm > eps else raw
        entries[index] = new
        records.append(PerturbationStep(index, float(np.linalg.norm(step)),
                                        float(np.linalg.norm(new))))
    store.audit.extend(records)
    return records


def domain_accuracy(disc: DomainDiscriminator, source_repr: np.ndarray,
                    source_pred: np.ndarray, target_repr: np.ndarray,
                    target_pred: np.ndarray) -> float:
    """Fraction of graphs whose domain the discriminator gets right."""
    p_src = disc.probabilities(source_repr, source_pred)
    p_tgt = disc.probabilities(target_repr, target_pred)
    correct = int((p_src > 0.5).sum()) + int((p_tgt <= 0.5).sum())
    return correct / (p_src.shape[0] + p_tgt.shape[0])
