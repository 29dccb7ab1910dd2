"""Alternating optimization of discriminators, perturbations, and model.

Every batch pair runs three phases in order: (1) gradient ascent on each
branch's domain objective over discriminator parameters only, (2) a
normalized-gradient update of the visited source graphs' perturbations,
(3) Adam descent of the model parameters on

    L = L_S - lambda1 * L_DA_C - lambda2 * L_DA_K

with discriminators and perturbations frozen. The phases never share a
gradient computation. Runs are deterministic given the config seed:
parameter groups and batch orders draw from independent child streams of
one seed sequence, so structural variants stay bit-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .adversarial import (
    DomainDiscriminator,
    PerturbationStore,
    discriminator_update,
    domain_accuracy,
    domain_loss,
    perturbation_step,
)
from .errors import ConfigurationError, ContractViolation
from .fileio import atomic_write
from .gin import ClassifierHead, GinEncoder, GraphBatch
from .graphs import SOURCE, TARGET, DomainDataset
from .wl import GknHead, WlRefinement

# Branch structures; perturbations are switched by delta_enabled/zeta_enabled.
VARIANTS = ("full", "gin_only_dual", "gkn_only_dual", "source_only")
PERTURBATION_SLOTS = ("delta", "zeta")


@dataclass
class TrainConfig:
    epochs: int = 20
    lr: float = 1e-4
    hidden_dim: int = 64
    batch_size: int = 64
    lambda1: float = 0.1
    lambda2: float = 0.1
    epsilon: float = 1.0
    wl_depth: int = 2
    seed: int = 0
    variant: str = "full"
    # Perturbation switches for the first (delta) and second (zeta)
    # branch; source_only forces both off.
    delta_enabled: bool = True
    zeta_enabled: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}"
            )
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("lambda1 and lambda2 must be nonnegative")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be nonnegative")


class GinBranch:
    """Message-passing encoder plus classifier head."""

    kind = "gin"

    def __init__(self, rng: np.random.Generator, input_dim: int, num_classes: int,
                 hidden_dim: int):
        self.input_dim = input_dim
        self.encoder = GinEncoder(rng, input_dim, hidden_dim=hidden_dim)
        self.head = ClassifierHead(rng, hidden_dim, num_classes)

    def forward(self, tape: ad.Tape, batch: Batch, perturbation=None):
        _, z = self.encoder.encode_batch(tape, batch.union, perturbation)
        logits = self.head.logits(tape, z)
        return z, ad.softmax(tape, logits), logits

    def perturbation_shape(self, g) -> tuple[int, int]:
        return (g.node_count, self.input_dim)

    def params(self):
        return self.encoder.params() + self.head.params()

    def named_params(self):
        out = {f"encoder/{k}": v for k, v in self.encoder.named_params().items()}
        out.update({f"head/{k}": v for k, v in self.head.named_params().items()})
        return out


class GknBranch:
    """Refinement-histogram embedding plus classifier head."""

    kind = "gkn"

    def __init__(self, rng: np.random.Generator, refinement: WlRefinement,
                 num_classes: int, hidden_dim: int):
        self.hidden_dim = hidden_dim
        self.head = GknHead(rng, refinement.vocab_size, num_classes, hidden_dim=hidden_dim)

    def forward(self, tape: ad.Tape, batch: Batch, perturbation=None):
        """``perturbation``: ``None``, an array or a tensor of shape (graphs, hidden)."""
        zeta = perturbation
        if zeta is not None and not isinstance(zeta, ad.Tensor):
            zeta = ad.constant(zeta)
        return self.head.forward(tape, batch.histograms, zeta)

    def perturbation_shape(self, g) -> tuple[int, int]:
        return (1, self.hidden_dim)

    def params(self):
        return self.head.params()

    def named_params(self):
        return {f"head/{k}": v for k, v in self.head.named_params().items()}


@dataclass
class EpochStats:
    epoch: int
    source_loss: float
    domain_loss_first: float
    domain_loss_second: float
    total_loss: float
    target_accuracy: float | None


@dataclass
class TrainState:
    config: TrainConfig
    branches: list
    discriminators: list | None
    store: PerturbationStore | None
    model_opt: ad.Adam
    disc_opts: list | None
    refinement: WlRefinement | None
    rng_source: np.random.Generator
    rng_target: np.random.Generator
    input_dim: int
    num_classes: int
    epoch: int = 0
    history: list[EpochStats] = field(default_factory=list)

    def perturbation_enabled(self) -> tuple[bool, bool]:
        cfg = self.config
        if cfg.variant == "source_only":
            return (False, False)
        return (cfg.delta_enabled, cfg.zeta_enabled)

    def branch_params(self) -> list[ad.Tensor]:
        return [p for b in self.branches for p in b.params()]

    def discriminator_params(self) -> list[ad.Tensor]:
        return [p for d in self.discriminators or () for p in d.params()]

    def named_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, b in enumerate(self.branches):
            for k, t in b.named_params().items():
                out[f"branch{i}_{b.kind}/{k}"] = t.data
        if self.discriminators:
            for i, d in enumerate(self.discriminators):
                for k, t in d.named_params().items():
                    out[f"disc{i}/{k}"] = t.data
        if self.store is not None:
            out.update(self.store.as_arrays())
        return out


class Batch:
    """The graphs ``dataset.graphs[indices]`` in the forms the branches read.

    ``union`` (the GIN disjoint union) and ``histograms`` (the GKN
    refinement-histogram rows) are each built at first use, then shared by
    every branch and phase that reads this batch.
    """

    def __init__(self, state: TrainState, dataset: DomainDataset, indices):
        self.dataset = dataset
        self.indices = list(indices)
        self._input_dim = state.input_dim
        self._refinement = state.refinement

    @cached_property
    def union(self) -> GraphBatch:
        return GraphBatch(self.dataset.packed, self.indices, self._input_dim)

    @cached_property
    def histograms(self) -> sp.csr_matrix:
        return self._refinement.dataset_features(self.dataset)[self.indices]


def _check_domains(source: DomainDataset, target: DomainDataset) -> None:
    if len(source.graphs) == 0 or len(target.graphs) == 0:
        raise ConfigurationError("source and target datasets must be nonempty")
    if source.domain != SOURCE:
        raise ConfigurationError(f"expected a source-domain dataset, got {source.domain!r}")
    if target.domain != TARGET:
        raise ConfigurationError(
            "expected a target-domain dataset with detached labels; build it via subset_as_target"
        )
    if source.num_classes != target.num_classes:
        raise ConfigurationError(
            f"source and target must share one label space, got "
            f"{source.num_classes} vs {target.num_classes} classes"
        )


def build_state(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> TrainState:
    """Initialize branches, discriminators, perturbations, and optimizers.

    Every parameter group draws from its own child stream of the config
    seed, so two variants sharing a component initialize it identically.
    """
    _check_domains(source, target)
    children = np.random.SeedSequence(config.seed).spawn(6)
    rng_branch_a = np.random.default_rng(children[0])
    rng_branch_b = np.random.default_rng(children[1])
    rng_disc_a = np.random.default_rng(children[2])
    rng_disc_b = np.random.default_rng(children[3])

    d = source.label_alphabet_size
    c = source.num_classes
    hidden = config.hidden_dim

    refinement = None
    if config.variant != "gin_only_dual":
        refinement = WlRefinement(depth=config.wl_depth).fit(
            list(source.graphs) + list(target.graphs)
        )

    if config.variant == "gin_only_dual":
        branches = [GinBranch(rng_branch_a, d, c, hidden), GinBranch(rng_branch_b, d, c, hidden)]
    elif config.variant == "gkn_only_dual":
        branches = [GknBranch(rng_branch_a, refinement, c, hidden),
                    GknBranch(rng_branch_b, refinement, c, hidden)]
    else:
        branches = [GinBranch(rng_branch_a, d, c, hidden),
                    GknBranch(rng_branch_b, refinement, c, hidden)]

    discriminators = None
    disc_opts = None
    store = None
    if config.variant != "source_only":
        discriminators = [DomainDiscriminator(rng_disc_a, hidden, c, hidden_dim=hidden),
                          DomainDiscriminator(rng_disc_b, hidden, c, hidden_dim=hidden)]
        disc_opts = [ad.Adam(disc.params(), config.lr) for disc in discriminators]
        store = PerturbationStore.zeros(
            config.epsilon,
            [branches[0].perturbation_shape(g) for g in source.graphs],
            [branches[1].perturbation_shape(g) for g in source.graphs],
        )

    return TrainState(
        config=config,
        branches=branches,
        discriminators=discriminators,
        store=store,
        model_opt=ad.Adam([p for b in branches for p in b.params()], config.lr),
        disc_opts=disc_opts,
        refinement=refinement,
        rng_source=np.random.default_rng(children[4]),
        rng_target=np.random.default_rng(children[5]),
        input_dim=d,
        num_classes=c,
    )


def source_loss(tape: ad.Tape, branches, batch: Batch, labels, perturbations_per_branch=None):
    """Mean cross-entropy over the branch heads on a labeled source batch.

    Returns the loss tensor and each branch's (representation,
    probabilities) pair for reuse by the domain terms.
    """
    labels = list(labels)
    if any(l is None for l in labels):
        raise ContractViolation("unlabeled graph in a source batch")
    if perturbations_per_branch is None:
        perturbations_per_branch = [None] * len(branches)
    ce_terms = []
    outputs = []
    for branch, pert in zip(branches, perturbations_per_branch):
        z, p, logits = branch.forward(tape, batch, pert)
        outputs.append((z, p))
        ce_terms.append(ad.softmax_cross_entropy(tape, logits, labels))
    total = ce_terms[0]
    for term in ce_terms[1:]:
        total = ad.add(tape, total, term)
    return ad.scale(tape, total, 1.0 / len(ce_terms)), outputs


def fuse_predictions(prob_blocks) -> np.ndarray:
    """Argmax of the mean of the branch probability rows."""
    stacked = np.stack([np.asarray(b) for b in prob_blocks])
    return stacked.mean(axis=0).argmax(axis=1)


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


def _store_constants(state: TrainState, branch_idx: int, indices):
    """The batch's stored perturbations for one branch, stacked; ``None`` if off."""
    enabled = state.perturbation_enabled()[branch_idx]
    if not enabled or state.store is None:
        return None
    entries = state.store.slot(PERTURBATION_SLOTS[branch_idx])
    return np.vstack([entries[i] for i in indices])


def _phase_discriminators(state: TrainState, src: Batch, tgt: Batch):
    """Branches are frozen: each backward reaches one discriminator only."""
    values = []
    with ad.frozen(state.branch_params()):
        for b, (branch, disc, opt) in enumerate(
                zip(state.branches, state.discriminators, state.disc_opts)):
            tape = ad.Tape()
            z_s, p_s, _ = branch.forward(tape, src, _store_constants(state, b, src.indices))
            z_t, p_t, _ = branch.forward(tape, tgt)
            loss = domain_loss(tape, disc, z_s, p_s, z_t, p_t)
            discriminator_update(tape, loss, opt)
            opt.zero_grad()
            values.append(loss.item())
    return values


def _phase_perturbations(state: TrainState, src: Batch):
    """Branches and discriminators are frozen: only the batch leaf gets a gradient."""
    enabled = state.perturbation_enabled()
    with ad.frozen(state.branch_params() + state.discriminator_params()):
        for b, branch in enumerate(state.branches):
            if not enabled[b]:
                continue
            slot = PERTURBATION_SLOTS[b]
            entries = state.store.slot(slot)
            blocks = [entries[i] for i in src.indices]
            # One leaf for the whole batch; each graph's gradient is its rows.
            leaf = ad.parameter(np.vstack(blocks))
            tape = ad.Tape()
            z_s, p_s, _ = branch.forward(tape, src, leaf)
            logit = state.discriminators[b].logits(tape, z_s, p_s)
            # Disjoint graphs: the gradient of the summed log D splits into
            # each graph's own gradient.
            tape.backward(ad.sum_rows(tape, ad.log_sigmoid(tape, logit)))
            grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            bounds = np.cumsum([block.shape[0] for block in blocks])[:-1]
            perturbation_step(state.store, slot,
                              dict(zip(src.indices, np.split(grad, bounds))))


def _phase_model(state: TrainState, src: Batch, labels, tgt: Batch):
    """Discriminators are frozen: the backward reaches the branches only."""
    cfg = state.config
    with ad.frozen(state.discriminator_params()):
        tape = ad.Tape()
        perts = [_store_constants(state, b, src.indices) for b in range(len(state.branches))]
        l_s, src_outputs = source_loss(tape, state.branches, src, labels, perts)
        total = l_s
        lambdas = (cfg.lambda1, cfg.lambda2)
        da_values: list[float | None] = [None, None]
        for b, branch in enumerate(state.branches):
            if lambdas[b] == 0.0 or state.discriminators is None:
                continue
            z_t, p_t, _ = branch.forward(tape, tgt)
            da = domain_loss(tape, state.discriminators[b], *src_outputs[b], z_t, p_t)
            da_values[b] = da.item()
            total = ad.add(tape, total, ad.scale(tape, da, -lambdas[b]))
        tape.backward(total)
    state.model_opt.step()
    state.model_opt.zero_grad()
    return l_s.item(), total.item(), da_values


def train_epoch(state: TrainState, source: DomainDataset, target: DomainDataset) -> TrainState:
    """One pass over the source data with cycled target batches.

    Each step gathers one source and one target batch; all three phases
    read them.
    """
    _check_domains(source, target)
    cfg = state.config
    src_order = [int(i) for i in state.rng_source.permutation(len(source.graphs))]
    tgt_order = [int(i) for i in state.rng_target.permutation(len(target.graphs))]

    batch_stats = []
    cursor = 0
    for src_idx in _chunks(src_order, cfg.batch_size):
        tgt_idx = [tgt_order[(cursor + k) % len(tgt_order)] for k in range(len(src_idx))]
        cursor += len(src_idx)
        src = Batch(state, source, src_idx)
        tgt = Batch(state, target, tgt_idx)
        labels = [source.graphs[i].graph_label for i in src_idx]

        if state.discriminators is not None:
            da_phase1 = _phase_discriminators(state, src, tgt)
            _phase_perturbations(state, src)
        else:
            da_phase1 = [0.0, 0.0]
        l_s, total, da_phase3 = _phase_model(state, src, labels, tgt)
        da = [p3 if p3 is not None else p1 for p3, p1 in zip(da_phase3, da_phase1)]
        batch_stats.append((l_s, da[0], da[1], total))

    means = [float(np.mean([s[i] for s in batch_stats])) for i in range(4)]
    for value in means:
        if not np.isfinite(value):
            raise ContractViolation(f"non-finite loss in epoch {state.epoch}: {means}")
    accuracy = evaluate(state, target) if target.eval_labels is not None else None
    state.history.append(EpochStats(
        epoch=state.epoch,
        source_loss=means[0],
        domain_loss_first=means[1],
        domain_loss_second=means[2],
        total_loss=means[3],
        target_accuracy=accuracy,
    ))
    state.epoch += 1
    return state


def train(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> TrainState:
    state = build_state(config, source, target)
    for _ in range(config.epochs):
        train_epoch(state, source, target)
    return state


def evaluate(state: TrainState, dataset: DomainDataset) -> float:
    """Accuracy of the fused branch prediction; perturbations excluded."""
    if dataset.eval_labels is not None:
        labels = dataset.eval_labels
    else:
        labels = tuple(g.graph_label for g in dataset.graphs)
        if any(l is None for l in labels):
            raise ConfigurationError("dataset has no labels to evaluate against")
    predictions = []
    with ad.frozen(state.branch_params()):
        for indices in _chunks(range(len(dataset.graphs)), state.config.batch_size):
            batch = Batch(state, dataset, indices)
            probs = []
            for branch in state.branches:
                _, p, _ = branch.forward(ad.Tape(), batch)
                probs.append(p.data)
            predictions.append(fuse_predictions(probs))
    predicted = np.concatenate(predictions)
    return float(np.mean(predicted == np.asarray(labels)))


def export_loss_history(path, history) -> None:
    """Write per-epoch losses and target accuracy as CSV, atomically."""
    with atomic_write(path) as fh:
        fh.write("epoch,L_S,L_DA_C,L_DA_K,L,target_accuracy\n")
        for e in history:
            acc = "" if e.target_accuracy is None else repr(e.target_accuracy)
            fh.write(f"{e.epoch},{e.source_loss!r},{e.domain_loss_first!r},"
                     f"{e.domain_loss_second!r},{e.total_loss!r},{acc}\n")


def discriminator_domain_accuracy(state: TrainState, source: DomainDataset,
                                  target: DomainDataset, branch_idx: int = 0) -> float:
    """Post-training domain accuracy of one branch's discriminator.

    Source graphs enter with their trained perturbations, matching what
    the discriminator saw during training.
    """
    if state.discriminators is None:
        raise ConfigurationError("this variant trains no discriminators")
    branch = state.branches[branch_idx]
    disc = state.discriminators[branch_idx]
    src = Batch(state, source, range(len(source.graphs)))
    tgt = Batch(state, target, range(len(target.graphs)))
    with ad.frozen(branch.params()):
        tape = ad.Tape()
        z_s, p_s, _ = branch.forward(tape, src, _store_constants(state, branch_idx, src.indices))
        z_t, p_t, _ = branch.forward(tape, tgt)
    return domain_accuracy(disc, z_s.data, p_s.data, z_t.data, p_t.data)

