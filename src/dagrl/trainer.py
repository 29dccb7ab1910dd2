"""Alternating optimization of discriminators, perturbations, and model.

Every batch pair runs, for each branch in turn, (1) gradient ascent on
the branch's domain objective over its discriminator's parameters and (2)
a normalized-gradient update of the visited source graphs' perturbations;
then (3) Adam descent of the model parameters on

    L = L_S - lambda1 * L_DA_C - lambda2 * L_DA_K

with discriminators and perturbations frozen. The phases share forwards,
not gradients: the branches change only at the model's Adam step, so a
branch runs one target forward, recorded for the model and read as
constants by its discriminator (``source_only`` has none). A perturbed
branch adds one source forward with the stored perturbations as a leaf
(for both adversaries) and the model's source forward on the rows the
perturbation step returned: three forwards. An unperturbed branch adds
one source forward, recorded for the model, which its discriminator
also reads as constants: two. Each step returns a :class:`StepRecord`:
its ``LOSS_COLUMNS`` values and, per adversarial branch, the L_DA its
discriminator ascended and that discriminator's domain accuracy on the
batch pair. An epoch's :class:`EpochStats` holds their means. Runs are
deterministic given the config seed: parameter groups and batch orders
draw from independent child streams of one seed sequence, so
structural variants stay bit-comparable.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .adversarial import (
    DomainDiscriminator,
    PerturbationStore,
    discriminator_update,
    domain_accuracy,
    domain_loss,
    domain_loss_from_logits,
    perturbation_step,
)
from .errors import ConfigurationError, ContractViolation
from .fileio import atomic_write
from .gin import GinEncoder, GraphBatch
from .graphs import DomainDataset, PackedGraphs
from .wl import GknHead, WlRefinement

# Each variant's two branches as (kind, perturbed) pairs: p1 drops the
# first branch's perturbation (delta), p2 the second's (zeta), and
# unperturbed both. Every variant but source_only trains one
# discriminator per branch.
VARIANTS = {
    "full": (("gin", True), ("gkn", True)),
    "p1": (("gin", False), ("gkn", True)),
    "p2": (("gin", True), ("gkn", False)),
    "unperturbed": (("gin", False), ("gkn", False)),
    "gin_only_dual": (("gin", True), ("gin", True)),
    "gkn_only_dual": (("gkn", True), ("gkn", True)),
    "source_only": (("gin", False), ("gkn", False)),
}

# The loss columns of an epoch, as a step record holds them and
# ``export_loss_history`` heads them.
LOSS_COLUMNS = ("L_S", "L_DA_C", "L_DA_K", "L")

# Graphs per forward in evaluate, to bound its memory on a large dataset.
# A graph's prediction reads only its own rows, but BLAS may round them by
# an ulp differently at another chunk size, so the size stays fixed.
EVAL_CHUNK = 1024


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

    def __post_init__(self):
        # A bool is an Integral but no count or rate.
        kinds = {"int": numbers.Integral, "float": numbers.Real, "str": str}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kinds[f.type]):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}"
            )
        for name in ("lr", "lambda1", "lambda2", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("lambda1 and lambda2 must be nonnegative")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        for name, low in (("hidden_dim", 1), ("wl_depth", 0), ("batch_size", 1),
                          ("epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be {'at least 1' if low else 'nonnegative'}")


class GinBranch(ad.Module):
    """Message-passing encoder plus classifier head."""

    kind = "gin"

    def __init__(self, rng: np.random.Generator, input_dim: int, num_classes: int,
                 hidden_dim: int):
        self.encoder = GinEncoder(rng, input_dim, hidden_dim=hidden_dim)
        self.head = ad.Mlp(rng, hidden_dim, hidden_dim, num_classes)

    def forward(self, tape: ad.Tape, batch: Batch, perturbation=None):
        _, z = self.encoder.encode_batch(tape, batch.union, perturbation)
        logits = self.head(tape, z)
        return z, ad.softmax(tape, logits), logits


class GknBranch(ad.Module):
    """Refinement-histogram embedding plus classifier head."""

    kind = "gkn"

    def __init__(self, rng: np.random.Generator, refinement: WlRefinement,
                 num_classes: int, hidden_dim: int):
        self.head = GknHead(rng, refinement.vocab_size, num_classes, hidden_dim=hidden_dim)

    def forward(self, tape: ad.Tape, batch: Batch, perturbation=None):
        """``perturbation``: ``None`` or a tensor of shape (graphs, hidden)."""
        return self.head.forward(tape, batch.histograms, perturbation)


@dataclass(frozen=True)
class StepRecord:
    """One step's ``LOSS_COLUMNS`` values, and per adversarial branch the
    L_DA its discriminator ascended and that discriminator's domain
    accuracy on the batch pair (both empty for ``source_only``)."""

    losses: tuple[float, float, float, float]
    adversary_losses: tuple[float, ...]
    domain_accuracies: tuple[float, ...]


@dataclass
class EpochStats:
    """The epoch means of its step records, and the target accuracy."""

    epoch: int
    source_loss: float
    domain_loss_first: float
    domain_loss_second: float
    total_loss: float
    target_accuracy: float | None
    adversary_losses: tuple[float, ...]
    domain_accuracies: tuple[float, ...]


@dataclass
class TrainState:
    """``discriminators`` and ``disc_opts`` are empty for ``source_only``;
    ``store`` holds a slot only for each branch its variant perturbs. The
    state trains only on ``source`` and ``target``, the datasets it was
    built from: the refinement was fitted and the store sized on them.
    ``histogram_rows`` (the fit's rows of those two) and ``eval_batches``
    are keyed by the dataset itself. The epoch number is ``len(history)``."""

    config: TrainConfig
    branches: list
    discriminators: list
    store: PerturbationStore
    model_opt: ad.Adam
    disc_opts: list
    refinement: WlRefinement | None
    rng_source: np.random.Generator
    rng_target: np.random.Generator
    source: DomainDataset
    target: DomainDataset
    histogram_rows: dict = field(repr=False)
    history: list[EpochStats] = field(default_factory=list)
    eval_batches: dict = field(default_factory=dict, init=False, repr=False)

    # The optimizers' lists, built once in build_state: the step loop
    # reads these instead of walking the modules.
    def branch_params(self) -> list[ad.Tensor]:
        return self.model_opt.params

    def discriminator_params(self) -> list[ad.Tensor]:
        return [p for opt in self.disc_opts for p in opt.params]

    def named_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, b in enumerate(self.branches):
            for k, t in b.named_params().items():
                out[f"branch{i}_{b.kind}/{k}"] = t.data
        for i, d in enumerate(self.discriminators):
            for k, t in d.named_params().items():
                out[f"disc{i}/{k}"] = t.data
        out.update(self.store.as_arrays())
        return out


class Batch:
    """Graphs ``indices`` of ``graphs`` in the forms the branches read.

    ``union`` (the GIN disjoint union over ``input_dim`` node labels) and
    ``histograms`` (their rows of the dataset's kernel ``rows``, ``None``
    without a kernel branch) are each built at first use, then shared by
    every branch and phase that reads this batch. A batch never gets the
    state, so the batches a state keeps form no reference cycle with it.
    """

    def __init__(self, graphs: PackedGraphs, indices, input_dim: int, rows):
        self.graphs = graphs
        self.indices = list(indices)
        self.input_dim = input_dim
        self.rows = rows

    @cached_property
    def union(self) -> GraphBatch:
        return GraphBatch(self.graphs, self.indices, self.input_dim)

    @cached_property
    def histograms(self) -> sp.csr_matrix:
        return self.rows[self.indices]


def _check_compatible(a: DomainDataset, b: DomainDataset) -> None:
    """Raise unless ``a`` and ``b`` share one label space and one node-label alphabet."""
    if a.num_classes != b.num_classes:
        raise ConfigurationError(
            f"datasets must share one label space, got {a.num_classes} vs {b.num_classes} classes")
    if a.label_alphabet_size != b.label_alphabet_size:
        raise ConfigurationError(
            f"datasets must share one node-label alphabet, got "
            f"{a.label_alphabet_size} vs {b.label_alphabet_size} labels")


def _check_domains(source: DomainDataset, target: DomainDataset) -> None:
    if len(source) == 0 or len(target) == 0:
        raise ConfigurationError("source and target datasets must be nonempty")
    if source.graph_labels is None:
        raise ConfigurationError("expected a source dataset with graph_labels")
    if target.graph_labels is not None:
        raise ConfigurationError(
            "expected a target-domain dataset with detached labels; build it via subset_as_target"
        )
    _check_compatible(source, target)


def build_state(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> TrainState:
    """Initialize branches, discriminators, perturbations, and optimizers.

    Every parameter group draws from its own child stream of the config
    seed, so two variants sharing a component initialize it identically.
    """
    _check_domains(source, target)
    # Children 0-1: branches, 2-3: discriminators, 4-5: batch orders.
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(6)]
    kinds, perturbed = zip(*VARIANTS[config.variant])
    d, c, hidden = source.label_alphabet_size, source.num_classes, config.hidden_dim

    refinement, histogram_rows = None, {}
    if "gkn" in kinds:
        refinement = WlRefinement(depth=config.wl_depth)
        rows = refinement.fit(PackedGraphs.join((source.graphs, target.graphs)))
        # The union's first len(source) rows are the source's, the rest the target's.
        histogram_rows = {source: rows[:len(source)], target: rows[len(source):]}
    branches = [GinBranch(rng, d, c, hidden) if kind == "gin"
                else GknBranch(rng, refinement, c, hidden)
                for kind, rng in zip(kinds, rngs[:2])]

    adversarial = config.variant != "source_only"
    discriminators = [DomainDiscriminator(rng, hidden, c, hidden_dim=hidden)
                      for rng in rngs[2:4]] if adversarial else []
    # A perturbation slot per kind, as (row offsets, width): one row per
    # source node for GIN's one-hot inputs, one per source graph for the
    # GKN embedding.
    layouts = {"gin": (source.graphs.node_offsets, d),
               "gkn": (np.arange(len(source) + 1), hidden)}
    store = PerturbationStore.zeros(config.epsilon, [
        layouts[kind] if on else None for kind, on in zip(kinds, perturbed)])

    return TrainState(
        config=config,
        branches=branches,
        discriminators=discriminators,
        store=store,
        model_opt=ad.Adam([p for b in branches for p in b.params()], config.lr),
        disc_opts=[ad.Adam(disc.params(), config.lr) for disc in discriminators],
        refinement=refinement,
        rng_source=rngs[4],
        rng_target=rngs[5],
        source=source,
        target=target,
        histogram_rows=histogram_rows,
    )


def source_loss(tape: ad.Tape, outputs, labels):
    """Mean cross-entropy of the branches' ``(z, p, logits)`` source forwards."""
    terms = [ad.softmax_cross_entropy(tape, logits, labels) for _, _, logits in outputs]
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(tape, total, term)
    return ad.scale(tape, total, 1.0 / len(terms))


def fuse_predictions(prob_blocks) -> np.ndarray:
    """Argmax of the mean of the branch probability rows."""
    stacked = np.stack([np.asarray(b) for b in prob_blocks])
    return stacked.mean(axis=0).argmax(axis=1)


class _Adversary(NamedTuple):
    """What one branch's discriminator and perturbation phases hand the step."""

    loss: float  # the L_DA the discriminator ascended
    accuracy: float  # the discriminator's domain accuracy on that L_DA's logits
    perturbation: ad.Tensor | None  # the batch's updated perturbations, if any


def _adversary_step(state: TrainState, b: int, src: Batch, target, source) -> _Adversary:
    """Branch ``b``'s discriminator ascent, then its perturbation step.

    ``source`` is an unperturbed branch's source forward, ``None`` for a
    perturbed one: then one source forward, with the stored perturbations
    as a leaf, serves both. The discriminator's own tape reads the
    forwards' values as constants. Call it with the branches frozen, so
    that only the leaf gets a gradient.
    """
    branch, disc, opt = state.branches[b], state.discriminators[b], state.disc_opts[b]
    leaf = None
    if source is None:
        # One leaf for the whole batch; each graph's gradient is its rows.
        leaf = ad.parameter(state.store.gather(b, src.indices))
        tape = ad.Tape()
        source = branch.forward(tape, src, leaf)
    z_s, p_s, _ = source
    disc_tape = ad.Tape()
    # The operations of domain_loss, in its order, keeping the logits.
    logits = [disc.logits(disc_tape, ad.constant(z.data), ad.constant(p.data))
              for z, p in ((z_s, p_s), target)]
    loss = domain_loss_from_logits(disc_tape, *logits)
    accuracy = domain_accuracy(*(t.data for t in logits))
    discriminator_update(disc_tape, loss, opt)
    opt.zero_grad()
    if leaf is None:
        return _Adversary(loss.item(), accuracy, None)
    with ad.frozen(opt.params):
        logit = disc.logits(tape, z_s, p_s)
        # Disjoint graphs: the gradient of the summed log D splits into
        # each graph's own gradient.
        tape.backward(ad.sum_rows(tape, ad.log_sigmoid(tape, logit)))
    return _Adversary(loss.item(), accuracy,
                      ad.constant(perturbation_step(state.store, b, src.indices, leaf.grad)))


def _train_step(state: TrainState, src: Batch, labels, tgt: Batch) -> StepRecord:
    """Both adversaries, then one model step."""
    cfg = state.config
    tape = ad.Tape()
    targets = [branch.forward(tape, tgt)[:2]
               for branch, _ in zip(state.branches, state.discriminators)]
    # An unperturbed branch's one source forward serves its discriminator
    # and the model.
    sources = [branch.forward(tape, src) if state.store.rows[b] is None else None
               for b, branch in enumerate(state.branches)]
    with ad.frozen(state.branch_params()):
        adversaries = [_adversary_step(state, b, src, target, sources[b])
                       for b, target in enumerate(targets)]
    with ad.frozen(state.discriminator_params()):
        # Only an adversarial branch is perturbed, so source_only, with no
        # adversaries, has both sources already.
        sources = [out if out is not None else branch.forward(tape, src, adversary.perturbation)
                   for out, branch, adversary in zip_longest(sources, state.branches, adversaries)]
        l_s = source_loss(tape, sources, labels)
        total, terms = l_s, []
        for disc, lam, out, target in zip(state.discriminators, (cfg.lambda1, cfg.lambda2),
                                          sources, targets):
            term = domain_loss(tape, disc, *out[:2], *target) if lam else None
            if term is not None:
                total = ad.add(tape, total, ad.scale(tape, term, -lam))
            terms.append(term)
        tape.backward(total)
    state.model_opt.step()
    state.model_opt.zero_grad()
    # A branch's L_DA column: the model phase's term when its lambda > 0,
    # else its adversary's L_DA, and 0.0 without a discriminator.
    columns = [0.0 if adversary is None else adversary.loss if term is None else term.item()
               for _, term, adversary in zip_longest(state.branches, terms, adversaries)]
    return StepRecord((l_s.item(), *columns, total.item()),
                      tuple(a.loss for a in adversaries), tuple(a.accuracy for a in adversaries))


def train_epoch(state: TrainState, source: DomainDataset, target: DomainDataset) -> TrainState:
    """One pass over the source data with cycled target batches.

    Each step gathers one source and one target batch and runs
    :func:`_train_step` on them, at one OpenBLAS thread. The state takes
    only the ``source`` and ``target`` it was built from.
    """
    if source is not state.source or target is not state.target:
        raise ConfigurationError(
            "a state takes only the source and target datasets it was built from")
    size = state.config.batch_size
    src_order = state.rng_source.permutation(len(source.graphs)).tolist()
    # Target batches cycle through one target permutation.
    tgt_order = np.resize(state.rng_target.permutation(len(target.graphs)),
                          len(src_order)).tolist()
    labels = np.array(source.graph_labels)[src_order]
    src_hist, tgt_hist = map(state.histogram_rows.get, (source, target))

    records = []
    with _one_blas_thread():
        for start in range(0, len(src_order), size):
            rows = slice(start, start + size)
            src = Batch(source.graphs, src_order[rows], source.label_alphabet_size, src_hist)
            tgt = Batch(target.graphs, tgt_order[rows], target.label_alphabet_size, tgt_hist)
            records.append(_train_step(state, src, labels[rows], tgt))

        epoch = len(state.history)
        losses, adversary_losses, domain_accuracies = (
            tuple(float(np.mean(column)) for column in zip(*values))
            for values in zip(*map(astuple, records)))
        for name, value in zip(LOSS_COLUMNS, losses):
            if not np.isfinite(value):
                raise ContractViolation(f"non-finite {name} in epoch {epoch}: {losses}")
        accuracy = evaluate(state, target) if target.eval_labels is not None else None
    state.history.append(
        EpochStats(epoch, *losses, accuracy, adversary_losses, domain_accuracies))
    return state


def _openblas_threads():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None.

    None means another BLAS, which is left alone. ``RTLD_NOLOAD`` opens
    only the copy numpy loaded, never a second one; where the platform
    has no such mode, or that copy is not loaded, the lookup gives None.
    """
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(str(path), mode=mode)
        except OSError:
            return None
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block, then restore it.

    Training's products are too small to gain from a second thread, whose
    helper spins after each burst of work and burns a CPU. Processes
    forked inside the block inherit the count, so a block inside them
    finds it at 1 and calls no setter: setting the count in a forked
    process restarts OpenBLAS's thread pool there, and its idle thread
    spins as well.
    """
    threads = _openblas_threads()
    before = threads[0]() if threads else 1
    if before == 1:
        yield
        return
    set_ = threads[1]
    set_(1)
    try:
        yield
    finally:
        set_(before)


def train(config: TrainConfig, source: DomainDataset, target: DomainDataset) -> TrainState:
    """Build a state and train it for ``config.epochs`` epochs."""
    state = build_state(config, source, target)
    for _ in range(config.epochs):
        train_epoch(state, source, target)
    return state


def evaluate(state: TrainState, dataset: DomainDataset) -> float:
    """Accuracy of the fused branch prediction; perturbations excluded.

    ``dataset`` must have the state's classes and node-label alphabet. Its
    batches are built once and kept on ``state``, with the rows of a
    dataset outside the fitted pair refined then and held by them alone.
    """
    _check_compatible(state.source, dataset)
    if len(dataset) == 0:
        raise ConfigurationError("cannot evaluate on a dataset with no graphs")
    labels = dataset.eval_labels if dataset.graph_labels is None else dataset.graph_labels
    if labels is None:
        raise ConfigurationError("dataset has no labels to evaluate against")
    if dataset not in state.eval_batches:
        rows = state.histogram_rows.get(dataset)
        if rows is None and state.refinement is not None:
            rows = state.refinement.histograms(dataset.graphs)
        graphs = range(len(dataset))
        state.eval_batches[dataset] = [Batch(dataset.graphs, graphs[s:s + EVAL_CHUNK],
                                             dataset.label_alphabet_size, rows)
                                       for s in graphs[::EVAL_CHUNK]]
    predictions = []
    with ad.frozen(state.branch_params()):
        for batch in state.eval_batches[dataset]:
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
        fh.write(",".join(("epoch", *LOSS_COLUMNS, "target_accuracy")) + "\n")
        for e in history:
            row = (e.epoch, e.source_loss, e.domain_loss_first, e.domain_loss_second,
                   e.total_loss, e.target_accuracy)
            fh.write(",".join("" if v is None else repr(v) for v in row) + "\n")

