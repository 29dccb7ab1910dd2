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
also reads as constants: two. Runs are deterministic given the config
seed: parameter groups and batch orders draw from independent child
streams of one seed sequence, so structural variants stay
bit-comparable.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .adversarial import (
    DomainDiscriminator,
    PerturbationStore,
    discriminator_update,
    domain_loss,
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

# The loss columns of an epoch, as ``_train_step`` returns them and
# ``export_loss_history`` heads them.
LOSS_COLUMNS = ("L_S", "L_DA_C", "L_DA_K", "L")

# Graphs per forward in evaluate; fixed, so predictions do not depend on
# the training batch size.
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
    """``discriminators`` and ``disc_opts`` are empty for ``source_only``;
    ``store`` holds a slot only for each branch its variant perturbs. The
    state trains only on ``source`` and ``target``, the datasets it was
    built from: the refinement was fitted and the store sized on them."""

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
    epoch: int = 0
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
    """Graphs ``indices`` of ``dataset`` in the forms the branches read.

    ``union`` (the GIN disjoint union) and ``histograms`` (the GKN
    refinement-histogram rows) are each built at first use, then shared by
    every branch and phase that reads this batch.
    """

    def __init__(self, state: TrainState, dataset: DomainDataset, indices):
        self.dataset = dataset
        self.indices = list(indices)
        self._input_dim = state.source.label_alphabet_size
        self._refinement = state.refinement

    @cached_property
    def union(self) -> GraphBatch:
        return GraphBatch(self.dataset.graphs, self.indices, self._input_dim)

    @cached_property
    def histograms(self) -> sp.csr_matrix:
        return self._refinement.dataset_features(self.dataset)[self.indices]


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

    refinement = None
    if "gkn" in kinds:
        refinement = WlRefinement(depth=config.wl_depth).fit(
            PackedGraphs.join((source.graphs, target.graphs)))
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


def _adversary_step(state: TrainState, b: int, src: Batch, target, source):
    """Branch ``b``'s discriminator ascent, then its perturbation step.

    ``source`` is an unperturbed branch's source forward, ``None`` for a
    perturbed one: then one source forward, with the stored perturbations
    as a leaf, serves both. The discriminator's own tape reads the
    forwards' values as constants. Call it with the branches frozen, so
    that only the leaf gets a gradient. Returns L_DA and the batch's
    updated perturbations as one constant, ``None`` if the branch has none.
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
    loss = domain_loss(disc_tape, disc, *(ad.constant(t.data) for t in (z_s, p_s, *target)))
    discriminator_update(disc_tape, loss, opt)
    opt.zero_grad()
    if leaf is None:
        return loss.item(), None
    with ad.frozen(opt.params):
        logit = disc.logits(tape, z_s, p_s)
        # Disjoint graphs: the gradient of the summed log D splits into
        # each graph's own gradient.
        tape.backward(ad.sum_rows(tape, ad.log_sigmoid(tape, logit)))
    return loss.item(), ad.constant(perturbation_step(state.store, b, src.indices, leaf.grad))


def _train_step(state: TrainState, src: Batch, labels, tgt: Batch):
    """Both adversaries, then one model step; returns the ``LOSS_COLUMNS`` values."""
    cfg = state.config
    tape = ad.Tape()
    da = [0.0, 0.0]
    perts = [None, None]
    targets = [branch.forward(tape, tgt)[:2]
               for branch, _ in zip(state.branches, state.discriminators)]
    # An unperturbed branch's one source forward serves its discriminator
    # and the model.
    sources = [branch.forward(tape, src) if state.store.rows[b] is None else None
               for b, branch in enumerate(state.branches)]
    with ad.frozen(state.branch_params()):
        for b, target in enumerate(targets):
            da[b], perts[b] = _adversary_step(state, b, src, target, sources[b])
    with ad.frozen(state.discriminator_params()):
        sources = [out if out is not None else branch.forward(tape, src, pert)
                   for out, branch, pert in zip(sources, state.branches, perts)]
        l_s = source_loss(tape, sources, labels)
        total = l_s
        for b, (disc, lam) in enumerate(zip(state.discriminators, (cfg.lambda1, cfg.lambda2))):
            if lam == 0.0:
                continue
            term = domain_loss(tape, disc, *sources[b][:2], *targets[b])
            da[b] = term.item()
            total = ad.add(tape, total, ad.scale(tape, term, -lam))
        tape.backward(total)
    state.model_opt.step()
    state.model_opt.zero_grad()
    return l_s.item(), da[0], da[1], total.item()


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

    batch_stats = []
    with _one_blas_thread():
        for start in range(0, len(src_order), size):
            rows = slice(start, start + size)
            batch_stats.append(_train_step(state, Batch(state, source, src_order[rows]),
                                           labels[rows], Batch(state, target, tgt_order[rows])))

        means = [float(np.mean(column)) for column in zip(*batch_stats)]
        for name, value in zip(LOSS_COLUMNS, means):
            if not np.isfinite(value):
                raise ContractViolation(f"non-finite {name} in epoch {state.epoch}: {means}")
        accuracy = evaluate(state, target) if target.eval_labels is not None else None
    state.history.append(EpochStats(state.epoch, *means, accuracy))
    state.epoch += 1
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
    batches are built once, kept on ``state`` by id with the dataset held.
    """
    _check_compatible(state.source, dataset)
    if len(dataset) == 0:
        raise ConfigurationError("cannot evaluate on a dataset with no graphs")
    labels = dataset.eval_labels if dataset.graph_labels is None else dataset.graph_labels
    if labels is None:
        raise ConfigurationError("dataset has no labels to evaluate against")
    if id(dataset) not in state.eval_batches:
        graphs = range(len(dataset))
        state.eval_batches[id(dataset)] = dataset, [Batch(state, dataset, graphs[s:s + EVAL_CHUNK])
                                                    for s in range(0, len(graphs), EVAL_CHUNK)]
    predictions = []
    with ad.frozen(state.branch_params()):
        for batch in state.eval_batches[id(dataset)][1]:
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
            fh.write(",".join("" if v is None else repr(v) for v in astuple(e)) + "\n")

