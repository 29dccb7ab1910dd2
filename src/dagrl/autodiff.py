"""Minimal dense reverse-mode gradient engine.

Tensors are 2-D float64 arrays; a :class:`Tape` records executed
operations and replays their adjoints in exact reverse order. The
primitive set is deliberately small (matrix multiply, row-broadcast add,
scalar scale, relu, softmax, row reductions, concatenation, softmax
cross-entropy, and a clamped log-sigmoid), which keeps every adjoint
hand-checkable. Gradients flow to any leaf created with
``requires_grad=True``, including input tensors, not just parameters.

An operation whose inputs all have ``requires_grad=False`` is neither
recorded nor differentiated. :func:`frozen` clears the flag on a set of
parameters for the duration of a block, so a forward pass records, and
a backward pass computes, only what flows to the tensors still free.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import expit

from .errors import ContractViolation, DatasetFormatError
from .fileio import atomic_write

# Probabilities are clamped to [SIGMOID_EPS, 1 - SIGMOID_EPS] before logs.
SIGMOID_EPS = 1e-7
_LOG_LO = float(np.log(SIGMOID_EPS))
_LOG_HI = float(np.log1p(-SIGMOID_EPS))

CHECKPOINT_HEADER = "dagrl-ckpt-v1"


class Tensor:
    """A dense rank-<=2 value with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ContractViolation(f"tensors are rank <= 2, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractViolation(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A fresh array equal to zeros + g: -0.0 becomes +0.0, and an
            # array handed to several inputs (add's backward) is not shared.
            self.grad = g + 0.0
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


@contextmanager
def frozen(params):
    """Treat ``params`` as constants inside the block.

    Operations whose inputs are all frozen or constant are not recorded,
    and no gradient reaches the frozen tensors. Run the backward pass
    inside the block as well: backward reads the flags when it runs. Each
    flag is restored on exit, also when the block raises.
    """
    params = list(params)
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


class Tape:
    """Ordered record of executed operations for one backward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from ``loss``."""
        if loss.shape != (1, 1):
            raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._records:
            raise ContractViolation("backward on an empty tape")
        loss.accumulate_grad(np.ones((1, 1)))
        for out, inputs, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            contributions = backward_fn(out.grad)
            for tensor, contrib in zip(inputs, contributions):
                if contrib is None or not tensor.requires_grad:
                    continue
                tensor.accumulate_grad(contrib)


def _result(tape: Tape, inputs: tuple[Tensor, ...], value: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(value, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        tape.record(out, inputs, backward_fn)
    return out


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward_fn(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _result(tape, (a, b), a.data @ b.data, backward_fn)


def matmul_const(tape: Tape, m, x: Tensor) -> Tensor:
    """Multiply by a constant left factor, which may be scipy-sparse.

    Semantically ``matmul(constant(m), x)``; the sparse path exists for
    adjacency, readout, and feature-histogram matrices.
    """
    if m.shape[1] != x.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {m.shape} @ {x.shape}")

    def backward_fn(g):
        return (np.asarray(m.T @ g),)

    value = m @ x.data
    return _result(tape, (x,), np.asarray(value), backward_fn)


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may be a (1, m) row bias broadcast over rows."""
    if a.shape == b.shape:
        def backward_fn(g):
            return (g, g)
    elif b.shape == (1, a.shape[1]):
        def backward_fn(g):
            return (g, g.sum(axis=0, keepdims=True) if b.requires_grad else None)
    else:
        raise ContractViolation(f"add shape mismatch: {a.shape} + {b.shape}")
    return _result(tape, (a, b), a.data + b.data, backward_fn)


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _result(tape, (x,), x.data * c, backward_fn)


def relu(tape: Tape, x: Tensor) -> Tensor:
    # Subgradient at exactly 0 is defined as 0.
    mask = x.data > 0.0

    def backward_fn(g):
        return (g * mask,)

    return _result(tape, (x,), np.where(mask, x.data, 0.0), backward_fn)


def softmax(tape: Tape, x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _result(tape, (x,), p, backward_fn)


def sum_rows(tape: Tape, x: Tensor) -> Tensor:
    """Sum the rows of ``x`` into a single (1, m) row."""
    n = x.shape[0]

    def backward_fn(g):
        return (np.broadcast_to(g, (n, g.shape[1])).copy(),)

    return _result(tape, (x,), x.data.sum(axis=0, keepdims=True), backward_fn)


def mean_rows(tape: Tape, x: Tensor) -> Tensor:
    """Average the rows of ``x`` into a single (1, m) row."""
    n = x.shape[0]
    if n == 0:
        raise ContractViolation("mean_rows on an empty tensor")

    def backward_fn(g):
        return (np.broadcast_to(g / n, (n, g.shape[1])).copy(),)

    return _result(tape, (x,), x.data.mean(axis=0, keepdims=True), backward_fn)


def concat(tape: Tape, tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ContractViolation("concat of zero tensors")
    if axis not in (0, 1):
        raise ContractViolation(f"concat axis must be 0 or 1, got {axis}")
    other = 1 - axis
    ref = tensors[0].shape[other]
    for t in tensors[1:]:
        if t.shape[other] != ref:
            raise ContractViolation(
                f"concat shape mismatch on axis {other}: {[t.shape for t in tensors]}"
            )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(piece if t.requires_grad else None for t, piece in zip(tensors, pieces))

    value = np.concatenate([t.data for t in tensors], axis=axis)
    return _result(tape, tensors, value, backward_fn)


def softmax_cross_entropy(tape: Tape, logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between row softmaxes and integer labels."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = logits.shape
    if y.shape[0] != n:
        raise ContractViolation(f"{y.shape[0]} labels for {n} logit rows")
    if n == 0:
        raise ContractViolation("cross-entropy on an empty batch")
    if y.min() < 0 or y.max() >= c:
        raise ContractViolation(f"label outside [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - lse
    loss = -log_p[np.arange(n), y].mean()

    def backward_fn(g):
        p = np.exp(log_p)
        p[np.arange(n), y] -= 1.0
        return (p * (g[0, 0] / n),)

    return _result(tape, (logits,), np.array([[loss]]), backward_fn)


def log_sigmoid(tape: Tape, x: Tensor) -> Tensor:
    """Elementwise log(sigmoid(x)) with the probability clamped to (0, 1).

    The sigmoid is clamped away from {0, 1} by ``SIGMOID_EPS`` before the
    log, so outputs lie in [log(eps), log(1 - eps)] and never reach -inf.
    """
    raw = np.where(x.data < 0.0, x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))
    clamped = np.clip(raw, _LOG_LO, _LOG_HI)
    inside = (raw > _LOG_LO) & (raw < _LOG_HI)

    def backward_fn(g):
        # d/dx log(sigmoid(x)) = sigmoid(-x); zero where the clamp is active.
        return (g * expit(-x.data) * inside,)

    return _result(tape, (x,), clamped, backward_fn)


def sigmoid_probabilities(logits: np.ndarray) -> np.ndarray:
    """Clamped sigmoid of raw logits; evaluation-only, no gradient."""
    return np.clip(expit(logits), SIGMOID_EPS, 1.0 - SIGMOID_EPS)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear:
    """Affine map with a Glorot-uniform weight and zero bias."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int):
        self.weight = parameter(glorot_uniform(rng, in_dim, out_dim))
        self.bias = parameter(np.zeros((1, out_dim)))

    def __call__(self, tape: Tape, x: Tensor) -> Tensor:
        return add(tape, matmul(tape, x, self.weight), self.bias)

    def apply_const(self, tape: Tape, m) -> Tensor:
        """Apply to a constant (possibly sparse) input matrix."""
        return add(tape, matmul_const(tape, m, self.weight), self.bias)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]


class Adam:
    """Adaptive-moment optimizer with bias correction.

    Moment buffers persist per parameter; ``step`` consumes the gradients
    currently stored on the parameters. It updates the moments and the
    parameters in place through two scratch arrays per parameter. All
    four arrays are allocated at the first step, not at construction.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._buffers: list[tuple[np.ndarray, ...]] | None = None

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractViolation(f"parameter {i} has no gradient; run backward first")
        if self._buffers is None:
            # Per parameter: first moment, second moment and two scratch arrays.
            self._buffers = [tuple(np.zeros_like(p.data) for _ in range(4))
                             for p in self.params]
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, (m, v, upd, den) in zip(self.params, self._buffers):
            g = p.grad
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g)
            m *= b1
            np.multiply(g, 1.0 - b1, out=upd)
            m += upd
            v *= b2
            np.multiply(g, g, out=den)
            den *= 1.0 - b2
            v += den
            # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
            np.divide(m, bc1, out=upd)
            upd *= lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += eps
            upd /= den
            p.data -= upd

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a flat key -> array map as versioned text.

    Values use ``repr`` so floats round-trip exactly. The file is written
    atomically: a failure part-way (such as a key containing a space)
    leaves no file at ``path``.
    """
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        for key in arrays:
            arr = np.asarray(arrays[key], dtype=np.float64)
            if arr.ndim == 0:
                arr = arr.reshape(1, 1)
            elif arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if " " in key:
                raise ContractViolation(f"checkpoint key {key!r} contains a space")
            fh.write(f"{key} {arr.shape[0]} {arr.shape[1]}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        if header != CHECKPOINT_HEADER:
            raise DatasetFormatError(f"bad checkpoint header {header!r}", line=1)
        arrays: dict[str, np.ndarray] = {}
        lineno = 1
        while True:
            meta = fh.readline()
            if not meta:
                break
            lineno += 1
            parts = meta.split()
            if len(parts) != 3:
                raise DatasetFormatError(f"bad checkpoint entry {meta!r}", line=lineno)
            try:
                key, rows, cols = parts[0], int(parts[1]), int(parts[2])
            except ValueError:
                raise DatasetFormatError(f"bad checkpoint shape in {meta!r}", line=lineno)
            values = fh.readline()
            lineno += 1
            try:
                flat = np.array([float(v) for v in values.split()], dtype=np.float64)
            except ValueError:
                raise DatasetFormatError(f"checkpoint entry {key!r}: non-numeric value",
                                         line=lineno)
            if flat.size != rows * cols:
                raise DatasetFormatError(
                    f"checkpoint entry {key!r}: {flat.size} values for shape ({rows}, {cols})",
                    line=lineno,
                )
            arrays[key] = flat.reshape(rows, cols)
    return arrays
