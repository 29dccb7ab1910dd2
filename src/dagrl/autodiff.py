"""Minimal dense reverse-mode gradient engine.

Tensors are 2-D float64 arrays; a :class:`Tape` records executed
operations and replays their adjoints in exact reverse order. The
primitive set is deliberately small (the affine map ``x @ w + b`` as one
op, a product with a constant left factor, add, scalar scale, relu,
softmax, row reductions, column concatenation, softmax cross-entropy, and
a clamped log-sigmoid), which keeps every adjoint hand-checkable.
Gradients flow to any leaf created with ``requires_grad=True``, including
input tensors, not just parameters. :meth:`Tape.backward` is the only
code that stores or adds a gradient, under the three-case rule that
:class:`Tape` states, and it runs once per tape.

Model classes subclass :class:`Module`, which names their parameters
from their attributes: a ``Tensor`` attribute by its attribute name, a
sub-module's parameters as ``<attribute>/<name>``, in assignment order.
Checkpoint keys and optimizer parameter order both come from that walk.

An operation whose inputs all have ``requires_grad=False`` is neither
recorded nor differentiated. :func:`frozen` clears the flag on a set of
parameters for the duration of a block, so a forward pass records, and
a backward pass computes, only what flows to the tensors still free.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import ContractViolation, DatasetFormatError
from .fileio import atomic_write

# Probabilities are clamped to [SIGMOID_EPS, 1 - SIGMOID_EPS] before logs.
SIGMOID_EPS = 1e-7
_LOG_LO = float(np.log(SIGMOID_EPS))
_LOG_HI = float(np.log1p(-SIGMOID_EPS))

CHECKPOINT_MAGIC = "dagrl-ckpt-v2"
# Checkpoint payloads are raw little-endian float64, whatever the host order.
_CHECKPOINT_DTYPE = np.dtype("<f8")
# A weight gradient sums over every row of a batch. Summing fixed chunks
# of this many rows in row order keeps each BLAS product below OpenBLAS's
# threading threshold, so the bits do not depend on the thread count.
WEIGHT_GRAD_CHUNK = 256
# Adam's moment decay rates and the denominator's stabilizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Tensor:
    """A dense 2-D value with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ContractViolation(f"tensors are 2-D, got shape {arr.shape}")
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
    """Ordered record of executed operations for one backward pass.

    A backward function returns, per input, ``None``, its ``out.grad``
    argument, a view of it, or a fresh array for that input alone.
    ``backward`` stores each contribution under one rule: a tensor that
    already has a gradient adds it in place; ``out.grad`` or a view of it
    is copied; a fresh array is kept. A stored gradient equals
    ``zeros + contribution``, so -0.0 becomes +0.0. Intermediates keep
    their gradients after the pass, so ``backward`` runs once per tape.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._differentiated = False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from ``loss``."""
        if self._differentiated:
            raise ContractViolation("backward runs once per tape")
        if loss.shape != (1, 1):
            raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._records:
            raise ContractViolation("backward on an empty tape")
        self._differentiated = True
        loss.grad = np.ones((1, 1))
        for out, inputs, backward_fn in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            for tensor, contrib in zip(inputs, backward_fn(g)):
                if contrib is None or not tensor.requires_grad:
                    continue
                if tensor.grad is not None:
                    tensor.grad += contrib
                elif contrib is g or contrib.base is not None:
                    tensor.grad = contrib + 0.0
                else:
                    np.add(contrib, 0.0, out=contrib)
                    tensor.grad = contrib


def _result(tape: Tape, inputs: tuple[Tensor, ...], value: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(value, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        tape.record(out, inputs, backward_fn)
    return out


def _transpose_product(a, g: np.ndarray) -> np.ndarray:
    """``a.T @ g`` for a weight gradient.

    A dense ``a`` is summed over ``WEIGHT_GRAD_CHUNK``-row chunks in row
    order. A scipy-sparse ``a`` is one product: scipy does not thread it,
    and it sums in row order already.
    """
    if sp.issparse(a):
        return np.asarray(a.T @ g)
    out = a[:WEIGHT_GRAD_CHUNK].T @ g[:WEIGHT_GRAD_CHUNK]
    for lo in range(WEIGHT_GRAD_CHUNK, a.shape[0], WEIGHT_GRAD_CHUNK):
        out += a[lo:lo + WEIGHT_GRAD_CHUNK].T @ g[lo:lo + WEIGHT_GRAD_CHUNK]
    return out


def linear(tape: Tape, x, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b`` as one record; ``b`` is a (1, m) row bias.

    ``x`` is a tensor or a constant matrix, which may be scipy-sparse. The
    bias is added in place to the fresh product.
    """
    is_tensor = isinstance(x, Tensor)
    x_data = x.data if is_tensor else x
    if x_data.shape[1] != w.shape[0]:
        raise ContractViolation(f"linear shape mismatch: {x_data.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ContractViolation(f"bias shape {b.shape} for a product with {w.shape[1]} columns")
    value = np.asarray(x_data @ w.data)
    value += b.data
    # A constant x is not an input; zip in Tape.backward drops its slot.
    inputs = (w, b, x) if is_tensor else (w, b)

    def backward_fn(g):
        return (_transpose_product(x_data, g) if w.requires_grad else None,
                g.sum(axis=0, keepdims=True) if b.requires_grad else None,
                g @ w.data.T if is_tensor and x.requires_grad else None)

    return _result(tape, inputs, value, backward_fn)


def matmul_const(tape: Tape, m, x: Tensor) -> Tensor:
    """``m @ x`` for a constant left factor ``m``, which may be scipy-sparse.

    The sparse path exists for the adjacency and readout matrices.
    """
    if m.shape[1] != x.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {m.shape} @ {x.shape}")

    def backward_fn(g):
        return (np.asarray(m.T @ g),)

    value = m @ x.data
    return _result(tape, (x,), np.asarray(value), backward_fn)


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; ``linear`` adds row biases."""
    if a.shape != b.shape:
        raise ContractViolation(f"add shape mismatch: {a.shape} + {b.shape}")

    def backward_fn(g):
        return (g, g)

    return _result(tape, (a, b), a.data + b.data, backward_fn)


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _result(tape, (x,), x.data * c, backward_fn)


def relu(tape: Tape, x: Tensor) -> Tensor:
    # Subgradient at exactly 0 is defined as 0.
    mask = x.data > 0.0
    # Equal, bit for bit, to np.where(mask, x, 0.0): fmax maps NaN and
    # -inf to 0.0, and the in-place +0.0 turns fmax's -0.0 into +0.0.
    value = np.fmax(x.data, 0.0)
    value += 0.0

    def backward_fn(g):
        return (g * mask,)

    return _result(tape, (x,), value, backward_fn)


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


def concat(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Join the columns of ``a`` and ``b``, which must have equal row counts."""
    if a.shape[0] != b.shape[0]:
        raise ContractViolation(f"concat row mismatch: {a.shape} and {b.shape}")
    split = a.shape[1]

    def backward_fn(g):
        return (g[:, :split], g[:, split:])

    return _result(tape, (a, b), np.concatenate([a.data, b.data], axis=1), backward_fn)


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


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Module:
    """A model piece whose parameters are its ``Tensor`` and ``Module`` attributes.

    ``named_params`` walks ``vars(self)`` in assignment order: a tensor
    is named by its attribute, a sub-module contributes
    ``<attribute>/<name>`` for each of its parameters, and any other
    attribute is skipped. Build the lists once; the walk is not free.
    """

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                out[attr] = value
            elif isinstance(value, Module):
                out.update((f"{attr}/{k}", v) for k, v in value.named_params().items())
        return out

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())


class Linear(Module):
    """Affine map with a Glorot-uniform weight and zero bias.

    The input is a tensor or a constant matrix, which may be scipy-sparse.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int):
        self.weight = parameter(glorot_uniform(rng, in_dim, out_dim))
        self.bias = parameter(np.zeros((1, out_dim)))

    def __call__(self, tape: Tape, x) -> Tensor:
        return linear(tape, x, self.weight, self.bias)


class Mlp(Module):
    """Two-layer perceptron: ``lin2(relu(lin1(x)))``."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden_dim: int, out_dim: int):
        self.lin1 = Linear(rng, in_dim, hidden_dim)
        self.lin2 = Linear(rng, hidden_dim, out_dim)

    def __call__(self, tape: Tape, x: Tensor) -> Tensor:
        return self.lin2(tape, relu(tape, self.lin1(tape, x)))


class Adam:
    """Adaptive-moment optimizer with bias correction.

    Moment buffers persist per parameter; ``step`` consumes the gradients
    currently stored on the parameters. It updates the moments and the
    parameters in place through two scratch arrays per parameter. All
    four arrays are allocated at the first step, not at construction, so
    that ``build_state`` does not pay for them: allocating them in
    ``__init__`` raised its median time on the ``density-gkn-minibatch``
    benchmark inputs by about 15% (21 to 24 ms on a 2-vCPU VM).
    """

    def __init__(self, params, lr: float):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
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
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, self.lr, ADAM_EPS
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
    """Write a flat key -> array map in the exact binary ``dagrl-ckpt-v2`` layout.

    The file starts with the text line ``dagrl-ckpt-v2 <entry count>``.
    Each entry is the text line ``<key> <rows> <cols>`` followed by
    ``rows*cols`` raw little-endian float64 values in row-major order, so
    values round-trip bit for bit. Every entry must be 2-D. The file is
    written atomically: a failure part-way (such as a key containing
    whitespace) leaves no file at ``path``.
    """
    with atomic_write(path, mode="wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {len(arrays)}\n".encode())
        for key, value in arrays.items():
            if not key.isprintable() or key.split() != [key]:
                raise ContractViolation(f"checkpoint key {key!r} must be non-empty, "
                                        "printable and free of whitespace")
            arr = np.asarray(value, dtype=_CHECKPOINT_DTYPE)
            if arr.ndim != 2:
                raise ContractViolation(f"checkpoint entry {key!r} has {arr.ndim} dimensions")
            fh.write(f"{key} {arr.shape[0]} {arr.shape[1]}\n".encode())
            fh.write(arr.tobytes())


def _checkpoint_line(data: bytes, pos: int, lineno: int) -> tuple[int, bytes]:
    """The newline-terminated text line at ``pos`` and the offset after it."""
    end = data.find(b"\n", pos)
    if end < 0:
        raise DatasetFormatError(f"unterminated checkpoint line {data[pos:pos + 80]!r}",
                                 line=lineno)
    return end + 1, data[pos:end]


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a ``dagrl-ckpt-v2`` file into writable float64 2-D arrays, in file order.

    Malformed input raises :class:`DatasetFormatError` with the text line
    at fault: the header is line 1 and entry ``i`` is line ``i + 2``. An
    entry count that disagrees with the entries present (a file cut at an
    entry boundary, or trailing bytes) is charged to the header. The text
    format ``dagrl-ckpt-v1`` is not read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos, header = _checkpoint_line(data, 0, 1)
    parts = header.split()
    if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC.encode() or not parts[1].isdigit():
        raise DatasetFormatError(f"bad checkpoint header {header[:80]!r}; "
                                 f"expected '{CHECKPOINT_MAGIC} <entry count>'", line=1)
    count = int(parts[1])
    arrays: dict[str, np.ndarray] = {}
    for index in range(count):
        if pos == len(data):
            raise DatasetFormatError(f"checkpoint ends after {index} of {count} entries", line=1)
        lineno = index + 2
        pos, meta = _checkpoint_line(data, pos, lineno)
        parts = meta.split()
        if len(parts) != 3:
            raise DatasetFormatError(f"bad checkpoint entry {meta[:80]!r}", line=lineno)
        try:
            key, rows, cols = parts[0].decode(), int(parts[1]), int(parts[2])
        except ValueError:
            raise DatasetFormatError(f"bad checkpoint key or shape in {meta!r}",
                                     line=lineno) from None
        if not key.isprintable():
            raise DatasetFormatError(f"unprintable checkpoint key {key!r}", line=lineno)
        if rows < 0 or cols < 0:
            raise DatasetFormatError(f"negative checkpoint shape in {meta!r}", line=lineno)
        if key in arrays:
            raise DatasetFormatError(f"duplicate checkpoint key {key!r}", line=lineno)
        size = rows * cols
        end = pos + size * _CHECKPOINT_DTYPE.itemsize
        if end > len(data):
            raise DatasetFormatError(
                f"checkpoint entry {key!r}: {len(data) - pos} payload bytes for shape "
                f"({rows}, {cols})", line=lineno)
        flat = np.frombuffer(data, dtype=_CHECKPOINT_DTYPE, count=size, offset=pos)
        arrays[key] = flat.astype(np.float64).reshape(rows, cols)
        pos = end
    if pos != len(data):
        raise DatasetFormatError(
            f"{len(data) - pos} trailing bytes after the header's {count} entries", line=1)
    return arrays
