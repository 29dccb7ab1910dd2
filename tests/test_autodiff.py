import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from dagrl import autodiff as ad
from dagrl.errors import ContractViolation, DatasetFormatError
from helpers import finite_difference, max_relative_error


def matmul(tape, a, b):
    """``a @ b`` as ``ad.linear`` with a constant zero bias."""
    return ad.linear(tape, a, b, ad.constant(np.zeros((1, b.shape[1]))))


def symmetric_csr(m):
    """``m + m.T`` as CSR with sorted indices: an adjacency ``ad.aggregate`` takes."""
    out = sp.csr_matrix(m + m.T)
    out.sort_indices()
    return out


def segment_readout(offsets):
    """The 0/1 CSR readout whose row ``k`` covers rows ``offsets[k]:offsets[k + 1]``."""
    n = offsets[-1]
    return sp.csr_matrix((np.ones(n), np.arange(n), offsets), shape=(len(offsets) - 1, n))


def sum_all(tape, t):
    ones = ad.constant(np.ones((t.shape[1], 1)))
    return matmul(tape, ad.sum_rows(tape, t), ones)


def test_relu_value_and_mask():
    tape = ad.Tape()
    x = ad.parameter([[-1.0, 2.0]])
    y = ad.relu(tape, x)
    assert np.array_equal(y.data, [[0.0, 2.0]])
    tape.backward(sum_all(tape, y))
    assert np.array_equal(x.grad, [[0.0, 1.0]])


def test_relu_subgradient_at_zero_is_zero():
    tape = ad.Tape()
    x = ad.parameter([[0.0, -0.0, 1.0]])
    y = ad.relu(tape, x)
    tape.backward(sum_all(tape, y))
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_matmul_identity():
    tape = ad.Tape()
    a = ad.constant(np.arange(6.0).reshape(2, 3))
    out = matmul(tape, ad.constant(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_cross_entropy_uniform_logits():
    tape = ad.Tape()
    logits = ad.parameter(np.zeros((1, 2)))
    loss = ad.softmax_cross_entropy(tape, logits, [1])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_bilinear_gradient():
    # d(x . y)/dx = y for the inner product x @ y.T.
    tape = ad.Tape()
    x = ad.parameter([[1.0, 2.0, 3.0]])
    y = ad.constant([[4.0, 5.0, 6.0]])
    tape.backward(matmul(tape, x, ad.constant(y.data.T)))
    assert np.array_equal(x.grad, y.data)


def test_reuse_accumulates():
    tape = ad.Tape()
    x = ad.parameter([[3.0]])
    loss = ad.add(tape, x, x)
    tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0]])


def test_add_of_one_input_twice_doubles_without_aliasing():
    tape = ad.Tape()
    x = ad.parameter(np.arange(4.0).reshape(2, 2))
    y = ad.add(tape, x, x)
    tape.backward(sum_all(tape, ad.scale(tape, y, 3.0)))
    # add's backward hands one array to both inputs; y's gradient must not
    # be the buffer that x accumulates into.
    assert np.array_equal(x.grad, np.full((2, 2), 6.0))
    assert np.array_equal(y.grad, np.full((2, 2), 3.0))
    assert not np.shares_memory(x.grad, y.grad)


def test_accumulation_is_consumer_order_independent():
    # Integer-valued operands make float addition exact, so the two
    # registration orders must agree bit for bit.
    rng = np.random.default_rng(0)
    a = rng.integers(-4, 5, size=(3, 3)).astype(float)
    b = rng.integers(-4, 5, size=(3, 3)).astype(float)
    c = rng.integers(-4, 5, size=(3, 3)).astype(float)
    grads = []
    for order in ((a, b, c), (c, a, b), (b, c, a)):
        tape = ad.Tape()
        x = ad.parameter(np.ones((2, 3)))
        terms = [matmul(tape, x, ad.constant(m)) for m in order]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(tape, total, t)
        loss = ad.sum_rows(tape, matmul(tape, total, ad.constant(np.ones((3, 1)))))
        tape.backward(loss)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(grads[0], grads[2])


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    x = ad.parameter(np.ones((2, 2)))
    y = ad.relu(tape, x)
    with pytest.raises(ContractViolation):
        tape.backward(y)


def test_shape_mismatch_reports_both_shapes():
    tape = ad.Tape()
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ContractViolation, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(tape, a, b)


def test_mlp_matches_finite_differences():
    rng = np.random.default_rng(42)
    w1 = ad.parameter(rng.uniform(-1, 1, size=(4, 5)))
    b1 = ad.parameter(rng.uniform(-1, 1, size=(1, 5)))
    w2 = ad.parameter(rng.uniform(-1, 1, size=(5, 3)))
    b2 = ad.parameter(rng.uniform(-1, 1, size=(1, 3)))
    x = ad.parameter(rng.uniform(-2, 2, size=(6, 4)))
    labels = rng.integers(0, 3, size=6)

    def run():
        tape = ad.Tape()
        h = ad.relu(tape, ad.linear(tape, x, w1, b1))
        logits = ad.linear(tape, h, w2, b2)
        return tape, ad.softmax_cross_entropy(tape, logits, labels)

    tape, loss = run()
    tape.backward(loss)
    for t in (w1, b1, w2, b2, x):
        numeric = finite_difference(lambda: run()[1].item(), t.data)
        assert max_relative_error(t.grad, numeric) <= 1e-4


class TestFrozen:
    @staticmethod
    def mlp(seed=3):
        rng = np.random.default_rng(seed)
        params = [ad.parameter(rng.uniform(-1, 1, size=s))
                  for s in ((4, 5), (1, 5), (5, 3), (1, 3))]
        x = ad.parameter(rng.uniform(-2, 2, size=(6, 4)))
        return params, x

    @staticmethod
    def loss(tape, params, x):
        w1, b1, w2, b2 = params
        h = ad.relu(tape, ad.linear(tape, x, w1, b1))
        logits = ad.linear(tape, h, w2, b2)
        return ad.softmax_cross_entropy(tape, logits, [0, 1, 2, 0, 1, 2])

    def test_ops_on_frozen_parameters_are_not_recorded(self):
        params, _ = self.mlp()
        x = ad.constant(np.ones((6, 4)))
        tape = ad.Tape()
        with ad.frozen(params):
            loss = self.loss(tape, params, x)
        assert len(tape) == 0
        assert not loss.requires_grad
        unfrozen = ad.Tape()
        self.loss(unfrozen, params, x)
        assert len(unfrozen) == 4

    def test_flags_restored_after_block(self):
        params, x = self.mlp()
        const = ad.constant(np.zeros((1, 1)))
        with ad.frozen(params + [const]):
            assert not any(p.requires_grad for p in params)
        assert all(p.requires_grad for p in params)
        assert not const.requires_grad

    def test_flags_restored_when_block_raises(self):
        params, _ = self.mlp()
        with pytest.raises(RuntimeError, match="inside"):
            with ad.frozen(params):
                raise RuntimeError("inside")
        assert all(p.requires_grad for p in params)

    def test_free_leaf_gradient_is_bitwise_unchanged(self):
        params, x = self.mlp()
        tape = ad.Tape()
        tape.backward(self.loss(tape, params, x))
        reference = x.grad.copy()
        for p in params + [x]:
            p.grad = None

        scoped = ad.Tape()
        with ad.frozen(params):
            scoped.backward(self.loss(scoped, params, x))
        assert np.array_equal(x.grad, reference)
        assert all(p.grad is None for p in params)


PRIMITIVE_CASES = [
    "matmul", "linear", "linear_sparse", "matmul_const", "matmul_const_sparse", "aggregate",
    "segment_sum", "add", "scale", "relu", "softmax", "sum_rows", "mean_rows", "concat1",
    "cross_entropy", "log_sigmoid",
]


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients(name, seed):
    # crc32, not hash(): str hashes are salted per process, so a failing
    # case would draw different inputs on every run.
    rng = np.random.default_rng(seed * 131 + zlib.crc32(name.encode()) % 1000)

    def sample(shape):
        # Shift away from 0 so relu masks stay stable under the probe step.
        x = rng.uniform(-2, 2, size=shape)
        x[np.abs(x) < 1e-2] += 0.05
        return x

    leaves = []

    def leaf(shape):
        t = ad.parameter(sample(shape))
        leaves.append(t)
        return t

    if name == "matmul":
        a, b = leaf((3, 4)), leaf((4, 2))
        build = lambda tape: matmul(tape, a, b)
    elif name == "linear":
        x, w, b = leaf((3, 4)), leaf((4, 2)), leaf((1, 2))
        build = lambda tape: ad.linear(tape, x, w, b)
    elif name == "linear_sparse":
        m = sp.random(3, 4, density=0.5, random_state=5, format="csr")
        w, b = leaf((4, 2)), leaf((1, 2))
        build = lambda tape: ad.linear(tape, m, w, b)
    elif name == "matmul_const":
        # A constant left factor goes through linear's weight gradient.
        m = sample((3, 4))
        x = leaf((4, 2))
        build = lambda tape: matmul(tape, m, x)
    elif name == "matmul_const_sparse":
        m = sp.random(3, 4, density=0.5, random_state=7, format="csr")
        x = leaf((4, 2))
        build = lambda tape: matmul(tape, m, x)
    elif name == "aggregate":
        m = sp.random(5, 5, density=0.4, random_state=8, format="csr")
        adjacency = symmetric_csr(m)
        x = leaf((5, 2))
        build = lambda tape: ad.aggregate(tape, adjacency, x)
    elif name == "segment_sum":
        # Three segments of 2, 0 and 3 rows.
        readout = segment_readout([0, 2, 2, 5])
        x = leaf((5, 2))
        build = lambda tape: ad.segment_sum(tape, readout, x)
    elif name == "add":
        a, b = leaf((3, 4)), leaf((3, 4))
        build = lambda tape: ad.add(tape, a, b)
    elif name == "scale":
        a = leaf((3, 4))
        build = lambda tape: ad.scale(tape, a, -1.7)
    elif name == "relu":
        a = leaf((3, 4))
        build = lambda tape: ad.relu(tape, a)
    elif name == "softmax":
        a = leaf((3, 4))
        build = lambda tape: ad.softmax(tape, a)
    elif name == "sum_rows":
        a = leaf((3, 4))
        build = lambda tape: ad.sum_rows(tape, a)
    elif name == "mean_rows":
        a = leaf((3, 4))
        build = lambda tape: ad.mean_rows(tape, a)
    elif name == "concat1":
        a, b = leaf((3, 2)), leaf((3, 4))
        build = lambda tape: ad.concat(tape, a, b)
    elif name == "cross_entropy":
        a = leaf((4, 3))
        y = rng.integers(0, 3, size=4)
        build = lambda tape: ad.softmax_cross_entropy(tape, a, y)
    elif name == "log_sigmoid":
        a = leaf((3, 4))
        build = lambda tape: ad.log_sigmoid(tape, a)
    else:
        raise AssertionError(name)

    weights = None

    def scalarize(tape, out):
        # Random fixed linear functional r^T out c makes the scalar
        # sensitive to every output coordinate.
        nonlocal weights
        if weights is None:
            weights = (rng.uniform(0.5, 1.5, size=(1, out.shape[0])),
                       rng.uniform(0.5, 1.5, size=(out.shape[1], 1)))
        rows, cols = weights
        return matmul(tape, matmul(tape, rows, out), ad.constant(cols))

    def run():
        tape = ad.Tape()
        out = build(tape)
        return tape, scalarize(tape, out)

    tape, loss = run()
    tape.backward(loss)
    for t in leaves:
        numeric = finite_difference(lambda: run()[1].item(), t.data)
        assert max_relative_error(t.grad, numeric) <= 1e-4, name


def chunked_transpose_product(a, g):
    out = a[:ad.WEIGHT_GRAD_CHUNK].T @ g[:ad.WEIGHT_GRAD_CHUNK]
    for lo in range(ad.WEIGHT_GRAD_CHUNK, a.shape[0], ad.WEIGHT_GRAD_CHUNK):
        out += a[lo:lo + ad.WEIGHT_GRAD_CHUNK].T @ g[lo:lo + ad.WEIGHT_GRAD_CHUNK]
    return out


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_linear_is_bitwise_numpy(sparse):
    rng = np.random.default_rng(8)
    n = 2 * ad.WEIGHT_GRAD_CHUNK + 37
    if sparse:
        x = sp.random(n, 6, density=0.3, random_state=9, format="csr")
        x_data = x
    else:
        x = ad.parameter(rng.uniform(-2, 2, size=(n, 6)))
        x_data = x.data
    w = ad.parameter(rng.uniform(-1, 1, size=(6, 5)))
    b = ad.parameter(rng.uniform(-1, 1, size=(1, 5)))
    tape = ad.Tape()
    out = ad.linear(tape, x, w, b)
    assert len(tape) == 1
    assert out.data.tobytes() == (np.asarray(x_data @ w.data) + b.data).tobytes()
    # log_sigmoid makes the upstream gradient full-rank.
    tape.backward(sum_all(tape, ad.log_sigmoid(tape, out)))
    g = out.grad
    if sparse:
        # One sparse product: it sums in row order and does not thread.
        weight_grad = np.asarray(x_data.T @ g)
    else:
        weight_grad = chunked_transpose_product(x_data, g)
        assert x.grad.tobytes() == (g @ w.data.T + 0.0).tobytes()
        assert np.allclose(weight_grad, x_data.T @ g, rtol=1e-12, atol=1e-12)
    assert w.grad.tobytes() == (weight_grad + 0.0).tobytes()
    assert b.grad.tobytes() == (g.sum(axis=0, keepdims=True) + 0.0).tobytes()


@pytest.mark.parametrize("x", [
    np.array([[-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1.5, 2.5, 5e-324, -5e-324]]),
    # np.fmax keeps -0.0 on some arrays and not on others.
    np.full((3, 7), -0.0),
    np.where(np.arange(600).reshape(20, 30) % 3 == 0, -0.0,
             np.random.default_rng(2).uniform(-1, 1, size=(20, 30))),
], ids=["special", "negative-zeros", "mixed"])
def test_relu_is_bitwise_where(x):
    y = ad.relu(ad.Tape(), ad.constant(x))
    assert y.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()


def test_handed_gradient_turns_negative_zero_positive():
    # scale's backward hands x the fresh array g * -1, which holds -0.0
    # where relu's mask zeroed the upstream gradient.
    tape = ad.Tape()
    x = ad.parameter([[1.0, -2.0]])
    tape.backward(sum_all(tape, ad.relu(tape, ad.scale(tape, x, -1.0))))
    assert np.array_equal(x.grad, [[0.0, -1.0]])
    assert not np.signbit(x.grad[0, 0])


def relu_linear(tape):
    """``linear(relu(x), w, b)`` for x = (1, -1): w's gradient is (1, 0)."""
    x = ad.parameter([[1.0, -1.0]])
    w = ad.parameter([[0.5], [2.0]])
    b = ad.parameter([[0.0]])
    return w, ad.linear(tape, ad.relu(tape, x), w, b)


def test_second_backward_on_one_tape_raises():
    # A replay would add the loss's seed to intermediates that still hold
    # their gradients: w's gradient would become (3, 0), not (2, 0).
    tape = ad.Tape()
    w, y = relu_linear(tape)
    tape.backward(y)
    assert np.array_equal(w.grad, [[1.0], [0.0]])
    with pytest.raises(ContractViolation, match="once per tape"):
        tape.backward(y)
    assert np.array_equal(w.grad, [[1.0], [0.0]])


def test_backward_of_a_second_loss_on_a_differentiated_tape_raises():
    tape = ad.Tape()
    w, y = relu_linear(tape)
    other = ad.scale(tape, y, 2.0)
    tape.backward(y)
    with pytest.raises(ContractViolation, match="once per tape"):
        tape.backward(other)
    assert np.array_equal(w.grad, [[1.0], [0.0]])


@pytest.mark.parametrize("shape", [(), (3,), (1, 1, 1)], ids=["0-d", "1-d", "3-d"])
def test_tensor_rejects_data_that_is_not_2d(shape):
    with pytest.raises(ContractViolation, match="2-D"):
        ad.Tensor(np.ones(shape))


def test_add_rejects_a_row_operand():
    # Row biases go through linear; add takes equal shapes only.
    with pytest.raises(ContractViolation, match=r"\(3, 4\) \+ \(1, 4\)"):
        ad.add(ad.Tape(), ad.parameter(np.ones((3, 4))), ad.parameter(np.ones((1, 4))))


def every_primitive(tape, leaves):
    """Every tensor of a graph that uses each primitive, the leaves first."""
    x, w, b, w2, b2, offset, w3, b3 = leaves
    histograms = sp.random(5, 3, density=0.6, random_state=3, format="csr")
    adjacency = symmetric_csr(sp.random(5, 5, density=0.4, random_state=4, format="csr"))
    h = ad.linear(tape, x, w, b)
    e = ad.linear(tape, histograms, w2, b2)
    s = ad.add(tape, ad.add(tape, h, e), offset)
    twice = ad.add(tape, s, s)
    agg = ad.aggregate(tape, adjacency, twice)
    r = ad.relu(tape, ad.scale(tape, agg, 0.5))
    p = ad.softmax(tape, r)
    c = ad.concat(tape, r, p)
    logits = ad.linear(tape, c, w3, b3)
    ce = ad.softmax_cross_entropy(tape, logits, [0, 1, 1, 0, 1])
    domain = sum_all(tape, ad.mean_rows(tape, ad.log_sigmoid(tape, logits)))
    pooled = ad.segment_sum(tape, segment_readout([0, 3, 5]), r)
    spread = sum_all(tape, pooled)
    loss = ad.add(tape, ad.add(tape, ce, domain), spread)
    return list(leaves) + [h, e, s, twice, agg, r, p, c, logits, ce, domain, pooled, spread,
                           loss]


def test_backward_hands_each_input_its_own_gradient():
    rng = np.random.default_rng(6)
    shapes = [(5, 4), (4, 4), (1, 4), (3, 4), (1, 4), (5, 4), (8, 2), (1, 2)]
    leaves = [ad.parameter(rng.uniform(-1, 1, size=s)) for s in shapes]
    tape = ad.Tape()
    tensors = every_primitive(tape, leaves)
    tape.backward(tensors[-1])
    grads = [t.grad for t in tensors if t.grad is not None]
    assert len(grads) == len(tensors)
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    first = [t.grad.tobytes() for t in leaves]
    for t in leaves:
        t.grad = None
    again = ad.Tape()
    again.backward(every_primitive(again, leaves)[-1])
    assert [t.grad.tobytes() for t in leaves] == first


class TestAdam:
    def test_first_step_magnitude(self):
        p = ad.parameter([[1.0]])
        opt = ad.Adam([p], lr=1e-4)
        p.grad = np.array([[1.0]])
        opt.step()
        # Closed form: bias-corrected moments are both 1 at t=1, so the
        # update is lr / (1 + eps).
        expected = 1.0 - 1e-4 / (1.0 + 1e-8)
        assert p.data[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zero_grad_leaves_param_unchanged(self):
        p = ad.parameter([[2.5]])
        opt = ad.Adam([p], lr=1e-2)
        p.grad = np.array([[0.0]])
        opt.step()
        assert p.data[0, 0] == 2.5

    def test_missing_grad_raises(self):
        p = ad.parameter([[1.0]])
        opt = ad.Adam([p], lr=1e-2)
        with pytest.raises(ContractViolation):
            opt.step()

    def test_two_steps_reproducible(self):
        def run():
            rng = np.random.default_rng(9)
            p = ad.parameter(rng.uniform(-1, 1, size=(3, 3)))
            opt = ad.Adam([p], lr=1e-3)
            for _ in range(2):
                p.grad = np.full((3, 3), 0.25)
                opt.step()
                opt.zero_grad()
            return p.data.copy()

        first, second = run(), run()
        assert np.array_equal(first, second)


    def test_in_place_step_equals_textbook_formula(self):
        rng = np.random.default_rng(11)
        start = rng.uniform(-1, 1, size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(5)]
        for g in grads:
            g[0, :2] = (0.0, -0.0)
        grads[2][:] = -0.0
        lr, b1, b2, eps = 1e-2, ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS

        p = ad.parameter(start)
        data = p.data
        opt = ad.Adam([p], lr=lr)
        ref, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            opt.zero_grad()
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(p.data, ref), t
        assert p.data is data


def _entry(key: str, values, rows: int, cols: int) -> bytes:
    """One raw ``dagrl-ckpt-v2`` entry: its text line, then its float64 payload."""
    return f"{key} {rows} {cols}\n".encode() + np.asarray(values, dtype="<f8").tobytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        arrays = {
            "enc/w": rng.standard_normal((3, 4)),
            "delta/0": rng.standard_normal((2, 2)),
            "scalar": np.array([[np.pi]]),
            "special": np.array([[-0.0, np.inf, -np.inf, np.nan, 5e-324]]),
            "empty": np.zeros((0, 3)),
        }
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, arrays)
        assert path.read_bytes().split(b"\n", 1)[0] == b"dagrl-ckpt-v2 5"
        loaded = ad.load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for k in arrays:
            assert loaded[k].shape == arrays[k].shape
            assert loaded[k].tobytes() == arrays[k].tobytes()
            assert loaded[k].dtype == np.float64 and loaded[k].flags.writeable

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(Exception, match="header"):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("content,line,reason", [
        (b"dagrl-ckpt-v2 1\nw k 1\n" + np.float64(1.0).tobytes(), 2, "shape"),
        # Two values under a 1x1 shape: the second runs into the next entry's line.
        (b"dagrl-ckpt-v2 2\n" + _entry("a", [1.0, 2.0], 1, 1) + _entry("b", [3.0], 1, 1), 3,
         "unprintable"),
        (b"dagrl-ckpt-v2 1\n" + b"w -1 -1\n", 2, "negative"),
        # int() reads "0_2" as 2; a shape is plain ASCII digits.
        (b"dagrl-ckpt-v2 1\na 1 0_2\n" + np.ones(2).tobytes(), 2, "shape"),
        (b"dagrl-ckpt-v1\nw 1 1\n1.0\n", 1, "expected 'dagrl-ckpt-v2"),
        (b"dagrl-ckpt-v2 2\n" + _entry("a", [1.0], 1, 1) + _entry("b", [2.0], 1, 2), 3,
         "8 payload bytes for shape \\(1, 2\\)"),
        (b"dagrl-ckpt-v2 3\n" + _entry("a", [1.0], 1, 1) + _entry("b", [2.0], 1, 1), 1,
         "after 2 of 3 entries"),
        (b"dagrl-ckpt-v2 1\n" + _entry("a", [1.0], 1, 1) + b"\n", 1, "1 trailing bytes"),
        (b"dagrl-ckpt-v2 2\n" + _entry("a", [1.0], 1, 1) + _entry("a", [2.0], 1, 1), 3,
         "duplicate"),
    ], ids=["shape", "value", "negative-shape", "underscore-shape", "v1-header", "short-payload",
            "missing-entry", "trailing-bytes", "duplicate-key"])
    def test_malformed_entry_is_format_error(self, tmp_path, content, line, reason):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(content)
        with pytest.raises(DatasetFormatError, match=reason) as excinfo:
            ad.load_checkpoint(path)
        assert excinfo.value.line == line

    def test_every_strict_prefix_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        # An empty last entry: only its line's newline tells a cut file from a whole one.
        ad.save_checkpoint(path, {"enc/w": np.arange(6.0).reshape(2, 3),
                                  "delta/0": [[0.5]], "empty": np.zeros((0, 2))})
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(DatasetFormatError):
                ad.load_checkpoint(cut)

    def test_failed_save_leaves_no_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractViolation, match="space"):
            ad.save_checkpoint(path, {"a": np.ones((2, 2)), "b c": np.ones((1, 1))})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [("b\nc", [[1.0]]), ("", [[1.0]]), ("b\x00c", [[1.0]]),
                                           ("cube", np.ones((1, 1, 1))), ("row", np.ones(3))],
                             ids=["newline", "empty", "control", "3-d", "1-d"])
    def test_unloadable_entry_rejected_on_save(self, tmp_path, key, value):
        with pytest.raises(ContractViolation, match="checkpoint"):
            ad.save_checkpoint(tmp_path / "model.ckpt", {"a": np.ones((1, 1)), key: value})
        assert list(tmp_path.iterdir()) == []


def test_log_sigmoid_clamps_probability():
    tape = ad.Tape()
    x = ad.constant([[-100.0, 100.0]])
    y = ad.log_sigmoid(tape, x)
    assert y.data[0, 0] == pytest.approx(np.log(1e-7))
    assert y.data[0, 1] == pytest.approx(np.log1p(-1e-7))


class TestModule:
    def test_names_follow_assignment_order_and_skip_other_attributes(self):
        rng = np.random.default_rng(0)

        class Toy(ad.Module):
            def __init__(self):
                self.width = 3
                self.scale = ad.parameter(np.ones((1, 1)))
                self.label = "toy"
                self.inner = ad.Linear(rng, 2, 3)
                self.buffer = np.zeros(2)
                self.offset = ad.constant(np.zeros((1, 3)))

        toy = Toy()
        names = toy.named_params()
        assert list(names) == ["scale", "inner/weight", "inner/bias", "offset"]
        assert names["inner/weight"] is toy.inner.weight
        assert len(toy.params()) == 4
        assert all(a is b for a, b in zip(toy.params(), names.values()))
