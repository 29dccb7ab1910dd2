import zlib

import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.errors import ContractViolation, DatasetFormatError
from helpers import finite_difference, max_relative_error


def sum_all(tape, t):
    ones = ad.constant(np.ones((t.shape[1], 1)))
    return ad.matmul(tape, ad.sum_rows(tape, t), ones)


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
    out = ad.matmul(tape, ad.constant(np.eye(2)), a)
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
    tape.backward(ad.matmul(tape, x, ad.constant(y.data.T)))
    assert np.array_equal(x.grad, y.data)


def test_reuse_accumulates():
    tape = ad.Tape()
    x = ad.parameter([[3.0]])
    loss = ad.add(tape, x, x)
    tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0]])


def test_first_contribution_negative_zero_is_stored_as_positive_zero():
    # zeros + g, as a zero-initialized buffer would give.
    x = ad.parameter(np.ones((1, 2)))
    x.accumulate_grad(np.array([[-0.0, -1.5]]))
    assert np.array_equal(x.grad, [[0.0, -1.5]])
    assert not np.signbit(x.grad[0, 0])


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
        terms = [ad.matmul(tape, x, ad.constant(m)) for m in order]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(tape, total, t)
        loss = ad.sum_rows(tape, ad.matmul(tape, total, ad.constant(np.ones((3, 1)))))
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
        ad.matmul(tape, a, b)


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
        h = ad.relu(tape, ad.add(tape, ad.matmul(tape, x, w1), b1))
        logits = ad.add(tape, ad.matmul(tape, h, w2), b2)
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
        h = ad.relu(tape, ad.add(tape, ad.matmul(tape, x, w1), b1))
        logits = ad.add(tape, ad.matmul(tape, h, w2), b2)
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
        assert len(unfrozen) == 6

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
    "matmul", "matmul_const", "matmul_const_sparse", "add", "add_bias", "scale",
    "relu", "softmax", "sum_rows", "mean_rows", "concat0", "concat1",
    "cross_entropy", "log_sigmoid",
]


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients(name, seed):
    # crc32, not hash(): str hashes are salted per process, so a failing
    # case would draw different inputs on every run.
    rng = np.random.default_rng(seed * 131 + zlib.crc32(name.encode()) % 1000)
    import scipy.sparse as sp

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
        build = lambda tape: ad.matmul(tape, a, b)
    elif name == "matmul_const":
        m = sample((3, 4))
        x = leaf((4, 2))
        build = lambda tape: ad.matmul_const(tape, m, x)
    elif name == "matmul_const_sparse":
        m = sp.random(3, 4, density=0.5, random_state=7, format="csr")
        x = leaf((4, 2))
        build = lambda tape: ad.matmul_const(tape, m, x)
    elif name == "add":
        a, b = leaf((3, 4)), leaf((3, 4))
        build = lambda tape: ad.add(tape, a, b)
    elif name == "add_bias":
        a, b = leaf((3, 4)), leaf((1, 4))
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
    elif name == "concat0":
        a, b = leaf((2, 3)), leaf((4, 3))
        build = lambda tape: ad.concat(tape, [a, b], axis=0)
    elif name == "concat1":
        a, b = leaf((3, 2)), leaf((3, 4))
        build = lambda tape: ad.concat(tape, [a, b], axis=1)
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
        return ad.matmul(tape, ad.matmul_const(tape, rows, out), ad.constant(cols))

    def run():
        tape = ad.Tape()
        out = build(tape)
        return tape, scalarize(tape, out)

    tape, loss = run()
    tape.backward(loss)
    for t in leaves:
        numeric = finite_difference(lambda: run()[1].item(), t.data)
        assert max_relative_error(t.grad, numeric) <= 1e-4, name


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
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8

        p = ad.parameter(start)
        data = p.data
        opt = ad.Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
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


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        arrays = {
            "enc/w": rng.standard_normal((3, 4)),
            "delta/0": rng.standard_normal((2, 2)),
            "scalar": np.array([[np.pi]]),
        }
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, arrays)
        assert path.read_text().splitlines()[0] == "dagrl-ckpt-v1"
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(Exception, match="header"):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("body,line", [("w k 1\n1.0\n", 2), ("w 1 2\n1.0 abc\n", 3)],
                             ids=["shape", "value"])
    def test_malformed_entry_is_format_error(self, tmp_path, body, line):
        path = tmp_path / "bad.ckpt"
        path.write_text("dagrl-ckpt-v1\n" + body)
        with pytest.raises(DatasetFormatError) as excinfo:
            ad.load_checkpoint(path)
        assert excinfo.value.line == line

    def test_failed_save_leaves_no_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractViolation, match="space"):
            ad.save_checkpoint(path, {"a": np.ones((2, 2)), "b c": np.ones((1, 1))})
        assert list(tmp_path.iterdir()) == []


def test_log_sigmoid_clamps_probability():
    tape = ad.Tape()
    x = ad.constant([[-100.0, 100.0]])
    y = ad.log_sigmoid(tape, x)
    assert y.data[0, 0] == pytest.approx(np.log(1e-7))
    assert y.data[0, 1] == pytest.approx(np.log1p(-1e-7))


def test_sigmoid_probabilities_strictly_inside_unit_interval():
    p = ad.sigmoid_probabilities(np.array([[-1e3, 0.0, 1e3]]))
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert p[0, 1] == 0.5
