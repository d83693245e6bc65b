"""Tests of the autodiff tape (the test oracle in tape.py), the block
Laplacian products, Adam and the initializer.

Every tracked op is finite-difference checked against an arbitrary upstream
cotangent (the loss contracts the op output with a fixed random matrix, so
uniform-gradient bugs cannot hide). Inputs stay away from LeakyReLU kinks.
"""

import numpy as np
import pytest

import tape as nm
from cosd.cpa import CpaError, xavier_init
from cosd.graph import BipartiteLaplacian, GraphError, dropout_graph, laplacian
from cosd.training import AdamState, TrainingError, adam_step
from tape import TapeError, Tensor, backward


def _fd_grads(build, tensors, h=1e-6):
    """Central finite differences of the scalar build() w.r.t. each tensor."""
    out = []
    for t in tensors:
        num = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = t.data[ij]
            t.data[ij] = orig + h
            lp = float(build().data[0, 0])
            t.data[ij] = orig - h
            lm = float(build().data[0, 0])
            t.data[ij] = orig
            num[ij] = (lp - lm) / (2 * h)
        out.append(num)
    return out


def _check_grads(build, tensors, rtol=1e-5, atol=1e-7):
    for t in tensors:
        t.grad = None
    loss = build()
    backward(loss)
    numeric = _fd_grads(build, tensors)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        assert np.allclose(t.grad, num, rtol=rtol, atol=atol), (
            f"analytic {t.grad} vs numeric {num}")


def _contract(out, seed):
    """Scalar that hits every output element with a distinct cotangent."""
    c = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    return nm.sum_all(nm.elemwise_mul(out, c))


_RNG = np.random.default_rng(123)


def _t(rows, cols, lo=-2.0, hi=2.0):
    return Tensor(_RNG.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


# --- tensor construction -----------------------------------------------------


def test_tensor_shapes_normalize():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor([[1.0], [2.0]]).shape == (2, 1)
    with pytest.raises(TapeError):
        Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(TapeError):
        Tensor([np.nan])
    with pytest.raises(TapeError):
        Tensor([np.inf])


def test_untracked_inputs_leave_no_tape():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = nm.add(a, b)
    assert not out.requires_grad
    assert out._parents == ()
    tracked = nm.add(a, Tensor(np.ones((2, 2)), requires_grad=True))
    assert tracked.requires_grad
    assert len(tracked._parents) == 2


# --- forward values -----------------------------------------------------------


def test_matmul_forward_and_shape_error():
    a, b = _t(2, 3), _t(3, 4)
    assert np.allclose(nm.matmul(a, b).data, a.data @ b.data)
    with pytest.raises(TapeError):
        nm.matmul(a, _t(2, 4))


def _coo(lap):
    """The block Laplacian's nonzeros as COO (row, col, weight) arrays."""
    n = lap.n_text
    t, s = np.nonzero(lap.to_text)
    t2, s2 = np.nonzero(lap.to_side)
    return (np.concatenate([t, s2 + n]), np.concatenate([s + n, t2]),
            np.concatenate([lap.to_text[t, s], lap.to_side[t2, s2]]))


def _coo_spmm(rows, row_idx, col_idx, weights, dense):
    """Slow oracle: the COO scatter product the block spmm replaced."""
    out = np.zeros((rows, dense.shape[1]))
    np.add.at(out, row_idx, weights[:, None] * dense[col_idx])
    return out


def _coo_spmm_vjp(row_idx, col_idx, weights, dense, g):
    """Slow oracle: the COO scatter vector-Jacobian product."""
    db = np.zeros_like(dense)
    np.add.at(db, col_idx, weights[:, None] * g[row_idx])
    return db


def _random_block_laplacian(rng, n_text, n_side):
    m = np.where(rng.random((n_text, n_side)) < 0.5,
                 rng.random((n_text, n_side)) + 0.05, 0.0)
    return laplacian(m)


def test_spmm_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n_text, n_side = rng.integers(1, 9, size=2)
        to_text = np.where(rng.random((n_text, n_side)) < 0.4,
                           rng.standard_normal((n_text, n_side)), 0.0)
        to_side = np.where(rng.random((n_text, n_side)) < 0.4,
                           rng.standard_normal((n_text, n_side)), 0.0)
        dense = np.zeros((n_text + n_side, n_text + n_side))
        dense[:n_text, n_text:] = to_text
        dense[n_text:, :n_text] = to_side.T
        b = rng.standard_normal((n_text + n_side, 7))
        lap = BipartiteLaplacian(to_text, to_side)
        assert np.allclose(lap.matmul(b), dense @ b, atol=1e-12)
        assert np.allclose(lap.transpose_matmul(b), dense.T @ b, atol=1e-12)
        assert np.array_equal(nm.spmm(lap, Tensor(b)).data, lap.matmul(b))
        for product in (lap.matmul, lap.transpose_matmul):
            out = np.full_like(b, np.nan)
            assert product(b, out=out) is out
            assert np.array_equal(out, product(b))
    for bad in (np.zeros((n_text + n_side + 1, 2)), np.zeros(n_text + n_side)):
        with pytest.raises(GraphError):
            lap.matmul(bad)
        with pytest.raises(GraphError):
            lap.transpose_matmul(bad)
    for out in (np.zeros((b.shape[0], 6)), b, b[:, ::-1]):
        with pytest.raises(GraphError):
            lap.matmul(b, out=out)
        with pytest.raises(GraphError):
            lap.transpose_matmul(b, out=out)
    with pytest.raises(TapeError):
        nm.spmm(lap, Tensor(np.zeros((n_text + n_side + 1, 2))))


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_spmm_and_vjp_match_coo_scatter_oracle(rate):
    rng = np.random.default_rng(6)
    for _ in range(10):
        n_text, n_side = (int(k) for k in rng.integers(1, 30, size=2))
        lap = dropout_graph(_random_block_laplacian(rng, n_text, n_side),
                            rate, rng)
        row_idx, col_idx, weights = _coo(lap)
        assert len(weights) == lap.nnz
        b = rng.standard_normal((lap.rows, 9))
        expect = _coo_spmm(lap.rows, row_idx, col_idx, weights, b)
        assert np.allclose(lap.matmul(b), expect, rtol=0, atol=1e-12)
        g = rng.standard_normal(b.shape)
        expect = _coo_spmm_vjp(row_idx, col_idx, weights, b, g)
        assert np.allclose(lap.transpose_matmul(g), expect, rtol=0, atol=1e-12)
        (tape_vjp,) = nm.spmm(lap, Tensor(b, requires_grad=True))._vjp(g)
        assert np.array_equal(tape_vjp, lap.transpose_matmul(g))


def test_add_sub_broadcast_rules():
    a = _t(3, 4)
    bias = _t(1, 4)
    assert np.allclose(nm.add(a, bias).data, a.data + bias.data)
    assert np.allclose(nm.sub(a, bias).data, a.data - bias.data)
    with pytest.raises(TapeError):
        nm.add(a, _t(2, 4))
    with pytest.raises(TapeError):
        nm.sub(a, _t(3, 2))
    with pytest.raises(TapeError):
        nm.add(a, _t(3, 1))  # column broadcast is out of contract


def test_leaky_relu_values():
    x = Tensor([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    y = nm.leaky_relu(x)
    assert np.allclose(y.data, [[-0.02, -0.005, 0.0, 0.5, 2.0]])
    pos = Tensor([[0.3, 1.0, 7.0]])
    assert np.array_equal(nm.leaky_relu(pos).data, pos.data)
    steep = nm.leaky_relu(x, slope=0.2)
    assert np.allclose(steep.data, [[-0.4, -0.1, 0.0, 0.5, 2.0]])


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = _t(4, 6, lo=-3, hi=3)
    y = nm.softmax_rows(x)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
    shifted = nm.softmax_rows(Tensor(x.data + 100.0))
    assert np.allclose(y.data, shifted.data)


def test_logsigmoid_values_and_stability():
    x = Tensor([[0.0]])
    assert np.allclose(nm.logsigmoid(x).data, -np.log(2.0))
    big = Tensor([[1000.0, -1000.0]])
    y = nm.logsigmoid(big).data
    assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert y[0, 1] == pytest.approx(-1000.0)
    assert np.isfinite(y).all()


def test_reductions_and_gather_forward():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nm.row_sums(x).data, [[3.0], [7.0]])
    assert nm.sum_all(x).data[0, 0] == 10.0
    assert nm.mean_all(x).data[0, 0] == 2.5
    g = nm.gather_rows(x, [1, 0, 1])
    assert np.array_equal(g.data, [[3, 4], [1, 2], [3, 4]])
    with pytest.raises(TapeError):
        nm.gather_rows(x, [2])
    with pytest.raises(TapeError):
        nm.gather_rows(x, [[0, 1]])


def test_concat_cols_forward_and_errors():
    a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = nm.concat_cols([a, b])
    assert np.array_equal(out.data, [[1, 3, 4], [2, 5, 6]])
    with pytest.raises(TapeError):
        nm.concat_cols([])
    with pytest.raises(TapeError):
        nm.concat_cols([a, Tensor(np.ones((3, 1)))])


def test_elemwise_mul_zero_annihilates_gradient():
    x = _t(2, 3)
    z = Tensor(np.zeros((2, 3)))
    out = nm.elemwise_mul(x, z)
    assert np.array_equal(out.data, np.zeros((2, 3)))
    backward(nm.sum_all(out))
    assert np.array_equal(x.grad, np.zeros((2, 3)))


# --- gradient oracle ----------------------------------------------------------


def test_grad_matmul():
    a, b = _t(3, 4), _t(4, 2)
    _check_grads(lambda: _contract(nm.matmul(a, b), 1), [a, b])


def test_grad_spmm():
    to_text = np.array([[1.0, 0.0, 2.0], [0.0, -1.5, 0.0]])
    to_side = np.array([[0.5, 0.0, 0.0], [0.0, 3.0, -1.0]])
    lap = BipartiteLaplacian(to_text, to_side)
    rng = np.random.default_rng(8)
    b = Tensor(rng.uniform(-2, 2, size=(5, 4)), requires_grad=True)
    _check_grads(lambda: _contract(nm.spmm(lap, b), 2), [b])
    lap = dropout_graph(_random_block_laplacian(rng, 4, 3), 0.2, rng)
    b = Tensor(rng.uniform(-2, 2, size=(7, 3)), requires_grad=True)
    _check_grads(lambda: _contract(nm.spmm(lap, b), 3), [b])


def test_grad_add_sub_with_broadcast():
    a, b = _t(3, 4), _t(3, 4)
    bias = _t(1, 4)
    _check_grads(lambda: _contract(nm.add(a, b), 3), [a, b])
    _check_grads(lambda: _contract(nm.sub(a, b), 4), [a, b])
    _check_grads(lambda: _contract(nm.add(a, bias), 5), [a, bias])
    _check_grads(lambda: _contract(nm.sub(a, bias), 6), [a, bias])


def test_grad_scale_and_elemwise_mul():
    a, b = _t(2, 5), _t(2, 5)
    _check_grads(lambda: _contract(nm.scale(a, -2.5), 7), [a])
    _check_grads(lambda: _contract(nm.elemwise_mul(a, b), 8), [a, b])


def test_grad_concat_and_gather():
    a, b, c = _t(3, 2), _t(3, 1), _t(3, 4)
    _check_grads(lambda: _contract(nm.concat_cols([a, b, c]), 9), [a, b, c])
    x = _t(4, 3)
    idx = np.array([0, 2, 2, 3, 0])  # repeats exercise scatter-add
    _check_grads(lambda: _contract(nm.gather_rows(x, idx), 10), [x])


def test_grad_leaky_relu_away_from_kink():
    x = Tensor(np.array([[1.2, -0.8, 0.4], [-1.1, 2.0, -0.3]]),
               requires_grad=True)
    _check_grads(lambda: _contract(nm.leaky_relu(x), 11), [x])
    _check_grads(lambda: _contract(nm.leaky_relu(x, slope=0.2), 12), [x])


def test_grad_softmax_rows():
    x = _t(3, 5)
    _check_grads(lambda: _contract(nm.softmax_rows(x), 13), [x])


def test_grad_logsigmoid():
    x = _t(2, 4, lo=-3, hi=3)
    _check_grads(lambda: _contract(nm.logsigmoid(x), 15), [x])


def test_grad_reductions():
    x = _t(3, 4)
    _check_grads(lambda: _contract(nm.row_sums(x), 16), [x])
    _check_grads(lambda: nm.sum_all(x), [x])
    _check_grads(lambda: nm.mean_all(x), [x])


def test_grad_composed_pipeline():
    a, w = _t(3, 4), _t(4, 4)
    bias = _t(1, 4)

    def build():
        hidden = nm.leaky_relu(nm.add(nm.matmul(a, w), bias))
        att = nm.softmax_rows(hidden)
        return nm.mean_all(nm.elemwise_mul(att, hidden))

    _check_grads(build, [a, w, bias])


# --- tape semantics -----------------------------------------------------------


def test_backward_sum_gives_ones():
    x = _t(2, 3)
    backward(nm.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = _t(2, 3)
    with pytest.raises(TapeError):
        backward(nm.row_sums(x))


def test_backward_twice_doubles_grads():
    x = _t(2, 2)
    loss = nm.mean_all(nm.elemwise_mul(x, x))
    backward(loss)
    once = x.grad.copy()
    backward(loss)
    assert np.allclose(x.grad, 2 * once)


def test_diamond_reuse_accumulates():
    x = Tensor([[3.0]], requires_grad=True)
    y = nm.add(x, x)
    backward(nm.sum_all(y))
    assert x.grad[0, 0] == 2.0
    z = Tensor([[2.0]], requires_grad=True)
    backward(nm.sum_all(nm.elemwise_mul(z, z)))
    assert z.grad[0, 0] == 4.0


def test_grads_accumulate_across_losses():
    x = _t(2, 2)
    backward(nm.sum_all(x))
    backward(nm.mean_all(x))
    assert np.allclose(x.grad, 1.0 + 0.25)


def test_nonfinite_result_is_rejected():
    big = Tensor(np.full((1, 1), 1e308))
    with np.errstate(over="ignore"), pytest.raises(TapeError):
        nm.elemwise_mul(big, big)


# --- optimizer ----------------------------------------------------------------


def test_adam_against_reference_implementation():
    rng = np.random.default_rng(21)
    shapes = [(2, 3), (4, 1)]
    params = [rng.standard_normal(s) for s in shapes]
    ref = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = AdamState(params, lr=lr)
    for t in range(1, 4):
        grads = [rng.standard_normal(s) for s in shapes]
        adam_step(state, [g.copy() for g in grads])
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            ref[i] = ref[i] - lr * (m[i] / (1 - b1 ** t)) / (
                np.sqrt(v[i] / (1 - b2 ** t)) + eps)
        for p, r in zip(params, ref):
            assert np.allclose(p, r, atol=1e-15)
    assert state.step_count == 3


def _adam_oracle_step(params, grads, m, v, t, lr, b1, b2, eps):
    """Oracle: the Adam update as whole-array expressions, each operation
    allocating its result."""
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= b1
        m_i += (1 - b1) * g
        v_i *= b2
        v_i += (1 - b2) * g * g
        m_hat = m_i / (1 - b1 ** t)
        v_hat = v_i / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("lr, b1, b2, eps", [(1e-4, 0.9, 0.999, 1e-8),
                                             (0.3, 0.5, 0.9, 1e-3)])
def test_adam_in_place_step_equals_oracle_bitwise(lr, b1, b2, eps):
    rng = np.random.default_rng(22)
    # large parameters, in rows and in a vector, beside small ones
    big = (1 << 15) + 321
    shapes = [(61, 77), (big // 100 + 1, 100), (5, 1), (1,), (big,)]
    params = [rng.standard_normal(s) for s in shapes]
    ref = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = AdamState(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 13):
        # tiny, huge and zero entries exercise the rounding of each operation
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 8, s)
                 * (rng.random(s) > 0.1) for s in shapes]
        adam_step(state, grads)
        _adam_oracle_step(ref, grads, m, v, t, lr, b1, b2, eps)
        for got, want in zip(params + state.m + state.v, ref + m + v):
            assert np.array_equal(got, want)


def test_adam_first_step_magnitude_is_lr():
    p = np.array([[1.0, -2.0]])
    state = AdamState([p], lr=0.05)
    adam_step(state, [np.array([[0.3, -0.7]])])
    # bias-corrected m/sqrt(v) = sign(g) on step one, up to eps; in place
    assert np.allclose(p, [[1.0 - 0.05, -2.0 + 0.05]], atol=1e-6)
    assert state.params[0] is p


def test_adam_zero_gradient_keeps_parameter():
    p = np.array([[1.5]])
    state = AdamState([p], lr=0.1)
    adam_step(state, [np.zeros((1, 1))])
    assert p[0, 0] == 1.5


def test_adam_validates_params_and_grads():
    p = np.array([[1.0]])
    with pytest.raises(TrainingError):
        AdamState([], lr=0.1)
    state = AdamState([p], lr=0.1)
    with pytest.raises(TrainingError):
        adam_step(state, [])  # no grad given
    with pytest.raises(TrainingError):
        adam_step(state, [np.ones((1, 1)), np.ones((1, 1))])
    with pytest.raises(TrainingError):
        adam_step(state, [np.ones((1, 2))])
    assert state.step_count == 0
    adam_step(state, [np.ones((1, 1))])  # one grad per parameter is fine


# --- initialization -------------------------------------------------------------


def test_xavier_bound_and_determinism():
    t = xavier_init(30, 50, seed=4)
    bound = np.sqrt(6.0 / 80.0)
    assert t.shape == (30, 50) and t.dtype == np.float64
    assert (np.abs(t) <= bound).all()
    again = xavier_init(30, 50, seed=4)
    other = xavier_init(30, 50, seed=5)
    assert np.array_equal(t, again)
    assert not np.array_equal(t, other)


def test_xavier_mean_near_zero():
    t = xavier_init(100, 1000, seed=9)
    bound = np.sqrt(6.0 / 1100.0)
    sigma = bound / np.sqrt(3.0)  # stdev of U(-b, b)
    assert abs(t.mean()) < 3 * sigma / np.sqrt(t.size)


def test_xavier_rejects_zero_dims():
    with pytest.raises(CpaError):
        xavier_init(0, 3, seed=0)
    with pytest.raises(CpaError):
        xavier_init(3, 0, seed=0)
