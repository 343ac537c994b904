"""Gradient checks for every autodiff op against central finite differences."""
import numpy as np
import pytest

from rlhgnn import autodiff as ad


def fd_grad(f, x: np.ndarray, eps=1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        up = f()
        x[i] = orig - eps
        down = f()
        x[i] = orig
        g[i] = (up - down) / (2 * eps)
        it.iternext()
    return g


def check(build, *leaf_shapes, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    leaves = [ad.param(rng.normal(size=s)) for s in leaf_shapes]
    loss = build(*leaves)
    ad.backward(loss)
    for leaf in leaves:
        analytic = leaf.grad
        numeric = fd_grad(lambda: float(build(*leaves).value), leaf.value)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def test_add_sub_mul_div():
    check(lambda a, b: ad.total_sum(ad.mul(ad.add(a, b), ad.sub(a, b))), (3, 4), (3, 4))
    check(lambda a, b: ad.total_sum(ad.div(a, ad.add_const(ad.square(b), 2.0))), (3, 4), (3, 4))


def test_broadcasting_grads():
    check(lambda a, b: ad.total_sum(ad.mul(a, b)), (5, 3), (1, 3))
    check(lambda a, b: ad.total_sum(ad.add(a, b)), (5, 3), (5, 1))
    check(lambda a, b: ad.total_sum(ad.div(a, ad.add_const(ad.square(b), 1.0))), (4, 3), (4, 1))


def test_matmul():
    check(lambda a, b: ad.total_sum(ad.matmul(a, b)), (4, 3), (3, 5))


def test_activations():
    check(lambda a: ad.total_sum(ad.relu(a)), (6, 4), seed=3)
    check(lambda a: ad.total_sum(ad.leaky_relu(a, 0.2)), (6, 4), seed=3)


def test_exp_log():
    check(lambda a: ad.total_sum(ad.exp(a)), (3, 3))
    check(lambda a: ad.total_sum(ad.log(ad.add_const(ad.square(a), 1.0))), (3, 3))


def test_reductions_and_reshape():
    check(lambda a: ad.total_mean(ad.square(a)), (4, 5))
    check(lambda a: ad.total_sum(ad.square(ad.sum_cols(a))), (4, 5))
    check(lambda a: ad.total_sum(ad.square(ad.reshape(a, (2, 10)))), (4, 5))


def test_gather_rows_accumulates_repeats():
    idx = np.array([0, 2, 2, 1])
    check(lambda a: ad.total_sum(ad.square(ad.gather_rows(a, idx))), (3, 4))


def test_segment_and_repeat():
    starts = np.array([0, 2, 5])
    lengths = np.array([2, 3, 1])
    check(lambda a: ad.total_sum(ad.square(ad.segment_sum(a, starts, lengths))), (6, 3))
    check(lambda a: ad.total_sum(ad.square(ad.repeat_rows(a, lengths))), (3, 4))


def test_head_dot():
    check(lambda x, a: ad.total_sum(ad.square(ad.head_dot(x, a))), (5, 3, 4), (3, 4))
    check(lambda x, a: ad.total_sum(ad.square(ad.head_dot(x, a))), (1, 1, 2), (1, 2))
    x, a = np.arange(24.0).reshape(2, 3, 4), np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(ad.head_dot(ad.const(x), ad.const(a)).value,
                                  (x * a).sum(axis=2))


def test_segments_must_tile_the_rows():
    a = ad.param(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        ad.segment_sum(a, [0, 1, 1], [1, 0, 2])  # reduceat would return row 1
    with pytest.raises(ValueError, match="exclusive cumsum"):
        ad.segment_sum(a, [0, 2], [1, 2])
    with pytest.raises(ValueError, match="exclusive cumsum"):
        ad.segment_sum(a, [0, 1], [1, 1])  # last row left out
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        ad.repeat_rows(a, [1, 0, 2])
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        ad.repeat_rows(a, [1, -1, 2])
    np.testing.assert_array_equal(ad.segment_sum(a, [0, 1], [1, 2]).value, [[0, 1], [6, 8]])


def test_stacks_and_slices():
    check(lambda a, b: ad.total_sum(ad.square(ad.vstack([a, b]))), (2, 3), (4, 3))


def test_mul_const_and_scale():
    mask = np.array([[1.0, 0.0, 2.0]])
    check(lambda a: ad.total_sum(ad.mul_const(a, mask)), (4, 3))
    check(lambda a: ad.total_sum(ad.scale(a, -2.5)), (4, 3))


def test_shared_subexpression_grad_accumulates():
    # y = sum(a*a + a) -> dy/da = 2a + 1
    a = ad.param(np.array([1.0, -2.0, 3.0]))
    loss = ad.total_sum(ad.add(ad.mul(a, a), a))
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, 2 * a.value + 1)


def test_backward_requires_scalar():
    a = ad.param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.square(a))


def test_softmax_composition_matches_closed_form():
    rng = np.random.default_rng(1)
    x = ad.param(rng.normal(size=(5, 4)))
    zmax = x.value.max(axis=1, keepdims=True)
    ez = ad.exp(ad.add_const(x, -zmax))
    probs = ad.div(ez, ad.reshape(ad.sum_cols(ez), (-1, 1)))
    np.testing.assert_allclose(probs.value.sum(axis=1), np.ones(5), atol=1e-12)
    onehot = np.zeros((5, 4))
    onehot[np.arange(5), [0, 1, 2, 3, 0]] = 1.0
    loss = ad.scale(ad.total_sum(ad.log(ad.sum_cols(ad.mul_const(probs, onehot)))), -1.0)
    ad.backward(loss)
    # d(-log softmax)/dlogits = probs - onehot
    np.testing.assert_allclose(x.grad, probs.value - onehot, atol=1e-10)
