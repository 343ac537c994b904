"""Gradient checks for the per-op tape ops that the references in
tests/helpers.py record, against central finite differences; and the
chain walk of autodiff.backward on the program's two tapes against the
reference walk in tests/helpers.py."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add,
    add_const,
    const,
    div,
    exp,
    gather_rows,
    graphs_and_episodes,
    head_dot,
    imdb_like_graph,
    leaky_relu,
    log,
    matmul,
    mul,
    mul_const,
    per_op_td_loss,
    recorded_forward,
    reference_backward,
    reference_dropout_rows,
    reference_grads,
    reference_scatter_rows,
    relu,
    repeat_rows,
    reshape,
    scale,
    segment_sum,
    square,
    sub,
    sum_cols,
    topo,
    total_mean,
    total_sum,
    vstack,
)
from rlhgnn import autodiff as ad
from rlhgnn import model
from rlhgnn.agent import QNetwork, TransitionBatch, td_loss
from rlhgnn.aggplan import build_plan
from rlhgnn.model import (
    _gather,
    _scatter_rows,
    backward,
    classify,
    cross_entropy,
    hgnn_forward,
    init_params,
)
from rlhgnn.pipeline import random_legal_episodes


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
    grads = reference_backward(loss)
    for leaf in leaves:
        analytic = grads[leaf]
        numeric = fd_grad(lambda: float(build(*leaves).value), leaf.value)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def test_add_sub_mul_div():
    check(lambda a, b: total_sum(mul(add(a, b), sub(a, b))), (3, 4), (3, 4))
    check(lambda a, b: total_sum(div(a, add_const(square(b), 2.0))), (3, 4), (3, 4))


def test_broadcasting_grads():
    check(lambda a, b: total_sum(mul(a, b)), (5, 3), (1, 3))
    check(lambda a, b: total_sum(add(a, b)), (5, 3), (5, 1))
    check(lambda a, b: total_sum(div(a, add_const(square(b), 1.0))), (4, 3), (4, 1))


def test_matmul():
    check(lambda a, b: total_sum(matmul(a, b)), (4, 3), (3, 5))


def test_activations():
    check(lambda a: total_sum(relu(a)), (6, 4), seed=3)
    check(lambda a: total_sum(leaky_relu(a, 0.2)), (6, 4), seed=3)


def test_exp_log():
    check(lambda a: total_sum(exp(a)), (3, 3))
    check(lambda a: total_sum(log(add_const(square(a), 1.0))), (3, 3))


def test_reductions_and_reshape():
    check(lambda a: total_mean(square(a)), (4, 5))
    check(lambda a: total_sum(square(sum_cols(a))), (4, 5))
    check(lambda a: total_sum(square(reshape(a, (2, 10)))), (4, 5))


def test_gather_rows_accumulates_repeats():
    idx = np.array([0, 2, 2, 1])
    check(lambda a: total_sum(square(gather_rows(a, idx))), (3, 4))


def test_segment_and_repeat():
    starts = np.array([0, 2, 5])
    lengths = np.array([2, 3, 1])
    check(lambda a: total_sum(square(segment_sum(a, starts, lengths))), (6, 3))
    check(lambda a: total_sum(square(repeat_rows(a, lengths))), (3, 4))


def test_head_dot():
    check(lambda x, a: total_sum(square(head_dot(x, a))), (5, 3, 4), (3, 4))
    check(lambda x, a: total_sum(square(head_dot(x, a))), (1, 1, 2), (1, 2))
    x, a = np.arange(24.0).reshape(2, 3, 4), np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(head_dot(const(x), const(a)).value,
                                  (x * a).sum(axis=2))


def test_segments_must_tile_the_rows():
    a = ad.param(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        segment_sum(a, [0, 1, 1], [1, 0, 2])  # reduceat would return row 1
    with pytest.raises(ValueError, match="exclusive cumsum"):
        segment_sum(a, [0, 2], [1, 2])
    with pytest.raises(ValueError, match="exclusive cumsum"):
        segment_sum(a, [0, 1], [1, 1])  # last row left out
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        repeat_rows(a, [1, 0, 2])
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        repeat_rows(a, [1, -1, 2])
    np.testing.assert_array_equal(segment_sum(a, [0, 1], [1, 2]).value, [[0, 1], [6, 8]])


def test_stacks_and_slices():
    check(lambda a, b: total_sum(square(vstack([a, b]))), (2, 3), (4, 3))


def test_mul_const_and_scale():
    mask = np.array([[1.0, 0.0, 2.0]])
    check(lambda a: total_sum(mul_const(a, mask)), (4, 3))
    check(lambda a: total_sum(scale(a, -2.5)), (4, 3))


def test_shared_subexpression_grad_accumulates():
    # y = sum(a*a + a) -> dy/da = 2a + 1
    a = ad.param(np.array([1.0, -2.0, 3.0]))
    loss = total_sum(add(mul(a, a), a))
    np.testing.assert_allclose(reference_backward(loss)[a], 2 * a.value + 1)


def test_backward_requires_scalar():
    a = ad.param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(square(a))


def test_softmax_composition_matches_closed_form():
    rng = np.random.default_rng(1)
    x = ad.param(rng.normal(size=(5, 4)))
    zmax = x.value.max(axis=1, keepdims=True)
    ez = exp(add_const(x, -zmax))
    probs = div(ez, reshape(sum_cols(ez), (-1, 1)))
    np.testing.assert_allclose(probs.value.sum(axis=1), np.ones(5), atol=1e-12)
    onehot = np.zeros((5, 4))
    onehot[np.arange(5), [0, 1, 2, 3, 0]] = 1.0
    loss = scale(total_sum(log(sum_cols(mul_const(probs, onehot)))), -1.0)
    # d(-log softmax)/dlogits = probs - onehot
    np.testing.assert_allclose(reference_backward(loss)[x], probs.value - onehot, atol=1e-10)


# ---------------------------------------------------------------------------
# gather_rows' scatter, the HGNN's gather and scatter, and the chain walk,
# against the references in tests/helpers.py


@st.composite
def scatter_cases(draw):
    """(value shape, idx, output gradient): rows no index reaches, targets
    repeated up to 20 times, empty idx, and -0.0 among the gradients."""
    n = draw(st.integers(0, 6))
    shape = (n,) + draw(st.sampled_from([(), (3,), (2, 3)]))
    idx = []
    if n:
        idx = draw(st.lists(st.integers(0, n - 1), max_size=40))
        hot = draw(st.integers(0, n - 1))
        idx = draw(st.permutations(idx + [hot] * draw(st.integers(0, 20))))
    size = len(idx) * math.prod(shape[1:])
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300]),
                       st.floats(-1e100, 1e100, allow_nan=False))
    g = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)
    return shape, np.array(idx, dtype=np.intp), g.reshape((len(idx),) + shape[1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scatter_cases())
def test_gather_rows_backward_is_bit_equal_to_add_at(case):
    shape, idx, g = case
    (ga,) = gather_rows(ad.param(np.zeros(shape)), idx).bw(g)
    ref = reference_scatter_rows(shape, idx, g)
    assert ga.dtype == ref.dtype and ga.shape == ref.shape
    assert ga.tobytes() == ref.tobytes()
    k = math.prod(shape[1:])  # the HGNN's own scatter, on rows of k values
    assert _scatter_rows(g.reshape(len(idx), k), idx, shape[0]).tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scatter_cases(), st.data())
def test_masked_gather_rows_is_bit_equal_to_gather_then_mul_const(case, data):
    shape, idx, g = case
    keep = data.draw(st.sampled_from([0.9, 0.7, 0.5, 1 / 3, 0.1]))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.size, max_size=g.size)),
                    dtype=bool).reshape(g.shape)
    a = ad.param(np.random.default_rng(len(idx)).normal(scale=1e3, size=shape))
    fused = gather_rows(a, idx, mask, keep)
    ref = reference_dropout_rows(a, idx, mask, keep)
    assert fused.parents == (a,)
    assert fused.value.dtype == ref.value.dtype and fused.value.tobytes() == ref.value.tobytes()
    assert _gather(a.value, idx, mask, keep).tobytes() == ref.value.tobytes()
    (got,) = fused.bw(g)
    (ref_gather,) = ref.parents
    (want,) = ref_gather.bw(*ref.bw(g))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gather_rows_mask_must_be_bool_of_the_gathered_shape():
    a = ad.param(np.ones((3, 2)))
    for bad in (np.ones((2, 2)), np.ones((2, 1), dtype=bool), np.ones((3, 2), dtype=bool)):
        with pytest.raises(ValueError, match=r"mask must be bool of shape \(2, 2\)"):
            gather_rows(a, [0, 2], bad, 0.5)


def test_gather_rows_rejects_indices_outside_the_rows():
    a = ad.param(np.arange(6.0).reshape(3, 2))
    for bad in ([0, -1], [3], [2, 0, 7]):
        with pytest.raises(ValueError, match=r"gather_rows indices must lie in \[0, 3\)"):
            gather_rows(a, bad)
    with pytest.raises(ValueError, match=r"\[0, 0\)"):
        gather_rows(ad.param(np.zeros((0, 2))), [0])
    assert gather_rows(a, []).value.shape == (0, 2)


NO_TAPE = "no tape to walk: record a train-mode forward pass for each backward"


def _assert_same_grads_as_reference(build, leaves):
    """build() records one of the program's chains over `leaves`: the chain
    walk must map exactly the chain's leaves to the reference walk's
    gradients bit for bit, each in memory of its own, and release every
    recorded node; model.backward must list the reference's gradients, with
    zeros where the chain does not reach. No parameter keeps a gradient."""
    ref = reference_backward(build())
    loss = build()
    recorded = [node for node in topo(loss) if node.parents]
    chain_leaves = {p for node in recorded for p in node.parents if p.bw is None}
    grads = ad.backward(loss)
    assert grads.keys() == chain_leaves
    for leaf, got in grads.items():
        want = ref[leaf]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.base is None
    arrays = list(grads.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    for node in recorded:
        assert node.parents == () and node.bw is ad.no_tape
    listed = backward(build(), leaves)
    for got, want in zip(listed, reference_grads(build(), leaves), strict=True):
        assert got.tobytes() == want.tobytes()
    assert not any(hasattr(leaf, "grad") for leaf in leaves)


def test_a_walked_tape_cannot_be_walked_again():
    """A second backward of a loss, and a backward of a new loss over the
    walked aggregation node, raise the one no-tape error."""
    g = imdb_like_graph(seed=3)
    params = init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=1)
    plan = build_plan(g, random_legal_episodes(g, np.arange(4), length=2, seed=2))
    outputs = hgnn_forward(params, g, plan, "train", 5).outputs
    loss = cross_entropy(classify(params, outputs), g.labels[:4], np.arange(4))
    backward(loss, params.all_vars())
    with pytest.raises(ValueError, match=NO_TAPE):
        ad.backward(loss)
    with pytest.raises(ValueError, match=NO_TAPE):
        backward(loss, params.all_vars())
    with pytest.raises(ValueError, match=NO_TAPE):
        backward(cross_entropy(classify(params, outputs), g.labels[:4], np.arange(4)),
                 params.all_vars())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.booleans())
def test_hgnn_train_loss_grads_match_reference_tape(case, messages_from_target):
    g, episodes, _ = case
    params = init_params(g.schema, g.num_classes, 3, d=4, heads=2, dropout=0.3, seed=1)
    plan = build_plan(g, episodes)
    labels = np.arange(len(episodes)) % g.num_classes

    def build():
        outputs = hgnn_forward(params, g, plan, "train", 5, messages_from_target).outputs
        return cross_entropy(classify(params, outputs), labels, np.arange(len(labels)))

    _assert_same_grads_as_reference(build, params.all_vars())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.booleans())
def test_the_eval_forward_is_bit_equal_to_the_recorded_forward_without_dropout(
        case, messages_from_target):
    g, episodes, _ = case
    params = init_params(g.schema, g.num_classes, 3, d=4, heads=2, dropout=0.3, seed=1)
    plan = build_plan(g, episodes)
    outputs = recorded_forward(params, g, plan, "eval", 0, messages_from_target)
    probs = classify(params, outputs)
    quiet = hgnn_forward(params, g, plan, "eval", 0, messages_from_target).outputs
    quiet_probs = classify(params, quiet)
    assert quiet.parents == () and quiet.bw is ad.no_tape
    assert quiet.value.tobytes() == outputs.value.tobytes()
    assert quiet_probs.value.tobytes() == probs.value.tobytes()
    # the train pass without dropout is differentiable
    labels = np.arange(len(episodes)) % g.num_classes
    grads = backward(cross_entropy(probs, labels, np.arange(len(labels))), params.all_vars())
    assert any(np.any(gr != 0) for gr in grads)


def test_td_loss_grads_match_reference_tape():
    rng = np.random.default_rng(3)
    qnet, target = QNetwork(6, 4, hidden=(8, 5), seed=1), QNetwork(6, 4, hidden=(8, 5), seed=2)
    n = 32
    batch = TransitionBatch(s=rng.normal(size=(n, 6)), a=rng.integers(0, 4, size=n),
                            r=rng.normal(size=n), s_next=rng.normal(size=(n, 6)),
                            terminal=rng.random(n) < 0.3, next_mask=rng.random((n, 4)) < 0.7)
    batch.next_mask[:, 3] = True  # Stop is always legal
    _assert_same_grads_as_reference(lambda: td_loss(qnet, target, batch, 0.9), qnet.vars())


@st.composite
def qnets_and_batches(draw):
    dim, actions = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
    qnet = QNetwork(dim, actions, hidden, seed=draw(st.integers(0, 99)))
    target = QNetwork(dim, actions, hidden, seed=draw(st.integers(0, 99)))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    next_mask = rng.random((n, actions)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    next_mask[:, -1] = True  # Stop is always legal
    batch = TransitionBatch(s=rng.normal(size=(n, dim)), a=rng.integers(0, actions, size=n),
                            r=rng.normal(size=n), s_next=rng.normal(size=(n, dim)),
                            terminal=rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0])),
                            next_mask=next_mask)
    return qnet, target, batch, draw(st.sampled_from([0.0, 0.9]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(qnets_and_batches())
def test_the_td_loss_node_gives_the_per_op_tapes_bits(case):
    """td_loss, one Var over qnet.vars(), gives the value and every weight
    and bias gradient of the per-op tape in tests/helpers.py, bit for bit,
    with 1 to 5 hidden layers, terminal rows and partly illegal next
    actions."""
    qnet, target, batch, gamma = case
    fused = td_loss(qnet, target, batch, gamma)
    assert fused.parents == tuple(qnet.vars())
    assert [n for n in topo(fused) if n.parents] == [fused]
    ref = per_op_td_loss(qnet, target, batch, gamma)
    want = [ref.value.copy()] + reference_grads(ref, qnet.vars())
    got = [fused.value.copy()] + backward(fused, qnet.vars())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_td_loss_checks_the_state_width():
    qnet = QNetwork(3, 2, hidden=(4,), seed=0)
    batch = TransitionBatch(s=np.zeros((2, 4)), a=np.zeros(2, dtype=np.int64), r=np.zeros(2),
                            s_next=np.zeros((2, 3)), terminal=np.zeros(2, dtype=bool),
                            next_mask=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="state dim 4 != network input 3"):
        td_loss(qnet, qnet, batch, 0.9)


# ---------------------------------------------------------------------------
# Eval passes record no tape


def _kept_saves(mode, monkeypatch):
    """Weak references to the arrays each layer of a pass returns for its
    backward: those alive after the pass returned and the gc ran, all of
    them, and the pass's outputs, which are still held."""
    g = imdb_like_graph(seed=3)
    params = init_params(g.schema, g.num_classes, 3, d=8, heads=2, dropout=0.3, seed=1)
    plan = build_plan(g, random_legal_episodes(g, np.arange(6), length=3, seed=2))
    refs = []
    layer_forward = model._layer_forward

    def spy(*args):
        out, saved = layer_forward(*args)
        refs.extend(weakref.ref(a) for a in saved if a is not None)
        return out, saved

    monkeypatch.setattr(model, "_layer_forward", spy)
    outputs = hgnn_forward(params, g, plan, mode, 4).outputs
    gc.collect()
    return [r for r in refs if r() is not None], refs, outputs


def test_an_eval_pass_has_no_parents_and_saves_nothing(monkeypatch):
    kept, made, outputs = _kept_saves("eval", monkeypatch)
    assert made and not kept
    assert outputs.parents == () and outputs.bw is ad.no_tape
    kept, made, outputs = _kept_saves("train", monkeypatch)
    assert len(kept) == len(made) and outputs.parents


def test_a_loss_on_eval_outputs_cannot_be_backpropagated():
    g = imdb_like_graph(seed=3)
    params = init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=1)
    plan = build_plan(g, random_legal_episodes(g, np.arange(4), length=2, seed=2))
    outputs = hgnn_forward(params, g, plan, "eval").outputs
    loss = cross_entropy(classify(params, outputs), g.labels[:4], np.arange(4))
    with pytest.raises(ValueError, match=NO_TAPE):
        backward(ad.Var(loss.value), params.all_vars())  # a constant, not a loss
    with pytest.raises(ValueError, match=NO_TAPE):
        backward(loss, params.all_vars())
