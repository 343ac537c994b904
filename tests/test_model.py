"""Neural stack: projections, attention, aggregation, losses, Adam, gradients."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    attention_coefficients,
    const,
    finite_diff_check,
    graphs_and_episodes,
    imdb_like_graph,
    matmul,
    mul,
    mul_const,
    per_op_classify,
    per_op_cross_entropy,
    per_op_forward,
    random_hin,
    reference_forward,
    scale,
    square,
    total_sum,
)
from rlhgnn import autodiff as ad
from rlhgnn.aggplan import Episode, LayerIndex, _readonly, build_plan, naive_plan
from rlhgnn.hin import HinSchema, RelationType, build_graph
from rlhgnn.metapath import Frontier, MetaPath, expand_frontier
from rlhgnn.model import (
    _layer_forward,
    backward,
    classify,
    cross_entropy,
    hgnn_forward,
    init_adam,
    init_params,
    load_params,
    optimizer_step,
    project_attributes,
    save_params,
)
from rlhgnn.pipeline import random_legal_episodes


def small_params(g, T=2, d=8, heads=2, seed=0, dropout=0.0):
    return init_params(g.schema, g.num_classes, T, d=d, heads=heads, dropout=dropout, seed=seed)


def episode(g, start, relations, cap=None, seed=0):
    path = MetaPath(start[0], tuple(relations))
    f = Frontier.initial(start)
    for rel in relations:
        f = expand_frontier(g, f, rel, cap, seed)
    return Episode(start, path, f)


# ---------------------------------------------------------------------------
# Projection


def test_projection_identity_and_zero():
    g = imdb_like_graph()
    p = small_params(g, d=4, heads=2)
    lam = g.schema.attribute_dims["Movie"]
    p.table["proj:Movie"].value = np.eye(lam, 4)
    H = project_attributes(p, g, [("Movie", np.array([0, 1]))])
    np.testing.assert_allclose(H[0, :lam][: lam], g.attributes["Movie"][0])
    p.table["proj:Movie"].value = np.zeros((lam, 4))
    H = project_attributes(p, g, [("Movie", np.array([2]))])
    np.testing.assert_allclose(H, 0.0)


def test_projection_matches_direct_product():
    g = imdb_like_graph(seed=2)
    p = small_params(g, d=6, heads=2, seed=5)
    nodes = [("Actor", 1), ("Actor", 3), ("Movie", 0)]
    H = project_attributes(p, g, [("Actor", np.array([1, 3])), ("Movie", np.array([0]))])
    assert type(H) is np.ndarray and H.shape == (3, 6)
    for row, n in enumerate(nodes):
        expected = g.attributes[n[0]][n[1]] @ p.table[f"proj:{n[0]}"].value
        np.testing.assert_allclose(H[row], expected, atol=1e-12)
    assert project_attributes(p, g, []).shape == (0, 6)


def test_projection_missing_type_errors():
    g = imdb_like_graph()
    p = small_params(g)
    del p.table["proj:Actor"]
    with pytest.raises(ValueError):
        project_attributes(p, g, [("Actor", np.array([0]))])


# ---------------------------------------------------------------------------
# Attention


def test_attention_singleton_weight_is_one():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2)
    w = attention_coefficients(p, 1, 0, np.random.default_rng(0).normal(size=(1, 8)),
                               np.zeros(8))
    np.testing.assert_allclose(w, [1.0])


def test_attention_identical_sources_split_evenly():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2)
    rep = np.random.default_rng(1).normal(size=8)
    w = attention_coefficients(p, 1, 1, np.stack([rep, rep]), np.ones(8))
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_attention_matches_standalone_recomputation():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2, seed=3)
    rng = np.random.default_rng(4)
    srcs = rng.normal(size=(3, 8))
    tgt = rng.normal(size=8)
    head = 1
    hd = p.head_dim
    W = p.table["layer0:W"].value[:, head * hd:(head + 1) * hd]
    e = ((srcs @ W) @ p.table["layer0:attn_src"].value[head]
         + (tgt @ W) @ p.table["layer0:attn_dst"].value[head])
    e = np.where(e > 0, e, 0.2 * e)
    z = np.exp(e - e.max())
    expected = z / z.sum()
    got = attention_coefficients(p, 1, head, srcs, tgt)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got.sum(), 1.0, atol=1e-9)


def test_attention_empty_sources_error():
    g = imdb_like_graph()
    p = small_params(g)
    with pytest.raises(ValueError):
        attention_coefficients(p, 1, 0, np.zeros((0, 8)), np.zeros(8))


@pytest.mark.parametrize("messages_from_target", [False, True])
def test_layer_compute_is_relu_of_the_mean_attention_weighted_message(messages_from_target):
    """Each step of the training forward equals relu(mean_j alpha_hj (X_j W_h))
    per head h, with alpha from the reference attention and X the source rows
    (or the target row): the attention the tests check is the one that trains."""
    g = imdb_like_graph()
    lengths = np.array([1, 3, 2, 4])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    for seed in range(4):
        p = small_params(g, T=2, d=8, heads=2, seed=seed)
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(lengths.sum(), 8))
        S[2] = S[1]  # a source reached through two edges appears twice
        targets = rng.normal(size=(len(lengths), 8))
        T0 = np.repeat(targets, lengths, axis=0)
        for layer in (1, 2):
            rows = np.arange(len(S))  # S and T0 as they are, with no dropout
            got, _ = _layer_forward(p, layer, S, T0, LayerIndex(rows, rows, starts, lengths),
                                    messages_from_target=messages_from_target)
            W, hd = p.table[f"layer{layer - 1}:W"].value, p.head_dim
            for k, (a, n) in enumerate(zip(starts, lengths)):
                X = T0[a:a + n] if messages_from_target else S[a:a + n]
                for h in range(p.heads):
                    alpha = attention_coefficients(p, layer, h, S[a:a + n], targets[k])
                    msgs = X @ W[:, h * hd:(h + 1) * hd]
                    want = np.maximum((alpha[:, None] * msgs).mean(axis=0), 0.0)
                    np.testing.assert_allclose(got[k, h * hd:(h + 1) * hd], want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Aggregation / forward


def chain_graph():
    schema = HinSchema(
        node_types=("A", "B"),
        relation_types=(RelationType("ab", "A", "B"),),
        attribute_dims={"A": 4, "B": 4},
    )
    attrs = {
        "A": np.array([[0.3, 0.1, 0.2, 0.4]]),
        "B": np.array([[0.5, 0.25, 0.75, 1.0]]),
    }
    return build_graph(schema, {"A": 1, "B": 1}, {"ab": [(0, 0)]}, attrs, "A", 2)


def test_identity_chain_passes_representation_through():
    """One source, identity W (split across heads), positive inputs: the
    aggregated value equals the source's previous representation."""
    g = chain_graph()
    p = small_params(g, T=1, d=4, heads=2)
    p.table["proj:A"].value = np.eye(4)
    p.table["proj:B"].value = np.eye(4)
    p.table["layer0:W"].value = np.eye(4)
    ep = episode(g, ("A", 0), ("ab",))
    fwd = hgnn_forward(p, g, build_plan(g, [ep]))
    np.testing.assert_allclose(fwd.outputs.value[0], g.attributes["B"][0], atol=1e-12)


def test_all_negative_preactivation_gives_zero():
    g = chain_graph()
    p = small_params(g, T=1, d=4, heads=2)
    p.table["proj:A"].value = np.eye(4)
    p.table["proj:B"].value = -np.eye(4)  # negative source rep
    p.table["layer0:W"].value = np.eye(4)
    ep = episode(g, ("A", 0), ("ab",))
    fwd = hgnn_forward(p, g, build_plan(g, [ep]))
    np.testing.assert_allclose(fwd.outputs.value[0], 0.0)


def test_stop_at_zero_returns_projected_attributes():
    g = imdb_like_graph(seed=1)
    p = small_params(g, d=8, heads=2, seed=2)
    ep = Episode(("Movie", 3), MetaPath("Movie"), Frontier.initial(("Movie", 3)))
    fwd = hgnn_forward(p, g, build_plan(g, [ep]))
    expected = g.attributes["Movie"][3] @ p.table["proj:Movie"].value
    np.testing.assert_allclose(fwd.outputs.value[0], expected, atol=1e-12)


def test_merged_equals_naive_forward():
    for seed in range(8):
        g = random_hin(seed)
        n = min(4, g.num_nodes[g.target_type])
        eps = random_legal_episodes(g, np.arange(n), length=3, seed=seed, fan_out_cap=None)
        p = small_params(g, T=3, d=8, heads=2, seed=seed)
        out_m = hgnn_forward(p, g, build_plan(g, eps)).outputs.value
        out_n = hgnn_forward(p, g, naive_plan(g, eps)).outputs.value
        err = np.abs(out_m - out_n) / (np.abs(out_n) + 1e-12)
        assert err.max() < 1e-8


def test_identical_episodes_identical_outputs():
    g = imdb_like_graph(seed=4)
    eps = [episode(g, ("Movie", 1), ("M-A", "A-M")) for _ in range(2)]
    p = small_params(g, seed=1)
    out = hgnn_forward(p, g, build_plan(g, eps)).outputs.value
    np.testing.assert_array_equal(out[0], out[1])


def test_eval_forward_deterministic_train_dropout_seeded():
    g = imdb_like_graph(seed=5)
    eps = [episode(g, ("Movie", i), ("M-A",)) for i in range(3)]
    p = small_params(g, T=1, d=8, heads=2, dropout=0.5)
    plan = build_plan(g, eps)
    a = hgnn_forward(p, g, plan, mode="eval").outputs.value
    b = hgnn_forward(p, g, plan, mode="eval").outputs.value
    np.testing.assert_array_equal(a, b)
    t1 = hgnn_forward(p, g, plan, mode="train", seed=7).outputs.value
    t2 = hgnn_forward(p, g, plan, mode="train", seed=7).outputs.value
    t3 = hgnn_forward(p, g, plan, mode="train", seed=8).outputs.value
    np.testing.assert_array_equal(t1, t2)
    assert not np.array_equal(t1, t3)


def test_forward_literal_target_messages_differ():
    g = imdb_like_graph(seed=6)
    eps = [episode(g, ("Movie", 0), ("M-A",))]
    p = small_params(g, T=1, d=8, heads=2, seed=3)
    plan = build_plan(g, eps)
    a = hgnn_forward(p, g, plan).outputs.value
    b = hgnn_forward(p, g, plan, messages_from_target=True).outputs.value
    assert not np.allclose(a, b)


def _loss_and_grads(p, outputs, labels):
    loss = cross_entropy(classify(p, outputs), labels, np.arange(len(labels)))
    return outputs.value, backward(loss, p.all_vars())


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_forward_matches_per_head_reference_exactly(heads):
    """Compiled plan + batched heads give the same bits as the per-step,
    per-head forward, in values and in every parameter gradient."""
    cases = 0
    for seed in range(6):
        g = random_hin(seed)
        n = min(5, g.num_nodes[g.target_type])
        eps = random_legal_episodes(g, np.arange(n), length=3, seed=seed, fan_out_cap=None)
        labels = g.labels[np.arange(n)]
        p = small_params(g, T=3, d=8, heads=heads, seed=seed, dropout=0.3)
        for plan in (build_plan(g, eps), naive_plan(g, eps)):
            for mode in ("train", "eval"):
                for mft in (False, True):
                    new = _loss_and_grads(p, hgnn_forward(p, g, plan, mode, 5, mft).outputs, labels)
                    ref = _loss_and_grads(p, reference_forward(p, g, plan, mode, 5, mft), labels)
                    np.testing.assert_array_equal(new[0], ref[0])
                    for a, b in zip(new[1], ref[1]):
                        np.testing.assert_array_equal(a, b)
                    cases += 1
    assert cases == 48


def _values_and_grads(params, g, plan, mode, mft, forward, classify_, loss_):
    outputs = forward(params, g, plan, mode, 5, mft)
    probs = classify_(params, outputs)
    labels = np.arange(len(outputs.value)) % g.num_classes
    loss = loss_(probs, labels, np.arange(len(labels)))
    values = [outputs.value.copy(), probs.value.copy(), loss.value.copy()]
    return values + backward(loss, params.all_vars())


def _assert_fused_nodes_give_the_per_op_bits(params, g, plan, mode, mft):
    fused = _values_and_grads(params, g, plan, mode, mft,
                              lambda *a: hgnn_forward(*a).outputs, classify, cross_entropy)
    ref = _values_and_grads(params, g, plan, mode, mft,
                            per_op_forward, per_op_classify, per_op_cross_entropy)
    for got, want in zip(fused, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.sampled_from(["train", "eval"]), st.booleans(),
       st.sampled_from([(4, 2), (4, 4), (3, 1)]), st.booleans())
def test_fused_nodes_give_the_per_op_tapes_bits(case, mode, mft, dims, naive):
    """hgnn_forward -> classify -> cross_entropy, one Var each, give the bits
    of the per-op tape in tests/helpers.py: values and every parameter
    gradient, with 1, 2 and 4 heads of width 1 to 3, on either plan kind."""
    g, episodes, _ = case
    d, heads = dims
    params = init_params(g.schema, g.num_classes, 3, d=d, heads=heads, dropout=0.3, seed=1)
    plan = (naive_plan if naive else build_plan)(g, episodes)
    _assert_fused_nodes_give_the_per_op_bits(params, g, plan, mode, mft)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mft", [False, True])
def test_fused_nodes_add_h0s_terms_in_the_per_op_tapes_order(seed, mft):
    """One node type with a self relation and every episode length 0..3 from
    every node: an H0 row is an output, a target at every layer and a
    source at layer 1 at once, so its gradient sums many nonzero terms, and
    only the per-op tape's order gives its bits."""
    rng = np.random.default_rng(seed)
    schema = HinSchema(("T",), (RelationType("r", "T", "T"),), {"T": 3})
    edges = [(s, int(d)) for s in range(5) for d in rng.choice(5, size=3, replace=False)]
    g = build_graph(schema, {"T": 5}, {"r": edges}, {"T": rng.normal(size=(5, 3))}, "T", 2,
                    rng.integers(0, 2, size=5))
    eps = [episode(g, ("T", i), ("r",) * n) for i in range(5) for n in range(4)]
    params = init_params(g.schema, 2, 3, d=8, heads=2, dropout=0.3, seed=seed)
    _assert_fused_nodes_give_the_per_op_bits(params, g, build_plan(g, eps), "train", mft)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_a_train_tape_holds_one_node_each_for_aggregation_classifier_and_loss(depth):
    """The train tape is exactly three recorded nodes; the aggregation's
    parents are the projection of each H0 run's type and the layers'
    parameters."""
    g = imdb_like_graph(seed=3)
    eps = [episode(g, ("Movie", i), ("M-A", "A-M", "M-D")[:depth]) for i in range(4)]
    p = small_params(g, T=3, d=8, heads=2, seed=1, dropout=0.3)
    plan = build_plan(g, eps)
    outputs = hgnn_forward(p, g, plan, "train", 2).outputs
    probs = classify(p, outputs)
    loss = cross_entropy(probs, g.labels[:4], np.arange(4))
    types = ("Movie", "Actor", "Movie", "Director")[:depth + 1]
    assert [t for t, _ in plan.h0_groups] == sorted(set(types))
    assert outputs.parents == (
        tuple(p.table[f"proj:{t}"] for t in sorted(set(types)))
        + tuple(p.table[f"layer{i}:{k}"] for i in range(depth)
                for k in ("W", "attn_src", "attn_dst")))
    assert probs.parents == (outputs, p.table["classifier:W"], p.table["classifier:b"])
    assert loss.parents == (probs,)
    recorded = [n for n in ad._topo(loss) if n.parents]
    assert len(recorded) == 3
    assert all(a is b for a, b in zip(recorded, (outputs, probs, loss)))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_fused_tape_peaks_below_the_per_op_tape_and_no_grad_below_recording():
    """On a fixed 3-layer plan, one train forward plus backward takes less
    peak memory than the per-op tape, and a forward under no_grad less than a
    recorded one, which keeps each layer's arrays for its backward."""
    g = imdb_like_graph(n_m=60, n_d=12, n_a=40, seed=3, edges_per_node=4)
    eps = [episode(g, ("Movie", i), ("M-A", "A-M", "M-D")) for i in range(40)]
    p = small_params(g, T=3, d=32, heads=4, seed=2, dropout=0.3)
    plan = build_plan(g, eps)
    labels, rows = g.labels[:40], np.arange(40)

    def step(forward, classify_, loss_):
        return lambda: backward(loss_(classify_(p, forward(p, g, plan, "train", 1)), labels, rows),
                                p.all_vars())

    fused = _peak_bytes(step(lambda *a: hgnn_forward(*a).outputs, classify, cross_entropy))
    per_op = _peak_bytes(step(per_op_forward, per_op_classify, per_op_cross_entropy))
    assert fused < 0.85 * per_op

    def quiet():
        with ad.no_grad():
            hgnn_forward(p, g, plan, "train", 1)

    recorded = _peak_bytes(lambda: hgnn_forward(p, g, plan, "train", 1))
    assert _peak_bytes(quiet) < 0.8 * recorded


def test_a_plan_checks_its_index_arrays_once_when_built():
    g = imdb_like_graph(seed=7)
    plan = build_plan(g, [episode(g, ("Movie", i), ("M-A", "A-M")) for i in range(3)])
    ix = plan.index[1]
    n_prev, n_h0 = len(plan.index[0].lengths), len(plan.h0_nodes)
    n_stack = n_h0 + plan.step_count

    def with_layer(**arrays):
        return replace(plan, index=[plan.index[0], replace(ix, **{
            k: _readonly(v) for k, v in arrays.items()})])

    bad = {
        r"layer 2 source rows must lie in \[0, %d\)" % n_prev:
            lambda: with_layer(src_rows=np.append(ix.src_rows[:-1], n_prev)),
        r"layer 2 target rows must lie in \[0, %d\)" % n_h0:
            lambda: with_layer(tgt_rows=np.append(ix.tgt_rows[:-1], -1)),
        "at least one traversal":
            lambda: with_layer(lengths=np.append(ix.lengths[:-1], 0)),
        "exclusive cumsum": lambda: with_layer(starts=ix.starts + 1),
        "sum to the traversal count": lambda: with_layer(src_rows=ix.src_rows[:-1]),
        r"output rows must lie in \[0, %d\)" % n_stack:
            lambda: replace(plan, output_rows=_readonly(np.append(plan.output_rows[1:], n_stack))),
    }
    for message, make in bad.items():
        with pytest.raises(ValueError, match=message):
            make()
    assert replace(plan).index == plan.index


def test_one_plan_serves_every_pass_and_is_read_only():
    g = imdb_like_graph(seed=7)
    eps = [episode(g, ("Movie", i), rels) for i, rels in
           [(0, ("M-A", "A-M")), (1, ("M-D",)), (2, ()), (3, ("M-A", "A-M"))]]
    p = small_params(g, T=2, d=8, heads=4, seed=4, dropout=0.3)
    plan = build_plan(g, eps)
    for mode, seed in (("train", 3), ("eval", 0), ("train", 3)):
        np.testing.assert_array_equal(
            hgnn_forward(p, g, plan, mode, seed).outputs.value,
            hgnn_forward(p, g, build_plan(g, eps), mode, seed).outputs.value)
    arrays = [plan.output_rows] + [ids for _, ids in plan.h0_groups]
    for ix in plan.index:
        arrays += [ix.src_rows, ix.tgt_rows, ix.starts, ix.lengths]
    assert len(arrays) == 1 + 3 + 2 * 4
    for a in arrays:
        assert a.dtype == np.intp and not a.flags.writeable
    with pytest.raises(ValueError):
        plan.index[0].src_rows[0] = 0


def test_plan_deeper_than_model_errors():
    g = imdb_like_graph(seed=2)
    plan = build_plan(g, [episode(g, ("Movie", 0), ("M-A", "A-M"))])
    p = small_params(g, T=1)
    with pytest.raises(ValueError, match=r"2 aggregation layers.*T=1"):
        hgnn_forward(p, g, plan)


# ---------------------------------------------------------------------------
# Classifier and loss


def test_classify_zero_weights_uniform():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2)
    p.table["classifier:W"].value = np.zeros_like(p.table["classifier:W"].value)
    p.table["classifier:b"].value = np.zeros_like(p.table["classifier:b"].value)
    probs = classify(p, const(np.random.default_rng(0).normal(size=(4, 8))))
    np.testing.assert_allclose(probs.value, 1.0 / 3, atol=1e-12)


def test_classify_rows_sum_and_shift_invariance():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2, seed=9)
    reps = const(np.random.default_rng(1).normal(size=(5, 8)))
    probs = classify(p, reps)
    np.testing.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-9)
    arg1 = np.argmax(probs.value, axis=1)
    p.table["classifier:b"].value = p.table["classifier:b"].value + 3.7  # constant logit shift
    arg2 = np.argmax(classify(p, reps).value, axis=1)
    np.testing.assert_array_equal(arg1, arg2)


def test_classify_matches_direct_softmax():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2, seed=11)
    X = np.random.default_rng(2).normal(size=(4, 8))
    logits = X @ p.table["classifier:W"].value + p.table["classifier:b"].value
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = z / z.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(classify(p, const(X)).value, expected, atol=1e-12)


def test_cross_entropy_closed_forms():
    onehot = np.eye(3)[[0, 1, 2, 0]]
    probs = const(onehot * (1 - 1e-15) + 1e-15 / 3)
    labels = np.array([0, 1, 2, 0])
    loss = cross_entropy(probs, labels, np.arange(4))
    assert abs(float(loss.value)) < 1e-12
    uniform = const(np.full((5, 4), 0.25))
    labels = np.zeros(5, dtype=int)
    loss = cross_entropy(uniform, labels, np.arange(5))
    np.testing.assert_allclose(float(loss.value), 5 * np.log(4), atol=1e-12)


def test_cross_entropy_matches_recomputation():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.05, 1.0, size=(6, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, size=6)
    rows = np.array([0, 2, 4])
    loss = cross_entropy(const(probs), labels, rows)
    expected = -sum(np.log(probs[r, labels[r]]) for r in rows)
    np.testing.assert_allclose(float(loss.value), expected, atol=1e-12)
    with pytest.raises(ValueError):
        cross_entropy(const(probs), labels, np.array([], dtype=int))
    for bad in ([0, 6], [-1, 2]):
        with pytest.raises(ValueError, match=r"cross entropy rows must lie in \[0, 6\)"):
            cross_entropy(const(probs), labels, np.array(bad))


# ---------------------------------------------------------------------------
# Backward / optimizer / finite differences


def test_constant_loss_zero_gradients():
    g = imdb_like_graph()
    p = small_params(g, d=8, heads=2)
    loss = scale(total_sum(mul_const(p.table["classifier:W"], 0.0)), 1.0)
    grads = backward(loss, p.all_vars())
    for gr in grads:
        np.testing.assert_allclose(gr, 0.0)


def test_backward_clears_stale_gradients_of_unused_params():
    """A parameter absent from the current graph must report a zero gradient
    even if an earlier backward pass filled its .grad."""
    a = ad.param(np.ones(3))
    b = ad.param(np.ones(3))
    backward(total_sum(mul(a, b)), [a, b])
    assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)
    grads = backward(total_sum(square(a)), [a, b])  # b unused now
    np.testing.assert_allclose(grads[0], 2.0)
    np.testing.assert_allclose(grads[1], 0.0)


def test_linear_network_closed_form_gradient():
    # loss = sum((X W) * G) -> dL/dW = X^T G
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 3))
    G = rng.normal(size=(5, 2))
    W = ad.param(rng.normal(size=(3, 2)))
    loss = total_sum(mul_const(matmul(const(X), W), G))
    (grad,) = backward(loss, [W])
    np.testing.assert_allclose(grad, X.T @ G, atol=1e-12)


def test_full_model_gradients_match_finite_differences():
    g = imdb_like_graph(n_m=6, n_d=3, n_a=5, seed=8)
    eps = [episode(g, ("Movie", i), rels) for i, rels in
           [(0, ("M-A", "A-M")), (1, ("M-D", "D-M")), (2, ("M-A",)), (3, ())]]
    p = small_params(g, T=2, d=8, heads=2, seed=13)
    plan = build_plan(g, eps)
    labels = g.labels
    rows = np.arange(len(eps))
    ep_nodes = np.array([0, 1, 2, 3])

    def loss_fn():
        fwd = hgnn_forward(p, g, plan, mode="eval")
        probs = classify(p, fwd.outputs)
        return cross_entropy(probs, labels[ep_nodes], rows)

    err = finite_diff_check(p.all_vars(), loss_fn, eps=1e-5, num_coords=250, seed=0)
    assert err < 1e-4


def test_full_model_gradients_match_finite_differences_in_train_mode():
    g = imdb_like_graph(n_m=6, n_d=3, n_a=5, seed=8)
    eps = [episode(g, ("Movie", i), rels) for i, rels in
           [(0, ("M-A", "A-M")), (1, ("M-D", "D-M")), (2, ("M-A",)), (3, ())]]
    p = small_params(g, T=2, d=8, heads=4, seed=13, dropout=0.3)
    plan = build_plan(g, eps)
    labels = g.labels[np.array([0, 1, 2, 3])]

    def loss_fn():  # a fixed seed draws the same dropout masks on every call
        fwd = hgnn_forward(p, g, plan, mode="train", seed=11)
        return cross_entropy(classify(p, fwd.outputs), labels, np.arange(len(eps)))

    err = finite_diff_check(p.all_vars(), loss_fn, eps=1e-5, num_coords=250, seed=0)
    assert err < 1e-4


def test_finite_diff_check_quadratic_and_bad_eps():
    w = ad.param(np.array([1.0, -2.0, 0.5]))

    def loss_fn():
        return total_sum(square(w))

    err = finite_diff_check([w], loss_fn, eps=1e-5, num_coords=3)
    assert err < 1e-8
    with pytest.raises(ValueError):
        finite_diff_check([w], loss_fn, eps=0.0)


def test_adam_zero_grad_no_decay_keeps_params():
    w = ad.param(np.array([1.0, 2.0]))
    st = init_adam([w], lr=0.01, weight_decay=0.0)
    before = w.value.copy()
    optimizer_step([w], [np.zeros(2)], st)
    np.testing.assert_array_equal(w.value, before)


def test_adam_constant_gradient_step_approaches_lr():
    w = ad.param(np.array([0.0]))
    st = init_adam([w], lr=0.01, weight_decay=0.0)
    prev = w.value.copy()
    step = None
    for _ in range(300):
        optimizer_step([w], [np.array([2.5])], st)
        step = abs(w.value[0] - prev[0])
        prev = w.value.copy()
    np.testing.assert_allclose(step, 0.01, rtol=1e-3)


def test_adam_two_steps_match_hand_recursion():
    lr, wd, b1, b2, eps = 0.005, 0.0001, 0.9, 0.999, 1e-8
    w = ad.param(np.array([0.7]))
    st = init_adam([w], lr=lr, weight_decay=wd)
    grads = [np.array([0.3]), np.array([-0.2])]
    # hand recursion
    x, m, v = 0.7, 0.0, 0.0
    for t, gval in enumerate(grads, start=1):
        gv = gval[0]
        m = b1 * m + (1 - b1) * gv
        v = b2 * v + (1 - b2) * gv * gv
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - lr * (mh / (np.sqrt(vh) + eps) + wd * x)
    for gval in grads:
        optimizer_step([w], [gval], st)
    np.testing.assert_allclose(w.value[0], x, atol=1e-15)


def test_adam_updates_in_place_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (5,), (2, 2, 2)]
    ps = [ad.param(rng.normal(size=s)) for s in shapes]
    lr, wd, b1, b2, eps = 0.01, 0.001, 0.9, 0.999, 1e-8
    st = init_adam(ps, lr=lr, weight_decay=wd)
    arrays = [p.value for p in ps] + st.m + st.v
    x = [p.value.copy() for p in ps]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        optimizer_step(ps, grads, st)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mh = m[i] / (1 - b1 ** t)
            vh = v[i] / (1 - b2 ** t)
            x[i] = x[i] - lr * (mh / (np.sqrt(vh) + eps) + wd * x[i])
            np.testing.assert_array_equal(ps[i].value, x[i])
            np.testing.assert_array_equal(st.m[i], m[i])
            np.testing.assert_array_equal(st.v[i], v[i])
    assert all(a is b for a, b in zip(arrays, [p.value for p in ps] + st.m + st.v))


def test_optimizer_shape_mismatch():
    w = ad.param(np.zeros((2, 2)))
    st = init_adam([w])
    with pytest.raises(ValueError):
        optimizer_step([w], [np.zeros(3)], st)


# ---------------------------------------------------------------------------
# Parameter sharing and checkpoints


def test_exactly_T_aggregator_sets_total_4u_not_10u():
    g = imdb_like_graph()
    p = init_params(g.schema, g.num_classes, max_timesteps=4, d=128, heads=8, seed=0)
    u = p.single_layer_param_count()
    assert u == 128 * 128 + 2 * 8 * 16
    assert p.aggregator_param_count() == 4 * u
    assert p.aggregator_param_count() != 10 * u
    assert [n for n in p.table if n.startswith("layer")] == [
        f"layer{i}:{k}" for i in range(4) for k in ("W", "attn_src", "attn_dst")]


def test_checkpoint_round_trip(tmp_path):
    g = imdb_like_graph(seed=3)
    p = small_params(g, T=2, d=8, heads=2, seed=21)
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert q.schema == p.schema
    assert q.T == p.T and q.d == p.d and q.heads == p.heads
    for a, b in zip(p.all_vars(), q.all_vars()):
        np.testing.assert_array_equal(a.value, b.value)
    eps = [episode(g, ("Movie", 0), ("M-A",))]
    plan = build_plan(g, eps)
    np.testing.assert_array_equal(
        hgnn_forward(p, g, plan).outputs.value,
        hgnn_forward(q, g, plan).outputs.value,
    )
