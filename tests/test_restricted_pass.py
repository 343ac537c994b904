"""The train pass over a plan restricted to the loss's episodes gives the
whole plan's loss and gradients bit for bit, the unrecorded eval pass that
multiplies before it gathers gives the gather-first pass's bits, and the
BLAS behaviour both rest on holds on this machine."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (full_train_step, graphs_and_episodes, imdb_like_graph, recorded_forward,
                     run_with_one_blas_thread, topo)
from rlhgnn.aggplan import build_plan, restrict
from rlhgnn.hin import HinSchema, RelationType, build_graph
from rlhgnn.metapath import Episode, expand_frontier
from rlhgnn import model
from rlhgnn.model import (
    _blocked_tn,
    _compaction_holds,
    _k_blocks,
    _spread,
    _times,
    backward,
    classify,
    cross_entropy,
    hgnn_forward,
    init_params,
)
from rlhgnn.pipeline import random_legal_episodes

DIMS = [(8, 1), (8, 2), (8, 8), (32, 1), (32, 4), (32, 8), (128, 2), (128, 8)]


def restricted_train_step(params, g, plan, labels, rows, seed, mft):
    outputs = hgnn_forward(params, g, restrict(plan, rows), "train", seed, mft).outputs
    loss = cross_entropy(classify(params, outputs), labels, rows)
    return [loss.value] + backward(loss, params.all_vars())


def assert_same_bits(params, g, plan, rows, seed, mft):
    labels = np.arange(len(plan.output_rows)) % g.num_classes
    want = full_train_step(params, g, plan, labels, rows, seed, mft)
    got = restricted_train_step(params, g, plan, labels, rows, seed, mft)
    for name, a, b in zip(["loss", *params.table], got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def loss_rows(draw, n: int) -> np.ndarray:
    kind = draw(st.sampled_from(["one", "all", "some"]))
    if kind == "one":
        return np.array([draw(st.integers(0, n - 1))])
    if kind == "all":
        return np.arange(n)
    return np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.sampled_from(DIMS), st.booleans(),
       st.sampled_from([0.0, 0.5]), st.data())
def test_the_restricted_train_step_gives_the_whole_plans_bits(case, dims, mft, dropout, data):
    """Loss and every gradient, on the property corpus: one loss row, all of
    them or some; d of 8, 32 and 128 with 1 to 8 heads; messages from the
    sources or the target; with and without dropout."""
    g, episodes, _ = case
    d, heads = dims
    params = init_params(g.schema, g.num_classes, 3, d=d, heads=heads, dropout=dropout, seed=1)
    plan = build_plan(g, episodes)
    rows = data.draw(loss_rows(len(episodes)))
    assert_same_bits(params, g, plan, rows, 5, mft)


def _self_loop_graph(seed: int):
    """One node type with a self relation: node 0 has one out-edge (to 1),
    every other node three, so every episode length 0..3 exists everywhere."""
    rng = np.random.default_rng(seed)
    schema = HinSchema(("T",), (RelationType("r", "T", "T"),), {"T": 3})
    edges = [(0, 1)] + [(s, int(t)) for s in range(1, 6)
                        for t in rng.choice(6, size=3, replace=False)]
    return build_graph(schema, {"T": 6}, {"r": edges}, {"T": rng.normal(size=(6, 3))}, "T", 2,
                       rng.integers(0, 2, size=6))


def _episode(g, start: int, length: int) -> Episode:
    ep = Episode.initial(("T", start))
    for _ in range(length):
        ep = expand_frontier(g, ep, "r")
    return ep


# (start, length) of every episode, and the loss's episode rows
EDGE_CASES = {
    # the loss reads layer 1 only: layers 2 and 3 keep no traversal
    "layers-that-keep-none": ([(0, 1), (2, 3), (3, 3), (4, 2)], [0]),
    # node 0's one edge is the only traversal layer 1 keeps
    "a-layer-that-keeps-one-traversal": ([(0, 1), (1, 2), (2, 3), (5, 3)], [0]),
    # a stop-at-0 episode reads H0 alone: no layer runs
    "no-layer-at-all": ([(1, 0), (2, 3), (4, 1)], [0]),
    "one-row-of-several-at-layer-3": ([(1, 3), (2, 3), (3, 2), (4, 1)], [1]),
    "all-rows": ([(0, 1), (1, 2), (2, 3), (3, 0), (5, 3)], [0, 1, 2, 3, 4]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("dims", [(8, 8), (32, 4), (128, 8)])
@pytest.mark.parametrize("mft", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_the_restricted_train_step_gives_the_whole_plans_bits_on_edge_shapes(
        name, dims, mft, dropout):
    spec, rows = EDGE_CASES[name]
    rows = np.array(rows)
    for seed in range(3):
        g = _self_loop_graph(seed)
        plan = build_plan(g, [_episode(g, s, n) for s, n in spec])
        part = restrict(plan, rows)
        kept = [len(t) for t in part.traversals]
        whole = [len(ix.src_rows) for ix in plan.index]
        if name == "layers-that-keep-none":
            assert len(kept) == 1 and len(whole) == 3
        elif name == "a-layer-that-keeps-one-traversal":
            assert kept[0] == 1 < whole[0]
        elif name == "no-layer-at-all":
            assert kept == [] and len(whole) == 3
        elif name == "all-rows":
            assert kept == whole
        params = init_params(g.schema, 2, 3, d=dims[0], heads=dims[1], dropout=dropout,
                             seed=seed)
        assert_same_bits(params, g, plan, rows, 7 + seed, mft)


def test_episodes_outside_the_loss_get_zero_rows_and_a_train_step_records_three_nodes():
    g = _self_loop_graph(0)
    plan = build_plan(g, [_episode(g, s, n) for s, n in [(0, 1), (2, 3), (3, 3), (4, 2)]])
    params = init_params(g.schema, 2, 3, d=8, heads=2, dropout=0.5, seed=3)
    rows = np.array([0, 3])
    outputs = hgnn_forward(params, g, restrict(plan, rows), "train", 2).outputs
    whole = hgnn_forward(params, g, plan, "train", 2).outputs
    assert not outputs.value[[1, 2]].any()
    assert outputs.value[rows].tobytes() == whole.value[rows].tobytes()
    probs = classify(params, outputs)
    loss = cross_entropy(probs, np.zeros(4, dtype=np.int64), rows)
    recorded = [n for n in topo(loss) if n.parents]
    assert len(recorded) == 3
    assert all(a is b for a, b in zip(recorded, (outputs, probs, loss)))
    # layers 1 and 2 are kept, so layer 3's parameters are no parents
    assert outputs.parents == ((params.table["proj:T"],)
                               + tuple(params.table[f"layer{i}:{k}"] for i in range(2)
                                       for k in ("W", "attn_src", "attn_dst")))


# ---------------------------------------------------------------------------
# The BLAS behaviour the restriction's bit identity rests on


def _subsets(n: int, rng: np.random.Generator):
    yield np.arange(n)
    for m in sorted({2, 3, n // 2, n - 1}):
        if 2 <= m < n:
            yield np.sort(rng.choice(n, size=m, replace=False))
    if n > 2:
        yield np.array([0, n - 1])


# Row counts: small shapes, and the whole layer's traversal counts of the
# benchmark's largest workload (scale-pp: up to 6,658 at layer 1, 2,907 at
# layer 2 and 523 at layer 3 on graph seeds 901, 1234 and 77), and beyond.
ROWS = [2, 3, 9, 40, 130, 523, 600, 1500, 2907, 6658, 7000]


@pytest.mark.parametrize("d", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("n", ROWS)
def test_a_row_of_a_product_keeps_its_bits_when_other_rows_are_dropped(d, n):
    """A[idx] @ W gives the bits of (A @ W)[idx] for 2 or more rows, and a
    lone row multiplied as two rows gives them too."""
    rng = np.random.default_rng(d * 1000 + n)
    A, W = rng.normal(size=(n, d)), rng.normal(size=(d, d))
    whole = A @ W
    for idx in _subsets(n, rng):
        assert (A[idx] @ W).tobytes() == whole[idx].tobytes(), idx
    for i in {0, n // 2, n - 1}:
        assert _times(A[[i]], W, n).tobytes() == whole[[i]].tobytes(), i


@pytest.mark.parametrize("d", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("n", ROWS)
def test_zero_padded_backward_products_keep_the_whole_products_bits(d, n):
    """The backward's S.T @ G and G @ W.T, with G zero (of either sign)
    outside the kept rows: run over all n rows with the other rows of S and
    G set to +0, they give the bits of the whole products."""
    rng = np.random.default_rng(d * 7919 + n)
    S, W = rng.normal(size=(n, d)), rng.normal(size=(d, d))
    for kept in _subsets(n, rng):
        G = np.zeros((n, d)) * rng.choice([-1.0, 1.0], size=(n, d))  # signed zeros
        G[kept] = rng.normal(size=(len(kept), d))
        S_pad, G_pad = np.zeros((n, d)), np.zeros((n, d))
        S_pad[kept], G_pad[kept] = S[kept], G[kept]
        assert (S_pad.T @ G_pad).tobytes() == (S.T @ G).tobytes(), kept
        assert (G_pad @ W.T)[kept].tobytes() == (G @ W.T)[kept].tobytes(), kept


@pytest.mark.parametrize("mft", [False, True])
def test_the_restricted_train_step_keeps_the_bits_on_layers_of_600_to_1100_traversals(mft):
    """Layers long enough that the blocking of S.T @ G depends on the row
    count, so the zero-padded product is what keeps the bits."""
    g = imdb_like_graph(n_m=120, n_d=20, n_a=60, seed=4, edges_per_node=5)
    plan = build_plan(g, random_legal_episodes(g, np.arange(120), 3, seed=2))
    assert min(len(ix.src_rows) for ix in plan.index) >= 600
    params = init_params(g.schema, g.num_classes, 3, d=32, heads=4, dropout=0.5, seed=2)
    for rows in (np.arange(0, 120, 5), np.arange(0, 120, 2), np.array([7])):
        assert_same_bits(params, g, plan, rows, 3, mft)


# ---------------------------------------------------------------------------
# The compacted train backward and the multiply-first eval pass


def _kept_sets(n: int, rng: np.random.Generator):
    """Kept traversals of an n-traversal layer, ascending: 1 to all of them,
    scattered or in runs, and one kept row in some K blocks."""
    for m in sorted({1, 2, 31, 32, 33, n // 4, n // 2, n - 1, n}):
        if 1 <= m <= n:
            yield np.sort(rng.choice(n, size=m, replace=False))
    runs = np.flatnonzero(np.repeat(rng.random(n // 4 + 1) < 0.3, 4)[:n])  # runs of 4
    if len(runs):
        yield runs
    bounds = _k_blocks(n)
    yield bounds[:-1]  # each block's first row alone
    lone = bounds[-2]  # the last block's first row, and every row of the others
    yield np.concatenate([np.arange(lone), [lone]])


# The layer sizes of _kept_sets: around one block of 384, the halved
# remainders between 384 and 768, and up to the largest layers.
BLOCK_ROWS = [32, 100, 384, 385, 500, 767, 768, 769, 1000, 1153, 1500, 2907, 6658, 7000]


def pin_the_blocked_product_keeps_the_padded_bits(d: int, n: int) -> None:
    """The backward's S.T @ g_X over the kept rows, summed block by block of
    _k_blocks(n), gives the bits of the product over all n rows with zero
    rows outside the kept ones."""
    rng = np.random.default_rng(d * 7001 + n)
    for kept in _kept_sets(n, rng):
        S, G = rng.normal(size=(len(kept), d)), rng.normal(size=(len(kept), d))
        want = _spread(S, kept, n).T @ _spread(G, kept, n)
        assert _blocked_tn(S, G, kept, n).tobytes() == want.tobytes(), (d, n, len(kept))


@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("n", ROWS)
def test_the_kept_rows_of_a_backward_product_keep_their_bits_from_32_rows(d, n):
    """g_X @ W.T over 32 or more kept rows gives their rows of the product
    over all n rows with zero rows outside the kept ones."""
    rng = np.random.default_rng(d * 6007 + n)
    W = rng.normal(size=(d, d))
    for kept in _kept_sets(n, rng):
        if len(kept) >= 32:
            G = rng.normal(size=(len(kept), d))
            assert (G @ W.T).tobytes() == (_spread(G, kept, n) @ W.T)[kept].tobytes(), len(kept)


# (rows of the matrix multiplied first, rows gathered from it): H0 of the
# scale-pp benchmark workload reaches ~3,800 rows, its layers 6,658 traversals
GATHERS = [(2, 3), (3, 40), (9, 130), (130, 523), (523, 600), (1500, 2907), (2907, 6658),
           (3800, 6658), (3800, 7000), (6999, 7000)]


@pytest.mark.parametrize("d", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("k, m", GATHERS)
def test_multiplying_before_gathering_keeps_the_gathered_products_bits(d, k, m):
    """(A @ W)[idx] gives the bits of A[idx] @ W for a k-row A with 2 <= k <
    len(idx), and a step's target rows multiplied once, a lone one as two
    rows, give the bits of every traversal's row."""
    rng = np.random.default_rng(d * 1009 + k)
    A, W = rng.normal(size=(k, d)), rng.normal(size=(d, d))
    idx = rng.integers(0, k, size=m)
    assert (A @ W)[idx].tobytes() == (A[idx] @ W).tobytes()
    for steps in (1, 2, m // 3):
        targets = rng.integers(0, k, size=steps)
        lengths = np.diff(np.sort(np.concatenate([[0, m], rng.choice(np.arange(1, m), steps - 1,
                                                                     replace=False)])))
        got = np.repeat(_times(A[targets], W, m), lengths, axis=0)
        assert got.tobytes() == (A[np.repeat(targets, lengths)] @ W).tobytes(), steps


def compacted_backward_case(mft: bool) -> int:
    """Restricted train steps on layers of 600 to 1,100 traversals at d = 64
    and 128, checked against the whole plan's: returns how many layer
    products took the compacted path."""
    g = imdb_like_graph(n_m=120, n_d=20, n_a=60, seed=4, edges_per_node=5)
    plan = build_plan(g, random_legal_episodes(g, np.arange(120), 3, seed=2))
    _compaction_holds()  # its own product is no layer's
    calls = []
    blocked = model._blocked_tn
    model._blocked_tn = lambda *a: calls.append(1) or blocked(*a)
    try:
        for d, heads in ((64, 4), (128, 8)):
            for dropout in (0.0, 0.5):
                params = init_params(g.schema, g.num_classes, 3, d=d, heads=heads,
                                     dropout=dropout, seed=2)
                for rows in (np.arange(0, 120, 5), np.arange(0, 120, 2), np.array([7])):
                    assert_same_bits(params, g, plan, rows, 3, mft)
    finally:
        model._blocked_tn = blocked
    return len(calls)


@pytest.mark.parametrize("mft", [False, True])
def test_the_compacted_backward_keeps_the_whole_plans_bits(mft):
    """Where the once-per-process check holds, layers of d >= 64 that keep
    32 or more traversals take the compacted products; where it fails, as
    with a multi-threaded BLAS, they keep the padded ones. Either way the
    loss and every gradient keep their bits."""
    assert (compacted_backward_case(mft) > 0) == _compaction_holds()


def single_threaded_pins() -> None:
    """The compacted path's pins as the benchmark runs, with BLAS on one
    thread: there the once-per-process check holds, the backward takes the
    compacted products and gives the whole plan's bits, and a BLAS with
    another K block fails the check."""
    assert _compaction_holds()
    for d in (64, 128):
        for n in BLOCK_ROWS:
            pin_the_blocked_product_keeps_the_padded_bits(d, n)
        for n in ROWS:
            test_the_kept_rows_of_a_backward_product_keep_their_bits_from_32_rows(d, n)
    for d in (8, 16, 32, 64, 128):
        for k, m in GATHERS:
            test_multiplying_before_gathering_keeps_the_gathered_products_bits(d, k, m)
        for n in ROWS:
            test_a_row_of_a_product_keeps_its_bits_when_other_rows_are_dropped(d, n)
    for mft in (False, True):
        assert compacted_backward_case(mft) > 0
    q, model._GEMM_Q = model._GEMM_Q, 256
    model._compaction_holds.cache_clear()
    try:
        assert not _compaction_holds()
    finally:
        model._GEMM_Q = q
        model._compaction_holds.cache_clear()


def test_the_blas_pins_hold_with_blas_on_one_thread():
    """single_threaded_pins in a new interpreter whose BLAS runs one thread."""
    run_with_one_blas_thread("import test_restricted_pass as t; t.single_threaded_pins()")


def eval_outputs(params, g, plan, mft: bool, recorded: bool) -> bytes:
    if recorded:  # a train pass without dropout gathers before it multiplies
        return recorded_forward(params, g, plan, "eval", 0, mft).value.tobytes()
    return hgnn_forward(params, g, plan, "eval", 0, mft).outputs.value.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.sampled_from(DIMS), st.booleans())
def test_the_unrecorded_eval_pass_gives_the_gather_first_bits(case, dims, mft):
    g, episodes, _ = case
    d, heads = dims
    params = init_params(g.schema, g.num_classes, 3, d=d, heads=heads, dropout=0.5, seed=1)
    plan = build_plan(g, episodes)
    assert eval_outputs(params, g, plan, mft, False) == eval_outputs(params, g, plan, mft, True)


def _parallel_edge_graph():
    """Node 0's one neighbour is node 1, by two parallel edges; every other
    node has three neighbours."""
    rng = np.random.default_rng(3)
    schema = HinSchema(("T",), (RelationType("r", "T", "T"),), {"T": 3})
    edges = [(0, 1), (0, 1)] + [(s, int(t)) for s in range(1, 6)
                                for t in rng.choice(6, size=3, replace=False)]
    return build_graph(schema, {"T": 6}, {"r": edges}, {"T": rng.normal(size=(6, 3))}, "T", 2,
                       rng.integers(0, 2, size=6))


@pytest.mark.parametrize("dims", [(8, 8), (32, 4), (128, 8)])
@pytest.mark.parametrize("mft", [False, True])
def test_the_unrecorded_eval_pass_keeps_the_bits_of_one_step_layers_and_a_one_row_prev(dims, mft):
    """Episode (0, 2) alone: layer 1 is one step of three traversals; layer 2
    is one step whose two traversals read layer 1's one row, which is
    gathered before it is multiplied. With episode (2, 2), layer 2 reads a
    prev of two or more rows."""
    g = _parallel_edge_graph()
    for spec in ([(0, 2)], [(0, 2), (2, 2)]):
        plan = build_plan(g, [_episode(g, s, n) for s, n in spec])
        if len(spec) == 1:
            assert [len(ix.starts) for ix in plan.index] == [1, 1]
            assert len(plan.index[1].src_rows) == 2
        params = init_params(g.schema, 2, 3, d=dims[0], heads=dims[1], seed=4)
        assert eval_outputs(params, g, plan, mft, False) == eval_outputs(params, g, plan, mft, True)


def test_a_recorded_pass_without_dropout_never_multiplies_first(monkeypatch):
    """Its backward reads every traversal's target product, which the
    multiply-first path does not build."""
    g = _parallel_edge_graph()
    plan = build_plan(g, [_episode(g, s, n) for s, n in [(0, 2), (2, 2), (3, 1)]])
    params = init_params(g.schema, 2, 3, d=32, heads=4, dropout=0.0, seed=4)
    calls = []
    monkeypatch.setattr(model, "_multiply_first", lambda *a: calls.append(1))
    outputs = hgnn_forward(params, g, plan, "train", 1).outputs
    loss = cross_entropy(classify(params, outputs), np.zeros(3, dtype=np.int64), np.arange(3))
    backward(loss, params.all_vars())
    assert not calls
    with pytest.raises(TypeError):  # the stub returns no products
        hgnn_forward(params, g, plan, "eval", 1)
    assert calls
