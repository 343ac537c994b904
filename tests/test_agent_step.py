"""The batched agent step against the per-episode step it replaced: legal-action
table, whole-batch epsilon-greedy, the `_act` transition batch and the
block-allocated ring replay buffer. Also the frozen episode values and the
random legal episodes against the loop they replaced."""
from dataclasses import FrozenInstanceError
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceReplayBuffer,
    Transition,
    fifo_rows,
    imdb_like_schema,
    reference_act,
    reference_fresh_episodes,
    reference_random_legal_episodes,
    reference_select_action,
    stack_transitions,
    unstack_transitions,
)
from rlhgnn import agent
from rlhgnn.agent import QNetwork, ReplayBuffer, TransitionBatch, select_action, td_loss
from rlhgnn.hin import HinSchema, RelationType, SchemaError, build_graph
from rlhgnn.metapath import Episode, action_space_size, valid_actions
from rlhgnn.pipeline import (
    LegalActionTable,
    TrainConfig,
    _act,
    _fresh_episodes,
    random_legal_episodes,
)


def test_rng_choice_equals_indexed_integers_draw():
    """The batched step draws legal[rng.integers(len(legal))] where the
    per-episode step drew rng.choice(legal); reports stay byte-identical only
    while the two give the same value and leave the same generator state."""
    for n in range(1, 5):
        for seed in range(500):
            legal = np.sort(np.random.default_rng(seed).choice(7, size=n, replace=False))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                assert a.choice(legal) == legal[b.integers(len(legal))]
            assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(2, 6), st.sampled_from([0.0, 0.3, 1.0]), st.data())
def test_batch_select_action_equals_selecting_row_by_row(n, A, eps, data):
    masks = np.array([data.draw(st.lists(st.booleans(), min_size=A, max_size=A)
                                .filter(any)) for _ in range(n)])
    qvals = np.asarray(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                          min_size=n * A, max_size=n * A))).reshape(n, A)
    seed = data.draw(st.integers(0, 2**16))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = select_action(qvals, masks, eps, got_rng)
    assert got.dtype == np.int64
    assert got.tolist() == [reference_select_action(q, m, eps, want_rng)
                            for q, m in zip(qvals, masks)]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    one = select_action(qvals[:1], masks[:1], eps, got_rng)
    assert one.tolist() == [reference_select_action(qvals[0], masks[0], eps, want_rng)]


def test_legal_action_table_rows_are_valid_actions():
    schema = imdb_like_schema()
    table = LegalActionTable.build(schema)
    for t in schema.node_types:
        for at_max in (False, True):
            np.testing.assert_array_equal(table.masks[table.row(t, at_max)],
                                          valid_actions(schema, t, at_max))
    assert not table.masks.flags.writeable
    with pytest.raises(SchemaError):
        table.row("Studio", False)


# ---------------------------------------------------------------------------
# Random small schemas and graphs: parallel edges, zero-degree nodes and
# dead ends


@st.composite
def small_graphs(draw):
    types = tuple(draw(st.permutations(["A", "B", "C"]))[:draw(st.integers(1, 3))])
    counts = {t: draw(st.integers(1, 8)) for t in types}
    srcs = [types[0]] + [draw(st.sampled_from(types)) for _ in range(draw(st.integers(0, 3)))]
    rels = tuple(RelationType(f"r{i}", s, draw(st.sampled_from(types))) for i, s in enumerate(srcs))
    edge_lists = {  # repeated pairs are parallel edges; an empty list is a dead end
        r.name: draw(st.lists(st.tuples(st.integers(0, counts[r.src] - 1),
                                        st.integers(0, counts[r.dst] - 1)), max_size=25))
        for r in rels
    }
    schema = HinSchema(types, rels, {t: 2 for t in types})
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    attrs = {t: rng.normal(size=(counts[t], 2)) for t in types}
    return build_graph(schema, counts, edge_lists, attrs, types[0], 2)


def _assert_same_trace(a: Episode, b: Episode):
    assert (a.start, a.path, a.node_type) == (b.start, b.path, b.node_type)
    pairs = [(a.reached, b.reached)]
    assert len(a.step_edges) == len(b.step_edges)
    for (pa, ca), (pb, cb) in zip(a.step_edges, b.step_edges):
        pairs += [(pa, pb), (ca, cb)]
    for u, v in pairs:
        assert u.dtype == v.dtype
        np.testing.assert_array_equal(u, v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_batched_act_equals_per_episode_act(g, data):
    T = data.draw(st.integers(1, 3))
    eps = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    fixed = None
    if data.draw(st.booleans()):  # any relation names: an illegal step must raise in both
        names = [r.name for r in g.schema.relation_types]
        fixed = tuple(data.draw(st.lists(st.sampled_from(names), max_size=3)))
    cfg = TrainConfig(max_timesteps=T, fan_out_cap=data.draw(st.sampled_from([None, 1, 2, 3])),
                      seed=data.draw(st.integers(0, 3)), fixed_path=fixed)
    n_target = g.num_nodes[g.target_type]
    qnet = QNetwork(3, action_space_size(g.schema), hidden=(4,),
                    seed=data.draw(st.integers(0, 99)))
    if data.draw(st.booleans()):  # all-equal Q-values: ties break to the lowest legal action
        for v in qnet.vars():
            v.value = np.zeros_like(v.value)
    table = LegalActionTable.build(g.schema)
    rng_seed = data.draw(st.integers(0, 2**16))
    new_rng, ref_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    state_rng = np.random.default_rng(rng_seed + 1)
    memo = {}  # one run's: later rounds revisit start nodes and paths
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = np.asarray(sorted(data.draw(st.sets(st.integers(0, n_target - 1), min_size=1))))
        if not _act_round_equals_reference(g, cfg, table, nodes, qnet, eps, new_rng, ref_rng,
                                           state_rng, memo):
            return


def _act_round_equals_reference(g, cfg, table, nodes, qnet, eps, new_rng, ref_rng, state_rng,
                                memo) -> bool:
    """Walk one round of `nodes` through timesteps 0..T with `_act` on `memo`
    and with the reference; False once both raised for an illegal fixed step."""
    dim = qnet.input_dim
    new_eps, ref_eps = _fresh_episodes(g, nodes), reference_fresh_episodes(g, nodes)
    stopped = np.zeros(len(nodes), dtype=bool)
    for t in range(cfg.max_timesteps + 1):
        states = state_rng.normal(size=(len(nodes), dim))  # one row per episode
        active_states = states[[not e.stopped for e in ref_eps]]
        try:
            ref = reference_act(g, cfg, ref_eps, active_states, qnet, eps, ref_rng,
                                timestep_for_fixed=t)
        except ValueError:
            with pytest.raises(ValueError, match="illegal here"):
                _act(g, cfg, table, new_eps, stopped, states, qnet, eps, new_rng)
            return False
        rows, batch = _act(g, cfg, table, new_eps, stopped, states, qnet, eps, new_rng, memo)
        # what the loops record as the step's acting nodes and actions
        acting, actions = nodes[rows].tolist(), batch.a.tolist()
        ref_acting, ref_actions, ref_pending = ref
        assert (acting, actions) == (ref_acting, ref_actions)
        assert all(type(x) is int for x in acting + actions)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert rows.tolist() == [ref_eps.index(p["ep"]) for p in ref_pending]
        assert batch.a.tolist() == [p["a"] for p in ref_pending]
        assert batch.terminal.tolist() == [p["terminal"] for p in ref_pending]
        assert np.isnan(batch.r).all()  # the reward is not known yet
        for i, p in enumerate(ref_pending):
            np.testing.assert_array_equal(batch.s[i], p["s"])
            np.testing.assert_array_equal(batch.next_mask[i], p["next_mask"])
            if p["terminal"]:
                np.testing.assert_array_equal(batch.s_next[i], p["s_next"])
        for e, done, r in zip(new_eps, stopped.tolist(), ref_eps, strict=True):
            assert (e.start, e.path, done) == (r.node, r.path, r.stopped)
            _assert_same_trace(e, r.trace)
    return True


def test_a_dead_end_stays_none_in_the_memo_on_every_later_lookup(monkeypatch):
    from rlhgnn import pipeline

    schema = HinSchema(("A", "B"), (RelationType("ab", "A", "B"),), {"A": 1, "B": 1})
    g = build_graph(schema, {"A": 2, "B": 1}, {"ab": [(0, 0)]},
                    {"A": np.zeros((2, 1)), "B": np.zeros((1, 1))}, "A", 2)
    cfg = TrainConfig(max_timesteps=1, fixed_path=("ab",))
    table, qnet = LegalActionTable.build(schema), QNetwork(1, 2, hidden=(4,))
    states, rng, memo = np.zeros((2, 1)), np.random.default_rng(0), {}
    calls = []
    real_expand = pipeline.expand_frontier
    monkeypatch.setattr(pipeline, "expand_frontier",
                        lambda *args: calls.append(args) or real_expand(*args))
    for _ in range(3):  # rounds of one run: only the first expands
        episodes, stopped = _fresh_episodes(g, [0, 1]), np.zeros(2, dtype=bool)
        _, batch = _act(g, cfg, table, episodes, stopped, states, qnet, 0.0, rng, memo)
        assert batch.terminal.tolist() == [False, True] and stopped.tolist() == [False, True]
        assert episodes[1].path == ()
        assert memo[(("A", 1), ("ab",))] is None
        assert memo[(("A", 0), ("ab",))] is episodes[0]
        assert len(calls) == 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.integers(0, 3), st.integers(0, 2**16), st.data())
def test_random_legal_episodes_equal_the_loop_they_replaced(g, length, seed, data):
    n_target = g.num_nodes[g.target_type]
    nodes = np.asarray(data.draw(st.lists(st.integers(0, n_target - 1), max_size=6)),
                       dtype=np.int64)
    for cap in (None, data.draw(st.integers(1, 3))):
        got = random_legal_episodes(g, nodes, length, seed, fan_out_cap=cap)
        want = reference_random_legal_episodes(g, nodes, length, seed, fan_out_cap=cap)
        assert len(got) == len(want)
        for e, r in zip(got, want):
            _assert_same_trace(e, r)
            for (pa, ca), (pb, cb) in zip(e.step_edges, r.step_edges):
                assert (pa.tobytes(), ca.tobytes()) == (pb.tobytes(), cb.tobytes())


def test_episodes_and_frontiers_are_frozen():
    ep = Episode.initial(("A", 0))
    with pytest.raises(FrozenInstanceError):
        ep.reached = np.zeros(0, dtype=np.int64)
    with pytest.raises(FrozenInstanceError):
        ep.path = ("r0",)


# ---------------------------------------------------------------------------
# Ring replay buffer against the deque it replaced


def _rows(draw, n, dim=3, A=4):
    return [Transition(
        s=np.asarray(draw(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim))),
        a=draw(st.integers(0, A - 1)),
        s_next=np.asarray(draw(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim))),
        r=draw(st.floats(-1, 1)),
        terminal=draw(st.booleans()),
        next_mask=np.asarray(draw(st.lists(st.booleans(), min_size=A, max_size=A))),
    ) for _ in range(n)]


def _assert_same_transitions(got: list[Transition], want: list[Transition]):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.a, x.r, x.terminal) == (y.a, y.r, y.terminal)
        for name in ("s", "s_next", "next_mask"):
            np.testing.assert_array_equal(getattr(x, name), getattr(y, name))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.sampled_from([1, 150, 216, 1 << 20]), st.data())
def test_ring_buffer_matches_deque_past_wrap_around(capacity, block_bytes, data):
    # 72-byte records: blocks of 1, 2 or 3 ring rows, or one block for the ring
    with patch.object(agent, "_BLOCK_BYTES", block_bytes):
        _ring_buffer_matches_deque(capacity, data)


def _ring_buffer_matches_deque(capacity, data):
    buf, ref = ReplayBuffer(capacity), ReferenceReplayBuffer(capacity)
    qnet, target = QNetwork(3, 4, hidden=(4,), seed=1), QNetwork(3, 4, hidden=(4,), seed=2)
    for _ in range(data.draw(st.integers(1, 8))):
        rows = _rows(data.draw, data.draw(st.integers(0, 2 * capacity + 1)))
        buf.push_batch(stack_transitions(rows) if rows else _batch(0, 0.0))
        for t in rows:
            ref.push(t)
        assert len(buf) == len(ref)
        _assert_same_transitions(fifo_rows(buf), list(ref))
        if len(ref):
            seed = data.draw(st.integers(0, 99))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            n = data.draw(st.integers(1, len(ref)))
            got, want = buf.sample(n, rng_a), ref.sample(n, rng_b)
            _assert_same_transitions(unstack_transitions(got), want)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert td_loss(qnet, target, got, 0.9).value == \
                td_loss(qnet, target, stack_transitions(want), 0.9).value


def _batch(n: int, r, s_offset: float = 0.0, a0: int = 0, dim: int = 3) -> TransitionBatch:
    s = np.arange(n * dim, dtype=np.float64).reshape(n, dim) + s_offset
    return TransitionBatch(s=s, a=np.arange(a0, a0 + n), r=np.broadcast_to(np.asarray(r, float), (n,)),
                           s_next=s.copy(), terminal=np.zeros(n, dtype=bool),
                           next_mask=np.ones((n, 4), dtype=bool))


def test_batch_push_with_a_non_finite_reward_writes_nothing():
    buf = ReplayBuffer(capacity=3)
    buf.push_batch(_batch(2, 0.5))
    before = fifo_rows(buf)
    for r in ([0.1, np.nan], float("inf")):
        with pytest.raises(ValueError, match="non-finite reward"):
            buf.push_batch(_batch(2, r, s_offset=10, a0=2))
        assert len(buf) == 2
        _assert_same_transitions(fifo_rows(buf), before)
    buf.push_batch(_batch(2, [0.1, 0.2], s_offset=10, a0=2))  # rows 0..3, keeps 1..3
    assert [t.a for t in fifo_rows(buf)] == [1, 2, 3]
    with pytest.raises(ValueError, match="shape"):
        buf.push_batch(_batch(1, 0.0, dim=5))
