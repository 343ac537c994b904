"""DQN machinery: states, action selection, buffer, TD loss, convergence."""
from collections import deque

import numpy as np
import pytest

from helpers import Transition, fifo_rows, imdb_like_graph, stack_transitions
from rlhgnn.agent import (
    DqnAgent,
    Normalizer,
    QNetwork,
    ReplayBuffer,
    compute_reward,
    dqn_step,
    initial_state_static,
    load_agent,
    q_shapes,
    save_agent,
    select_action,
    state_static,
    static_state_dim,
    sync_target,
    td_loss,
)
from rlhgnn.metapath import Episode, expand_frontier
from rlhgnn.model import init_adam


def tiny_qnet(input_dim=4, actions=3, seed=0, hidden=(8, 8)):
    return QNetwork(input_dim, actions, hidden=hidden, seed=seed)


def test_q_shapes_are_the_networks_in_vars_order_and_its_weights_glorot_draws():
    """Weights drawn in layer order from one generator, biases zero."""
    qnet = tiny_qnet(input_dim=5, actions=4, seed=3, hidden=(6, 7))
    shapes = [(5, 6), (1, 6), (6, 7), (1, 7), (7, 4), (1, 4)]
    assert q_shapes(5, (6, 7), 4) == [v.value.shape for v in qnet.vars()] == shapes
    rng = np.random.default_rng(3)
    for (m, n), w, b in zip(shapes[::2], qnet.weights, qnet.biases):
        lim = np.sqrt(6.0 / (m + n))
        assert w.value.tobytes() == rng.uniform(-lim, lim, size=(m, n)).tobytes()
        assert b.value.tobytes() == np.zeros((1, n)).tobytes()


def one_row(*args, **kwargs):
    return stack_transitions([transition(*args, **kwargs)])


def transition(s, a, s_next, r, terminal=False, n_actions=3):
    return Transition(
        s=np.asarray(s, dtype=float),
        a=a,
        s_next=np.asarray(s_next, dtype=float),
        r=r,
        terminal=terminal,
        next_mask=np.ones(n_actions, dtype=bool),
    )


# ---------------------------------------------------------------------------
# States


def test_state_static_t0_is_own_attributes():
    g = imdb_like_graph(seed=2)
    dim = static_state_dim(g)
    s0 = initial_state_static(g, [Episode.initial(("Movie", n)) for n in (1, 3)], dim)
    assert s0.shape == (2, dim)
    np.testing.assert_allclose(s0[:, : g.schema.attribute_dims["Movie"]],
                               g.attributes["Movie"][[1, 3]])


def test_state_static_recurrence():
    g = imdb_like_graph(seed=2)
    dim = static_state_dim(g)
    f = expand_frontier(g, Episode.initial(("Movie", 0)), "M-A")
    prev = np.zeros(dim)
    prev[0], prev[1] = 1.0, 0.0
    states = np.stack([prev, prev])
    state_static(g, [Episode.initial(("Movie", 1)), f], states, np.array([1]))
    mean = g.attributes["Actor"][f.reached].mean(axis=0)
    padded = np.zeros(dim)
    padded[: len(mean)] = mean
    np.testing.assert_array_equal(states[0], prev)  # a row not named is left alone
    np.testing.assert_allclose(states[1], (padded + prev) / 2)
    # direct example: s_prev=[1,0], arrived mean [0,0.5] -> [0.5, 0.25]
    # and arrived mean equal to the previous state is a fixed point
    states = padded[None, :].copy()
    state_static(g, [f], states, np.array([0]))
    np.testing.assert_allclose(states[0], padded)


def test_state_pp_normalizer():
    norm = Normalizer(fit_count=4)
    batch = np.array([[1.0, 2.0], [3.0, 2.0], [1.0, 4.0], [3.0, 4.0]])
    np.testing.assert_array_equal(norm.apply(batch), batch)  # before the fit: raw states
    raw = norm.transform(batch)
    np.testing.assert_array_equal(raw, batch)  # pre-freeze passthrough
    assert norm.frozen
    np.testing.assert_allclose(norm.transform(norm.mean)[0], 0.0)
    ident = Normalizer(fit_count=1)
    ident.transform(np.zeros((1, 3)))
    ident.mean = np.zeros(3)
    ident.std = np.ones(3)
    x = np.array([0.3, -0.7, 2.0])
    np.testing.assert_allclose(ident.transform(x)[0], x)


def test_normalizer_statistics_on_fitting_batch():
    rng = np.random.default_rng(0)
    states = rng.normal(loc=3.0, scale=2.0, size=(100, 6))
    norm = Normalizer(fit_count=100)
    norm.transform(states)
    assert norm.frozen
    z = norm.transform(states)
    assert np.all(np.abs(z.mean(axis=0)) < 0.15)
    assert np.all((z.std(axis=0) > 0.8) & (z.std(axis=0) < 1.2))


def test_normalizer_sigma_floor():
    norm = Normalizer(fit_count=2)
    norm.transform(np.zeros((2, 3)))
    assert np.all(norm.std == 1e-6)


# ---------------------------------------------------------------------------
# Q-values and action selection


def test_q_values_zero_weights_and_tie_break():
    qnet = tiny_qnet()
    for w in qnet.weights:
        w.value = np.zeros_like(w.value)
    qv = qnet.values(np.ones(4))[0]
    np.testing.assert_array_equal(qv, 0.0)
    mask = np.array([True, True, True])
    a = select_action(qv[None], mask[None], eps=0.0, rng=np.random.default_rng(0))
    assert a.tolist() == [0]  # lowest index wins ties
    mask = np.array([False, True, True])
    assert select_action(qv[None], mask[None], 0.0, np.random.default_rng(0)).tolist() == [1]


def test_q_values_deterministic_and_match_recomputation():
    qnet = tiny_qnet(seed=3)
    s = np.random.default_rng(1).normal(size=4)
    v1, v2 = qnet.values(s)[0], qnet.values(s)[0]
    np.testing.assert_array_equal(v1, v2)
    x = s[None]
    for i, (w, b) in enumerate(zip(qnet.weights, qnet.biases)):
        x = x @ w.value + b.value
        if i < len(qnet.weights) - 1:
            x = np.maximum(x, 0.0)
    np.testing.assert_allclose(v1, x[0], atol=1e-12)


def test_qnetwork_hidden_widths_default():
    qnet = QNetwork(10, 5)
    widths = [w.value.shape for w in qnet.weights]
    assert widths == [(10, 32), (32, 64), (64, 128), (128, 64), (64, 32), (32, 5)]


def test_select_action_respects_mask_for_all_eps():
    rng = np.random.default_rng(0)
    qv = np.array([5.0, 1.0, 3.0])
    mask = np.array([False, True, False])
    for eps in (0.0, 0.3, 1.0):
        for _ in range(200):
            assert select_action(qv[None], mask[None], eps, rng).tolist() == [1]


@pytest.mark.parametrize("mask,message", [
    (np.ones((2, 4), dtype=bool),
     r"Q-values \(2, 3\) and legality masks \(2, 4\) differ in shape"),
    (np.array([[True, False, False], [False, False, False]]), "no legal action"),
], ids=["shape", "no-legal-action"])
def test_select_action_rejects_masks_that_do_not_fit(mask, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        select_action(np.zeros((2, 3)), mask, 0.5, np.random.default_rng(0))


def test_select_action_uniform_at_eps_one():
    rng = np.random.default_rng(7)
    qv = np.array([9.0, 0.0, 0.0, 0.0])
    mask = np.array([True, True, True, False])
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        counts[select_action(qv[None], mask[None], 1.0, rng)[0]] += 1
    assert counts[3] == 0
    np.testing.assert_allclose(counts[:3] / n, 1 / 3, atol=0.05)


# ---------------------------------------------------------------------------
# Replay buffer


@pytest.mark.parametrize("make,message", [
    (lambda: ReplayBuffer(0), "capacity must be positive"),
    (lambda: DqnAgent.create(4, 3, buffer_capacity=5, reward_window=0), "window must be positive"),
], ids=["buffer", "reward-window"])
def test_a_buffer_or_reward_window_of_size_zero_is_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_buffer_fifo_and_capacity():
    buf = ReplayBuffer(capacity=5)
    for i in range(8):
        buf.push_batch(one_row([i], 0, [i], 0.0))
    assert len(buf) == 5
    stored = [t.s[0] for t in fifo_rows(buf)]
    assert stored == [3, 4, 5, 6, 7]  # oldest 3 evicted


def test_buffer_sample_with_replacement_and_overdraw():
    buf = ReplayBuffer(capacity=4)
    for i in range(3):
        buf.push_batch(one_row([i], 0, [i], 0.0))
    rng = np.random.default_rng(0)
    saw_duplicate = False
    for _ in range(50):
        batch = buf.sample(3, rng)
        ids = batch.s[:, 0].tolist()
        if len(set(ids)) < len(ids):
            saw_duplicate = True
            break
    assert saw_duplicate  # uniform sampling with replacement
    with pytest.raises(ValueError):
        buf.sample(10, rng)  # larger than the buffer
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=4).sample(1, rng)


def test_buffer_rejects_non_finite_reward():
    buf = ReplayBuffer(capacity=2)
    with pytest.raises(ValueError):
        buf.push_batch(one_row([0.0], 0, [0.0], float("nan")))


# ---------------------------------------------------------------------------
# Reward


def test_reward_window_arithmetic():
    h = deque([0.5, 0.5, 0.5], maxlen=3)
    assert abs(compute_reward(h, 0.6) - 0.1) < 1e-12
    assert list(h) == [0.5, 0.5, 0.6]  # the oldest value leaves the window
    h2 = deque([0.4], maxlen=3)
    assert abs(compute_reward(h2, 0.5) - 0.1) < 1e-12  # partial window
    h3 = deque(maxlen=3)
    assert compute_reward(h3, 0.7) == 0.0  # empty history
    assert len(h3) == 1
    h4 = deque([0.2, 0.4], maxlen=2)
    assert abs(compute_reward(h4, 0.3) - 0.0) < 1e-12  # equals baseline mean


def test_reward_requires_unit_interval_metric():
    h = deque(maxlen=2)
    with pytest.raises(ValueError):
        compute_reward(h, 1.5)
    assert not h  # nothing recorded


# ---------------------------------------------------------------------------
# TD loss and DQN updates


def test_td_loss_zero_when_targets_equal_predictions():
    qnet = tiny_qnet(seed=1)
    target = tiny_qnet(seed=1)
    sync_target(qnet, target)
    s = np.random.default_rng(0).normal(size=4)
    qv = qnet.values(s)[0]
    # construct r so that r + gamma*maxQ == Q(s,a) exactly
    gamma = 0.9
    batch = []
    for a in range(3):
        r = qv[a] - gamma * qv.max()
        t = transition(s, a, s, r)
        batch.append(t)
    loss = td_loss(qnet, target, stack_transitions(batch), gamma)
    assert float(loss.value) < 1e-20


def test_td_loss_terminal_reduces_to_reward():
    qnet = tiny_qnet(seed=2)
    target = tiny_qnet(seed=3)
    s = np.zeros(4)
    t = transition(s, 1, s, 0.7, terminal=True)
    loss = td_loss(qnet, target, stack_transitions([t]), gamma=0.99)
    expected = (0.7 - qnet.values(s)[0][1]) ** 2
    np.testing.assert_allclose(float(loss.value), expected, atol=1e-12)


def test_td_loss_hand_computed_two_transitions():
    qnet = tiny_qnet(seed=4)
    target = tiny_qnet(seed=5)
    rng = np.random.default_rng(6)
    s1, s2 = rng.normal(size=4), rng.normal(size=4)
    n1, n2 = rng.normal(size=4), rng.normal(size=4)
    gamma = 0.95
    t1 = transition(s1, 0, n1, 0.3)
    t2 = transition(s2, 2, n2, -0.1, terminal=True)
    y1 = 0.3 + gamma * target.values(n1)[0].max()
    y2 = -0.1
    p1 = qnet.values(s1)[0][0]
    p2 = qnet.values(s2)[0][2]
    expected = ((y1 - p1) ** 2 + (y2 - p2) ** 2) / 2
    loss = td_loss(qnet, target, stack_transitions([t1, t2]), gamma)
    np.testing.assert_allclose(float(loss.value), expected, atol=1e-12)


def test_td_loss_next_max_respects_mask():
    qnet = tiny_qnet(seed=7)
    target = tiny_qnet(seed=8)
    s = np.ones(4)
    t = transition(s, 0, s, 0.0)
    t.next_mask = np.array([False, False, True])
    gamma = 0.9
    y = gamma * target.values(s)[0][2]
    expected = (y - qnet.values(s)[0][0]) ** 2
    np.testing.assert_allclose(float(td_loss(qnet, target, stack_transitions([t]), gamma).value),
                               expected, atol=1e-12)


def test_td_loss_empty_batch():
    with pytest.raises(ValueError):
        td_loss(tiny_qnet(), tiny_qnet(), stack_transitions([]), 0.9)


def test_dqn_step_converges_on_frozen_single_transition():
    qnet = tiny_qnet(seed=9, hidden=(16, 16))
    target = tiny_qnet(seed=9, hidden=(16, 16))
    sync_target(qnet, target)
    buf = ReplayBuffer(capacity=1)
    buf.push_batch(one_row([0.5, -0.5, 1.0, 0.0], 1, [0.0] * 4, 0.8, terminal=True))
    opt = init_adam(qnet.vars(), lr=0.005, weight_decay=0.0)
    rng = np.random.default_rng(0)
    losses = [dqn_step(qnet, target, buf, opt, 0.9, 1, rng) for _ in range(2000)]
    assert losses[-1] < 1e-6
    assert losses[-1] < losses[0]


def test_dqn_step_leaves_target_untouched_and_checks_batch():
    qnet = tiny_qnet(seed=10)
    target = tiny_qnet(seed=11)
    before = [v.value.copy() for v in target.vars()]
    buf = ReplayBuffer(capacity=4)
    buf.push_batch(one_row([0.0] * 4, 0, [0.0] * 4, 1.0, terminal=True))
    opt = init_adam(qnet.vars())
    dqn_step(qnet, target, buf, opt, 0.9, 1, np.random.default_rng(0))
    for b, v in zip(before, target.vars()):
        np.testing.assert_array_equal(b, v.value)
    with pytest.raises(ValueError):
        dqn_step(qnet, target, buf, opt, 0.9, 5, np.random.default_rng(0))


def test_sync_target_equalises_q_values():
    qnet = tiny_qnet(seed=12)
    target = tiny_qnet(seed=13)
    s = np.random.default_rng(0).normal(size=(5, 4))
    assert not np.allclose(qnet.values(s), target.values(s))
    sync_target(qnet, target)
    np.testing.assert_array_equal(qnet.values(s), target.values(s))
    # and a fresh agent starts with target == qnet
    agent = DqnAgent.create(4, 3, buffer_capacity=10)
    np.testing.assert_array_equal(agent.qnet.values(s), agent.target_net.values(s))


def test_sync_every_c_updates():
    agent = DqnAgent.create(4, 3, buffer_capacity=8, sync_every=2, seed=1)
    for i in range(4):
        agent.buffer.push_batch(one_row([float(i)] * 4, i % 3, [0.0] * 4, 0.5, terminal=True))
    rng = np.random.default_rng(0)
    s = np.ones((1, 4))
    agent.maybe_update(2, rng)
    assert not np.allclose(agent.qnet.values(s), agent.target_net.values(s))
    agent.maybe_update(2, rng)  # second update triggers the sync
    np.testing.assert_array_equal(agent.qnet.values(s), agent.target_net.values(s))


def test_sync_every_one_means_no_target_lag():
    # c=1 degenerates to Q-learning without a lagging target
    agent = DqnAgent.create(4, 3, buffer_capacity=8, sync_every=1, seed=3)
    for i in range(4):
        agent.buffer.push_batch(one_row([float(i)] * 4, i % 3, [0.0] * 4, 0.5, terminal=True))
    rng = np.random.default_rng(0)
    s = np.ones((2, 4))
    for _ in range(3):
        agent.maybe_update(2, rng)
        np.testing.assert_array_equal(agent.qnet.values(s), agent.target_net.values(s))


def test_target_holds_initialisation_before_first_sync():
    qnet = tiny_qnet(seed=20)
    target = tiny_qnet(seed=20)
    sync_target(qnet, target)
    init_values = [v.value.copy() for v in target.vars()]
    buf = ReplayBuffer(capacity=4)
    buf.push_batch(one_row([0.0] * 4, 0, [0.0] * 4, 1.0, terminal=True))
    opt = init_adam(qnet.vars())
    dqn_step(qnet, target, buf, opt, 0.9, 1, np.random.default_rng(0))
    for before, v in zip(init_values, target.vars()):
        np.testing.assert_array_equal(before, v.value)


def test_agent_checkpoint_round_trip(tmp_path):
    agent = DqnAgent.create(6, 4, buffer_capacity=20, gamma=0.9, sync_every=7,
                            reward_window=3, normalizer_fit=5, seed=2)
    agent.normalizer.transform(np.random.default_rng(0).normal(size=(5, 6)))
    agent.update_count, agent.eps_position = 9, 0.4
    path = tmp_path / "agent.bin"
    save_agent(agent, path)
    loaded = load_agent(path)
    s = np.random.default_rng(1).normal(size=(3, 6))
    np.testing.assert_array_equal(agent.qnet.values(s), loaded.qnet.values(s))
    np.testing.assert_array_equal(agent.target_net.values(s), loaded.target_net.values(s))
    assert loaded.gamma == 0.9 and loaded.sync_every == 7
    assert loaded.update_count == 9 and loaded.eps_position == 0.4
    assert loaded.history.maxlen == 3 and not loaded.history
    np.testing.assert_allclose(loaded.normalizer.mean, agent.normalizer.mean)
    # the exploration position is also readable in the header
    import json

    with open(path, "rb") as f:
        header = json.loads(f.readline())
    assert header["eps_position"] == 0.4
    assert header["buffer_capacity"] == 20
