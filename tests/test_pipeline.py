"""Training loops, metrics, reports and benchmarks."""
import json
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from helpers import fifo_rows, path_table, run_with_one_blas_thread
from rlhgnn import pipeline
from rlhgnn.hin import HinSchema, RelationType, build_graph
from rlhgnn.pipeline import (
    EpisodeReport,
    TrainConfig,
    action_report,
    bench_aggregation,
    evaluate_f1,
    predict,
    run,
)
from rlhgnn.synth import SyntheticSpec, generate_planted_hin


def brute_force_f1(preds, labels):
    """Independent scorer: enumerate TP/FP/FN per class from scratch."""
    classes = sorted(set(preds) | set(labels))
    per_class = []
    tps = fps = fns = 0
    for c in classes:
        tp = sum(1 for p, y in zip(preds, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, labels) if p != c and y == c)
        tps, fps, fns = tps + tp, fps + fp, fns + fn
        per_class.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    micro = 2 * tps / (2 * tps + fps + fns)
    return micro, sum(per_class) / len(per_class)


def planted_spec_1hop(seed=0, n_movies=90):
    return SyntheticSpec(
        node_counts={"Movie": n_movies, "Actor": 24, "Director": 12},
        relations=[("M-A", "Movie", "Actor"), ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "M-D": 2},
        target_type="Movie",
        planted_path=("M-A",),
        signal_strength=1.0,
        num_classes=3,
        train_count=36,
        val_count=27,
        seed=seed,
    )


def small_cfg(**overrides):
    base = dict(variant="rl-hgnn-pp", max_timesteps=2, rounds=8, inner_rounds=8,
                node_batch=24, hidden_dim=16, heads=2, dropout=0.2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# TrainConfig boundary


@pytest.mark.parametrize("field,value", [
    ("variant", "rl-gnn"),
    ("variant", "rl-hgnn-xx"),
    ("max_timesteps", 0),
    ("rounds", 0),
    ("inner_rounds", 0),
    ("node_batch", 0),
    ("gamma", 2.0),
    ("gamma", -0.1),
    ("eps_start", 1.5),
    ("eps_end", -0.5),
    ("eps_fraction", 2.0),
    ("target_sync_every", 0),
    ("reward_window", 0),
    ("memory_multiplier", 0),
    ("dqn_batch", 0),
    ("learning_rate", 0.0),
    ("learning_rate", float("nan")),
    ("weight_decay", -1e-4),
    ("hidden_dim", 0),
    ("hidden_dim", 15),  # not divisible by heads=2
    ("heads", 0),
    ("dropout", 1.0),
    ("dropout", -0.1),
    ("fan_out_cap", 0),
    ("fan_out_cap", -3),
    ("seed", -1),
    ("messages_from_target", "yes"),
])
def test_config_rejects_out_of_range_field(field, value):
    doc = small_cfg().to_dict()
    doc[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be "):
        TrainConfig.from_dict(doc)
    # the constructor and replace check too, so neither the loops nor
    # predict and bench_aggregation, which take the config as given, can be
    # given such a config
    with pytest.raises(ValueError, match=f"^{field} must be "):
        small_cfg(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        replace(small_cfg(), **{field: value})


def test_a_config_is_frozen_and_holds_its_fixed_path_as_a_tuple():
    cfg = small_cfg(fixed_path=["M-A"])
    assert cfg.fixed_path == ("M-A",)
    with pytest.raises(FrozenInstanceError):
        cfg.fan_out_cap = 0


@pytest.mark.parametrize("field,value", [
    ("hidden_dim", 32.0),
    ("max_timesteps", True),
    ("node_batch", "48"),
    ("rounds", 8.0),
    ("fan_out_cap", 2.5),
    ("seed", False),
    ("gamma", True),
    ("dropout", "0.1"),
    ("learning_rate", None),
    ("weight_decay", [0.0]),
    ("fixed_path", "M-A"),
    ("fixed_path", ["M-A", 2]),
    ("messages_from_target", 1),
])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    doc = small_cfg().to_dict()
    doc[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        TrainConfig.from_dict(doc)
    with pytest.raises(ValueError, match=f"^{field} must be "):
        small_cfg(**{field: value})


def test_config_keeps_valid_values_as_given():
    """Integers in float fields are accepted and not converted, so config.json
    keeps the bytes of the config it came from."""
    doc = small_cfg(gamma=1, dropout=0, learning_rate=1, fixed_path=("M-A",)).to_dict()
    assert json.dumps(TrainConfig.from_dict(doc).to_dict()) == json.dumps(doc)


@pytest.mark.parametrize("doc,kind", [([1], "list"), (None, "NoneType"), ("abc", "str"),
                                      (3, "int")])
def test_config_rejects_a_json_value_that_is_not_an_object(doc, kind):
    with pytest.raises(ValueError, match=f"^TrainConfig must be a JSON object, got {kind}$"):
        TrainConfig.from_dict(doc)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown TrainConfig field\\(s\\): hiden_dim, max_timestep"):
        TrainConfig.from_dict({"hiden_dim": 16, "max_timestep": 2, "seed": 1})


@pytest.mark.parametrize("variant,rounds,resolved", [
    ("rl-hgnn", None, 20), ("rl-hgnn-pp", None, 200), ("rl-hgnn", 7, 7), ("rl-hgnn-pp", 7, 7),
])
def test_rounds_default_to_20_for_the_base_loop_and_200_for_the_fast_loop(variant, rounds,
                                                                          resolved):
    assert TrainConfig(variant=variant, rounds=rounds).resolved_rounds() == resolved


def test_config_boundary_values_are_accepted():
    TrainConfig.from_dict(small_cfg(gamma=1.0, dropout=0.0, eps_start=0.0, eps_fraction=0.0,
                                    weight_decay=0.0, fan_out_cap=1, rounds=1,
                                    max_timesteps=1, seed=0).to_dict())


# ---------------------------------------------------------------------------
# evaluate_f1


def test_f1_all_correct():
    labels = np.array([0, 1, 2, 1])
    assert evaluate_f1(labels.copy(), labels, np.arange(4)) == (1.0, 1.0)


def test_f1_binary_confusion_matrix_case():
    # confusion [[2,1],[1,2]]: two right per class, one wrong each way
    labels = np.array([0, 0, 0, 1, 1, 1])
    preds = np.array([0, 0, 1, 1, 1, 0])
    micro, macro = evaluate_f1(preds, labels, np.arange(6))
    bf_micro, bf_macro = brute_force_f1(preds.tolist(), labels.tolist())
    assert abs(micro - 4 / 6) < 1e-12
    assert abs(macro - 2 / 3) < 1e-12
    assert abs(micro - bf_micro) < 1e-12 and abs(macro - bf_macro) < 1e-12


def test_f1_single_class():
    labels = np.array([1, 1, 1])
    assert evaluate_f1(labels.copy(), labels, np.arange(3)) == (1.0, 1.0)


def test_f1_micro_equals_accuracy_multiclass():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = rng.integers(0, 4, size=50)
        preds = rng.integers(0, 4, size=50)
        micro, _ = evaluate_f1(preds, labels, np.arange(50))
        assert abs(micro - np.mean(preds == labels)) < 1e-12


def test_f1_empty_set_errors():
    with pytest.raises(ValueError):
        evaluate_f1(np.array([0]), np.array([0]), np.array([], dtype=int))


def test_f1_names_predictions_shorter_than_labels():
    labels = np.arange(10) % 3
    with pytest.raises(ValueError, match="^3 predictions for 10 labels: both are indexed by "
                                         "node id$"):
        evaluate_f1(np.zeros(3, dtype=np.int64), labels, np.array([0, 6]))


@pytest.mark.parametrize("ids,message", [
    ([-1], "node id -1, which is no node id in [0, 30)"),
    ([3, 31], "node id 31, which is no node id in [0, 30)"),
    ([1.5], "node id 1.5, which is no node id in [0, 30)"),
    ([2, 4], "node id 4, which has no label"),
], ids=["negative", "past-the-end", "float", "unlabelled"])
def test_f1_names_the_first_node_id_it_cannot_score(ids, message):
    labels = np.arange(30) % 3
    labels[4] = -1
    with pytest.raises(ValueError, match=f"^nodes hold {re.escape(message)}$"):
        evaluate_f1(np.zeros(30, dtype=np.int64), labels, np.array(ids))


def test_f1_random_cases_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        labels = rng.integers(0, 3, size=30)
        preds = rng.integers(0, 3, size=30)
        micro, macro = evaluate_f1(preds, labels, np.arange(30))
        bf_micro, bf_macro = brute_force_f1(preds.tolist(), labels.tolist())
        assert abs(micro - bf_micro) < 1e-12
        assert abs(macro - bf_macro) < 1e-12


# ---------------------------------------------------------------------------
# Loop structure invariants


def test_alg1_counts():
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(variant="rl-hgnn", max_timesteps=1, rounds=2, inner_rounds=2,
                    eps_start=0.0, eps_end=0.0)
    params, agent, report = run(cfg, g, split)
    assert report.meta["hgnn_reinits"] == 2
    assert report.meta["dqn_update_opportunities"] == 2 * (1 + 1)  # K * (T+1)


def test_alg1_zero_weight_net_tie_breaks_to_lowest_action(monkeypatch):
    """K=1, T=1, eps=0, zero-weight Q: the tie-break is visible end to end."""
    import rlhgnn.pipeline as pl

    g, split = generate_planted_hin(planted_spec_1hop())
    real_make = pl._make_agent

    def zeroed(*args, **kwargs):
        agent = real_make(*args, **kwargs)
        for v in agent.qnet.vars():
            v.value = np.zeros_like(v.value)
        for v in agent.target_net.vars():
            v.value = np.zeros_like(v.value)
        return agent

    monkeypatch.setattr(pl, "_make_agent", zeroed)
    cfg = small_cfg(variant="rl-hgnn", max_timesteps=1, rounds=1, inner_rounds=1,
                    eps_start=0.0, eps_end=0.0)
    _, _, report = run(cfg, g, split)
    first = report.steps[0]
    # M-A is relation index 0 and legal from Movie: every node picks it
    assert g.schema.relation_index("M-A") == 0
    assert set(first.actions) == {0}


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_the_eps_schedule_ends_exactly_on_eps_end_and_the_agent_keeps_it(variant):
    """1.0 + (0.05 - 1.0) * 1.0 is 0.050000000000000044: the schedule's end
    is eps_end itself, in the report and in the trained agent."""
    for eps_end, fraction in [(0.05, 0.5), (0.1, 1.0), (0.3, 0.7), (0.0, 0.25)]:
        cfg = small_cfg(variant=variant, eps_end=eps_end, eps_fraction=fraction)
        for total in (1, 7, 30, 200):
            assert pipeline._eps_at(cfg, total, total) == eps_end
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(variant=variant, rounds=4, inner_rounds=2, max_timesteps=1)
    _, agent, report = run(cfg, g, split)
    assert agent.eps_position == report.meta["final_eps"] == cfg.eps_end
    _, agent, report = run(replace(cfg, fixed_path=("M-A",)), g, split)
    assert agent.eps_position == report.meta["final_eps"] == 0.0
    assert report.meta["dqn_update_opportunities"] == 0


def test_alg2_counts():
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(rounds=7, max_timesteps=2)
    params, agent, report = run(cfg, g, split)
    assert report.meta["hgnn_steps"] == 7
    assert report.meta["dqn_update_opportunities"] == 7
    assert len(report.steps) == 7
    # timesteps cycle 1..T
    assert [s.timestep for s in report.steps] == [1, 2, 1, 2, 1, 2, 1]


@pytest.mark.parametrize("variant,rounds", [("rl-hgnn", 3), ("rl-hgnn-pp", 7)])
def test_stored_transitions_follow_the_episodes(variant, rounds):
    """The ring holds every step's transitions in step order, one per acting
    node: each carries its step's action and reward, a node that acts again in
    its episode acts on the s_next of its previous transition, which was not
    terminal, and every transition of timestep T is terminal. A-M lets a
    fast-loop episode extend at timestep T, so that mark is not Stop's alone."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 60, "Actor": 24, "Director": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie"),
                   ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "A-M": 2, "M-D": 2}, planted_path=("M-A",),
        train_count=24, val_count=18))
    cfg = small_cfg(variant=variant, rounds=rounds, inner_rounds=2)
    _, agent, report = run(cfg, g, split)
    rows = fifo_rows(agent.buffer)
    assert len(rows) == sum(len(s.actions) for s in report.steps) < agent.buffer.capacity
    first_t, T, stop = (0 if variant == "rl-hgnn" else 1), cfg.max_timesteps, report.num_actions - 1
    acted_again = extended_at_T = 0
    for step in report.steps:
        if step.timestep == first_t:
            last: dict = {}  # a new batch of episodes: each node's latest transition
        mine, rows = rows[:len(step.actions)], rows[len(step.actions):]
        for node, action, row in zip(step.acting_nodes, step.actions, mine):
            assert (row.a, row.r) == (action, step.reward)
            if node in last:
                assert not last[node].terminal
                assert np.array_equal(row.s, last[node].s_next)
                acted_again += 1
            assert row.terminal or step.timestep < T
            extended_at_T += step.timestep == T and action != stop
            last[node] = row
    assert acted_again
    assert extended_at_T or variant == "rl-hgnn"  # base episodes are at max depth at T


def test_episode_paths_never_exceed_T():
    g, split = generate_planted_hin(planted_spec_1hop())
    for cfg in (small_cfg(variant="rl-hgnn", max_timesteps=2, rounds=2, inner_rounds=2),
                small_cfg(rounds=6, max_timesteps=2)):
        _, _, report = run(cfg, g, split)
        for r in report.rounds:
            assert all(len(p) <= cfg.max_timesteps for p in r.paths)


def test_cloned_params_share_no_arrays():
    from rlhgnn.model import init_params

    g, _ = generate_planted_hin(planted_spec_1hop())
    p = init_params(g.schema, g.num_classes, 2, d=8, heads=2, dropout=0.3, seed=5)
    q = p.clone()
    assert len(q.all_vars()) == len(p.all_vars())
    for a, b in zip(p.all_vars(), q.all_vars()):
        assert a is not b and not np.shares_memory(a.value, b.value)
        np.testing.assert_array_equal(a.value, b.value)
    keep = ("schema", "T", "d", "heads", "num_classes", "dropout", "seed")
    assert [getattr(q, k) for k in keep] == [getattr(p, k) for k in keep]


def test_snapshots_keep_their_values_across_later_optimizer_steps():
    """optimizer_step updates values in place: the best-params clone and a
    synced DQN target network must not follow the parameters they copied."""
    from helpers import Transition, stack_transitions
    from rlhgnn.agent import QNetwork, ReplayBuffer, dqn_step, sync_target
    from rlhgnn.model import init_adam, init_params, optimizer_step

    g, _ = generate_planted_hin(planted_spec_1hop())
    p = init_params(g.schema, g.num_classes, 2, d=8, heads=2, seed=5)
    best = p.clone()
    snapshot = [v.value.copy() for v in best.all_vars()]
    opt = init_adam(p.all_vars())
    for _ in range(3):
        optimizer_step(opt, [np.ones_like(v.value) for v in p.all_vars()])
    for a, b, v in zip(snapshot, best.all_vars(), p.all_vars()):
        np.testing.assert_array_equal(a, b.value)
        assert not np.array_equal(a, v.value)

    qnet, target = QNetwork(4, 3, hidden=(8,), seed=1), QNetwork(4, 3, hidden=(8,), seed=2)
    sync_target(qnet, target)
    synced = [v.value.copy() for v in target.vars()]
    buf = ReplayBuffer(capacity=2)
    buf.push_batch(stack_transitions([Transition(s=np.ones(4), a=1, s_next=np.zeros(4), r=1.0,
                                                 terminal=True, next_mask=np.ones(3, dtype=bool))]))
    q_opt = init_adam(qnet.vars())
    for _ in range(3):
        dqn_step(qnet, target, buf, q_opt, 0.9, 1, np.random.default_rng(0))
    for a, b, v in zip(synced, target.vars(), qnet.vars()):
        np.testing.assert_array_equal(a, b.value)
    assert any(not np.array_equal(a, v.value) for a, v in zip(synced, qnet.vars()))


def test_default_dimensions_smoke():
    """Both loops run at the default widths (d=128, 8 heads, 16-wide heads)."""
    g, split = generate_planted_hin(planted_spec_1hop())
    for variant in ("rl-hgnn", "rl-hgnn-pp"):
        cfg = TrainConfig(variant=variant, max_timesteps=2, rounds=2, inner_rounds=2,
                          node_batch=12, seed=0)  # d=128, heads=8, dropout=0.5 defaults
        params, agent, report = run(cfg, g, split)
        assert params.d == 128 and params.heads == 8 and params.head_dim == 16
        assert len(report.steps) > 0
        assert np.isfinite(report.meta["best_val_metric"])


def test_determinism_identical_reports():
    g, split = generate_planted_hin(planted_spec_1hop())
    for variant in ("rl-hgnn", "rl-hgnn-pp"):
        cfg = small_cfg(variant=variant, max_timesteps=1 if variant == "rl-hgnn" else 2,
                        rounds=3, inner_rounds=3, seed=42)
        _, _, r1 = run(cfg, g, split)
        cfg2 = small_cfg(variant=variant, max_timesteps=1 if variant == "rl-hgnn" else 2,
                         rounds=3, inner_rounds=3, seed=42)
        _, _, r2 = run(cfg2, g, split)
        assert r1.to_csv() == r2.to_csv()
        _, _, r3 = run(small_cfg(variant=variant, max_timesteps=1 if variant == "rl-hgnn" else 2,
                                 rounds=3, inner_rounds=3, seed=43), g, split)
        assert r1.to_csv() != r3.to_csv()


NAIVE_RUN_PARAM_TOL = 1e-9  # the plans sum the same terms in other orders


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_whole_run_on_naive_plans_equals_the_merged_run(variant, monkeypatch):
    """Without dropout the merge changes no result of a run: both loops and
    predict on naive plans give the merged run's report.csv, actions and
    predictions, and its parameters to within NAIVE_RUN_PARAM_TOL."""
    spec = SyntheticSpec(
        node_counts={"Movie": 60, "Actor": 24, "Director": 10},
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie"),
                   ("M-D", "Movie", "Director"), ("D-M", "Director", "Movie")],
        out_degree={"M-A": 2, "A-M": 3, "M-D": 1, "D-M": 4},
        target_type="Movie", planted_path=("M-A", "A-M"), train_count=24, val_count=18,
    )
    g, split = generate_planted_hin(spec)
    cfg = small_cfg(variant=variant, max_timesteps=3, rounds=3 if variant == "rl-hgnn" else 9,
                    inner_rounds=8, dropout=0.0)

    def whole_run():
        params, agent, report = run(cfg, g, split)
        return params, report, predict(params, agent, g, cfg, split.test)

    merged = whole_run()
    naive_calls = []
    monkeypatch.setattr(pipeline, "build_plan",
                        lambda g, eps: naive_calls.append(1) or pipeline.naive_plan(g, eps))
    naive = whole_run()
    assert naive_calls
    (p_m, r_m, pred_m), (p_n, r_n, pred_n) = merged, naive
    assert any(len(path) >= 2 for rd in r_m.rounds for path in rd.paths)
    assert r_n.to_csv() == r_m.to_csv()
    assert [(s.acting_nodes, s.actions) for s in r_n.steps] == [
        (s.acting_nodes, s.actions) for s in r_m.steps]
    assert [rd.paths for rd in r_n.rounds] == [rd.paths for rd in r_m.rounds]
    assert pred_n.tolist() == pred_m.tolist()
    for name, p in p_m.table.items():
        assert np.max(np.abs(p_n.table[name].value - p.value)) <= NAIVE_RUN_PARAM_TOL, name


# ---------------------------------------------------------------------------
# Reports


def test_an_empty_report_has_no_best_round():
    with pytest.raises(ValueError, match="^empty report$"):
        EpisodeReport(variant="rl-hgnn", num_actions=3).best_round()


def test_action_report_all_stop_and_accounting():
    g, split = generate_planted_hin(planted_spec_1hop())
    # a fixed empty path forces Stop at the first decision for every node
    cfg = small_cfg(rounds=2, fixed_path=())
    _, _, report = run(cfg, g, split)
    stats = action_report(report, g)
    assert stats.per_timestep[1] == {"STOP": 1.0}
    assert stats.stop_at_zero / stats.num_paths == 1.0
    assert path_table(stats) == []
    # accounting identity on a learned run
    cfg2 = small_cfg(rounds=6)
    _, _, rep2 = run(cfg2, g, split)
    st2 = action_report(rep2, g)
    total = st2.stop_at_zero / st2.num_paths + sum(f for _, f in path_table(st2))
    assert abs(total - 1.0) < 1e-9
    for t, freqs in st2.per_timestep.items():
        assert abs(sum(freqs.values()) - 1.0) < 1e-9


def test_action_report_arrow_format():
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(rounds=4, fixed_path=("M-A",), max_timesteps=1)
    _, _, report = run(cfg, g, split)
    stats = action_report(report, g)
    assert path_table(stats)[0][0] == "Movie -M-A-> Actor"
    assert path_table(stats)[0][1] == 1.0
    rendered = stats.render()
    assert "Movie -M-A-> Actor" in rendered and "%" in rendered


def test_stop_at_zero_nonzero_when_labels_are_own_attributes():
    spec = SyntheticSpec(
        node_counts={"Movie": 90, "Actor": 20, "Director": 10},
        relations=[("M-A", "Movie", "Actor"), ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "M-D": 2},
        target_type="Movie",
        planted_path=(),  # label signal sits in the movie's own attributes
        num_classes=3,
        train_count=36, val_count=27, seed=1,
    )
    g, split = generate_planted_hin(spec)
    cfg = small_cfg(rounds=60, max_timesteps=2, hidden_dim=16, heads=2,
                    dropout=0.1, inner_rounds=32, eps_fraction=0.4, seed=1)
    _, _, report = run(cfg, g, split)
    stats = action_report(report, g)
    assert stats.stop_at_zero / stats.num_paths > 0.0


# ---------------------------------------------------------------------------
# Planted recovery (base variant; the fast variant is exercised in acceptance)


def test_alg1_concentrates_on_planted_relation():
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant="rl-hgnn", max_timesteps=1, rounds=30, inner_rounds=30,
                      node_batch=36, hidden_dim=32, heads=4, dropout=0.1, seed=0,
                      eps_start=1.0, eps_end=0.05, eps_fraction=0.4, dqn_batch=64)
    params, agent, report = run(cfg, g, split)
    stats = action_report(report, g)
    planted = sum(f for arrow, f in path_table(stats) if arrow.startswith("Movie -M-A->"))
    assert planted >= 0.8
    assert report.meta["best_val_metric"] >= 0.9
    # greedy predictions from the returned artifacts transfer to test nodes
    preds = predict(params, agent, g, cfg, split.test)
    micro, _ = evaluate_f1(preds, g.labels, split.test)
    assert micro >= 0.8


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_predict_rejects_an_agent_that_does_not_fit_the_graph(variant):
    from rlhgnn.agent import DqnAgent

    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(variant=variant, rounds=2, inner_rounds=2)
    params, agent, _ = run(cfg, g, split)
    assert agent.qnet.num_actions == 3  # M-A, M-D, Stop
    wide = DqnAgent.create(agent.qnet.input_dim, 7, buffer_capacity=4)
    with pytest.raises(ValueError, match="agent has 7 actions, but the graph's schema has 3"):
        predict(params, wide, g, cfg, split.test)
    width = agent.qnet.input_dim
    narrow = DqnAgent.create(width + 1, 3, buffer_capacity=4)
    with pytest.raises(ValueError, match=f"state dim {width} != network input {width + 1}"):
        predict(params, narrow, g, cfg, split.test)


def test_predict_rejects_a_model_of_another_schema():
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(rounds=2, inner_rounds=2)
    params, agent, _ = run(cfg, g, split)
    swapped = [("M-D", "Movie", "Director"), ("M-A", "Movie", "Actor")]
    g2, split2 = generate_planted_hin(replace(planted_spec_1hop(), relations=swapped))
    with pytest.raises(ValueError, match="schema is not the graph's"):
        predict(params, agent, g2, cfg, split2.test)


def test_predict_rejects_a_model_of_another_class_count():
    g, split = generate_planted_hin(planted_spec_1hop())
    params, agent, _ = run(small_cfg(rounds=2, inner_rounds=2), g, split)
    assert params.num_classes == 3
    two_class = replace(g, num_classes=2, labels=np.minimum(g.labels, 1))
    with pytest.raises(ValueError, match="the model has 3 classes, but the graph has 2"):
        predict(params, agent, two_class, small_cfg(), split.test)


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_predict_rejects_a_config_deeper_than_the_model(variant, monkeypatch):
    """A config may design paths shorter than the model's T, never longer:
    the extra layers would have no aggregator parameters."""
    g, split = generate_planted_hin(planted_spec_1hop())
    params, agent, _ = run(small_cfg(variant=variant, rounds=2, inner_rounds=2), g, split)
    assert params.T == 2
    shallow = predict(params, agent, g, small_cfg(variant=variant, max_timesteps=1), split.test)
    assert shallow.shape == (90,)
    monkeypatch.setattr(pipeline, "_act", None)  # no meta-path may be designed
    with pytest.raises(ValueError, match="^the config designs meta-paths of up to 3 relations, "
                                         "but the model has T=2 aggregator parameter sets$"):
        predict(params, agent, g, small_cfg(variant=variant, max_timesteps=3), split.test)


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_predict_rejects_an_id_that_is_no_target_type_node(variant):
    """Each id is an H0 row of the target type: -1 would read the row of
    another type's node, and 90, 1.5 or a 2-D array fail in numpy."""
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(variant=variant, rounds=2, inner_rounds=2)
    params, agent, _ = run(cfg, g, split)
    assert g.num_nodes["Movie"] == 90
    for nodes, bad in [([-1], "-1"), ([3, 90, -1], "90"), (np.array([2.0, 1.5]), "2.0")]:
        message = rf"^node id {bad} is not a Movie node: ids must be integers in \[0, 90\)$"
        with pytest.raises(ValueError, match=message):
            predict(params, agent, g, cfg, np.array(nodes))
    for nodes, shape in [([[1, 2]], r"\(1, 2\)"), (5, r"\(\)")]:
        with pytest.raises(ValueError, match=rf"^node ids must be a 1-D array, got shape {shape}$"):
            predict(params, agent, g, cfg, np.array(nodes))
    assert predict(params, agent, g, cfg, np.array([89, 0])).shape == (90,)


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
@pytest.mark.parametrize("key", ["train", "validation"])
def test_an_empty_train_or_validation_key_is_rejected_before_any_round(variant, key,
                                                                        monkeypatch):
    g, split = generate_planted_hin(planted_spec_1hop())
    empty = replace(split, **{key: np.zeros(0, dtype=np.int64)})
    monkeypatch.setattr(pipeline, "_make_agent", None)  # no agent may be built
    with pytest.raises(ValueError, match=f"^split key '{key}' holds no node id$"):
        run(small_cfg(variant=variant, rounds=2, inner_rounds=2), g, empty)


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_fixed_path_naming_no_relation_is_rejected_before_any_round(variant, monkeypatch):
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = small_cfg(variant=variant, rounds=2, inner_rounds=2, fixed_path=("M-A", "A-X"))
    message = r"^fixed_path names no relation: 'A-X' \(relations: 'M-A', 'M-D'\)$"
    params, agent, _ = run(replace(cfg, fixed_path=("M-A",)), g, split)
    with pytest.raises(ValueError, match=message):
        predict(params, agent, g, cfg, split.test)
    monkeypatch.setattr(pipeline, "_act", None)  # no round may start
    with pytest.raises(ValueError, match=message):
        run(cfg, g, split)


# ---------------------------------------------------------------------------
# Benchmarks


def test_bench_aggregation_star_graph_single_episode_no_sharing():
    schema = HinSchema(
        node_types=("Hub", "Leaf"),
        relation_types=(RelationType("out", "Hub", "Leaf"),),
        attribute_dims={"Hub": 2, "Leaf": 2},
    )
    g = build_graph(
        schema, {"Hub": 1, "Leaf": 5},
        {"out": [(0, i) for i in range(5)]},
        {}, "Hub", 2, {0: 0},
    )
    cfg = TrainConfig(node_batch=1, fan_out_cap=None)
    stats = bench_aggregation(g, cfg, [1], episodes_per_t=1, seed=0)
    assert stats[1].reduction_ratio == 0.0
    assert stats[1].step_count_naive == stats[1].step_count_merged == 1


def test_bench_aggregation_names_a_graph_without_target_type_nodes():
    schema = HinSchema(
        node_types=("Hub", "Leaf"),
        relation_types=(RelationType("out", "Hub", "Leaf"),),
        attribute_dims={"Hub": 2, "Leaf": 2},
    )
    g = build_graph(schema, {"Hub": 0, "Leaf": 5}, {"out": []}, {}, "Hub", 2)
    with pytest.raises(ValueError, match="^the graph has no Hub nodes to start episodes at$"):
        bench_aggregation(g, TrainConfig(), [1], episodes_per_t=1)


def runtime_rerun_spread() -> float:
    """Relative spread of two equal-seed averages of the benchmark's design
    time. After one warm-up call the two averages' 4 timed runs each
    alternate, one run of each per seed, the side that goes first
    alternating too, so that a drift in the host's speed falls on both."""
    from rlhgnn.pipeline import bench_runtime

    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant="rl-hgnn", max_timesteps=2, rounds=14, inner_rounds=10,
                      node_batch=24, hidden_dim=16, heads=2, dropout=0.2, seed=0)
    bench_runtime(cfg, g, split, repeats=1)  # warmup
    runs = ([], [])
    for seed in range(4):  # each call runs both variants once untimed, then once timed
        for side in (seed % 2, 1 - seed % 2):
            res = bench_runtime(replace(cfg, seed=seed), g, split, repeats=1)
            runs[side].append(res["mean_rl-hgnn_ms"])
    means = [np.mean(r) for r in runs]
    return float(abs(means[0] - means[1]) / np.mean(means))


def test_bench_runtime_equal_seed_rerun_spread_under_20_percent():
    """The benchmark reports design time averaged over repeated runs;
    rerunning it with equal seeds must reproduce that average within 20%.
    The workload is sized so scheduler noise stays well below the bound, and
    it runs in a new interpreter whose BLAS runs one thread, so that neither
    this session's heap nor a second BLAS thread reaches the timings."""
    spread = float(run_with_one_blas_thread(
        "import test_pipeline as t; print(t.runtime_rerun_spread())"))
    assert spread < 0.2, f"equal-seed benchmark rerun spread {spread:.3f}"


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_only_the_train_forward_records_a_tape(variant, monkeypatch):
    """The eval passes of both loops and predict's greedy designer compute
    values only; the train forward is the one the backward walks."""
    from rlhgnn import model

    seen = []
    real_forward = model.hgnn_forward

    def spy(params, g, dag, mode="eval", *args, **kwargs):
        fwd = real_forward(params, g, dag, mode, *args, **kwargs)
        seen.append((mode, fwd.outputs.parents != ()))
        return fwd

    monkeypatch.setattr(model, "hgnn_forward", spy)
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant=variant, max_timesteps=2, rounds=4, inner_rounds=2,
                      node_batch=16, hidden_dim=8, heads=2)
    params, agent, _ = run(cfg, g, split)
    predict(params, agent, g, cfg, split.test)
    assert {mode for mode, _ in seen} == {"train", "eval"}
    assert all(recorded == (mode == "train") for mode, recorded in seen)


def test_bench_runtime_runs_each_variant_once_untimed_first(monkeypatch):
    from rlhgnn import pipeline

    calls = []
    real_run = pipeline.run

    def counted(cfg, g, split):
        calls.append((cfg.variant, cfg.seed))
        return real_run(cfg, g, split)

    monkeypatch.setattr(pipeline, "run", counted)
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(max_timesteps=1, rounds=2, inner_rounds=2, node_batch=8, hidden_dim=8,
                      heads=2, seed=3)
    res = pipeline.bench_runtime(cfg, g, split, repeats=2)
    seeds = [pipeline._derive_seed(3, i) for i in range(2)]
    assert calls == [(v, s) for v in ("rl-hgnn", "rl-hgnn-pp") for s in [seeds[0]] + seeds]
    assert len(res["rl-hgnn_ms"]) == len(res["rl-hgnn-pp_ms"]) == 2


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_loops_build_each_start_nodes_initial_episode_once_per_run(variant, monkeypatch):
    from rlhgnn import pipeline

    made = []
    real_fresh = pipeline._fresh_episodes

    def counted(g, nodes):
        made.extend(nodes)
        return real_fresh(g, nodes)

    monkeypatch.setattr(pipeline, "_fresh_episodes", counted)
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant=variant, max_timesteps=2, rounds=8, inner_rounds=2,
                      node_batch=16, hidden_dim=8, heads=2)
    _, _, report = run(cfg, g, split)
    drawn = {n for r in report.rounds for n in r.nodes}
    assert len(report.rounds) >= 4 and sorted(made) == sorted(drawn)

    loop = pipeline._Loop(cfg, g, split)
    first = loop.fresh_episodes(g, split.validation)
    again = loop.fresh_episodes(g, split.validation[::-1].copy())
    assert all(a is b for a, b in zip(first, again[::-1]))
    assert [(e.start, e.path, e.node_type, e.reached.tolist()) for e in first] == [
        (e.start, e.path, e.node_type, e.reached.tolist())
        for e in real_fresh(g, split.validation)]


def _counted_expansions(monkeypatch, variant, memo):
    """(report CSV, the (start, relations) key of every expand_frontier call)
    of a small run; memo=False makes every `_act` use a fresh memo."""
    from rlhgnn import pipeline

    keys = []
    real_expand, real_act = pipeline.expand_frontier, pipeline._act

    def counted(g, episode, relation, *args):
        keys.append((episode.start, episode.path + (relation,)))
        return real_expand(g, episode, relation, *args)

    monkeypatch.setattr(pipeline, "expand_frontier", counted)
    if not memo:
        monkeypatch.setattr(pipeline, "_act", lambda *args: real_act(*args[:9]))
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant=variant, max_timesteps=2, rounds=12, inner_rounds=2,
                      node_batch=16, hidden_dim=8, heads=2)
    _, _, report = run(cfg, g, split)
    monkeypatch.undo()
    return report.to_csv(), keys


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_loops_expand_each_start_and_path_once_per_run(variant, monkeypatch):
    want_csv, every = _counted_expansions(monkeypatch, variant, memo=False)
    got_csv, once = _counted_expansions(monkeypatch, variant, memo=True)
    assert got_csv == want_csv
    assert len(once) == len(set(once)) and set(once) == set(every)
    assert len(every) > len(once)  # the run revisits some of its episodes


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_repeated_start_and_path_is_one_episode_object_across_rounds(variant, monkeypatch):
    from rlhgnn import pipeline

    rounds = []
    real_end = pipeline._Loop.end_round

    def kept(self, round, val_metric, ep_nodes, episodes, params):
        rounds.append(list(episodes))
        return real_end(self, round, val_metric, ep_nodes, episodes, params)

    monkeypatch.setattr(pipeline._Loop, "end_round", kept)
    g, split = generate_planted_hin(planted_spec_1hop())
    cfg = TrainConfig(variant=variant, max_timesteps=2, rounds=12, inner_rounds=2,
                      node_batch=16, hidden_dim=8, heads=2)
    run(cfg, g, split)
    seen: dict = {}
    for k, episodes in enumerate(rounds):
        for e in episodes:
            seen.setdefault((e.start, e.path), []).append((k, e))
    repeated = [v for key, v in seen.items() if key[1] and len({k for k, _ in v}) > 1]
    assert repeated
    assert all(e is v[0][1] for v in seen.values() for _, e in v)


def test_bench_aggregation_ratio_grows_with_T_and_matches_enumeration():
    from rlhgnn.aggplan import build_plan, count_steps_by_enumeration, naive_plan
    from rlhgnn.pipeline import random_legal_episodes

    spec = SyntheticSpec(
        node_counts={"Movie": 30, "Actor": 12, "Director": 6},
        relations=[("M-D", "Movie", "Director"), ("D-M", "Director", "Movie"),
                   ("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-D": 3, "D-M": 3, "M-A": 3, "A-M": 3},
        target_type="Movie", planted_path=("M-A",), num_classes=3,
        train_count=12, val_count=9, seed=0,
    )
    g, _ = generate_planted_hin(spec)
    cfg = TrainConfig(node_batch=40, fan_out_cap=None)
    stats = bench_aggregation(g, cfg, [2, 4], seed=5)
    assert stats[4].reduction_ratio > stats[2].reduction_ratio
    # independent recount of one batch
    rng = np.random.default_rng(5)
    starts = np.sort(rng.integers(0, 30, size=40))
    eps = random_legal_episodes(g, starts, 2, seed=7, fan_out_cap=None)
    nv, mg = count_steps_by_enumeration(g, [(e.start, e.path) for e in eps])
    assert naive_plan(g, eps).step_count == nv
    assert build_plan(g, eps).step_count == mg


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
@pytest.mark.parametrize("key", ["train", "validation"])
def test_a_split_holding_an_unlabelled_node_is_rejected_before_any_round(variant, key, monkeypatch):
    """A training node of label -1 would be trained toward the last class
    (onehot[..., -1]) and a validation one scored as an error; both loops
    name the key and the node instead, as they do for an id that is no
    node of the target type."""
    from rlhgnn import pipeline

    g, split = generate_planted_hin(planted_spec_1hop())
    node = int(getattr(split, key)[3])
    g.labels[node] = -1
    monkeypatch.setattr(pipeline, "build_plan", lambda *a: pytest.fail("a round ran"))
    cfg = small_cfg(variant=variant, rounds=2)
    with pytest.raises(ValueError,
                       match=f"^split key '{key}' holds node id {node}, which has no label$"):
        run(cfg, g, split)
    n = len(g.labels)
    for outside in (n, -1):
        ids = np.append(getattr(split, key), outside)
        with pytest.raises(ValueError, match=f"^split key '{key}' holds node id {outside}, "
                                             f"which is no node id in \\[0, {n}\\)$"):
            run(cfg, g, replace(split, **{key: ids}))
    # float ids are no node ids either: the first is named, as numpy would not
    floats = getattr(split, key).astype(np.float64)
    with pytest.raises(ValueError, match=f"^split key '{key}' holds node id {float(floats[0])!r}, "
                                         f"which is no node id in \\[0, {n}\\)$"):
        run(cfg, g, replace(split, **{key: floats}))


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_split_that_holds_an_id_twice_is_rejected_before_any_round(variant, monkeypatch):
    """A training node also in validation would be trained on and scored in
    the reward and the best-round metric; both loops name it, with the
    message split.json gets, as they do an id held twice in one key."""
    from rlhgnn import pipeline

    g, split = generate_planted_hin(planted_spec_1hop())
    node = int(split.train[2])
    monkeypatch.setattr(pipeline, "build_plan", lambda *a: pytest.fail("a round ran"))
    cfg = small_cfg(variant=variant, rounds=2)
    for key in ("validation", "train"):
        twice = replace(split, **{key: np.append(getattr(split, key), node)})
        with pytest.raises(ValueError,
                           match=f"^split key '{key}' repeats node id {node} of key 'train'$"):
            run(cfg, g, twice)


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_the_loops_restrict_each_plan_once_to_the_training_rows(variant, monkeypatch):
    """The base loop restricts its timestep's plan once and trains it B
    times; the fast loop restricts each round's plan once. Every restriction
    keeps exactly the round's training rows, and every train pass reads
    one."""
    from rlhgnn import model, pipeline

    restrictions, train_reads = [], []
    real_restrict, real_forward = pipeline.restrict, model.hgnn_forward

    def counted_restrict(plan, episodes=None):
        part = real_restrict(plan, episodes)
        restrictions.append((plan, np.asarray(episodes).tolist(), part))
        return part

    def spy(params, g, dag, mode="eval", *args, **kwargs):
        if mode == "train":
            train_reads.append(dag)
        return real_forward(params, g, dag, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline, "restrict", counted_restrict)
    monkeypatch.setattr(model, "hgnn_forward", spy)
    g, split = generate_planted_hin(planted_spec_1hop())
    K, T, B = 3, 2, 4
    cfg = small_cfg(variant=variant, rounds=K, max_timesteps=T, inner_rounds=B, node_batch=8)
    run(cfg, g, split)
    plans = K * (T + 1) if variant == "rl-hgnn" else K
    assert len(restrictions) == plans
    assert len(train_reads) == plans * (B if variant == "rl-hgnn" else 1)
    assert train_reads == [part for _, _, part in restrictions
                           for _ in range(B if variant == "rl-hgnn" else 1)]
    for plan, rows, part in restrictions:  # 8 training rows among the validation nodes
        assert part.plan is plan and len(plan.output_rows) == 8 + len(split.validation)
        assert part.episodes.tolist() == sorted(rows) and len(rows) == 8
