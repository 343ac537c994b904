"""perfbench/tracing.py wraps program functions by name; a rename or a
signature change here would crash `perfbench/run.py --trace 1` or silently
zero its counts. The tracer is loaded from its file and not modified."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import imdb_like_graph
from rlhgnn import pipeline
from rlhgnn.aggplan import AggregationDag, Episode
from rlhgnn.metapath import Frontier, MetaPath, expand_frontier
from rlhgnn.pipeline import TrainConfig
from rlhgnn.synth import SyntheticSpec, generate_planted_hin


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_captures_frontiers_and_plans():
    tracer = _load_tracing().Tracer()
    assert tracer.absent == []
    g = imdb_like_graph()
    with tracer.installed():
        f = pipeline.expand_frontier(g, Frontier.initial(("Movie", 0)), "M-A")
        pipeline.build_plan(g, [Episode(("Movie", 0), MetaPath("Movie", ("M-A",)), f)])
    assert pipeline.expand_frontier is expand_frontier  # the original is back
    frontiers = tracer.captured["metapath.expand_frontier"]
    plans = tracer.captured["aggplan.build_plan"]
    assert len(frontiers) == 1 and isinstance(frontiers[0], Frontier)
    assert len(plans) == 1 and isinstance(plans[0][1], AggregationDag)
    np.testing.assert_array_equal(frontiers[0].reached, f.reached)


def test_traced_run_and_predict_record_every_agent_step_span():
    tracer = _load_tracing().Tracer()
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, relations=[("M-A", "Movie", "Actor")],
        out_degree={"M-A": 2}, target_type="Movie", planted_path=("M-A",),
        train_count=16, val_count=12))
    cfg = TrainConfig(rounds=3, inner_rounds=2, node_batch=16, hidden_dim=8, heads=2)
    with tracer.installed():
        params, agent, _ = pipeline.run(cfg, g, split)
    summary = tracer.summarize()
    assert summary["pipeline.run"].calls == 1
    assert summary["aggplan.build_plan"].calls == 3
    assert all(isinstance(plan, AggregationDag) for _, plan in tracer.captured["aggplan.build_plan"])
    # the agent step's spans and captured frontiers feed the benchmark's
    # per-layer metrics; a step that bypasses them would read 0 there
    for span in ("agent.select_action", "metapath.valid_actions", "metapath.expand_frontier"):
        assert summary[span].calls > 0, span
    frontiers = tracer.captured["metapath.expand_frontier"]
    assert len(frontiers) == summary["metapath.expand_frontier"].calls
    assert all(isinstance(f, Frontier) for f in frontiers)

    tracer = _load_tracing().Tracer()
    with tracer.installed():
        pipeline.predict(params, agent, g, cfg, split.test)
    summary = tracer.summarize()
    # a greedy policy may stop every node before expanding any frontier
    for span in ("agent.select_action", "metapath.valid_actions"):
        assert summary[span].calls > 0, span


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_every_captured_plan_matches_the_episodes_it_was_built_from(variant):
    """perfbench recounts the naive steps and runs the exactness oracles on
    build_plan's captured argument after run() returns. The episodes in it
    must still be the ones the plan was built from, so the loops and the
    greedy designer hand build_plan a list that no later step changes."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-A": 2, "A-M": 2}, planted_path=("M-A",),
        train_count=16, val_count=12))
    cfg = TrainConfig(variant=variant, rounds=3, inner_rounds=2, node_batch=16, hidden_dim=8,
                      heads=2)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        params, agent, _ = pipeline.run(cfg, g, split)
        pipeline.predict(params, agent, g, cfg, split.test)
    captured = tracer.captured["aggplan.build_plan"]
    assert len(captured) > (9 if variant == "rl-hgnn" else 3)  # run()'s plans, then predict()'s
    assert any(len(e.path) == 2 for episodes, _ in captured for e in episodes)
    for episodes, plan in captured:
        assert plan.episodes_sig == [(e.start, e.path.relations) for e in episodes]


def test_fast_loop_walks_the_train_tape_before_the_eval_pass_and_steps_last():
    """Each rl-hgnn-pp round frees its train tape before the eval forward
    runs, and the optimizer step comes after that forward, so the eval pass
    sees the parameters from before the step."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-A": 2, "A-M": 2}, planted_path=("M-A",),
        train_count=16, val_count=12))
    rounds = 5
    cfg = TrainConfig(rounds=rounds, max_timesteps=2, node_batch=16, hidden_dim=8, heads=2)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        pipeline.run(cfg, g, split)
    order = ("model.hgnn_forward.train", "model.backward", "model.hgnn_forward.eval",
             "model.optimizer_step")
    assert [n for n in tracer.names if n in order] == list(order) * rounds


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_traced_run_records_the_projection_both_backwards_and_one_q_pass_per_act(variant):
    """perfbench reads model.project_attributes, autodiff.backward.hgnn
    (under model.backward) and autodiff.backward.dqn (under agent.dqn_step)
    from a traced run(), and agent.QNetwork.values as the agent step's
    forward: one call per action selection, none for a DQN update."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-A": 2, "A-M": 2}, planted_path=("M-A",),
        train_count=16, val_count=12))
    cfg = TrainConfig(variant=variant, rounds=6, inner_rounds=2, node_batch=16, hidden_dim=8,
                      heads=2, dqn_batch=4)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        pipeline.run(cfg, g, split)
    summary = tracer.summarize()
    for span in ("model.project_attributes", "autodiff.backward.hgnn",
                 "autodiff.backward.dqn", "agent.dqn_step"):
        assert summary[span].calls > 0, span
    assert "autodiff.backward.other" not in summary
    assert summary["autodiff.backward.dqn"].calls == summary["agent.dqn_step"].calls
    assert summary["agent.QNetwork.values"].calls == summary["agent.select_action"].calls


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_predict_forwards_each_plan_it_builds_once(variant):
    """In rl-hgnn-pp, predict's greedy steps each build a plan and run one
    eval pass over it: the pass gives the next step's states and, at the last
    step, the predictions, so the final plan is not forwarded twice. rl-hgnn
    designs on static states and then builds and forwards one plan."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-A": 2, "A-M": 2}, planted_path=("M-A",),
        train_count=16, val_count=12))
    cfg = TrainConfig(variant=variant, rounds=3, inner_rounds=2, node_batch=16, hidden_dim=8,
                      heads=2)
    params, agent, _ = pipeline.run(cfg, g, split)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        pipeline.predict(params, agent, g, cfg, split.test)
    summary = tracer.summarize()
    plans = summary["aggplan.build_plan"].calls
    assert summary["model.hgnn_forward.eval"].calls == plans
    assert plans == (1 if variant == "rl-hgnn" else summary["agent.select_action"].calls)
    with pytest.raises(ValueError, match="^plan has no episodes$"):
        pipeline.predict(params, agent, g, cfg, np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_a_traced_run_counts_one_plan_one_projection_per_pass_and_b_train_passes_per_plan(variant):
    """perfbench's aggplan.build_plan, model.hgnn_forward.train and
    model.project_attributes counts: restricting a plan to the loss's rows
    builds no plan, runs no extra pass and projects H0 once per pass."""
    g, split = generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 12}, target_type="Movie",
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-A": 2, "A-M": 2}, planted_path=("M-A",),
        train_count=16, val_count=12))
    K, T, B = 5, 2, 3
    cfg = TrainConfig(variant=variant, rounds=K, max_timesteps=T, inner_rounds=B, node_batch=8,
                      hidden_dim=8, heads=2)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        pipeline.run(cfg, g, split)
    summary = tracer.summarize()
    plans = K * (T + 1) if variant == "rl-hgnn" else K
    train = plans * B if variant == "rl-hgnn" else plans
    cycles = 0 if variant == "rl-hgnn" else -(-K // T)  # the fast loop projects each new batch
    assert summary["aggplan.build_plan"].calls == plans
    assert summary["model.hgnn_forward.train"].calls == train
    assert summary["model.hgnn_forward.eval"].calls == plans
    assert summary["model.project_attributes"].calls == train + plans + cycles
