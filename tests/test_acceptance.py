"""Acceptance criteria. Each test prints one PASS line when its criterion
holds at the stated tolerance; any failure is a real failure of the build."""
import time

import numpy as np
import pytest

from helpers import (
    Transition,
    attention_coefficients,
    const,
    fifo_rows,
    finite_diff_check,
    imdb_like_graph,
    random_hin,
    stack_transitions,
)
from rlhgnn.aggplan import (
    Episode,
    build_plan,
    count_steps_by_enumeration,
    naive_plan,
)
from rlhgnn.agent import (
    DqnAgent,
    ReplayBuffer,
    RewardHistory,
    compute_reward,
    select_action,
    sync_target,
)
from rlhgnn.metapath import Frontier, MetaPath
from rlhgnn.model import (
    classify,
    cross_entropy,
    hgnn_forward,
    init_params,
)
from rlhgnn.pipeline import (
    TrainConfig,
    action_report,
    bench_aggregation,
    bench_runtime,
    random_legal_episodes,
    run_rl_hgnn,
    run_rl_hgnn_pp,
)
from rlhgnn.synth import SyntheticSpec, generate_planted_hin


def _ok(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {msg}")


def test_criterion_1_plan_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        g = random_hin(seed, max_nodes=50)
        n = min(4, g.num_nodes[g.target_type])
        T = 1 + seed % 4
        eps = random_legal_episodes(g, np.arange(n), length=T, seed=seed, fan_out_cap=None)
        params = init_params(g.schema, g.num_classes, T, d=16, heads=4, seed=seed)
        out_m = hgnn_forward(params, g, build_plan(g, eps)).outputs.value
        out_n = hgnn_forward(params, g, naive_plan(g, eps)).outputs.value
        rel = np.abs(out_m - out_n) / np.maximum(np.abs(out_n), 1e-12)
        if rel.size:
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8, f"worst relative error {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(1, f"merged == naive forward on 200 random graphs "
           f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def dense_imdb_shaped():
    spec = SyntheticSpec(
        node_counts={"Movie": 40, "Actor": 16, "Director": 8},
        relations=[("M-D", "Movie", "Director"), ("D-M", "Director", "Movie"),
                   ("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie")],
        out_degree={"M-D": 3, "D-M": 3, "M-A": 3, "A-M": 3},
        target_type="Movie", planted_path=("M-A",), num_classes=3,
        train_count=16, val_count=12, seed=0,
    )
    g, split = generate_planted_hin(spec)
    return g, split


def test_criterion_2_redundancy_reduction():
    g, _ = dense_imdb_shaped()
    cfg = TrainConfig(node_batch=60, fan_out_cap=None)
    stats = bench_aggregation(g, cfg, [1, 2, 3, 4], seed=5)
    # regenerate the same episode batches (same draw order as the bench) and
    # recount every step by exhaustive meta-path-instance enumeration
    rng = np.random.default_rng(5)
    ratios = []
    for T in (1, 2, 3, 4):
        starts = np.sort(rng.integers(0, g.num_nodes["Movie"], size=60))
        eps = random_legal_episodes(
            g, starts, T,
            seed=int(np.random.SeedSequence([5, T]).generate_state(1)[0]),
            fan_out_cap=None,
        )
        nv, mg = count_steps_by_enumeration(g, [(e.start, e.path) for e in eps])
        s = stats[T]
        assert s.step_count_merged < s.step_count_naive, f"no reduction at T={T}"
        assert s.step_count_naive == nv, f"T={T}: naive {s.step_count_naive} != {nv}"
        assert s.step_count_merged == mg, f"T={T}: merged {s.step_count_merged} != {mg}"
        ratios.append(s.reduction_ratio)
    assert all(ratios[i] <= ratios[i + 1] + 1e-12 for i in range(3)), ratios
    _ok(2, "merged < naive for T=1..4, ratio non-decreasing "
           f"({', '.join(f'{r:.3f}' for r in ratios)}), counts match enumeration")


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    g = imdb_like_graph(n_m=6, n_d=3, n_a=5, seed=8)  # 14 nodes
    episodes = []
    for i, rels in [(0, ("M-A", "A-M")), (1, ("M-D", "D-M")), (2, ("M-A",)), (3, ())]:
        path = MetaPath("Movie", rels)
        f = Frontier.initial(("Movie", i))
        from rlhgnn.metapath import expand_frontier

        for rel in rels:
            f = expand_frontier(g, f, rel)
        episodes.append(Episode(("Movie", i), path, f))
    params = init_params(g.schema, g.num_classes, 2, d=8, heads=2, seed=13)
    plan = build_plan(g, episodes)
    rows = np.arange(len(episodes))
    ep_nodes = np.array([0, 1, 2, 3])

    def loss_fn():
        fwd = hgnn_forward(params, g, plan, mode="eval")
        return cross_entropy(classify(params, fwd.outputs), g.labels[ep_nodes], rows)

    err = finite_diff_check(params.all_vars(), loss_fn, eps=1e-5, num_coords=200, seed=0)
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"gradient error {err}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(3, f"max relative gradient error {err:.2e} on 200 coordinates ({elapsed:.1f}s)")


def test_criterion_4_parameter_sharing():
    g = imdb_like_graph()
    params = init_params(g.schema, g.num_classes, max_timesteps=4, d=128, heads=8)
    u = params.single_layer_param_count()
    total = params.aggregator_param_count()
    assert total == 4 * u
    assert total != 10 * u
    _ok(4, f"T=4 aggregator parameters = 4u = {total} (u={u}), not 10u")


def test_criterion_5_dqn_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    dim, n_actions, special = 6, 5, 2
    agent = DqnAgent.create(dim, n_actions, buffer_capacity=500, gamma=0.9,
                            sync_every=20, seed=0)
    mask = np.ones(n_actions, dtype=bool)
    for ep in range(500):
        s = rng.normal(size=dim)
        eps = max(0.05, 1.0 - ep / 250)
        a = select_action(agent.qnet.values(s[None]), mask[None], eps, rng)[0]
        r = 1.0 if a == special else 0.0
        agent.buffer.push_batch(stack_transitions([Transition(s=s, a=a, s_next=s, r=r,
                                                              terminal=True, next_mask=mask)]))
        agent.maybe_update(32, rng)
    probes = rng.normal(size=(1000, dim))
    greedy = np.argmax(agent.qnet.values(probes), axis=1)
    acc = float(np.mean(greedy == special))
    elapsed = time.perf_counter() - t0
    assert acc >= 0.95, f"greedy accuracy {acc}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(5, f"greedy policy picks the rewarded relation on {100 * acc:.1f}% "
           f"of 1000 probe states ({elapsed:.1f}s)")


def _planted_2hop_spec(seed):
    return SyntheticSpec(
        node_counts={"Movie": 120, "Actor": 48, "Tag": 12, "Director": 16},
        relations=[("M-A", "Movie", "Actor"), ("A-T", "Actor", "Tag"),
                   ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "A-T": 2, "M-D": 2},
        target_type="Movie",
        planted_path=("M-A", "A-T"),
        signal_strength=1.0,
        num_classes=3,
        train_count=48, val_count=36,
        seed=seed,
    )


def test_criterion_6_planted_path_recovery():
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        g, split = generate_planted_hin(_planted_2hop_spec(seed))
        cfg = TrainConfig(variant="rl-hgnn-pp", max_timesteps=2, rounds=240,
                          inner_rounds=64, node_batch=48, hidden_dim=32, heads=4,
                          dropout=0.1, seed=seed, eps_start=1.0, eps_end=0.05,
                          eps_fraction=0.4, dqn_batch=64, target_sync_every=20)
        _, _, report = run_rl_hgnn_pp(cfg, g, split)
        best = report.meta["best_val_metric"]
        assert best >= 0.90, f"seed {seed}: best val micro-F1 {best}"

        ablation = TrainConfig(variant="rl-hgnn-pp", max_timesteps=2, rounds=240,
                               inner_rounds=64, node_batch=48, hidden_dim=32, heads=4,
                               dropout=0.1, seed=seed, fixed_path=("M-D",))
        _, _, rep_wrong = run_rl_hgnn_pp(ablation, g, split)
        gap = best - rep_wrong.meta["best_val_metric"]
        assert gap >= 0.10, f"seed {seed}: gap over wrong-path ablation {gap}"

        stats = action_report(report, g)
        planted = sum(f for arrow, f in stats.path_table
                      if arrow == "Movie -M-A-> Actor -A-T-> Tag")
        assert planted >= 0.50, f"seed {seed}: planted-path mass {planted}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _ok(6, f"3/3 seeds: val micro-F1 >= 0.90, ablation gap >= 10 points, "
           f">= 50% mass on the planted path ({elapsed:.1f}s)")


def test_criterion_7_runtime_ordering():
    spec = SyntheticSpec(
        node_counts={"Movie": 60, "Actor": 24, "Director": 10},
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie"),
                   ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "A-M": 2, "M-D": 2},
        target_type="Movie", planted_path=("M-A",), num_classes=3,
        train_count=24, val_count=18, seed=0,
    )
    g, split = generate_planted_hin(spec)
    ratios = {}
    for B in (10, 20):
        cfg = TrainConfig(max_timesteps=2, rounds=6, inner_rounds=B, node_batch=24,
                          hidden_dim=16, heads=2, dropout=0.2, seed=0)
        res = bench_runtime(cfg, g, split, repeats=3)
        ratios[B] = res["ratio"]
    assert ratios[10] < 0.5, f"design-time ratio at B=10 is {ratios[10]:.3f}"
    assert ratios[20] < ratios[10], f"ratio did not shrink: {ratios}"
    _ok(7, f"design-time ratio {ratios[10]:.3f} at B=10, {ratios[20]:.3f} at B=20")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_8_unit_invariants(seed):
    rng = np.random.default_rng(seed)
    # replay FIFO / capacity
    buf = ReplayBuffer(capacity=4)
    for i in range(7):
        buf.push_batch(stack_transitions([Transition(np.array([float(i)]), 0, np.array([0.0]),
                                                     0.0, True, np.array([True]))]))
    assert len(buf) == 4
    assert [t.s[0] for t in fifo_rows(buf)] == [3.0, 4.0, 5.0, 6.0]
    # target-sync equality
    agent = DqnAgent.create(5, 4, buffer_capacity=8, seed=seed)
    for v in agent.qnet.vars():
        v.value = v.value + rng.normal(size=v.value.shape)
    sync_target(agent.qnet, agent.target_net)
    s = rng.normal(size=(6, 5))
    np.testing.assert_array_equal(agent.qnet.values(s), agent.target_net.values(s))
    # action-mask safety at every exploration rate
    mask = np.array([False, True, False, True])
    for eps in (0.0, 0.5, 1.0):
        for _ in range(100):
            assert mask[select_action(rng.normal(size=(1, 4)), mask[None], eps, rng)].all()
    # attention weights sum to one
    g = imdb_like_graph(seed=seed)
    params = init_params(g.schema, g.num_classes, 2, d=8, heads=2, seed=seed)
    srcs = rng.normal(size=(5, 8))
    w = attention_coefficients(params, 1, 0, srcs, rng.normal(size=8))
    assert abs(w.sum() - 1.0) < 1e-9
    # classifier softmax rows sum to one
    probs = classify(params, const(rng.normal(size=(7, 8))))
    np.testing.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-9)
    # cross-entropy closed forms
    onehot = np.eye(3)[[0, 1, 2]]
    assert abs(float(cross_entropy(const(onehot), np.array([0, 1, 2]),
                                   np.arange(3)).value)) < 1e-9
    uni = np.full((4, 3), 1 / 3)
    np.testing.assert_allclose(
        float(cross_entropy(const(uni), np.zeros(4, dtype=int), np.arange(4)).value),
        4 * np.log(3), atol=1e-12)
    # reward window arithmetic
    h = RewardHistory(window=3)
    for v in (0.5, 0.5, 0.5):
        h.record(v)
    assert abs(compute_reward(h, 0.6) - 0.1) < 1e-12
    # stop-at-0 output equals the projected attributes
    ep = Episode(("Movie", 2), MetaPath("Movie"), Frontier.initial(("Movie", 2)))
    fwd = hgnn_forward(params, g, build_plan(g, [ep]))
    expected = g.attributes["Movie"][2] @ params.table["proj:Movie"].value
    np.testing.assert_allclose(fwd.outputs.value[0], expected, atol=1e-12)
    if seed == 2:
        _ok(8, "unit invariant suite green under 3 seeds")


def test_criterion_9_determinism():
    spec = SyntheticSpec(
        node_counts={"Movie": 60, "Actor": 20, "Director": 8},
        relations=[("M-A", "Movie", "Actor"), ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "M-D": 2},
        target_type="Movie", planted_path=("M-A",), num_classes=3,
        train_count=24, val_count=18, seed=0,
    )
    g, split = generate_planted_hin(spec)
    for variant, runner, T in (("rl-hgnn", run_rl_hgnn, 1), ("rl-hgnn-pp", run_rl_hgnn_pp, 2)):
        reports = []
        for _ in range(2):
            cfg = TrainConfig(variant=variant, max_timesteps=T, rounds=4,
                              inner_rounds=4, node_batch=24, hidden_dim=16, heads=2,
                              dropout=0.3, seed=7)
            _, _, report = runner(cfg, g, split)
            reports.append(report.to_csv().encode("utf-8"))
        assert reports[0] == reports[1], f"{variant} reports differ"
    _ok(9, "identical config and seeds give byte-identical report CSVs, both variants")
