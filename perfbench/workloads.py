"""The benchmark's three named workloads.

Each workload is a synthetic planted-path graph spec plus a training config,
as a user would write them for `rlhgnn gen-synth` and `rlhgnn train`. The
workload seed only picks graphs: a run draws a sequence of graph instances
from it, and the config (seed 0, as in the README) and the split seed stay
fixed. Why each workload exists is documented in README.md next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from rlhgnn.pipeline import TrainConfig
from rlhgnn.synth import SyntheticSpec

SPLIT_SEED = 0  # `rlhgnn train --split-seed` default


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    config: TrainConfig
    split_counts: tuple[int, int]  # (train, validation); the rest is the test split
    predict_calls: int  # timed predict() calls per graph instance

    def graph_spec(self, seed: int, instance: int) -> SyntheticSpec:
        """Spec of the run's instance-th graph; the same (seed, instance) gives the same graph."""
        graph_seed = int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])
        return replace(self.spec, seed=graph_seed)


# README quickstart graph: Movie 120, Actor 48, Tag 12, Director 16.
_QUICKSTART_GRAPH = SyntheticSpec(
    node_counts={"Movie": 120, "Actor": 48, "Tag": 12, "Director": 16},
    relations=[("M-A", "Movie", "Actor"), ("A-T", "Actor", "Tag"),
               ("M-D", "Movie", "Director")],
    out_degree={"M-A": 2, "A-T": 2, "M-D": 2},
    target_type="Movie",
    planted_path=("M-A", "A-T"),
    train_count=48,
    val_count=36,
)

# 4,600 nodes with inverse relations, so large batches share many subtrees.
_SCALE_GRAPH = SyntheticSpec(
    node_counts={"Movie": 3000, "Actor": 1200, "Director": 300, "Tag": 100},
    relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie"),
               ("M-D", "Movie", "Director"), ("D-M", "Director", "Movie"),
               ("A-T", "Actor", "Tag")],
    out_degree={"M-A": 4, "A-M": 4, "M-D": 1, "D-M": 6, "A-T": 2},
    target_type="Movie",
    planted_path=("M-A", "A-T"),
    train_count=1200,
    val_count=900,
)

# base-inner and scale-pp set eps_end=1.0: the agent explores for the whole
# run, so each round's paths, and with them its work and memory, are a uniform
# mix. With the default schedule the greedy half of a 12-round run follows
# whatever policy the agent learned on that graph, and per-graph round_ms
# ranged 230-480 ms on base-inner and 205-520 ms on scale-pp, peak RSS
# 405-660 MB on scale-pp. quickstart-pp keeps the README config unchanged:
# over 240 rounds its policy settles, and per-graph round_ms varied ~6%.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # README fast-loop config: small plans, so the per-episode agent step dominates.
        Workload(
            name="quickstart-pp",
            spec=_QUICKSTART_GRAPH,
            config=TrainConfig(variant="rl-hgnn-pp", max_timesteps=2, rounds=240,
                               inner_rounds=64, node_batch=48, hidden_dim=32, heads=4,
                               dropout=0.1),
            split_counts=(48, 36),
            predict_calls=30,
        ),
        # Base loop with B=40: every compiled plan is trained 40 times, so the
        # model and the tape dominate and the merge saves almost nothing.
        Workload(
            name="base-inner",
            spec=_QUICKSTART_GRAPH,
            config=TrainConfig(variant="rl-hgnn", max_timesteps=2, rounds=12,
                               inner_rounds=40, node_batch=48, hidden_dim=32, heads=4,
                               dropout=0.1, eps_end=1.0),
            split_counts=(48, 36),
            predict_calls=30,
        ),
        # Fast-loop defaults on the scale graph: large batches share a lot.
        Workload(
            name="scale-pp",
            spec=_SCALE_GRAPH,
            config=TrainConfig(variant="rl-hgnn-pp", max_timesteps=3, rounds=12, eps_end=1.0),
            split_counts=(1200, 900),
            predict_calls=1,
        ),
    )
}
