"""Pinned artifact bytes: a fixed graph and config must keep training to the
same report.csv, model.bin, Q-network weights and predictions.

The digest was taken on the numpy version named next to it. Float64 sums
may round differently under another numpy, so there the test skips.
"""
import hashlib

import numpy as np
import pytest

from rlhgnn.model import save_params
from rlhgnn.pipeline import TrainConfig, predict, run
from rlhgnn.synth import SyntheticSpec, generate_planted_hin

GOLDEN_NUMPY = "2.4.6"
GOLDEN_SHA256 = {
    "rl-hgnn": "8b3195b601671f526d2e13baf7a048e679f48cb19377eedc074fee8bca88a8be",
    "rl-hgnn-pp": "85b6b03d8908e7f7ed0c6a14821b28534a3996e45450e080a24e28eb6b9e5b45",
}


def _graph():
    return generate_planted_hin(SyntheticSpec(
        node_counts={"Movie": 90, "Actor": 24, "Director": 12},
        relations=[("M-A", "Movie", "Actor"), ("M-D", "Movie", "Director")],
        out_degree={"M-A": 3, "M-D": 2},
        target_type="Movie", planted_path=("M-A",), signal_strength=1.0,
        num_classes=3, train_count=36, val_count=27, seed=5,
    ))


def artifact_digest(variant: str, tmp_path) -> str:
    g, split = _graph()
    cfg = TrainConfig(variant=variant, max_timesteps=1 if variant == "rl-hgnn" else 2,
                      rounds=6, inner_rounds=6, node_batch=24, hidden_dim=16, heads=2,
                      dropout=0.2, seed=11)
    params, agent, report = run(cfg, g, split)
    save_params(params, tmp_path / "model.bin")
    h = hashlib.sha256()
    h.update(report.to_csv(include_wall=False).encode("utf-8"))
    h.update((tmp_path / "model.bin").read_bytes())
    for v in agent.qnet.vars():
        h.update(v.value.tobytes())
    h.update(np.asarray(predict(params, agent, g, cfg, split.test)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_artifacts_match_the_golden_digest(variant, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digest taken on numpy {GOLDEN_NUMPY}, running numpy {np.__version__}")
    assert artifact_digest(variant, tmp_path) == GOLDEN_SHA256[variant]
