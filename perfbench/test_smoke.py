"""Smoke check of the benchmark harness: a few-round version of every
workload through the command's entry point, untraced and traced, plus the
tracer's bookkeeping and the refusal to run without the program's source.

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins threads and puts src/ on sys.path)
from tracing import Target, Tracer  # noqa: E402


def _few_rounds(w):
    cfg = w.config
    if cfg.variant == "rl-hgnn":
        cfg = replace(cfg, rounds=1, inner_rounds=2)
    else:
        cfg = replace(cfg, rounds=cfg.max_timesteps)
    return replace(w, config=cfg, predict_calls=2)


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        assert json.load(f) == run.benchmark_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_checks_and_reports_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, _few_rounds(run.WORKLOADS[name]))
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.benchmark_spec()["end_to_end" if trace == 0 else "per_layer"]
    assert [m for m in result["metrics"]] == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:  # every span the workload exercises was recorded
        assert all(v["value"] > 0 for v in result["metrics"].values() if v["unit"] == "ms")


def test_self_time_excludes_children_and_missing_functions_are_absent():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(10000))
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = Tracer((Target(mod, "outer", "outer"), Target(mod, "inner", "inner"),
                     Target(mod, "gone", "gone"), Target(mod, "Missing.method", "missing")))
    with tracer.installed():
        mod.outer()
    stats = tracer.summarize()
    assert tracer.absent == ["gone", "missing"]
    assert stats["outer"].calls == 1 and stats["inner"].calls == 2
    assert stats["outer"].self_ns == stats["outer"].total_ns - stats["inner"].total_ns
    assert mod.outer.__name__ == "<lambda>"  # originals are put back


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quickstart-pp",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
