"""End-to-end CLI runs in a temp dir: gen-synth, train, eval, reports, benches."""
import json
import re

import pytest

from rlhgnn.cli import main


@pytest.fixture()
def synth_graph(tmp_path):
    spec = {
        "node_counts": {"Movie": 60, "Actor": 20, "Director": 8},
        "relations": [["M-A", "Movie", "Actor"], ["M-D", "Movie", "Director"]],
        "out_degree": {"M-A": 2, "M-D": 2},
        "target_type": "Movie",
        "planted_path": ["M-A"],
        "signal_strength": 1.0,
        "num_classes": 3,
        "train_count": 24,
        "val_count": 18,
        "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    graph_path = tmp_path / "graph.json"
    assert main(["gen-synth", "--spec", str(spec_path), "--out", str(graph_path)]) == 0
    assert graph_path.exists()
    assert (tmp_path / "graph.json.split.json").exists()
    return graph_path


def write_config(tmp_path, **overrides):
    cfg = {
        "variant": "rl-hgnn-pp",
        "max_timesteps": 2,
        "rounds": 6,
        "inner_rounds": 6,
        "node_batch": 24,
        "hidden_dim": 16,
        "heads": 2,
        "dropout": 0.2,
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_eval_report_cycle(tmp_path, synth_graph, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(synth_graph), "--config", str(cfg_path),
               "--out", str(out), "--train-count", "24", "--val-count", "18"])
    assert rc == 0
    for name in ("model.bin", "agent.bin", "split.json", "config.json",
                 "report.csv", "metrics.csv", "report.json", "actions.txt"):
        assert (out / name).exists(), name
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header.startswith("step,round,timestep,action_0_ratio")
    assert "wall_ms" not in header
    assert "wall_ms" in (out / "metrics.csv").read_text().splitlines()[0]

    rc = main(["eval", "--checkpoint", str(out), "--graph", str(synth_graph)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "micro-F1" in printed

    rc = main(["report-paths", "--run", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "meta-path table" in printed
    assert "best round" in printed


@pytest.mark.parametrize("flag,name", [("--train-count", "train"), ("--val-count", "validation")])
def test_train_rejects_a_zero_split_count(tmp_path, synth_graph, flag, name):
    """A count of 0 is rejected, not replaced by the 40% / 30% default."""
    counts = {"--train-count": "24", "--val-count": "18", flag: "0"}
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"^{name} count must be >= 1, got 0$"):
        main(["train", "--graph", str(synth_graph), "--config", str(write_config(tmp_path)),
              "--out", str(out), *[x for kv in counts.items() for x in kv]])
    assert not (out / "split.json").exists()


def test_eval_rejects_a_graph_of_another_schema(tmp_path, synth_graph):
    out = tmp_path / "run"
    assert main(["train", "--graph", str(synth_graph), "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--train-count", "24", "--val-count", "18"]) == 0
    doc = json.loads(synth_graph.read_text())
    doc["schema"]["relation_types"] = doc["schema"]["relation_types"][::-1]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema is not the graph's"):
        main(["eval", "--checkpoint", str(out), "--graph", str(other)])


def test_eval_rejects_a_bad_split_naming_the_file_and_the_key(tmp_path, synth_graph):
    """A key that is missing, a list holding an id that is not an integer
    node id of the target type, or an id held twice, in one key or in two,
    is named before any node is predicted."""
    out = tmp_path / "run"
    assert main(["train", "--graph", str(synth_graph), "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--train-count", "24", "--val-count", "18"]) == 0
    split_path = out / "split.json"
    good = json.loads(split_path.read_text())
    n = 60  # Movie nodes in synth_graph
    bad = {
        "lacks key 'test'": {k: v for k, v in good.items() if k != "test"},
        "lacks key 'validation'": {k: v for k, v in good.items() if k != "validation"},
        "key 'test' must be a list of integer node ids in \\[0, 60\\), got 999":
            {**good, "test": good["test"] + [999]},
        "key 'validation' must be .* got -1": {**good, "validation": [-1]},
        "key 'test' must be .* got 1.5": {**good, "test": [1.5]},
        "key 'train' must be .* got True": {**good, "train": [True]},
        "key 'train' must be .* got '3'": {**good, "train": ["3"]},
        "key 'test' must be .* got 3": {**good, "test": 3},
        "key 'test' must be .* got 60": {**good, "test": [n]},
        "lacks key 'train'": [good["train"]],
        "key 'test' repeats node id 0 of key 'train'":
            {"train": [0, 1], "validation": [2], "test": [0, 0, 1]},
        "key 'test' repeats node id 5 of key 'test'": {**good, "test": [5, 5]},
        f"key 'validation' repeats node id {good['train'][0]} of key 'train'":
            {**good, "validation": good["validation"] + good["train"][:1]},
    }
    for message, doc in bad.items():
        split_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(split_path))}: .*{message}"):
            main(["eval", "--checkpoint", str(out), "--graph", str(synth_graph)])
    split_path.write_text(json.dumps({**good, "test": []}))  # empty: all labelled nodes
    assert main(["eval", "--checkpoint", str(out), "--graph", str(synth_graph)]) == 0


def test_gen_synth_names_an_unknown_planted_relation(tmp_path):
    spec = {"node_counts": {"Movie": 6, "Actor": 3}, "relations": [["M-A", "Movie", "Actor"]],
            "out_degree": {"M-A": 1}, "target_type": "Movie", "planted_path": ["M-X"]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=r"^planted_path names no relation: 'M-X' \(relations: 'M-A'\)$"):
        main(["gen-synth", "--spec", str(spec_path), "--out", str(tmp_path / "g.json")])


def test_train_twice_identical_report_bytes(tmp_path, synth_graph):
    cfg_path = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["train", "--graph", str(synth_graph), "--config", str(cfg_path),
              "--out", str(out), "--train-count", "24", "--val-count", "18"])
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_variant_flag_overrides_config(tmp_path, synth_graph, capsys):
    cfg_path = write_config(tmp_path, rounds=2, max_timesteps=1, inner_rounds=2)
    out = tmp_path / "base"
    rc = main(["train", "--graph", str(synth_graph), "--config", str(cfg_path),
               "--variant", "rl-hgnn", "--out", str(out),
               "--train-count", "24", "--val-count", "18"])
    assert rc == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["variant"] == "rl-hgnn"


@pytest.mark.parametrize("variant", [[], ["--variant", "rl-hgnn"]], ids=["config", "override"])
@pytest.mark.parametrize("text,kind", [("[1]", "list"), ("null", "NoneType"), ('"abc"', "str")])
def test_train_rejects_a_config_that_is_not_a_json_object(tmp_path, text, kind, variant):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"^TrainConfig must be a JSON object, got {kind}$"):
        main(["train", "--graph", str(tmp_path / "never-read.json"), "--config", str(cfg_path),
              *variant, "--out", str(out)])
    assert not out.exists()


def test_bench_agg_cli(tmp_path, synth_graph, capsys):
    export = tmp_path / "plans.json"
    rc = main(["bench-agg", "--graph", str(synth_graph), "--timesteps", "1,2",
               "--episodes", "30", "--uncapped", "--export", str(export)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "naive" in printed and "merged" in printed
    doc = json.loads(export.read_text())
    assert set(doc["per_timestep"]) == {"1", "2"}
    one = doc["per_timestep"]["1"]
    assert one["stats"]["naive"] >= one["stats"]["merged"]
    assert one["merged_plan"]["kind"] == "merged"


def test_bench_agg_cli_matches_library_seeding(tmp_path, synth_graph, capsys):
    from rlhgnn.hin import load_hin
    from rlhgnn.pipeline import TrainConfig, bench_aggregation

    export = tmp_path / "plans.json"
    assert main(["bench-agg", "--graph", str(synth_graph), "--timesteps", "2,1,3",
                 "--episodes", "25", "--seed", "5", "--uncapped",
                 "--export", str(export)]) == 0
    doc = json.loads(export.read_text())["per_timestep"]
    lib = bench_aggregation(load_hin(synth_graph), TrainConfig(fan_out_cap=None), [2, 1, 3],
                            episodes_per_t=25, seed=5)
    assert list(doc) == ["2", "1", "3"]
    for T, stats in lib.items():
        assert doc[str(T)]["stats"] == stats.to_json()
        assert doc[str(T)]["merged_plan"] == stats.merged.to_json()
        assert doc[str(T)]["naive_plan"] == stats.naive.to_json()


@pytest.mark.parametrize("args,message", [
    (["--episodes", "0"], "episode count must be >= 1, got 0"),
    (["--timesteps", "1,x"], "--timesteps must be comma-separated integers, got '1,x'"),
    (["--timesteps", "2,0"], "timesteps must be >= 1, got 0"),
], ids=["zero-episodes", "word-timestep", "zero-timestep"])
def test_bench_agg_rejects_a_bad_count_by_name(synth_graph, args, message):
    """--episodes 0 is rejected, not replaced by the node_batch default."""
    with pytest.raises(ValueError) as err:
        main(["bench-agg", "--graph", str(synth_graph), *args])
    assert str(err.value) == message


def test_bench_runtime_rejects_zero_repeats(tmp_path):
    cfg_path = write_config(tmp_path, rounds=2, max_timesteps=1, inner_rounds=3,
                            node_batch=12, hidden_dim=8)
    with pytest.raises(ValueError, match="^repeats must be >= 1, got 0$"):
        main(["bench-runtime", "--config", str(cfg_path), "--repeats", "0"])


def test_bench_runtime_cli(tmp_path, synth_graph, capsys):
    cfg_path = write_config(tmp_path, rounds=2, max_timesteps=1, inner_rounds=3,
                            node_batch=12, hidden_dim=8)
    rc = main(["bench-runtime", "--graph", str(synth_graph), "--config", str(cfg_path),
               "--repeats", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ratio" in printed


def test_bench_runtime_cli_without_graph(tmp_path, capsys):
    cfg_path = write_config(tmp_path, rounds=2, max_timesteps=1, inner_rounds=3,
                            node_batch=12, hidden_dim=8)
    rc = main(["bench-runtime", "--config", str(cfg_path), "--repeats", "1"])
    assert rc == 0
    assert "ratio" in capsys.readouterr().out


def train_run(tmp_path, synth_graph, name="run", **overrides):
    out = tmp_path / name
    rc = main(["train", "--graph", str(synth_graph), "--config",
               str(write_config(tmp_path, **overrides)), "--out", str(out),
               "--train-count", "24", "--val-count", "18"])
    assert rc == 0
    return out


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_report_paths_prints_actions_txt(tmp_path, synth_graph, capsys, variant):
    out = train_run(tmp_path, synth_graph, variant=variant)
    best = json.loads((out / "report.json").read_text())["meta"]["best_val_metric"]
    capsys.readouterr()
    assert main(["report-paths", "--run", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "actions.txt").read_text()
    assert printed.startswith("best round: ")
    assert f"(validation micro-F1 {best:.4f})\n" in printed
    assert "\nstop-at-0: " in printed and "%\nmeta-path table:\n" in printed


def test_report_paths_without_actions_txt_names_the_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="actions.txt"):
        main(["report-paths", "--run", str(tmp_path)])


def test_report_json_is_episode_report_to_json(tmp_path, synth_graph):
    """Rebuilding the EpisodeReport from report.json and serialising it again
    with EpisodeReport.to_json reproduces the file byte for byte."""
    from rlhgnn.hin import load_hin
    from rlhgnn.pipeline import EpisodeReport, RoundRecord, StepRecord

    out = train_run(tmp_path, synth_graph)
    text = (out / "report.json").read_text()
    doc = json.loads(text)
    report = EpisodeReport(
        variant=doc["variant"], num_actions=doc["num_actions"],
        steps=[StepRecord(**s) for s in doc["steps"]],
        rounds=[RoundRecord(**{**r, "paths": [tuple(p) for p in r["paths"]]})
                for r in doc["rounds"]],
        meta=doc["meta"],
    )
    g = load_hin(synth_graph)
    assert json.dumps(report.to_json(g.schema, g.target_type)) == text
    assert doc["schema"]["relation_types"] == [["M-A", "Movie", "Actor"],
                                               ["M-D", "Movie", "Director"]]


def without_wall_times(report_json: bytes) -> dict:
    doc = json.loads(report_json)
    del doc["meta"]["design_wall_ms"]
    for s in doc["steps"]:
        del s["wall_ms"]
    return doc


@pytest.mark.parametrize("variant", ["rl-hgnn", "rl-hgnn-pp"])
def test_runs_are_identical_across_processes_and_hash_seeds(tmp_path, synth_graph, variant):
    """Separate interpreters with different string-hash seeds write the same
    report.csv, model.bin and agent.bin, and the same report.json apart from
    its wall times."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rlhgnn

    cfg_path = write_config(tmp_path, variant=variant)
    src = str(Path(rlhgnn.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "rlhgnn.cli", "train", "--graph", str(synth_graph),
             "--config", str(cfg_path), "--out", str(out),
             "--train-count", "24", "--val-count", "18"],
            env=env, check=True, capture_output=True,
        )
        runs.append(out)
    a, b = runs
    for name in ("report.csv", "model.bin", "agent.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert without_wall_times((a / "report.json").read_bytes()) == \
        without_wall_times((b / "report.json").read_bytes())


def test_eval_rejects_an_unlabelled_split_id_naming_the_file_the_key_and_the_node(
        tmp_path, synth_graph):
    """An id of a node with no label would be scored against class -1; the
    split that holds one is named before any node is predicted."""
    out = tmp_path / "run"
    assert main(["train", "--graph", str(synth_graph), "--config", str(write_config(tmp_path)),
                 "--out", str(out), "--train-count", "24", "--val-count", "18"]) == 0
    split = json.loads((out / "split.json").read_text())
    node = split["test"][0]
    doc = json.loads(synth_graph.read_text())
    del doc["labels"][str(node)]
    unlabelled = tmp_path / "unlabelled.json"
    unlabelled.write_text(json.dumps(doc))
    message = f"{out / 'split.json'}: split key 'test' holds node id {node}, which has no label"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        main(["eval", "--checkpoint", str(out), "--graph", str(unlabelled)])
