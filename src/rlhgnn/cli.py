"""Command-line entry points: train, eval, report-paths, bench-agg,
bench-runtime and gen-synth."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import agent as rl
from . import model as nn
from . import pipeline as pl
from .hin import DataSplit, Rule, check_fields, is_int, list_of, load_hin, save_hin, split_nodes
from .synth import SyntheticSpec, generate_planted_hin


def _load_config(path: str | None, variant: str | None) -> pl.TrainConfig:
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    if variant and isinstance(doc, dict):  # from_dict names any other JSON value
        doc["variant"] = variant
    return pl.TrainConfig.from_dict(doc)


_SPLIT_KEYS = ("train", "validation", "test")  # DataSplit's fields, in split.json


def _save_split(split: DataSplit, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: getattr(split, k).tolist() for k in _SPLIT_KEYS}, f)


def _load_split(path: Path, labels: np.ndarray) -> DataSplit:
    """Raises ValueError naming the file and the key unless it holds train,
    validation and test lists of distinct node ids in [0, len(labels)), no
    id in two of them, each of them labelled."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    n = len(labels)
    node = Rule(lambda i: is_int(i) and 0 <= i < n, "a node id")
    lists = check_fields(
        doc, dict.fromkeys(_SPLIT_KEYS, list_of(node, f"a list of integer node ids in [0, {n})")),
        lambda k: f"{path}: split key {k!r}", lambda k: f"{path}: split lacks key {k!r}",
        shown=lambda ids: repr(next(i for i in ids if not node.ok(i))
                               if isinstance(ids, list) else ids))
    split = DataSplit(**{k: np.asarray(ids, dtype=np.int64) for k, ids in lists.items()})
    split.need_labels(labels, where=f"{path}: ")
    return split


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.variant)
    g = load_hin(args.graph, args.format)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split = split_nodes(g, (args.train_count, args.val_count), args.split_seed)
    params, agent, report = pl.run(cfg, g, split)
    nn.save_params(params, out / "model.bin")
    rl.save_agent(agent, out / "agent.bin", eps_position=report.meta.get("final_eps", 0.0))
    _save_split(split, out / "split.json")
    with open(out / "config.json", "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f, indent=2)
    with open(out / "report.csv", "w", encoding="utf-8", newline="") as f:
        f.write(report.to_csv(include_wall=False))
    with open(out / "metrics.csv", "w", encoding="utf-8", newline="") as f:
        f.write(report.to_csv(include_wall=True))
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report.to_json(g.schema, g.target_type), f)
    stats = pl.action_report(report, g)
    with open(out / "actions.txt", "w", encoding="utf-8") as f:
        f.write(stats.render() + "\n")
    print(f"best validation micro-F1: {report.meta['best_val_metric']:.4f}")
    print(f"run artifacts written to {out}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.checkpoint)
    g = load_hin(args.graph, args.format)
    with open(run_dir / "config.json", "r", encoding="utf-8") as f:
        cfg = pl.TrainConfig.from_dict(json.load(f))
    params = nn.load_params(run_dir / "model.bin")
    agent = rl.load_agent(run_dir / "agent.bin")
    split = _load_split(run_dir / "split.json", g.labels)
    nodes = split.test if len(split.test) else g.labelled_nodes()
    preds = pl.predict(params, agent, g, cfg, nodes)
    micro, macro = pl.evaluate_f1(preds, g.labels, nodes)
    print(f"test nodes: {len(nodes)}")
    print(f"micro-F1: {micro:.4f}")
    print(f"macro-F1: {macro:.4f}")
    return 0


def cmd_report_paths(args) -> int:
    path = Path(args.run) / "actions.txt"
    if not path.is_file():
        raise FileNotFoundError(f"no action report at {path}; is {args.run} a `train --out` directory?")
    sys.stdout.write(path.read_text(encoding="utf-8"))
    return 0


def cmd_bench_agg(args) -> int:
    g = load_hin(args.graph, args.format)
    cfg = _load_config(args.config, None)
    if args.uncapped:
        cfg = replace(cfg, fan_out_cap=None)
    try:
        timesteps = [int(x) for x in args.timesteps.split(",")]
    except ValueError:
        raise ValueError(f"--timesteps must be comma-separated integers, "
                         f"got {args.timesteps!r}") from None
    results = pl.bench_aggregation(g, cfg, timesteps, episodes_per_t=args.episodes, seed=args.seed)
    export: dict = {"per_timestep": {}}
    print(f"{'T':>3} {'naive':>10} {'merged':>10} {'reduction':>10}")
    for T, stats in results.items():
        print(f"{T:>3} {stats.step_count_naive:>10} {stats.step_count_merged:>10} "
              f"{stats.reduction_ratio:>10.3f}")
        export["per_timestep"][str(T)] = {
            "stats": stats.to_json(),
            "merged_plan": stats.merged.to_json(),
            "naive_plan": stats.naive.to_json(),
        }
    if args.export:
        with open(args.export, "w", encoding="utf-8") as f:
            json.dump(export, f)
        print(f"diagnostic plan export written to {args.export}")
    return 0


def _default_bench_graph(seed: int):
    spec = SyntheticSpec(
        node_counts={"Movie": 60, "Actor": 24, "Director": 10},
        relations=[("M-A", "Movie", "Actor"), ("A-M", "Actor", "Movie"),
                   ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "A-M": 2, "M-D": 2},
        target_type="Movie",
        planted_path=("M-A",),
        num_classes=3,
        train_count=24,
        val_count=18,
        seed=seed,
    )
    return generate_planted_hin(spec)


def cmd_bench_runtime(args) -> int:
    cfg = _load_config(args.config, None)
    if args.graph:
        g = load_hin(args.graph, args.format)
        split = split_nodes(g, (None, None), cfg.seed)
    else:
        g, split = _default_bench_graph(cfg.seed)
    result = pl.bench_runtime(cfg, g, split, repeats=args.repeats)
    print(f"rl-hgnn design time (ms):    {result['rl-hgnn_ms']}")
    print(f"rl-hgnn-pp design time (ms): {result['rl-hgnn-pp_ms']}")
    print(f"mean ratio (pp / base):      {result['ratio']:.4f}")
    return 0


def cmd_gen_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as f:
        spec = SyntheticSpec.from_dict(json.load(f))
    g, split = generate_planted_hin(spec)
    save_hin(g, args.out)
    _save_split(split, Path(str(args.out) + ".split.json"))
    print(f"wrote {args.out} ({sum(g.num_nodes.values())} nodes, "
          f"{sum(g.edge_count(r.name) for r in g.schema.relation_types)} edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rlhgnn")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a variant on a graph file")
    t.add_argument("--graph", required=True)
    t.add_argument("--variant", choices=["rl-hgnn", "rl-hgnn-pp"])
    t.add_argument("--config", help="JSON config mirroring TrainConfig")
    t.add_argument("--out", required=True)
    t.add_argument("--format", default="json-graph", choices=["json-graph", "csv-triples"])
    t.add_argument("--train-count", type=int)
    t.add_argument("--val-count", type=int)
    t.add_argument("--split-seed", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a saved run on its test split")
    e.add_argument("--checkpoint", required=True, help="run directory from train")
    e.add_argument("--graph", required=True)
    e.add_argument("--format", default="json-graph", choices=["json-graph", "csv-triples"])
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("report-paths", help="meta-path table of the best round")
    r.add_argument("--run", required=True)
    r.set_defaults(fn=cmd_report_paths)

    b = sub.add_parser("bench-agg", help="naive vs merged aggregation counts")
    b.add_argument("--graph", required=True)
    b.add_argument("--timesteps", default="1,2,3,4")
    b.add_argument("--episodes", type=int)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--config")
    b.add_argument("--format", default="json-graph", choices=["json-graph", "csv-triples"])
    b.add_argument("--uncapped", action="store_true", help="disable the fan-out cap")
    b.add_argument("--export", help="write diagnostic plan JSON here")
    b.set_defaults(fn=cmd_bench_agg)

    br = sub.add_parser("bench-runtime", help="meta-path design wall time per variant")
    br.add_argument("--graph", help="graph file; a built-in synthetic graph when omitted")
    br.add_argument("--config")
    br.add_argument("--repeats", type=int, default=3)
    br.add_argument("--format", default="json-graph", choices=["json-graph", "csv-triples"])
    br.set_defaults(fn=cmd_bench_runtime)

    gs = sub.add_parser("gen-synth", help="generate a synthetic planted-path graph")
    gs.add_argument("--spec", required=True)
    gs.add_argument("--out", required=True)
    gs.set_defaults(fn=cmd_gen_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
