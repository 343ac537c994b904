"""Benchmark of rlhgnn: training rounds, greedy inference and set-up, end to
end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload quickstart-pp --seed 0 --seconds 30 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics.
--trace 1 runs it again with spans around the program's public functions
and prints the per-layer metrics, runs the exactness oracles on the plans it
compiled, and writes a span table to .bench_work/. Either way the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. README.md next to this file explains every metric.

The program is imported from src/ of the checkout this file sits in; the
benchmark exits non-zero without a result when src/rlhgnn is missing.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

if not (SRC / "rlhgnn" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: program source not found at {SRC / 'rlhgnn'}; "
                     "run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from rlhgnn import hin, pipeline, synth  # noqa: E402

import plans  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SPLIT_SEED, WORKLOADS, Workload  # noqa: E402

# Traced run: share of --seconds spent on run() pairs, the rest on predict();
# the graph is first set up at least SETUP_MIN_REPEATS times and for SETUP_BUDGET_S.
RUN_SHARE = 2 / 3
SETUP_MIN_REPEATS = 5
SETUP_BUDGET_S = 2.0
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples above it
MAX_LAYERS = 3  # deepest aggregation layer of any workload (scale-pp has T=3)

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("round_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

_METAPATH = (
    ("metapath.expand_frontier.calls", "count"),
    ("metapath.valid_actions.calls", "count"), ("metapath.valid_actions.self_ms", "ms"),
    ("metapath.edges_traversed", "count"), ("metapath.dead_end_ratio", "ratio"),
)
_AGGPLAN = (
    ("aggplan.build_plan.calls", "count"), ("aggplan.build_plan.self_ms", "ms"),
    *((f"aggplan.merged_steps.l{l}", "count") for l in range(1, MAX_LAYERS + 1)),
    *((f"aggplan.traversals.l{l}", "count") for l in range(1, MAX_LAYERS + 1)),
    ("aggplan.naive_steps", "count"), ("aggplan.reduction_ratio", "ratio"),
)
_INFERENCE = (
    ("model.hgnn_forward.eval.calls", "count"), ("model.hgnn_forward.eval.self_ms", "ms"),
    ("model.project_attributes.self_ms", "ms"), ("model.classify.self_ms", "ms"),
    ("agent.select_action.calls", "count"), ("agent.select_action.self_ms", "ms"),
    ("agent.QNetwork.values.calls", "count"), ("agent.QNetwork.values.self_ms", "ms"),
    ("agent.state.self_ms", "ms"),
)


def _modules(*names: str) -> tuple:
    """Self time summed over every span of a module."""
    return tuple((f"{m}.self_ms", "ms") for m in names)


# Per phase, the layer metrics it reports. A time is listed only where every
# workload exercises it, so none reads a structural zero: predict() never
# trains, and a greedy policy may stop every node before any expansion.
PHASE_LAYERS = {
    "setup": (
        ("synth.generate_planted_hin.ms", "ms"), ("hin.save_hin.ms", "ms"),
        ("hin.load_hin.ms", "ms"),
    ),
    "run": (
        *_modules("pipeline", "metapath", "aggplan", "model", "autodiff", "agent"),
        ("pipeline.run.self_ms", "ms"), ("pipeline.evaluate_f1.self_ms", "ms"),
        *_METAPATH, ("metapath.expand_frontier.self_ms", "ms"), *_AGGPLAN, *_INFERENCE,
        ("model.hgnn_forward.train.calls", "count"), ("model.hgnn_forward.train.self_ms", "ms"),
        ("model.cross_entropy.self_ms", "ms"), ("model.backward.self_ms", "ms"),
        ("model.optimizer_step.self_ms", "ms"),
        ("autodiff.backward.hgnn.self_ms", "ms"), ("autodiff.backward.dqn.self_ms", "ms"),
        ("agent.dqn_step.calls", "count"), ("agent.dqn_step.self_ms", "ms"),
        ("agent.update_ratio", "ratio"), ("agent.buffer_fill", "ratio"),
    ),
    "predict": (
        *_modules("pipeline", "metapath", "aggplan", "model", "agent"),
        ("pipeline.predict.ms", "ms"),
        ("pipeline.predict.self_ms", "ms"), ("pipeline.evaluate_f1.self_ms", "ms"),
        *_METAPATH, *_AGGPLAN, *_INFERENCE,
    ),
}
# agent.state.self_ms: building agent states, whichever loop variant runs.
STATE_SPANS = ("agent.state_static", "agent.initial_state_static",
               "agent.Normalizer.transform", "agent.Normalizer.apply")
OVERHEAD = ("trace.overhead_ratio", "ratio")


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{phase}.{name}", unit) for phase, rows in PHASE_LAYERS.items()
             for name, unit in rows]
    return names + [OVERHEAD]


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json at the repository root."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [
            {"name": "quickstart-pp",
             "why": "README fast loop on the 196-node graph: small plans, so the agent "
                    "step and frontier expansion dominate each round"},
            {"name": "base-inner",
             "why": "base loop with B=40 inner rounds, agent exploring throughout: forward, "
                    "tape and Adam dominate and the merge saves ~5% of steps"},
            {"name": "scale-pp",
             "why": "fast loop on a 4,600-node graph, batch 256, agent exploring throughout: "
                    "plan compile, forward and tape take ~86% of run(), plan compile ~40% of "
                    "predict()"},
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n.endswith("reduction_ratio") else "lower"}
            for n, u in per_layer_names()
        ],
    }


# ---------------------------------------------------------------------------
# Run environment


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Operations and output checks


class Ledger:
    """Counts attempted operations (calls and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """fn(*args), or None if it raised; a raise is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the benchmark reports the failure and carries on
            self.failed += 1
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc()
            return None


class Checks:
    """Output checks on every timed run and predict call of one graph instance."""

    def __init__(self, ledger: Ledger, g, split, reference):
        self.ledger, self.g, self.split = ledger, g, split
        self.report_sha = _report_sha(reference)
        self.first_preds: np.ndarray | None = None
        self.micro_f1: float | None = None

    def run(self, out) -> None:
        """Same report bytes as the reference run of this instance, finite best metric."""
        _, _, report = out
        sha = _report_sha(out)
        self.ledger.check(sha == self.report_sha,
                          f"report.csv sha256 {sha} differs from {self.report_sha} "
                          "for the same config and graph")
        self.ledger.check(math.isfinite(report.meta["best_val_metric"]),
                          "best_val_metric is not finite")

    def predict(self, preds: np.ndarray, micro: float) -> None:
        test, C = self.split.test, self.g.num_classes
        valid = preds.shape == self.g.labels.shape and bool(
            np.all((preds[test] >= 0) & (preds[test] < C)))
        self.ledger.check(valid, "predictions are not valid class ids on the test split")
        if self.first_preds is None:
            self.first_preds = preds
        else:
            self.ledger.check(np.array_equal(preds, self.first_preds),
                              "predict() returned different predictions for the same input")
        self.ledger.check(math.isfinite(micro), "test micro-F1 is not finite")
        if self.micro_f1 is None:
            self.micro_f1 = micro


def _report_sha(out) -> str:
    return hashlib.sha256(out[2].to_csv().encode("utf-8")).hexdigest()


def repeat_within(budget_s: float, step) -> None:
    """Call step() at least once, and again while another call of the last
    call's duration still ends within the budget. step() returns False to stop."""
    deadline = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        if step() is False:
            return
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


# ---------------------------------------------------------------------------
# Measurement


def setup_once(spec, counts: tuple[int, int], tmp: Path):
    """README path before round 0: gen-synth (generate + save_hin), then
    train's load_hin and split. Functions are looked up on their modules so
    that a traced run sees them."""
    g, _ = synth.generate_planted_hin(spec)
    path = tmp / "graph.json"
    hin.save_hin(g, path)
    g = hin.load_hin(path)
    return g, hin.split_nodes(g, counts, SPLIT_SEED)


def _timed(ledger: Ledger, what: str, fn, *args, tracer: Tracer | None = None):
    """ledger.call(fn, *args) and its wall time, with the tracer installed if given."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        out = ledger.call(what, fn, *args)
        return out, time.perf_counter() - t0


def _warm_up(ledger: Ledger, w: Workload, g, split):
    """A full untimed run and one predict() on the run's first graph. Its
    report is the reference the timed run of the same graph must reproduce."""
    out = ledger.call("warm-up run", pipeline.run, w.config, g, split)
    if out is None or ledger.call("warm-up predict", pipeline.predict, out[0], out[1], g,
                                  w.config, split.test) is None:
        return None
    return out


def measure_end_to_end(w: Workload, seed: int, seconds: float, tmp: Path):
    """Closed loop over graph instances drawn from the seed, untraced: each
    instance is set up, trained once and predicted predict_calls times.
    Returns (ledger, metrics {name: (value, unit)}, info lines)."""
    ledger, cfg, info = Ledger(), w.config, []
    first = ledger.call("setup", setup_once, w.graph_spec(seed, 0), w.split_counts, tmp)
    warm = first and _warm_up(ledger, w, *first)
    if warm is None:
        return ledger, {}, info

    setup_walls, round_ms, predict_ms, f1s, shas, all_calls = [], [], [], [], [], []

    def instance() -> bool:
        i = len(setup_walls)
        built, setup_wall = _timed(ledger, "setup", setup_once, w.graph_spec(seed, i),
                                   w.split_counts, tmp)
        if built is None:
            return False
        g, split = built
        out, run_wall = _timed(ledger, "run", pipeline.run, cfg, g, split)
        if out is None:
            return False
        checks = Checks(ledger, g, split, warm if i == 0 else out)
        checks.run(out)
        shas.append(_report_sha(out))
        params, agent, _ = out
        calls = []
        for _ in range(w.predict_calls):
            preds, wall = _timed(ledger, "predict", pipeline.predict, params, agent, g, cfg,
                                 split.test)
            if preds is None:
                return False
            calls.append(1000 * wall)
            checks.predict(preds, pipeline.evaluate_f1(preds, g.labels, split.test)[0])
        predict_ms.append(statistics.median(calls))
        all_calls.extend(calls)
        f1s.append(checks.micro_f1)
        setup_walls.append(setup_wall)
        round_ms.append(1000 * run_wall / cfg.resolved_rounds())
        return True

    repeat_within(seconds, instance)
    if not predict_ms:
        return ledger, {}, info

    digest = hashlib.sha256("".join(shas).encode("ascii")).hexdigest()
    info.append(f"{len(round_ms)} graph instances; report.csv digest {digest}")
    info.append(f"round_ms per instance {_rounded(round_ms)}; "
                f"setup_s per instance {_rounded(setup_walls)}")
    # Not bounded metrics: how much work predict() does, and the F1 it reaches,
    # depend on the policy the agent learned on each graph (see README.md).
    info.append(f"predict_ms = {statistics.fmean(predict_ms):.6g} ms (mean over instances "
                f"of each instance's median; {len(all_calls)} calls), per instance "
                f"{_rounded(predict_ms)}")
    if len(all_calls) >= P90_MIN_SAMPLES:
        info.append(f"predict_ms.p90 = {statistics.quantiles(all_calls, n=10)[-1]:.6g} ms "
                    f"over {len(all_calls)} calls")
    info.append(f"test_micro_f1 = {statistics.fmean(f1s):.6g} mean, per instance {_rounded(f1s)}")
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "round_ms": (statistics.median(round_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return ledger, metrics, info


def _rounded(values) -> list[float]:
    return [round(x, 4) for x in values]


def measure_traced(w: Workload, seed: int, seconds: float, tmp: Path):
    """The run's first graph instance, alternating untraced and traced calls
    of run() and then of predict(); oracles and counts afterwards. Returns
    (ledger, metrics {name: (value, unit)}, info lines)."""
    ledger, cfg, info = Ledger(), w.config, []
    spec = w.graph_spec(seed, 0)
    setup_traces = []
    t_end = time.perf_counter() + SETUP_BUDGET_S
    while len(setup_traces) < SETUP_MIN_REPEATS or time.perf_counter() < t_end:
        tracer = Tracer()
        built, _ = _timed(ledger, "setup", setup_once, spec, w.split_counts, tmp, tracer=tracer)
        if built is None:
            return ledger, {}, info
        setup_traces.append(tracer)
    g, split = built
    warm = _warm_up(ledger, w, g, split)
    if warm is None:
        return ledger, {}, info
    checks = Checks(ledger, g, split, warm)

    walls = {"run": [], "run traced": []}
    run_traces, predict_traces = [], []

    def train():  # looks pipeline.run up at call time, so the traced one runs
        return pipeline.run(cfg, g, split)

    def run_pair() -> bool:
        for tracer in (None, Tracer()):
            out, wall = _timed(ledger, "run", train, tracer=tracer)
            if out is None:
                return False
            checks.run(out)
            walls["run traced" if tracer else "run"].append(wall)
            if tracer:
                if run_traces:  # counts come from the first traced run only
                    tracer.captured.clear()
                run_traces.append(tracer)
        return True

    t0 = time.perf_counter()
    repeat_within(seconds * RUN_SHARE, run_pair)
    if not run_traces:
        return ledger, {}, info
    params, agent, report = warm

    def predict_and_score():
        preds = pipeline.predict(params, agent, g, cfg, split.test)
        return preds, pipeline.evaluate_f1(preds, g.labels, split.test)[0]

    def predict_traced() -> bool:
        tracer = Tracer()
        out, _ = _timed(ledger, "predict", predict_and_score, tracer=tracer)
        if out is None:
            return False
        checks.predict(*out)
        if predict_traces:
            tracer.captured.clear()
        predict_traces.append(tracer)
        return True

    repeat_within(max(0.0, seconds - (time.perf_counter() - t0)), predict_traced)
    if not predict_traces:
        return ledger, {}, info

    # Oracles and counts run here, after every traced call, with no tracer installed.
    first_run, first_predict = run_traces[0], predict_traces[0]
    for phase, tracer in (("run", first_run), ("predict", first_predict)):
        n, failures = plans.exactness_failures(g, params, cfg, tracer.captured["aggplan.build_plan"])
        for f in failures:
            print(f"perfbench: oracle failed ({phase}): {f}", file=sys.stderr)
        ledger.attempted += n
        ledger.failed += len(failures)
        info.append(f"{phase}: {n - len(failures)}/{n} exactness oracle checks passed")

    opportunities = report.meta["dqn_update_opportunities"]
    derived = {
        "setup": {},
        "run": {**_captured_counts(g, first_run),
                "agent.update_ratio": agent.update_count / opportunities if opportunities else 0.0,
                "agent.buffer_fill": len(agent.buffer) / agent.buffer.capacity},
        "predict": _captured_counts(g, first_predict),
    }
    summaries = {phase: [t.summarize() for t in traces] for phase, traces in
                 (("setup", setup_traces), ("run", run_traces), ("predict", predict_traces))}
    metrics = {}
    for phase, rows in PHASE_LAYERS.items():
        values = _median_span_values(summaries[phase])
        for name, unit in rows:
            metrics[f"{phase}.{name}"] = (derived[phase].get(name, values.get(name, 0)), unit)
    metrics[OVERHEAD[0]] = (statistics.median(walls["run traced"]) / statistics.median(walls["run"]),
                            OVERHEAD[1])
    info.append(f"{len(run_traces)} traced and {len(walls['run'])} untraced runs, "
                f"{len(predict_traces)} traced predict calls; test micro-F1 {checks.micro_f1:.6g}")
    info += _span_table(summaries, first_run.absent)
    _write_trace(w.name, seed, summaries, first_run.absent, metrics, info)
    return ledger, metrics, info


def _captured_counts(g, tracer: Tracer) -> dict[str, float]:
    frontiers = tracer.captured["metapath.expand_frontier"]
    out = plans.plan_counts(g, tracer.captured["aggplan.build_plan"], MAX_LAYERS)
    out["metapath.edges_traversed"] = sum(len(f.step_edges[-1][0]) for f in frontiers)
    out["metapath.dead_end_ratio"] = (
        sum(len(f.reached) == 0 for f in frontiers) / len(frontiers) if frontiers else 0.0)
    return out


def _span_values(summary) -> dict[str, float]:
    vals: dict[str, float] = {}
    for name, s in summary.items():
        vals[f"{name}.calls"] = s.calls
        vals[f"{name}.ms"] = s.total_ms
        vals[f"{name}.self_ms"] = s.self_ms
    vals["agent.state.self_ms"] = sum(summary[n].self_ms for n in STATE_SPANS if n in summary)
    vals.update((f"{m}.self_ms", ms) for m, ms in _module_self_ms(summary).items())
    return vals


def _module_self_ms(summary) -> dict[str, float]:
    """Self time per module, the first part of each span name."""
    out: dict[str, float] = {}
    for name, s in summary.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + s.self_ms
    return out


def _median_span_values(summaries: list) -> dict[str, float]:
    """Per key, the median time over traced calls; call counts repeat exactly,
    so they come from the first call."""
    per_call = [_span_values(s) for s in summaries]
    keys = {k for vals in per_call for k in vals}
    return {k: per_call[0].get(k, 0) if k.endswith(".calls")
            else statistics.median(vals.get(k, 0) for vals in per_call) for k in keys}


def _span_table(summaries: dict, absent: list[str]) -> list[str]:
    """Human-readable self time per span and per module, first traced call of each phase."""
    lines = []
    for phase in ("run", "predict"):
        summary = summaries[phase][0]
        wall = sum(s.self_ms for s in summary.values())
        lines.append(f"{phase} phase: {wall:.1f} ms traced; self time by module:")
        for group, ms in sorted(_module_self_ms(summary).items(), key=lambda kv: -kv[1]):
            lines.append(f"  {group:<10} {ms:10.1f} ms  {100 * ms / wall:5.1f}%")
        lines.append(f"{phase} phase: spans by self time:")
        for name, s in sorted(summary.items(), key=lambda kv: -kv[1].self_ns):
            lines.append(f"  {name:<34} {s.calls:8d} calls {s.self_ms:10.1f} ms self "
                         f"{s.total_ms:10.1f} ms total")
    for name in absent:
        lines.append(f"absent span (function no longer exists): {name}")
    return lines


def _write_trace(workload: str, seed: int, summaries: dict, absent: list[str],
                 metrics: dict, info: list[str]) -> None:
    doc = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "absent_spans": absent,
        "spans": {
            phase: {name: {"calls": s.calls, "self_ms": s.self_ms, "total_ms": s.total_ms}
                    for name, s in summaries[phase][0].items()}
            for phase in summaries
        },
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "notes": info,
    }
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    print(f"# environment: {json.dumps(environment())}")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          "closed loop, one client, one thread")
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_traced if args.trace else measure_end_to_end
        ledger, metrics, info = measure(WORKLOADS[args.workload], args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in info:
        print(f"# {line}")
    expected = per_layer_names() if args.trace else [(n, u) for n, u, _, _ in END_TO_END]
    if sorted(metrics) != sorted(n for n, _ in expected):
        print(f"perfbench: no result: {ledger.failed} of {ledger.attempted} operations failed",
              file=sys.stderr)
        return 1
    for name, unit in expected:
        print(f"{name:<48} {metrics[name][0]:>16.6g} {unit}")
    print(f"error_rate {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6g}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
