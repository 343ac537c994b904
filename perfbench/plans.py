"""Counts and exactness oracles over the plans a traced call compiled.

Everything here runs after the traced call has returned, with the tracer
removed, so none of it lands inside a span.
"""
from __future__ import annotations

import numpy as np

from rlhgnn import aggplan, model

EQUIVALENCE_TOL = 1e-10


def plan_counts(g, captured: list, max_layers: int) -> dict[str, float]:
    """Merged steps and traversals (rows gathered) per layer, naive steps and
    the reduction ratio, summed over every plan compiled in one call.

    captured holds (episodes, merged plan) pairs in compile order.
    """
    out: dict[str, float] = {}
    merged_total = naive_total = 0
    for l in range(1, max_layers + 1):
        steps = [s for _, plan in captured if l <= len(plan.layers) for s in plan.layers[l - 1]]
        out[f"aggplan.merged_steps.l{l}"] = len(steps)
        out[f"aggplan.traversals.l{l}"] = sum(m for s in steps for _, m in s.sources)
    for episodes, plan in captured:
        merged_total += plan.step_count
        naive_total += aggplan.naive_plan(g, episodes).step_count
    out["aggplan.naive_steps"] = naive_total
    out["aggplan.reduction_ratio"] = 1.0 - merged_total / naive_total if naive_total else 0.0
    return out


def sample(captured: list) -> list:
    """First, middle and last plan of a call."""
    picks = sorted({0, len(captured) // 2, len(captured) - 1}) if captured else []
    return [captured[i] for i in picks]


def exactness_failures(g, params, cfg, captured: list) -> tuple[int, list[str]]:
    """Run both oracles on each sampled plan: eval-mode forward on the naive
    plan equals the merged plan to EQUIVALENCE_TOL, and the enumeration
    recount equals both plans' step counts. Returns (checks run, failures)."""
    checks, failures = 0, []
    for i, (episodes, merged) in enumerate(sample(captured)):
        naive = aggplan.naive_plan(g, episodes)
        a = model.hgnn_forward(params, g, merged, mode="eval",
                               messages_from_target=cfg.messages_from_target).outputs.value
        b = model.hgnn_forward(params, g, naive, mode="eval",
                               messages_from_target=cfg.messages_from_target).outputs.value
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        checks += 1
        if not diff <= EQUIVALENCE_TOL:
            failures.append(f"plan sample {i}: naive/merged outputs differ by {diff:.3g}")
        recount = aggplan.count_steps_by_enumeration(
            g, [(ep.start, ep.path) for ep in episodes])
        checks += 1
        if recount != (naive.step_count, merged.step_count):
            failures.append(f"plan sample {i}: enumeration {recount} != "
                            f"plans ({naive.step_count}, {merged.step_count})")
    return checks, failures
