"""Spans around the program's public functions, recorded from outside.

The tracer replaces a function on the module (or class) where its callers
look it up, records one span per call with perf_counter_ns, and puts the
original back afterwards. Spans stay in memory; summarize() turns them into
per-name call counts, total time and self time (duration minus the time
covered by child spans).

A function that no longer exists is reported as absent and skipped, so the
benchmark keeps running when a later change removes or renames it.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from rlhgnn import agent, autodiff, hin, model, pipeline, synth


@dataclass(frozen=True)
class Target:
    module: Any
    path: str  # attribute path under the module, e.g. "QNetwork.values"
    span: str
    # name from (args, kwargs) when one function stands for several spans
    name_of: Callable[[tuple, dict], str] | None = None
    # what to keep from a call, as f(args, result); None keeps nothing
    capture: Callable[[tuple, Any], Any] | None = None


def _forward_name(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return f"model.hgnn_forward.{mode}"


# `pipeline` binds build_plan, expand_frontier and valid_actions by name, so
# those are wrapped on `pipeline`; it reaches model, agent and autodiff
# through their modules. `agent` binds model.backward and model.optimizer_step
# by name, so the DQN's own Adam step stays in agent.dqn_step self time while
# its tape walk still shows as autodiff.backward under agent.dqn_step.
TARGETS = (
    Target(synth, "generate_planted_hin", "synth.generate_planted_hin"),
    Target(hin, "save_hin", "hin.save_hin"),
    Target(hin, "load_hin", "hin.load_hin"),
    Target(pipeline, "run", "pipeline.run"),
    Target(pipeline, "predict", "pipeline.predict"),
    Target(pipeline, "evaluate_f1", "pipeline.evaluate_f1"),
    Target(pipeline, "expand_frontier", "metapath.expand_frontier",
           capture=lambda args, result: result),
    Target(pipeline, "valid_actions", "metapath.valid_actions"),
    Target(pipeline, "build_plan", "aggplan.build_plan",
           capture=lambda args, result: (args[1], result)),
    Target(model, "hgnn_forward", "model.hgnn_forward", name_of=_forward_name),
    Target(model, "project_attributes", "model.project_attributes"),
    Target(model, "classify", "model.classify"),
    Target(model, "cross_entropy", "model.cross_entropy"),
    Target(model, "backward", "model.backward"),
    Target(model, "optimizer_step", "model.optimizer_step"),
    Target(autodiff, "backward", "autodiff.backward"),
    Target(agent, "select_action", "agent.select_action"),
    Target(agent, "QNetwork.values", "agent.QNetwork.values"),
    Target(agent, "dqn_step", "agent.dqn_step"),
    Target(agent, "state_static", "agent.state_static"),
    Target(agent, "initial_state_static", "agent.initial_state_static"),
    Target(agent, "Normalizer.transform", "agent.Normalizer.transform"),
    Target(agent, "Normalizer.apply", "agent.Normalizer.apply"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


def _holder(t: Target):
    """The object that holds the target function, or None if any part is gone."""
    *outer, leaf = t.path.split(".")
    obj = t.module
    for part in outer:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(getattr(obj, leaf, None)) else None


class Tracer:
    """Records spans for the calls made while installed(); one per traced call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # one entry per span, in start order; parallel lists of str and int
        # rather than a list of tuples, so the garbage collector has fewer
        # objects to track
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.captured: dict[str, list] = {t.span: [] for t in targets if t.capture}
        self.absent = [t.span for t in targets if _holder(t) is None]
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        originals = []
        try:
            for t in self.targets:
                holder = _holder(t)
                if holder is None:
                    continue
                leaf = t.path.rsplit(".", 1)[-1]
                fn = getattr(holder, leaf)
                originals.append((holder, leaf, fn))
                setattr(holder, leaf, self._wrap(fn, t))
            yield self
        finally:
            for holder, leaf, fn in reversed(originals):
                setattr(holder, leaf, fn)

    def _wrap(self, fn, target: Target):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter_ns
        name, name_of, capture = target.span, target.name_of, target.capture
        sink = self.captured.get(target.span)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_of(args, kwargs) if name_of else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if capture is not None:
                sink.append(capture(args, result))
            return result

        return traced

    def summarize(self) -> dict[str, SpanStats]:
        """Per-name stats. autodiff.backward is split by caller into
        autodiff.backward.hgnn (under model.backward) and .dqn (under
        agent.dqn_step)."""
        names, parents = self.names, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_ns = [0] * len(names)
        for parent, d in zip(parents, durations):
            if parent >= 0:
                child_ns[parent] += d
        out: dict[str, SpanStats] = {}
        for name, parent, d, c in zip(names, parents, durations, child_ns):
            if name == "autodiff.backward":
                caller = names[parent] if parent >= 0 else ""
                name += {"model.backward": ".hgnn", "agent.dqn_step": ".dqn"}.get(caller, ".other")
            s = out.setdefault(name, SpanStats())
            s.calls += 1
            s.total_ns += d
            s.self_ns += d - c
        return out
