"""Compile episode batches into layered aggregation plans.

The merged plan keys every aggregation by (target node, remaining relation
suffix): that pair determines the whole subtree feeding the step, so any two
occurrences anywhere in the batch compute the same value and are executed
once. The naive plan keys by (episode, concrete node prefix) instead, so
identical subtrees hanging off different prefixes are recomputed; it is the
equivalence oracle and the baseline for the redundancy statistics.

Layer l steps consume layer l-1 results (layer 1 consumes projected raw
attributes) and run with aggregator parameter set l, counting from the far
end of the path back toward the start node.

Every plan is compiled once, when it is built, into read-only index arrays
(LayerIndex per layer, the h0 groups and the output rows), so evaluating it
any number of times needs no per-step work.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Hashable

import numpy as np

from .hin import HinGraph, NodeId
from .metapath import Frontier, MetaPath, neighbors_local

Key = Hashable


@dataclass
class Episode:
    """One designed meta-path with its expansion trace."""

    start: NodeId
    path: MetaPath
    frontier: Frontier

    def __post_init__(self):
        if len(self.frontier.step_relations) != len(self.path.relations):
            raise ValueError("frontier trace does not match path length")


@dataclass
class PlanStep:
    target: Key
    target_node: NodeId
    relation: str
    layer: int
    sources: list[tuple[Key, int]]  # (source key, edge multiplicity), sorted


@dataclass(frozen=True)
class LayerIndex:
    """One layer's steps as gather rows, one row per traversal (a source
    reached through m edges appears m times), grouped by step in step order."""

    src_rows: np.ndarray  # source's row in the previous layer (in H0 at layer 1)
    tgt_rows: np.ndarray  # target node's row in H0
    starts: np.ndarray  # first traversal of each step
    lengths: np.ndarray  # traversals per step, all >= 1


@dataclass
class AggregationDag:
    layers: list[list[PlanStep]]  # layers[l-1] holds layer-l steps
    outputs: list[Key]  # one per episode: a step key or an h0 key
    h0_nodes: list[NodeId]  # projected raw nodes the plan reads, sorted
    episodes_sig: list[tuple[NodeId, tuple[str, ...]]]
    kind: str
    # compiled form, read-only intp arrays; H0 row i is h0_nodes[i]
    index: list[LayerIndex] = field(repr=False, compare=False)
    h0_groups: list[tuple[str, np.ndarray]] = field(repr=False, compare=False)  # (type, local ids) runs
    output_rows: np.ndarray = field(repr=False, compare=False)  # rows of [H0; layer 1; ...; layer L]

    @property
    def step_count(self) -> int:
        return sum(len(L) for L in self.layers)

    def per_layer_counts(self) -> list[int]:
        return [len(L) for L in self.layers]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "step_count": self.step_count,
            "per_layer": self.per_layer_counts(),
            "episodes": len(self.outputs),
            "layers": [
                [
                    {
                        "target": repr(s.target),
                        "node": list(s.target_node),
                        "relation": s.relation,
                        "sources": len(s.sources),
                        "traversals": sum(m for _, m in s.sources),
                    }
                    for s in L
                ]
                for L in self.layers
            ],
        }


@dataclass
class AggregationStats:
    step_count_naive: int
    step_count_merged: int
    reduction_ratio: float
    per_layer_naive: list[int] = field(default_factory=list)
    per_layer_merged: list[int] = field(default_factory=list)
    # the two plans compared, kept for diagnostic export
    naive: AggregationDag | None = field(default=None, repr=False, compare=False)
    merged: AggregationDag | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "naive": self.step_count_naive,
            "merged": self.step_count_merged,
            "reduction_ratio": self.reduction_ratio,
            "per_layer_naive": self.per_layer_naive,
            "per_layer_merged": self.per_layer_merged,
        }


def _surviving_edges(ep: Episode) -> list[dict[int, list[tuple[int, int]]]]:
    """Per step, parent -> [(child, multiplicity)] restricted to complete instances.

    A traversal survives only if it can be extended to the path's full length;
    dead branches never appear in any meta-path instance.
    """
    n = len(ep.path.relations)
    per_step: list[dict[int, list[tuple[int, int]]]] = []
    valid_next: set[int] | None = None  # None means "all children valid" (leaf level)
    for k in reversed(range(n)):
        parents, children = ep.frontier.step_edges[k]
        counts: dict[tuple[int, int], int] = {}
        for p, c in zip(parents.tolist(), children.tolist()):
            if valid_next is not None and c not in valid_next:
                continue
            counts[(p, c)] = counts.get((p, c), 0) + 1
        by_parent: dict[int, list[tuple[int, int]]] = {}
        for (p, c), m in sorted(counts.items()):
            by_parent.setdefault(p, []).append((c, m))
        per_step.append(by_parent)
        valid_next = set(by_parent)
    per_step.reverse()
    return per_step


def build_plan(g: HinGraph, episodes: list[Episode]) -> AggregationDag:
    """Merged, redundancy-free plan for a batch of episodes."""
    steps: dict[Key, PlanStep] = {}
    outputs: list[Key] = []
    h0: set[NodeId] = set()
    sig = []
    for ep in episodes:
        sig.append((ep.start, ep.path.relations))
        types = ep.path.node_type_sequence(g.schema)
        n = len(ep.path.relations)
        if n == 0:
            outputs.append(("h0",) + ep.start)
            h0.add(ep.start)
            continue
        surviving = _surviving_edges(ep)
        root_key = (ep.start, ep.path.relations)
        outputs.append(root_key)
        # walk levels root -> leaves; only parents on complete instances get steps
        level_parents: set[int] = {ep.start[1]}
        for k in range(n):
            suffix = ep.path.relations[k:]
            child_suffix = ep.path.relations[k + 1:]
            leaf_layer = k == n - 1
            next_parents: set[int] = set()
            for p in sorted(level_parents):
                kids = surviving[k].get(p)
                if not kids:
                    continue  # no complete instance through p
                key = ((types[k], p), suffix)
                target_node = (types[k], p)
                h0.add(target_node)
                if leaf_layer:
                    sources = [(("h0", types[k + 1], c), m) for c, m in kids]
                    for c, _ in kids:
                        h0.add((types[k + 1], c))
                else:
                    sources = [(((types[k + 1], c), child_suffix), m) for c, m in kids]
                existing = steps.get(key)
                if existing is None:
                    steps[key] = PlanStep(key, target_node, suffix[0], n - k, sources)
                elif existing.sources != sources:
                    raise ValueError(
                        f"inconsistent traces: shared step {key!r} saw two source sets"
                    )
                next_parents.update(c for c, _ in kids)
            level_parents = next_parents
        if root_key not in steps:
            raise ValueError(
                "episode has no complete instances; dead-end traces must be "
                "force-stopped before planning"
            )
    return _finish(g, steps, outputs, h0, sig, "merged")


def naive_plan(g: HinGraph, episodes: list[Episode]) -> AggregationDag:
    """Per-instance-prefix plan with no sharing of common subtrees."""
    steps: dict[Key, PlanStep] = {}
    outputs: list[Key] = []
    h0: set[NodeId] = set()
    sig = []
    for idx, ep in enumerate(episodes):
        sig.append((ep.start, ep.path.relations))
        types = ep.path.node_type_sequence(g.schema)
        n = len(ep.path.relations)
        if n == 0:
            outputs.append(("h0",) + ep.start)
            h0.add(ep.start)
            continue
        surviving = _surviving_edges(ep)
        root = (ep.start[1],)
        outputs.append((idx, root))
        stack: list[tuple[int, ...]] = [root]
        while stack:
            prefix = stack.pop()
            k = len(prefix) - 1
            p = prefix[-1]
            kids = surviving[k].get(p)
            if kids is None:
                raise ValueError(
                    "episode has no complete instances; dead-end traces must be "
                    "force-stopped before planning"
                )
            key = (idx, prefix)
            target_node = (types[k], p)
            h0.add(target_node)
            if k == n - 1:
                sources = [(("h0", types[k + 1], c), m) for c, m in kids]
                for c, _ in kids:
                    h0.add((types[k + 1], c))
            else:
                sources = [((idx, prefix + (c,)), m) for c, m in kids]
                stack.extend(prefix + (c,) for c, _ in reversed(kids))
            steps[key] = PlanStep(key, target_node, ep.path.relations[k], n - k, sources)
    return _finish(g, steps, outputs, h0, sig, "naive")


def _finish(g, steps, outputs, h0, sig, kind) -> AggregationDag:
    max_layer = max((s.layer for s in steps.values()), default=0)
    layers: list[list[PlanStep]] = [[] for _ in range(max_layer)]
    for s in steps.values():
        layers[s.layer - 1].append(s)
    for L in layers:
        L.sort(key=lambda s: repr(s.target))
    h0_nodes = sorted(h0)
    return AggregationDag(
        layers=layers,
        outputs=outputs,
        h0_nodes=h0_nodes,
        episodes_sig=sig,
        kind=kind,
        **_compile(layers, outputs, h0_nodes),
    )


def _readonly(values) -> np.ndarray:
    a = np.array(values, dtype=np.intp)
    a.flags.writeable = False
    return a


def _compile(layers: list[list[PlanStep]], outputs: list[Key], h0_nodes: list[NodeId]) -> dict:
    """Index arrays of the plan: per layer its gather rows and segments, the
    h0 runs by node type, and each episode's output row in the stack
    [H0; layer 1; ...; layer L]."""
    h0_row = {n: i for i, n in enumerate(h0_nodes)}
    prev = {("h0",) + n: i for n, i in h0_row.items()}  # key -> row in the previous layer
    stacked = dict(prev)  # key -> row in the stack
    index = []
    for L in layers:
        src = [prev[k] for s in L for k, _ in s.sources]
        mult = [m for s in L for _, m in s.sources]
        lengths = np.array([sum(m for _, m in s.sources) for s in L], dtype=np.intp)
        tgt = [h0_row[s.target_node] for s in L]
        index.append(LayerIndex(
            src_rows=_readonly(np.repeat(src, mult)),
            tgt_rows=_readonly(np.repeat(tgt, lengths)),
            starts=_readonly(np.cumsum(lengths) - lengths),
            lengths=_readonly(lengths),
        ))
        prev = {s.target: i for i, s in enumerate(L)}
        base = len(stacked)
        stacked.update((k, base + i) for k, i in prev.items())
    h0_groups = [(t, _readonly([n for _, n in run]))
                 for t, run in groupby(h0_nodes, key=lambda n: n[0])]
    return {"index": index, "h0_groups": h0_groups,
            "output_rows": _readonly([stacked[k] for k in outputs])}


def plan_stats(naive: AggregationDag, merged: AggregationDag) -> AggregationStats:
    if naive.episodes_sig != merged.episodes_sig:
        raise ValueError("plans were built from different episode sets")
    n, m = naive.step_count, merged.step_count
    ratio = 0.0 if n == 0 else 1.0 - m / n
    return AggregationStats(
        step_count_naive=n,
        step_count_merged=m,
        reduction_ratio=ratio,
        per_layer_naive=naive.per_layer_counts(),
        per_layer_merged=merged.per_layer_counts(),
        naive=naive,
        merged=merged,
    )


# ---------------------------------------------------------------------------
# Independent recount by brute-force instance enumeration (test oracle)


def enumerate_instances(g: HinGraph, start: NodeId, path: MetaPath) -> list[tuple[int, ...]]:
    """All complete meta-path instances as local-id chains (uncapped DFS)."""
    types = path.node_type_sequence(g.schema)
    out: list[tuple[int, ...]] = []
    chain = [start[1]]

    def rec(k: int):
        if k == len(path.relations):
            out.append(tuple(chain))
            return
        for c in neighbors_local(g, types[k], chain[-1], path.relations[k]):
            chain.append(int(c))
            rec(k + 1)
            chain.pop()

    rec(0)
    return out


def count_steps_by_enumeration(
    g: HinGraph, episodes: list[tuple[NodeId, MetaPath]]
) -> tuple[int, int]:
    """(naive, merged) step counts recomputed from raw instance enumeration."""
    naive_keys: set = set()
    merged_keys: set = set()
    for idx, (start, path) in enumerate(episodes):
        n = len(path.relations)
        if n == 0:
            continue
        types = path.node_type_sequence(g.schema)
        for inst in enumerate_instances(g, start, path):
            for k in range(n):
                naive_keys.add((idx, inst[:k + 1]))
                merged_keys.add(((types[k], inst[k]), path.relations[k:]))
    return len(naive_keys), len(merged_keys)
