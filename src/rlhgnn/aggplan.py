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
any number of times needs no per-step work. The merged plan is built as
whole arrays for the batch, with each step keyed by the integer pair
(suffix id, local node id); its keyed views (`layers`, `outputs`,
`h0_nodes`) are derived from the arrays only when read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import groupby
from typing import Callable, Hashable

import numpy as np

from .hin import HinGraph, NodeId
from .metapath import Frontier, MetaPath, neighbors_local

Key = Hashable


@dataclass(frozen=True)
class Episode:
    """One designed meta-path with its expansion trace."""

    start: NodeId
    path: MetaPath
    frontier: Frontier

    def __post_init__(self):
        if self.frontier.start != self.start or self.path.start_type != self.start[0]:
            raise ValueError(f"episode starts at {self.start!r} on a {self.path.start_type!r} "
                             f"path, but its frontier starts at {self.frontier.start!r}")
        if self.frontier.step_relations != self.path.relations:
            raise ValueError(f"frontier was expanded along {self.frontier.step_relations!r}, "
                             f"but the path is {self.path.relations!r}")


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


@dataclass(eq=False)
class AggregationDag:
    """A compiled plan: read-only intp index arrays, which are all the
    forward pass reads, plus keyed views for reports, oracles and tests.

    The views `layers`, `outputs` and `h0_nodes` are derived on first read
    and cached; threads that derive the same view at once get equal results.

    The arrays are checked once, here, for every pass that reads them: each
    layer's segments tile its traversals, and every gather row lies inside
    the matrix it reads.
    """

    episodes_sig: list[tuple[NodeId, tuple[str, ...]]]
    kind: str
    index: list[LayerIndex] = field(repr=False)
    h0_groups: list[tuple[str, np.ndarray]] = field(repr=False)  # (type, local ids) runs
    output_rows: np.ndarray = field(repr=False)  # rows of [H0; layer 1; ...; layer L]
    derive_views: Callable[[], tuple[list[list[PlanStep]], list[Key]]] = field(repr=False)

    def __post_init__(self):
        h0_rows = sum(len(ids) for _, ids in self.h0_groups)
        prev_rows = stack_rows = h0_rows
        for layer, ix in enumerate(self.index, start=1):
            lengths = ix.lengths
            if not len(lengths) or lengths.min() < 1:
                raise ValueError(f"plan layer {layer} needs at least one step, and every step "
                                 f"at least one traversal")
            ends = lengths.cumsum()
            if (ix.starts.shape != lengths.shape or (ix.starts != ends - lengths).any()
                    or not len(ix.src_rows) == len(ix.tgt_rows) == ends[-1]):
                raise ValueError(f"plan layer {layer}: segment starts must be the exclusive "
                                 f"cumsum of the lengths, which must sum to the traversal count")
            _check_rows(ix.src_rows, prev_rows, f"plan layer {layer} source rows")
            _check_rows(ix.tgt_rows, h0_rows, f"plan layer {layer} target rows")
            prev_rows = len(lengths)
            stack_rows += prev_rows
        _check_rows(self.output_rows, stack_rows, "plan output rows")

    @cached_property
    def _views(self) -> tuple[list[list[PlanStep]], list[Key]]:
        return self.derive_views()

    @property
    def layers(self) -> list[list[PlanStep]]:
        """layers[l-1] holds the layer-l steps, ordered by repr(target)."""
        return self._views[0]

    @property
    def outputs(self) -> list[Key]:
        """One key per episode: its root step's key, or its h0 key."""
        return self._views[1]

    @cached_property
    def h0_nodes(self) -> list[NodeId]:
        """Projected raw nodes the plan reads, sorted; H0 row i is h0_nodes[i]."""
        return [(t, i) for t, ids in self.h0_groups for i in ids.tolist()]

    @property
    def step_count(self) -> int:
        return sum(len(ix.lengths) for ix in self.index)

    def per_layer_counts(self) -> list[int]:
        return [len(ix.lengths) for ix in self.index]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "step_count": self.step_count,
            "per_layer": self.per_layer_counts(),
            "episodes": len(self.output_rows),
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


def _check_rows(rows: np.ndarray, n: int, what: str) -> None:
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{what} must lie in [0, {n}), got {rows.min()}..{rows.max()}")


@dataclass(frozen=True, eq=False)
class Restriction:
    """The part of a compiled plan that the outputs of some of its episodes
    read. H0 keeps the plan's rows. Layer l keeps, in the plan's order, the
    steps that are a kept episode's output or a source of a step kept at
    layer l + 1, and their traversals; so the kept layers run from 1 to the
    longest kept episode. The restriction to every episode is the plan."""

    plan: AggregationDag
    episodes: np.ndarray  # kept episodes, ascending
    index: list[LayerIndex]  # per kept layer, over its kept steps
    traversals: list[np.ndarray]  # per kept layer, the plan's traversals it keeps, ascending
    output_rows: np.ndarray  # per kept episode, its row of [H0; kept layer 1; ...]


def restrict(plan: AggregationDag, episodes: np.ndarray | None = None) -> Restriction:
    """`plan` restricted to the given episodes (rows of its output_rows), or
    to all of them. Walks back from their output rows, layer L down to 1, by
    index selection on the compiled arrays."""
    if episodes is None:
        return Restriction(plan, _readonly(np.arange(len(plan.output_rows))), plan.index,
                           [_readonly(np.arange(len(ix.src_rows))) for ix in plan.index],
                           plan.output_rows)
    episodes = np.unique(np.asarray(episodes, dtype=np.intp))
    _check_rows(episodes, len(plan.output_rows), "restricted episodes")
    rows = plan.output_rows[episodes]
    # bounds[l]: first row of layer l + 1 in the stack [H0; layer 1; ...; layer L]
    bounds = np.cumsum([sum(len(ids) for _, ids in plan.h0_groups)]
                       + [len(ix.lengths) for ix in plan.index])
    kept, read = [], np.zeros(0, dtype=np.intp)  # read: steps the kept layer above reads
    for layer in range(len(plan.index), 0, -1):
        ix, lo = plan.index[layer - 1], bounds[layer - 1]
        steps = np.union1d(rows[(rows >= lo) & (rows < bounds[layer])] - lo, read)
        lengths = ix.lengths[steps]
        ends = np.cumsum(lengths)
        traversals = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
            ix.starts[steps] - (ends - lengths), lengths)
        read = ix.src_rows[traversals]
        kept.append((steps, traversals))
    kept.reverse()
    depth = sum(len(steps) > 0 for steps, _ in kept)  # the kept layers are 1..depth
    new_row = np.arange(bounds[-1])  # stack row -> restricted stack row, where kept
    index, base = [], bounds[0]
    for layer, (steps, traversals) in enumerate(kept[:depth], start=1):
        ix = plan.index[layer - 1]
        src = ix.src_rows[traversals]
        if layer > 1:  # the source's position among the kept steps below
            src = np.searchsorted(kept[layer - 2][0], src)
        lengths = ix.lengths[steps]
        index.append(LayerIndex(src_rows=_readonly(src),
                                tgt_rows=_readonly(ix.tgt_rows[traversals]),
                                starts=_readonly(np.cumsum(lengths) - lengths),
                                lengths=_readonly(lengths)))
        new_row[bounds[layer - 1] + steps] = base + np.arange(len(steps))
        base += len(steps)
    return Restriction(plan, _readonly(episodes), index,
                       [_readonly(t) for _, t in kept[:depth]], _readonly(new_row[rows]))


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


_NO_INSTANCES = ("episode has no complete instances; dead-end traces must be "
                 "force-stopped before planning")


def build_plan(g: HinGraph, episodes: list[Episode]) -> AggregationDag:
    """Merged, redundancy-free plan for a batch of episodes.

    Built on whole arrays for the batch. Layer l gathers, from every episode
    at least l relations long, the edges of its step n - l. Leaves first, an
    edge survives when its (episode, child) is a surviving parent one layer
    down; every leaf edge survives. Each surviving parent is the step keyed
    (suffix id, local id), shared by every episode that reaches it, and all
    of those episodes must see the same (child, multiplicity) sources.
    """
    schema = g.schema
    n_nodes = max(g.num_nodes.values())  # (episode, node) code = episode * n_nodes + node
    n_eps = len(episodes)
    h0_types = sorted(schema.node_types)  # H0 rows are sorted (type, local id) pairs
    h0_rank = {t: i for i, t in enumerate(h0_types)}

    sig = [(ep.start, ep.path.relations) for ep in episodes]
    paths: dict[tuple[str, ...], int] = {}
    ep_path = np.array([paths.setdefault(rels, len(paths)) for _, rels in sig], dtype=np.intp)
    ep_start = np.array([start[1] for start, _ in sig], dtype=np.int64)
    h0_start = np.array([h0_rank[start[0]] * n_nodes + start[1] for start, rels in sig if not rels],
                        dtype=np.int64)
    suffix_id: dict[tuple[str, ...], int] = {}
    for rels in paths:
        for k in range(len(rels)):
            suffix_id.setdefault(rels[k:], len(suffix_id))
    suffixes = list(suffix_id)  # a suffix fixes its layer, target type and child type
    n_sfx = len(suffixes)
    src_t = [schema.relation(s[0]).src for s in suffixes]
    dst_t = [schema.relation(s[0]).dst for s in suffixes]
    target_h0 = np.array([h0_rank[t] for t in src_t], dtype=np.int64)
    child_h0 = np.array([h0_rank[t] for t in dst_t], dtype=np.int64)
    child_sid = np.array([suffix_id.get(s[1:], -1) for s in suffixes], dtype=np.int64)
    n_layers = max(map(len, paths), default=0)
    layer_sid = np.full((n_layers, len(paths)), -1, dtype=np.int64)  # [l-1, path] -> suffix id
    for j, rels in enumerate(paths):
        for k in range(len(rels)):
            layer_sid[len(rels) - 1 - k, j] = suffix_id[rels[k:]]
    ep_len = np.array(list(map(len, paths)), dtype=np.intp)[ep_path]

    # Step order within a layer is repr(target) order: repr of the node type,
    # then the local id as a decimal string, then repr of the suffix.
    type_rank = {t: i for i, t in enumerate(sorted(schema.node_types, key=repr))}
    major = np.array([type_rank[t] for t in src_t], dtype=np.int64)
    minor = np.empty(n_sfx, dtype=np.int64)
    minor[sorted(range(n_sfx), key=lambda i: repr(suffixes[i]))] = np.arange(n_sfx)
    width = len(str(n_nodes - 1))
    id_span = 10 ** width * (width + 1)

    def step_code(sid: np.ndarray, node: np.ndarray) -> np.ndarray:
        digits = np.ones_like(node)
        for i in range(1, width):
            digits += node >= 10 ** i
        decimal = node * 10 ** (width - digits) * (width + 1) + digits
        return (major[sid] * id_span + decimal) * n_sfx + minor[sid]

    # every traversed edge of the batch, with its episode and its layer - 1
    traces = [ep.frontier.step_edges[::-1] for ep in episodes]  # leaf step first
    n_steps = np.array([len(t) for t in traces], dtype=np.intp)
    sizes = [len(par) for t in traces for par, _ in t]
    empty = [np.zeros(0, dtype=np.int64)]  # concatenate needs one array
    par_all = np.concatenate(empty + [par for t in traces for par, _ in t])
    chi_all = np.concatenate(empty + [chi for t in traces for _, chi in t])
    own_all = np.repeat(np.repeat(np.arange(n_eps), n_steps), sizes)
    step_rank = np.arange(n_steps.sum()) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    layer_all = np.repeat(step_rank, sizes)

    built = []  # per layer: step codes, suffix ids and nodes; sources' steps, children, mults
    h0_parts = [h0_start]
    for li in range(n_layers):
        on_layer = layer_all == li
        par, chi, own = par_all[on_layer], chi_all[on_layer], own_all[on_layer]
        if li:
            pos, keep = _find(valid, own * n_nodes + chi)
            reached = np.zeros(len(valid), dtype=bool)
            reached[pos[keep]] = True
            unreached = ~reached & (ep_len[valid // n_nodes] > li)
            if unreached.any():
                raise _not_a_chain(episodes, *divmod(int(valid[np.argmax(unreached)]), n_nodes))
            par, chi, own = par[keep], chi[keep], own[keep]
        valid, v_inv = np.unique(own * n_nodes + par, return_inverse=True)
        v_own, v_node = np.divmod(valid, n_nodes)
        off_start = (ep_len[v_own] == li + 1) & (v_node != ep_start[v_own])
        if off_start.any():
            raise _not_a_chain(episodes, int(v_own[np.argmax(off_start)]), None)
        v_sid = layer_sid[li, ep_path[v_own]]
        codes, v_step = np.unique(step_code(v_sid, v_node), return_inverse=True)
        some = np.empty(len(codes), dtype=np.intp)
        some[v_step] = np.arange(len(v_step))  # any (episode, node) of a step stands for it
        step_sid, step_node = v_sid[some], v_node[some]
        # (step, child, episode) triples with their multiplicities: every
        # episode reaching a step must see each of its (child, multiplicity)
        triple, mult = np.unique((v_step[v_inv] * n_nodes + chi) * n_eps + own,
                                 return_counts=True)
        pair = triple // n_eps
        lo = np.flatnonzero(np.diff(pair, prepend=-1))
        src_step, child = np.divmod(pair[lo], n_nodes)
        seen_by = np.diff(np.append(lo, len(pair)))
        bad = ((seen_by != np.bincount(v_step)[src_step])
               | (np.minimum.reduceat(mult, lo) != np.maximum.reduceat(mult, lo)))
        if bad.any():
            s = src_step[np.argmax(bad)]
            key = ((src_t[step_sid[s]], int(step_node[s])), suffixes[step_sid[s]])
            raise ValueError(f"inconsistent traces: shared step {key!r} saw two source sets")
        built.append((codes, step_sid, step_node, src_step, child, mult[lo]))
        h0_parts.append(target_h0[step_sid] * n_nodes + step_node)
        if li == 0:
            h0_parts.append(child_h0[step_sid[src_step]] * n_nodes + child)

    h0 = np.sort(np.concatenate(h0_parts))
    h0 = h0[np.diff(h0, prepend=-1) != 0]
    output_rows = np.empty(n_eps, dtype=np.int64)
    output_rows[ep_len == 0] = np.searchsorted(h0, h0_start)
    base = len(h0)
    for li, (codes, *_) in enumerate(built):
        sel = np.flatnonzero(ep_len == li + 1)
        pos, found = _find(codes, step_code(layer_sid[li, ep_path[sel]], ep_start[sel]))
        if not found.all():
            raise ValueError(_NO_INSTANCES)
        output_rows[sel] = base + pos
        base += len(codes)

    index, prev = [], None
    for codes, step_sid, step_node, src_step, child, mult in built:
        lengths = np.add.reduceat(mult, np.flatnonzero(np.diff(src_step, prepend=-1)))
        sid = step_sid[src_step]
        if prev is None:
            src = np.searchsorted(h0, child_h0[sid] * n_nodes + child)
        else:
            src = np.searchsorted(prev, step_code(child_sid[sid], child))
        tgt = np.searchsorted(h0, target_h0[step_sid] * n_nodes + step_node)
        index.append(LayerIndex(
            src_rows=_readonly(np.repeat(src, mult)),
            tgt_rows=_readonly(np.repeat(tgt, lengths)),
            starts=_readonly(np.cumsum(lengths) - lengths),
            lengths=_readonly(lengths),
        ))
        prev = codes
    h0_type, h0_local = np.divmod(h0, n_nodes)
    bounds = np.append(np.flatnonzero(np.diff(h0_type, prepend=-1)), len(h0))
    return AggregationDag(
        episodes_sig=sig,
        kind="merged",
        index=index,
        h0_groups=[(h0_types[h0_type[a]], _readonly(h0_local[a:b]))
                   for a, b in zip(bounds[:-1], bounds[1:])],
        output_rows=_readonly(output_rows),
        derive_views=partial(_merged_views, sig, suffixes, src_t, dst_t,
                             [b[1:] for b in built]),
    )


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in sorted_keys, and whether it is there."""
    pos = np.searchsorted(sorted_keys, keys)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == keys[found]
    return pos, found


def _not_a_chain(episodes: list[Episode], e: int, node: int | None) -> ValueError:
    where = ("its first step leaves from another node than the start" if node is None
             else f"a step leaves from local node {node}, which the step before did not reach")
    return ValueError(f"frontier of the episode starting at {episodes[e].start!r} is not "
                      f"one expansion chain: {where}")


def _merged_views(sig, suffixes, src_t, dst_t, layers_arrays) -> tuple[list[list[PlanStep]], list[Key]]:
    """The merged plan's steps and output keys, derived from its arrays."""
    layers = []
    for layer, (step_sid, step_node, src_step, child, mult) in enumerate(layers_arrays, start=1):
        bounds = np.append(np.flatnonzero(np.diff(src_step, prepend=-1)), len(src_step)).tolist()
        child, mult = child.tolist(), mult.tolist()
        steps = []
        for s, (sid, p) in enumerate(zip(step_sid.tolist(), step_node.tolist())):
            suffix, t, ct = suffixes[sid], src_t[sid], dst_t[sid]
            kids = zip(child[bounds[s]:bounds[s + 1]], mult[bounds[s]:bounds[s + 1]])
            if layer == 1:
                sources = [(("h0", ct, c), m) for c, m in kids]
            else:
                sources = [(((ct, c), suffix[1:]), m) for c, m in kids]
            steps.append(PlanStep(((t, p), suffix), (t, p), suffix[0], layer, sources))
        layers.append(steps)
    return layers, [(start, rels) if rels else ("h0",) + start for start, rels in sig]


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
                raise ValueError(_NO_INSTANCES)
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
        episodes_sig=sig,
        kind=kind,
        derive_views=lambda: (layers, outputs),
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
    out: list[tuple[int, ...]] = []
    chain = [start[1]]

    def rec(k: int):
        if k == len(path.relations):
            out.append(tuple(chain))
            return
        for c in neighbors_local(g, chain[-1], path.relations[k]):
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
