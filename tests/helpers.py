"""Shared builders for the test suite."""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from rlhgnn import autodiff as ad
from rlhgnn.aggplan import (
    AggregationDag,
    Episode,
    Key,
    LayerIndex,
    PlanStep,
    _readonly,
    _surviving_edges,
)
from rlhgnn.agent import _FIELDS, ReplayBuffer, TransitionBatch
from rlhgnn.hin import HinGraph, HinSchema, NodeId, RelationType, build_graph
from rlhgnn.metapath import (
    Frontier,
    MetaPath,
    expand_frontier,
    extend_path,
    stop_index,
    valid_actions,
)
from rlhgnn.model import LEAKY_SLOPE, HgnnParams


def imdb_like_schema(dim_m=4, dim_d=3, dim_a=3) -> HinSchema:
    return HinSchema(
        node_types=("Movie", "Director", "Actor"),
        relation_types=(
            RelationType("M-D", "Movie", "Director"),
            RelationType("D-M", "Director", "Movie"),
            RelationType("M-A", "Movie", "Actor"),
            RelationType("A-M", "Actor", "Movie"),
        ),
        attribute_dims={"Movie": dim_m, "Director": dim_d, "Actor": dim_a},
    )


def imdb_like_graph(n_m=8, n_d=4, n_a=6, seed=0, edges_per_node=2) -> HinGraph:
    """Small movie/director/actor graph with random attributes and edges."""
    rng = np.random.default_rng(seed)
    schema = imdb_like_schema()
    counts = {"Movie": n_m, "Director": n_d, "Actor": n_a}
    edge_lists: dict[str, list[tuple[int, int]]] = {}
    for r in schema.relation_types:
        pairs = []
        for s in range(counts[r.src]):
            k = min(edges_per_node, counts[r.dst])
            for d in sorted(rng.choice(counts[r.dst], size=k, replace=False).tolist()):
                pairs.append((s, int(d)))
        edge_lists[r.name] = pairs
    attrs = {t: rng.normal(size=(counts[t], schema.attribute_dims[t])) for t in counts}
    labels = rng.integers(0, 3, size=n_m)
    return build_graph(schema, counts, edge_lists, attrs, "Movie", 3, labels)


def save_csv_triples(g: HinGraph, path: str | Path) -> None:
    """Write g in the csv-triples format: the edges file at `path`, one line
    per edge in CSR order, and its schema, attribute and label sidecars."""
    stem = Path(path).with_suffix("")
    schema = {
        "node_types": list(g.schema.node_types),
        "relation_types": [{"name": r.name, "src": r.src, "dst": r.dst}
                           for r in g.schema.relation_types],
        "attribute_dims": dict(g.schema.attribute_dims),
        "target_type": g.target_type,
        "num_classes": g.num_classes,
    }
    Path(f"{stem}.schema.json").write_text(json.dumps(schema))
    for t in g.schema.node_types:  # repr round-trips every finite float
        Path(f"{stem}.attrs.{t}.csv").write_text(
            "".join(",".join(repr(float(x)) for x in row) + "\n" for row in g.attributes[t]))
    Path(f"{stem}.labels.csv").write_text(
        "".join(f"{i},{c}\n" for i, c in enumerate(g.labels.tolist()) if c >= 0))
    lines = []
    for r in g.schema.relation_types:
        indptr, indices = g.edges[r.name]
        for src in range(len(indptr) - 1):
            lines += [f"{r.name},{r.src}:{src},{r.dst}:{dst}\n"
                      for dst in indices[indptr[src]:indptr[src + 1]].tolist()]
    Path(path).write_text("".join(lines))


def random_hin(seed: int, max_nodes: int = 50) -> HinGraph:
    """Random typed graph: <=4 node types, <=8 relations, sparse enough that
    dead ends and empty relations occur."""
    rng = np.random.default_rng(seed)
    n_types = int(rng.integers(2, 5))
    types = tuple(f"T{i}" for i in range(n_types))
    counts = {}
    budget = max_nodes
    for i, t in enumerate(types):
        remaining_types = n_types - i
        hi = max(2, budget - 2 * (remaining_types - 1))
        n = int(rng.integers(2, min(hi, 20) + 1))
        counts[t] = n
        budget -= n
    dims = {t: int(rng.integers(2, 6)) for t in types}
    n_rel = int(rng.integers(2, 9))
    rels = []
    for i in range(n_rel):
        src = types[int(rng.integers(n_types))]
        dst = types[int(rng.integers(n_types))]
        rels.append(RelationType(f"r{i}", src, dst))
    schema = HinSchema(types, tuple(rels), dims)
    edge_lists = {}
    for r in rels:
        pairs = []
        for s in range(counts[r.src]):
            k = int(rng.integers(0, 4))  # zero-degree sources make dead ends
            if k:
                kk = min(k, counts[r.dst])
                for d in sorted(rng.choice(counts[r.dst], size=kk, replace=False).tolist()):
                    pairs.append((s, int(d)))
        edge_lists[r.name] = pairs
    attrs = {t: rng.normal(size=(counts[t], dims[t])) for t in types}
    target = types[0]
    labels = rng.integers(0, 2, size=counts[target])
    return build_graph(schema, counts, edge_lists, attrs, target, 2, labels)


# ---------------------------------------------------------------------------
# Random small schemas, graphs and legal episodes: the property-test corpus
# of the plan builder and of the tape.


@st.composite
def graphs_and_episodes(draw):
    # "T#" sorts before "T" by repr but after it as a plain string
    types = tuple(draw(st.permutations(["T", "T#", "S10", "S2"]))[:draw(st.integers(1, 3))])
    counts = {t: draw(st.integers(1, 14)) for t in types}
    srcs = [types[0]] + [draw(st.sampled_from(types)) for _ in range(draw(st.integers(0, 3)))]
    rels = tuple(RelationType(f"r{i}", s, draw(st.sampled_from(types))) for i, s in enumerate(srcs))
    edge_lists = {  # repeated pairs are parallel edges; some nodes get none
        r.name: draw(st.lists(st.tuples(st.integers(0, counts[r.src] - 1),
                                        st.integers(0, counts[r.dst] - 1)), min_size=1, max_size=30))
        for r in rels
    }
    dims = {t: 2 for t in types}
    schema = HinSchema(types, rels, dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    attrs = {t: rng.normal(size=(counts[t], dims[t])) for t in types}
    g = build_graph(schema, counts, edge_lists, attrs, types[0], 2)
    cap = draw(st.sampled_from([None, 1, 2, 3]))
    seed = draw(st.integers(0, 3))
    episodes = []
    for _ in range(draw(st.integers(1, 8))):
        start = (types[0], draw(st.integers(0, counts[types[0]] - 1)))
        path, frontier = MetaPath(types[0]), Frontier.initial(start)
        for _ in range(draw(st.integers(0, 3))):  # 0 is stop-at-0
            legal = schema.relations_from(path.end_type(schema))
            if not legal:
                break
            rel = draw(st.sampled_from(legal)).name
            nxt = expand_frontier(g, frontier, rel, cap, seed)
            if len(nxt.reached) == 0:
                break  # a dead end is force-stopped before the step
            path, frontier = MetaPath(types[0], path.relations + (rel,)), nxt
        episodes.append(Episode(start, path, frontier))
    return g, episodes, cap


# ---------------------------------------------------------------------------
# Reference tape: the gather_rows scatter and the reverse walk as they were
# before the scatter became one bincount and the walk began releasing interior
# nodes. The tape tests require the current ones to give the same bits.


def reference_scatter_rows(shape, idx, g: np.ndarray) -> np.ndarray:
    """gather_rows' old backward: np.add.at into zeros of the gathered shape."""
    ga = np.zeros(shape)
    np.add.at(ga, np.asarray(idx, dtype=np.intp), g)
    return ga


def reference_backward(root: ad.Var) -> None:
    """ad.backward before release: .grad on every reachable Var, each copied."""
    if root.value.ndim != 0:
        raise ValueError("backward expects a scalar root")
    order = ad._topo(root)
    for node in order:
        node.grad = None
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.grad is None or node.bw is None:
            continue
        for parent, g in zip(node.parents, node.bw(node.grad)):
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                parent.grad += g


# ---------------------------------------------------------------------------
# Reference forward pass: the per-head attention layer and the per-step
# forward loop as they were before plans were compiled to index arrays and
# heads were batched. The equivalence tests require the current forward to
# match it bit for bit. slice_cols and hstack are the tape ops it used.


def slice_cols(a: ad.Var, lo: int, hi: int) -> ad.Var:
    out = ad.Var(a.value[:, lo:hi], (a,))

    def bw(g):
        ga = np.zeros_like(a.value)
        ga[:, lo:hi] = g
        return (ga,)

    out.bw = bw
    return out


def hstack(parts: list[ad.Var]) -> ad.Var:
    sizes = [p.value.shape[1] for p in parts]
    out = ad.Var(np.concatenate([p.value for p in parts], axis=1), tuple(parts))
    offs = np.concatenate(([0], np.cumsum(sizes)))
    out.bw = lambda g: tuple(g[:, offs[i]:offs[i + 1]] for i in range(len(parts)))
    return out


def reference_project_attributes(
    params: HgnnParams, g: HinGraph, nodes: list[NodeId]
) -> tuple[ad.Var, dict[NodeId, int]]:
    """H0 rows for `nodes` (kept in the given order): H0[i] = x_i . M_type."""
    parts: list[ad.Var] = []
    rows: dict[NodeId, int] = {}
    i = 0
    while i < len(nodes):
        t = nodes[i][0]
        if t not in params.projections:
            raise ValueError(f"no projection for node type {t!r}")
        j = i
        locals_ = []
        while j < len(nodes) and nodes[j][0] == t:
            locals_.append(nodes[j][1])
            j += 1
        X = ad.const(g.attributes[t][np.asarray(locals_, dtype=np.intp)])
        parts.append(ad.matmul(X, params.projections[t]))
        for k, n in enumerate(nodes[i:j]):
            rows[n] = i + k
        i = j
    if not parts:
        return ad.const(np.zeros((0, params.d))), {}
    return ad.vstack(parts) if len(parts) > 1 else parts[0], rows


def reference_layer_compute(
    params: HgnnParams,
    layer: int,
    S: ad.Var,
    T0: ad.Var,
    starts: np.ndarray,
    lengths: np.ndarray,
    messages_from_target: bool = False,
) -> ad.Var:
    """Aggregate per-traversal rows into per-step outputs with parameter set `layer`."""
    heads, hd = params.heads, params.head_dim
    W = params.layer_w[layer - 1]
    WS = ad.matmul(S, W)
    WT = ad.matmul(T0, W)
    a_src = params.layer_attn_src[layer - 1]
    a_dst = params.layer_attn_dst[layer - 1]
    inv_len = (1.0 / lengths)[:, None]
    outs = []
    for h in range(heads):
        lo, hi = h * hd, (h + 1) * hd
        WS_h = slice_cols(WS, lo, hi)
        WT_h = slice_cols(WT, lo, hi)
        a_s = ad.gather_rows(a_src, [h])  # (1, hd)
        a_d = ad.gather_rows(a_dst, [h])
        es = ad.reshape(ad.sum_cols(ad.mul(WS_h, a_s)), (-1, 1))
        et = ad.reshape(ad.sum_cols(ad.mul(WT_h, a_d)), (-1, 1))
        e = ad.leaky_relu(ad.add(es, et), LEAKY_SLOPE)
        seg_max = np.maximum.reduceat(e.value[:, 0], starts)  # shift-invariant, no grad
        z = ad.exp(ad.add_const(e, -np.repeat(seg_max, lengths)[:, None]))
        denom = ad.repeat_rows(ad.segment_sum(z, starts, lengths), lengths)
        alpha = ad.div(z, denom)
        val = WT_h if messages_from_target else WS_h
        summed = ad.segment_sum(ad.mul(alpha, val), starts, lengths)
        outs.append(ad.mul_const(summed, inv_len))
    return ad.relu(hstack(outs))


def reference_forward(
    params: HgnnParams,
    g: HinGraph,
    dag: AggregationDag,
    mode: str = "eval",
    seed: int = 0,
    messages_from_target: bool = False,
) -> ad.Var:
    """Evaluate the plan layer by layer; episodes that stopped at once return
    their projected attributes directly."""
    if mode not in ("eval", "train"):
        raise ValueError(f"unknown mode {mode!r}")
    if not dag.outputs:
        raise ValueError("plan has no episodes")
    train = mode == "train"
    keep = 1.0 - params.dropout
    rng = np.random.default_rng([seed]) if train else None

    h0_var, h0_rows = reference_project_attributes(params, g, dag.h0_nodes)
    key_rows: dict = {}
    for node, row in h0_rows.items():
        key_rows[("h0",) + node] = (0, row)
    matrices = [h0_var]

    for layer_idx, steps in enumerate(dag.layers, start=1):
        if not steps:
            raise ValueError(f"layer {layer_idx} of the plan is empty")
        prev = matrices[layer_idx - 1]
        src_rows: list[int] = []
        tgt_rows: list[int] = []
        lengths = np.zeros(len(steps), dtype=np.intp)
        for si, step in enumerate(steps):
            t_row = h0_rows[step.target_node]
            cnt = 0
            for src_key, mult in step.sources:
                if layer_idx == 1:
                    row = h0_rows[src_key[1], src_key[2]]
                else:
                    owner, row = key_rows[src_key]
                    if owner != layer_idx - 1:
                        raise ValueError("plan source does not come from the previous layer")
                src_rows.extend([row] * mult)
                cnt += mult
            tgt_rows.extend([t_row] * cnt)
            lengths[si] = cnt
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        S = ad.gather_rows(prev, np.asarray(src_rows, dtype=np.intp))
        T0 = ad.gather_rows(h0_var, np.asarray(tgt_rows, dtype=np.intp))
        if train and params.dropout > 0:
            S = ad.mul_const(S, (rng.random(S.value.shape) < keep) / keep)
            T0 = ad.mul_const(T0, (rng.random(T0.value.shape) < keep) / keep)
        out = reference_layer_compute(params, layer_idx, S, T0, starts, lengths, messages_from_target)
        for si, step in enumerate(steps):
            key_rows[step.target] = (layer_idx, si)
        matrices.append(out)

    # stack episode outputs in episode order
    by_matrix: dict[int, list[int]] = {}
    positions: list[tuple[int, int]] = []
    for key in dag.outputs:
        owner, row = key_rows[key]
        by_matrix.setdefault(owner, []).append(row)
        positions.append((owner, len(by_matrix[owner]) - 1))
    offsets: dict[int, int] = {}
    off = 0
    parts = []
    for owner in sorted(by_matrix):
        offsets[owner] = off
        parts.append(ad.gather_rows(matrices[owner], np.asarray(by_matrix[owner], dtype=np.intp)))
        off += len(by_matrix[owner])
    stacked = ad.vstack(parts) if len(parts) > 1 else parts[0]
    perm = np.asarray([offsets[o] + i for o, i in positions], dtype=np.intp)
    outputs = ad.gather_rows(stacked, perm)
    outputs.check_finite("episode representations")
    return outputs


# ---------------------------------------------------------------------------
# Reference merged-plan builder: the per-episode, per-parent dict walk and the
# compile from PlanStep objects, as they were before the merged plan was
# built on whole arrays with integer (suffix, node) keys. The property tests
# require build_plan to match it exactly.


def reference_build_plan(g: HinGraph, episodes: list[Episode]) -> AggregationDag:
    """Merged plan built by walking each episode's parents as dicts."""
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
    return _reference_finish(g, steps, outputs, h0, sig, "merged")


def _reference_finish(g, steps, outputs, h0, sig, kind) -> AggregationDag:
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
        **_reference_compile(layers, outputs, h0_nodes),
    )


def _reference_compile(layers: list[list[PlanStep]], outputs: list[Key], h0_nodes: list[NodeId]) -> dict:
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


# ---------------------------------------------------------------------------
# Transitions one at a time: the reference buffer's record type, and the
# conversions to and from the TransitionBatch rows that the agent stores.


@dataclass
class Transition:
    s: np.ndarray
    a: int
    s_next: np.ndarray
    r: float
    terminal: bool
    next_mask: np.ndarray  # legality of actions in s_next, for the TD max


def stack_transitions(items: list[Transition]) -> TransitionBatch:
    """One TransitionBatch row per record, in order."""
    return TransitionBatch(*(np.array([getattr(t, f) for t in items], dtype=dtype)
                             for f, dtype in _FIELDS.items()))


def unstack_transitions(batch: TransitionBatch) -> list[Transition]:
    return [Transition(s=batch.s[i], a=int(batch.a[i]), s_next=batch.s_next[i],
                       r=float(batch.r[i]), terminal=bool(batch.terminal[i]),
                       next_mask=batch.next_mask[i]) for i in range(len(batch))]


def fifo_rows(buf: ReplayBuffer) -> list[Transition]:
    """Every stored transition, oldest first."""
    return unstack_transitions(buf._take(np.arange(len(buf)))) if len(buf) else []


# ---------------------------------------------------------------------------
# Reference agent step: the per-episode action selection, `_act` and deque
# replay buffer as they were before the agent step was batched. The
# equivalence tests require the batched step to give equal actions,
# frontiers, transitions and generator state.


def reference_select_action(qvals: np.ndarray, legal_mask: np.ndarray, eps: float,
                            rng: np.random.Generator) -> int:
    legal = np.flatnonzero(legal_mask)
    if len(legal) == 0:
        raise ValueError("no legal action")
    if eps > 0 and rng.random() < eps:
        return int(rng.choice(legal))
    q = np.where(legal_mask, qvals, -np.inf)
    return int(np.argmax(q))


def reference_act(g: HinGraph, cfg, episodes, states: np.ndarray, qnet, eps: float,
                  rng: np.random.Generator, timestep_for_fixed: int | None = None):
    """(acting locals, actions, pending transition dicts), per episode."""
    schema = g.schema
    stop = stop_index(schema)
    acting, actions, pending = [], [], []
    active = [e for e in episodes if not e.stopped]
    if not active:
        return acting, actions, pending
    qvals = None
    if cfg.fixed_path is None:
        qvals = qnet.values(states)
    for i, e in enumerate(active):
        at_max = len(e.path) >= cfg.max_timesteps
        mask = valid_actions(schema, e.path.end_type(schema), at_max)
        if cfg.fixed_path is not None:
            k = len(e.path)
            if timestep_for_fixed is not None and k < len(cfg.fixed_path) and not at_max:
                a = schema.relation_index(cfg.fixed_path[k])
                if not mask[a]:
                    raise ValueError(f"fixed path relation {cfg.fixed_path[k]!r} illegal here")
            else:
                a = stop
        else:
            a = reference_select_action(qvals[i], mask, eps, rng)
        s_before = states[i].copy()
        acting.append(e.node[1])
        actions.append(a)
        if a != stop:
            rel = schema.relation_types[a].name
            nxt = expand_frontier(g, e.frontier, rel, cfg.fan_out_cap, cfg.seed)
        if a == stop or len(nxt.reached) == 0:
            e.stopped = True
            pending.append(dict(ep=e, s=s_before, a=a, s_next=s_before, terminal=True,
                                next_mask=mask.copy()))
            continue
        e.path = extend_path(e.path, rel, schema)
        e.frontier = nxt
        now_max = len(e.path) >= cfg.max_timesteps
        next_mask = valid_actions(schema, e.path.end_type(schema), now_max)
        pending.append(dict(ep=e, s=s_before, a=a, s_next=None, terminal=False,
                            next_mask=next_mask))
    return acting, actions, pending


class ReferenceReplayBuffer:
    """Bounded FIFO of Transition objects in a deque."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque[Transition] = deque(maxlen=capacity)

    def push(self, t: Transition) -> None:
        if not np.isfinite(t.r):
            raise ValueError("non-finite reward")
        self._items.append(t)

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        if n > len(self._items):
            raise ValueError(f"batch size {n} exceeds buffer size {len(self._items)}")
        idx = rng.integers(0, len(self._items), size=n)
        return [self._items[int(i)] for i in idx]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


# ---------------------------------------------------------------------------
# Reference attention: one step's weights for one head, in plain numpy


def attention_coefficients(
    params: HgnnParams,
    layer: int,
    head: int,
    source_reps: np.ndarray,
    target_rep: np.ndarray,
) -> np.ndarray:
    """Per-traversal attention weights of one step.

    source_reps has one row per traversed edge (a source reached through two
    edges appears twice); the returned weights sum to 1 over those rows.
    """
    if len(source_reps) == 0:
        raise ValueError("attention over an empty source set")
    hd = params.head_dim
    lo, hi = head * hd, (head + 1) * hd
    W = params.layer_w[layer - 1].value
    ws = source_reps @ W[:, lo:hi]
    wt = target_rep @ W[:, lo:hi]
    e = ws @ params.layer_attn_src[layer - 1].value[head] + wt @ params.layer_attn_dst[layer - 1].value[head]
    e = np.where(e > 0, e, LEAKY_SLOPE * e)
    e = e - e.max()
    z = np.exp(e)
    return z / z.sum()
