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
from rlhgnn.hin import HinGraph, HinSchema, NodeId, RelationType, SchemaError, build_graph
from rlhgnn.metapath import (
    Frontier,
    MetaPath,
    expand_frontier,
    stop_index,
    valid_actions,
)
from rlhgnn.model import LEAKY_SLOPE, HgnnParams, backward, classify, cross_entropy, hgnn_forward


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
# Per-op tape ops: the autodiff ops that only the references below record,
# as they were in rlhgnn.autodiff before every recorded node in the program
# became a whole stage with a hand-written backward.


def const(value) -> ad.Var:
    return ad.Var(value)


def add(a: ad.Var, b: ad.Var) -> ad.Var:
    return ad.Var(a.value + b.value, (a, b), lambda g: (
        ad.unbroadcast(g, a.value.shape), ad.unbroadcast(g, b.value.shape)))


def sub(a: ad.Var, b: ad.Var) -> ad.Var:
    return ad.Var(a.value - b.value, (a, b), lambda g: (
        ad.unbroadcast(g, a.value.shape), ad.unbroadcast(-g, b.value.shape)))


def mul_const(a: ad.Var, c) -> ad.Var:
    """Multiply by a constant array; no grad for c."""
    c = np.asarray(c, dtype=np.float64)
    return ad.Var(a.value * c, (a,), lambda g: (ad.unbroadcast(g * c, a.value.shape),))


def matmul(a: ad.Var, b: ad.Var) -> ad.Var:
    return ad.Var(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def relu(a: ad.Var) -> ad.Var:
    mask = a.value > 0
    return ad.Var(a.value * mask, (a,), lambda g: (g * mask,))


def total_mean(a: ad.Var) -> ad.Var:
    n = a.value.size
    return ad.Var(a.value.sum() / n, (a,), lambda g: (np.full_like(a.value, float(g) / n),))


def sum_cols(a: ad.Var) -> ad.Var:
    """Row-wise sum: (n, k) -> (n,)."""
    return ad.Var(a.value.sum(axis=1), (a,),
                  lambda g: (np.repeat(g[:, None], a.value.shape[1], axis=1),))


def vstack(parts: list[ad.Var]) -> ad.Var:
    offs = np.concatenate(([0], np.cumsum([p.value.shape[0] for p in parts])))
    return ad.Var(np.concatenate([p.value for p in parts], axis=0), tuple(parts),
                  lambda g: tuple(g[offs[i]:offs[i + 1]] for i in range(len(parts))))


def square(a: ad.Var) -> ad.Var:
    return ad.Var(a.value * a.value, (a,), lambda g: (2.0 * g * a.value,))


def mul(a: ad.Var, b: ad.Var) -> ad.Var:
    return ad.Var(a.value * b.value, (a, b), lambda g: (
        ad.unbroadcast(g * b.value, a.value.shape),
        ad.unbroadcast(g * a.value, b.value.shape),
    ))


def div(a: ad.Var, b: ad.Var) -> ad.Var:
    return ad.Var(a.value / b.value, (a, b), lambda g: (
        ad.unbroadcast(g / b.value, a.value.shape),
        ad.unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
    ))


def scale(a: ad.Var, s: float) -> ad.Var:
    return ad.Var(a.value * s, (a,), lambda g: (g * s,))


def add_const(a: ad.Var, c) -> ad.Var:
    c = np.asarray(c, dtype=np.float64)
    return ad.Var(a.value + c, (a,), lambda g: (ad.unbroadcast(g, a.value.shape),))


def leaky_relu(a: ad.Var, slope: float = 0.2) -> ad.Var:
    mask = a.value > 0
    return ad.Var(np.where(mask, a.value, slope * a.value), (a,),
                  lambda g: (np.where(mask, g, slope * g),))


def exp(a: ad.Var) -> ad.Var:
    v = np.exp(a.value)
    return ad.Var(v, (a,), lambda g: (g * v,))


def log(a: ad.Var) -> ad.Var:
    return ad.Var(np.log(a.value), (a,), lambda g: (g / a.value,))


def total_sum(a: ad.Var) -> ad.Var:
    return ad.Var(a.value.sum(), (a,), lambda g: (np.full_like(a.value, float(g)),))


def head_dot(x: ad.Var, a: ad.Var) -> ad.Var:
    """Per-head dot product: (n, H, k) . (H, k) -> (n, H)."""
    return ad.Var((x.value * a.value).sum(axis=2), (x, a),
                  lambda g: (g[:, :, None] * a.value, (g[:, :, None] * x.value).sum(axis=0)))


def gather_rows(a: ad.Var, idx, mask: np.ndarray | None = None, keep: float = 1.0) -> ad.Var:
    """Rows `idx` of a, repeats allowed.

    With a bool `mask` of the gathered shape the rows are also dropped out:
    the value is a[idx] * (mask / keep), and the backward scales g by the
    same mask / keep before the scatter, the bits of mul_const over a plain
    gather.
    """
    idx = np.asarray(idx, dtype=np.intp)
    n, k = len(a.value), int(np.prod(a.value.shape[1:]))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather_rows indices must lie in [0, {n}), "
                         f"got {idx.min()}..{idx.max()}")
    value = a.value[idx]
    if mask is not None:
        if mask.dtype != bool or mask.shape != value.shape:
            raise ValueError(f"gather_rows mask must be bool of shape {value.shape}, "
                             f"got {mask.dtype} {mask.shape}")
        value *= mask / keep

    def bw(g):
        if mask is not None:
            g = g * (mask / keep)
        keys = (idx.reshape(-1, 1) * k + np.arange(k)).ravel()
        ga = np.bincount(keys, weights=g.reshape(-1), minlength=n * k)
        return (ga.astype(np.float64, copy=False).reshape(a.value.shape),)

    return ad.Var(value, (a,), bw)


def _segment_ends(lengths: np.ndarray) -> np.ndarray:
    if lengths.size and lengths.min() < 1:
        raise ValueError(f"segment lengths must be >= 1, got {lengths.min()}")
    return lengths.cumsum()


def segment_sum(a: ad.Var, starts, lengths) -> ad.Var:
    """Sum contiguous row segments: (n, ...) -> (m, ...) with m = len(starts).

    The segments must tile the rows: every length >= 1, starts the exclusive
    cumsum of lengths, lengths summing to n.
    """
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = _segment_ends(lengths)
    if (starts.shape != lengths.shape or (ends[-1] if ends.size else 0) != len(a.value)
            or (starts != ends - lengths).any()):
        raise ValueError("segment starts must be the exclusive cumsum of lengths, "
                         "and the lengths must sum to the row count")
    v = (np.add.reduceat(a.value, starts, axis=0) if len(starts)
         else np.zeros((0,) + a.value.shape[1:]))
    return ad.Var(v, (a,), lambda g: (np.repeat(g, lengths, axis=0),))


def repeat_rows(a: ad.Var, lengths) -> ad.Var:
    """Repeat row i lengths[i] >= 1 times (inverse layout of segment_sum)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = _segment_ends(lengths) - lengths

    def bw(g):
        if len(starts) == 0:
            return (np.zeros_like(a.value),)
        return (np.add.reduceat(g, starts, axis=0),)

    return ad.Var(np.repeat(a.value, lengths, axis=0), (a,), bw)


def reshape(a: ad.Var, shape) -> ad.Var:
    return ad.Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


# ---------------------------------------------------------------------------
# Reference per-op tapes: the HGNN's projection, hgnn_forward, classify and
# cross_entropy as they recorded one Var per op, about twenty per
# aggregation layer, and the TD loss with its Q-network forward, before each
# became one Var with a hand-written backward. The oracle tests require the
# fused nodes to give the same bits, in values and in every parameter
# gradient.


def per_op_layer_compute(
    params: HgnnParams,
    layer: int,
    S: ad.Var,
    T0: ad.Var,
    starts: np.ndarray,
    lengths: np.ndarray,
    messages_from_target: bool = False,
) -> ad.Var:
    """Aggregate per-traversal rows into per-step outputs with parameter set
    `layer`, all heads at once: head h is column block h*hd:(h+1)*hd."""
    heads, hd = params.heads, params.head_dim
    W = params.table[f"layer{layer - 1}:W"]
    WS = reshape(matmul(S, W), (-1, heads, hd))
    WT = reshape(matmul(T0, W), (-1, heads, hd))
    es = head_dot(WS, params.table[f"layer{layer - 1}:attn_src"])  # (n, heads)
    et = head_dot(WT, params.table[f"layer{layer - 1}:attn_dst"])
    e = leaky_relu(add(es, et), LEAKY_SLOPE)
    seg_max = np.maximum.reduceat(e.value, starts, axis=0)  # shift-invariant, no grad
    z = exp(add_const(e, -np.repeat(seg_max, lengths, axis=0)))
    alpha = div(z, repeat_rows(segment_sum(z, starts, lengths), lengths))
    val = WT if messages_from_target else WS
    weighted = reshape(mul(reshape(alpha, (-1, heads, 1)), val), (-1, params.d))
    summed = segment_sum(weighted, starts, lengths)
    return relu(mul_const(summed, (1.0 / lengths)[:, None]))


def per_op_project_attributes(
    params: HgnnParams, g: HinGraph, groups: list[tuple[str, np.ndarray]]
) -> ad.Var:
    """H0 rows for runs of (node type, local ids), run after run in the given
    order: H0[i] = x_i . M_type, one matmul per run and a vstack."""
    parts: list[ad.Var] = []
    for t, ids in groups:
        proj = params.table.get(f"proj:{t}")
        if proj is None:
            raise ValueError(f"no projection for node type {t!r}")
        parts.append(matmul(const(g.attributes[t][np.asarray(ids, dtype=np.intp)]), proj))
    if not parts:
        return const(np.zeros((0, params.d)))
    return vstack(parts) if len(parts) > 1 else parts[0]


def per_op_forward(
    params: HgnnParams,
    g: HinGraph,
    dag: AggregationDag,
    mode: str = "eval",
    seed: int = 0,
    messages_from_target: bool = False,
) -> ad.Var:
    """Evaluate the plan's compiled index arrays layer by layer, one Var per op."""
    if mode not in ("eval", "train"):
        raise ValueError(f"unknown mode {mode!r}")
    keep = 1.0 - params.dropout
    rng = np.random.default_rng([seed]) if mode == "train" and params.dropout > 0 else None

    h0 = per_op_project_attributes(params, g, dag.h0_groups)
    matrices = [h0]  # matrices[l] = layer-l outputs, one row per step
    for layer, ix in enumerate(dag.index, start=1):
        mask_s = mask_t = None
        if rng is not None:  # inverted dropout on the gathered rows, S's mask first
            mask_s = rng.random((len(ix.src_rows), params.d)) < keep
            mask_t = rng.random((len(ix.tgt_rows), params.d)) < keep
        S = gather_rows(matrices[-1], ix.src_rows, mask_s, keep)
        T0 = gather_rows(h0, ix.tgt_rows, mask_t, keep)
        matrices.append(per_op_layer_compute(params, layer, S, T0, ix.starts, ix.lengths,
                                             messages_from_target))
    stacked = vstack(matrices) if len(matrices) > 1 else h0
    outputs = gather_rows(stacked, dag.output_rows)
    outputs.check_finite("episode representations")
    return outputs


def per_op_classify(params: HgnnParams, reps: ad.Var) -> ad.Var:
    """Class probability rows: softmax(reps . W_c + b_c)."""
    logits = add(matmul(reps, params.table["classifier:W"]), params.table["classifier:b"])
    zmax = logits.value.max(axis=1, keepdims=True)  # shift-invariant, no grad
    ez = exp(add_const(logits, -zmax))
    return div(ez, reshape(sum_cols(ez), (-1, 1)))


def per_op_cross_entropy(probs: ad.Var, labels: np.ndarray, rows: np.ndarray) -> ad.Var:
    """-sum over `rows` of log probability of the true class."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) == 0:
        raise ValueError("cross entropy over an empty node set")
    sel = gather_rows(probs, rows)
    onehot = np.zeros(sel.value.shape)
    onehot[np.arange(len(rows)), labels[rows]] = 1.0
    picked = sum_cols(mul_const(sel, onehot))
    return scale(total_sum(log(picked)), -1.0)


def per_op_td_loss(qnet, target_net, batch: TransitionBatch, gamma: float) -> ad.Var:
    """Mean squared TD error with the Q-network's forward recorded op by op."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    tq = target_net.values(batch.s_next)
    tq = np.where(batch.next_mask, tq, -np.inf)
    max_next = tq.max(axis=1)
    max_next = np.where(batch.terminal, 0.0, max_next)
    y = batch.r + gamma * max_next * (~batch.terminal)
    Q = const(np.atleast_2d(batch.s))
    for i, (w, b) in enumerate(zip(qnet.weights, qnet.biases)):
        Q = add(matmul(Q, w), b)
        if i < len(qnet.weights) - 1:
            Q = relu(Q)
    onehot = np.zeros((len(batch), qnet.num_actions))
    onehot[np.arange(len(batch)), batch.a] = 1.0
    picked = sum_cols(mul_const(Q, onehot))
    return total_mean(square(sub(const(y), picked)))


# ---------------------------------------------------------------------------
# Reference tape: the gather_rows scatter, gather-then-dropout and the reverse
# walk as they were before the scatter became one bincount, dropout moved
# into the gather and the walk began releasing interior nodes. The tape tests
# require the current ones to give the same bits.


def reference_scatter_rows(shape, idx, g: np.ndarray) -> np.ndarray:
    """gather_rows' old backward: np.add.at into zeros of the gathered shape."""
    ga = np.zeros(shape)
    np.add.at(ga, np.asarray(idx, dtype=np.intp), g)
    return ga


def reference_dropout_rows(a: ad.Var, idx, mask: np.ndarray, keep: float) -> ad.Var:
    """Gather-then-dropout as two ops, as hgnn_forward recorded it before
    gather_rows took the mask: the rows, then mul_const by a float mask."""
    return mul_const(gather_rows(a, idx), mask / keep)


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
    groups = [(t, [n for _, n in run]) for t, run in groupby(nodes, key=lambda n: n[0])]
    return (per_op_project_attributes(params, g, groups),
            {n: i for i, n in enumerate(nodes)})


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
    W = params.table[f"layer{layer - 1}:W"]
    WS = matmul(S, W)
    WT = matmul(T0, W)
    a_src = params.table[f"layer{layer - 1}:attn_src"]
    a_dst = params.table[f"layer{layer - 1}:attn_dst"]
    inv_len = (1.0 / lengths)[:, None]
    outs = []
    for h in range(heads):
        lo, hi = h * hd, (h + 1) * hd
        WS_h = slice_cols(WS, lo, hi)
        WT_h = slice_cols(WT, lo, hi)
        a_s = gather_rows(a_src, [h])  # (1, hd)
        a_d = gather_rows(a_dst, [h])
        es = reshape(sum_cols(mul(WS_h, a_s)), (-1, 1))
        et = reshape(sum_cols(mul(WT_h, a_d)), (-1, 1))
        e = leaky_relu(add(es, et), LEAKY_SLOPE)
        seg_max = np.maximum.reduceat(e.value[:, 0], starts)  # shift-invariant, no grad
        z = exp(add_const(e, -np.repeat(seg_max, lengths)[:, None]))
        denom = repeat_rows(segment_sum(z, starts, lengths), lengths)
        alpha = div(z, denom)
        val = WT_h if messages_from_target else WS_h
        summed = segment_sum(mul(alpha, val), starts, lengths)
        outs.append(mul_const(summed, inv_len))
    return relu(hstack(outs))


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
        S = gather_rows(prev, np.asarray(src_rows, dtype=np.intp))
        T0 = gather_rows(h0_var, np.asarray(tgt_rows, dtype=np.intp))
        if train and params.dropout > 0:
            S = mul_const(S, (rng.random(S.value.shape) < keep) / keep)
            T0 = mul_const(T0, (rng.random(T0.value.shape) < keep) / keep)
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
        parts.append(gather_rows(matrices[owner], np.asarray(by_matrix[owner], dtype=np.intp)))
        off += len(by_matrix[owner])
    stacked = vstack(parts) if len(parts) > 1 else parts[0]
    perm = np.asarray([offsets[o] + i for o, i in positions], dtype=np.intp)
    outputs = gather_rows(stacked, perm)
    outputs.check_finite("episode representations")
    return outputs


def full_train_step(params: HgnnParams, g: HinGraph, plan: AggregationDag, labels: np.ndarray,
                    rows: np.ndarray, seed: int, messages_from_target: bool = False
                    ) -> list[np.ndarray]:
    """The unrestricted train step: a train-mode pass over every episode of
    the plan, the classifier, cross entropy over `rows` and backward. Returns
    the loss, then each parameter's gradient in the table's order; a pass
    over the plan restricted to `rows` must give their bits."""
    outputs = hgnn_forward(params, g, plan, "train", seed, messages_from_target).outputs
    loss = cross_entropy(classify(params, outputs), labels, rows)
    return [loss.value] + backward(loss, params.all_vars())


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
# Reference agent step: the per-episode action selection, `_act` on mutable
# episode records and the deque replay buffer as they were before the agent
# step was batched, and the random legal episodes' own extension loop. The
# equivalence tests require the current code to give equal actions, paths,
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


@dataclass
class ReferenceEpisode:
    """The loops' mutable episode record before episodes became frozen
    values; reference_act updates it in place."""

    node: NodeId
    path: MetaPath
    frontier: Frontier
    stopped: bool = False


def reference_fresh_episodes(g: HinGraph, nodes: np.ndarray) -> list[ReferenceEpisode]:
    out = []
    t = g.target_type
    for local in nodes:
        node = (t, int(local))
        out.append(ReferenceEpisode(node=node, path=MetaPath(t), frontier=Frontier.initial(node)))
    return out


def reference_act(g: HinGraph, cfg, episodes: list[ReferenceEpisode], states: np.ndarray, qnet,
                  eps: float, rng: np.random.Generator, timestep_for_fixed: int | None = None):
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


def reference_random_legal_episodes(g: HinGraph, nodes: np.ndarray, length: int, seed: int,
                                    fan_out_cap: int | None = None) -> list[Episode]:
    """pipeline.random_legal_episodes with its own extension loop, as it was
    before episodes became frozen values."""
    rng = np.random.default_rng(seed)
    episodes = []
    for local in nodes:
        node = (g.target_type, int(local))
        path = MetaPath(g.target_type)
        frontier = Frontier.initial(node)
        for _ in range(length):
            legal = g.schema.relations_from(path.end_type(g.schema))
            if not legal:
                break
            rel = legal[int(rng.integers(len(legal)))].name
            nxt = expand_frontier(g, frontier, rel, fan_out_cap, seed)
            if len(nxt.reached) == 0:
                break
            path = extend_path(path, rel, g.schema)
            frontier = nxt
        episodes.append(Episode(node, path, frontier))
    return episodes


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
    W = params.table[f"layer{layer - 1}:W"].value
    ws = source_reps @ W[:, lo:hi]
    wt = target_rep @ W[:, lo:hi]
    e = (ws @ params.table[f"layer{layer - 1}:attn_src"].value[head]
         + wt @ params.table[f"layer{layer - 1}:attn_dst"].value[head])
    e = np.where(e > 0, e, LEAKY_SLOPE * e)
    e = e - e.max()
    z = np.exp(e)
    return z / z.sum()


# ---------------------------------------------------------------------------
# Graph, path and gradient tools that only the tests call


def neighbors(g: HinGraph, node: NodeId, relation: str) -> np.ndarray:
    """Targets of `relation` edges leaving `node`, ascending, duplicates kept."""
    r = g.schema.relation(relation)
    node_type, local = node
    if node_type != r.src:
        raise SchemaError(
            f"node type {node_type!r} does not match relation {relation!r} source {r.src!r}"
        )
    indptr, indices = g.edges[relation]
    if not 0 <= local < g.num_nodes[node_type]:
        raise SchemaError(f"node id {local} out of range for type {node_type!r}")
    return indices[indptr[local]:indptr[local + 1]]


def extend_path(path: MetaPath, relation: str, schema: HinSchema) -> MetaPath:
    """Return a new path with `relation` appended; the original is unchanged."""
    r = schema.relation(relation)
    if r.src != path.end_type(schema):
        raise SchemaError(
            f"cannot extend: relation {relation!r} starts at {r.src!r}, "
            f"path terminal is {path.end_type(schema)!r}"
        )
    return MetaPath(path.start_type, path.relations + (relation,))


def finite_diff_check(
    params: list[ad.Var],
    loss_fn,
    eps: float = 1e-5,
    num_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between recorded gradients and central differences.

    loss_fn() must rebuild the graph from the current parameter values and
    return the scalar loss Var. Relative error per coordinate is
    |g_ad - g_fd| / max(1e-6, |g_ad| + |g_fd|).
    """
    if eps <= 0:
        raise ValueError("finite-difference step must be positive")
    loss = loss_fn()
    if not np.isfinite(loss.value):
        raise ValueError("non-finite loss")
    grads = backward(loss, params)
    sizes = np.array([p.value.size for p in params])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(num_coords, total), replace=False)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    worst = 0.0
    for flat in np.sort(picks):
        pi = int(np.searchsorted(bounds, flat, side="right") - 1)
        local = int(flat - bounds[pi])
        p = params[pi]
        idx = np.unravel_index(local, p.value.shape)
        orig = p.value[idx]
        p.value[idx] = orig + eps
        up = float(loss_fn().value)
        p.value[idx] = orig - eps
        down = float(loss_fn().value)
        p.value[idx] = orig
        g_fd = (up - down) / (2 * eps)
        g_ad = float(grads[pi][idx])
        err = abs(g_ad - g_fd) / max(1e-6, abs(g_ad) + abs(g_fd))
        worst = max(worst, err)
    return worst
