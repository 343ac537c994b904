"""Dense neural stack with exact gradients: type projections, shared
attention aggregators, classifier head, losses, Adam and checkpoints.

There are exactly T aggregator parameter sets; layer l of every plan runs
parameter set l, whatever the episode lengths are, so aggregator parameters
total T*u for a single layer's count u. Heads are concatenated at every
layer: each head maps d -> d/heads, so a layer's output stays d-dimensional
and can feed the next layer, the classifier, or both at once when a step is
one episode's final result and another's intermediate.

Attention on a step compares each source's previous-layer representation
with the target's projected raw attributes (the target has received no
update at earlier layers of its own aggregation chain). A degenerate
variant that aggregates the target's features in place of each source's is
available via messages_from_target=True for comparison; it makes every
source contribute an identical term.

The aggregation from the type projections to the episode outputs, the
classifier and the loss each record one autodiff Var whose closure is a
hand-written backward, with the expressions and summation order of the
per-op tape they replaced, which the tests keep as their reference: a
chain, as autodiff.backward walks it (a plan holds each node type's H0 rows
in one run, so the aggregation names each proj:<type> once).
project_attributes itself records nothing: it returns H0 as a plain array.

A train pass may run over a plan restricted to the loss's episodes
(aggplan.restrict). The loss and every gradient keep the bits of the pass
over the whole plan, by these rules:
- H0 keeps the whole plan's rows, so the projection and its gradients
  X_t.T @ g_H0 are unchanged.
- Each episode outside the loss gets a zero output row, so the classifier
  and the loss keep their code and their row counts.
- Each layer's dropout masks are drawn for all of the whole plan's
  traversals, the sources' first, and then the kept rows are selected, so
  the random stream is unchanged.
- A[idx] @ W keeps the row bits of A @ W for 2 or more rows. A lone row
  goes to another kernel, so where the whole layer has more rows it is
  multiplied as two rows.
- The backward's S.T @ g_X and g_X @ W.T must give the bits of the products
  over all of the whole layer's n traversals with zero rows outside the
  kept ones. In layers of d >= 64 that keep 32 or more traversals they are
  compacted to the kept rows:
  - g_X @ W.T is multiplied over the kept rows alone, which keeps their row
    bits from 32 rows up at d = 64 and 128 (fewer rows can take a
    small-matrix kernel).
  - S.T @ g_X is summed as OpenBLAS's single-threaded level-3 driver sums
    an n-long inner dimension: in blocks of Q = 384, except that a
    remainder r with Q < r < 2Q is split in two, the first part r // 2
    rounded up to a multiple of 16. Each block's kept rows, contiguous
    slices of the kept arrays, are multiplied alone; empty blocks are
    skipped, and the block products summed in order.
  A check run once per process compares both compacted products with the
  padded ones on 1,000 traversals of d = 128. Where it fails, as with a
  multi-threaded BLAS or one with other block sizes, and in every other
  layer, the products run over all n traversals with zero rows.
- Every other operation is per row, per step or a sum in which the left-out
  traversals would add zeros.

A train pass records the tape and draws dropout masks. An eval pass does
neither, and it multiplies by W before it gathers. Where prev has 2 or
more rows but fewer than the traversals, the sources' products are
(prev @ W)[src_rows]; at layer 1 prev is H0, and that one product serves
the targets too. Otherwise each step's target row is multiplied once, and
its a_dst logit repeated over the step's traversals; the per-traversal
target products are built only when the messages read them. A train pass
never does this: its backward reads the per-traversal products.

tests/test_restricted_pass.py pins these BLAS behaviours for layers of 2
to 7,000 traversals and matrices of up to 3,800 rows multiplied first,
which covers the largest layers of the scale-pp benchmark workload (6,658
traversals, ~3,800 H0 rows), with BLAS on one thread as the benchmark runs
it; where one fails, the restriction or the multiply-first pass changes
bits there.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .aggplan import AggregationDag, LayerIndex, Restriction, restrict
from .checkpoint import check_arrays, header_fields, read_checkpoint, write_checkpoint
from .hin import OBJECT, HinGraph, HinSchema, Rule, SchemaError, at_least, number

LEAKY_SLOPE = 0.2


def param_shapes(schema: HinSchema, T: int, d: int, heads: int,
                 num_classes: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every HGNN parameter, in the one order that init
    draws them, Adam steps them and checkpoints store them: a projection per
    node type, W, attn_src and attn_dst of each of the T aggregators (head h
    of W owns columns h*hd:(h+1)*hd), then the classifier."""
    hd = d // heads
    shapes = {f"proj:{t}": (schema.attribute_dims[t], d) for t in schema.node_types}
    for i in range(T):
        shapes[f"layer{i}:W"] = (d, d)
        shapes[f"layer{i}:attn_src"] = (heads, hd)
        shapes[f"layer{i}:attn_dst"] = (heads, hd)
    shapes["classifier:W"] = (d, num_classes)
    shapes["classifier:b"] = (1, num_classes)
    return shapes


@dataclass
class HgnnParams:
    schema: HinSchema
    table: dict[str, ad.Var]  # param_shapes' names, in its order
    T: int
    d: int
    heads: int
    num_classes: int
    dropout: float
    seed: int

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    def all_vars(self) -> list[ad.Var]:
        return list(self.table.values())

    def clone(self) -> "HgnnParams":
        """The same parameters with copied values."""
        return replace(self, table={n: ad.param(v.value.copy()) for n, v in self.table.items()})


def _axis_sum(g: np.ndarray, axis: int) -> np.ndarray:
    """g summed over `axis`, kept as length 1; a sum of one would turn -0.0 into 0.0."""
    return g if g.shape[axis] == 1 else g.sum(axis=axis, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def init_params(
    schema: HinSchema,
    num_classes: int,
    max_timesteps: int,
    d: int = 128,
    heads: int = 8,
    dropout: float = 0.5,
    seed: int = 0,
) -> HgnnParams:
    if d % heads != 0:
        raise ValueError("representation dim must be divisible by the head count")
    rng = np.random.default_rng(seed)
    table = {}
    for name, shape in param_shapes(schema, max_timesteps, d, heads, num_classes).items():
        if name == "classifier:b":
            table[name] = ad.param(np.zeros(shape))
        else:  # an attention vector's fans are (head dim, 1)
            fan_in, fan_out = (shape[1], 1) if ":attn_" in name else shape
            table[name] = ad.param(_glorot(rng, fan_in, fan_out, shape))
    return HgnnParams(schema=schema, table=table, T=max_timesteps, d=d, heads=heads,
                      num_classes=num_classes, dropout=dropout, seed=seed)


def project_attributes(
    params: HgnnParams, g: HinGraph, groups: list[tuple[str, np.ndarray]]
) -> np.ndarray:
    """H0 rows for runs of (node type, local ids), run after run in the given
    order: H0[i] = x_i . M_type. A plain array; hgnn_forward's Var takes
    each run's projection as a parent."""
    parts: list[np.ndarray] = []
    for t, ids in groups:
        proj = params.table.get(f"proj:{t}")
        if proj is None:
            raise ValueError(f"no projection for node type {t!r}")
        parts.append(g.attributes[t][np.asarray(ids, dtype=np.intp)] @ proj.value)
    if not parts:
        return np.zeros((0, params.d))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _gather(a: np.ndarray, idx: np.ndarray, mask: np.ndarray | None, keep: float) -> np.ndarray:
    """Rows idx of a; with a bool mask of the gathered shape, inverted
    dropout too: a[idx] * (mask / keep)."""
    rows = a[idx]
    if mask is not None:
        rows *= mask / keep
    return rows


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Backward of a[idx] for an (n, k) array a: row r sums g[i] over every
    i with idx[i] == r."""
    k = g.shape[1]
    # One key per output element. bincount adds each key's weights in input
    # order from 0.0, as np.add.at does, so the sums are bit-equal; with no
    # keys it returns int64 zeros.
    keys = (idx.reshape(-1, 1) * k + np.arange(k)).ravel()
    ga = np.bincount(keys, weights=g.reshape(-1), minlength=n * k)
    return ga.astype(np.float64, copy=False).reshape(n, k)


def _layer_params(params: HgnnParams, layer: int) -> list[ad.Var]:
    return [params.table[f"layer{layer - 1}:{k}"] for k in ("W", "attn_src", "attn_dst")]


def _kept(a: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Rows `kept` (ascending) of a; a itself when every row is kept."""
    return a if len(kept) == len(a) else a[kept]


def _spread(a: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """a's rows placed at rows `kept` of n rows of zeros; a itself when it
    has n rows."""
    if len(a) == n:
        return a
    out = np.zeros((n,) + a.shape[1:])
    out[kept] = a
    return out


def _times(a: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """a @ w for rows of an n-row matrix, with the bits those rows have in
    the n-row product: a lone row is multiplied as two rows, since a 1-row
    product takes another kernel."""
    if len(a) == 1 < n:
        return (np.repeat(a, 2, axis=0) @ w)[:1]
    return a @ w


# OpenBLAS's K block for double GEMM (GEMM_Q) and the unroll that rounds a
# halved remainder (GEMM_UNROLL_M), in the single-threaded level-3 driver
_GEMM_Q, _GEMM_UNROLL_M = 384, 16
# the backward compacts layers of d >= 64 that keep >= 32 traversals: below
# these the compacted products differ (tests/test_restricted_pass.py)
_COMPACT_MIN_D, _COMPACT_MIN_ROWS = 64, 32


def _k_blocks(n: int) -> np.ndarray:
    """Bounds of the blocks in which OpenBLAS's level-3 driver sums an
    n-long inner dimension, by the block rule in the module docstring."""
    bounds = [0]
    while bounds[-1] < n:
        r = n - bounds[-1]
        if r >= 2 * _GEMM_Q:
            r = _GEMM_Q
        elif r > _GEMM_Q:
            r = -(-(r // 2) // _GEMM_UNROLL_M) * _GEMM_UNROLL_M
        bounds.append(bounds[-1] + r)
    return np.array(bounds)


def _blocked_tn(a: np.ndarray, b: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """a.T @ b, where a and b are the rows `kept` (ascending, at least one)
    of two n-row matrices whose other rows are zero, with the bits of the
    n-row product: per block of _k_blocks(n), the kept rows in it are
    multiplied alone, and the block products are summed in order."""
    cuts = np.searchsorted(kept, _k_blocks(n))
    out = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo < hi:
            part = a[lo:hi].T @ b[lo:hi]
            if out is None:
                out = part
            else:
                out += part
    return out


@functools.cache
def _compaction_holds() -> bool:
    """Whether this process's BLAS gives the compacted backward products
    the padded ones' bits, on 250 kept of 1,000 traversals of d = 128: its
    blocks of 384, 320 and 296 include a halved remainder."""
    rng = np.random.default_rng(0)
    n, d = 1000, 128
    kept = np.sort(rng.choice(n, size=250, replace=False))
    S, G = rng.normal(size=(len(kept), d)), rng.normal(size=(len(kept), d))
    W = rng.normal(size=(d, d))
    G_pad = _spread(G, kept, n)
    return (_blocked_tn(S, G, kept, n).tobytes() == (_spread(S, kept, n).T @ G_pad).tobytes()
            and (G @ W.T).tobytes() == (G_pad @ W.T)[kept].tobytes())


def _multiply_first(
    prev: np.ndarray, h0: np.ndarray, ix: LayerIndex, W: np.ndarray, n: int,
    a_dst: np.ndarray, messages_from_target: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """An unrecorded pass's W products without dropout, multiplied before
    they are gathered: WS = (prev @ W)[ix.src_rows] where prev has 2 or
    more rows but fewer than the gather, and each step's target row
    multiplied once. Returns WS, the per-traversal WT when the messages
    read it (else None), and the per-traversal a_dst logits; each has the
    bits of the gather-first products, since A[idx] @ W keeps the row bits
    of A @ W for 2 or more rows."""
    heads, hd = a_dst.shape
    starts, lengths = ix.starts, ix.lengths
    PW = prev @ W if 2 <= len(prev) < len(ix.src_rows) else None
    WS = _times(prev[ix.src_rows], W, n) if PW is None else PW[ix.src_rows]
    tgt = ix.tgt_rows[starts]  # a step's traversals share its target
    # at layer 1 prev is H0, so one product serves both sides
    WT = PW[tgt] if PW is not None and prev is h0 else _times(h0[tgt], W, n)
    WT = WT.reshape(-1, heads, hd)
    s_dst = np.repeat((WT * a_dst).sum(axis=2), lengths, axis=0)
    WT = np.repeat(WT, lengths, axis=0) if messages_from_target else None
    return WS.reshape(-1, heads, hd), WT, s_dst


def _layer_forward(
    params: HgnnParams,
    layer: int,
    prev: np.ndarray,
    h0: np.ndarray,
    ix: LayerIndex,
    masks: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    messages_from_target: bool = False,
    n: int | None = None,
    record: bool = True,
) -> tuple[np.ndarray, tuple]:
    """Aggregate per-traversal rows, S = prev[ix.src_rows] from the sources
    and T0 = h0[ix.tgt_rows] from the targets, each with inverted dropout by
    its mask, into per-step outputs with parameter set `layer`, all heads at
    once: head h is column block h*hd:(h+1)*hd. n is the traversal count of
    the whole plan's layer when ix keeps only some. Returns the outputs and
    what _layer_backward needs; S and T0 are freed as soon as W has mapped
    them. An unrecorded pass, which draws no masks, multiplies before it
    gathers (_multiply_first); a recorded one never does, since its backward
    reads the per-traversal WT."""
    heads, hd, keep = params.heads, params.head_dim, 1.0 - params.dropout
    W, a_src, a_dst = (v.value for v in _layer_params(params, layer))
    starts, lengths = ix.starts, ix.lengths
    n = len(ix.src_rows) if n is None else n
    if not record:
        WS, WT, s_dst = _multiply_first(prev, h0, ix, W, n, a_dst, messages_from_target)
    else:
        WS = _times(_gather(prev, ix.src_rows, masks[0], keep), W, n).reshape(-1, heads, hd)
        WT = _times(_gather(h0, ix.tgt_rows, masks[1], keep), W, n).reshape(-1, heads, hd)
        s_dst = (WT * a_dst).sum(axis=2)
    s = (WS * a_src).sum(axis=2) + s_dst  # (traversals, heads)
    up = s > 0
    e = np.where(up, s, LEAKY_SLOPE * s)
    seg_max = np.maximum.reduceat(e, starts, axis=0)  # shift-invariant, no grad
    z = np.exp(e + -np.repeat(seg_max, lengths, axis=0))
    den = np.repeat(np.add.reduceat(z, starts, axis=0), lengths, axis=0)
    alpha = (z / den).reshape(-1, heads, 1)
    msgs = (alpha * (WT if messages_from_target else WS)).reshape(-1, params.d)
    mean = np.add.reduceat(msgs, starts, axis=0) * (1.0 / lengths)[:, None]
    on = mean > 0
    return mean * on, (WS, WT, up, z, den, alpha, on)


def _layer_backward(
    params: HgnnParams,
    layer: int,
    prev: np.ndarray,
    h0: np.ndarray,
    ix: LayerIndex,
    kept: np.ndarray,
    saves: list[tuple],
    g: np.ndarray,
    messages_from_target: bool,
    n: int,
) -> tuple[np.ndarray, ...]:
    """Backward of one aggregation layer from g, the gradient of its outputs.

    Pops the layer's saved arrays off `saves`: the dropout masks, W's
    products and the attention's (traversals, heads) arrays. S and T0 are
    gathered again from prev and h0 with the same masks, so their bits are
    the forward's. Each (traversals, d) array is dropped at its last use;
    the side whose W product carried the messages goes first, so that
    gradient dies early. The products S.T @ g_X and g_X @ W.T have the bits
    of the whole plan's layer: compacted to the `kept` traversals where the
    module docstring's rules allow, else over the whole plan's n traversals
    with zero rows outside the kept ones. Returns the gradients of prev's
    rows, of h0's rows through the targets, and of W, attn_src and
    attn_dst."""
    mask_s, mask_t, WS, WT, up, z, den, alpha, on = saves.pop()
    heads, hd, d, keep = params.heads, params.head_dim, params.d, 1.0 - params.dropout
    W, a_src, a_dst = (v.value for v in _layer_params(params, layer))
    starts, lengths = ix.starts, ix.lengths
    # relu, the 1/length mean and its segment sum, back to traversals
    g = np.repeat(g * on * (1.0 / lengths)[:, None], lengths, axis=0).reshape(-1, heads, hd)
    del on
    g_alpha = _axis_sum(g * (WT if messages_from_target else WS), 2)
    g_msgs = g * alpha
    del g, alpha
    # alpha = z / den, den the segment sums of z; z = exp(e - max); leaky e
    g_alpha = g_alpha.reshape(-1, heads)
    g_z = g_alpha / den
    g_z += np.repeat(np.add.reduceat(-g_alpha * z / (den * den), starts, axis=0), lengths, axis=0)
    g_s = g_z * z
    g_s = np.where(up, g_s, LEAKY_SLOPE * g_s)[:, :, None]
    del g_alpha, g_z, z, den, up
    g_a_src = (g_s * WS).sum(axis=0)
    del WS
    g_a_dst = (g_s * WT).sum(axis=0)
    del WT

    sides = [(prev, ix.src_rows, mask_s, a_src), (h0, ix.tgt_rows, mask_t, a_dst)]
    if messages_from_target:
        sides.reverse()
    del mask_s, mask_t
    compact = d >= _COMPACT_MIN_D and _COMPACT_MIN_ROWS <= len(kept) < n and _compaction_holds()
    scattered = []
    for first in (True, False):
        rows, idx, mask, a = sides.pop(0)
        g_X = g_s * a  # through the attention logits
        if first:
            g_X += g_msgs
            del g_msgs
        g_X = g_X.reshape(-1, d)
        if compact:
            g_W_part = _blocked_tn(_gather(rows, idx, mask, keep), g_X, kept, n)
            g_X = g_X @ W.T
        else:
            g_X = _spread(g_X, kept, n)
            g_W_part = _spread(_gather(rows, idx, mask, keep), kept, n).T @ g_X
            g_X = _kept(g_X @ W.T, kept)
        g_W = g_W_part if first else g_W + g_W_part
        if mask is not None:
            g_X *= mask / keep
        scattered.append(_scatter_rows(g_X, idx, len(rows)))
        del g_X, mask
    if messages_from_target:
        scattered.reverse()
    return (*scattered, g_W, g_a_src, g_a_dst)


@dataclass
class ForwardResult:
    outputs: ad.Var  # (num episodes, d), one row per dag.output_rows entry


def hgnn_forward(
    params: HgnnParams,
    g: HinGraph,
    dag: AggregationDag | Restriction,
    mode: str = "eval",
    seed: int = 0,
    messages_from_target: bool = False,
) -> ForwardResult:
    """Evaluate a plan's compiled index arrays layer by layer; episodes that
    stopped at once return their projected attributes directly.

    `dag` is a plan, which reads as its restriction to every episode, or a
    restriction of one (aggplan.restrict): then only the kept episodes'
    steps run, and every other episode gets a zero output row. Either way
    the kept outputs and every gradient a loss over the kept episodes gives
    have the bits of the whole plan's pass, by the rules in the module
    docstring.

    Everything from the type projections to the outputs is one Var. Its
    closure walks the layers from the last to the first and frees each
    layer's saved arrays as it leaves the layer. H0's gradient adds its
    terms in the order a tape of one Var per op did, for equal bits: the
    outputs' share first, then layer L's to layer 1's target rows, then
    layer 1's source rows; with messages_from_target, layer 1's source rows,
    then layer 1's to layer L's target rows. Each run of H0 rows then gives
    its projection the gradient X_t.T @ g_H0[run].

    Only a train pass records and draws dropout masks. An eval pass saves
    nothing: its outputs have no tape, and a backward through them raises
    ValueError rather than give the HGNN zero gradients. For gradients
    without dropout, run a train pass on replace(params, dropout=0.0)."""
    if mode not in ("eval", "train"):
        raise ValueError(f"unknown mode {mode!r}")
    part = dag if isinstance(dag, Restriction) else restrict(dag)
    plan = part.plan
    if not len(plan.output_rows):
        raise ValueError("plan has no episodes")
    if len(plan.index) > params.T:
        raise ValueError(f"plan has {len(plan.index)} aggregation layers but the model "
                         f"has T={params.T} aggregator parameter sets")
    keep = 1.0 - params.dropout
    record = mode == "train"
    rng = np.random.default_rng([seed]) if record and params.dropout > 0 else None
    counts = [len(ix.src_rows) for ix in plan.index]  # the whole plan's traversals

    h0 = project_attributes(params, g, plan.h0_groups)
    matrices = [h0]  # matrices[l] = layer-l outputs, one row per kept step
    saves: list[tuple] = []  # per layer, what its backward needs
    for layer, (ix, kept) in enumerate(zip(part.index, part.traversals), start=1):
        masks = (None, None)
        if rng is not None:  # drawn for every traversal of the plan, S's mask first
            mask_s = rng.random((counts[layer - 1], params.d)) < keep
            mask_t = rng.random((counts[layer - 1], params.d)) < keep
            masks = (_kept(mask_s, kept), _kept(mask_t, kept))
            del mask_s, mask_t
        out, saved = _layer_forward(params, layer, matrices[-1], h0, ix, masks,
                                    messages_from_target, counts[layer - 1], record)
        if record:
            saves.append(masks + saved)
        del masks, saved
        matrices.append(out)
    offs = np.cumsum([0] + [len(m) for m in matrices])
    L = len(part.index)
    projections = [(params.table[f"proj:{t}"], g.attributes[t], ids) for t, ids in plan.h0_groups]

    def bw(g_out):
        g_stack = _scatter_rows(g_out[part.episodes], part.output_rows, offs[-1])
        g_h0 = g_stack[:offs[1]]  # H0's terms are summed into g_stack in place
        g = g_stack[offs[L]:]
        grads, held = [], []
        for layer in range(L, 0, -1):
            g_prev, g_tgt, *layer_grads = _layer_backward(
                params, layer, matrices[layer - 1], matrices[0], part.index[layer - 1],
                part.traversals[layer - 1], saves, g, messages_from_target, counts[layer - 1])
            grads[:0] = layer_grads
            if messages_from_target:
                held.append(g_tgt)
            else:
                g_h0 += g_tgt
            if layer > 1:
                g = g_stack[offs[layer - 1]:offs[layer]] + g_prev
            else:
                g_h0 += g_prev
            del g_prev, g_tgt
        for g_tgt in reversed(held):
            g_h0 += g_tgt
        runs = np.cumsum([0] + [len(ids) for _, _, ids in projections])
        return (*(X[ids].T @ g_h0[runs[i]:runs[i + 1]]
                  for i, (_, X, ids) in enumerate(projections)), *grads)

    parents = ([proj for proj, _, _ in projections]
               + [v for layer in range(1, L + 1) for v in _layer_params(params, layer)])
    out = np.zeros((len(plan.output_rows), params.d))
    out[part.episodes] = np.concatenate(matrices)[part.output_rows]
    outputs = ad.Var(out, tuple(parents), bw) if record else ad.Var(out)
    outputs.check_finite("episode representations")
    return ForwardResult(outputs=outputs)


def classify(params: HgnnParams, reps: ad.Var) -> ad.Var:
    """Class probability rows: softmax(reps . W_c + b_c); every row sums to
    1. One Var, with the softmax's backward as its closure."""
    W, b = params.table["classifier:W"], params.table["classifier:b"]
    logits = reps.value @ W.value + b.value
    ez = np.exp(logits + -logits.max(axis=1, keepdims=True))  # shift-invariant, no grad
    total = ez.sum(axis=1).reshape(-1, 1)

    def bw(g):
        g_total = _axis_sum(-g * ez / (total * total), 1)
        g_logits = (g / total + np.repeat(g_total, ez.shape[1], axis=1)) * ez
        return g_logits @ W.value.T, reps.value.T @ g_logits, _axis_sum(g_logits, 0)

    return ad.Var(ez / total, (reps, W, b), bw)


def cross_entropy(probs: ad.Var, labels: np.ndarray, rows: np.ndarray) -> ad.Var:
    """-sum over `rows` of log probability of the true class. One Var."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) == 0:
        raise ValueError("cross entropy over an empty node set")
    n = len(probs.value)
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"cross entropy rows must lie in [0, {n}), "
                         f"got {rows.min()}..{rows.max()}")
    onehot = np.zeros((len(rows), probs.value.shape[1]))
    onehot[np.arange(len(rows)), labels[rows]] = 1.0
    picked = (probs.value[rows] * onehot).sum(axis=1)

    def bw(g):
        g_picked = np.full_like(picked, float(g * -1.0)) / picked
        return (_scatter_rows(np.repeat(g_picked[:, None], onehot.shape[1], axis=1) * onehot,
                              rows, n),)

    return ad.Var(np.log(picked).sum() * -1.0, (probs,), bw)


def backward(loss: ad.Var, params: list[ad.Var]) -> list[np.ndarray]:
    """Gradients of a recorded scalar loss for each parameter, in order.

    Parameters that do not participate in the loss get zero gradients.
    The loss's tape is released: a second call on it, or a loss without a
    tape (over an eval pass's outputs, or a constant), raises ValueError.
    """
    grads = ad.backward(loss)
    return [grads[p] if p in grads else np.zeros_like(p.value) for p in params]


# ---------------------------------------------------------------------------
# Optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


@dataclass
class AdamState:
    params: list[ad.Var]  # what optimizer_step steps; rows and step follow its order
    lr: float
    weight_decay: float
    t: int
    # (4, parameter count): rows 0 and 1 hold the first and second moments,
    # rows 2 and 3 are a step's work rows; `step` views row 2 per parameter
    rows: np.ndarray
    step: list[np.ndarray]


def init_adam(params: list[ad.Var], lr: float = 0.005, weight_decay: float = 0.0001) -> AdamState:
    """Zero moments for `params`, which every optimizer_step on the state steps."""
    bounds = np.cumsum([0] + [p.value.size for p in params])
    rows = np.zeros((4, bounds[-1]))
    return AdamState(
        params=list(params),
        lr=lr,
        weight_decay=weight_decay,
        t=0,
        rows=rows,
        step=[rows[2, a:b].reshape(p.value.shape) for p, a, b in zip(params, bounds, bounds[1:])],
    )


def optimizer_step(state: AdamState, grads: list[np.ndarray]) -> None:
    """Adaptive-moment update of state.params, with bias correction and
    decoupled weight decay; grads holds one gradient per parameter, in
    state.params' order.

    The moments and the parameter values are updated in place, so an array
    that must keep a parameter's old value has to be a copy. The update runs
    once over all parameters laid end to end, and allocates no array."""
    params = state.params
    if len(grads) != len(params):
        raise ValueError(f"{len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if g.shape != p.value.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.value.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, g, tmp = state.rows
    np.concatenate([x.ravel() for x in grads], out=g)
    # same operations in the same order as m = b1*m + (1-b1)*g, ...,
    # value -= lr * (mh / (sqrt(vh) + eps) + wd * value): bit-identical
    m *= b1
    np.multiply(1 - b1, g, out=tmp)
    m += tmp
    v *= b2
    np.multiply(1 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, 1 - b2 ** state.t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS  # the denominator
    np.divide(m, 1 - b1 ** state.t, out=g)  # g is dead: the step from here on
    g /= tmp
    np.concatenate([p.value.ravel() for p in params], out=tmp)
    np.multiply(state.weight_decay, tmp, out=tmp)
    g += tmp
    g *= state.lr
    for p, step in zip(params, state.step):
        p.value -= step


# ---------------------------------------------------------------------------
# Checkpoints (container format in rlhgnn.checkpoint)


# header fields besides the schema, in header order
_HYPER = {**dict.fromkeys(("T", "d", "heads", "num_classes"), at_least(1)),
          "dropout": number(lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"), "seed": at_least(0)}


def save_params(params: HgnnParams, path) -> None:
    write_checkpoint(path, "hgnn-params",
                     {**{k: getattr(params, k) for k in _HYPER},
                      "schema": params.schema.to_json()},
                     [(n, v.value) for n, v in params.table.items()])


def load_params(path) -> HgnnParams:
    """Raises ValueError naming the file unless it holds exactly the arrays
    param_shapes gives for its header, each with its shape."""
    header, arrays = read_checkpoint(path, "hgnn-params")
    hyper = header_fields(path, header, _HYPER)
    if hyper["d"] % hyper["heads"]:
        raise ValueError(f"{path}: checkpoint header field 'd' ({hyper['d']}) must be "
                         f"divisible by field 'heads' ({hyper['heads']})")
    doc = header_fields(path, header, {"schema": Rule(OBJECT.ok, "a JSON object")})["schema"]
    try:
        schema = HinSchema.from_json(doc)
    except SchemaError as e:
        raise ValueError(f"{path}: checkpoint header field 'schema' is not a graph "
                         f"schema: {e!r}") from None
    shapes = param_shapes(schema, hyper["T"], hyper["d"], hyper["heads"], hyper["num_classes"])
    check_arrays(path, arrays, shapes)
    return HgnnParams(schema=schema, table={n: ad.param(arrays[n]) for n in shapes}, **hyper)
