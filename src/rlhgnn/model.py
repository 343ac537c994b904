"""Dense neural stack with exact gradients: type projections, shared
attention aggregators, classifier head, losses, Adam, checkpoints and a
finite-difference gradient checker.

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
per-op tape they replaced, which the tests keep as their reference.
project_attributes itself records nothing: it returns H0 as a plain array.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .aggplan import AggregationDag, LayerIndex
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

    def aggregator_param_count(self) -> int:
        return sum(v.value.size for n, v in self.table.items() if n.startswith("layer"))

    def single_layer_param_count(self) -> int:
        return sum(v.value.size for n, v in self.table.items() if n.startswith("layer0:"))


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


def _layer_forward(
    params: HgnnParams,
    layer: int,
    prev: np.ndarray,
    h0: np.ndarray,
    ix: LayerIndex,
    masks: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    messages_from_target: bool = False,
) -> tuple[np.ndarray, tuple]:
    """Aggregate per-traversal rows, S = prev[ix.src_rows] from the sources
    and T0 = h0[ix.tgt_rows] from the targets, each with inverted dropout by
    its mask, into per-step outputs with parameter set `layer`, all heads at
    once: head h is column block h*hd:(h+1)*hd. Returns the outputs and what
    _layer_backward needs; S and T0 are freed as soon as W has mapped them."""
    heads, hd, keep = params.heads, params.head_dim, 1.0 - params.dropout
    W, a_src, a_dst = (v.value for v in _layer_params(params, layer))
    starts, lengths = ix.starts, ix.lengths
    WS = (_gather(prev, ix.src_rows, masks[0], keep) @ W).reshape(-1, heads, hd)
    WT = (_gather(h0, ix.tgt_rows, masks[1], keep) @ W).reshape(-1, heads, hd)
    s = (WS * a_src).sum(axis=2) + (WT * a_dst).sum(axis=2)  # (n, heads)
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
    saves: list[tuple],
    g: np.ndarray,
    messages_from_target: bool,
) -> tuple[np.ndarray, ...]:
    """Backward of one aggregation layer from g, the gradient of its outputs.

    Pops the layer's saved arrays off `saves`: the dropout masks, W's
    products and the attention's (traversals, heads) arrays. S and T0 are
    gathered again from prev and h0 with the same masks, so their bits are
    the forward's. Each (traversals, d) array is dropped at its last use;
    the side whose W product carried the messages goes first, so that
    gradient dies early. Returns the gradients of prev's rows, of h0's rows
    through the targets, and of W, attn_src and attn_dst."""
    mask_s, mask_t, WS, WT, up, z, den, alpha, on = saves.pop()
    heads, hd, d, keep = params.heads, params.head_dim, params.d, 1.0 - params.dropout
    W, a_src, a_dst = (v.value for v in _layer_params(params, layer))
    starts, lengths = ix.starts, ix.lengths
    # relu, the 1/length mean and its segment sum, back to traversals
    g = np.repeat(g * on * (1.0 / lengths)[:, None], lengths, axis=0).reshape(-1, heads, hd)
    del on
    g_alpha = ad.unbroadcast(g * (WT if messages_from_target else WS), alpha.shape)
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
    scattered = []
    for first in (True, False):
        rows, idx, mask, a = sides.pop(0)
        g_X = g_s * a  # through the attention logits
        if first:
            g_X += g_msgs
            del g_msgs
        g_X = g_X.reshape(-1, d)
        g_W_part = _gather(rows, idx, mask, keep).T @ g_X
        g_W = g_W_part if first else g_W + g_W_part
        g_X = g_X @ W.T
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
    dag: AggregationDag,
    mode: str = "eval",
    seed: int = 0,
    messages_from_target: bool = False,
) -> ForwardResult:
    """Evaluate the plan's compiled index arrays layer by layer; episodes that
    stopped at once return their projected attributes directly.

    Everything from the type projections to the outputs is one Var. Its
    closure walks the layers from the last to the first and frees each
    layer's saved arrays as it leaves the layer. H0's gradient adds its
    terms in the order a tape of one Var per op did, for equal bits: the
    outputs' share first, then layer L's to layer 1's target rows, then
    layer 1's source rows; with messages_from_target, layer 1's source rows,
    then layer 1's to layer L's target rows. Each run of H0 rows then gives
    its projection the gradient X_t.T @ g_H0[run]. Under ad.no_grad nothing
    is saved."""
    if mode not in ("eval", "train"):
        raise ValueError(f"unknown mode {mode!r}")
    if not len(dag.output_rows):
        raise ValueError("plan has no episodes")
    if len(dag.index) > params.T:
        raise ValueError(f"plan has {len(dag.index)} aggregation layers but the model "
                         f"has T={params.T} aggregator parameter sets")
    keep = 1.0 - params.dropout
    rng = np.random.default_rng([seed]) if mode == "train" and params.dropout > 0 else None
    record = ad.recording()

    h0 = project_attributes(params, g, dag.h0_groups)
    matrices = [h0]  # matrices[l] = layer-l outputs, one row per step
    saves: list[tuple] = []  # per layer, what its backward needs
    for layer, ix in enumerate(dag.index, start=1):
        masks = (None, None)
        if rng is not None:  # inverted dropout on the gathered rows, S's mask first
            masks = (rng.random((len(ix.src_rows), params.d)) < keep,
                     rng.random((len(ix.tgt_rows), params.d)) < keep)
        out, saved = _layer_forward(params, layer, matrices[-1], h0, ix, masks,
                                    messages_from_target)
        if record:
            saves.append(masks + saved)
        del masks, saved
        matrices.append(out)
    offs = np.cumsum([0] + [len(m) for m in matrices])
    L = len(dag.index)
    projections = [(params.table[f"proj:{t}"], g.attributes[t], ids) for t, ids in dag.h0_groups]

    def bw(g_out):
        g_stack = _scatter_rows(g_out, dag.output_rows, offs[-1])
        g_h0 = g_stack[:offs[1]]  # H0's terms are summed into g_stack in place
        g = g_stack[offs[L]:]
        grads, held = [], []
        for layer in range(L, 0, -1):
            g_prev, g_tgt, *layer_grads = _layer_backward(
                params, layer, matrices[layer - 1], matrices[0], dag.index[layer - 1], saves, g,
                messages_from_target)
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
    outputs = ad.Var(np.concatenate(matrices)[dag.output_rows], tuple(parents), bw)
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
        g_total = ad.unbroadcast(-g * ez / (total * total), total.shape)
        g_logits = (g / total + np.repeat(g_total, ez.shape[1], axis=1)) * ez
        return (g_logits @ W.value.T, reps.value.T @ g_logits,
                ad.unbroadcast(g_logits, b.value.shape))

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

    Parameters that do not participate in the loss graph get zero gradients;
    their .grad is cleared first so nothing stale from an earlier pass leaks.
    The loss's tape is released: a second call on it raises ValueError.
    """
    if loss.bw is None and not loss.parents:
        raise ValueError("loss carries no recording; run the forward pass first")
    for p in params:
        p.grad = None
    ad.backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    lr: float
    weight_decay: float
    beta1: float
    beta2: float
    eps: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    # (4, parameter count): rows 0 and 1 hold the moments that m and v view,
    # rows 2 and 3 are a step's work rows; `step` views row 2 per parameter
    rows: np.ndarray
    step: list[np.ndarray]


def init_adam(params: list[ad.Var], lr: float = 0.005, weight_decay: float = 0.0001) -> AdamState:
    bounds = np.cumsum([0] + [p.value.size for p in params])
    rows = np.zeros((4, bounds[-1]))

    def views(row: np.ndarray) -> list[np.ndarray]:
        return [row[a:b].reshape(p.value.shape) for p, a, b in zip(params, bounds, bounds[1:])]

    return AdamState(
        lr=lr,
        weight_decay=weight_decay,
        beta1=0.9,
        beta2=0.999,
        eps=1e-8,
        m=views(rows[0]),
        v=views(rows[1]),
        t=0,
        rows=rows,
        step=views(rows[2]),
    )


def optimizer_step(params: list[ad.Var], grads: list[np.ndarray], state: AdamState) -> None:
    """Adaptive-moment update with bias correction and decoupled weight decay.

    The moments and the parameter values are updated in place, so an array
    that must keep a parameter's old value has to be a copy. The update runs
    once over all parameters laid end to end, and allocates no array."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state count mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.value.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.value.shape}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
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
    tmp += state.eps  # the denominator
    np.divide(m, 1 - b1 ** state.t, out=g)  # g is dead: the step from here on
    g /= tmp
    np.concatenate([p.value.ravel() for p in params], out=tmp)
    np.multiply(state.weight_decay, tmp, out=tmp)
    g += tmp
    g *= state.lr
    for p, step in zip(params, state.step):
        p.value -= step


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
