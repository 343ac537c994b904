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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .aggplan import AggregationDag
from .checkpoint import check_arrays, read_checkpoint, write_checkpoint
from .hin import HinGraph, HinSchema

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
) -> ad.Var:
    """H0 rows for runs of (node type, local ids), run after run in the given
    order: H0[i] = x_i . M_type."""
    parts: list[ad.Var] = []
    for t, ids in groups:
        proj = params.table.get(f"proj:{t}")
        if proj is None:
            raise ValueError(f"no projection for node type {t!r}")
        X = ad.const(g.attributes[t][np.asarray(ids, dtype=np.intp)])
        parts.append(ad.matmul(X, proj))
    if not parts:
        return ad.const(np.zeros((0, params.d)))
    return ad.vstack(parts) if len(parts) > 1 else parts[0]


def _layer_compute(
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
    WS = ad.reshape(ad.matmul(S, W), (-1, heads, hd))
    WT = ad.reshape(ad.matmul(T0, W), (-1, heads, hd))
    es = ad.head_dot(WS, params.table[f"layer{layer - 1}:attn_src"])  # (n, heads)
    et = ad.head_dot(WT, params.table[f"layer{layer - 1}:attn_dst"])
    e = ad.leaky_relu(ad.add(es, et), LEAKY_SLOPE)
    seg_max = np.maximum.reduceat(e.value, starts, axis=0)  # shift-invariant, no grad
    z = ad.exp(ad.add_const(e, -np.repeat(seg_max, lengths, axis=0)))
    alpha = ad.div(z, ad.repeat_rows(ad.segment_sum(z, starts, lengths), lengths))
    val = WT if messages_from_target else WS
    weighted = ad.reshape(ad.mul(ad.reshape(alpha, (-1, heads, 1)), val), (-1, params.d))
    summed = ad.segment_sum(weighted, starts, lengths)
    return ad.relu(ad.mul_const(summed, (1.0 / lengths)[:, None]))


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
    stopped at once return their projected attributes directly."""
    if mode not in ("eval", "train"):
        raise ValueError(f"unknown mode {mode!r}")
    if not len(dag.output_rows):
        raise ValueError("plan has no episodes")
    if len(dag.index) > params.T:
        raise ValueError(f"plan has {len(dag.index)} aggregation layers but the model "
                         f"has T={params.T} aggregator parameter sets")
    keep = 1.0 - params.dropout
    rng = np.random.default_rng([seed]) if mode == "train" and params.dropout > 0 else None

    h0 = project_attributes(params, g, dag.h0_groups)
    matrices = [h0]  # matrices[l] = layer-l outputs, one row per step
    for layer, ix in enumerate(dag.index, start=1):
        mask_s = mask_t = None
        if rng is not None:  # inverted dropout on the gathered rows, S's mask first
            mask_s = rng.random((len(ix.src_rows), params.d)) < keep
            mask_t = rng.random((len(ix.tgt_rows), params.d)) < keep
        S = ad.gather_rows(matrices[-1], ix.src_rows, mask_s, keep)
        T0 = ad.gather_rows(h0, ix.tgt_rows, mask_t, keep)
        matrices.append(_layer_compute(params, layer, S, T0, ix.starts, ix.lengths,
                                       messages_from_target))
    stacked = ad.vstack(matrices) if len(matrices) > 1 else h0
    outputs = ad.gather_rows(stacked, dag.output_rows)
    outputs.check_finite("episode representations")
    return ForwardResult(outputs=outputs)


def classify(params: HgnnParams, reps: ad.Var) -> ad.Var:
    """Class probability rows: softmax(reps . W_c + b_c); every row sums to 1."""
    logits = ad.add(ad.matmul(reps, params.table["classifier:W"]), params.table["classifier:b"])
    zmax = logits.value.max(axis=1, keepdims=True)  # shift-invariant, no grad
    ez = ad.exp(ad.add_const(logits, -zmax))
    return ad.div(ez, ad.reshape(ad.sum_cols(ez), (-1, 1)))


def cross_entropy(probs: ad.Var, labels: np.ndarray, rows: np.ndarray) -> ad.Var:
    """-sum over `rows` of log probability of the true class."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) == 0:
        raise ValueError("cross entropy over an empty node set")
    sel = ad.gather_rows(probs, rows)
    onehot = np.zeros(sel.value.shape)
    onehot[np.arange(len(rows)), labels[rows]] = 1.0
    picked = ad.sum_cols(ad.mul_const(sel, onehot))
    return ad.scale(ad.total_sum(ad.log(picked)), -1.0)


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


def init_adam(params: list[ad.Var], lr: float = 0.005, weight_decay: float = 0.0001) -> AdamState:
    return AdamState(
        lr=lr,
        weight_decay=weight_decay,
        beta1=0.9,
        beta2=0.999,
        eps=1e-8,
        m=[np.zeros_like(p.value) for p in params],
        v=[np.zeros_like(p.value) for p in params],
        t=0,
    )


def optimizer_step(params: list[ad.Var], grads: list[np.ndarray], state: AdamState) -> None:
    """Adaptive-moment update with bias correction and decoupled weight decay.

    The moments and the parameter values are updated in place, so an array
    that must keep a parameter's old value has to be a copy."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state count mismatch")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.value.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.value.shape}")
        # same operations in the same order as m = b1*m + (1-b1)*g, ...,
        # value -= lr * (mh / (sqrt(vh) + eps) + wd * value): bit-identical
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        denom = np.sqrt(v / (1 - b2 ** state.t))
        denom += state.eps
        step = m / (1 - b1 ** state.t)
        step /= denom
        step += state.weight_decay * p.value
        step *= state.lr
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
_HYPER = ("T", "d", "heads", "num_classes", "dropout", "seed")


def save_params(params: HgnnParams, path) -> None:
    write_checkpoint(path, "hgnn-params",
                     {**{k: getattr(params, k) for k in _HYPER},
                      "schema": params.schema.to_json()},
                     [(n, v.value) for n, v in params.table.items()])


def load_params(path) -> HgnnParams:
    """Raises ValueError naming the file unless it holds exactly the arrays
    param_shapes gives for its header, each with its shape."""
    header, arrays = read_checkpoint(path, "hgnn-params")
    hyper = {k: header[k] for k in _HYPER}
    schema = HinSchema.from_json(header["schema"])
    shapes = param_shapes(schema, hyper["T"], hyper["d"], hyper["heads"], hyper["num_classes"])
    check_arrays(path, arrays, shapes)
    return HgnnParams(schema=schema, table={n: ad.param(arrays[n]) for n in shapes}, **hyper)
