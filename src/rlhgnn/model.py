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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aggplan import AggregationDag
from .checkpoint import read_checkpoint, write_checkpoint
from .hin import HinGraph, HinSchema

LEAKY_SLOPE = 0.2


@dataclass
class HgnnParams:
    schema: HinSchema
    projections: dict[str, ad.Var]  # per type: (attr_dim, d)
    layer_w: list[ad.Var]  # per aggregator: (d, d), head h owns columns h*hd:(h+1)*hd
    layer_attn_src: list[ad.Var]  # per aggregator: (heads, hd)
    layer_attn_dst: list[ad.Var]  # per aggregator: (heads, hd)
    classifier_w: ad.Var  # (d, C)
    classifier_b: ad.Var  # (1, C)
    d: int
    heads: int
    num_classes: int
    dropout: float
    seed: int

    @property
    def T(self) -> int:
        return len(self.layer_w)

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    def all_vars(self) -> list[ad.Var]:
        return ([self.projections[t] for t in self.schema.node_types]
                + self.aggregator_vars() + [self.classifier_w, self.classifier_b])

    def aggregator_vars(self) -> list[ad.Var]:
        out = []
        for i in range(self.T):
            out += [self.layer_w[i], self.layer_attn_src[i], self.layer_attn_dst[i]]
        return out

    def aggregator_param_count(self) -> int:
        return sum(v.value.size for v in self.aggregator_vars())

    def single_layer_param_count(self) -> int:
        return (
            self.layer_w[0].value.size
            + self.layer_attn_src[0].value.size
            + self.layer_attn_dst[0].value.size
        )


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
    hd = d // heads
    rng = np.random.default_rng(seed)
    projections = {}
    for t in schema.node_types:
        lam = schema.attribute_dims[t]
        projections[t] = ad.param(_glorot(rng, lam, d, (lam, d)))
    layer_w, a_src, a_dst = [], [], []
    for _ in range(max_timesteps):
        layer_w.append(ad.param(_glorot(rng, d, d, (d, d))))
        a_src.append(ad.param(_glorot(rng, hd, 1, (heads, hd))))
        a_dst.append(ad.param(_glorot(rng, hd, 1, (heads, hd))))
    cw = ad.param(_glorot(rng, d, num_classes, (d, num_classes)))
    cb = ad.param(np.zeros((1, num_classes)))
    return HgnnParams(
        schema=schema,
        projections=projections,
        layer_w=layer_w,
        layer_attn_src=a_src,
        layer_attn_dst=a_dst,
        classifier_w=cw,
        classifier_b=cb,
        d=d,
        heads=heads,
        num_classes=num_classes,
        dropout=dropout,
        seed=seed,
    )


def project_attributes(
    params: HgnnParams, g: HinGraph, groups: list[tuple[str, np.ndarray]]
) -> ad.Var:
    """H0 rows for runs of (node type, local ids), run after run in the given
    order: H0[i] = x_i . M_type."""
    parts: list[ad.Var] = []
    for t, ids in groups:
        if t not in params.projections:
            raise ValueError(f"no projection for node type {t!r}")
        X = ad.const(g.attributes[t][np.asarray(ids, dtype=np.intp)])
        parts.append(ad.matmul(X, params.projections[t]))
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
    W = params.layer_w[layer - 1]
    WS = ad.reshape(ad.matmul(S, W), (-1, heads, hd))
    WT = ad.reshape(ad.matmul(T0, W), (-1, heads, hd))
    es = ad.head_dot(WS, params.layer_attn_src[layer - 1])  # (n, heads)
    et = ad.head_dot(WT, params.layer_attn_dst[layer - 1])
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
    logits = ad.add(ad.matmul(reps, params.classifier_w), params.classifier_b)
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


def _named_arrays(params: HgnnParams) -> list[tuple[str, np.ndarray]]:
    out = [(f"proj:{t}", params.projections[t].value) for t in params.schema.node_types]
    for i in range(params.T):
        out.append((f"layer{i}:W", params.layer_w[i].value))
        out.append((f"layer{i}:attn_src", params.layer_attn_src[i].value))
        out.append((f"layer{i}:attn_dst", params.layer_attn_dst[i].value))
    out.append(("classifier:W", params.classifier_w.value))
    out.append(("classifier:b", params.classifier_b.value))
    return out


def _params_from_arrays(schema: HinSchema, arrays: dict[str, np.ndarray], T: int,
                        **hyper) -> HgnnParams:
    """Inverse of _named_arrays, given the _HYPER fields; the arrays are used
    as they are, not copied."""
    return HgnnParams(
        schema=schema,
        projections={t: ad.param(arrays[f"proj:{t}"]) for t in schema.node_types},
        layer_w=[ad.param(arrays[f"layer{i}:W"]) for i in range(T)],
        layer_attn_src=[ad.param(arrays[f"layer{i}:attn_src"]) for i in range(T)],
        layer_attn_dst=[ad.param(arrays[f"layer{i}:attn_dst"]) for i in range(T)],
        classifier_w=ad.param(arrays["classifier:W"]),
        classifier_b=ad.param(arrays["classifier:b"]),
        **hyper,
    )


def _hyper(params: HgnnParams) -> dict:
    return {k: getattr(params, k) for k in _HYPER}


def save_params(params: HgnnParams, path) -> None:
    write_checkpoint(path, "hgnn-params",
                     {**_hyper(params), "schema": params.schema.to_json()},
                     _named_arrays(params))


def load_params(path) -> HgnnParams:
    header, arrays = read_checkpoint(path, "hgnn-params")
    return _params_from_arrays(HinSchema.from_json(header["schema"]), arrays,
                               **{k: header[k] for k in _HYPER})
