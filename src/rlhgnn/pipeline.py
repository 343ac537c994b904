"""End-to-end training loops for both model variants, evaluation metrics,
action/meta-path reporting and the aggregation/runtime benchmarks.

Loop shape: the base variant reinitialises the aggregation network every
round and walks one node batch through timesteps 0..T, retraining the
network for B inner rounds at each timestep before scoring on validation.
The fast variant keeps one persistent network, advances one timestep per
round (t cycles 1..T, a fresh batch per cycle) and does a single network
optimizer step plus a single DQN update per round.

Every round's node set is the drawn training batch plus the full validation
set, so the reward metric is always computed on all validation nodes with
their own designed meta-paths.
"""
from __future__ import annotations

import io
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import agent as rl
from . import autodiff as ad
from . import model as nn
from .aggplan import (AggregationDag, AggregationStats, Episode, Restriction, build_plan,
                      naive_plan, plan_stats, restrict)
from .hin import (RELATION_NAMES, UNIT, DataSplit, HinGraph, HinSchema, NodeId, Rule, SchemaError,
                  at_least, check_fields, number, read_object)
from .metapath import (
    Frontier,
    MetaPath,
    action_space_size,
    expand_frontier,
    stop_index,
    valid_actions,
)


@dataclass
class TrainConfig:
    variant: str = "rl-hgnn-pp"
    max_timesteps: int = 2  # T
    rounds: int | None = None  # K; default 20 (rl-hgnn) / 200 (rl-hgnn-pp)
    inner_rounds: int = 10  # B: inner training rounds / normalizer fit count
    node_batch: int = 256
    gamma: float = 0.95
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 0.5  # fraction of total steps over which eps anneals
    target_sync_every: int = 20  # c
    reward_window: int = 5  # b
    memory_multiplier: int = 50  # buffer capacity = multiplier * |validation|
    dqn_batch: int = 64
    learning_rate: float = 0.005
    weight_decay: float = 0.0001
    hidden_dim: int = 128  # d
    heads: int = 8
    dropout: float = 0.5
    fan_out_cap: int | None = 64
    seed: int = 0
    fixed_path: tuple[str, ...] | None = None  # ablation: force this path, skip the agent
    messages_from_target: bool = False

    def resolved_rounds(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return 20 if self.variant == "rl-hgnn" else 200

    def validate(self) -> None:
        """Raise ValueError naming the first field of the wrong type or outside
        its valid range. Values are checked as given, never converted."""
        check_fields(vars(self), _CONFIG_RULES, str)
        if self.hidden_dim % self.heads:
            raise ValueError(f"hidden_dim must be divisible by heads, got {self.hidden_dim!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        cfg = read_object(cls, doc)
        if cfg.fixed_path is not None:
            cfg.fixed_path = tuple(cfg.fixed_path)
        return cfg

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        if out["fixed_path"] is not None:
            out["fixed_path"] = list(out["fixed_path"])
        return out


# TrainConfig's fields, each with the rule its value must pass
_CONFIG_RULES = {
    "variant": Rule(lambda v: v in ("rl-hgnn", "rl-hgnn-pp"), "rl-hgnn or rl-hgnn-pp"),
    **dict.fromkeys(("max_timesteps", "inner_rounds", "node_batch", "target_sync_every",
                     "reward_window", "memory_multiplier", "dqn_batch", "hidden_dim", "heads"),
                    at_least(1)),
    **dict.fromkeys(("rounds", "fan_out_cap"), at_least(1).or_null()),
    **dict.fromkeys(("gamma", "eps_start", "eps_end", "eps_fraction"), UNIT),
    "dropout": number(lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "learning_rate": number(lambda v: 0.0 < v < math.inf, "> 0 and finite"),
    "weight_decay": number(lambda v: 0.0 <= v < math.inf, ">= 0 and finite"),
    "seed": at_least(0),
    "fixed_path": RELATION_NAMES.or_null(),
    "messages_from_target": Rule(lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class StepRecord:
    round: int
    timestep: int
    acting_nodes: list[int]
    actions: list[int]
    reward: float
    micro_f1: float
    macro_f1: float
    q_loss: float | None
    hgnn_loss: float | None
    wall_ms: float

    def action_ratios(self, num_actions: int) -> np.ndarray:
        """Fraction of the acting nodes that chose each action."""
        counts = np.bincount(np.asarray(self.actions, dtype=np.intp), minlength=num_actions)
        return counts / max(1, len(self.actions))


@dataclass
class RoundRecord:
    round: int
    val_metric: float
    nodes: list[int]
    paths: list[tuple[str, ...]]


@dataclass
class EpisodeReport:
    variant: str
    num_actions: int
    steps: list[StepRecord] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def best_round(self) -> RoundRecord:
        if not self.rounds:
            raise ValueError("empty report")
        best = max(self.rounds, key=lambda r: (r.val_metric, -r.round))
        return best

    def to_json(self, schema: HinSchema, target_type: str) -> dict:
        """The report.json document."""
        return {
            "variant": self.variant,
            "num_actions": self.num_actions,
            "schema": {**schema.to_json(), "target_type": target_type},
            "meta": self.meta,
            "steps": [asdict(s) for s in self.steps],
            "rounds": [asdict(r) for r in self.rounds],
        }

    def to_csv(self, include_wall: bool = False) -> str:
        """Deterministic metrics table; wall times are opt-in because they
        change between equal-seed runs."""
        buf = io.StringIO()
        cols = ["step", "round", "timestep"]
        cols += [f"action_{i}_ratio" for i in range(self.num_actions)]
        cols += ["reward", "micro_f1", "macro_f1", "q_loss", "hgnn_loss"]
        if include_wall:
            cols.append("wall_ms")
        buf.write(",".join(cols) + "\n")
        for i, s in enumerate(self.steps):
            row = [str(i), str(s.round), str(s.timestep)]
            row += [_fmt(x) for x in s.action_ratios(self.num_actions)]
            row += [_fmt(s.reward), _fmt(s.micro_f1), _fmt(s.macro_f1)]
            row += ["" if s.q_loss is None else _fmt(s.q_loss)]
            row += ["" if s.hgnn_loss is None else _fmt(s.hgnn_loss)]
            if include_wall:
                row.append(_fmt(s.wall_ms))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


@dataclass
class ActionStats:
    best_round: int
    best_val_metric: float
    per_timestep: dict[int, dict[str, float]]
    path_counts: list[tuple[str, int]]  # arrow string -> nodes that designed it
    stop_at_zero: int  # nodes that stopped at t=0
    num_paths: int  # nodes in the best round (at least 1)

    @property
    def path_table(self) -> list[tuple[str, float]]:
        """Arrow string -> fraction of nodes."""
        return [(arrow, c / self.num_paths) for arrow, c in self.path_counts]

    @property
    def stop_at_zero_fraction(self) -> float:
        return self.stop_at_zero / self.num_paths

    def render(self) -> str:
        """The text of actions.txt and of `rlhgnn report-paths`."""
        lines = [f"best round: {self.best_round} "
                 f"(validation micro-F1 {self.best_val_metric:.4f})"]
        for t in sorted(self.per_timestep):
            freqs = ", ".join(f"{k}={v:.3f}" for k, v in sorted(self.per_timestep[t].items()))
            lines.append(f"  t={t}: {freqs}")
        lines.append(f"stop-at-0: {100 * self.stop_at_zero / self.num_paths:.1f}%")
        lines.append("meta-path table:")
        for arrow, c in self.path_counts:
            lines.append(f"  {100 * c / self.num_paths:5.1f}%  {arrow}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics


def evaluate_f1(predictions: np.ndarray, labels: np.ndarray, nodes: np.ndarray) -> tuple[float, float]:
    """(micro, macro) F1 over `nodes`; predictions/labels indexed by node id.

    Micro pools TP/FP/FN globally; macro averages per-class F1 over classes
    present in either predictions or labels on this node set.
    """
    nodes = np.asarray(nodes)
    if len(nodes) == 0:
        raise ValueError("empty node set")
    y = labels[nodes]
    p = predictions[nodes]
    classes = sorted(set(y.tolist()) | set(p.tolist()))
    tp_total = fp_total = fn_total = 0
    f1s = []
    for c in classes:
        tp = int(np.sum((p == c) & (y == c)))
        fp = int(np.sum((p == c) & (y != c)))
        fn = int(np.sum((p != c) & (y == c)))
        tp_total += tp
        fp_total += fp
        fn_total += fn
        denom = 2 * tp + fp + fn
        f1s.append(0.0 if denom == 0 else 2 * tp / denom)
    micro_denom = 2 * tp_total + fp_total + fn_total
    micro = 0.0 if micro_denom == 0 else 2 * tp_total / micro_denom
    macro = float(np.mean(f1s)) if f1s else 0.0
    return float(micro), macro


# ---------------------------------------------------------------------------
# Episode bookkeeping shared by both loops


def _fresh_episodes(g: HinGraph, nodes: np.ndarray | list[int]) -> list[Episode]:
    starts = [(g.target_type, int(local)) for local in nodes]
    return [Episode(s, MetaPath(s[0]), Frontier.initial(s)) for s in starts]


def _extend(g: HinGraph, ep: Episode, rel: str, fan_out_cap: int | None,
            seed: int) -> Episode | None:
    """`ep` one relation further, or None at a dead end (no node reached)."""
    nxt = expand_frontier(g, ep.frontier, rel, fan_out_cap, seed)
    if len(nxt.reached) == 0:
        return None
    # expand_frontier checked rel against the frontier's type, the path's end
    return Episode(ep.start, MetaPath(ep.path.start_type, ep.path.relations + (rel,)), nxt)


# Episodes of one run (or one greedy design) by (start node, relations); None
# marks a dead end. An expansion depends only on the graph, the frontier, the
# relation, fan_out_cap and the run seed, so a key always names one episode.
EpisodeMemo = dict[tuple[NodeId, tuple[str, ...]], Episode | None]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class _BatchCursor:
    """Cycles through a node pool without replacement, reshuffling on wrap."""

    def __init__(self, pool: np.ndarray, rng: np.random.Generator):
        self.pool = np.array(pool)
        self.rng = rng
        self.order = self.rng.permutation(self.pool)
        self.pos = 0

    def draw(self, n: int) -> np.ndarray:
        n = min(n, len(self.pool))
        if self.pos + n > len(self.order):
            self.order = self.rng.permutation(self.pool)
            self.pos = 0
        out = self.order[self.pos:self.pos + n]
        self.pos += n
        return np.sort(out)


def _eps_at(cfg: TrainConfig, step: int, total: int) -> float:
    if cfg.fixed_path is not None:
        return 0.0
    horizon = max(1.0, cfg.eps_fraction * total)
    frac = min(1.0, step / horizon)
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


@dataclass(frozen=True)
class LegalActionTable:
    """valid_actions for every (node type, at-max-depth) pair of one schema.

    Row 2 * (type index) + at_max_depth of `masks` is that pair's mask; the
    rows are read-only.
    """

    type_index: dict[str, int]
    masks: np.ndarray  # (2 * node types, actions) bool

    @classmethod
    def build(cls, schema: HinSchema) -> "LegalActionTable":
        masks = np.stack([valid_actions(schema, t, at_max)
                          for t in schema.node_types for at_max in (False, True)])
        masks.flags.writeable = False
        return cls({t: i for i, t in enumerate(schema.node_types)}, masks)

    def row(self, terminal_type: str, at_max_depth: bool) -> int:
        i = self.type_index.get(terminal_type)
        if i is None:
            raise SchemaError(f"unknown node type {terminal_type!r}")
        return 2 * i + bool(at_max_depth)


def _act(
    g: HinGraph,
    cfg: TrainConfig,
    table: LegalActionTable,
    episodes: list[Episode],
    stopped: np.ndarray,
    states: np.ndarray,
    qnet: rl.QNetwork,
    eps: float,
    rng: np.random.Generator,
    memo: EpisodeMemo | None = None,
) -> tuple[np.ndarray, rl.TransitionBatch]:
    """Select one action for every episode not yet stopped at once, then
    apply each: an extended episode replaces its entry of `episodes`, and a
    terminal one is marked in `stopped`. `states` holds one row per episode;
    stopped rows are not read. Returns (rows, transitions): transition i
    belongs to episode rows[i]. Its reward is NaN and its s_next equals s
    until the loop fills them in. Extension to an empty frontier force-stops
    the episode with its state unchanged.

    An extension is looked up in `memo` first and stored there when built, so
    a run builds each (start node, relations) episode once; without a memo
    the call uses a fresh one.
    """
    memo = {} if memo is None else memo
    schema = g.schema
    stop = stop_index(schema)
    rows = np.flatnonzero(~stopped)
    active = [episodes[r] for r in rows]
    keys = np.array([table.row(e.frontier.node_type, len(e.path) >= cfg.max_timesteps)
                     for e in active], dtype=np.intp)
    masks = table.masks[keys]
    s = states[rows]
    if cfg.fixed_path is None:
        actions = (rl.select_action(qnet.values(s), masks, eps, rng) if active
                   else np.zeros(0, dtype=np.int64))
    else:
        actions = np.full(len(active), stop, dtype=np.int64)
        for i, e in enumerate(active):
            k = len(e.path)
            if k < len(cfg.fixed_path) and k < cfg.max_timesteps:
                actions[i] = schema.relation_index(cfg.fixed_path[k])
                if not masks[i, actions[i]]:
                    raise ValueError(f"fixed path relation {cfg.fixed_path[k]!r} illegal here")
    terminal = actions == stop
    next_keys = keys.copy()  # a terminal transition keeps the mask of its state
    for i in np.flatnonzero(~terminal):
        ep, rel = active[i], schema.relation_types[actions[i]].name
        key = (ep.start, ep.path.relations + (rel,))
        if key in memo:
            nxt = memo[key]
        else:
            nxt = memo[key] = _extend(g, ep, rel, cfg.fan_out_cap, cfg.seed)
        if nxt is None:
            terminal[i] = True  # dead end: force-stop at the previous step
            continue
        episodes[rows[i]] = nxt
        next_keys[i] = table.row(nxt.frontier.node_type, len(nxt.path) >= cfg.max_timesteps)
    stopped[rows[terminal]] = True
    batch = rl.TransitionBatch(s=s, a=actions, r=np.full(len(active), np.nan), s_next=s.copy(),
                               terminal=terminal, next_mask=table.masks[next_keys])
    return rows, batch


def _initial_static_states(g: HinGraph, episodes: list[Episode], state_dim: int) -> np.ndarray:
    """Static-variant states at timestep 0, row i for episode i."""
    return np.array([rl.initial_state_static(g, e.start, state_dim) for e in episodes],
                    dtype=np.float64).reshape(len(episodes), state_dim)


def _advance_static_states(g: HinGraph, episodes: list[Episode], states: np.ndarray,
                           rows: np.ndarray, batch: rl.TransitionBatch) -> None:
    """Static-variant state update of every non-terminal transition: the
    episode's new state row, which is also the transition's s_next."""
    for i in np.flatnonzero(~batch.terminal):
        r = rows[i]
        states[r] = rl.state_static(g, episodes[r].frontier, batch.s[i])
        batch.s_next[i] = states[r]


def _eval_pass(params: nn.HgnnParams, g: HinGraph, plan: AggregationDag, nodes: np.ndarray,
               cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode pass over the plan of `nodes`, recording no tape:
    (per-episode representations, predicted class per target-type node id)."""
    with ad.no_grad():
        fwd = nn.hgnn_forward(params, g, plan, mode="eval",
                              messages_from_target=cfg.messages_from_target)
        probs = nn.classify(params, fwd.outputs)
    preds = np.zeros(g.num_nodes[g.target_type], dtype=np.int64)
    preds[nodes] = np.argmax(probs.value, axis=1)
    return fwd.outputs.value, preds


def _train_loss(params: nn.HgnnParams, g: HinGraph, part: Restriction, ep_nodes: np.ndarray,
                train_rows: np.ndarray, cfg: TrainConfig, seed: int) -> ad.Var:
    """Recorded train-mode pass over `part`, the plan restricted to the
    training rows: cross entropy over those rows."""
    fwd = nn.hgnn_forward(params, g, part, mode="train", seed=seed,
                          messages_from_target=cfg.messages_from_target)
    probs = nn.classify(params, fwd.outputs)
    return nn.cross_entropy(probs, g.labels[ep_nodes], train_rows)


def _make_agent(g: HinGraph, cfg: TrainConfig, split: DataSplit, input_dim: int,
                with_normalizer: bool) -> rl.DqnAgent:
    return rl.DqnAgent.create(
        input_dim=input_dim,
        num_actions=action_space_size(g.schema),
        buffer_capacity=max(1, cfg.memory_multiplier * len(split.validation)),
        gamma=cfg.gamma,
        sync_every=cfg.target_sync_every,
        reward_window=cfg.reward_window,
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        normalizer_fit=cfg.inner_rounds if with_normalizer else None,
        seed=_derive_seed(cfg.seed, 11),
    )


class _Loop:
    """Setup and bookkeeping shared by both loops: the agent with its RNG
    streams, the batch cursor, the report and the best-round tracking."""

    def __init__(self, cfg: TrainConfig, g: HinGraph, split: DataSplit, variant: str):
        cfg.validate()
        if cfg.variant != variant:
            raise ValueError(f"config variant must be {variant}")
        g.schema.need_relations("fixed_path", cfg.fixed_path or ())
        split.need_labels(g.labels, ("train", "validation"))
        fast = variant == "rl-hgnn-pp"
        self.cfg, self.split = cfg, split
        self.agent = _make_agent(g, cfg, split,
                                 cfg.hidden_dim if fast else rl.static_state_dim(g),
                                 with_normalizer=fast)
        rng_batch = np.random.default_rng(_derive_seed(cfg.seed, 1))
        self.rng_eps = np.random.default_rng(_derive_seed(cfg.seed, 2))
        self.rng_dqn = np.random.default_rng(_derive_seed(cfg.seed, 3))
        self.cursor = _BatchCursor(split.train, rng_batch)
        self.table = LegalActionTable.build(g.schema)
        self.memo: EpisodeMemo = {}
        self.report = EpisodeReport(variant=cfg.variant, num_actions=action_space_size(g.schema))
        self.best_params: nn.HgnnParams | None = None
        self.best_metric = -1.0
        self.update_opportunities = 0
        self.design_wall_ms = 0.0

    def draw_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """(episode nodes: the next training batch plus every validation node,
        rows of the training batch among them)."""
        batch = self.cursor.draw(self.cfg.node_batch)
        ep_nodes = np.unique(np.concatenate([batch, self.split.validation]))
        node_row = {int(n): i for i, n in enumerate(ep_nodes)}
        train_rows = np.asarray([node_row[int(n)] for n in batch], dtype=np.intp)
        return ep_nodes, train_rows

    def fresh_episodes(self, g: HinGraph, ep_nodes: np.ndarray) -> list[Episode]:
        """Every node's timestep-0 episode, each built once per run: episodes
        are frozen, so all batches that draw a node share its one."""
        memo, t, nodes = self.memo, g.target_type, ep_nodes.tolist()
        missing = [n for n in nodes if ((t, n), ()) not in memo]
        memo.update(((e.start, ()), e) for e in _fresh_episodes(g, missing))
        return [memo[(t, n), ()] for n in nodes]

    def dqn_update(self, batch: rl.TransitionBatch, reward: float) -> float | None:
        """Store the round's transitions with their reward and run one DQN
        update opportunity."""
        if self.cfg.fixed_path is not None:
            return None
        batch.r[:] = reward
        self.agent.buffer.push_batch(batch)
        self.update_opportunities += 1
        return self.agent.maybe_update(self.cfg.dqn_batch, self.rng_dqn)

    def end_round(self, round: int, val_metric: float, ep_nodes: np.ndarray,
                  episodes: list[Episode], params: nn.HgnnParams) -> None:
        self.report.rounds.append(RoundRecord(
            round=round, val_metric=val_metric,
            nodes=[int(n) for n in ep_nodes],
            paths=[e.path.relations for e in episodes],
        ))
        if val_metric > self.best_metric:
            self.best_metric = val_metric
            self.best_params = params.clone()

    def finish(self, counter: str, count: int, final_eps: float
               ) -> tuple[nn.HgnnParams | None, rl.DqnAgent, EpisodeReport]:
        self.report.meta = {
            "dqn_update_opportunities": self.update_opportunities,
            counter: count,
            "design_wall_ms": self.design_wall_ms,
            "best_val_metric": self.best_metric,
            "final_eps": final_eps,
        }
        return self.best_params, self.agent, self.report


# ---------------------------------------------------------------------------
# Algorithm variant 1: per-round network reinitialisation


def run_rl_hgnn(cfg: TrainConfig, g: HinGraph, split: DataSplit):
    """Base loop: K rounds, each walking one batch through timesteps 0..T."""
    loop = _Loop(cfg, g, split, "rl-hgnn")
    agent = loop.agent
    K, T = cfg.resolved_rounds(), cfg.max_timesteps
    total_steps = K * (T + 1)
    step_counter = 0
    reinits = 0

    for k in range(K):
        round_t0 = time.perf_counter()
        params = nn.init_params(g.schema, g.num_classes, T, cfg.hidden_dim, cfg.heads,
                                cfg.dropout, seed=_derive_seed(cfg.seed, 20, k))
        opt = nn.init_adam(params.all_vars(), cfg.learning_rate, cfg.weight_decay)
        reinits += 1
        ep_nodes, train_rows = loop.draw_batch()
        episodes = loop.fresh_episodes(g, ep_nodes)
        stopped = np.zeros(len(episodes), dtype=bool)
        states = _initial_static_states(g, episodes, agent.qnet.input_dim)
        last_micro = 0.0

        for t in range(T + 1):
            step_t0 = time.perf_counter()
            eps = _eps_at(cfg, step_counter, total_steps)
            rows, batch = _act(g, cfg, loop.table, episodes, stopped, states,
                               agent.qnet, eps, loop.rng_eps, loop.memo)
            _advance_static_states(g, episodes, states, rows, batch)
            plan = build_plan(g, list(episodes))
            part = restrict(plan, train_rows)  # what the loss reads, shared by the B rounds
            hgnn_loss = None
            for beta in range(cfg.inner_rounds):
                loss = _train_loss(params, g, part, ep_nodes, train_rows, cfg,
                                   seed=_derive_seed(cfg.seed, 30, k, t, beta))
                grads = nn.backward(loss, params.all_vars())
                nn.optimizer_step(params.all_vars(), grads, opt)
                hgnn_loss = float(loss.value)
            _, preds = _eval_pass(params, g, plan, ep_nodes, cfg)
            micro, macro = evaluate_f1(preds, g.labels, split.validation)
            last_micro = micro
            reward = rl.compute_reward(agent.history, micro)
            q_loss = loop.dqn_update(batch, reward)
            step_counter += 1
            loop.report.steps.append(StepRecord(
                round=k, timestep=t, acting_nodes=ep_nodes[rows].tolist(), actions=batch.a.tolist(),
                reward=reward, micro_f1=micro, macro_f1=macro,
                q_loss=q_loss, hgnn_loss=hgnn_loss,
                wall_ms=1000 * (time.perf_counter() - step_t0),
            ))
        loop.design_wall_ms += 1000 * (time.perf_counter() - round_t0)
        loop.end_round(k, last_micro, ep_nodes, episodes, params)

    return loop.finish("hgnn_reinits", reinits, _eps_at(cfg, step_counter, total_steps))


# ---------------------------------------------------------------------------
# Algorithm variant 2: persistent network, one timestep per round


def run_rl_hgnn_pp(cfg: TrainConfig, g: HinGraph, split: DataSplit):
    """Fast loop: timestep t = (k mod T) + 1, one optimizer step and one DQN
    update per round, states from the normalised current representations."""
    loop = _Loop(cfg, g, split, "rl-hgnn-pp")
    agent = loop.agent
    K, T = cfg.resolved_rounds(), cfg.max_timesteps
    params = nn.init_params(g.schema, g.num_classes, T, cfg.hidden_dim, cfg.heads,
                            cfg.dropout, seed=_derive_seed(cfg.seed, 21))
    opt = nn.init_adam(params.all_vars(), cfg.learning_rate, cfg.weight_decay)
    hgnn_steps = 0

    for k in range(K):
        t = (k % T) + 1
        step_t0 = time.perf_counter()
        if t == 1:  # a new cycle, as at k = 0, so the cycle's state is set before any read
            cycle_t0 = step_t0
            ep_nodes, train_rows = loop.draw_batch()
            episodes = loop.fresh_episodes(g, ep_nodes)
            stopped = np.zeros(len(episodes), dtype=bool)
            # row i of the projected batch aligns with episode i
            reps = nn.project_attributes(params, g, [(g.target_type, ep_nodes)])
            norm_states = agent.normalizer.transform(reps)  # per-episode states of the round
        eps = _eps_at(cfg, k, K)
        rows, batch = _act(g, cfg, loop.table, episodes, stopped, norm_states,
                           agent.qnet, eps, loop.rng_eps, loop.memo)
        plan = build_plan(g, list(episodes))

        # recorded pass for the optimizer step, walked and released before the
        # clean pass for states/metrics; the step waits until after that pass
        loss = _train_loss(params, g, restrict(plan, train_rows), ep_nodes, train_rows, cfg,
                           seed=_derive_seed(cfg.seed, 31, k))
        grads = nn.backward(loss, params.all_vars())
        reps, preds = _eval_pass(params, g, plan, ep_nodes, cfg)
        micro, macro = evaluate_f1(preds, g.labels, split.validation)
        reward = rl.compute_reward(agent.history, micro)

        norm_states = agent.normalizer.transform(reps)
        live = ~batch.terminal
        batch.s_next[live] = norm_states[rows[live]]
        if t == T:
            batch.terminal[:] = True
        q_loss = loop.dqn_update(batch, reward)
        nn.optimizer_step(params.all_vars(), grads, opt)
        hgnn_steps += 1

        loop.report.steps.append(StepRecord(
            round=k, timestep=t, acting_nodes=ep_nodes[rows].tolist(), actions=batch.a.tolist(),
            reward=reward, micro_f1=micro, macro_f1=macro,
            q_loss=q_loss, hgnn_loss=float(loss.value),
            wall_ms=1000 * (time.perf_counter() - step_t0),
        ))
        if t == T or k == K - 1:
            loop.design_wall_ms += 1000 * (time.perf_counter() - cycle_t0)
            loop.end_round(k // T, micro, ep_nodes, episodes, params)

    return loop.finish("hgnn_steps", hgnn_steps, _eps_at(cfg, K, K))


def run(cfg: TrainConfig, g: HinGraph, split: DataSplit):
    return run_rl_hgnn(cfg, g, split) if cfg.variant == "rl-hgnn" else run_rl_hgnn_pp(cfg, g, split)


# ---------------------------------------------------------------------------
# Greedy inference with a trained agent


def predict(
    params: nn.HgnnParams,
    agent: rl.DqnAgent,
    g: HinGraph,
    cfg: TrainConfig,
    nodes: np.ndarray,
) -> np.ndarray:
    """Design meta-paths for `nodes` with the greedy policy (no exploration)
    and classify each node from its designed episode; predictions per node id.
    In rl-hgnn-pp the last step's eval pass gives both the state and the
    prediction, so the final plan is built and forwarded once.

    Raises ValueError when the model's schema, the agent's action count or
    cfg.fixed_path does not fit the graph; a state width that does not fit
    is named by QNetwork.values."""
    if params.schema != g.schema:
        raise ValueError("the model's schema is not the graph's: the checkpoint was trained "
                         "on another graph schema")
    num_actions = action_space_size(g.schema)
    if agent.qnet.num_actions != num_actions:
        raise ValueError(f"the agent has {agent.qnet.num_actions} actions, but the graph's "
                         f"schema has {num_actions} (one per relation type, plus Stop)")
    g.schema.need_relations("fixed_path", cfg.fixed_path or ())
    nodes = np.asarray(nodes)
    episodes = _fresh_episodes(g, nodes)
    stopped = np.zeros(len(episodes), dtype=bool)
    rng = np.random.default_rng(0)
    table = LegalActionTable.build(g.schema)
    memo: EpisodeMemo = {}  # nodes repeated in `nodes` share their extensions
    preds = None
    if cfg.variant == "rl-hgnn":
        states = _initial_static_states(g, episodes, rl.static_state_dim(g))
        for _ in range(cfg.max_timesteps + 1):
            if stopped.all():
                break
            rows, batch = _act(g, cfg, table, episodes, stopped, states, agent.qnet, 0.0, rng,
                               memo)
            _advance_static_states(g, episodes, states, rows, batch)
    else:
        reps = nn.project_attributes(params, g, [(g.target_type, nodes)])
        for _ in range(cfg.max_timesteps):
            if stopped.all():
                break
            states = agent.normalizer.apply(reps) if agent.normalizer else reps
            _act(g, cfg, table, episodes, stopped, states, agent.qnet, 0.0, rng, memo)
            reps, preds = _eval_pass(params, g, build_plan(g, list(episodes)), nodes, cfg)
    if preds is None:  # rl-hgnn, or rl-hgnn-pp over no nodes (build_plan names that)
        preds = _eval_pass(params, g, build_plan(g, episodes), nodes, cfg)[1]
    return preds


# ---------------------------------------------------------------------------
# Reporting


def action_report(report: EpisodeReport, g: HinGraph) -> ActionStats:
    """Action ratios and the meta-path table of the best-validation round."""
    best = report.best_round()
    if report.variant == "rl-hgnn":
        in_round = [s for s in report.steps if s.round == best.round]
    else:
        T = max(s.timestep for s in report.steps)
        in_round = [s for s in report.steps if s.round // T == best.round]
    schema = g.schema
    names = [r.name for r in schema.relation_types] + ["STOP"]
    per_t = {
        s.timestep: {names[a]: float(r) for a, r in enumerate(s.action_ratios(len(names))) if r}
        for s in in_round if s.actions
    }
    counts: dict[tuple[str, ...], int] = {}
    stop0 = 0
    for rels in best.paths:
        if len(rels) == 0:
            stop0 += 1
        else:
            counts[rels] = counts.get(rels, 0) + 1
    table = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ActionStats(
        best_round=best.round,
        best_val_metric=best.val_metric,
        per_timestep=per_t,
        path_counts=[(MetaPath(g.target_type, rels).to_arrow(schema), c) for rels, c in table],
        stop_at_zero=stop0,
        num_paths=max(1, len(best.paths)),
    )


# ---------------------------------------------------------------------------
# Benchmarks


def random_legal_episodes(
    g: HinGraph,
    nodes: np.ndarray,
    length: int,
    seed: int,
    fan_out_cap: int | None = None,
) -> list[Episode]:
    """Uniform random legal meta-paths of (up to) the given length."""
    rng = np.random.default_rng(seed)
    episodes = _fresh_episodes(g, nodes)
    for i, ep in enumerate(episodes):
        for _ in range(length):
            legal = g.schema.relations_from(ep.frontier.node_type)
            if not legal:
                break
            nxt = _extend(g, ep, legal[int(rng.integers(len(legal)))].name, fan_out_cap, seed)
            if nxt is None:
                break
            ep = nxt
        episodes[i] = ep
    return episodes


def bench_aggregation(
    g: HinGraph,
    cfg: TrainConfig,
    timesteps: list[int],
    episodes_per_t: int | None = None,
    seed: int = 0,
) -> dict[int, AggregationStats]:
    """Naive vs merged step counts for random legal episodes at each T; each
    result also holds the two plans it compared.

    Start nodes are drawn with replacement: training revisits nodes across
    rounds, and repeated aggregation demand is exactly the workload the
    merge removes. Counts are per episode batch.
    """
    n_target = g.num_nodes[g.target_type]
    n = cfg.node_batch if episodes_per_t is None else episodes_per_t
    if n < 1:
        raise ValueError(f"episode count must be >= 1, got {n}")
    for T in timesteps:
        if T < 1:
            raise ValueError(f"timesteps must be >= 1, got {T}")
    rng = np.random.default_rng(seed)
    out: dict[int, AggregationStats] = {}
    for T in timesteps:
        starts = np.sort(rng.integers(0, n_target, size=n))
        eps = random_legal_episodes(g, starts, T, seed=_derive_seed(seed, T),
                                    fan_out_cap=cfg.fan_out_cap)
        out[T] = plan_stats(naive_plan(g, eps), build_plan(g, eps))
    return out


def bench_runtime(cfg: TrainConfig, g: HinGraph, split: DataSplit, repeats: int = 3) -> dict:
    """Wall time of the meta-path design phase for both variants.

    The design phase is everything needed to produce one complete designed
    batch: a full round for the base variant (including its B inner training
    rounds) and a full T-round cycle for the fast variant. Each variant runs
    once untimed before its `repeats` timed runs, so first-call costs (cold
    caches, lazy imports, allocator growth) stay out of the means.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results: dict[str, list[float]] = {"rl-hgnn": [], "rl-hgnn-pp": []}
    for variant in results:
        run(replace(cfg, variant=variant, seed=_derive_seed(cfg.seed, 0)), g, split)
        for i in range(repeats):
            run_cfg = replace(cfg, variant=variant, seed=_derive_seed(cfg.seed, i))
            _, _, report = run(run_cfg, g, split)
            results[variant].append(report.meta["design_wall_ms"])
    mean_base = float(np.mean(results["rl-hgnn"]))
    mean_pp = float(np.mean(results["rl-hgnn-pp"]))
    return {
        "rl-hgnn_ms": results["rl-hgnn"],
        "rl-hgnn-pp_ms": results["rl-hgnn-pp"],
        "mean_rl-hgnn_ms": mean_base,
        "mean_rl-hgnn-pp_ms": mean_pp,
        "ratio": mean_pp / mean_base if mean_base > 0 else float("nan"),
    }
