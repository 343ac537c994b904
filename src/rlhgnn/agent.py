"""MDP machinery: states for both model variants, Q-network, action
selection, reward baseline, replay memory, target network and the TD update.

The Q head is fixed per schema: one slot per relation type plus a trailing
Stop slot. TD learning reads raw action values; the TD loss is one
autodiff Var with the MLP's hand-written backward.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import check_arrays, header_fields, read_checkpoint, write_checkpoint
from .hin import NUMBER, HinGraph, Rule, at_least, list_of, number
from .metapath import Episode, arrived_mean
from .model import AdamState, _axis_sum, _glorot, backward, init_adam, optimizer_step

Q_HIDDEN = (32, 64, 128, 64, 32)


def q_shapes(input_dim: int, hidden, num_actions: int) -> list[tuple[int, int]]:
    """Shape of every Q-network parameter in vars() order: each layer's
    weight (fan in, fan out), then its bias (1, fan out)."""
    dims = [input_dim, *hidden, num_actions]
    return [s for m, n in zip(dims, dims[1:]) for s in ((m, n), (1, n))]


class QNetwork:
    """MLP action-value network with ReLU hidden layers."""

    def __init__(self, input_dim: int, num_actions: int, hidden=Q_HIDDEN, seed: int = 0):
        self.input_dim = input_dim
        self.num_actions = num_actions
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        shapes = q_shapes(input_dim, hidden, num_actions)
        self.weights = [ad.param(_glorot(rng, *s, s)) for s in shapes[::2]]
        self.biases = [ad.param(np.zeros(s)) for s in shapes[1::2]]

    def vars(self) -> list[ad.Var]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def _activations(self, states: np.ndarray) -> list[np.ndarray]:
        """The MLP forward over a batch of states: each layer's input, then
        the raw action values."""
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"state dim {x.shape[1]} != network input {self.input_dim}")
        xs = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w.value + b.value
            if i < len(self.weights) - 1:
                x = np.maximum(x, 0.0)
            xs.append(x)
        return xs

    def values(self, states: np.ndarray) -> np.ndarray:
        """Raw action values without recording."""
        return self._activations(states)[-1]


def select_action(qvals: np.ndarray, legal_mask: np.ndarray, eps: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Masked epsilon-greedy; illegal actions are never returned.

    Takes a batch of Q-value rows (one per episode) with their legality masks
    and returns one int64 action per row. One masked argmax serves every row.
    Draws stay scalar and in row order: for each row, u = rng.random() only
    when eps > 0, and when u < eps a uniform legal action
    legal[rng.integers(len(legal))], which equals rng.choice(legal) in value
    and in generator state.
    """
    if qvals.shape != legal_mask.shape:
        raise ValueError(f"Q-values {qvals.shape} and legality masks {legal_mask.shape} differ in shape")
    if not legal_mask.any(axis=1).all():
        raise ValueError("no legal action")
    actions = np.argmax(np.where(legal_mask, qvals, -np.inf), axis=1)
    if eps > 0:
        for i in range(len(actions)):
            if rng.random() < eps:
                legal = np.flatnonzero(legal_mask[i])
                actions[i] = legal[rng.integers(len(legal))]
    return actions


def sync_target(qnet: QNetwork, target_net: QNetwork) -> None:
    """theta_minus := theta, exactly."""
    for src, dst in zip(qnet.vars(), target_net.vars()):
        dst.value = src.value.copy()


# field name -> dtype, in TransitionBatch order
_FIELDS = {"s": np.float64, "a": np.int64, "r": np.float64, "s_next": np.float64,
           "terminal": bool, "next_mask": bool}


@dataclass
class TransitionBatch:
    """Transitions as parallel arrays, one row per transition."""

    s: np.ndarray  # (n, state dim) float64
    a: np.ndarray  # (n,) int64
    r: np.ndarray  # (n,) float64
    s_next: np.ndarray  # (n, state dim) float64
    terminal: np.ndarray  # (n,) bool
    next_mask: np.ndarray  # (n, actions) bool: legality in s_next, for the TD max

    def __len__(self) -> int:
        return len(self.a)


# ring memory per allocation; see ReplayBuffer
_BLOCK_BYTES = 1 << 20


class ReplayBuffer:
    """Bounded FIFO of transitions; eviction is strictly oldest-first.

    Rows live in a ring of records with one field per TransitionBatch array.
    The ring is allocated with np.zeros in blocks of ~1 MB as writes first
    reach them, so only blocks that rows have been written to take memory.
    Blocks of that size come from the allocator's heap and reuse memory that
    training has freed; a single ring-sized array is mapped on its own and
    adds its rows to the peak resident memory (~12% on the scale-pp
    benchmark workload).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._record: np.dtype | None = None  # fixed by the first write
        self._block_rows = 0
        self._blocks: list[np.ndarray] = []  # ring rows i * _block_rows onwards
        self._next = 0  # ring row of the next write
        self._len = 0

    def push_batch(self, batch: TransitionBatch) -> None:
        """Append the batch's rows in order; when any reward is non-finite or
        any field has the wrong shape, nothing is written."""
        n = len(batch)
        if not np.isfinite(batch.r).all():
            raise ValueError("non-finite reward")
        if n == 0:
            return
        if self._record is None:
            self._record = np.dtype([(f, dtype, getattr(batch, f).shape[1:])
                                     for f, dtype in _FIELDS.items()], align=True)
            self._block_rows = max(1, _BLOCK_BYTES // self._record.itemsize)
        for f in _FIELDS:
            have, want = getattr(batch, f).shape, (n, *self._record[f].shape)
            if have != want:
                raise ValueError(f"transition field {f!r} has shape {have}, expected {want}")
        i = max(0, n - self.capacity)  # a batch larger than the ring keeps its tail
        while i < n:  # one contiguous run per block
            b, off = divmod(self._next, self._block_rows)
            if b == len(self._blocks):
                rows = min(self._block_rows, self.capacity - b * self._block_rows)
                self._blocks.append(np.zeros(rows, dtype=self._record))
            block = self._blocks[b]
            k = min(n - i, len(block) - off)
            for f in _FIELDS:
                block[f][off:off + k] = getattr(batch, f)[i:i + k]
            i += k
            self._next = (self._next + k) % self.capacity
        self._len = min(self.capacity, self._len + n)

    def _take(self, logical: np.ndarray) -> TransitionBatch:
        """A copy of the rows at these FIFO positions (0 = oldest)."""
        ring_rows = (self._next - self._len + logical) % self.capacity
        rows = np.empty(len(ring_rows), dtype=self._record)
        block_of, offset = np.divmod(ring_rows, self._block_rows)
        for b in np.unique(block_of):
            picked = block_of == b
            rows[picked] = self._blocks[b][offset[picked]]
        return TransitionBatch(*(np.ascontiguousarray(rows[f]) for f in _FIELDS))

    def sample(self, n: int, rng: np.random.Generator) -> TransitionBatch:
        if n > self._len:
            raise ValueError(f"batch size {n} exceeds buffer size {self._len}")
        return self._take(rng.integers(0, self._len, size=n))

    def __len__(self) -> int:
        return self._len


class Normalizer:
    """Per-dimension affine transform fitted on the first recorded states.

    Until enough states are recorded the transform is the identity (raw
    states pass through and are kept for fitting); after fitting, mean and
    std are frozen, with std floored at 1e-6.
    """

    def __init__(self, fit_count: int):
        self.fit_count = fit_count
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None
        self._pending: list[np.ndarray] = []

    @property
    def frozen(self) -> bool:
        return self.mean is not None

    def transform(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if self.frozen:
            return self.apply(states)
        self._pending.append(states.copy())
        if sum(map(len, self._pending)) >= self.fit_count:
            stacked = np.concatenate(self._pending, axis=0)
            self.mean = stacked.mean(axis=0)
            self.std = np.maximum(stacked.std(axis=0), 1e-6)
            self._pending = []
        return states

    def apply(self, states: np.ndarray) -> np.ndarray:
        """Read-only transform: like transform(), but never records states."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if self.frozen:
            return (states - self.mean) / self.std
        return states


def state_static(g: HinGraph, episodes: list[Episode], states: np.ndarray,
                 rows: np.ndarray) -> None:
    """Advance row r of `states`, for each r in `rows`, in place to the running
    average of episodes[r]'s arrived-attribute means: (mean(D) + s_prev) / 2.

    Attribute vectors are zero-padded to the state dimension so that types
    with different attribute widths share one state space.
    """
    for r in rows:
        mean = arrived_mean(g, episodes[r])
        padded = np.zeros_like(states[r])
        padded[: len(mean)] = mean
        states[r] = (padded + states[r]) / 2.0


def initial_state_static(g: HinGraph, episodes: list[Episode], state_dim: int) -> np.ndarray:
    """s_0 of every episode, row i for episode i: its start node's own
    attributes (zero-padded)."""
    states = np.zeros((len(episodes), state_dim))
    for i, (t, node) in enumerate(e.start for e in episodes):
        states[i, : g.attributes[t].shape[1]] = g.attributes[t][node]
    return states


def static_state_dim(g: HinGraph) -> int:
    return max(g.schema.attribute_dims[t] for t in g.schema.node_types)


def compute_reward(history: deque[float], current: float) -> float:
    """Gain of current over the mean of `history`, 0.0 while it is empty; records current."""
    if not 0.0 <= current <= 1.0:
        raise ValueError("metric value must lie in [0, 1]")
    reward = current - float(np.mean(history)) if history else 0.0
    history.append(float(current))
    return reward


def td_loss(qnet: QNetwork, target_net: QNetwork, batch: TransitionBatch,
            gamma: float) -> ad.Var:
    """Mean squared TD error; the max over next actions respects legality.
    One Var over qnet.vars(), whose closure has the per-op tape's
    expressions, for equal bits; the states get no gradient."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    tq = np.where(batch.next_mask, target_net._activations(batch.s_next)[-1], -np.inf)
    max_next = np.where(batch.terminal, 0.0, tq.max(axis=1))
    y = batch.r + gamma * max_next * (~batch.terminal)
    xs = qnet._activations(batch.s)
    onehot = np.zeros((len(batch), qnet.num_actions))
    onehot[np.arange(len(batch)), batch.a] = 1.0
    diff = y - (xs.pop() * onehot).sum(axis=1)

    def bw(g):
        # the mean, the square, y - picked, the row sum and the one-hot mask
        g = -(2.0 * np.full_like(diff, float(g) / diff.size) * diff)
        g = np.repeat(g[:, None], onehot.shape[1], axis=1) * onehot
        grads = []
        for i in range(len(xs) - 1, -1, -1):  # x @ W + b, then the relu below it
            grads[:0] = [xs[i].T @ g, _axis_sum(g, 0)]
            if i:
                g = (g @ qnet.weights[i].value.T) * (xs[i] > 0)
        return tuple(grads)

    return ad.Var((diff * diff).sum() / diff.size, tuple(qnet.vars()), bw)


def dqn_step(
    qnet: QNetwork,
    target_net: QNetwork,
    buffer: ReplayBuffer,
    opt_state: AdamState,
    gamma: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """One uniform-with-replacement sample and one optimizer step on theta."""
    batch = buffer.sample(batch_size, rng)
    loss = td_loss(qnet, target_net, batch, gamma)
    optimizer_step(opt_state, backward(loss, opt_state.params))
    return float(loss.value)


@dataclass
class DqnAgent:
    """Q-network plus its training companions, bundled for the loops; `history` holds
    the last reward_window validation scores, `eps_position` the run's final ε."""

    qnet: QNetwork
    target_net: QNetwork
    opt_state: AdamState
    buffer: ReplayBuffer
    history: deque[float]
    gamma: float
    sync_every: int
    normalizer: Normalizer | None = None
    update_count: int = 0
    eps_position: float = 0.0

    @classmethod
    def create(
        cls,
        input_dim: int,
        num_actions: int,
        buffer_capacity: int,
        gamma: float = 0.95,
        sync_every: int = 20,
        reward_window: int = 5,
        lr: float = 0.005,
        weight_decay: float = 0.0001,
        normalizer_fit: int | None = None,
        hidden=Q_HIDDEN,
        seed: int = 0,
    ) -> "DqnAgent":
        if reward_window < 1:
            raise ValueError("window must be positive")
        qnet = QNetwork(input_dim, num_actions, hidden, seed=seed)
        return cls(
            qnet=qnet,
            # drawn from qnet's seed, so theta_minus starts equal to theta
            target_net=QNetwork(input_dim, num_actions, hidden, seed=seed),
            opt_state=init_adam(qnet.vars(), lr, weight_decay),
            buffer=ReplayBuffer(buffer_capacity),
            history=deque(maxlen=reward_window),
            gamma=gamma,
            sync_every=sync_every,
            normalizer=Normalizer(normalizer_fit) if normalizer_fit else None,
        )

    def maybe_update(self, batch_size: int, rng: np.random.Generator) -> float | None:
        """Run a DQN update if the buffer can supply a batch; sync on schedule."""
        if len(self.buffer) < batch_size:
            return None
        loss = dqn_step(self.qnet, self.target_net, self.buffer, self.opt_state,
                        self.gamma, batch_size, rng)
        self.update_count += 1
        if self.update_count % self.sync_every == 0:
            sync_target(self.qnet, self.target_net)
        return loss


def _named_vars(agent: DqnAgent) -> list[tuple[str, ad.Var]]:
    """Checkpoint name of every network parameter, in checkpoint order."""
    return ([(f"q:{i}", v) for i, v in enumerate(agent.qnet.vars())]
            + [(f"target:{i}", v) for i, v in enumerate(agent.target_net.vars())])


# header fields besides the normalizer
_HEADER = {
    **dict.fromkeys(("input_dim", "num_actions", "sync_every", "reward_window",
                     "buffer_capacity"), at_least(1)),
    "hidden": list_of(at_least(1), "a list of integers >= 1"),
    "gamma": NUMBER,
    "update_count": at_least(0),
    "eps_position": number(lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
}


def _normalizer_rule(n: int) -> Rule:
    """null, or the fit count and the mean and std of n features (null until fitted)."""
    stats, fit = list_of(NUMBER, f"a list of {n} numbers", n), at_least(1)
    return Rule(lambda v: v is None or (
        isinstance(v, dict) and set(v) == {"fit_count", "mean", "std"} and fit.ok(v["fit_count"])
        and (v["mean"] is None and v["std"] is None or stats.ok(v["mean"]) and stats.ok(v["std"]))),
        f"null or {{fit_count: {fit.what}, mean and std: both null or both {stats.what}}}")


def save_agent(agent: DqnAgent, path) -> None:
    norm = agent.normalizer
    write_checkpoint(path, "dqn-agent", {
        "input_dim": agent.qnet.input_dim,
        "num_actions": agent.qnet.num_actions,
        "hidden": list(agent.qnet.hidden),
        "gamma": agent.gamma,
        "sync_every": agent.sync_every,
        "update_count": agent.update_count,
        "eps_position": agent.eps_position,
        "reward_window": agent.history.maxlen,
        "buffer_capacity": agent.buffer.capacity,
        "normalizer": None
        if norm is None
        else {
            "fit_count": norm.fit_count,
            "mean": None if norm.mean is None else norm.mean.tolist(),
            "std": None if norm.std is None else norm.std.tolist(),
        },
    }, [(n, v.value) for n, v in _named_vars(agent)])


def load_agent(path) -> DqnAgent:
    """Raises ValueError naming the file unless it holds exactly the arrays
    of the networks its header describes, each with its shape."""
    header, arrays = read_checkpoint(path, "dqn-agent")
    f = header_fields(path, header, _HEADER)
    norm = header_fields(path, header,
                         {"normalizer": _normalizer_rule(f["input_dim"])})["normalizer"]
    # _named_vars' shapes from the header, checked before any network is built
    shapes = q_shapes(f["input_dim"], f["hidden"], f["num_actions"])
    check_arrays(path, arrays, {f"{net}:{j}": s for net in ("q", "target")
                                for j, s in enumerate(shapes)})
    agent = DqnAgent.create(
        input_dim=f["input_dim"],
        num_actions=f["num_actions"],
        buffer_capacity=f["buffer_capacity"],
        gamma=f["gamma"],
        sync_every=f["sync_every"],
        reward_window=f["reward_window"],
        hidden=tuple(f["hidden"]),
    )
    for n, v in _named_vars(agent):
        v.value = arrays[n]
    agent.update_count, agent.eps_position = f["update_count"], f["eps_position"]
    if norm is not None:
        agent.normalizer = Normalizer(norm["fit_count"])
        if norm["mean"] is not None:
            agent.normalizer.mean = np.asarray(norm["mean"])
            agent.normalizer.std = np.asarray(norm["std"])
    return agent
