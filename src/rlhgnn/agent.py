"""MDP machinery: states for both model variants, Q-network, action
selection, reward baseline, replay memory, target network and the TD update.

The Q head is fixed per schema: one slot per relation type plus a trailing
Stop slot. TD learning reads raw action values.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import read_checkpoint, write_checkpoint
from .hin import HinGraph
from .metapath import Frontier, arrived_mean
from .model import AdamState, _glorot, backward, init_adam, optimizer_step

Q_HIDDEN = (32, 64, 128, 64, 32)


class QNetwork:
    """MLP action-value network with ReLU hidden layers."""

    def __init__(self, input_dim: int, num_actions: int, hidden=Q_HIDDEN, seed: int = 0):
        self.input_dim = input_dim
        self.num_actions = num_actions
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden, num_actions]
        self.weights = [
            ad.param(_glorot(rng, dims[i], dims[i + 1], (dims[i], dims[i + 1])))
            for i in range(len(dims) - 1)
        ]
        self.biases = [ad.param(np.zeros((1, dims[i + 1]))) for i in range(len(dims) - 1)]

    def vars(self) -> list[ad.Var]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def forward(self, states: np.ndarray) -> ad.Var:
        """Recorded forward pass over a batch of states."""
        x = ad.const(np.atleast_2d(states))
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = ad.add(ad.matmul(x, w), b)
            if i < len(self.weights) - 1:
                x = ad.relu(x)
        return x

    def values(self, states: np.ndarray) -> np.ndarray:
        """Raw action values without recording."""
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"state dim {x.shape[1]} != network input {self.input_dim}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w.value + b.value
            if i < len(self.weights) - 1:
                x = np.maximum(x, 0.0)
        return x


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
        if len(self._blocks) == 1:
            rows = self._blocks[0][ring_rows]
        else:
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
        self._seen = 0

    @property
    def frozen(self) -> bool:
        return self.mean is not None

    def transform(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if self.frozen:
            return self.apply(states)
        self._pending.append(states.copy())
        self._seen += len(states)
        if self._seen >= self.fit_count:
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


def state_static(g: HinGraph, frontier: Frontier, prev_state: np.ndarray) -> np.ndarray:
    """Running average of arrived-attribute means: (mean(D) + s_prev) / 2.

    Attribute vectors are zero-padded to the state dimension so that types
    with different attribute widths share one state space.
    """
    mean = arrived_mean(g, frontier)
    padded = np.zeros_like(prev_state)
    padded[: len(mean)] = mean
    return (padded + prev_state) / 2.0


def initial_state_static(g: HinGraph, node, state_dim: int) -> np.ndarray:
    """s_0 is the start node's own attributes (zero-padded)."""
    x = g.attributes[node[0]][node[1]]
    s = np.zeros(state_dim)
    s[: len(x)] = x
    return s


def static_state_dim(g: HinGraph) -> int:
    return max(g.schema.attribute_dims[t] for t in g.schema.node_types)


class RewardHistory:
    """Ring buffer of the last `window` validation metric values."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._values: deque[float] = deque(maxlen=window)

    def baseline(self) -> float | None:
        if not self._values:
            return None
        return float(np.mean(self._values))

    def record(self, value: float) -> None:
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)


def compute_reward(history: RewardHistory, current: float) -> float:
    """Improvement of the metric over the moving baseline; records current."""
    if not 0.0 <= current <= 1.0:
        raise ValueError("metric value must lie in [0, 1]")
    base = history.baseline()
    reward = 0.0 if base is None else current - base
    history.record(current)
    return reward


def td_loss(qnet: QNetwork, target_net: QNetwork, batch: TransitionBatch,
            gamma: float) -> ad.Var:
    """Mean squared TD error; the max over next actions respects legality."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    tq = target_net.values(batch.s_next)
    tq = np.where(batch.next_mask, tq, -np.inf)
    max_next = tq.max(axis=1)
    max_next = np.where(batch.terminal, 0.0, max_next)
    y = batch.r + gamma * max_next * (~batch.terminal)
    Q = qnet.forward(batch.s)
    onehot = np.zeros((len(batch), qnet.num_actions))
    onehot[np.arange(len(batch)), batch.a] = 1.0
    picked = ad.sum_cols(ad.mul_const(Q, onehot))
    return ad.total_mean(ad.square(ad.sub(ad.const(y), picked)))


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
    grads = backward(loss, qnet.vars())
    optimizer_step(qnet.vars(), grads, opt_state)
    return float(loss.value)


@dataclass
class DqnAgent:
    """Q-network plus its training companions, bundled for the loops."""

    qnet: QNetwork
    target_net: QNetwork
    opt_state: AdamState
    buffer: ReplayBuffer
    history: RewardHistory
    gamma: float
    sync_every: int
    normalizer: Normalizer | None = None
    update_count: int = 0

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
        qnet = QNetwork(input_dim, num_actions, hidden, seed=seed)
        target = QNetwork(input_dim, num_actions, hidden, seed=seed)
        sync_target(qnet, target)
        return cls(
            qnet=qnet,
            target_net=target,
            opt_state=init_adam(qnet.vars(), lr, weight_decay),
            buffer=ReplayBuffer(buffer_capacity),
            history=RewardHistory(reward_window),
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


def save_agent(agent: DqnAgent, path, eps_position: float = 0.0) -> None:
    arrays = [(f"q:{i}", v.value) for i, v in enumerate(agent.qnet.vars())]
    arrays += [(f"target:{i}", v.value) for i, v in enumerate(agent.target_net.vars())]
    norm = agent.normalizer
    write_checkpoint(path, "dqn-agent", {
        "input_dim": agent.qnet.input_dim,
        "num_actions": agent.qnet.num_actions,
        "hidden": list(agent.qnet.hidden),
        "gamma": agent.gamma,
        "sync_every": agent.sync_every,
        "update_count": agent.update_count,
        "eps_position": eps_position,
        "reward_window": agent.history.window,
        "buffer_capacity": agent.buffer.capacity,
        "normalizer": None
        if norm is None
        else {
            "fit_count": norm.fit_count,
            "mean": None if norm.mean is None else norm.mean.tolist(),
            "std": None if norm.std is None else norm.std.tolist(),
        },
    }, arrays)


def load_agent(path) -> DqnAgent:
    header, arrays = read_checkpoint(path, "dqn-agent")
    agent = DqnAgent.create(
        input_dim=header["input_dim"],
        num_actions=header["num_actions"],
        buffer_capacity=header["buffer_capacity"],
        gamma=header["gamma"],
        sync_every=header["sync_every"],
        reward_window=header["reward_window"],
        hidden=tuple(header["hidden"]),
    )
    for i, v in enumerate(agent.qnet.vars()):
        v.value = arrays[f"q:{i}"]
    for i, v in enumerate(agent.target_net.vars()):
        v.value = arrays[f"target:{i}"]
    agent.update_count = header["update_count"]
    norm = header.get("normalizer")
    if norm is not None:
        agent.normalizer = Normalizer(norm["fit_count"])
        if norm["mean"] is not None:
            agent.normalizer.mean = np.asarray(norm["mean"])
            agent.normalizer.std = np.asarray(norm["std"])
    return agent
