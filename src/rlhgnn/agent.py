"""MDP machinery: states for both model variants, Q-network, action
selection, reward baseline, replay memory, target network and the TD update.

The Q head is fixed per schema: one slot per relation type plus a trailing
Stop slot. TD learning reads raw action values; the softmax view exists only
for reporting, since squashing values into (0, 1) would fight the regression
target.
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

    def probabilities(self, states: np.ndarray) -> np.ndarray:
        """Softmax reporting view of the action values."""
        q = self.values(states)
        z = np.exp(q - q.max(axis=1, keepdims=True))
        return z / z.sum(axis=1, keepdims=True)


def select_action(qvals: np.ndarray, legal_mask: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Masked epsilon-greedy; illegal actions are never returned."""
    legal = np.flatnonzero(legal_mask)
    if len(legal) == 0:
        raise ValueError("no legal action")
    if eps > 0 and rng.random() < eps:
        return int(rng.choice(legal))
    q = np.where(legal_mask, qvals, -np.inf)
    return int(np.argmax(q))


def sync_target(qnet: QNetwork, target_net: QNetwork) -> None:
    """theta_minus := theta, exactly."""
    for src, dst in zip(qnet.vars(), target_net.vars()):
        dst.value = src.value.copy()


@dataclass
class Transition:
    s: np.ndarray
    a: int
    s_next: np.ndarray
    r: float
    terminal: bool
    next_mask: np.ndarray  # legality of actions in s_next, for the TD max


class ReplayBuffer:
    """Bounded FIFO of transitions; eviction is strictly oldest-first."""

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
            return (states - self.mean) / self.std
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


def td_loss(qnet: QNetwork, target_net: QNetwork, batch: list[Transition], gamma: float) -> ad.Var:
    """Mean squared TD error; the max over next actions respects legality."""
    if not batch:
        raise ValueError("empty batch")
    S = np.stack([t.s for t in batch])
    S_next = np.stack([t.s_next for t in batch])
    terminal = np.array([t.terminal for t in batch])
    r = np.array([t.r for t in batch])
    tq = target_net.values(S_next)
    masks = np.stack([t.next_mask for t in batch])
    tq = np.where(masks, tq, -np.inf)
    max_next = tq.max(axis=1)
    max_next = np.where(terminal, 0.0, max_next)
    y = r + gamma * max_next * (~terminal)
    Q = qnet.forward(S)
    onehot = np.zeros((len(batch), qnet.num_actions))
    onehot[np.arange(len(batch)), [t.a for t in batch]] = 1.0
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
