"""Reverse-mode autodiff over numpy arrays, limited to the ops the models need.

Every Var holds a float64 ndarray. Ops record a closure that maps the output
gradient to per-parent gradients; backward() walks the tape once, in reverse
topological order, leaves .grad on every leaf and releases each interior
node as soon as its closure has run. Inside no_grad() ops record nothing.
No broadcasting beyond what the ops below implement.

The ops here are the Q-network's and the HGNN projection's. The HGNN's
aggregation layers, its classifier and its loss are one Var each, with
hand-written closures, in rlhgnn.model.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

Array = np.ndarray


def _as_f64(x) -> Array:
    a = np.asarray(x, dtype=np.float64)
    return a


class _Recording(threading.local):
    on = True  # every thread starts out recording


_recording = _Recording()


@contextmanager
def no_grad():
    """Compute values only: inside the block, on the calling thread, every
    Var an op returns has no parents and no closure, so nothing can be
    backpropagated through it and each intermediate is freed as soon as the
    caller drops it. Blocks nest; on exit, also by an exception, the state
    before the block is restored. Other threads keep recording."""
    before = _recording.on
    _recording.on = False
    try:
        yield
    finally:
        _recording.on = before


def recording() -> bool:
    """Whether ops on the calling thread record a tape (False inside no_grad)."""
    return _recording.on


class Var:
    """A node in the computation graph."""

    __slots__ = ("value", "grad", "parents", "bw")

    def __init__(self, value, parents=(), bw=None):
        self.value = _as_f64(value)
        if _recording.on:
            self.parents: tuple[Var, ...] = parents
            self.bw = bw  # callable(grad_out) -> tuple of parent grads
        else:
            self.parents, self.bw = (), None
        self.grad: Array | None = None

    @property
    def shape(self):
        return self.value.shape

    def check_finite(self, what: str = "tensor") -> "Var":
        if not np.all(np.isfinite(self.value)):
            raise ValueError(f"non-finite values in {what}")
        return self


def param(value) -> Var:
    """Leaf variable holding trainable values."""
    return Var(value)


def const(value) -> Var:
    return Var(value)


def unbroadcast(grad: Array, shape) -> Array:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a: Var, b: Var) -> Var:
    return Var(a.value + b.value, (a, b),
               lambda g: (unbroadcast(g, a.value.shape), unbroadcast(g, b.value.shape)))


def sub(a: Var, b: Var) -> Var:
    return Var(a.value - b.value, (a, b),
               lambda g: (unbroadcast(g, a.value.shape), unbroadcast(-g, b.value.shape)))


def mul_const(a: Var, c) -> Var:
    """Multiply by a constant array; no grad for c."""
    c = _as_f64(c)
    return Var(a.value * c, (a,), lambda g: (unbroadcast(g * c, a.value.shape),))


def matmul(a: Var, b: Var) -> Var:
    return Var(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def relu(a: Var) -> Var:
    mask = a.value > 0
    return Var(a.value * mask, (a,), lambda g: (g * mask,))


def total_mean(a: Var) -> Var:
    n = a.value.size
    return Var(a.value.sum() / n, (a,), lambda g: (np.full_like(a.value, float(g) / n),))


def sum_cols(a: Var) -> Var:
    """Row-wise sum: (n, k) -> (n,)."""
    return Var(a.value.sum(axis=1), (a,),
               lambda g: (np.repeat(g[:, None], a.value.shape[1], axis=1),))


def vstack(parts: list[Var]) -> Var:
    offs = np.concatenate(([0], np.cumsum([p.value.shape[0] for p in parts])))
    return Var(np.concatenate([p.value for p in parts], axis=0), tuple(parts),
               lambda g: tuple(g[offs[i]:offs[i + 1]] for i in range(len(parts))))


def square(a: Var) -> Var:
    return Var(a.value * a.value, (a,), lambda g: (2.0 * g * a.value,))


def _topo(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _released(g):
    raise ValueError("this tape was released by an earlier backward; "
                     "record the forward pass again")


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every leaf reachable from root.

    root must be scalar. Existing .grad values of the leaves are overwritten.
    Interior nodes are released as the walk passes them (no .grad, no
    parents), so their gradients and the activations their closures hold are
    freed in reverse order. A tape is walked once: a second backward through
    a released node raises ValueError.
    """
    if root.value.ndim != 0:
        raise ValueError("backward expects a scalar root")
    order = _topo(root)
    for node in order:
        node.grad = None
    root.grad = np.asarray(1.0)
    while order:
        node = order.pop()
        if node.bw is None:
            continue
        # Stored grads own their memory, so an owning array from the closure is
        # fresh or this node's released .grad: it may go uncopied to one parent.
        handed = []
        for parent, g in zip(node.parents, node.bw(node.grad)):
            if parent.grad is not None:
                parent.grad += g
            elif (isinstance(g, np.ndarray) and g.dtype == np.float64 and g.base is None
                  and not any(g is h for h in handed)):
                parent.grad = g
                handed.append(g)
            else:
                parent.grad = np.array(g, dtype=np.float64, copy=True)
        node.grad, node.bw, node.parents = None, _released, ()
