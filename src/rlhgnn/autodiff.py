"""Reverse-mode autodiff over numpy arrays: the tape and nothing else.

Every Var holds a float64 ndarray. A recorded Var keeps its parents and a
closure that maps its output gradient to one gradient per parent;
backward() walks the tape once, in reverse topological order, leaves .grad
on every leaf and releases each interior node as soon as its closure has
run. The tape holds no mode: whether a pass records is its caller's choice
(rlhgnn.model.hgnn_forward records in train mode only).

This module defines no ops. Each recorded node is a whole model stage with
a hand-written closure: the HGNN's aggregation (from the projections to the
episode outputs), its classifier and its loss in rlhgnn.model, and the
Q-network's TD loss in rlhgnn.agent.
"""
from __future__ import annotations

import numpy as np


class Var:
    """A node in the computation graph."""

    __slots__ = ("value", "grad", "parents", "bw")

    def __init__(self, value, parents=(), bw=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Var, ...] = parents
        self.bw = bw  # callable(grad_out) -> tuple of parent grads
        self.grad: np.ndarray | None = None

    def check_finite(self, what: str = "tensor") -> "Var":
        if not np.all(np.isfinite(self.value)):
            raise ValueError(f"non-finite values in {what}")
        return self


def param(value) -> Var:
    """Leaf variable holding trainable values."""
    return Var(value)


def unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


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
