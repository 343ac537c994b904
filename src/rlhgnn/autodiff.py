"""Reverse-mode autodiff over numpy arrays: the tape and nothing else.

A Var holds a float64 ndarray. A recorded Var keeps its parents and a
closure mapping its output gradient to one gradient per parent. A parameter
(param()) is a leaf, without a closure; any other Var, such as an eval
pass's outputs or a constant, has no_tape as its closure. A Var stores no
gradient: backward returns each leaf's gradient in a map.

This module defines no ops and holds no mode. Each recorded node is a whole
model stage with a hand-written closure, and every tape is a chain: a train
step records rlhgnn.model's hgnn_forward -> classify -> cross_entropy, a DQN
update rlhgnn.agent.td_loss alone. Each node has at most one recorded parent
and names each leaf once.
"""
from __future__ import annotations

import numpy as np


def no_tape(g):
    """The closure of a Var that no backward can walk through."""
    raise ValueError("no tape to walk: record a train-mode forward pass for each backward")


class Var:
    """A node in the computation graph."""

    __slots__ = ("value", "parents", "bw")

    def __init__(self, value, parents=(), bw=no_tape):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Var, ...] = parents
        self.bw = bw  # callable(grad_out) -> tuple of parent grads; None for a leaf

    def check_finite(self, what: str = "tensor") -> "Var":
        if not np.all(np.isfinite(self.value)):
            raise ValueError(f"non-finite values in {what}")
        return self


def param(value) -> Var:
    """Leaf variable holding trainable values."""
    return Var(value, bw=None)


def backward(root: Var) -> dict[Var, np.ndarray]:
    """d(root)/d(leaf) for every leaf of root's chain, keyed by the leaf.

    root must be scalar. Each node's closure runs once, from root down: the
    gradient for its recorded parent goes down the chain, and each closure
    returns arrays of its own, which go into the map uncopied. The walk
    releases each node as it leaves it (no parents, no_tape), freeing the
    arrays its closure holds, so a second backward raises ValueError.
    """
    if root.value.ndim != 0:
        raise ValueError("backward expects a scalar root")
    node, g, grads = root, np.asarray(1.0), {}
    while node is not None:
        out, parents = node.bw(g), node.parents
        node.bw, node.parents, node = no_tape, (), None
        for parent, g_parent in zip(parents, out):
            if parent.bw is None:
                grads[parent] = g_parent
            else:
                node, g = parent, g_parent
    return grads
