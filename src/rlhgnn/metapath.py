"""Schema-level meta-paths, legal-action masking and per-episode frontier expansion.

All operations are pure functions over an immutable graph; episodes for
different start nodes can safely run in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import HinGraph, HinSchema, NodeId, SchemaError


class DeadEndError(RuntimeError):
    """A frontier reached no nodes; the episode must be force-stopped."""


@dataclass(frozen=True)
class MetaPath:
    """An ordered relation-type sequence starting from a node type."""

    start_type: str
    relations: tuple[str, ...] = ()

    def end_type(self, schema: HinSchema) -> str:
        if not self.relations:
            return self.start_type
        return schema.relation(self.relations[-1]).dst

    def node_type_sequence(self, schema: HinSchema) -> list[str]:
        seq = [self.start_type]
        for rel in self.relations:
            seq.append(schema.relation(rel).dst)
        return seq

    def validate(self, schema: HinSchema) -> None:
        cur = self.start_type
        if cur not in schema.node_types:
            raise SchemaError(f"unknown start type {cur!r}")
        for rel in self.relations:
            r = schema.relation(rel)
            if r.src != cur:
                raise SchemaError(
                    f"relation {rel!r} starts at {r.src!r} but path is at {cur!r}"
                )
            cur = r.dst

    def to_arrow(self, schema: HinSchema) -> str:
        """Render as e.g. "Movie -M-A-> Actor -A-M-> Movie"."""
        types = self.node_type_sequence(schema)
        return " ".join([types[0]] + [f"-{rel}-> {t}" for rel, t in zip(self.relations, types[1:])])

    def __len__(self) -> int:
        return len(self.relations)


def stop_index(schema: HinSchema) -> int:
    """Stop occupies the last slot of the fixed-size action head."""
    return len(schema.relation_types)


def action_space_size(schema: HinSchema) -> int:
    return len(schema.relation_types) + 1


def valid_actions(schema: HinSchema, terminal_type: str, at_max_depth: bool) -> np.ndarray:
    """Boolean legality mask over all relation actions plus Stop (always legal)."""
    if terminal_type not in schema.node_types:
        raise SchemaError(f"unknown node type {terminal_type!r}")
    mask = np.zeros(action_space_size(schema), dtype=bool)
    mask[stop_index(schema)] = True
    if not at_max_depth:
        for i, r in enumerate(schema.relation_types):
            if r.src == terminal_type:
                mask[i] = True
    return mask


@dataclass(frozen=True)
class Frontier:
    """Nodes one episode reached at its current step, plus the edges it
    traversed at every step.

    reached is deduplicated; the per-step edge arrays keep one entry per
    traversal, so a child reached from two parents appears once in reached
    and twice in the step's edge list. The nodes reached at an earlier step
    are np.unique of that step's children.
    """

    start: NodeId
    node_type: str
    reached: np.ndarray
    step_relations: tuple[str, ...]
    step_edges: list[tuple[np.ndarray, np.ndarray]]  # (parents, children) per step

    @classmethod
    def initial(cls, start: NodeId) -> "Frontier":
        node_type, local = start
        return cls(
            start=start,
            node_type=node_type,
            reached=np.asarray([local], dtype=np.int64),
            step_relations=(),
            step_edges=[],
        )


def _child_sample_rng(seed: int, relation_idx: int, type_idx: int, local: int):
    # keyed by (run seed, relation, parent), never by episode: two episodes
    # expanding the same parent under the same relation must agree, otherwise
    # batch-wide plan merging would change results
    return np.random.default_rng([seed, relation_idx, type_idx, local])


def expand_frontier(
    g: HinGraph,
    frontier: Frontier,
    relation: str,
    fan_out_cap: int | None = None,
    seed: int = 0,
) -> Frontier:
    """Advance the frontier one hop along `relation`.

    With a fan-out cap, each parent's traversed edges are a seeded sample
    without replacement of its outgoing edges. An empty result is returned
    as-is; callers treat it as a dead end.
    """
    r = g.schema.relation(relation)
    if r.src != frontier.node_type:
        raise SchemaError(
            f"relation {relation!r} starts at {r.src!r}, frontier is at {frontier.node_type!r}"
        )
    rel_idx = g.schema.relation_index(relation)
    type_idx = g.schema.node_types.index(r.src)
    parents: list[np.ndarray] = []
    children: list[np.ndarray] = []
    for p in frontier.reached:
        kids = neighbors_local(g, int(p), relation)
        if fan_out_cap is not None and len(kids) > fan_out_cap:
            rng = _child_sample_rng(seed, rel_idx, type_idx, int(p))
            pick = rng.choice(len(kids), size=fan_out_cap, replace=False)
            kids = np.sort(kids[pick])
        if len(kids):
            parents.append(np.full(len(kids), p, dtype=np.int64))
            children.append(kids.astype(np.int64))
    if children:
        par = np.concatenate(parents)
        chi = np.concatenate(children)
        reached = np.unique(chi)
    else:
        par = np.zeros(0, dtype=np.int64)
        chi = np.zeros(0, dtype=np.int64)
        reached = np.zeros(0, dtype=np.int64)
    return Frontier(
        start=frontier.start,
        node_type=r.dst,
        reached=reached,
        step_relations=frontier.step_relations + (relation,),
        step_edges=frontier.step_edges + [(par, chi)],
    )


def neighbors_local(g: HinGraph, local: int, relation: str) -> np.ndarray:
    indptr, indices = g.edges[relation]
    return indices[indptr[local]:indptr[local + 1]]


def arrived_mean(g: HinGraph, frontier: Frontier) -> np.ndarray:
    """Mean attribute vector of the nodes reached at the current step."""
    if len(frontier.reached) == 0:
        raise DeadEndError("dead-end frontier: no arrived nodes")
    attrs = g.attributes[frontier.node_type]
    return attrs[frontier.reached].mean(axis=0)
