"""Schema-level meta-paths, legal-action masking and per-episode expansion.

All operations are pure functions over an immutable graph; episodes for
different start nodes can safely run in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import HinGraph, HinSchema, NodeId, SchemaError


class DeadEndError(RuntimeError):
    """An episode reached no nodes; it must be force-stopped."""


def path_types(schema: HinSchema, start_type: str, relations: tuple[str, ...]) -> list[str]:
    """The node types of the path that takes `relations` from `start_type`,
    the start type first; SchemaError names the first type it cannot take."""
    if start_type not in schema.node_types:
        raise SchemaError(f"unknown start type {start_type!r}")
    types = [start_type]
    for rel in relations:
        r = schema.relation(rel)
        if r.src != types[-1]:
            raise SchemaError(
                f"relation {rel!r} starts at {r.src!r} but path is at {types[-1]!r}"
            )
        types.append(r.dst)
    return types


def path_arrow(schema: HinSchema, start_type: str, relations: tuple[str, ...]) -> str:
    """Render as e.g. "Movie -M-A-> Actor -A-M-> Movie"."""
    types = path_types(schema, start_type, relations)
    return " ".join([start_type] + [f"-{rel}-> {t}" for rel, t in zip(relations, types[1:])])


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
class Episode:
    """One node's meta-path design: its start node, the names of the
    relations chosen so far (`path`, leaving `start[0]`), and the nodes they
    reach.

    `reached` holds the nodes of `node_type` reached at the current step,
    deduplicated; the per-step edge arrays keep one entry per traversal, so a
    child reached from two parents appears once in reached and twice in the
    step's edge list. The nodes reached at an earlier step are np.unique of
    that step's children.
    """

    start: NodeId
    path: tuple[str, ...]
    node_type: str
    reached: np.ndarray
    step_edges: list[tuple[np.ndarray, np.ndarray]]  # (parents, children) per step

    @classmethod
    def initial(cls, start: NodeId) -> "Episode":
        node_type, local = start
        return cls(start, (), node_type, np.asarray([local], dtype=np.int64), [])


def _child_sample_rng(seed: int, relation_idx: int, type_idx: int, local: int):
    # keyed by (run seed, relation, parent), never by episode: two episodes
    # expanding the same parent under the same relation must agree, otherwise
    # batch-wide plan merging would change results
    return np.random.default_rng([seed, relation_idx, type_idx, local])


def expand_frontier(
    g: HinGraph,
    episode: Episode,
    relation: str,
    fan_out_cap: int | None = None,
    seed: int = 0,
) -> Episode:
    """`episode` one hop further along `relation`.

    With a fan-out cap, each parent's traversed edges are a seeded sample
    without replacement of its outgoing edges. An empty result is returned
    as-is; callers treat it as a dead end.
    """
    r = g.schema.relation(relation)
    if r.src != episode.node_type:
        raise SchemaError(
            f"relation {relation!r} starts at {r.src!r}, episode is at {episode.node_type!r}"
        )
    rel_idx = g.schema.relation_index(relation)
    type_idx = g.schema.node_types.index(r.src)
    parents: list[np.ndarray] = []
    children: list[np.ndarray] = []
    for p in episode.reached:
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
    return Episode(episode.start, episode.path + (relation,), r.dst, reached,
                   episode.step_edges + [(par, chi)])


def neighbors_local(g: HinGraph, local: int, relation: str) -> np.ndarray:
    indptr, indices = g.edges[relation]
    return indices[indptr[local]:indptr[local + 1]]


def arrived_mean(g: HinGraph, episode: Episode) -> np.ndarray:
    """Mean attribute vector of the nodes reached at the current step."""
    if len(episode.reached) == 0:
        raise DeadEndError("dead-end episode: no arrived nodes")
    return g.attributes[episode.node_type][episode.reached].mean(axis=0)
