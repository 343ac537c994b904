"""Synthetic graphs with a planted meta-path carrying the label signal.

The generator wires the planted relations class-consistently: every node
reachable from a target node along the planted path belongs to that node's
class pool, and only the path's end type carries class one-hots in its
attributes. Labels are therefore a deterministic function of attributes
reachable via the planted path alone (mixed with noise per signal strength),
and every non-planted relation is wired class-independently.

With an empty planted path the end type is the target type itself, so labels
are a function of the node's own attributes. If a non-empty planted path ends
at the target type, target attributes become informative too; verification
specs should avoid that shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import (COUNTS, RELATION_NAMES, STRING, TRIPLES, UNIT, DataSplit, HinGraph,
                  HinSchema, RelationType, Rule, SchemaError, at_least, build_graph, check_fields,
                  is_int, read_object, split_nodes)
from .metapath import neighbors_local, path_types

_NOISE_AMP = 0.2


@dataclass(frozen=True)
class SyntheticSpec:
    """Checked when made, as TrainConfig is."""

    node_counts: dict[str, int]
    relations: tuple[tuple[str, str, str], ...]  # (name, src type, dst type)
    out_degree: dict[str, int]  # edges per source node, per relation
    target_type: str
    planted_path: tuple[str, ...] = ()  # relation names starting at target_type
    signal_strength: float = 1.0
    num_classes: int = 3
    noise_dims: int = 4
    train_count: int | None = None
    val_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), _SPEC_RULES, str)
        object.__setattr__(self, "relations", tuple(map(tuple, self.relations)))
        object.__setattr__(self, "planted_path", tuple(self.planted_path))
        schema = self.schema()
        schema.need_relations("out_degree", self.out_degree)
        schema.need_relations("planted_path", self.planted_path)
        for t in path_types(schema, self.target_type, self.planted_path):
            if self.node_counts[t] < self.num_classes:
                raise ValueError(f"type {t!r} needs at least {self.num_classes} nodes "
                                 "for class pools")

    def schema(self) -> HinSchema:
        dim = self.num_classes + self.noise_dims
        return HinSchema(
            node_types=tuple(self.node_counts),
            relation_types=tuple(RelationType(*r) for r in self.relations),
            attribute_dims={t: dim for t in self.node_counts},
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticSpec":
        """Read a JSON spec: an object with the dataclass's fields, checked
        as it is made."""
        return read_object(cls, doc)


# SyntheticSpec's fields, each with the rule its value must pass
_SPEC_RULES = {
    **dict.fromkeys(("node_counts", "out_degree"), COUNTS),
    "relations": TRIPLES,
    "target_type": Rule(STRING.ok, "a node type name"),
    "planted_path": RELATION_NAMES,
    "signal_strength": UNIT,
    "num_classes": at_least(1),
    "noise_dims": at_least(0),
    **dict.fromkeys(("train_count", "val_count"), Rule(is_int, "an integer").or_null()),
    "seed": at_least(0),
}


def generate_planted_hin(spec: SyntheticSpec) -> tuple[HinGraph, DataSplit]:
    """Build the graph and a train/val/test split, reproducibly from spec.seed."""
    schema = spec.schema()
    rng = np.random.default_rng(spec.seed)
    C = spec.num_classes

    planted_types = path_types(schema, spec.target_type, spec.planted_path)
    end_type = planted_types[-1]

    # class pools for every type on the planted path; the target type's pool
    # doubles as the ground-truth label rule
    pools: dict[str, np.ndarray] = {}
    for t in schema.node_types:
        if t in planted_types:
            n = spec.node_counts[t]
            pool = np.arange(n) % C  # every class non-empty
            rng.shuffle(pool)
            pools[t] = pool

    planted_rels = set(spec.planted_path)
    edge_lists: dict[str, np.ndarray] = {}
    for r in schema.relation_types:
        k = spec.out_degree.get(r.name, 0)
        n_src, n_dst = spec.node_counts[r.src], spec.node_counts[r.dst]
        picks: list[np.ndarray] = []  # per source node, its targets; build_graph sorts them
        if k > 0 and n_dst > 0:
            if r.name in planted_rels:
                by_class = [np.flatnonzero(pools[r.dst] == c) for c in range(C)]
                for s in range(n_src):
                    pool = by_class[pools[r.src][s]]
                    take = min(k, len(pool))
                    picks.append(rng.choice(pool, size=take, replace=False))
            else:
                for s in range(n_src):
                    take = min(k, n_dst)
                    picks.append(rng.choice(n_dst, size=take, replace=False))
        src = np.repeat(np.arange(len(picks), dtype=np.int64), [len(p) for p in picks])
        dst = np.concatenate(picks) if picks else np.zeros(0, dtype=np.int64)
        edge_lists[r.name] = np.stack([src, dst], axis=1)

    attributes: dict[str, np.ndarray] = {}
    for t in schema.node_types:
        n = spec.node_counts[t]
        a = rng.uniform(0.0, _NOISE_AMP, size=(n, C + spec.noise_dims))
        if t == end_type:
            a[np.arange(n), pools[t]] += 1.0
        attributes[t] = a

    rule_labels = pools[spec.target_type]
    n_target = spec.node_counts[spec.target_type]
    keep = rng.random(n_target) < spec.signal_strength
    random_labels = rng.integers(0, C, size=n_target)
    labels = np.where(keep, rule_labels, random_labels).astype(np.int64)

    g = build_graph(
        schema,
        dict(spec.node_counts),
        edge_lists,
        attributes,
        spec.target_type,
        C,
        labels,
    )

    return g, split_nodes(g, (spec.train_count, spec.val_count), spec.seed)


def planted_oracle_predict(g: HinGraph, planted_path: tuple[str, ...], nodes: np.ndarray) -> np.ndarray:
    """Brute-force decision rule: follow the planted path by plain set-BFS and
    take the majority of class one-hots read off the reached attributes."""
    C = g.num_classes
    preds = np.zeros(len(nodes), dtype=np.int64)
    for i, v in enumerate(nodes):
        level = {int(v)}
        cur_type = g.target_type
        for rel in planted_path:
            r = g.schema.relation(rel)
            if r.src != cur_type:
                raise SchemaError(f"planted path broken at relation {rel!r}")
            nxt: set[int] = set()
            for p in level:
                nxt.update(int(c) for c in neighbors_local(g, p, rel))
            level = nxt
            cur_type = r.dst
        if not level:
            preds[i] = 0
            continue
        votes = np.zeros(C)
        attrs = g.attributes[cur_type]
        for u in level:
            votes[int(np.argmax(attrs[u, :C]))] += 1
        preds[i] = int(np.argmax(votes))
    return preds


def planted_oracle_accuracy(g: HinGraph, planted_path: tuple[str, ...], nodes: np.ndarray) -> float:
    preds = planted_oracle_predict(g, planted_path, nodes)
    return float(np.mean(preds == g.labels[nodes]))
