"""Typed heterogeneous graph data model, validation, file ingestion and splits.

Node ids are dense and zero-based per type; a full node id is the pair
(type name, local id). Graphs are immutable after construction and safe to
read from multiple threads. Inverse relations are distinct relation types
and never synthesized: a file must declare both directions if it wants both.
"""
from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, field
from operator import index
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

NodeId = tuple[str, int]


class SchemaError(ValueError):
    """Raised when a graph or file violates its declared schema."""


# Value predicates and rules of the JSON boundaries (graph files, configs, specs,
# checkpoint headers and split.json), which take values as given: a bool is not a number.


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Rule(NamedTuple):
    """A test of a JSON value, and the words naming what it asks for."""

    ok: Callable[[Any], bool]
    what: str

    def or_null(self) -> "Rule":
        return Rule(lambda v: v is None or self.ok(v), f"{self.what} or null")


def check_fields(doc, rules: dict[str, Rule], subject: Callable[[str], str],
                 lacks: Callable[[str], str] = lambda n: f"lacks field {n!r}",
                 error: type[ValueError] = ValueError,
                 shown: Callable[[Any], str] = repr, defaults: dict = {}) -> dict:
    """doc's value of each field in `rules`, in their order: the one check of
    every JSON boundary. A field missing, also from a doc that is not an
    object, takes its value in `defaults` or raises error(lacks(name)); a
    value that breaks its rule, error("<subject(name)> must be <what>, got
    <shown(value)>")."""
    out = {}
    for name, rule in rules.items():
        if isinstance(doc, dict) and name in doc:
            v = out[name] = doc[name]
            if not rule.ok(v):
                raise error(f"{subject(name)} must be {rule.what}, got {shown(v)}")
        elif name in defaults:
            out[name] = defaults[name]
        else:
            raise error(lacks(name))
    return out


def at_least(lo: int) -> Rule:
    return Rule(lambda v: is_int(v) and v >= lo, f"an integer >= {lo}")


def number(test: Callable[[Any], bool], what: str) -> Rule:
    return Rule(lambda v: is_number(v) and test(v), what)


def list_of(item: Rule, what: str, length: int | None = None) -> Rule:
    """A list (or tuple) of values that each pass `item`, of `length` if given."""
    return Rule(lambda v: isinstance(v, (list, tuple))
                and (length is None or len(v) == length) and all(map(item.ok, v)), what)


COUNT = at_least(0)
NUMBER = Rule(is_number, "a number")
STRING = Rule(lambda v: isinstance(v, str), "a string")
LIST = Rule(lambda v: isinstance(v, list), "a list")
OBJECT = Rule(lambda v: isinstance(v, dict), "an object")
COUNTS = Rule(lambda v: isinstance(v, dict) and all(
    isinstance(k, str) and COUNT.ok(n) for k, n in v.items()), "an object of integer counts >= 0")
TRIPLES = list_of(list_of(STRING, "[name, src type, dst type]", 3),
                  "a list of [name, src type, dst type] triples")
UNIT = number(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
TYPE_NAMES = list_of(STRING, "a list of type names")
RELATION_NAMES = list_of(STRING, "a list of relation names")


def read_object(cls, doc):
    """cls(**doc), validated: doc must be a JSON object naming only fields
    of the dataclass cls, and every field that has no default."""
    name, fields = cls.__name__, cls.__dataclass_fields__
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"unknown {name} field(s): {', '.join(unknown)}")
    missing = [n for n, f in fields.items() if n not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{name} lacks field(s): {', '.join(missing)}")
    obj = cls(**doc)
    obj.validate()
    return obj


@dataclass(frozen=True)
class RelationType:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class HinSchema:
    """Type-level graph: node types, typed relations, per-type attribute dims."""

    node_types: tuple[str, ...]
    relation_types: tuple[RelationType, ...]
    attribute_dims: dict[str, int]

    def __post_init__(self):
        if len(set(self.node_types)) != len(self.node_types):
            raise SchemaError("duplicate node type names")
        names = [r.name for r in self.relation_types]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate relation type names")
        types = set(self.node_types)
        for r in self.relation_types:
            if r.src not in types or r.dst not in types:
                raise SchemaError(
                    f"relation {r.name!r} endpoints ({r.src!r}, {r.dst!r}) not declared node types"
                )
        for t in self.node_types:
            if t not in self.attribute_dims:
                raise SchemaError(f"missing attribute dim for node type {t!r}")

    def relation(self, name: str) -> RelationType:
        return self.relation_types[self.relation_index(name)]

    def relation_index(self, name: str) -> int:
        for i, r in enumerate(self.relation_types):
            if r.name == name:
                return i
        raise KeyError(f"unknown relation type {name!r}")

    def need_relations(self, field: str, names) -> None:
        """Raise SchemaError unless each of `names`, field's value, names a relation."""
        known = [r.name for r in self.relation_types]
        unknown = [n for n in names if n not in known]
        if unknown:
            raise SchemaError(f"{field} names no relation: {', '.join(map(repr, unknown))} "
                              f"(relations: {', '.join(map(repr, known))})")

    def relations_from(self, node_type: str) -> list[RelationType]:
        if node_type not in self.node_types:
            raise SchemaError(f"unknown node type {node_type!r}")
        return [r for r in self.relation_types if r.src == node_type]

    def to_json(self) -> dict:
        """List form, relations as [name, src, dst]; used by checkpoints and
        report.json (the json-graph input format has its own object form)."""
        return {
            "node_types": list(self.node_types),
            "relation_types": [[r.name, r.src, r.dst] for r in self.relation_types],
            "attribute_dims": dict(self.attribute_dims),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HinSchema":
        """Inverse of to_json; a SchemaError names the first bad field."""
        types, relations, dims = _fields("", doc, _SCHEMA_JSON).values()
        return cls(tuple(types), tuple(RelationType(*r) for r in relations), dict(dims))


@dataclass
class HinGraph:
    """A loaded heterogeneous graph.

    edges maps relation name -> (indptr, indices): CSR over the relation's
    source-type local ids, with ascending (and possibly duplicated, for
    parallel edges) destination local ids per source.
    """

    schema: HinSchema
    num_nodes: dict[str, int]
    attributes: dict[str, np.ndarray]
    edges: dict[str, tuple[np.ndarray, np.ndarray]]
    target_type: str
    num_classes: int
    labels: np.ndarray  # per target-type local id; -1 means unlabelled

    def labelled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    def edge_count(self, relation: str) -> int:
        return int(len(self.edges[relation][1]))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


@dataclass
class DataSplit:
    """Disjoint train/validation/test node ids of the target type."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def need_labels(self, labels: np.ndarray, keys=("train", "validation", "test"),
                    where: str = "") -> None:
        """Raise ValueError naming the key and the first id under `keys` that
        repeats an id of the same or an earlier key, is no row of `labels`,
        or whose node has no label (-1)."""
        owner: dict[int, str] = {}
        for key in keys:
            for i in getattr(self, key).tolist():
                if i in owner:
                    raise ValueError(f"{where}split key {key!r} repeats node id {i} "
                                     f"of key {owner[i]!r}")
                owner[i] = key
        n = len(labels)
        for key in keys:
            ids = getattr(self, key)
            outside = ids[(ids < 0) | (ids >= n)]
            if len(outside):
                raise ValueError(f"{where}split key {key!r} holds node id {outside[0]}, "
                                 f"which is no node id in [0, {n})")
            unlabelled = ids[labels[ids] < 0]
            if len(unlabelled):
                raise ValueError(f"{where}split key {key!r} holds node id {unlabelled[0]}, "
                                 f"which has no label")


def build_graph(
    schema: HinSchema,
    num_nodes: dict[str, int],
    edge_lists: dict[str, list[tuple[int, int]]],
    attributes: dict[str, np.ndarray],
    target_type: str,
    num_classes: int,
    labels: dict[int, int] | np.ndarray | None = None,
) -> HinGraph:
    """Assemble a HinGraph, converting edge lists to sorted CSR adjacency.

    Raises SchemaError for structurally impossible inputs (unknown types,
    out-of-range endpoints); softer invariant violations are left for
    validate_hin to report.
    """
    if target_type not in schema.node_types:
        raise SchemaError(f"target type {target_type!r} not a declared node type")
    for t in schema.node_types:
        if t not in num_nodes:
            raise SchemaError(f"missing node count for type {t!r}")

    edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for r in schema.relation_types:
        pairs = edge_lists.get(r.name, [])
        n_src = num_nodes[r.src]
        n_dst = num_nodes[r.dst]
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise SchemaError(f"relation {r.name!r}: edge list must be (src, dst) pairs")
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_src:
                raise SchemaError(f"relation {r.name!r}: source id out of range for type {r.src!r}")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_dst:
                raise SchemaError(f"relation {r.name!r}: target id out of range for type {r.dst!r}")
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            indptr = np.zeros(n_src + 1, dtype=np.int64)
            np.add.at(indptr, arr[:, 0] + 1, 1)
            indptr = np.cumsum(indptr)
            edges[r.name] = (indptr, np.ascontiguousarray(arr[:, 1]))
        else:
            edges[r.name] = (np.zeros(n_src + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    attr_out: dict[str, np.ndarray] = {}
    for t in schema.node_types:
        a = attributes.get(t)
        if a is None:
            a = np.zeros((num_nodes[t], schema.attribute_dims[t]))
        attr_out[t] = np.asarray(a, dtype=np.float64)

    n_target = num_nodes[target_type]
    if labels is None:
        lab = np.full(n_target, -1, dtype=np.int64)
    elif isinstance(labels, dict):
        lab = np.full(n_target, -1, dtype=np.int64)
        for i, c in labels.items():
            i = int(i)
            if not 0 <= i < n_target:
                raise SchemaError(f"label for out-of-range node id {i}")
            lab[i] = int(c)
    else:
        lab = np.asarray(labels, dtype=np.int64)

    return HinGraph(
        schema=schema,
        num_nodes=dict(num_nodes),
        attributes=attr_out,
        edges=edges,
        target_type=target_type,
        num_classes=int(num_classes),
        labels=lab,
    )


def validate_hin(g: HinGraph) -> ValidationReport:
    """List every invariant violation; an empty report means the graph is sound."""
    report = ValidationReport()
    for t in g.schema.node_types:
        n = g.num_nodes.get(t)
        if n is None or n < 0:
            report.add(f"node count missing or negative for type {t!r}")
            continue
        a = g.attributes.get(t)
        if a is None:
            report.add(f"attribute table missing for type {t!r}")
        else:
            if a.shape[0] != n:
                report.add(
                    f"attribute row count {a.shape[0]} != node count {n} for type {t!r}"
                )
            dim = g.schema.attribute_dims[t]
            if a.ndim != 2 or a.shape[1] != dim:
                report.add(f"attribute dim mismatch for type {t!r}: expected {dim}")
            elif not np.all(np.isfinite(a)):
                report.add(f"non-finite attribute values for type {t!r}")
    for r in g.schema.relation_types:
        if r.name not in g.edges:
            report.add(f"adjacency missing for relation {r.name!r}")
            continue
        indptr, indices = g.edges[r.name]
        n_src = g.num_nodes.get(r.src, 0)
        n_dst = g.num_nodes.get(r.dst, 0)
        if len(indptr) != n_src + 1:
            report.add(f"relation {r.name!r}: indptr length mismatch for source type {r.src!r}")
            continue
        if np.any(np.diff(indptr) < 0) or (len(indices) and indptr[-1] != len(indices)):
            report.add(f"relation {r.name!r}: malformed adjacency index")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_dst):
            report.add(f"relation {r.name!r}: edge endpoint outside type {r.dst!r}")
    if g.target_type not in g.schema.node_types:
        report.add(f"target type {g.target_type!r} not declared")
    else:
        n_target = g.num_nodes[g.target_type]
        if len(g.labels) != n_target:
            report.add(f"label array length {len(g.labels)} != target node count {n_target}")
        lab = g.labels[g.labels >= 0]
        if len(lab) and (lab.max() >= g.num_classes):
            report.add(f"label value out of range [0, {g.num_classes})")
    if g.num_classes < 1:
        report.add("num_classes must be >= 1")
    return report


def split_nodes(g: HinGraph, counts: tuple[int | None, int | None], seed: int) -> DataSplit:
    """Uniform disjoint draw of (train, validation) labelled nodes; rest is
    test. A count of None is 40% (train) or 30% (validation) of the labelled
    nodes, at least 1."""
    labelled = g.labelled_nodes()
    n_train, n_val = (max(1, int(share * len(labelled))) if n is None else n
                      for n, share in zip(counts, (0.4, 0.3)))
    for name, n in (("train", n_train), ("validation", n_val)):
        if n < 1:
            raise ValueError(f"{name} count must be >= 1, got {n}")
    if n_train + n_val > len(labelled):
        raise ValueError(
            f"requested {n_train}+{n_val} nodes but only {len(labelled)} are labelled"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(labelled)
    return DataSplit(
        train=np.sort(perm[:n_train]),
        validation=np.sort(perm[n_train:n_train + n_val]),
        test=np.sort(perm[n_train + n_val:]),
    )


# ---------------------------------------------------------------------------
# File formats


# json-graph fields: the document's, its schema object's (also the csv-triples
# schema sidecar's) and one relation's; the optional ones default to {}
_GRAPH = {"schema": OBJECT, "nodes": OBJECT, "attributes": OBJECT, "edges": OBJECT,
          "labels": OBJECT}
_SCHEMA = {"relation_types": LIST, "node_types": LIST, "attribute_dims": OBJECT,
           "target_type": STRING, "num_classes": COUNT}
_RELATION = {"name": STRING, "src": STRING, "dst": STRING}
_OPTIONAL = dict.fromkeys(("attributes", "edges", "labels", "attribute_dims"), {})
# HinSchema.to_json's list form, in checkpoints
_SCHEMA_JSON = {"node_types": TYPE_NAMES, "relation_types": TRIPLES, "attribute_dims": COUNTS}


def _fields(path, doc, rules: dict[str, Rule], where: str = "", defaults: dict = {}) -> dict:
    """check_fields with a SchemaError that names the file (unless path is
    empty) and the field, with its parents' names in `where`."""
    at = f"{path}: " if path else ""
    return check_fields(doc, rules, lambda n: f"{at}field {where + n!r}",
                        lambda n: f"{at}missing field {where + n!r}", SchemaError,
                        lambda v: f"{v!r:.60}", defaults)  # a long value's repr is cut


def _schema_from_json(path, s: dict, attributes: dict,
                      where: str) -> tuple[HinSchema, str, int]:
    """The schema object `s` of a graph file; a type missing from its
    attribute_dims takes the length of its first attribute row, or 0."""
    f = _fields(path, s, _SCHEMA, where, defaults=_OPTIONAL)
    relations = tuple(RelationType(**_fields(path, r, _RELATION, f"{where}relation_types[{i}]."))
                      for i, r in enumerate(f["relation_types"]))
    types = f["node_types"]
    if not TYPE_NAMES.ok(types):
        raise SchemaError(f"{path}: field {where + 'node_types'!r} must list type names")
    dims = _fields(path, f["attribute_dims"], {t: COUNT for t in types if t in f["attribute_dims"]},
                   where + "attribute_dims.")
    for t in types:
        if t not in dims:  # _load_json_graph names a row that is not a list
            rows = attributes.get(t) if isinstance(attributes.get(t), list) else []
            dims[t] = next((len(r) for r in rows if isinstance(r, list)), 0)
    schema = HinSchema(tuple(types), relations, {t: dims[t] for t in types})
    return schema, f["target_type"], f["num_classes"]


def load_hin(path: str | Path, format: str = "json-graph") -> HinGraph:
    """Load a graph file; raises SchemaError if the result fails validation."""
    path = Path(path)
    if format == "json-graph":
        g = _load_json_graph(path)
    elif format == "csv-triples":
        g = _load_csv_triples(path)
    else:
        raise ValueError(f"unknown graph format {format!r}")
    report = validate_hin(g)
    if not report.ok:
        raise SchemaError("; ".join(report.violations))
    return g


def _number_rows(path: Path, t: str, rows: list[list]) -> np.ndarray:
    """Equal-length attribute rows as float64; a SchemaError names the first
    row holding a value that is not a JSON number."""
    # numpy infers a number dtype unless some value is not a number; it would
    # also take a bool, alone or beside floats, so any bool skips the fast path
    if not any(type(x) is bool for row in rows for x in row):
        try:
            a = np.asarray(rows)
            if a.dtype.kind in "iuf":
                return a.astype(np.float64, copy=False)
        except ValueError:  # a list in place of a number
            pass
    for i, row in enumerate(rows):
        bad = [x for x in row if not is_number(x)]
        if bad:
            raise SchemaError(f"{path}: attributes of type {t!r}, row {i}: "
                              f"expected numbers, got {bad[0]!r}")
    return np.asarray(rows, dtype=np.float64)  # ints beyond int64 reach here


def _load_json_graph(path: Path) -> HinGraph:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    top = _fields(path, doc, _GRAPH, defaults=_OPTIONAL)
    attrs = top["attributes"]
    schema, target_type, num_classes = _schema_from_json(path, top["schema"], attrs, "schema.")
    types = schema.node_types
    num_nodes = _fields(path, top["nodes"], dict.fromkeys(types, COUNT), "nodes.",
                        dict.fromkeys(types, 0))
    attributes = {}
    for t, rows in _fields(path, attrs, {t: LIST for t in types if t in attrs},
                           "attributes.").items():
        dim = schema.attribute_dims[t]
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                got = len(row) if isinstance(row, list) else f"a {type(row).__name__}"
                raise SchemaError(f"{path}: attributes of type {t!r}, row {i}: "
                                  f"expected {dim} numbers, got {got}")
        a = _number_rows(path, t, rows)
        if a.size == 0:
            a = a.reshape(0, dim)
        if a.shape[0] != num_nodes[t]:
            raise SchemaError(
                f"attribute row count {a.shape[0]} != node count {num_nodes[t]} for type {t!r}"
            )
        attributes[t] = a
    schema.need_relations(f"{path}: field 'edges'", top["edges"])
    edge_lists = {}
    for rel, pairs in top["edges"].items():
        try:
            edge_lists[rel] = [(index(s), index(d)) for s, d in pairs]
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: relation {rel!r}: edges must be integer pairs") from None
    try:
        labels = {int(k): index(v) for k, v in top["labels"].items()}
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: labels must map integer node ids to integers") from None
    for k, c in labels.items():
        if c < 0:
            raise SchemaError(f"{path}: labels: node {k} has class {c}, expected an integer >= 0")
    return build_graph(schema, num_nodes, edge_lists, attributes, target_type, num_classes, labels)


def save_hin(g: HinGraph, path: str | Path) -> None:
    """Write the json-graph format; load_hin(save_hin(g)) round-trips."""
    doc = {
        "schema": {
            "node_types": list(g.schema.node_types),
            "relation_types": [
                {"name": r.name, "src": r.src, "dst": r.dst} for r in g.schema.relation_types
            ],
            "attribute_dims": dict(g.schema.attribute_dims),
            "target_type": g.target_type,
            "num_classes": g.num_classes,
        },
        "nodes": dict(g.num_nodes),
        "attributes": {t: g.attributes[t].tolist() for t in g.schema.node_types},
        "labels": {int(i): int(c) for i, c in enumerate(g.labels) if c >= 0},
        "edges": {},
    }
    for rel in g.schema.relation_types:
        indptr, indices = g.edges[rel.name]
        src = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
        doc["edges"][rel.name] = np.stack([src, indices], axis=1).tolist()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _load_csv_triples(path: Path) -> HinGraph:
    """Edges file "relation,src_type:src_id,dst_type:dst_id" plus sidecars.

    Sidecars live next to the edges file: <stem>.schema.json (same schema
    object as json-graph), <stem>.attrs.<type>.csv (one row of floats per
    local id) and <stem>.labels.csv (node_local_id,class).
    """
    stem = path.with_suffix("")
    schema_path = Path(f"{stem}.schema.json")
    if not schema_path.exists():
        raise SchemaError(f"missing schema sidecar {schema_path}")
    with open(schema_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema, target_type, num_classes = _schema_from_json(schema_path, doc, {}, "")

    attributes: dict[str, np.ndarray] = {}
    num_nodes: dict[str, int] = {}
    for t in schema.node_types:
        attr_path = Path(f"{stem}.attrs.{t}.csv")
        if attr_path.exists():
            rows = []
            dim = schema.attribute_dims[t]
            with open(attr_path, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(csv.reader(f), start=1):
                    try:
                        if line:
                            rows.append([float(x) for x in line])
                    except ValueError:
                        raise SchemaError(f"{attr_path}:{lineno}: expected numbers") from None
                    if line and len(line) != dim:
                        raise SchemaError(f"{attr_path}:{lineno}: expected {dim} numbers, "
                                          f"got {len(line)}")
            a = np.asarray(rows, dtype=np.float64)
            if a.size == 0:
                a = a.reshape(0, dim)
            attributes[t] = a
            num_nodes[t] = a.shape[0]
        else:
            num_nodes[t] = 0

    relations = {r.name: r for r in schema.relation_types}
    edge_lists: dict[str, list[tuple[int, int]]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(csv.reader(f), start=1):
            if not line:
                continue
            if len(line) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 fields, got {len(line)}")
            rel_name, src_field, dst_field = (x.strip() for x in line)
            if rel_name not in relations:
                raise SchemaError(f"{path}:{lineno}: unknown relation {rel_name!r}")
            rel = relations[rel_name]
            src_type, _, src_id = src_field.partition(":")
            dst_type, _, dst_id = dst_field.partition(":")
            if src_type != rel.src or dst_type != rel.dst:
                raise SchemaError(
                    f"{path}:{lineno}: endpoint type mismatch for relation {rel_name!r}: "
                    f"got {src_type}->{dst_type}, declared {rel.src}->{rel.dst}"
                )
            try:
                src, dst = int(src_id), int(dst_id)
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: node ids must be integers, "
                                  f"got {src_field!r} and {dst_field!r}") from None
            edge_lists.setdefault(rel_name, []).append((src, dst))
            # node counts may exceed attribute rows when a type has no attrs file
            num_nodes[src_type] = max(num_nodes[src_type], src + 1)
            num_nodes[dst_type] = max(num_nodes[dst_type], dst + 1)

    labels: dict[int, int] = {}
    labels_path = Path(f"{stem}.labels.csv")
    if labels_path.exists():
        with open(labels_path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(csv.reader(f), start=1):
                if not line:
                    continue
                try:
                    node, cls = line
                    node, cls = int(node), int(cls)
                except ValueError:
                    raise SchemaError(f"{labels_path}:{lineno}: expected node_id,class") from None
                if cls < 0:
                    raise SchemaError(f"{labels_path}:{lineno}: node {node} has class {cls}, "
                                      "expected an integer >= 0")
                labels[node] = cls

    return build_graph(schema, num_nodes, edge_lists, attributes, target_type, num_classes, labels)
