"""Typed heterogeneous graph data model, validation, file ingestion and splits.

Node ids are dense and zero-based per type; a full node id is the pair
(type name, local id). Graphs are immutable after construction and safe to
read from multiple threads. Inverse relations are distinct relation types
and never synthesized: a file must declare both directions if it wants both.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from operator import index
from pathlib import Path

import numpy as np

NodeId = tuple[str, int]


class SchemaError(ValueError):
    """Raised when a graph or file violates its declared schema."""


# Value predicates of the JSON boundaries (graph files, configs, specs and
# checkpoint headers), which take values as given: a bool is not a number.


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def need_field(obj, ok: bool, name: str, rule: str) -> None:
    """Raise ValueError naming obj's field and its value unless ok."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {getattr(obj, name)!r}")


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
        return cls(
            node_types=tuple(doc["node_types"]),
            relation_types=tuple(RelationType(*r) for r in doc["relation_types"]),
            attribute_dims={k: int(v) for k, v in doc["attribute_dims"].items()},
        )


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


def neighbors(g: HinGraph, node: NodeId, relation: str) -> np.ndarray:
    """Targets of `relation` edges leaving `node`, ascending, duplicates kept."""
    r = g.schema.relation(relation)
    node_type, local = node
    if node_type != r.src:
        raise SchemaError(
            f"node type {node_type!r} does not match relation {relation!r} source {r.src!r}"
        )
    indptr, indices = g.edges[relation]
    if not 0 <= local < g.num_nodes[node_type]:
        raise SchemaError(f"node id {local} out of range for type {node_type!r}")
    return indices[indptr[local]:indptr[local + 1]]


def split_nodes(g: HinGraph, counts: tuple[int, int], seed: int) -> DataSplit:
    """Uniform disjoint draw of (train, validation) labelled nodes; rest is test."""
    n_train, n_val = counts
    for name, n in (("train", n_train), ("validation", n_val)):
        if n < 1:
            raise ValueError(f"{name} count must be >= 1, got {n}")
    labelled = g.labelled_nodes()
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


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer >= 0"}


def _field(path, doc, name: str, kind: type, where: str = "", default=None):
    """doc[name], which must be a `kind` (one of _KINDS); a field that is
    missing, also from a doc that is not an object, gives `default`, or is
    an error when that is None. A SchemaError names the file and the field,
    with its parents' names in `where`."""
    if not isinstance(doc, dict) or name not in doc:
        if default is None:
            raise SchemaError(f"{path}: missing field {where + name!r}")
        return default
    v = doc[name]
    if not (is_int(v) and v >= 0 if kind is int else isinstance(v, kind)):
        raise SchemaError(f"{path}: field {where + name!r} must be {_KINDS[kind]}, "
                          f"got {v!r:.60}")  # a long value's repr is cut
    return v


def _schema_from_json(path, s: dict, attributes: dict,
                      where: str) -> tuple[HinSchema, str, int]:
    """The schema object `s` of a graph file; a type missing from its
    attribute_dims takes the length of its first attribute row, or 0."""
    relations = tuple(
        RelationType(*(_field(path, r, k, str, f"{where}relation_types[{i}].")
                       for k in ("name", "src", "dst")))
        for i, r in enumerate(_field(path, s, "relation_types", list, where)))
    types = _field(path, s, "node_types", list, where)
    if not all(isinstance(t, str) for t in types):
        raise SchemaError(f"{path}: field {where + 'node_types'!r} must list type names")
    dims = dict(_field(path, s, "attribute_dims", dict, where, default={}))
    for t in types:
        if t in dims:
            _field(path, dims, t, int, where + "attribute_dims.")
        else:  # _load_json_graph names a row that is not a list
            rows = attributes.get(t) if isinstance(attributes.get(t), list) else []
            dims[t] = next((len(r) for r in rows if isinstance(r, list)), 0)
    schema = HinSchema(tuple(types), relations, {t: dims[t] for t in types})
    return (schema, _field(path, s, "target_type", str, where),
            _field(path, s, "num_classes", int, where))


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
    attrs = _field(path, doc, "attributes", dict, default={})
    schema, target_type, num_classes = _schema_from_json(
        path, _field(path, doc, "schema", dict), attrs, "schema.")
    counts = _field(path, doc, "nodes", dict)
    num_nodes = {t: _field(path, counts, t, int, "nodes.", default=0) for t in schema.node_types}
    attributes = {}
    for t in schema.node_types:
        if t in attrs:
            rows = _field(path, attrs, t, list, "attributes.")
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
    edge_lists = {}
    for rel, pairs in _field(path, doc, "edges", dict, default={}).items():
        try:
            schema.relation(rel)
            edge_lists[rel] = [(index(s), index(d)) for s, d in pairs]
        except KeyError:
            raise SchemaError(f"edges declared for unknown relation {rel!r}") from None
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: relation {rel!r}: edges must be integer pairs") from None
    labels = _field(path, doc, "labels", dict, default={})
    try:
        labels = {int(k): index(v) for k, v in labels.items()}
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
