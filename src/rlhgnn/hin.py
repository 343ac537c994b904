"""Typed heterogeneous graph data model, file ingestion and splits.

Node ids are dense and zero-based per type; a full node id is the pair
(type name, local id). Graphs are immutable after construction and safe to
read from multiple threads. Inverse relations are distinct relation types
and never synthesized: a file must declare both directions if it wants both.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass
from itertools import chain
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
    """cls(**doc), which checks its own fields: doc must be a JSON object
    naming only fields of the dataclass cls, and every field that has no
    default."""
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
    return cls(**doc)


def need_known(field: str, names, known, kind: str) -> None:
    """Raise SchemaError unless each of `names`, field's value, is one of
    `known`, the names of every `kind` (a relation or a node type)."""
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SchemaError(f"{field} names no {kind}: {', '.join(map(repr, unknown))} "
                          f"({kind}s: {', '.join(map(repr, known))})")


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
        need_known(field, names, [r.name for r in self.relation_types], "relation")

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
class DataSplit:
    """Disjoint train/validation/test node ids of the target type."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def need_labels(self, labels: np.ndarray, keys=("train", "validation", "test"),
                    where: str = "") -> None:
        """Raise ValueError naming the first key under `keys` that holds no
        id, or the key and its first id that repeats an id of the same or an
        earlier key, is no row of `labels`, or whose node has no label (-1)."""
        owner: dict[int, str] = {}
        for key in keys:
            ids = getattr(self, key)
            if not len(ids):
                raise ValueError(f"{where}split key {key!r} holds no node id")
            for i in ids.tolist():
                if i in owner:
                    raise ValueError(f"{where}split key {key!r} repeats node id {i} "
                                     f"of key {owner[i]!r}")
                owner[i] = key
        for key in keys:
            need_labelled(getattr(self, key), labels, f"{where}split key {key!r} holds")


def first_outside(ids: np.ndarray, n: int) -> int | float | None:
    """The first of `ids` that is not an integer in [0, n), or None."""
    ok = (ids >= 0) & (ids < n) if ids.dtype.kind in "iu" else np.zeros(ids.shape, bool)
    return None if ok.all() else ids[~ok][0].item()


def need_labelled(ids: np.ndarray, labels: np.ndarray, subject: str) -> None:
    """Raise ValueError, `subject` first, naming the first of `ids` that is no
    integer in [0, len(labels)), or else the first whose node has no label (-1)."""
    bad = first_outside(ids, len(labels))
    if bad is not None:
        raise ValueError(f"{subject} node id {bad!r}, which is no node id in [0, {len(labels)})")
    unlabelled = ids[labels[ids] < 0]
    if len(unlabelled):
        raise ValueError(f"{subject} node id {unlabelled[0]}, which has no label")


def build_graph(
    schema: HinSchema,
    num_nodes: dict[str, int],
    edge_lists: dict[str, list[tuple[int, int]] | np.ndarray],
    attributes: dict[str, np.ndarray],
    target_type: str,
    num_classes: int,
    labels: dict[int, int] | np.ndarray | None = None,
) -> HinGraph:
    """Assemble a HinGraph, converting each relation's edges, (src, dst)
    pairs or an (E, 2) integer array, to sorted CSR adjacency.

    The one check of a graph's invariants: a SchemaError names the first of
    an unknown or missing type, a node count < 0 or beyond int64, an edge
    endpoint out of range (also one beyond int64), an attribute table not
    of shape (count, dim) or not finite, labels not of the target type's
    length, num_classes < 1, and a label that is no class in
    [0, num_classes). An array of labels may also hold -1
    (unlabelled); a dict maps node ids to classes. Missing attributes are
    zeros, and an empty table such as np.asarray([]) has shape (0, dim).
    """
    if target_type not in schema.node_types:
        raise SchemaError(f"target type {target_type!r} not a declared node type")
    if num_classes < 1:
        raise SchemaError(f"num_classes must be >= 1, got {num_classes}")
    for t in schema.node_types:
        if t not in num_nodes:
            raise SchemaError(f"missing node count for type {t!r}")
        if num_nodes[t] < 0:
            raise SchemaError(f"node count for type {t!r} must be >= 0, got {num_nodes[t]}")

    # every relation's ids are checked before any table is sized by a count, and
    # before the counts' int64 bound: csv-triples counts a type up to its largest
    # id, and an id beyond int64 is named as the id it is
    arrays = {r.name: _edge_array(r, edge_lists.get(r.name, []), num_nodes)
              for r in schema.relation_types}
    for t in schema.node_types:
        if num_nodes[t] > np.iinfo(np.int64).max:
            raise SchemaError(f"node count for type {t!r} must be <= "
                              f"{np.iinfo(np.int64).max}, got {num_nodes[t]}")
    edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for r in schema.relation_types:
        arr = arrays[r.name]
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        indptr = np.zeros(num_nodes[r.src] + 1, dtype=np.int64)
        np.cumsum(np.bincount(arr[:, 0], minlength=num_nodes[r.src]), out=indptr[1:])
        edges[r.name] = (indptr, np.ascontiguousarray(arr[:, 1]))

    attr_out: dict[str, np.ndarray] = {}
    for t in schema.node_types:
        n, dim = num_nodes[t], schema.attribute_dims[t]
        a = attributes.get(t)
        a = np.zeros((n, dim)) if a is None else np.asarray(a, dtype=np.float64)
        if a.shape == (0,):
            a = a.reshape(0, dim)
        if a.ndim != 2 or a.shape[1] != dim:
            raise SchemaError(f"attribute dim mismatch for type {t!r}: expected {dim}, "
                              f"got shape {a.shape}")
        if len(a) != n:
            raise SchemaError(f"attribute row count {len(a)} != node count {n} for type {t!r}")
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise SchemaError(f"attributes of type {t!r}, row {i}: expected finite numbers, "
                              f"got {a[i, j]}")
        attr_out[t] = a

    n_target = num_nodes[target_type]
    lab = np.full(n_target, -1, dtype=np.int64)
    if isinstance(labels, dict):
        for i, c in labels.items():
            i = int(i)
            if not 0 <= i < n_target:
                raise SchemaError(f"label for out-of-range node id {i}")
            _need_class(i, c, 0, num_classes)
            lab[i] = int(c)
    elif labels is not None:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (n_target,):
            raise SchemaError(f"label array length {len(lab)} != target node count {n_target}")
        bad = np.flatnonzero((lab < -1) | (lab >= num_classes))
        if len(bad):
            _need_class(bad[0], lab[bad[0]], -1, num_classes)

    return HinGraph(
        schema=schema,
        num_nodes=dict(num_nodes),
        attributes=attr_out,
        edges=edges,
        target_type=target_type,
        num_classes=int(num_classes),
        labels=lab,
    )


def _edge_array(r: RelationType, pairs, num_nodes: dict[str, int]) -> np.ndarray:
    """r's edges as an (E, 2) int64 array; a SchemaError unless they are
    (src, dst) pairs of ids in range for r's node types."""
    if not len(pairs):
        return np.zeros((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except OverflowError:  # an id beyond int64, which the range check names
        arr = np.asarray(pairs, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError(f"relation {r.name!r}: edge list must be (src, dst) pairs")
    for ids, end, t in ((arr[:, 0], "source", r.src), (arr[:, 1], "target", r.dst)):
        n = min(num_nodes[t], np.iinfo(np.int64).max)  # no id beyond int64 names a node
        if ids.min() < 0 or ids.max() >= n:
            raise SchemaError(f"relation {r.name!r}: {end} id out of range for type {t!r}")
    return arr


def _need_class(node: int, c: int, lo: int, num_classes: int) -> None:
    """Raise SchemaError naming the node unless lo <= c < num_classes."""
    if not lo <= c < num_classes:
        bound = f">= {lo}" if c < lo else f"< {num_classes}"
        raise SchemaError(f"labels: node {node} has class {c}, expected an integer {bound}")


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


def read_json(path, error: type[ValueError] = ValueError):
    """A file's JSON document; `error`, naming the file, if it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as e:  # also UnicodeDecodeError
        raise error(f"{path}: not JSON: {e}") from None


@contextmanager
def _named(path):
    """Prefix a SchemaError raised inside with the file path."""
    try:
        yield
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from None


def _schema_from_json(path, s: dict, rows_of: Callable[[str], Any],
                      where: str) -> tuple[HinSchema, str, int]:
    """The schema object `s` of a graph file; a type missing from its
    attribute_dims takes the length of the first list in rows_of(type), its
    attribute rows, or 0."""
    f = _fields(path, s, _SCHEMA, where, defaults=_OPTIONAL)
    relations = tuple(RelationType(**_fields(path, r, _RELATION, f"{where}relation_types[{i}]."))
                      for i, r in enumerate(f["relation_types"]))
    types = f["node_types"]
    if not TYPE_NAMES.ok(types):
        raise SchemaError(f"{path}: field {where + 'node_types'!r} must list type names")
    need_known(f"{path}: field {where + 'attribute_dims'!r}", f["attribute_dims"], types,
               "node type")
    dims = _fields(path, f["attribute_dims"], {t: COUNT for t in types if t in f["attribute_dims"]},
                   where + "attribute_dims.")
    for t in types:
        if t not in dims:  # the loaders name a row of another length
            rows = rows_of(t)
            rows = rows if isinstance(rows, list) else []
            dims[t] = next((len(r) for r in rows if isinstance(r, list)), 0)
    with _named(path):
        schema = HinSchema(tuple(types), relations, {t: dims[t] for t in types})
    return schema, f["target_type"], f["num_classes"]


def load_hin(path: str | Path, format: str = "json-graph") -> HinGraph:
    """Load a graph file. A SchemaError names the file and the first fault:
    its line, row or field where the file cannot be read, else the graph
    invariant that build_graph finds broken."""
    path = Path(path)
    loaders = {"json-graph": _load_json_graph, "csv-triples": _load_csv_triples}
    if format not in loaders:
        raise ValueError(f"unknown graph format {format!r}")
    args = loaders[format](path)
    with _named(path):
        return build_graph(*args)


def _holds_bool(rows: list[list]) -> bool:
    """Whether a value of the lists in `rows` is a bool, in one C-level pass."""
    return bool in set(map(type, chain.from_iterable(rows)))


def _number_rows(path: Path, t: str, rows: list[list]) -> np.ndarray:
    """Equal-length attribute rows as float64; a SchemaError names the first
    row holding a value that is not a JSON number."""
    # numpy infers a number dtype unless some value is not a number; it would
    # also take a bool, alone or beside floats, so any bool skips the fast path
    if not _holds_bool(rows):
        try:
            a = np.asarray(rows)
            if a.dtype.kind in "iuf" and a.ndim == 2:
                return a.astype(np.float64, copy=False)
        except ValueError:  # a list in place of a number
            pass
    for i, row in enumerate(rows):
        bad = [x for x in row if not is_number(x)]
        if bad:
            raise SchemaError(f"{path}: attributes of type {t!r}, row {i}: "
                              f"expected numbers, got {bad[0]!r}")
    return np.asarray([[_as_float(x) for x in row] for row in rows])  # ints beyond int64


def _as_float(x) -> float:
    """float(x), but an infinity for an int beyond float64 (where float raises
    OverflowError), which build_graph then names by its row."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _json_int(v) -> int:
    """A JSON integer; TypeError for anything else, a bool too, which
    operator.index would read as 0 or 1."""
    if type(v) is bool:
        raise TypeError(f"{v!r} is not an integer")
    return index(v)


def _int_pairs(pairs) -> np.ndarray | None:
    """A JSON edge list of [int, int] pairs as an (E, 2) int64 array, in one
    bulk conversion; None for anything else, which the per-pair reading names."""
    try:
        arr = np.asarray(pairs)
    except ValueError:  # ragged, or a pair holding a list
        return None
    if arr.dtype != np.int64 or arr.ndim != 2 or arr.shape[1] != 2:
        return None
    return None if _holds_bool(pairs) else arr  # numpy reads a bool as 0 or 1


def _load_json_graph(path: Path) -> tuple:
    """build_graph's arguments, read from a json-graph file."""
    doc = read_json(path, SchemaError)
    top = _fields(path, doc, _GRAPH, defaults=_OPTIONAL)
    attrs = top["attributes"]
    schema, target_type, num_classes = _schema_from_json(path, top["schema"], attrs.get, "schema.")
    types = schema.node_types
    need_known(f"{path}: field 'nodes'", top["nodes"], types, "node type")
    need_known(f"{path}: field 'attributes'", attrs, types, "node type")
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
        attributes[t] = _number_rows(path, t, rows)
    schema.need_relations(f"{path}: field 'edges'", top["edges"])
    edge_lists = {}
    for rel, pairs in top["edges"].items():
        arr = _int_pairs(pairs)
        if arr is not None:
            edge_lists[rel] = arr
            continue
        try:
            edge_lists[rel] = [(_json_int(s), _json_int(d)) for s, d in pairs]
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: relation {rel!r}: edges must be integer pairs") from None
    try:
        labels = {int(k): _json_int(v) for k, v in top["labels"].items()}
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: labels must map integer node ids to integers") from None
    return schema, num_nodes, edge_lists, attributes, target_type, num_classes, labels


def save_hin(g: HinGraph, path: str | Path) -> None:
    """Write the json-graph format; load_hin(save_hin(g)) round-trips."""
    labelled = g.labelled_nodes()
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
        "labels": dict(zip(labelled.tolist(), g.labels[labelled].tolist())),
        "edges": {},
    }
    for rel in g.schema.relation_types:
        indptr, indices = g.edges[rel.name]
        src = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
        doc["edges"][rel.name] = np.stack([src, indices], axis=1).tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc))  # json.dump would take the pure-Python encoder


def _load_csv_triples(path: Path) -> tuple:
    """build_graph's arguments, read from an edges file of
    "relation,src_type:src_id,dst_type:dst_id" lines plus sidecars.

    Sidecars live next to the edges file: <stem>.schema.json (same schema
    object as json-graph), <stem>.attrs.<type>.csv (one row of floats per
    local id) and <stem>.labels.csv (node_local_id,class).
    """
    stem = path.with_suffix("")
    schema_path = Path(f"{stem}.schema.json")
    if not schema_path.exists():
        raise SchemaError(f"missing schema sidecar {schema_path}")
    doc = read_json(schema_path, SchemaError)
    def first_line(t: str) -> list[list[str]]:  # type t's first non-empty attrs line, if any
        attr_path = Path(f"{stem}.attrs.{t}.csv")
        if not attr_path.exists():
            return []
        with open(attr_path, "r", encoding="utf-8") as f:
            return [next((line for line in csv.reader(f) if line), [])]
    schema, target_type, num_classes = _schema_from_json(schema_path, doc, first_line, "")

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
            attributes[t] = np.asarray(rows, dtype=np.float64)
            num_nodes[t] = len(rows)
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

    return schema, num_nodes, edge_lists, attributes, target_type, num_classes, labels
