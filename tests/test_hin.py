"""Graph data model: loading, validation, neighbors, splits, round-trips."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import imdb_like_graph, imdb_like_schema, neighbors, random_hin, save_csv_triples
from rlhgnn.hin import (
    HinSchema,
    RelationType,
    SchemaError,
    build_graph,
    load_hin,
    save_hin,
    split_nodes,
    validate_hin,
)


def imdb_like_json(tmp_path, n_m=5, n_d=3, n_a=4):
    doc = {
        "schema": {
            "node_types": ["Movie", "Director", "Actor"],
            "relation_types": [
                {"name": "M-D", "src": "Movie", "dst": "Director"},
                {"name": "D-M", "src": "Director", "dst": "Movie"},
                {"name": "M-A", "src": "Movie", "dst": "Actor"},
                {"name": "A-M", "src": "Actor", "dst": "Movie"},
            ],
            "target_type": "Movie",
            "num_classes": 3,
        },
        "nodes": {"Movie": n_m, "Director": n_d, "Actor": n_a},
        "attributes": {
            "Movie": [[float(i), 1.0] for i in range(n_m)],
            "Director": [[0.5] for _ in range(n_d)],
            "Actor": [[1.0, 2.0, 3.0] for _ in range(n_a)],
        },
        "labels": {str(i): i % 3 for i in range(n_m)},
        "edges": {
            "M-D": [[i, i % n_d] for i in range(n_m)],
            "D-M": [[i % n_d, i] for i in range(n_m)],
            "M-A": [[i, i % n_a] for i in range(n_m)] + [[0, 1]],
            "A-M": [[i % n_a, i] for i in range(n_m)],
        },
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_load_imdb_shaped_counts(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    g = load_hin(path)
    assert g.num_nodes == {"Movie": 5, "Director": 3, "Actor": 4}
    assert g.edge_count("M-D") == 5
    assert g.edge_count("D-M") == 5
    assert g.edge_count("M-A") == 6
    assert g.num_classes == 3
    assert validate_hin(g).ok


def test_load_full_scale_imdb_shape(tmp_path):
    """Movie/director/actor graph at the reference scale: 4278 movies, 2081
    directors, 5257 actors, 4278 M-D/D-M edges and 12828 M-A/A-M edges."""
    n_m, n_d, n_a = 4278, 2081, 5257
    doc = {
        "schema": {
            "node_types": ["Movie", "Director", "Actor"],
            "relation_types": [
                {"name": "M-D", "src": "Movie", "dst": "Director"},
                {"name": "D-M", "src": "Director", "dst": "Movie"},
                {"name": "M-A", "src": "Movie", "dst": "Actor"},
                {"name": "A-M", "src": "Actor", "dst": "Movie"},
            ],
            "target_type": "Movie",
            "num_classes": 3,
            "attribute_dims": {"Movie": 2, "Director": 1, "Actor": 1},
        },
        "nodes": {"Movie": n_m, "Director": n_d, "Actor": n_a},
        "attributes": {
            "Movie": [[1.0, 0.0]] * n_m,
            "Director": [[0.0]] * n_d,
            "Actor": [[0.0]] * n_a,
        },
        "labels": {str(i): i % 3 for i in range(n_m)},
        "edges": {
            "M-D": [[i, i % n_d] for i in range(n_m)],
            "D-M": [[i % n_d, i] for i in range(n_m)],
            "M-A": [[i % n_m, (3 * i) % n_a] for i in range(12828)],
            "A-M": [[(3 * i) % n_a, i % n_m] for i in range(12828)],
        },
    }
    path = tmp_path / "imdb_shape.json"
    path.write_text(json.dumps(doc))
    g = load_hin(path)
    assert g.num_nodes == {"Movie": n_m, "Director": n_d, "Actor": n_a}
    assert g.edge_count("M-D") == g.edge_count("D-M") == 4278
    assert g.edge_count("M-A") == g.edge_count("A-M") == 12828
    assert len(g.labelled_nodes()) == n_m


def test_load_empty_node_type_is_valid(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    doc["nodes"]["Director"] = 0
    doc["attributes"]["Director"] = []
    doc["edges"]["M-D"] = []
    doc["edges"]["D-M"] = []
    path.write_text(json.dumps(doc))
    g = load_hin(path)
    assert g.num_nodes["Director"] == 0
    assert g.attributes["Director"].shape[0] == 0
    assert validate_hin(g).ok


def test_load_rejects_out_of_range_endpoint(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    doc["edges"]["M-A"].append([0, 99])  # no such actor
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_hin(path)


def test_load_rejects_attribute_dim_mismatch(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    doc["attributes"]["Movie"][0] = [1.0, 2.0, 3.0]
    path.write_text(json.dumps(doc))
    with pytest.raises((SchemaError, ValueError)):
        load_hin(path)


def test_csv_triples_endpoint_type_mismatch(tmp_path):
    schema = {
        "node_types": ["Movie", "Actor"],
        "relation_types": [{"name": "M-A", "src": "Movie", "dst": "Actor"}],
        "target_type": "Movie",
        "num_classes": 2,
        "attribute_dims": {"Movie": 1, "Actor": 1},
    }
    (tmp_path / "g.schema.json").write_text(json.dumps(schema))
    (tmp_path / "g.attrs.Movie.csv").write_text("0.1\n0.2\n")
    (tmp_path / "g.attrs.Actor.csv").write_text("1.0\n")
    (tmp_path / "g.labels.csv").write_text("0,1\n1,0\n")
    edges = tmp_path / "g.csv"
    edges.write_text("M-A,Movie:0,Movie:0\n")  # Movie->Movie under M-A
    with pytest.raises(SchemaError, match="type mismatch"):
        load_hin(edges, format="csv-triples")


@pytest.mark.parametrize("line,message", [
    ("X-Y,Movie:0,Actor:1", "g.csv:2: unknown relation 'X-Y'"),
    ("M-A,Movie:zero,Actor:1", "g.csv:2: node ids must be integers, got 'Movie:zero' and 'Actor:1'"),
    ("M-A,Movie:0,Actor:", "g.csv:2: node ids must be integers"),
    ("M-A,Movie:0,Actor:1.5", "g.csv:2: node ids must be integers"),
], ids=["unknown-relation", "word-id", "missing-id", "fractional-id"])
def test_csv_triples_names_the_file_and_line_of_a_bad_edge(tmp_path, line, message):
    schema = {
        "node_types": ["Movie", "Actor"],
        "relation_types": [{"name": "M-A", "src": "Movie", "dst": "Actor"}],
        "target_type": "Movie",
        "num_classes": 2,
        "attribute_dims": {"Movie": 1, "Actor": 1},
    }
    (tmp_path / "g.schema.json").write_text(json.dumps(schema))
    (tmp_path / "g.attrs.Movie.csv").write_text("0.1\n0.2\n")
    (tmp_path / "g.attrs.Actor.csv").write_text("1.0\n2.0\n")
    edges = tmp_path / "g.csv"
    edges.write_text(f"M-A,Movie:0,Actor:1\n{line}\n")
    with pytest.raises(SchemaError) as err:
        load_hin(edges, format="csv-triples")
    assert str(err.value).startswith(f"{tmp_path}/{message}")


@pytest.mark.parametrize("sidecar,text,message", [
    ("attrs.Movie", "0.1\nx\n", "g.attrs.Movie.csv:2: expected numbers"),
    ("attrs.Movie", "0.1\n0.2,\n", "g.attrs.Movie.csv:2: expected numbers"),
    ("labels", "0,1\na,1\n", "g.labels.csv:2: expected node_id,class"),
    ("labels", "0,1\n\n1\n", "g.labels.csv:3: expected node_id,class"),
    ("labels", "0,1\n1,0,2\n", "g.labels.csv:2: expected node_id,class"),
    ("labels", "1,0\n0,-7\n",
     "g.labels.csv:2: node 0 has class -7, expected an integer >= 0"),
], ids=["word-attribute", "empty-attribute", "word-id", "one-field", "three-fields",
        "negative-class"])
def test_csv_triples_names_the_file_and_line_of_a_bad_sidecar_row(tmp_path, sidecar, text,
                                                                  message):
    schema = {
        "node_types": ["Movie", "Actor"],
        "relation_types": [{"name": "M-A", "src": "Movie", "dst": "Actor"}],
        "target_type": "Movie",
        "num_classes": 2,
        "attribute_dims": {"Movie": 1, "Actor": 1},
    }
    (tmp_path / "g.schema.json").write_text(json.dumps(schema))
    (tmp_path / "g.attrs.Movie.csv").write_text("0.1\n0.2\n")
    (tmp_path / "g.attrs.Actor.csv").write_text("1.0\n2.0\n")
    (tmp_path / "g.labels.csv").write_text("0,1\n1,0\n")
    (tmp_path / f"g.{sidecar}.csv").write_text(text)
    edges = tmp_path / "g.csv"
    edges.write_text("M-A,Movie:0,Actor:1\n")
    with pytest.raises(SchemaError) as err:
        load_hin(edges, format="csv-triples")
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize("text,message", [
    ("0.1,0.0\n0.2\n", "g.attrs.Movie.csv:2: expected 2 numbers, got 1"),
    ("0.1,0.0\n\n0.2,0.3,0.4\n", "g.attrs.Movie.csv:3: expected 2 numbers, got 3"),
    ("0.1\n0.2,0.3\n", "g.attrs.Movie.csv:1: expected 2 numbers, got 1"),
], ids=["short-row", "long-row-after-blank-line", "short-first-row"])
def test_csv_triples_names_the_line_of_a_ragged_attribute_row(tmp_path, text, message):
    schema = {
        "node_types": ["Movie", "Actor"],
        "relation_types": [{"name": "M-A", "src": "Movie", "dst": "Actor"}],
        "target_type": "Movie",
        "num_classes": 2,
        "attribute_dims": {"Movie": 2, "Actor": 1},
    }
    (tmp_path / "g.schema.json").write_text(json.dumps(schema))
    (tmp_path / "g.attrs.Movie.csv").write_text(text)
    (tmp_path / "g.attrs.Actor.csv").write_text("1.0\n2.0\n")
    edges = tmp_path / "g.csv"
    edges.write_text("M-A,Movie:0,Actor:1\n")
    with pytest.raises(SchemaError) as err:
        load_hin(edges, format="csv-triples")
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize("row,value,got", [
    (3, [1.0], "1"),
    (2, [1.0, 2.0, 3.0], "3"),
    (4, 1.0, "a float"),
    (0, 1.0, "a float"),
], ids=["short-row", "long-row", "number-for-row", "number-for-first-row"])
def test_json_graph_names_the_file_type_and_row_of_a_ragged_attribute_row(tmp_path, row,
                                                                          value, got):
    path, doc = imdb_like_json(tmp_path)
    doc["attributes"]["Movie"][row] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_hin(path)
    assert str(err.value) == (f"{path}: attributes of type 'Movie', row {row}: "
                              f"expected 2 numbers, got {got}")


@pytest.mark.parametrize("row,value", [
    (2, ["x", 1.0]),
    (0, [1.0, None]),
    (4, [1.0, [2.0]]),
    (0, [True, 1.0]),
    (3, [1.0, False]),
], ids=["word", "null", "list", "bool-beside-float", "bool-after-float"])
def test_json_graph_names_the_file_type_and_row_of_a_non_number_attribute(tmp_path, row, value):
    path, doc = imdb_like_json(tmp_path)
    doc["attributes"]["Movie"][row] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_hin(path)
    bad = next(x for x in value if not isinstance(x, float))
    assert str(err.value) == (f"{path}: attributes of type 'Movie', row {row}: "
                              f"expected numbers, got {bad!r}")


def test_json_graph_reads_an_integer_attribute_beyond_int64(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    doc["attributes"]["Movie"][1] = [10**20, 1]
    path.write_text(json.dumps(doc))
    np.testing.assert_array_equal(load_hin(path).attributes["Movie"][1], [1e20, 1.0])


@pytest.mark.parametrize("part,key,value,message", [
    ("edges", "M-A", [0, "b"], "relation 'M-A': edges must be integer pairs"),
    ("edges", "M-A", [0], "relation 'M-A': edges must be integer pairs"),
    ("edges", "M-A", [0, 1, 2], "relation 'M-A': edges must be integer pairs"),
    ("edges", "A-M", [1.5, 0], "relation 'A-M': edges must be integer pairs"),
    ("labels", "a", 1, "labels must map integer node ids to integers"),
    ("labels", "0", {"a": 1}, "labels must map integer node ids to integers"),
    ("labels", "0", "1", "labels must map integer node ids to integers"),
], ids=["word-id", "one-id", "three-ids", "fractional-id", "word-node", "object-class",
        "string-class"])
def test_json_graph_names_the_file_of_a_bad_edge_or_label(tmp_path, part, key, value, message):
    path, doc = imdb_like_json(tmp_path)
    if part == "edges":
        doc["edges"][key].append(value)
    else:
        doc["labels"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_hin(path)
    assert str(err.value) == f"{path}: {message}"


def _without(doc: dict, *keys) -> dict:
    """A copy of doc without the field at the path of keys."""
    doc = json.loads(json.dumps(doc))
    *outer, last = keys
    inner = doc
    for k in outer:
        inner = inner[k]
    del inner[last]
    return doc


@pytest.mark.parametrize("change,message", [
    (lambda d: _without(d, "schema"), "missing field 'schema'"),
    (lambda d: _without(d, "nodes"), "missing field 'nodes'"),
    (lambda d: _without(d, "schema", "target_type"), "missing field 'schema.target_type'"),
    (lambda d: _without(d, "schema", "num_classes"), "missing field 'schema.num_classes'"),
    (lambda d: _without(d, "schema", "node_types"), "missing field 'schema.node_types'"),
    (lambda d: _without(d, "schema", "relation_types", 1, "dst"),
     "missing field 'schema.relation_types[1].dst'"),
    (lambda d: {**d, "attributes": []}, "field 'attributes' must be an object, got []"),
    (lambda d: {**d, "edges": []}, "field 'edges' must be an object, got []"),
    (lambda d: {**d, "labels": [1]}, "field 'labels' must be an object, got [1]"),
    (lambda d: {**d, "schema": []}, "field 'schema' must be an object, got []"),
    (lambda d: {**d, "nodes": {**d["nodes"], "Actor": "x"}},
     "field 'nodes.Actor' must be an integer >= 0, got 'x'"),
    (lambda d: {**d, "nodes": {**d["nodes"], "Actor": -1}}, "field 'nodes.Actor' must be an integer >= 0, got -1"),
    (lambda d: {**d, "attributes": {**d["attributes"], "Actor": 5}},
     "field 'attributes.Actor' must be a list, got 5"),
    (lambda d: {**d, "labels": {**d["labels"], "0": -7}},
     "labels: node 0 has class -7, expected an integer >= 0"),
    (lambda d: {**d, "schema": {**d["schema"], "num_classes": "3"}},
     "field 'schema.num_classes' must be an integer >= 0, got '3'"),
    (lambda d: {**d, "schema": {**d["schema"], "attribute_dims": {"Movie": 2.0}}},
     "field 'schema.attribute_dims.Movie' must be an integer >= 0, got 2.0"),
    (lambda d: {**d, "schema": {**d["schema"], "relation_types": [["M-D", "Movie", "Actor"]]}},
     "missing field 'schema.relation_types[0].name'"),
    (lambda d: [d], "missing field 'schema'"),
    (lambda d: {**d, "schema": {**d["schema"], "node_types": ["Movie", ["Actor"]]}},
     "field 'schema.node_types' must list type names"),
    (lambda d: {**d, "edges": {**d["edges"], "X-Y": [[0, 1]]}},
     "field 'edges' names no relation: 'X-Y' (relations: 'M-D', 'D-M', 'M-A', 'A-M')"),
], ids=["no-schema", "no-nodes", "no-target-type", "no-num-classes", "no-node-types",
        "no-relation-dst", "attributes-list", "edges-list", "labels-list", "schema-list",
        "word-count", "negative-count", "number-for-rows", "negative-label", "string-classes",
        "float-dim", "list-relation", "list-document", "list-type", "unknown-edge-relation"])
def test_json_graph_names_the_file_and_field_of_a_structural_error(tmp_path, change, message):
    path, doc = imdb_like_json(tmp_path)
    path.write_text(json.dumps(change(doc)))
    with pytest.raises(SchemaError) as err:
        load_hin(path)
    assert str(err.value) == f"{path}: {message}"


def test_json_graph_infers_the_dims_missing_from_attribute_dims(tmp_path):
    path, doc = imdb_like_json(tmp_path)
    doc["schema"]["attribute_dims"] = {"Movie": 2}
    path.write_text(json.dumps(doc))
    assert load_hin(path).schema.attribute_dims == {"Movie": 2, "Director": 1, "Actor": 3}


def test_csv_triples_names_the_schema_sidecar_and_field(tmp_path):
    g = imdb_like_graph()
    path = tmp_path / "g.csv"
    save_csv_triples(g, path)
    sidecar = tmp_path / "g.schema.json"
    schema = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(_without(schema, "relation_types", 0, "src")))
    with pytest.raises(SchemaError) as err:
        load_hin(path, "csv-triples")
    assert str(err.value) == f"{sidecar}: missing field 'relation_types[0].src'"


def test_csv_triples_round(tmp_path):
    schema = {
        "node_types": ["Movie", "Actor"],
        "relation_types": [{"name": "M-A", "src": "Movie", "dst": "Actor"}],
        "target_type": "Movie",
        "num_classes": 2,
        "attribute_dims": {"Movie": 2, "Actor": 1},
    }
    (tmp_path / "g.schema.json").write_text(json.dumps(schema))
    (tmp_path / "g.attrs.Movie.csv").write_text("0.1,0.0\n0.2,1.0\n")
    (tmp_path / "g.attrs.Actor.csv").write_text("1.0\n2.0\n")
    (tmp_path / "g.labels.csv").write_text("0,1\n1,0\n")
    edges = tmp_path / "g.csv"
    edges.write_text("M-A,Movie:0,Actor:1\nM-A,Movie:1,Actor:0\n")
    g = load_hin(edges, format="csv-triples")
    assert g.edge_count("M-A") == 2
    assert list(neighbors(g, ("Movie", 0), "M-A")) == [1]
    assert g.labels.tolist() == [1, 0]


def test_validate_reports_label_out_of_range():
    g = imdb_like_graph()
    g.labels[0] = g.num_classes  # value C is outside [0, C)
    report = validate_hin(g)
    assert len(report) == 1
    assert "label" in report.violations[0]


def test_validate_reports_missing_attribute_row():
    g = imdb_like_graph()
    g.attributes["Actor"] = g.attributes["Actor"][:-1]
    report = validate_hin(g)
    assert len(report) == 1
    assert "row count" in report.violations[0]


def test_neighbors_sorted_and_typed():
    g = imdb_like_graph(seed=3)
    out = neighbors(g, ("Movie", 0), "M-A")
    assert list(out) == sorted(out.tolist())
    # no edges case: build a movie with no directors
    schema = imdb_like_schema()
    g2 = build_graph(schema, {"Movie": 1, "Director": 1, "Actor": 1}, {}, {}, "Movie", 2)
    assert len(neighbors(g2, ("Movie", 0), "M-D")) == 0


def test_neighbors_source_type_mismatch():
    g = imdb_like_graph()
    with pytest.raises(SchemaError):
        neighbors(g, ("Movie", 0), "A-M")  # A-M starts at Actor


def test_neighbors_targets_have_relation_target_type():
    for seed in range(5):
        g = random_hin(seed)
        for r in g.schema.relation_types:
            for src in range(g.num_nodes[r.src]):
                out = neighbors(g, (r.src, src), r.name)
                assert np.all(out >= 0) and np.all(out < g.num_nodes[r.dst])


def test_parallel_edges_kept():
    schema = imdb_like_schema()
    g = build_graph(
        schema,
        {"Movie": 1, "Director": 1, "Actor": 2},
        {"M-A": [(0, 1), (0, 1), (0, 0)]},
        {},
        "Movie",
        2,
    )
    assert list(neighbors(g, ("Movie", 0), "M-A")) == [0, 1, 1]


def test_schema_validation():
    with pytest.raises(SchemaError):
        HinSchema(("A", "A"), (), {"A": 1})
    with pytest.raises(SchemaError):
        HinSchema(("A",), (RelationType("r", "A", "B"),), {"A": 1})
    with pytest.raises(SchemaError):
        HinSchema(
            ("A",),
            (RelationType("r", "A", "A"), RelationType("r", "A", "A")),
            {"A": 1},
        )


def test_self_loops_are_ordinary_edges():
    schema = HinSchema(("A",), (RelationType("cite", "A", "A"),), {"A": 2})
    g = build_graph(schema, {"A": 3}, {"cite": [(0, 0), (0, 1)]}, {}, "A", 2)
    assert validate_hin(g).ok
    assert list(neighbors(g, ("A", 0), "cite")) == [0, 1]


def test_split_sizes_and_determinism():
    g = imdb_like_graph(n_m=20)
    s1 = split_nodes(g, (8, 8), seed=5)
    s2 = split_nodes(g, (8, 8), seed=5)
    assert len(s1.train) == 8 and len(s1.validation) == 8 and len(s1.test) == 4
    assert np.array_equal(s1.train, s2.train)
    assert np.array_equal(s1.test, s2.test)
    all_ids = np.concatenate([s1.train, s1.validation, s1.test])
    assert len(np.unique(all_ids)) == 20


@pytest.mark.parametrize("counts,name", [
    ((3, -2), "validation"), ((-1, 3), "train"), ((0, 3), "train"), ((3, 0), "validation"),
], ids=["3,-2", "-1,3", "0,3", "3,0"])
def test_split_rejects_counts_below_one(counts, name):
    g = imdb_like_graph()  # 8 labelled nodes
    with pytest.raises(ValueError, match=f"^{name} count must be >= 1, got {min(counts)}$"):
        split_nodes(g, counts, seed=0)


def test_split_counts_of_none_default_to_40_and_30_percent_of_the_labelled_nodes():
    g = imdb_like_graph(n_m=20)
    g.labels[[3, 7]] = -1  # 18 labelled nodes: 7 train, 5 validation
    default, explicit = split_nodes(g, (None, None), seed=5), split_nodes(g, (7, 5), seed=5)
    for key in ("train", "validation", "test"):
        np.testing.assert_array_equal(getattr(default, key), getattr(explicit, key))


def test_split_insufficient_labelled():
    g = imdb_like_graph(n_m=6)
    with pytest.raises(ValueError):
        split_nodes(g, (4, 4), seed=0)


def test_json_round_trip(tmp_path):
    for seed in range(3):
        g = random_hin(seed)
        path = tmp_path / f"rt{seed}.json"
        save_hin(g, path)
        for r in g.schema.relation_types:  # CSR order, one [src, dst] pair per edge
            indptr, indices = g.edges[r.name]
            want = [[src, int(dst)] for src in range(len(indptr) - 1)
                    for dst in indices[indptr[src]:indptr[src + 1]]]
            assert json.loads(path.read_text())["edges"][r.name] == want
        g2 = load_hin(path)
        assert g2.schema == g.schema
        assert g2.num_nodes == g.num_nodes
        assert np.array_equal(g2.labels, g.labels)
        for t in g.schema.node_types:
            np.testing.assert_array_equal(g2.attributes[t], g.attributes[t])
        for r in g.schema.relation_types:
            np.testing.assert_array_equal(g2.edges[r.name][0], g.edges[r.name][0])
            np.testing.assert_array_equal(g2.edges[r.name][1], g.edges[r.name][1])


@st.composite
def small_hins(draw):
    """Graphs with empty types, empty relations, parallel edges, self-loops,
    unlabelled nodes and awkward floats (-0.0, subnormals, 1e308)."""
    types = tuple(draw(st.permutations(["A", "B", "C"]))[:draw(st.integers(1, 3))])
    counts = {t: draw(st.integers(0, 6)) for t in types}
    dims = {t: draw(st.integers(1, 3)) for t in types}
    rels = tuple(RelationType(f"r{i}", draw(st.sampled_from(types)), draw(st.sampled_from(types)))
                 for i in range(draw(st.integers(0, 4))))
    edge_lists = {
        r.name: draw(st.lists(st.tuples(st.integers(0, counts[r.src] - 1),
                                        st.integers(0, counts[r.dst] - 1)), max_size=12))
        if counts[r.src] and counts[r.dst] else []
        for r in rels
    }
    floats = st.floats(allow_nan=False, allow_infinity=False)
    attrs = {t: np.asarray(draw(st.lists(floats, min_size=counts[t] * dims[t],
                                         max_size=counts[t] * dims[t])),
                           dtype=np.float64).reshape(counts[t], dims[t]) for t in types}
    num_classes = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(-1, num_classes - 1),
                           min_size=counts[types[0]], max_size=counts[types[0]]))
    return build_graph(HinSchema(types, rels, dims), counts, edge_lists, attrs, types[0],
                       num_classes, np.asarray(labels, dtype=np.int64))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_hins(), st.sampled_from(["json-graph", "csv-triples"]))
def test_save_load_round_trip_keeps_every_array(g, format):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / ("g.json" if format == "json-graph" else "g.csv")
        if format == "json-graph":
            save_hin(g, path)
        else:
            save_csv_triples(g, path)
        g2 = load_hin(path, format)
    assert (g2.schema, g2.num_nodes, g2.target_type, g2.num_classes) == \
        (g.schema, g.num_nodes, g.target_type, g.num_classes)
    for a, b in [(g2.labels, g.labels)] + [(g2.attributes[t], g.attributes[t])
                                          for t in g.schema.node_types]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for r in g.schema.relation_types:
        for a, b in zip(g2.edges[r.name], g.edges[r.name]):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
