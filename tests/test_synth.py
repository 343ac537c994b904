"""Planted-path generator: oracle separability, noise limits, determinism."""
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from rlhgnn.hin import HinSchema, RelationType, SchemaError, build_graph
from rlhgnn.synth import (SyntheticSpec, generate_planted_hin, planted_oracle_accuracy,
                          planted_oracle_predict)


def movie_actor_spec(**overrides):
    base = dict(
        node_counts={"Movie": 60, "Actor": 30, "Director": 12},
        relations=[
            ("M-A", "Movie", "Actor"),
            ("A-M", "Actor", "Movie"),
            ("M-D", "Movie", "Director"),
        ],
        out_degree={"M-A": 3, "A-M": 2, "M-D": 2},
        target_type="Movie",
        planted_path=("M-A",),
        signal_strength=1.0,
        num_classes=3,
        seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def nearest_centroid_accuracy(X_train, y_train, X_test, y_test, C):
    cents = np.stack([
        X_train[y_train == c].mean(axis=0) if np.any(y_train == c) else np.zeros(X_train.shape[1])
        for c in range(C)
    ])
    d = ((X_test[:, None, :] - cents[None]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d, axis=1) == y_test))


def test_full_signal_oracle_is_perfect_and_own_attrs_are_chance():
    g, split = generate_planted_hin(movie_actor_spec())
    # brute-force rule over planted-path-reachable attributes: exact
    assert planted_oracle_accuracy(g, ("M-A",), split.train) == 1.0
    assert planted_oracle_accuracy(g, ("M-A",), split.test) == 1.0
    # a classifier seeing only the movie's own attributes stays near chance
    X = g.attributes["Movie"]
    y = g.labels
    acc = nearest_centroid_accuracy(X[split.train], y[split.train], X[split.test], y[split.test], 3)
    assert acc < 1 / 3 + 0.25


def test_wrong_path_is_uninformative():
    g, split = generate_planted_hin(movie_actor_spec(node_counts={"Movie": 90, "Actor": 30, "Director": 12}))
    nodes = np.concatenate([split.train, split.validation, split.test])
    acc_wrong = planted_oracle_accuracy(g, ("M-D",), nodes)
    assert acc_wrong < 1 / 3 + 0.2


def test_zero_signal_labels_independent():
    g, split = generate_planted_hin(movie_actor_spec(signal_strength=0.0,
                                                     node_counts={"Movie": 120, "Actor": 30, "Director": 12}))
    nodes = np.concatenate([split.train, split.validation, split.test])
    acc = planted_oracle_accuracy(g, ("M-A",), nodes)
    assert acc < 1 / 3 + 0.15


def test_same_seed_identical_graphs():
    spec = movie_actor_spec()
    g1, s1 = generate_planted_hin(spec)
    g2, s2 = generate_planted_hin(movie_actor_spec())
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(s1.train, s2.train)
    for t in g1.schema.node_types:
        np.testing.assert_array_equal(g1.attributes[t], g2.attributes[t])
    for r in g1.schema.relation_types:
        np.testing.assert_array_equal(g1.edges[r.name][1], g2.edges[r.name][1])
    g3, _ = generate_planted_hin(movie_actor_spec(seed=1))
    assert not np.array_equal(g1.attributes["Movie"], g3.attributes["Movie"])


def test_two_hop_planted_path_oracle_perfect():
    spec = SyntheticSpec(
        node_counts={"Movie": 50, "Actor": 24, "Tag": 12, "Director": 9},
        relations=[
            ("M-A", "Movie", "Actor"),
            ("A-T", "Actor", "Tag"),
            ("M-D", "Movie", "Director"),
            ("D-M", "Director", "Movie"),
        ],
        out_degree={"M-A": 2, "A-T": 2, "M-D": 2, "D-M": 2},
        target_type="Movie",
        planted_path=("M-A", "A-T"),
        signal_strength=1.0,
        num_classes=3,
        seed=3,
    )
    g, split = generate_planted_hin(spec)
    nodes = np.concatenate([split.train, split.validation, split.test])
    assert planted_oracle_accuracy(g, ("M-A", "A-T"), nodes) == 1.0


def test_empty_planted_path_means_own_attribute_labels():
    spec = movie_actor_spec(planted_path=())
    g, split = generate_planted_hin(spec)
    # the label is recoverable from the movie's own attribute one-hot block
    own = np.argmax(g.attributes["Movie"][:, :3], axis=1)
    assert np.array_equal(own, g.labels)


def test_invalid_specs_rejected():
    with pytest.raises(Exception):
        generate_planted_hin(movie_actor_spec(planted_path=("A-M",)))  # starts at Actor
    with pytest.raises(ValueError):
        generate_planted_hin(movie_actor_spec(signal_strength=1.5))
    with pytest.raises(ValueError):
        generate_planted_hin(movie_actor_spec(train_count=50, val_count=50))
    with pytest.raises(ValueError, match="^type 'Actor' needs at least 3 nodes for class pools$"):
        movie_actor_spec(node_counts={"Movie": 60, "Actor": 2, "Director": 12})


def test_the_oracle_predicts_class_0_where_the_path_reaches_no_node_and_rejects_a_broken_path():
    schema = HinSchema(("Movie", "Actor"), (RelationType("M-A", "Movie", "Actor"),),
                       {"Movie": 1, "Actor": 2})
    g = build_graph(schema, {"Movie": 2, "Actor": 2}, {"M-A": [(0, 1)]},
                    {"Movie": np.zeros((2, 1)), "Actor": np.eye(2)}, "Movie", 2, np.ones(2, int))
    assert planted_oracle_predict(g, ("M-A",), np.array([0, 1])).tolist() == [1, 0]
    with pytest.raises(SchemaError, match="^planted path broken at relation 'M-A'$"):
        planted_oracle_predict(g, ("M-A", "M-A"), np.array([0]))


def test_a_spec_is_checked_when_made_and_frozen():
    message = r"^planted_path names no relation: 'M-X' \(relations: 'M-A', 'A-M', 'M-D'\)$"
    with pytest.raises(ValueError, match=message):
        movie_actor_spec(planted_path=("M-X",))
    spec = movie_actor_spec(planted_path=["M-A"])
    assert spec.planted_path == ("M-A",)
    with pytest.raises(ValueError, match=r"^num_classes must be an integer >= 1, got 0$"):
        replace(spec, num_classes=0)
    with pytest.raises(FrozenInstanceError):
        spec.planted_path = ("M-X",)


# the README quickstart spec, as JSON
QUICKSTART_SPEC = {
    "node_counts": {"Movie": 120, "Actor": 48, "Tag": 12, "Director": 16},
    "relations": [["M-A", "Movie", "Actor"], ["A-T", "Actor", "Tag"],
                  ["M-D", "Movie", "Director"]],
    "out_degree": {"M-A": 2, "A-T": 2, "M-D": 2},
    "target_type": "Movie",
    "planted_path": ["M-A", "A-T"],
    "signal_strength": 1.0,
    "num_classes": 3,
    "train_count": 48, "val_count": 36,
    "seed": 0,
}


def test_json_spec_reads_as_the_spec_it_spells():
    spec = SyntheticSpec.from_dict(json.loads(json.dumps(QUICKSTART_SPEC)))
    assert spec == SyntheticSpec(
        node_counts={"Movie": 120, "Actor": 48, "Tag": 12, "Director": 16},
        relations=[("M-A", "Movie", "Actor"), ("A-T", "Actor", "Tag"),
                   ("M-D", "Movie", "Director")],
        out_degree={"M-A": 2, "A-T": 2, "M-D": 2},
        target_type="Movie", planted_path=("M-A", "A-T"), signal_strength=1.0,
        num_classes=3, train_count=48, val_count=36, seed=0)


@pytest.mark.parametrize("edit,message", [
    (lambda d: [d], "SyntheticSpec must be a JSON object, got list"),
    (lambda d: {**d, "signal_strenght": 0.5}, "unknown SyntheticSpec field(s): signal_strenght"),
    (lambda d: {k: v for k, v in d.items() if k != "relations"},
     "SyntheticSpec lacks field(s): relations"),
    (lambda d: {**d, "num_classes": 2.7}, "num_classes must be an integer >= 1, got 2.7"),
    (lambda d: {**d, "seed": "5"}, "seed must be an integer >= 0, got '5'"),
    (lambda d: {**d, "train_count": "10"}, "train_count must be an integer or null, got '10'"),
    (lambda d: {**d, "signal_strength": True}, "signal_strength must be in [0, 1], got True"),
    (lambda d: {**d, "node_counts": {"Movie": 1.5}},
     "node_counts must be an object of integer counts >= 0, got {'Movie': 1.5}"),
    (lambda d: {**d, "relations": [["M-A", "Movie"]]},
     "relations must be a list of [name, src type, dst type] triples, got [['M-A', 'Movie']]"),
    (lambda d: {**d, "planted_path": "M-A"},
     "planted_path must be a list of relation names, got 'M-A'"),
    (lambda d: {**d, "out_degree": {"M-A": 2, "M-a": 1, "X-Y": 3}},
     "out_degree names no relation: 'M-a', 'X-Y' (relations: 'M-A', 'A-T', 'M-D')"),
    (lambda d: {**d, "planted_path": ["M-A", "A-X"]},
     "planted_path names no relation: 'A-X' (relations: 'M-A', 'A-T', 'M-D')"),
], ids=["not-object", "typo", "missing", "float-count", "string-seed", "string-count",
        "bool-strength", "float-node-count", "short-relation", "string-path",
        "unknown-degree-key", "unknown-path-relation"])
def test_json_spec_rejects_a_bad_document_by_name(edit, message):
    with pytest.raises(ValueError) as err:
        SyntheticSpec.from_dict(edit(json.loads(json.dumps(QUICKSTART_SPEC))))
    assert str(err.value) == message
