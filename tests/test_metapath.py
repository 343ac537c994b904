"""Meta-path objects, action masking and frontier expansion."""
import numpy as np
import pytest

from helpers import extend_path, imdb_like_graph, imdb_like_schema, random_hin
from rlhgnn.hin import HinSchema, RelationType, SchemaError, build_graph
from rlhgnn.metapath import (
    DeadEndError,
    Frontier,
    MetaPath,
    arrived_mean,
    expand_frontier,
    stop_index,
    valid_actions,
)


def academic_schema():
    return HinSchema(
        node_types=("Author", "Paper"),
        relation_types=(
            RelationType("Cite", "Author", "Author"),
            RelationType("Write", "Author", "Paper"),
            RelationType("Written", "Paper", "Author"),
        ),
        attribute_dims={"Author": 2, "Paper": 2},
    )


def legal_action_names(schema: HinSchema, mask: np.ndarray) -> set[str]:
    names = {r.name for i, r in enumerate(schema.relation_types) if mask[i]}
    if mask[stop_index(schema)]:
        names.add("STOP")
    return names


def test_valid_actions_imdb_movie():
    schema = imdb_like_schema()
    mask = valid_actions(schema, "Movie", at_max_depth=False)
    assert legal_action_names(schema, mask) == {"M-D", "M-A", "STOP"}


def test_valid_actions_imdb_director():
    schema = imdb_like_schema()
    mask = valid_actions(schema, "Director", at_max_depth=False)
    assert legal_action_names(schema, mask) == {"D-M", "STOP"}


def test_valid_actions_at_max_depth_only_stop():
    schema = imdb_like_schema()
    for t in schema.node_types:
        mask = valid_actions(schema, t, at_max_depth=True)
        assert legal_action_names(schema, mask) == {"STOP"}
        assert mask[stop_index(schema)]


def test_valid_actions_unknown_type():
    with pytest.raises(SchemaError):
        valid_actions(imdb_like_schema(), "Studio", False)


def test_extend_author_cite():
    schema = academic_schema()
    p = extend_path(MetaPath("Author"), "Cite", schema)
    assert p.relations == ("Cite",)
    assert p.end_type(schema) == "Author"
    assert len(p) == 1


def test_extend_movie_actor_movie():
    schema = imdb_like_schema()
    p = extend_path(MetaPath("Movie", ("M-A",)), "A-M", schema)
    assert p.node_type_sequence(schema) == ["Movie", "Actor", "Movie"]
    assert p.to_arrow(schema) == "Movie -M-A-> Actor -A-M-> Movie"


def test_extend_illegal_chaining():
    schema = imdb_like_schema()
    with pytest.raises(SchemaError):
        extend_path(MetaPath("Movie", ("M-A",)), "M-D", schema)  # terminal is Actor


def test_extend_does_not_mutate_original():
    schema = imdb_like_schema()
    p = MetaPath("Movie", ("M-A",))
    extend_path(p, "A-M", schema)
    assert p.relations == ("M-A",)


def test_path_validate_catches_bad_chain():
    schema = imdb_like_schema()
    with pytest.raises(SchemaError):
        MetaPath("Movie", ("M-A", "M-D")).validate(schema)
    MetaPath("Movie", ("M-A", "A-M", "M-D")).validate(schema)


def test_expand_frontier_single_chain():
    # A-1 cites only A-2: "state 2 averages attributes of A-1 and A-2"
    schema = academic_schema()
    g = build_graph(
        schema,
        {"Author": 3, "Paper": 1},
        {"Cite": [(0, 1)]},
        {"Author": np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])},
        "Author",
        2,
    )
    f = Frontier.initial(("Author", 0))
    f2 = expand_frontier(g, f, "Cite")
    assert f2.reached.tolist() == [1]
    assert len(f2.step_edges) == 1
    np.testing.assert_allclose(arrived_mean(g, f2), [0.0, 1.0])


def test_expand_frontier_empty_is_dead_end():
    schema = academic_schema()
    g = build_graph(schema, {"Author": 2, "Paper": 1}, {}, {}, "Author", 2)
    f = expand_frontier(g, Frontier.initial(("Author", 0)), "Cite")
    assert len(f.reached) == 0
    with pytest.raises(DeadEndError):
        arrived_mean(g, f)


def test_expand_frontier_dedups_reached_keeps_edges():
    schema = academic_schema()
    g = build_graph(
        schema,
        {"Author": 3, "Paper": 2},
        {"Cite": [(0, 1), (0, 2)], "Write": [(1, 0), (2, 0)]},
        {},
        "Author",
        2,
    )
    f = expand_frontier(g, Frontier.initial(("Author", 0)), "Cite")
    f2 = expand_frontier(g, f, "Write")
    assert f2.reached.tolist() == [0]  # deduplicated
    parents, children = f2.step_edges[-1]
    assert parents.tolist() == [1, 2]  # two traversals kept
    assert children.tolist() == [0, 0]


def test_expand_frontier_type_mismatch():
    g = imdb_like_graph()
    f = Frontier.initial(("Movie", 0))
    with pytest.raises(SchemaError):
        expand_frontier(g, f, "A-M")


def test_fan_out_cap_is_seeded_and_consistent_across_episodes():
    g = imdb_like_graph(n_m=30, n_a=20, edges_per_node=8, seed=1)
    f1 = expand_frontier(g, Frontier.initial(("Movie", 3)), "M-A", fan_out_cap=3, seed=7)
    f2 = expand_frontier(g, Frontier.initial(("Movie", 3)), "M-A", fan_out_cap=3, seed=7)
    assert f1.reached.tolist() == f2.reached.tolist()
    assert len(f1.reached) == 3
    f3 = expand_frontier(g, Frontier.initial(("Movie", 3)), "M-A", fan_out_cap=3, seed=8)
    # a different run seed may sample different children
    assert len(f3.reached) == 3


def test_arrived_mean_examples():
    schema = academic_schema()
    g = build_graph(
        schema,
        {"Author": 3, "Paper": 2},
        {"Write": [(0, 0), (0, 1)]},
        {"Paper": np.array([[0.0, 1.0], [0.0, 0.0]])},
        "Author",
        2,
    )
    f = expand_frontier(g, Frontier.initial(("Author", 0)), "Write")
    np.testing.assert_allclose(arrived_mean(g, f), [0.0, 0.5])


def test_expand_matches_brute_force_instance_projection():
    """Uncapped frontier levels (the distinct children of each step) equal the
    projected node sets of exhaustive instance enumeration."""
    from rlhgnn.aggplan import enumerate_instances
    from rlhgnn.pipeline import random_legal_episodes

    for seed in range(10):
        g = random_hin(seed)
        eps = random_legal_episodes(
            g, np.arange(min(4, g.num_nodes[g.target_type])), length=3, seed=seed,
            fan_out_cap=None,
        )
        for ep in eps:
            insts = enumerate_instances(g, ep.start, ep.path)
            n = len(ep.path.relations)
            for level in range(1, n + 1):
                expected = sorted({inst[level] for inst in insts})
                # frontier levels may include dead branches; the instance
                # projection must be a subset reaching equality at the leaves
                got = np.unique(ep.frontier.step_edges[level - 1][1]).tolist()
                assert set(expected) <= set(got)
                if level == n:
                    assert expected == got


def test_episode_length_capped_and_stop_always_available():
    schema = imdb_like_schema()
    for t in schema.node_types:
        for depth in (False, True):
            mask = valid_actions(schema, t, depth)
            assert mask[stop_index(schema)]


def test_random_legal_action_sequences_revalidate():
    """Any path built from legal actions passes schema re-validation."""
    rng = np.random.default_rng(0)
    schema = imdb_like_schema()
    rel_names = [r.name for r in schema.relation_types]
    for _ in range(50):
        path = MetaPath("Movie")
        for depth in range(4):
            mask = valid_actions(schema, path.end_type(schema), depth >= 3)
            legal = [i for i in range(len(rel_names)) if mask[i]]
            if not legal or rng.random() < 0.2:
                break
            path = extend_path(path, rel_names[int(rng.choice(legal))], schema)
        path.validate(schema)
        assert len(path) <= 4
