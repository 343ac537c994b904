"""Plan compiler: merging, counts, oracle equivalence against enumeration."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs_and_episodes, random_hin, reference_build_plan
from rlhgnn.aggplan import (
    Episode,
    build_plan,
    count_steps_by_enumeration,
    enumerate_instances,
    naive_plan,
    plan_stats,
    restrict,
)
from rlhgnn.hin import HinSchema, RelationType, build_graph
from rlhgnn.metapath import Frontier, MetaPath, expand_frontier
from rlhgnn.model import hgnn_forward, init_params
from rlhgnn.pipeline import random_legal_episodes


def academic_graph():
    """Papers cited-author topology mirroring the shared-target merge case:
    two level-1 authors both cite author A2, whose papers are P3 and P5."""
    schema = HinSchema(
        node_types=("Paper", "Author"),
        relation_types=(
            RelationType("Written", "Paper", "Author"),
            RelationType("Cite", "Author", "Author"),
            RelationType("Write", "Author", "Paper"),
        ),
        attribute_dims={"Paper": 3, "Author": 3},
    )
    rng = np.random.default_rng(0)
    # paper P0 written by authors A0 and A1; both cite A2; A2 wrote P3, P5(->idx 2)
    edges = {
        "Written": [(0, 0), (0, 1)],
        "Cite": [(0, 2), (1, 2)],
        "Write": [(2, 1), (2, 2)],
    }
    attrs = {
        "Paper": rng.normal(size=(3, 3)),
        "Author": rng.normal(size=(3, 3)),
    }
    return build_graph(schema, {"Paper": 3, "Author": 3}, edges, attrs, "Paper", 2)


def make_episode(g, start, relations, cap=None, seed=0):
    path = MetaPath(start[0], tuple(relations))
    path.validate(g.schema)
    frontier = Frontier.initial(start)
    for rel in relations:
        frontier = expand_frontier(g, frontier, rel, cap, seed)
        assert len(frontier.reached) > 0
    return Episode(start, path, frontier)


def test_shared_target_subtree_merges_once():
    g = academic_graph()
    ep = make_episode(g, ("Paper", 0), ("Written", "Cite", "Write"))
    merged = build_plan(g, [ep])
    naive = naive_plan(g, [ep])
    # naive tree: root + A0 + A1 + A2-under-A0 + A2-under-A1 = 5 steps
    assert naive.step_count == 5
    # merged: A2's paper aggregation executes once
    assert merged.step_count == 4
    leaf_steps = merged.layers[0]
    assert len(leaf_steps) == 1
    (step,) = leaf_steps
    assert step.target_node == ("Author", 2)
    assert [s for s, _ in step.sources] == [("h0", "Paper", 1), ("h0", "Paper", 2)]
    stats = plan_stats(naive, merged)
    assert stats.step_count_naive == 5 and stats.step_count_merged == 4
    nv, mg = count_steps_by_enumeration(g, [(ep.start, ep.path)])
    assert (nv, mg) == (5, 4)


def test_single_episode_single_hop_nothing_to_merge():
    g = academic_graph()
    ep = make_episode(g, ("Paper", 0), ("Written",))  # two parents -> one target
    merged = build_plan(g, [ep])
    naive = naive_plan(g, [ep])
    assert naive.step_count == merged.step_count == 1
    assert plan_stats(naive, merged).reduction_ratio == 0.0


def test_duplicate_episodes_merge_to_one_copy():
    g = academic_graph()
    ep1 = make_episode(g, ("Paper", 0), ("Written", "Cite"))
    ep2 = make_episode(g, ("Paper", 0), ("Written", "Cite"))
    one = build_plan(g, [ep1])
    merged = build_plan(g, [ep1, ep2])
    naive = naive_plan(g, [ep1, ep2])
    assert merged.step_count == one.step_count
    assert naive.step_count == 2 * naive_plan(g, [ep1]).step_count
    nv, mg = count_steps_by_enumeration(g, [(ep1.start, ep1.path), (ep2.start, ep2.path)])
    assert nv == naive.step_count and mg == merged.step_count


def test_three_chain_instances_make_six_naive_steps():
    schema = HinSchema(
        node_types=("A", "B", "C"),
        relation_types=(RelationType("ab", "A", "B"), RelationType("bc", "B", "C")),
        attribute_dims={"A": 2, "B": 2, "C": 2},
    )
    g = build_graph(
        schema,
        {"A": 3, "B": 3, "C": 3},
        {"ab": [(i, i) for i in range(3)], "bc": [(i, i) for i in range(3)]},
        {},
        "A",
        2,
    )
    eps = [make_episode(g, ("A", i), ("ab", "bc")) for i in range(3)]
    naive = naive_plan(g, eps)
    assert naive.step_count == 6
    assert naive.per_layer_counts() == [3, 3]


def test_stop_at_zero_episode_has_no_steps():
    g = academic_graph()
    ep = Episode(("Paper", 0), MetaPath("Paper"), Frontier.initial(("Paper", 0)))
    merged = build_plan(g, [ep])
    naive = naive_plan(g, [ep])
    assert merged.step_count == naive.step_count == 0
    assert merged.outputs == [("h0", "Paper", 0)]


def test_divergent_suffixes_do_not_merge():
    """Two episodes share (layer, target, first relation) but continue with
    different relations; their aggregations must stay separate."""
    schema = HinSchema(
        node_types=("A", "B"),
        relation_types=(
            RelationType("ab", "A", "B"),
            RelationType("ba", "B", "A"),
            RelationType("bb", "B", "B"),
        ),
        attribute_dims={"A": 2, "B": 2},
    )
    g = build_graph(
        schema,
        {"A": 2, "B": 3},
        {"ab": [(0, 0), (1, 0)], "ba": [(0, 0), (0, 1), (1, 1), (2, 0)],
         "bb": [(0, 1), (0, 2), (1, 2), (2, 2)]},
        {},
        "A",
        2,
    )
    ep1 = make_episode(g, ("A", 0), ("ab", "ba"))
    ep2 = make_episode(g, ("A", 1), ("ab", "bb"))
    merged = build_plan(g, [ep1, ep2])
    layer2 = merged.layers[1]
    # both roots aggregate B0 via "ab", but B0's value differs per suffix
    keys = {s.target for s in layer2}
    assert (("A", 0), ("ab", "ba")) in keys
    assert (("A", 1), ("ab", "bb")) in keys
    layer1_targets = [s.target for s in merged.layers[0]]
    assert (("B", 0), ("ba",)) in layer1_targets
    assert (("B", 0), ("bb",)) in layer1_targets


def test_dead_branches_pruned_from_plans():
    """A parent whose children all dead-end joins no complete instance."""
    schema = HinSchema(
        node_types=("A", "B", "C"),
        relation_types=(RelationType("ab", "A", "B"), RelationType("bc", "B", "C")),
        attribute_dims={"A": 2, "B": 2, "C": 2},
    )
    # A0 -> B0, B1 ; only B0 has a C child
    g = build_graph(
        schema,
        {"A": 1, "B": 2, "C": 1},
        {"ab": [(0, 0), (0, 1)], "bc": [(0, 0)]},
        {},
        "A",
        2,
    )
    ep = make_episode(g, ("A", 0), ("ab", "bc"))
    merged = build_plan(g, [ep])
    naive = naive_plan(g, [ep])
    for plan in (merged, naive):
        root = plan.layers[1][0]
        assert len(root.sources) == 1  # B1 pruned
    insts = enumerate_instances(g, ("A", 0), ep.path)
    assert insts == [(0, 0, 0)]
    nv, mg = count_steps_by_enumeration(g, [(ep.start, ep.path)])
    assert nv == naive.step_count and mg == merged.step_count


def test_dead_end_episode_rejected():
    schema = HinSchema(
        node_types=("A", "B"),
        relation_types=(RelationType("ab", "A", "B"),),
        attribute_dims={"A": 2, "B": 2},
    )
    g = build_graph(schema, {"A": 1, "B": 1}, {"ab": []}, {}, "A", 2)
    f = expand_frontier(g, Frontier.initial(("A", 0)), "ab")
    ep = Episode(("A", 0), MetaPath("A", ("ab",)), f)
    with pytest.raises(ValueError):
        build_plan(g, [ep])
    with pytest.raises(ValueError):
        naive_plan(g, [ep])


def test_multiplicity_preserved_on_sources():
    schema = HinSchema(
        node_types=("A", "B"),
        relation_types=(RelationType("ab", "A", "B"),),
        attribute_dims={"A": 2, "B": 2},
    )
    g = build_graph(schema, {"A": 1, "B": 2}, {"ab": [(0, 1), (0, 1), (0, 0)]}, {}, "A", 2)
    ep = make_episode(g, ("A", 0), ("ab",))
    merged = build_plan(g, [ep])
    (step,) = merged.layers[0]
    assert step.sources == [(("h0", "B", 0), 1), (("h0", "B", 1), 2)]


def test_counts_match_enumeration_on_random_graphs():
    for seed in range(25):
        g = random_hin(seed)
        n = min(5, g.num_nodes[g.target_type])
        eps = random_legal_episodes(g, np.arange(n), length=3, seed=seed, fan_out_cap=None)
        eps = [e for e in eps if len(e.frontier.reached) > 0]
        if not eps:
            continue
        naive = naive_plan(g, eps)
        merged = build_plan(g, eps)
        nv, mg = count_steps_by_enumeration(g, [(e.start, e.path) for e in eps])
        assert naive.step_count == nv
        assert merged.step_count == mg
        assert merged.step_count <= naive.step_count
        stats = plan_stats(naive, merged)
        assert 0.0 <= stats.reduction_ratio <= 1.0


def test_plan_layer_structure_invariants():
    for seed in range(10):
        g = random_hin(seed + 100)
        n = min(6, g.num_nodes[g.target_type])
        eps = random_legal_episodes(g, np.arange(n), length=4, seed=seed, fan_out_cap=4)
        eps = [e for e in eps if len(e.frontier.reached) > 0]
        if not eps:
            continue
        merged = build_plan(g, eps)
        seen_targets = set()
        for li, layer in enumerate(merged.layers, start=1):
            for step in layer:
                assert step.layer == li
                assert step.target not in seen_targets
                seen_targets.add(step.target)
                for src, mult in step.sources:
                    assert mult >= 1
                    if li == 1:
                        assert src[0] == "h0"
                    else:
                        assert src in {s.target for s in merged.layers[li - 2]}


def test_plan_stats_mismatched_episodes_error():
    g = academic_graph()
    ep1 = make_episode(g, ("Paper", 0), ("Written",))
    ep2 = make_episode(g, ("Paper", 1), ("Written",)) if len(
        enumerate_instances(g, ("Paper", 1), MetaPath("Paper", ("Written",)))) else None
    naive = naive_plan(g, [ep1])
    other = build_plan(g, [ep1, ep1])
    with pytest.raises(ValueError):
        plan_stats(naive, other)


def test_stats_arithmetic():
    from rlhgnn.aggplan import AggregationStats

    s = AggregationStats(step_count_naive=6, step_count_merged=3, reduction_ratio=0.5)
    assert s.reduction_ratio == 0.5
    g = academic_graph()
    ep = make_episode(g, ("Paper", 0), ("Written",))
    st = plan_stats(naive_plan(g, [ep]), build_plan(g, [ep]))
    assert st.reduction_ratio == 0.0


# ---------------------------------------------------------------------------
# Episode boundary checks and rejected traces


def test_episode_rejects_a_trace_of_another_path_or_start():
    g = academic_graph()
    write = MetaPath("Author", ("Write",))
    cite = expand_frontier(g, Frontier.initial(("Author", 0)), "Cite")
    with pytest.raises(ValueError, match=r"\('Cite',\).*\('Write',\)"):
        Episode(("Author", 0), write, cite)
    elsewhere = expand_frontier(g, Frontier.initial(("Author", 2)), "Write")
    with pytest.raises(ValueError, match=r"\('Author', 0\).*\('Author', 2\)"):
        Episode(("Author", 0), write, elsewhere)
    with pytest.raises(ValueError, match="'Paper'"):
        Episode(("Author", 2), MetaPath("Paper", ("Write",)), elsewhere)
    Episode(("Author", 2), write, elsewhere)


def _chain_graph():
    """A0 and A1 both reach B0; B0 has children C0 and C1, B1 has C1."""
    schema = HinSchema(
        node_types=("A", "B", "C"),
        relation_types=(RelationType("ab", "A", "B"), RelationType("bc", "B", "C")),
        attribute_dims={"A": 2, "B": 2, "C": 2},
    )
    return build_graph(schema, {"A": 2, "B": 2, "C": 2},
                       {"ab": [(0, 0), (1, 0)], "bc": [(0, 0), (0, 1), (1, 1)]},
                       {}, "A", 2)


def _with_last_step(ep: Episode, parents, children) -> Episode:
    edges = ep.frontier.step_edges[:-1] + [(np.array(parents), np.array(children))]
    return Episode(ep.start, ep.path, replace(ep.frontier, step_edges=edges))


@pytest.mark.parametrize("children", [[0], [0, 1, 1]], ids=["child-set", "multiplicity"])
def test_inconsistent_traces_of_a_shared_step_rejected(children):
    """Both episodes reach the step (B0, ("bc",)); the second saw other
    (child, multiplicity) sources for it than the first."""
    g = _chain_graph()
    ep1 = make_episode(g, ("A", 0), ("ab", "bc"))
    ep2 = _with_last_step(make_episode(g, ("A", 1), ("ab", "bc")), [0] * len(children), children)
    for eps in ([ep1], [ep2], [ep1, ep1]):
        build_plan(g, eps)
    for plan in (build_plan, reference_build_plan):
        with pytest.raises(ValueError, match=r"inconsistent traces.*\('B', 0\), \('bc',\)"):
            plan(g, [ep1, ep2])


def test_trace_that_is_not_one_expansion_chain_rejected():
    g = _chain_graph()
    ep = make_episode(g, ("A", 0), ("ab", "bc"))
    unreached = _with_last_step(ep, [0, 1], [0, 1])  # B1 was never reached
    with pytest.raises(ValueError, match="local node 1, which the step before did not reach"):
        build_plan(g, [unreached])
    first = Episode(ep.start, ep.path, replace(
        ep.frontier, step_edges=[(np.array([1]), np.array([0]))] + ep.frontier.step_edges[1:]))
    with pytest.raises(ValueError, match="first step leaves from another node than the start"):
        build_plan(g, [first])


# ---------------------------------------------------------------------------
# Property tests: random small schemas, graphs and legal episodes


def _assert_same_plan(a, b):
    assert len(a.index) == len(b.index)
    for x, y in zip(a.index, b.index):
        for name in ("src_rows", "tgt_rows", "starts", "lengths"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and not u.flags.writeable
            np.testing.assert_array_equal(u, v)
    assert [t for t, _ in a.h0_groups] == [t for t, _ in b.h0_groups]
    for (_, u), (_, v) in zip(a.h0_groups, b.h0_groups):
        assert u.dtype == v.dtype
        np.testing.assert_array_equal(u, v)
    assert a.output_rows.dtype == b.output_rows.dtype
    np.testing.assert_array_equal(a.output_rows, b.output_rows)
    assert a.layers == b.layers
    assert a.outputs == b.outputs
    assert a.h0_nodes == b.h0_nodes
    assert a.episodes_sig == b.episodes_sig


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes())
def test_merged_plan_matches_reference_naive_and_enumeration(case):
    g, episodes, cap = case
    merged = build_plan(g, episodes)
    _assert_same_plan(merged, reference_build_plan(g, episodes))
    naive = naive_plan(g, episodes)
    if cap is None:  # the enumeration walks every edge, so only an uncapped trace matches it
        recount = count_steps_by_enumeration(g, [(e.start, e.path) for e in episodes])
        assert recount == (naive.step_count, merged.step_count)
    params = init_params(g.schema, g.num_classes, 3, d=4, heads=2, seed=1)
    np.testing.assert_allclose(hgnn_forward(params, g, merged).outputs.value,
                               hgnn_forward(params, g, naive).outputs.value, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Restriction to the loss's episodes


def _index_arrays(index):
    return [[a.tolist() for a in (ix.src_rows, ix.tgt_rows, ix.starts, ix.lengths)]
            for ix in index]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graphs_and_episodes(), st.data())
def test_a_restriction_keeps_the_steps_its_episodes_alone_would_build(case, data):
    """Restricted to some episodes, a plan keeps, layer by layer and in its
    own order, the steps that a plan of those episodes alone has, each with
    all its traversals; restricted to all of them it is the plan itself."""
    g, episodes, _ = case
    plan = build_plan(g, episodes)
    whole = restrict(plan)
    every = restrict(plan, np.arange(len(episodes)))
    assert _index_arrays(every.index) == _index_arrays(whole.index) == _index_arrays(plan.index)
    assert [t.tolist() for t in every.traversals] == [t.tolist() for t in whole.traversals]
    assert every.output_rows.tolist() == whole.output_rows.tolist() == plan.output_rows.tolist()

    rows = sorted(data.draw(st.sets(st.integers(0, len(episodes) - 1), min_size=1)))
    part = restrict(plan, np.array(rows[::-1] + rows))  # any order, repeats allowed
    alone = build_plan(g, [episodes[r] for r in rows])
    assert part.episodes.tolist() == rows
    assert len(part.index) == len(alone.index) == len(part.traversals)
    for layer, (ix, kept) in enumerate(zip(part.index, part.traversals), start=1):
        whole_ix = plan.index[layer - 1]
        steps = np.searchsorted(whole_ix.starts, kept, side="right") - 1
        assert np.unique(steps).tolist() == sorted(set(steps.tolist()))
        assert ([plan.layers[layer - 1][s].target for s in np.unique(steps)]
                == [s.target for s in alone.layers[layer - 1]])
        assert ix.lengths.tolist() == whole_ix.lengths[np.unique(steps)].tolist()
        assert ix.tgt_rows.tolist() == whole_ix.tgt_rows[kept].tolist()
        if layer > 1:  # a kept source is the kept step below that the plan reads
            below = np.unique(np.searchsorted(plan.index[layer - 2].starts,
                                              part.traversals[layer - 2], side="right") - 1)
            assert below[ix.src_rows].tolist() == whole_ix.src_rows[kept].tolist()
    stack = np.concatenate([np.zeros(sum(len(i) for _, i in plan.h0_groups), dtype=np.intp)]
                           + [np.full(len(ix.lengths), layer) for layer, ix
                              in enumerate(plan.index, start=1)])
    kept_stack = np.concatenate([np.zeros(sum(len(i) for _, i in plan.h0_groups), dtype=np.intp)]
                                + [np.full(len(ix.lengths), layer) for layer, ix
                                   in enumerate(part.index, start=1)])
    # each kept episode's output lies on its own layer of the restricted stack
    assert (kept_stack[part.output_rows] == stack[plan.output_rows[rows]]).all()


def test_restrict_rejects_episode_rows_outside_the_plan():
    g = random_hin(3)
    plan = build_plan(g, random_legal_episodes(g, np.arange(3), length=2, seed=1))
    for rows in ([3], [-1], [0, 5]):
        with pytest.raises(ValueError, match=r"restricted episodes must lie in \[0, 3\)"):
            restrict(plan, np.array(rows))
