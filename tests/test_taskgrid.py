import pytest

from latticepath.lattice import LatticeCoord
from latticepath.taskgrid import (
    LENGTH_HINT_NORM,
    TASK_FEATURE_WIDTH,
    TASK_KINDS,
    TaskContext,
    TaskGraph,
    TaskNode,
    build_context,
    chain_graph,
    node_depths,
    reach_only_graph,
    topological_order,
)


def diamond_graph():
    # 0 -> {1, 2} -> 3
    nodes = (
        TaskNode(0, "reach"),
        TaskNode(1, "grasp"),
        TaskNode(2, "lift"),
        TaskNode(3, "place"),
    )
    edges = ((0, 1), (0, 2), (1, 3), (2, 3))
    return TaskGraph(nodes, edges)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TaskNode(0, "teleport")


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        TaskGraph((TaskNode(0, "reach"), TaskNode(0, "grasp")), ())


def test_dangling_edge_endpoint_raises():
    g = TaskGraph((TaskNode(0, "reach"),), ((0, 7),))
    with pytest.raises(ValueError, match="missing task node id 7"):
        topological_order(g)


def test_diamond_topological_order_breaks_ties_by_id():
    assert topological_order(diamond_graph()) == [0, 1, 2, 3]


def test_cycle_detected():
    g = TaskGraph(
        (TaskNode(0, "reach"), TaskNode(1, "grasp")),
        ((0, 1), (1, 0)),
    )
    with pytest.raises(ValueError, match="directed cycle"):
        topological_order(g)


def test_diamond_depths_are_longest_paths():
    assert node_depths(diamond_graph()) == {0: 0, 1: 1, 2: 1, 3: 2}


def test_chain_and_presets():
    g = chain_graph(("reach", "grasp", "lift", "place"))
    assert [n.kind for n in g.nodes] == ["reach", "grasp", "lift", "place"]
    assert topological_order(g) == [0, 1, 2, 3]
    assert node_depths(reach_only_graph()) == {0: 0}
    empty_chain = chain_graph(())
    assert topological_order(empty_chain) == []


def test_build_context_feature_layout():
    g = diamond_graph()
    ctx = build_context(g, 3, done={1}, sequence_length_hint=8, target=LatticeCoord(1, 2, 0))
    feat = ctx.task_feature_vector
    assert len(feat) == TASK_FEATURE_WIDTH
    # one-hot for "place"
    assert feat[: len(TASK_KINDS)] == tuple(1.0 if k == "place" else 0.0 for k in TASK_KINDS)
    assert feat[len(TASK_KINDS)] == 1.0  # depth 2 of max depth 2
    assert feat[len(TASK_KINDS) + 1] == 1.0  # edge 2->3 unsatisfied, 1->3 done
    assert feat[len(TASK_KINDS) + 2] == 8 / LENGTH_HINT_NORM
    assert ctx.active_task_kind == "place"
    assert ctx.target == LatticeCoord(1, 2, 0)


def test_build_context_root_depth_zero():
    ctx = build_context(diamond_graph(), 0)
    assert ctx.task_feature_vector[len(TASK_KINDS)] == 0.0
    assert ctx.target is None


def test_build_context_is_deterministic():
    g = diamond_graph()
    a = build_context(g, 2, sequence_length_hint=5)
    b = build_context(g, 2, sequence_length_hint=5)
    assert a == b


def test_context_round_trips_through_dict():
    ctx = build_context(diamond_graph(), 1, sequence_length_hint=3, target=LatticeCoord(0, -1, 2))
    assert TaskContext.from_dict(ctx.to_dict()) == ctx
    no_target = build_context(diamond_graph(), 0)
    assert TaskContext.from_dict(no_target.to_dict()) == no_target


def test_a_target_past_2_pow_53_is_refused_and_one_at_it_is_read():
    ctx = build_context(diamond_graph(), 1, sequence_length_hint=3, target=LatticeCoord(2 ** 53, -2 ** 53, 0))
    assert TaskContext.from_dict(ctx.to_dict()) == ctx
    for target in ([2 ** 53 + 1, 0, 0], [0, -2 ** 53 - 1, 0], [0, 0, 1e300]):
        with pytest.raises(ValueError, match=r"^context.target must lie within -2\^53\.\.2\^53, got \["):
            TaskContext.from_dict({**ctx.to_dict(), "target": target})


def test_negative_length_hint_rejected():
    with pytest.raises(ValueError):
        TaskContext(task_feature_vector=(0.0,), active_task_kind="reach", sequence_length_hint=-1)


def test_graph_round_trips_through_dict():
    g = diamond_graph()
    assert TaskGraph.from_dict(g.to_dict()) == g
