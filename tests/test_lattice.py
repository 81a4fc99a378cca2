import pytest

from latticepath.lattice import (
    MOVES,
    STOP,
    LatticeCoord,
    Workspace,
    cell_center_mm,
    default_workspace,
    desk_workspace,
    in_bounds,
    legal_moves,
    manhattan,
    move_index,
    neighbors,
    read_cell,
    read_cells,
    read_step,
    voxelize,
)

C = LatticeCoord


def test_canonical_move_order():
    assert MOVES == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    assert STOP == 6


def test_move_index_round_trip():
    p = C(2, -1, 3)
    for idx in range(6):
        q = p.offset(*MOVES[idx])
        assert manhattan(p, q) == 1
        assert move_index(p, q) == idx


def test_move_index_rejects_non_unit_steps():
    with pytest.raises(ValueError):
        move_index(C(0, 0, 0), C(1, 1, 0))
    with pytest.raises(ValueError):
        move_index(C(0, 0, 0), C(0, 0, 0))


def test_coords_must_be_integers():
    with pytest.raises(TypeError):
        C(0.5, 0, 0)


def test_manhattan_across_default_workspace():
    # corner to corner of the full envelope: 44 + 44 + 34
    assert manhattan(C(-22, -22, 0), C(22, 22, 34)) == 122


def test_default_and_desk_workspace_shapes():
    w = default_workspace()
    assert w.bounds == (-22, 22, -22, 22, 0, 34)
    assert w.shape == (45, 45, 35)
    assert w.resolution_mm == 20.0
    d = desk_workspace()
    assert d.shape == (7, 7, 5)
    assert d.volume() == 245


def test_workspace_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Workspace(1, 0, 0, 1, 0, 1)


@pytest.mark.parametrize("bounds", [(0, 2 ** 53 + 1, 0, 1, 0, 1), (0, 1, -2 ** 53 - 1, 0, 0, 1),
                                    (0, 1, 0, 1, 0, 2 ** 70)], ids=["x_max", "y_min", "z_max"])
def test_workspace_rejects_a_bound_past_2_pow_53(bounds):
    with pytest.raises(ValueError, match=r"^workspace bounds must lie within -2\^53\.\.2\^53, got \["):
        Workspace(*bounds)
    keys = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")
    with pytest.raises(ValueError, match="workspace bounds must lie within"):
        Workspace.from_dict(dict(zip(keys, bounds)))


def test_workspace_bounds_of_plus_or_minus_2_pow_53_are_kept():
    w = Workspace(2 ** 53 - 1, 2 ** 53, -2 ** 53, -2 ** 53, 0, 1)
    assert w.bounds == (2 ** 53 - 1, 2 ** 53, -2 ** 53, -2 ** 53, 0, 1) and w.volume() == 4
    assert Workspace.from_dict(w.to_dict()) == w


def test_workspace_rejects_outside_obstacle():
    with pytest.raises(ValueError):
        Workspace(0, 2, 0, 2, 0, 2, obstacles=frozenset({C(5, 0, 0)}))


def test_in_bounds_box_and_obstacles():
    w = Workspace(0, 2, 0, 2, 0, 2, obstacles=frozenset({C(1, 1, 1)}))
    assert in_bounds(C(0, 0, 0), w)
    assert not in_bounds(C(1, 1, 1), w)
    assert not in_bounds(C(3, 0, 0), w)
    assert not in_bounds(C(0, 0, -1), w)


def test_neighbors_interior_and_corner():
    w = default_workspace()
    assert len(neighbors(C(0, 0, 5), w)) == 6
    assert len(neighbors(C(-22, -22, 0), w)) == 3


def test_neighbors_canonical_order():
    w = default_workspace()
    assert neighbors(C(0, 0, 5), w) == [
        C(1, 0, 5), C(-1, 0, 5), C(0, 1, 5), C(0, -1, 5), C(0, 0, 6), C(0, 0, 4),
    ]


def test_neighbors_from_illegal_cell_raises():
    w = default_workspace()
    with pytest.raises(ValueError):
        neighbors(C(99, 0, 0), w)


def test_legal_moves_mask_matches_neighbors():
    w = Workspace(0, 2, 0, 2, 0, 2, obstacles=frozenset({C(1, 0, 0)}))
    p = C(0, 0, 0)
    mask = legal_moves(p, w)
    assert mask == [False, False, True, False, True, False]
    reachable = [p.offset(*MOVES[i]) for i in range(6) if mask[i]]
    assert reachable == neighbors(p, w)


def test_voxelize_floor_semantics():
    w = default_workspace()
    assert voxelize((440.0, 0.0, 0.0), w) == C(22, 0, 0)
    assert voxelize((0.0, 0.0, 683.5), w) == C(0, 0, 34)
    assert voxelize((-0.1, 0.0, 0.0), w) == C(-1, 0, 0)
    assert voxelize((39.999, 39.999, 19.999), w) == C(1, 1, 0)


def test_voxelize_rejects_non_finite():
    w = default_workspace()
    with pytest.raises(ValueError):
        voxelize((float("nan"), 0.0, 0.0), w)


def test_cell_center_round_trips_through_voxelize():
    w = default_workspace()
    for c in (C(0, 0, 0), C(-22, 22, 34), C(5, -7, 12)):
        assert voxelize(cell_center_mm(c, w), w) == c


def test_with_obstacles_replaces_set():
    w = Workspace(0, 3, 0, 3, 0, 3, obstacles=frozenset({C(1, 1, 1)}))
    w2 = w.with_obstacles({C(2, 2, 2)})
    assert w2.obstacles == frozenset({C(2, 2, 2)})
    assert w.obstacles == frozenset({C(1, 1, 1)})  # original untouched


def test_workspace_dict_round_trip():
    w = Workspace(-1, 4, 0, 2, 0, 3, obstacles=frozenset({C(0, 0, 0), C(2, 1, 1)}))
    assert Workspace.from_dict(w.to_dict()) == w


def test_read_cell_takes_three_integers_an_integral_float_counting():
    assert read_cell([1, -2, 3], "c") == C(1, -2, 3)
    assert read_cell((1.0, -2.0, 3), "c") == C(1, -2, 3)
    for bad in ([-0.6, -1, 4], [True, 0, 0], ["1", 0, 0], [0, 0], [0, 0, 0, 0], "abc", None, 5):
        with pytest.raises(ValueError, match=r"^points\[1\] must be three integers, got "):
            read_cell(bad, "points[1]")


def test_read_cells_fast_path_and_per_cell_path_read_the_same_cells():
    ints = [[1, -2, 3], (0, 0, 0)]
    assert read_cells(ints, "points") is ints  # all integers: returned unchanged
    assert read_cells([], "points") == []
    for mixed in ([[1.0, -2, 3], (0, 0, 0)], [(1, -2.0, 3), [0.0, 0, 0.0]]):  # read cell by cell
        assert read_cells(mixed, "points") == [tuple(c) for c in ints]


def test_read_cells_names_the_first_bad_entry():
    for bad, i in (([[0, 0, 0], [True, 0, 0], [0.5, 0, 0]], 1), ([[0, 0]], 0), ([[0, 0, 0], "abc"], 1),
                   ([[1.0, 0, 0], [0, 0, 0, 0]], 1)):
        with pytest.raises(ValueError, match=rf"^obstacles\[{i}\] must be three integers, got "):
            read_cells(bad, "obstacles")
    for bad in (5, "abc", None, {"x": 0}):
        with pytest.raises(ValueError, match=r"^obstacles must be a list of \[x, y, z\] cells, got "):
            read_cells(bad, "obstacles")


def test_read_step_takes_non_negative_integers():
    assert read_step(0, "step") == 0 and read_step(3.0, "step") == 3
    for bad in (-1, -0.6, 0.5, True, "1", None, [1]):
        with pytest.raises(ValueError, match=r"^step must be a non-negative integer, got "):
            read_step(bad, "step")
