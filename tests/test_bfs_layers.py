"""The oracle's two search stages, each against the search it must reproduce.

The fallback stage, the layer-at-a-time BFS, must return the path and the
count of expanded cells of the cell-by-cell queue (reference_lattice.bfs_queue)
on every table and stride set, the small boxes' grids included. The box
stage, the depth-first _monotone_path, must return the path of the queue over
the start-goal box with the moves toward the goal (reference_lattice.box_stage)
and fail where it fails. oracle_path must return the path the cell-by-cell
reference oracle finds, and fall back to the whole grid exactly when no
shortest path is monotone.
"""

import random

import numpy as np
import pytest
import reference_lattice as ref

from latticepath.corpus import GenerationCounters, UnreachableGoalError, _bfs_layers, _monotone_path, oracle_path
from latticepath.lattice import MOVES, LatticeCoord, Workspace, default_workspace, desk_workspace, manhattan

C = LatticeCoord

BOXES = {
    "side5": Workspace(0, 4, 0, 4, 0, 4),
    "desk": desk_workspace(),
    "offset": Workspace(-7, 2, -3, 6, -9, 0),
    "flat": Workspace(-10, 10, -10, 10, 0, 10),
    "envelope": default_workspace(),
}
DENSITIES = (0.0, 0.05, 0.2, 0.3)


def obstacle_box(w, density, seed):
    vol = w.volume()
    return w.with_ranks(random.Random(seed).sample(range(vol), int(round(density * vol))))


def free_index(w, rng):
    free = np.flatnonzero(w.grid.free_mask)
    return int(free[rng.randrange(len(free))])


def reachable(table, strides, s):
    """Number of cells a search over table with these strides can reach from flat index s, itself included."""
    seen, stack = {s}, [s]
    while stack:
        p = stack.pop()
        for d in strides:
            if table[p + d] and p + d not in seen:
                seen.add(p + d)
                stack.append(p + d)
    return len(seen)


def same_search(table, strides, s, g):
    """The layered search's result, after checking that it is the queue's."""
    layered = _bfs_layers(table, strides, s, g)
    assert layered == ref.bfs_queue(table, strides, s, g), (s, g)
    return layered


def full_search(grid, s, g):
    """The whole-grid BFS with all six moves: the fallback stage, and the path both stages must give."""
    return same_search(grid.free_mask, grid.strides, s, g)


def box_volume(start, goal):
    return int(np.prod([abs(a - b) + 1 for a, b in zip(start.as_tuple(), goal.as_tuple())]))


def box_search(grid, start, goal):
    """The box stage's path and count, after checking them against the reference box stage.

    Both find the same path or none. The depth-first search expands no more
    cells than the box holds or than the queue takes off; when there is no
    path, both expand every cell the moves toward the goal reach.
    """
    path, expanded = _monotone_path(grid, start, goal)
    ref_path, ref_expanded = ref.box_stage(grid, start, goal)
    assert path == ref_path, (start, goal)
    assert 1 <= expanded <= min(box_volume(start, goal), ref_expanded)
    if path is None:
        assert expanded == ref_expanded
    return path, expanded


def searched(start, goal, w):
    """oracle_path's points (None if the goal is unreachable) and its counters."""
    counters = GenerationCounters()
    try:
        points = oracle_path(start, goal, w, counters).points
    except UnreachableGoalError:
        points = None
    assert counters.bfs_runs == 1
    return points, counters


def check_stages(start, goal, w, reference=True):
    """oracle_path against the whole-grid BFS and the reference, stage by stage.

    Returns oracle_path's points and the cells the whole-grid BFS expanded.

    The box stage answers exactly when the shortest path is monotone (its
    length is the Manhattan distance); otherwise the whole grid is searched
    too, and both stages' cells are counted.
    """
    grid = w.grid
    s, g = grid.index(start), grid.index(goal)
    path, expanded = full_search(grid, s, g)
    expected = None if path is None else tuple(grid.coord(i) for i in path)
    assert expected is None or (expected[0], expected[-1]) == (start, goal)
    if reference:
        try:
            assert ref.oracle_path(start, goal, w).points == expected
        except UnreachableGoalError:
            assert expected is None
    box_path, box_expanded = box_search(grid, start, goal)
    points, counters = searched(start, goal, w)
    assert points == expected, (start, goal)
    monotone = expected is not None and len(expected) == manhattan(start, goal) + 1
    assert counters.bfs_fallbacks == (not monotone)
    assert (box_path is not None) == monotone
    if monotone:
        assert box_path == path and counters.bfs_cells_expanded == box_expanded
    else:
        assert counters.bfs_cells_expanded == box_expanded + expanded
    return points, expanded


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("name", BOXES)
def test_layers_match_the_queue_and_the_reference(name, density):
    w = obstacle_box(BOXES[name], density, seed=len(name))
    grid, rng = w.grid, random.Random(11)
    unreachable = 0
    for _ in range(12):
        s, g = free_index(w, rng), free_index(w, rng)
        if s == g:
            continue
        # the cell-by-cell reference takes seconds per envelope search
        points, expanded = check_stages(grid.coord(s), grid.coord(g), w, reference=name != "envelope")
        if points is None:
            unreachable += 1
            assert expanded == reachable(grid.free, grid.strides, s)
        else:
            assert 1 <= expanded <= reachable(grid.free, grid.strides, s)
    if density < 0.2:
        assert unreachable == 0


def test_layers_match_the_reference_on_short_envelope_searches():
    w = obstacle_box(default_workspace(), 0.05, seed=3)
    rng = random.Random(4)
    for _ in range(6):
        start = w.grid.coord(free_index(w, rng))
        goal = start.offset(rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-4, 5))
        if goal == start or not ref.in_bounds(goal, w):
            continue
        check_stages(start, goal, w)


@pytest.mark.parametrize("density", [0.0, 0.2])
@pytest.mark.parametrize("name", BOXES)
def test_an_unreachable_goal_expands_every_reachable_cell(name, density):
    w = BOXES[name]
    goal = C(w.x_min + 2, w.y_min + 2, w.z_min + 2)
    seal = {goal.offset(*m) for m in MOVES}
    w = obstacle_box(w, density, seed=7)
    w = w.with_obstacles((set(w.obstacles) | seal) - {goal})
    grid = w.grid
    for start in (C(w.x_min, w.y_min, w.z_min), C(w.x_max, w.y_max, w.z_max)):
        if not ref.in_bounds(start, w):
            continue
        s = grid.index(start)
        path, expanded = full_search(grid, s, grid.index(goal))
        assert path is None and expanded == reachable(grid.free, grid.strides, s)
        box_path, box_expanded = box_search(grid, start, goal)
        table, strides = ref.box_table(grid, start, goal), ref.toward_strides(grid, start, goal)
        assert box_path is None and box_expanded == reachable(table, strides, s)
        points, counters = searched(start, goal, w)
        assert points is None and counters.bfs_fallbacks == 1
        assert counters.bfs_cells_expanded == box_expanded + expanded
        if density == 0.0:
            assert expanded == w.volume() - len(seal) - 1  # all but the seal and the goal
        assert full_search(grid, grid.index(goal), s) == (None, 1)  # from the sealed cell outward
        assert box_search(grid, goal, start) == (None, 1)
        assert searched(goal, start, w)[1].bfs_cells_expanded == 2  # the sealed cell, once per stage


@pytest.mark.parametrize("name", BOXES)
def test_a_goal_next_to_the_start_is_found_expanding_the_start(name):
    w = BOXES[name]
    start = C((w.x_min + w.x_max) // 2, (w.y_min + w.y_max) // 2, (w.z_min + w.z_max) // 2)
    grid = w.grid
    s = grid.index(start)
    for m in MOVES:
        goal = start.offset(*m)
        g = grid.index(goal)
        assert full_search(grid, s, g) == ([s, g], 1)
        assert box_search(grid, start, goal) == ([s, g], 1)
        assert ref.toward_strides(grid, start, goal) == (g - s,)
        points, counters = searched(start, goal, w)
        assert points == (start, goal)
        assert (counters.bfs_cells_expanded, counters.bfs_fallbacks) == (1, 0)


@pytest.mark.parametrize("name", BOXES)
def test_goals_on_the_box_faces(name):
    w = obstacle_box(BOXES[name], 0.05, seed=9)
    grid = w.grid
    x0, x1, y0, y1, z0, z1 = w.bounds
    mx, my, mz = (x0 + x1) // 2, (y0 + y1) // 2, (z0 + z1) // 2
    start = grid.coord(free_index(w, random.Random(2)))
    faces = [C(x0, my, mz), C(x1, my, mz), C(mx, y0, mz), C(mx, y1, mz), C(mx, my, z0), C(mx, my, z1),
             C(x0, y0, z0), C(x1, y1, z1), C(x1, y0, z1)]
    for goal in faces:
        if goal == start or not ref.in_bounds(goal, w):
            continue
        points, _ = check_stages(start, goal, w, reference=name != "envelope")
        assert points is not None and points[-1] == goal


@pytest.mark.parametrize("name", [n for n in BOXES if n != "envelope"])
def test_goals_sharing_coordinates_with_the_start_search_with_fewer_moves(name):
    w = obstacle_box(BOXES[name], 0.1, seed=5)
    grid, rng = w.grid, random.Random(6)
    seen = set()
    for _ in range(40):
        start = grid.coord(free_index(w, rng))
        goal = grid.coord(free_index(w, rng))
        shared = rng.sample(range(3), rng.choice((1, 2)))  # copy one or two of the start's coordinates
        goal = C(*(a if axis in shared else b for axis, (a, b) in enumerate(zip(start.as_tuple(), goal.as_tuple()))))
        if goal == start or not ref.in_bounds(goal, w):
            continue
        strides = ref.toward_strides(grid, start, goal)
        differ = [axis for axis in range(3) if start.as_tuple()[axis] != goal.as_tuple()[axis]]
        assert len(strides) == len(differ) and list(strides) == [d for d in grid.strides if d in strides]
        seen.add(len(strides))
        check_stages(start, goal, w)
    assert seen == {1, 2}


def wall(w, x, gap):
    """w with every cell of the plane at this x blocked except the gap cell."""
    cells = [C(x, y, z) for y in range(w.y_min, w.y_max + 1) for z in range(w.z_min, w.z_max + 1)]
    return w.with_obstacles([c for c in cells if c != gap])


@pytest.mark.parametrize("name", BOXES)
def test_a_wall_across_the_box_forces_the_fallback_unless_its_gap_lies_in_the_box(name):
    w = BOXES[name]
    x0, _, y0, y1, z0, _ = w.bounds
    start, goal = C(x0, y0 + 1, z0), C(x0 + 3, y0 + 2, z0 + 1)
    inside, outside = C(x0 + 1, y0 + 2, z0), C(x0 + 1, y1, z0)
    for gap, fallbacks in ((inside, 0), (outside, 1)):
        blocked = wall(w, x0 + 1, gap)
        points, _ = check_stages(start, goal, blocked, reference=name != "envelope")
        assert gap in points
        assert searched(start, goal, blocked)[1].bfs_fallbacks == fallbacks
    blocked = wall(w, x0 + 1, gap=None)  # no gap at all: sealed, both stages fail
    assert check_stages(start, goal, blocked, reference=name != "envelope")[0] is None


@pytest.mark.parametrize("name", BOXES)
def test_an_obstacle_free_straight_line_expands_one_cell_per_step(name):
    w = BOXES[name]
    lo, hi = (w.x_min, w.y_min, w.z_min), (w.x_max, w.y_max, w.z_max)
    for axis in range(3):
        a, b = list(lo), list(lo)
        b[axis] = hi[axis]
        for start, goal in ((C(*a), C(*b)), (C(*b), C(*a))):
            points, counters = searched(start, goal, w)
            d = manhattan(start, goal)
            assert len(points) == d + 1
            assert (counters.bfs_cells_expanded, counters.bfs_fallbacks) == (d, 0)


def test_a_long_envelope_leg_is_found_in_its_box():
    w = obstacle_box(default_workspace(), 0.05, seed=12)
    start, goal = C(-20, -20, 1), C(20, 19, 33)
    for c in (start, goal):
        w = w.with_obstacles(set(w.obstacles) - {c})
    points, _ = check_stages(start, goal, w, reference=False)
    assert len(points) == manhattan(start, goal) + 1
    assert searched(start, goal, w)[1].bfs_cells_expanded < box_volume(start, goal) // 100  # of a 54,120-cell box


def pocket(w):
    """w with the cells at x0+2, y0+1 and x0+3, y0+1 (z0) blocked, and a start and goal around them.

    The moves from start to goal are +x and +y. The x-first route runs into
    the pocket: x0+3, y0 has no way on, and then x0+2, y0 neither, so the
    search backs out of both and takes +y one cell earlier.
    """
    x0, y0, z0 = w.x_min, w.y_min, w.z_min
    return w.with_obstacles([C(x0 + 2, y0 + 1, z0), C(x0 + 3, y0 + 1, z0)]), C(x0, y0, z0), C(x0 + 3, y0 + 2, z0)


@pytest.mark.parametrize("name", BOXES)
def test_the_box_stage_backs_out_of_a_dead_end_and_counts_its_cells(name):
    w, start, goal = pocket(BOXES[name])
    points, counters = searched(start, goal, w)
    x0, y0, z0 = start.as_tuple()
    route = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (3, 2)]
    assert points == tuple(C(x0 + dx, y0 + dy, z0) for dx, dy in route)
    dead = 2  # x0+3, y0 and x0+2, y0
    assert (counters.bfs_cells_expanded, counters.bfs_fallbacks) == (len(points) - 1 + dead, 0)
    check_stages(start, goal, w, reference=name != "envelope")
