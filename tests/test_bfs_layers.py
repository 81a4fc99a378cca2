"""The layer-at-a-time BFS against the queue it stands in for on large grids.

Both expansions must return the same flat-index path and the same count of
expanded cells on every input, and the path must be the one the cell-by-cell
reference oracle finds.
"""

import random

import numpy as np
import pytest
import reference_lattice as ref

from latticepath import corpus
from latticepath.corpus import (
    LAYERED_BFS_MIN_CELLS,
    GenerationCounters,
    UnreachableGoalError,
    _bfs_layers,
    _bfs_queue,
    oracle_path,
)
from latticepath.lattice import MOVES, LatticeCoord, Workspace, default_workspace, desk_workspace

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


def reachable(grid, s):
    """Number of cells the BFS from flat index s can reach, itself included."""
    seen, stack = {s}, [s]
    while stack:
        p = stack.pop()
        for d in grid.strides:
            if grid.free[p + d] and p + d not in seen:
                seen.add(p + d)
                stack.append(p + d)
    return len(seen)


def same_search(grid, s, g):
    """The layered search's result, after checking that it is the queue's."""
    layered = _bfs_layers(grid, s, g)
    assert layered == _bfs_queue(grid, s, g), (grid.coord(s), grid.coord(g))
    return layered


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
        path, expanded = same_search(grid, s, g)
        if path is None:
            unreachable += 1
            assert expanded == reachable(grid, s)
            continue
        assert path[0] == s and path[-1] == g and 1 <= expanded <= reachable(grid, s)
        if name != "envelope":  # the cell-by-cell reference takes seconds per envelope search
            expected = ref.oracle_path(grid.coord(s), grid.coord(g), w).points
            assert tuple(grid.coord(i) for i in path) == expected
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
        same_search(w.grid, w.grid.index(start), w.grid.index(goal))
        assert oracle_path(start, goal, w).points == ref.oracle_path(start, goal, w).points


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
        path, expanded = same_search(grid, s, grid.index(goal))
        assert path is None and expanded == reachable(grid, s)
        counters = GenerationCounters()
        with pytest.raises(UnreachableGoalError):
            oracle_path(start, goal, w, counters)
        assert (counters.bfs_runs, counters.bfs_cells_expanded) == (1, expanded)
        if density == 0.0:
            assert expanded == w.volume() - len(seal) - 1  # all but the seal and the goal
        path, expanded = same_search(grid, grid.index(goal), s)  # from the sealed cell outward
        assert (path, expanded) == (None, 1)


@pytest.mark.parametrize("name", BOXES)
def test_a_goal_next_to_the_start_is_found_expanding_the_start(name):
    w = BOXES[name]
    start = C((w.x_min + w.x_max) // 2, (w.y_min + w.y_max) // 2, (w.z_min + w.z_max) // 2)
    grid = w.grid
    s = grid.index(start)
    for m in MOVES:
        g = grid.index(start.offset(*m))
        assert same_search(grid, s, g) == ([s, g], 1)


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
        path, _ = same_search(grid, grid.index(start), grid.index(goal))
        assert path is not None and path[-1] == grid.index(goal)


def test_the_grid_size_selects_the_expansion(monkeypatch):
    calls = []
    for name in ("_bfs_queue", "_bfs_layers"):
        search = getattr(corpus, name)
        monkeypatch.setattr(corpus, name, lambda grid, s, g, name=name, search=search: (
            calls.append(name), search(grid, s, g))[1])
    desk, envelope = desk_workspace(), default_workspace()
    assert len(desk.grid.free) < LAYERED_BFS_MIN_CELLS <= len(envelope.grid.free)
    oracle_path(C(-3, -3, 0), C(3, 3, 4), desk)
    oracle_path(C(-3, -3, 0), C(3, 3, 4), envelope)
    with pytest.raises(UnreachableGoalError):
        oracle_path(C(0, 0, 0), C(1, 1, 1), envelope.with_obstacles([C(1, 1, 1).offset(*m) for m in MOVES]))
    assert calls == ["_bfs_queue", "_bfs_layers", "_bfs_layers"]
