"""Cell-by-cell lattice code, the oracle for the flat-index lattice core.

RefWorkspace is the workspace that stored its obstacles as a frozenset of
LatticeCoord, with that set's codec, and RefLegalityGrid builds the padded
legality table row by row from it; latticepath.lattice.Workspace stores
obstacle ranks and must encode, decode, compare and build grids the same.
in_bounds, neighbors and legal_moves are the cell-by-cell rule over a
workspace's `obstacles` set. oracle_path searches over LatticeCoord objects
with neighbors() and a parent dict; latticepath.corpus must return the same
paths and raise on the same unreachable pairs. generate_corpus is the v1
generator: each attempt samples its obstacles from an explicit list of every
cell of the box, then start and goal among the free cells. Written by
record_to_dict_v1, its corpora are the schema-v1 bytes that every v1 file
was; latticepath.corpus's v2 generator draws start and goal first and is
checked against it record by record (legal, shortest, exact obstacle count),
not byte by byte. legal_mask_rows builds make_loss_batch's legality array
with legal_moves, one cell at a time.

bfs_queue is the cell-by-cell flat-index BFS that corpus._bfs_layers must
match, path and count, on every table and stride set. box_stage is the
oracle's former box stage, bfs_queue over the grid's table with every cell
outside the start-goal box blocked and with only the moves toward the goal;
corpus._monotone_path must find its path, and fail where it fails.
"""

import json
import random
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from latticepath.corpus import (
    _TASK_TEMPLATES,
    CorpusRecord,
    GenerationConfig,
    Trajectory,
    UnreachableGoalError,
    split_tags,
    splitmix64,
)
from latticepath.lattice import MOVES, LatticeCoord, Workspace, manhattan
from latticepath.taskgrid import build_context, chain_graph


@dataclass(frozen=True)
class RefWorkspace:
    """Axis-aligned legal region whose obstacles are a frozenset of cells."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    z_min: int
    z_max: int
    obstacles: frozenset[LatticeCoord] = field(default_factory=frozenset)
    resolution_mm: float = 20.0

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max or self.z_min > self.z_max:
            raise ValueError("workspace bounds must satisfy min <= max on every axis")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        for c in self.obstacles:
            if not self._in_box(c):
                raise ValueError(f"obstacle {c} lies outside the workspace bounds")

    def _in_box(self, p: LatticeCoord) -> bool:
        return (
            self.x_min <= p.x <= self.x_max
            and self.y_min <= p.y <= self.y_max
            and self.z_min <= p.z <= self.z_max
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.x_max - self.x_min + 1, self.y_max - self.y_min + 1, self.z_max - self.z_min + 1)

    def cells(self):
        for x in range(self.x_min, self.x_max + 1):
            for y in range(self.y_min, self.y_max + 1):
                for z in range(self.z_min, self.z_max + 1):
                    c = LatticeCoord(x, y, z)
                    if c not in self.obstacles:
                        yield c

    def with_obstacles(self, obstacles) -> "RefWorkspace":
        return RefWorkspace(self.x_min, self.x_max, self.y_min, self.y_max, self.z_min, self.z_max,
                            obstacles=frozenset(obstacles), resolution_mm=self.resolution_mm)

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "z_min": self.z_min, "z_max": self.z_max,
            "resolution_mm": self.resolution_mm,
            "obstacles": sorted(c.as_tuple() for c in self.obstacles),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RefWorkspace":
        return cls(
            int(d["x_min"]), int(d["x_max"]),
            int(d["y_min"]), int(d["y_max"]),
            int(d["z_min"]), int(d["z_max"]),
            obstacles=frozenset(LatticeCoord(*map(int, c)) for c in d.get("obstacles", [])),
            resolution_mm=float(d.get("resolution_mm", 20.0)),
        )


class RefLegalityGrid:
    """The padded free table of a workspace, filled one row of the box at a time, then each obstacle cleared."""

    def __init__(self, w):
        nx, ny, nz = w.shape
        sy = nz + 2
        sx = (ny + 2) * sy
        self.origin = (w.x_min - 1, w.y_min - 1, w.z_min - 1)
        free = bytearray(sx * (nx + 2))
        run = b"\x01" * nz
        for x in range(1, nx + 1):
            for y in range(1, ny + 1):
                i = x * sx + y * sy + 1
                free[i : i + nz] = run
        for c in w.obstacles:
            free[(c.x - self.origin[0]) * sx + (c.y - self.origin[1]) * sy + (c.z - self.origin[2])] = 0
        self.free = free


def in_bounds(p: LatticeCoord, w) -> bool:
    """True iff p lies inside the box and is not in the workspace's obstacle set."""
    return w._in_box(p) and p not in w.obstacles


def neighbors(p: LatticeCoord, w) -> list[LatticeCoord]:
    if not in_bounds(p, w):
        raise ValueError(f"neighbor query from out-of-bounds cell {p}")
    return [u for u in (p.offset(*m) for m in MOVES) if in_bounds(u, w)]


def legal_moves(p: LatticeCoord, w) -> list[bool]:
    return [in_bounds(p.offset(*m), w) for m in MOVES]


def oracle_path(start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    if not in_bounds(goal, w):
        raise ValueError(f"goal {goal} is out of bounds")
    if start == goal:
        return Trajectory(points=(start,))
    parent: dict[LatticeCoord, LatticeCoord] = {start: start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for u in neighbors(p, w):
            if u not in parent:
                parent[u] = p
                if u == goal:
                    path = [u]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return Trajectory(points=tuple(reversed(path)))
                queue.append(u)
    raise UnreachableGoalError(f"goal {goal} is unreachable from {start}")


def bfs_queue(table, strides, s: int, g: int) -> tuple[list[int] | None, int]:
    """Flat indices of the BFS path from s to g (None if g is unreachable), and cells expanded.

    table is a flat bool array, True on the cells the search may enter, and
    strides the flat moves it may take, in the order it tries them. Each
    cell keeps the first parent that discovers it; expanded counts the cells
    taken off the queue, up to the one whose move discovers g.
    """
    unseen = bytearray(table)
    unseen[s] = 0
    parent: dict[int, int] = {}
    queue = deque([s])
    expanded = 0
    while queue:
        p = queue.popleft()
        expanded += 1
        for d in strides:
            u = p + d
            if unseen[u]:
                unseen[u] = 0
                parent[u] = p
                if u == g:
                    path = [g]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return path[::-1], expanded
                queue.append(u)
    return None, expanded


def toward_strides(grid, start: LatticeCoord, goal: LatticeCoord) -> tuple[int, ...]:
    """The flat strides of the moves toward the goal, in canonical order (one per axis where start and goal differ)."""
    delta = (goal.x - start.x, goal.y - start.y, goal.z - start.z)
    return tuple(d for d, m in zip(grid.strides, MOVES) if sum(a * b for a, b in zip(m, delta)) > 0)


def box_table(grid, a: LatticeCoord, b: LatticeCoord) -> np.ndarray:
    """A copy of grid.free_mask that is False outside the box with opposite corners a and b."""
    sx, sy = grid._axis
    box = tuple(slice(min(u, v) - o, max(u, v) - o + 1) for u, v, o in zip(a.as_tuple(), b.as_tuple(), grid.origin))
    padded = grid.free_mask.reshape(-1, sx // sy, sy)
    table = np.zeros_like(padded)
    table[box] = padded[box]
    return table.ravel()


def box_stage(grid, start: LatticeCoord, goal: LatticeCoord) -> tuple[list[int] | None, int]:
    """The BFS over the start-goal box with the moves toward the goal: the least monotone path, if any."""
    table = box_table(grid, start, goal)
    return bfs_queue(table, toward_strides(grid, start, goal), grid.index(start), grid.index(goal))


def _sample_cell(rng, w: Workspace, exclude=frozenset()) -> LatticeCoord:
    while True:
        c = LatticeCoord(
            rng.randrange(w.x_min, w.x_max + 1),
            rng.randrange(w.y_min, w.y_max + 1),
            rng.randrange(w.z_min, w.z_max + 1),
        )
        if in_bounds(c, w) and c not in exclude:
            return c


def _generate_record(record_seed: int, cfg: GenerationConfig) -> CorpusRecord:
    rng = random.Random(record_seed)
    base = cfg.workspace
    for _ in range(cfg.max_resample_attempts):
        n_obstacles = int(round(cfg.obstacle_density * base.volume()))
        cells = [
            LatticeCoord(x, y, z)
            for x in range(base.x_min, base.x_max + 1)
            for y in range(base.y_min, base.y_max + 1)
            for z in range(base.z_min, base.z_max + 1)
        ]
        obstacles = frozenset(rng.sample(cells, n_obstacles)) if n_obstacles else frozenset()
        w = base.with_obstacles(obstacles)
        if w.volume() - len(obstacles) < 2:
            continue
        start = _sample_cell(rng, w)
        goal = _sample_cell(rng, w, exclude={start})
        if manhattan(start, goal) + 1 > cfg.max_path_length:
            continue  # no path is shorter than the distance, so the search could only reject
        try:
            traj = oracle_path(start, goal, w)
        except UnreachableGoalError:
            continue
        if len(traj) > cfg.max_path_length:
            continue
        kinds, active = _TASK_TEMPLATES[rng.randrange(len(_TASK_TEMPLATES))]
        graph = chain_graph(kinds)
        ctx = build_context(
            graph,
            active_id=active,
            done=frozenset(range(active)),
            sequence_length_hint=len(traj),
            target=goal,
        )
        traj = replace(traj, task=graph, seed=record_seed)
        return CorpusRecord(trajectory=traj, workspace=w, context=ctx)
    raise ValueError(
        f"could not generate a feasible record after {cfg.max_resample_attempts} attempts; "
        "the obstacle density likely saturates the box"
    )


def generate_corpus(cfg: GenerationConfig, seed: int) -> list[CorpusRecord]:
    state = splitmix64(seed)
    records = []
    for _ in range(cfg.count):
        record_seed = state
        state = splitmix64(state)
        records.append(_generate_record(record_seed, cfg))
    tags = split_tags([r.trajectory.seed for r in records], cfg.train_fraction)
    return [replace(r, split_tag=tag) for r, tag in zip(records, tags)]


def record_to_dict_v1(r: CorpusRecord) -> dict:
    """A gold record as schema v1 wrote it: the workspace's obstacles as a sorted list of cells."""
    return {
        "schema_version": 1,
        "seed": r.trajectory.seed,
        "split_tag": r.split_tag,
        "workspace": r.workspace.to_dict(),
        "task_graph": r.trajectory.task.to_dict() if r.trajectory.task is not None else None,
        "context": r.context.to_dict(),
        "points": [list(p.as_tuple()) for p in r.trajectory.points],
    }


def v1_bytes(records) -> bytes:
    """A schema-v1 JSONL file of the records."""
    return "".join(json.dumps(record_to_dict_v1(r), sort_keys=True) + "\n" for r in records).encode()


def legal_mask_rows(traj: Trajectory, w: Workspace, T: int) -> np.ndarray:
    """(T, 7) legality of one padded make_loss_batch row: STOP always legal, padding repeats the end."""
    rows = [legal_moves(p, w) + [True] for p in traj.points]
    rows += [rows[-1]] * (T - len(rows))
    return np.array(rows, dtype=bool)
