"""Synthetic trajectory corpus: BFS shortest-path oracle, generation, splits, JSONL IO.

Ground-truth paths come from breadth-first search on the obstacle-masked
lattice, expanded in canonical move order so the whole corpus is a pure
function of (config, seed). Records serialize one-per-line as JSON; the
JSON-lines reader and writer here carry every record file the package
writes, and validate_path is the one bounds-and-adjacency rule for paths.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, replace

from .lattice import LatticeCoord, LegalityGrid, Workspace, in_bounds, manhattan
from .lattice import neighbors  # noqa: F401 (perfbench/tracer.py wraps corpus.neighbors)
from .taskgrid import TaskContext, TaskGraph, build_context, chain_graph

SCHEMA_VERSION = 1


class UnreachableGoalError(ValueError):
    """Raised when the goal is separated from the start by obstacles."""


class CorpusFormatError(ValueError):
    """Raised on malformed or version-mismatched corpus files."""


@dataclass(frozen=True)
class Trajectory:
    """An ordered lattice path; points[0] is the start cell p0."""

    points: tuple[LatticeCoord, ...]
    task: TaskGraph | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 1:
            raise ValueError("a trajectory needs at least one point")

    @property
    def start(self) -> LatticeCoord:
        return self.points[0]

    @property
    def end(self) -> LatticeCoord:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PathValidation:
    valid: bool
    first_violation: int | None = None


def validate_path(t: Trajectory, w: Workspace) -> PathValidation:
    """Bounds-and-adjacency check; reports the first offending point index."""
    pts = t.points
    for i, p in enumerate(pts):
        if not in_bounds(p, w) or (i and manhattan(pts[i - 1], p) != 1):
            return PathValidation(False, i)
    return PathValidation(True, None)


def check_trajectory(traj: Trajectory, w: Workspace) -> None:
    """Raise if the trajectory violates adjacency or bounds (corpus invariant)."""
    i = validate_path(traj, w).first_violation
    if i is not None:
        p = traj.points[i]
        raise ValueError(f"trajectory point {i} = {p} is out of bounds or not a unit move")


@dataclass(frozen=True)
class CorpusRecord:
    trajectory: Trajectory
    workspace: Workspace
    context: TaskContext
    split_tag: str = "train"

    def __post_init__(self) -> None:
        if self.split_tag not in ("train", "validation"):
            raise ValueError(f"split_tag must be 'train' or 'validation', got {self.split_tag!r}")


@dataclass(frozen=True)
class GenerationConfig:
    workspace: Workspace
    count: int = 100
    obstacle_density: float = 0.0
    max_path_length: int = 32
    train_fraction: float = 0.8
    max_resample_attempts: int = 200

    def __post_init__(self) -> None:
        if not (0.0 <= self.obstacle_density <= 0.2):
            raise ValueError("obstacle_density must lie in [0, 0.2]")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.max_path_length < 2:
            raise ValueError("max_path_length must be at least 2")
        if self.max_resample_attempts < 1:
            raise ValueError("max_resample_attempts must be at least 1")


@dataclass
class GenerationCounters:
    """Seed-determined tallies of corpus generation; no timings.

    Each attempt yields a record or is rejected for one reason: the
    start-goal distance alone exceeds max_path_length (no search runs), the
    goal is unreachable, or the shortest path is too long. bfs_runs counts
    oracle searches and bfs_cells_expanded the cells they took off the queue.
    """

    attempts: int = 0
    bfs_runs: int = 0
    bfs_cells_expanded: int = 0
    rejected_distance: int = 0
    rejected_unreachable: int = 0
    rejected_too_long: int = 0


def splitmix64(state: int) -> int:
    """One step of the splitmix64 mixer; stable across platforms."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def oracle_path(
    start: LatticeCoord, goal: LatticeCoord, w: Workspace, counters: GenerationCounters | None = None
) -> Trajectory:
    """Shortest obstacle-avoiding path from start to goal, both endpoints included.

    BFS over the flat indices of w.grid with frontier expansion in canonical
    move order; each cell keeps the first parent that discovers it, so ties
    resolve deterministically. counters, if given, tallies the search.
    """
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    if not in_bounds(goal, w):
        raise ValueError(f"goal {goal} is out of bounds")
    if start == goal:
        return Trajectory(points=(start,))
    grid = w.grid
    s, g = grid.index(start), grid.index(goal)
    parent, expanded = _bfs_parents(grid, s, g)
    if counters is not None:
        counters.bfs_runs += 1
        counters.bfs_cells_expanded += expanded
    if parent is None:
        raise UnreachableGoalError(f"goal {goal} is unreachable from {start}")
    path = [g]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return Trajectory(points=tuple(grid.coord(i) for i in reversed(path)))


def _bfs_parents(grid: LegalityGrid, s: int, g: int) -> tuple[dict[int, int] | None, int]:
    """Parent links of the BFS from s up to the discovery of g (None if never), and cells expanded."""
    strides = grid.strides
    unseen = bytearray(grid.free)
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
                    return parent, expanded
                queue.append(u)
    return None, expanded


_TASK_TEMPLATES: tuple[tuple[tuple[str, ...], int], ...] = (
    # (primitive chain, index of the node whose motion the path realizes)
    (("reach",), 0),
    (("reach", "grasp", "lift", "place"), 0),
    (("reach", "grasp", "lift", "place"), 2),
)


def _sample_rank(rng, w: Workspace, taken: set[int], exclude: int = -1) -> int:
    """Rank in x/y/z order of a uniformly drawn box cell that is neither taken nor exclude."""
    _, ny, nz = w.shape
    while True:
        x = rng.randrange(w.x_min, w.x_max + 1) - w.x_min
        y = rng.randrange(w.y_min, w.y_max + 1) - w.y_min
        z = rng.randrange(w.z_min, w.z_max + 1) - w.z_min
        i = (x * ny + y) * nz + z
        if i not in taken and i != exclude:
            return i


def _generate_record(record_seed: int, cfg: GenerationConfig, counters: GenerationCounters) -> CorpusRecord:
    """One record of a seeded attempt loop; cells are handled by their rank in x/y/z order.

    Each attempt draws the obstacles, then start and goal; the workspace is
    built and searched only when the start-goal distance allows a path of at
    most max_path_length cells.
    """
    import random

    rng = random.Random(record_seed)
    base = cfg.workspace
    volume = base.volume()
    n_obstacles = int(round(cfg.obstacle_density * volume))
    # with fewer than two free cells no attempt can succeed
    attempts = cfg.max_resample_attempts if volume - n_obstacles >= 2 else 0
    _, ny, nz = base.shape

    def cell(i: int) -> LatticeCoord:
        return LatticeCoord(base.x_min + i // (ny * nz), base.y_min + i // nz % ny, base.z_min + i % nz)

    for _ in range(attempts):
        counters.attempts += 1
        blocked = set(rng.sample(range(volume), n_obstacles))
        s = _sample_rank(rng, base, blocked)
        start, goal = cell(s), cell(_sample_rank(rng, base, blocked, exclude=s))
        if manhattan(start, goal) + 1 > cfg.max_path_length:
            counters.rejected_distance += 1  # no path can be short enough
            continue
        w = base.with_obstacles(cell(i) for i in blocked)
        try:
            traj = oracle_path(start, goal, w, counters)
        except UnreachableGoalError:
            counters.rejected_unreachable += 1
            continue
        if len(traj) > cfg.max_path_length:
            counters.rejected_too_long += 1
            continue
        kinds, active = _TASK_TEMPLATES[rng.randrange(len(_TASK_TEMPLATES))]
        graph = chain_graph(kinds)
        done = frozenset(range(active))
        ctx = build_context(
            graph,
            active_id=active,
            done=done,
            sequence_length_hint=len(traj),
            target=goal,
        )
        traj = replace(traj, task=graph, seed=record_seed)
        return CorpusRecord(trajectory=traj, workspace=w, context=ctx)
    raise ValueError(
        f"could not generate a feasible record after {cfg.max_resample_attempts} attempts; "
        "the obstacle density likely saturates the box"
    )


def generate_corpus(cfg: GenerationConfig, seed: int, counters: GenerationCounters | None = None) -> list[CorpusRecord]:
    """Deterministic corpus of cfg.count records, split-tagged by record seed."""
    counters = GenerationCounters() if counters is None else counters
    state = splitmix64(seed)
    records = []
    for _ in range(cfg.count):
        record_seed = state
        state = splitmix64(state)
        records.append(_generate_record(record_seed, cfg, counters))
    return split_records(records, cfg.train_fraction)


def split_records(records: list[CorpusRecord], train_fraction: float) -> list[CorpusRecord]:
    """Tag records train/validation by rank of the hashed record seed.

    Exactly floor(n * train_fraction) records land in train; the assignment
    depends only on each record's seed, so it is stable under reordering.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if not records:
        return []
    keyed = sorted(records, key=lambda r: (splitmix64(r.trajectory.seed), r.trajectory.seed))
    n_train = int(len(records) * train_fraction)
    train_seeds = {r.trajectory.seed for r in keyed[:n_train]}
    return [
        replace(r, split_tag="train" if r.trajectory.seed in train_seeds else "validation")
        for r in records
    ]


def record_to_dict(r: CorpusRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": r.trajectory.seed,
        "split_tag": r.split_tag,
        "workspace": r.workspace.to_dict(),
        "task_graph": r.trajectory.task.to_dict() if r.trajectory.task is not None else None,
        "context": r.context.to_dict(),
        "points": [list(p.as_tuple()) for p in r.trajectory.points],
    }


def record_from_dict(d: dict) -> CorpusRecord:
    version = d.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CorpusFormatError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    task = TaskGraph.from_dict(d["task_graph"]) if d.get("task_graph") is not None else None
    traj = Trajectory(
        points=tuple(LatticeCoord(*map(int, p)) for p in d["points"]),
        task=task,
        seed=int(d["seed"]),
    )
    return CorpusRecord(
        trajectory=traj,
        workspace=Workspace.from_dict(d["workspace"]),
        context=TaskContext.from_dict(d["context"]),
        split_tag=str(d["split_tag"]),
    )


def write_jsonl(path, rows) -> None:
    """Write dicts as JSON lines, one key-sorted object per line (byte-stable)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path, parse) -> list:
    """parse() each non-blank line's object; errors name the file and line."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except CorpusFormatError as e:
                raise CorpusFormatError(f"{path}: line {lineno}: {e}") from None
            except (ValueError, KeyError, TypeError) as e:
                raise CorpusFormatError(f"{path}: line {lineno}: malformed record ({e})") from None
    return out


def write_records(path, records) -> None:
    write_jsonl(path, (record_to_dict(r) for r in records))


def read_records(path, check=None) -> list[CorpusRecord]:
    """Records of a corpus file.

    check(record), if given, raises CorpusFormatError for a record the caller
    cannot use; like a malformed line, the error names the file and line.
    """
    if check is None:
        return read_jsonl(path, record_from_dict)

    def parse(d):
        r = record_from_dict(d)
        check(r)
        return r

    return read_jsonl(path, parse)
