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

from .lattice import LatticeCoord, Workspace, in_bounds, manhattan, neighbors
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


def splitmix64(state: int) -> int:
    """One step of the splitmix64 mixer; stable across platforms."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def oracle_path(start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
    """Shortest obstacle-avoiding path from start to goal, both endpoints included.

    BFS with frontier expansion in canonical move order; each cell keeps the
    first parent that discovers it, so ties resolve deterministically.
    """
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


_TASK_TEMPLATES: tuple[tuple[tuple[str, ...], int], ...] = (
    # (primitive chain, index of the node whose motion the path realizes)
    (("reach",), 0),
    (("reach", "grasp", "lift", "place"), 0),
    (("reach", "grasp", "lift", "place"), 2),
)


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
    import random

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
        try:
            traj = oracle_path(start, goal, w)
        except UnreachableGoalError:
            continue
        if len(traj) > cfg.max_path_length:
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


def generate_corpus(cfg: GenerationConfig, seed: int) -> list[CorpusRecord]:
    """Deterministic corpus of cfg.count records, split-tagged by record seed."""
    state = splitmix64(seed)
    records = []
    for _ in range(cfg.count):
        record_seed = state
        state = splitmix64(state)
        records.append(_generate_record(record_seed, cfg))
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
