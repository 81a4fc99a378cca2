"""Synthetic trajectory corpus: BFS shortest-path oracle, generation, splits, JSONL IO.

Ground-truth paths are the BFS shortest paths of the obstacle-masked
lattice in canonical move order: a depth-first search over the moves toward
the goal finds them when they are monotone, a breadth-first search over the
whole grid otherwise, so the whole corpus is a pure function of (config,
seed). The split of a corpus depends on its record seeds alone, so
corpus_records tags each record before it is generated and yields the
records one at a time: `gen` writes each to its split's file and drops it,
and its memory does not grow with the record count. Records serialize
one-per-line as JSON (schema v2: the workspace's obstacles as a bitmap; v1
files, with an obstacle list, still read); the JSON-lines reader and writer
here carry every record file the package writes, and validate_path is the
one bounds-and-adjacency rule for paths.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .lattice import MOVES, LatticeCoord, LegalityGrid, Workspace, in_bounds, manhattan, read_cells, read_int
from .lattice import neighbors  # noqa: F401 (perfbench/tracer.py wraps corpus.neighbors)
from .taskgrid import TaskContext, TaskGraph, build_context, chain_graph

SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (1, 2)

# How a decoded path ended: on the STOP token, or at the step limit.
TERMINATION_KINDS = ("stop_token", "max_steps")


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
    """A gold or predicted path with its workspace and context.

    A prediction from decode_records also carries its search score and how
    it terminated; a gold record carries neither.
    """

    trajectory: Trajectory
    workspace: Workspace
    context: TaskContext
    split_tag: str = "train"
    score: float | None = None
    terminated_by: str | None = None

    def __post_init__(self) -> None:
        if self.split_tag not in ("train", "validation"):
            raise ValueError(f"split_tag must be 'train' or 'validation', got {self.split_tag!r}")
        if (self.score is None) != (self.terminated_by is None):
            raise ValueError("a record carries both score and terminated_by, or neither")
        if self.terminated_by is not None and self.terminated_by not in TERMINATION_KINDS:
            raise ValueError(f"terminated_by must be one of {', '.join(TERMINATION_KINDS)}, got {self.terminated_by!r}")


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
        volume = self.workspace.volume()
        blocked = int(round(self.obstacle_density * volume))
        if volume - blocked < 2:
            raise ValueError(f"fewer than two free cells for a start and a goal: the workspace box has {volume} "
                             f"cells and obstacle_density {self.obstacle_density} blocks {blocked}")


@dataclass
class GenerationCounters:
    """Seed-determined tallies of corpus generation; no timings.

    Each attempt yields a record or is rejected for one reason: the
    start-goal distance alone exceeds max_path_length (no obstacles are
    drawn and no search runs), the goal is unreachable, or the shortest path
    is too long. obstacle_draws counts the attempts that drew their
    obstacles, attempts minus rejected_distance. bfs_runs counts oracle
    searches, one per oracle_path call that searches, whatever its stages.
    bfs_cells_expanded counts the cells both stages expanded: the box
    stage's cells stepped from or backed out of, the full BFS's cells taken
    off its queue (see _monotone_path and _bfs_layers). bfs_fallbacks counts
    the searches whose box stage found no path, so that the full BFS ran too.
    """

    attempts: int = 0
    obstacle_draws: int = 0
    bfs_runs: int = 0
    bfs_cells_expanded: int = 0
    bfs_fallbacks: int = 0
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

    The path is the one a BFS over the flat indices of w.grid finds when it
    expands its frontier in canonical move order and each cell keeps the
    first parent that discovers it: of the shortest paths, the one whose
    move sequence is lexicographically least. It is searched in two stages.

    The box stage (_monotone_path) searches depth first with only the moves
    toward the goal, in canonical order, so every path it can find is
    monotone: it lies in the start-goal box and has the Manhattan length, a
    shortest path. Then every shortest path is monotone, and the box stage's
    first path, the lexicographically least monotone move sequence, is the
    full BFS's path. If the box stage fails, the shortest path is longer
    than the Manhattan distance or there is none, and the layered BFS over
    the whole grid with all six moves runs as the fallback.

    counters, if given, tallies the search: one bfs_runs, the cells both
    stages expanded, and one bfs_fallbacks if the box stage failed.
    """
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    if not in_bounds(goal, w):
        raise ValueError(f"goal {goal} is out of bounds")
    if start == goal:
        return Trajectory(points=(start,))
    grid = w.grid
    path, expanded = _monotone_path(grid, start, goal)
    fallback = path is None
    if fallback:
        path, more = _bfs_layers(grid.free_mask, grid.strides, grid.index(start), grid.index(goal))
        expanded += more
    if counters is not None:
        counters.bfs_runs += 1
        counters.bfs_cells_expanded += expanded
        counters.bfs_fallbacks += fallback
    if path is None:
        raise UnreachableGoalError(f"goal {goal} is unreachable from {start}")
    return Trajectory(points=tuple(grid.coord(i) for i in path))


def _monotone_path(grid: LegalityGrid, start: LatticeCoord, goal: LatticeCoord) -> tuple[list[int] | None, int]:
    """Flat indices of the least monotone path from start to goal (None if there is none), and cells expanded.

    A depth-first search on grid.free that tries only the moves toward the
    goal, one per axis on which start and goal differ, in canonical order,
    and counts the steps left on each axis, so it never leaves the start-goal
    box. Whether a cell reaches the goal by such moves does not depend on
    the way in, so a cell it backs out of is dead and never entered again.
    The first path it completes therefore has the lexicographically least
    monotone move sequence. Expanded counts the cells it stepped from or
    backed out of: the path's cells before the goal, and the dead cells.
    """
    delta = (goal.x - start.x, goal.y - start.y, goal.z - start.z)
    toward = [(d, axis) for d, m in zip(grid.strides, MOVES)
              for axis in range(3) if m[axis] * delta[axis] > 0]
    left = [abs(v) for v in delta]
    free, g = grid.free, grid.index(goal)
    path, tried, dead = [grid.index(start)], [0], set()
    while path:
        k = tried[-1]
        if k == len(toward):  # no way on: back out
            dead.add(path.pop())
            tried.pop()
            if tried:
                left[toward[tried[-1] - 1][1]] += 1
            continue
        tried[-1] = k + 1
        d, axis = toward[k]
        u = path[-1] + d
        if left[axis] and free[u] and u not in dead:
            path.append(u)
            if u == g:
                return path, len(path) - 1 + len(dead)
            tried.append(0)
            left[axis] -= 1
    return None, len(dead)


def _bfs_layers(table, strides: tuple[int, ...], s: int, g: int) -> tuple[list[int] | None, int]:
    """Flat indices of the BFS path from s to g (None if g is unreachable), and cells expanded.

    table is a flat bool array, True on the cells the search may enter, and
    strides the flat moves it may take, in the order it tries them. The
    result is that of a queue expanded cell by cell, each cell keeping the
    first parent that discovers it and expanded counting the cells taken off
    the queue up to the one whose move discovers g; but a whole layer is
    expanded per numpy step. A layer's candidates, frontier position first
    and move second, are the queue's discovery order, and a cell reached
    more than once keeps its first candidate (the smallest index). Only the
    returned path is walked back.
    """
    k = len(strides)
    unseen = table.copy()
    unseen[s] = False
    first = np.full(len(unseen), len(unseen) * k, dtype=np.int64)  # above any candidate index
    layers = [(np.array([s]), None)]  # each layer's cells and their parents' positions in the layer before
    strides = np.array(strides, dtype=np.int64)
    expanded = 0
    while True:
        frontier = layers[-1][0]
        candidates = (frontier[:, None] + strides).ravel()
        idx = np.flatnonzero(unseen[candidates])
        cells = candidates[idx]
        np.minimum.at(first, cells, idx)
        won = first[cells] == idx
        cells, idx = cells[won], idx[won]
        if not len(cells):
            return None, expanded + len(frontier)
        unseen[cells] = False
        if not unseen[g]:
            j = int(idx[np.flatnonzero(cells == g)[0]]) // k
            expanded += j + 1
            path = [g]
            for layer, parents in reversed(layers):
                path.append(int(layer[j]))
                if parents is not None:
                    j = int(parents[j])
            return path[::-1], expanded
        expanded += len(frontier)
        layers.append((cells, idx // k))


_TASK_TEMPLATES: tuple[tuple[tuple[str, ...], int], ...] = (
    # (primitive chain, index of the node whose motion the path realizes)
    (("reach",), 0),
    (("reach", "grasp", "lift", "place"), 0),
    (("reach", "grasp", "lift", "place"), 2),
)


def _sample_rank(rng, w: Workspace, exclude: int = -1) -> int:
    """Rank in x/y/z order of a uniformly drawn box cell other than exclude."""
    _, ny, nz = w.shape
    while True:
        x = rng.randrange(w.x_min, w.x_max + 1) - w.x_min
        y = rng.randrange(w.y_min, w.y_max + 1) - w.y_min
        z = rng.randrange(w.z_min, w.z_max + 1) - w.z_min
        i = (x * ny + y) * nz + z
        if i != exclude:
            return i


def _task_template(k: int) -> tuple[TaskGraph, TaskContext]:
    """_TASK_TEMPLATES[k]'s graph and its active node's context, before a record sets the hint and target."""
    kinds, active = _TASK_TEMPLATES[k]
    graph = chain_graph(kinds)
    return graph, build_context(graph, active_id=active, done=frozenset(range(active)))


def _generate_record(record_seed: int, split_tag: str, cfg: GenerationConfig,
                     templates: dict[int, tuple[TaskGraph, TaskContext]], counters: GenerationCounters) -> CorpusRecord:
    """One record of a seeded attempt loop; cells are handled by their rank in x/y/z order.

    Each attempt draws start and goal, two distinct uniform box cells, from a
    random.Random seeded by the record seed, and is rejected on their
    distance before any obstacle is drawn. An attempt that passes draws
    round(obstacle_density * volume) obstacle ranks, uniform among the other
    volume - 2 cells, from a numpy Generator seeded by the record seed (made
    at the record's first such draw), and searches the workspace they make.

    An attempt's (obstacles O, start s, goal g) has the law of the generator
    that drew O first and s, g after among the free cells: with k obstacles
    in V cells, both put probability 1 / (V (V-1) C(V-2, k)) on every triple
    with s != g and s, g outside O, as C(V, k) (V-k) (V-k-1) = V (V-1)
    C(V-2, k). Whether an attempt is rejected depends on its triple alone,
    so the records have the same law too. At density 0 no obstacle is drawn,
    and the records are those of that generator, draw for draw.

    The accepted attempt draws its task template; templates holds each
    template of the corpus (_task_template) once it is first drawn, and the
    record's context is its template's with the path length and the goal.
    """
    rng = random.Random(record_seed)
    obstacle_rng = None
    base = cfg.workspace
    volume = base.volume()
    n_obstacles = int(round(cfg.obstacle_density * volume))
    _, ny, nz = base.shape

    def cell(i: int) -> LatticeCoord:
        return LatticeCoord(base.x_min + i // (ny * nz), base.y_min + i // nz % ny, base.z_min + i % nz)

    for _ in range(cfg.max_resample_attempts):
        counters.attempts += 1
        s = _sample_rank(rng, base)
        g = _sample_rank(rng, base, exclude=s)
        start, goal = cell(s), cell(g)
        if manhattan(start, goal) + 1 > cfg.max_path_length:
            counters.rejected_distance += 1  # no path can be short enough
            continue
        counters.obstacle_draws += 1
        w = base
        if n_obstacles:
            if obstacle_rng is None:
                obstacle_rng = np.random.default_rng(record_seed)
            ranks = obstacle_rng.choice(volume - 2, n_obstacles, replace=False, shuffle=False)
            ranks += ranks >= min(s, g)  # skip the start and goal ranks
            ranks += ranks >= max(s, g)
            w = base.with_ranks(ranks)
        try:
            traj = oracle_path(start, goal, w, counters)
        except UnreachableGoalError:
            counters.rejected_unreachable += 1
            continue
        if len(traj) > cfg.max_path_length:
            counters.rejected_too_long += 1
            continue
        k = rng.randrange(len(_TASK_TEMPLATES))
        if k not in templates:
            templates[k] = _task_template(k)
        graph, template = templates[k]
        return CorpusRecord(Trajectory(traj.points, graph, record_seed), w,
                            template.with_hint(len(traj), goal), split_tag)
    raise ValueError(
        f"could not generate a feasible record after {cfg.max_resample_attempts} attempts; "
        "the obstacle density likely saturates the box"
    )


def corpus_records(cfg: GenerationConfig, seed: int, counters: GenerationCounters) -> Iterator[CorpusRecord]:
    """The corpus of (cfg, seed), one record at a time in seed-chain order, each split-tagged.

    The record seeds are the splitmix64 chain from seed, drawn and tagged
    (split_tags) before the first record is generated; nothing else of a
    record is kept once it is yielded. counters is complete once the last
    record is.
    """
    seeds, state = [], splitmix64(seed)
    for _ in range(cfg.count):
        seeds.append(state)
        state = splitmix64(state)
    templates = {}
    for record_seed, tag in zip(seeds, split_tags(seeds, cfg.train_fraction)):
        yield _generate_record(record_seed, tag, cfg, templates, counters)


def generate_corpus(cfg: GenerationConfig, seed: int, counters: GenerationCounters | None = None) -> list[CorpusRecord]:
    """Deterministic corpus of cfg.count records, split-tagged by record seed: corpus_records as a list."""
    return list(corpus_records(cfg, seed, GenerationCounters() if counters is None else counters))


def split_tags(seeds: list[int], train_fraction: float) -> list[str]:
    """Tag each record seed train or validation by rank of its hash.

    The floor(n * train_fraction) seeds of least (splitmix64(seed), seed)
    are train; a seed's tag depends only on the set of seeds, so it is
    stable under reordering.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    ranked = sorted(seeds, key=lambda s: (splitmix64(s), s))
    train = set(ranked[:int(len(seeds) * train_fraction)])
    return ["train" if s in train else "validation" for s in seeds]


def record_to_dict(r: CorpusRecord) -> dict:
    """A record in schema v2: the workspace's obstacles as `obstacle_bits`; a prediction's score and end."""
    d = {
        "schema_version": SCHEMA_VERSION,
        "seed": r.trajectory.seed,
        "split_tag": r.split_tag,
        "workspace": r.workspace.to_dict(packed=True),
        "task_graph": r.trajectory.task.to_dict() if r.trajectory.task is not None else None,
        "context": r.context.to_dict(),
        "points": [list(p.as_tuple()) for p in r.trajectory.points],
    }
    if r.terminated_by is not None:
        d["score"], d["terminated_by"] = r.score, r.terminated_by
    return d


def record_from_dict(d: dict, shared: dict | None = None) -> CorpusRecord:
    """A record of schema v2, or of v1 (an `obstacles` list; no score or terminated_by).

    shared, if given, holds the workspaces and task graphs already read, by
    the JSON text of their entries, and an entry of the same text gets the
    same object (so one legality grid serves every record on that workspace).
    Equal text means equal JSON types, so a memo hit never accepts a value
    the parser would reject.
    """
    version = d.get("schema_version")
    if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
        raise CorpusFormatError(f"unsupported schema_version {version!r} (expected one of {READABLE_SCHEMA_VERSIONS})")
    task = _read_shared(shared, TaskGraph.from_dict, d["task_graph"]) if d.get("task_graph") is not None else None
    points = tuple(starmap(LatticeCoord, read_cells(d["points"], "points")))
    traj = Trajectory(points=points, task=task, seed=read_int(d["seed"], "seed"))
    workspace = _read_shared(shared, Workspace.from_dict, d["workspace"])
    if version == 2 and "obstacle_bits" not in d["workspace"]:
        raise ValueError("workspace.obstacle_bits is missing")
    score = None
    if "score" in d:
        score = d["score"]
        if not (type(score) in (int, float) and abs(score) <= sys.float_info.max):
            raise ValueError(f"score must be a finite number, got {json.dumps(score)}")
    return CorpusRecord(
        trajectory=traj,
        workspace=workspace,
        context=TaskContext.from_dict(d["context"]),
        split_tag=str(d["split_tag"]),
        score=None if score is None else float(score),
        terminated_by=d.get("terminated_by"),
    )


def _read_shared(shared: dict | None, parse, entry):
    """parse(entry), or the object an entry of the same JSON text was parsed to before."""
    if shared is None:
        return parse(entry)
    key = (parse, json.dumps(entry))
    value = shared.get(key)
    if value is None:
        value = shared[key] = parse(entry)
    return value


# One encoder for every line: the rows are the program's own acyclic dicts, so the cycle check is off.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _json_line(row: dict) -> str:
    return _LINE_ENCODER.encode(row) + "\n"


def write_jsonl(path, rows) -> None:
    """Write dicts as JSON lines, one key-sorted object per line (byte-stable)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(_json_line(row))


def read_jsonl(path, parse, check=None) -> list:
    """parse() each non-blank line's JSON object; errors name the file and line.

    check(row), if given, raises ValueError for a row the caller cannot use;
    like a malformed line, the error names the file and line.
    """
    out = []
    # a byte that is not UTF-8 reads as a lone surrogate, 0xDC00 + byte, caught on its own line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    byte, col = ord(line[e.start]) - 0xDC00, e.start + 1
                    raise CorpusFormatError(f"{path}: line {lineno}: not UTF-8 (byte 0x{byte:02x} at column {col})") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                row = parse(obj)
            except CorpusFormatError as e:
                raise CorpusFormatError(f"{path}: line {lineno}: {e}") from None
            except (ValueError, KeyError, TypeError) as e:
                raise CorpusFormatError(f"{path}: line {lineno}: malformed record ({e})") from None
            if check is not None:
                try:
                    check(row)
                except ValueError as e:
                    raise CorpusFormatError(f"{path}: line {lineno}: {e}") from None
            out.append(row)
    return out


def write_records(path, records) -> None:
    write_jsonl(path, (record_to_dict(r) for r in records))


def write_split_records(train_path, validation_path, records) -> None:
    """Write each record, as write_records does, to the file of its split tag, as it comes."""
    with open(train_path, "w", encoding="utf-8") as train, open(validation_path, "w", encoding="utf-8") as val:
        for r in records:
            (train if r.split_tag == "train" else val).write(_json_line(record_to_dict(r)))


def read_records(path, check=None) -> list[CorpusRecord]:
    """Records of a corpus file; check is as for read_jsonl.

    Equal workspace and task-graph entries of the file are read once (see
    record_from_dict); nothing is kept from one call to the next.
    """
    shared = {}
    return read_jsonl(path, lambda d: record_from_dict(d, shared), check)
