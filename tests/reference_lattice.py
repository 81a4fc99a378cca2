"""Cell-by-cell BFS and corpus generation, the oracle for the flat-index lattice core.

oracle_path searches over LatticeCoord objects with neighbors() and a parent
dict; generate_corpus samples obstacles from an explicit list of every cell of
the box and runs the BFS on every attempt. latticepath.corpus must return the
same paths, raise on the same unreachable pairs and write the same corpus
bytes. legal_mask_rows builds make_loss_batch's legality array with
legal_moves, one cell at a time.
"""

import random
from collections import deque
from dataclasses import replace

import numpy as np

from latticepath.corpus import (
    _TASK_TEMPLATES,
    CorpusRecord,
    GenerationConfig,
    Trajectory,
    UnreachableGoalError,
    split_records,
    splitmix64,
)
from latticepath.lattice import LatticeCoord, Workspace, in_bounds, legal_moves, neighbors
from latticepath.taskgrid import build_context, chain_graph


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
    return split_records(records, cfg.train_fraction)


def legal_mask_rows(traj: Trajectory, w: Workspace, T: int) -> np.ndarray:
    """(T, 7) legality of one padded make_loss_batch row: STOP always legal, padding repeats the end."""
    rows = [legal_moves(p, w) + [True] for p in traj.points]
    rows += [rows[-1]] * (T - len(rows))
    return np.array(rows, dtype=bool)
