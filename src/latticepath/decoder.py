"""Constrained decoding over the lattice: one search loop for greedy and beam.

A decode call steps all of its rows together (records x live hypotheses):
one model step per decode step, with one (rows, 7) legality mask, so emitted
paths satisfy adjacency and bounds by construction. A PathModel is stepped
through its KV cache, so each step runs only the newest cell of each row;
any other model is stepped through its full-prefix forward(prefix, ctx, w),
one row at a time. Greedy decoding is the width-1 search; beam decoding runs
the width-1 search as its floor, then the width-B search. A hypothesis score
is the sum of chosen-action log-probabilities minus an optional coverage
penalty (weighted Manhattan distance from the hypothesis end to the context
target), which discourages early truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import CorpusRecord, Trajectory, validate_path  # noqa: F401 (re-exported)
from .lattice import STOP, LatticeCoord, Workspace, apply_move, in_bounds, manhattan
from .model import KVCache, PathModel, context_features
from .model import masked_softmax  # noqa: F401 (re-exported; perfbench/tracer.py wraps it)
from .taskgrid import TaskContext

TERMINATION_KINDS = ("stop_token", "max_steps")

# One decode job: start cell, task context, workspace.
Job = tuple[LatticeCoord, TaskContext, Workspace]


@dataclass(frozen=True)
class DecodeConfig:
    max_steps: int = 32
    beam_width: int = 5
    coverage_penalty_weight: float = 0.0
    mode: str = "greedy"

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.coverage_penalty_weight < 0:
            raise ValueError("coverage_penalty_weight must be non-negative")
        if self.mode not in ("greedy", "beam"):
            raise ValueError(f"mode must be 'greedy' or 'beam', got {self.mode!r}")


@dataclass(frozen=True)
class DecodedPath:
    trajectory: Trajectory
    score: float
    terminated_by: str

    def __post_init__(self) -> None:
        if self.terminated_by not in TERMINATION_KINDS:
            raise ValueError(f"unknown termination kind {self.terminated_by!r}")


@dataclass
class DecodeCounters:
    """Seed-determined tallies of decode calls; no timings.

    model_steps counts batched model steps, rows_stepped the rows they ran,
    and terminated how each returned path ended.
    """

    model_steps: int = 0
    rows_stepped: int = 0
    terminated: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TERMINATION_KINDS, 0))


def _coverage_penalty(end: LatticeCoord, ctx: TaskContext, cfg: DecodeConfig) -> float:
    """Weighted remaining distance to the context target; 0 when no target."""
    if ctx.target is None or cfg.coverage_penalty_weight == 0.0:
        return 0.0
    return cfg.coverage_penalty_weight * max(0, manhattan(end, ctx.target))


def _log_prob(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


@dataclass(frozen=True)
class _Hypothesis:
    points: tuple[LatticeCoord, ...]
    moves: tuple[int, ...]
    log_sum: float
    finished: bool

    def score(self, ctx: TaskContext, cfg: DecodeConfig) -> float:
        return self.log_sum - _coverage_penalty(self.points[-1], ctx, cfg)

    def extend(self, action: int, p: float) -> "_Hypothesis":
        lp = self.log_sum + _log_prob(p)
        if action == STOP:
            return _Hypothesis(self.points, self.moves + (action,), lp, True)
        nxt = apply_move(self.points[-1], action)
        return _Hypothesis(self.points + (nxt,), self.moves + (action,), lp, False)


# step adapters: raw logits and legality masks for the newest cell of each row ----------


class _CachedStep:
    """PathModel rows stepped through one KV cache; rows follow their job order at first."""

    def __init__(self, model: PathModel, jobs: list[Job]):
        self.model = model
        self.jobs = jobs
        self.ctx_mat = np.array([context_features(ctx, model.cfg) for _, ctx, _ in jobs])
        self.cache = KVCache()

    def __call__(self, rows: list[tuple[int, _Hypothesis]]) -> tuple[np.ndarray, np.ndarray]:
        pts = np.array([[h.points[-1].as_tuple()] for _, h in rows], dtype=np.int64)
        with ad.no_grad():
            raw = self.model.forward_batch(pts, self.ctx_mat, self.cache).data[:, 0]
        legal = np.ones((len(rows), STOP + 1), dtype=bool)
        for r, (j, _) in enumerate(rows):
            legal[r, :STOP] = self.jobs[j][2].grid.move_mask(pts[r, 0])
        return raw, legal

    def keep(self, parents: np.ndarray) -> None:
        self.cache.keep(parents)
        self.ctx_mat = self.ctx_mat[parents]


class _PrefixStep:
    """Rows stepped one at a time through a model's full-prefix forward(prefix, ctx, w)."""

    def __init__(self, model, jobs: list[Job]):
        self.model = model
        self.jobs = jobs

    def __call__(self, rows: list[tuple[int, _Hypothesis]]) -> tuple[np.ndarray, np.ndarray]:
        steps = [self.model.forward(list(h.points), self.jobs[j][1], self.jobs[j][2]) for j, h in rows]
        return np.array([s.raw for s in steps]), np.array([s.legal_mask for s in steps])

    def keep(self, parents: np.ndarray) -> None:
        pass


# the search ---------------------------------------------------------------------------


def _search(model, jobs: list[Job], cfg: DecodeConfig, width: int, counters: DecodeCounters) -> list[DecodedPath]:
    """Width-`width` search for every job at once; one batched model step per decode step.

    Width 1 takes the highest-probability legal action of each row (ties
    resolve to the lowest canonical move index): the greedy rollout. Wider
    searches expand every action of nonzero probability; finished hypotheses
    stay in the pool and compete on score, equal scores prefer the
    lexicographically smaller move sequence, and the best `width` survive.
    A job stops stepping once its beam holds only finished hypotheses. The
    best finished hypothesis wins, else the best unfinished one at max_steps.
    """
    step = _CachedStep(model, jobs) if isinstance(model, PathModel) else _PrefixStep(model, jobs)
    beams = [[_Hypothesis((start,), (), 0.0, False)] for start, _, _ in jobs]
    rows = [(j, beam[0]) for j, beam in enumerate(beams)]

    def rank(j: int, h: _Hypothesis):
        return (-h.score(jobs[j][1], cfg), h.moves)

    for _ in range(cfg.max_steps):
        if not rows:
            break
        raw, legal = step(rows)
        probs = ad.softmax(Tensor(raw), mask=legal).data
        counters.model_steps += 1
        counters.rows_stepped += len(rows)
        pools: dict[int, list[tuple[_Hypothesis, int]]] = {}
        for r, ((j, h), p) in enumerate(zip(rows, probs)):
            if j not in pools:
                pools[j] = [(f, -1) for f in beams[j] if f.finished]
            actions = [int(p.argmax())] if width == 1 else np.flatnonzero(p > 0.0)
            pools[j].extend((h.extend(int(a), float(p[a])), r) for a in actions)
        rows = []
        parents = []
        for j, pool in pools.items():
            pool.sort(key=lambda c: rank(j, c[0]))
            beams[j] = [h for h, _ in pool[:width]]
            for h, r in pool[:width]:
                if not h.finished:
                    rows.append((j, h))
                    parents.append(r)
        step.keep(np.array(parents, dtype=np.int64))

    out = []
    for j, beam in enumerate(beams):
        best = min([h for h in beam if h.finished] or beam, key=lambda h: rank(j, h))
        out.append(DecodedPath(
            trajectory=Trajectory(points=best.points),
            score=best.score(jobs[j][1], cfg),
            terminated_by="stop_token" if best.finished else "max_steps",
        ))
    return out


def decode_batch(model, jobs: list[Job], cfg: DecodeConfig, counters: DecodeCounters | None = None) -> list[DecodedPath]:
    """Decode every (start, ctx, workspace) job together, dispatching on cfg.mode.

    Beam mode scores the greedy rollout as a floor: where the width-B search
    ends below it, the greedy path is returned, so the beam score never falls
    below the greedy score. Width 1 returns the greedy paths.
    """
    for start, _, w in jobs:
        if not in_bounds(start, w):
            raise ValueError(f"start {start} is out of bounds")
    counters = DecodeCounters() if counters is None else counters
    paths = _search(model, jobs, cfg, 1, counters)
    if cfg.mode == "beam" and cfg.beam_width > 1:
        beams = _search(model, jobs, cfg, cfg.beam_width, counters)
        paths = [g if g.score > b.score else b for g, b in zip(paths, beams)]
    for d in paths:
        counters.terminated[d.terminated_by] += 1
    return paths


def decode_greedy(
    model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig
) -> DecodedPath:
    """Argmax rollout under the legality mask: the width-1 search."""
    return decode_batch(model, [(start, ctx, w)], replace(cfg, mode="greedy"))[0]


def decode_beam(
    model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig
) -> DecodedPath:
    """Width-B search with the greedy rollout as its floor."""
    return decode_batch(model, [(start, ctx, w)], replace(cfg, mode="beam"))[0]


def decode(model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig) -> DecodedPath:
    """Decode one start cell, dispatching on cfg.mode."""
    return decode_batch(model, [(start, ctx, w)], cfg)[0]


def decode_records(
    model, records: list[CorpusRecord], cfg: DecodeConfig, counters: DecodeCounters | None = None
) -> list[CorpusRecord]:
    """Decode from each record's start cell, all records in one batch.

    Predictions reuse the record schema: the output records carry the same
    workspace, context, seed, task graph, and split tag as their gold
    counterparts, so the evaluator can pair them.
    """
    jobs = [(r.trajectory.start, r.context, r.workspace) for r in records]
    out = []
    for r, d in zip(records, decode_batch(model, jobs, cfg, counters)):
        traj = Trajectory(points=d.trajectory.points, task=r.trajectory.task, seed=r.trajectory.seed)
        out.append(
            CorpusRecord(
                trajectory=traj,
                workspace=r.workspace,
                context=r.context,
                split_tag=r.split_tag,
            )
        )
    return out
