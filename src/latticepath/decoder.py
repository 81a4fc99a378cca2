"""Constrained decoding over the lattice: one search loop for greedy and beam.

A decode call steps all of its rows together (records x live hypotheses):
at most one model step per decode step, with one (rows, 7) legality mask,
so emitted paths satisfy adjacency and bounds by construction. The search
state is row arrays (job, cell history, log-probability sum, and the rank
of the row's move sequence within its job), so each decode step is a fixed
number of array operations whatever the batch: one legality gather from a
GridStack (the batch's legality grids as one flat table), one candidate
expansion (the argmax at width 1, every action of nonzero probability at
wider widths), and, at wider widths, one lexsort that keeps the best
candidates of every job. The model is stepped through forward_batch with a
KV cache, so each step runs only the newest cell of each row. Greedy
decoding is the width-1 search; beam decoding runs the width-1 search as
its floor, keeping each of its model steps, then the width-B search. That
search takes the step of every row still on its job's greedy prefix from
the kept steps (by causality the same logits, keys and values; about three
rows in four on desk inputs), so only the other rows run through the
model, and it stops stepping the hypotheses that can no longer win against
the floor or against a finished hypothesis (see _search). A hypothesis
score is the sum of chosen-action log-probabilities (math.log, so scores
do not depend on numpy's log). DecodeCounters tallies model steps, rows
stepped, rows reused, candidates ranked, rows pruned, jobs decoded again
and terminations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import TERMINATION_KINDS, CorpusRecord, Trajectory, validate_path  # noqa: F401 (re-exported)
from .lattice import MOVES, STOP, GridStack, LatticeCoord, Workspace, in_bounds
from .model import KVCache, context_features
from .model import masked_softmax  # noqa: F401 (re-exported; perfbench/tracer.py wraps it)
from .taskgrid import TaskContext

# One decode job: start cell, task context, workspace.
Job = tuple[LatticeCoord, TaskContext, Workspace]


@dataclass(frozen=True)
class DecodeConfig:
    max_steps: int = 32
    beam_width: int = 5
    mode: str = "greedy"

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
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


class _Found(NamedTuple):
    """One job's search result as plain values: its path's cells as [x, y, z] lists."""

    cells: list[list[int]]
    score: float
    terminated_by: str

    def path(self) -> DecodedPath:
        return DecodedPath(Trajectory(points=tuple(LatticeCoord(*c) for c in self.cells)), self.score,
                           self.terminated_by)


@dataclass
class DecodeCounters:
    """Seed-determined tallies of decode calls; no timings.

    model_steps counts batched model steps, rows_stepped the rows they ran,
    rows_reused the beam rows whose step was taken from the greedy rollout
    instead (see _search), candidates the pool entries ranked at each decode
    step (each live row's expansions plus the finished hypotheses of its
    job; at width 1 one per row), rows_pruned the beam rows dropped below
    their job's bar, jobs_redecoded the jobs whose pruned beam was decoded
    again without a floor, and terminated how each returned path ended.
    """

    model_steps: int = 0
    rows_stepped: int = 0
    rows_reused: int = 0
    candidates: int = 0
    rows_pruned: int = 0
    jobs_redecoded: int = 0
    terminated: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TERMINATION_KINDS, 0))


# Cell offset of each action; STOP leaves a row on its cell.
_OFFSETS = np.array(MOVES + ((0, 0, 0),), dtype=np.int64)


@dataclass
class _Rows:
    """Hypotheses as parallel arrays, one entry per row.

    path (rows, t, 3) holds each row's cells; a finished row repeats its last
    cell, so every path has the same width. rank orders the move sequences of
    a job's beam lexicographically. action is the action that made the row
    (STOP: the row is finished) and parent the stepped row it extends.
    """

    job: np.ndarray
    path: np.ndarray
    log_sum: np.ndarray
    rank: np.ndarray
    action: np.ndarray
    parent: np.ndarray

    def __len__(self) -> int:
        return len(self.job)

    def take(self, idx) -> "_Rows":
        return _Rows(self.job[idx], self.path[idx], self.log_sum[idx], self.rank[idx], self.action[idx],
                     self.parent[idx])

    def __add__(self, other: "_Rows") -> "_Rows":
        if not len(self) or not len(other):  # an empty side may have a stale path width
            return other if len(other) else self
        return _Rows(*(np.concatenate(pair) for pair in zip(vars(self).values(), vars(other).values())))


def _children(live: _Rows, action: np.ndarray, p: np.ndarray, parent: np.ndarray | None = None) -> _Rows:
    """Rows `parent` of live (every row, in order, if None) extended by `action`, of probabilities p > 0."""
    src = live if parent is None else live.take(parent)
    cell = src.path[:, -1] + _OFFSETS[action]
    return _Rows(src.job, np.concatenate([src.path, cell[:, None]], axis=1), src.log_sum + _log(p), src.rank,
                 action, np.arange(len(live)) if parent is None else parent)


def _log(p: np.ndarray) -> np.ndarray:
    """math.log of each probability: libm's log, which np.log does not match bit for bit on every host."""
    return np.array([math.log(v) for v in p.tolist()])


def _position_in_job(job: np.ndarray) -> np.ndarray:
    """Position of each entry among the entries of its job; job must be sorted."""
    return np.arange(len(job)) - np.searchsorted(job, job)


def _best(pool: _Rows, width: int) -> _Rows:
    """The best `width` rows of every job by log_sum, in rank order, ranked afresh.

    A row's key is (job, -log_sum, rank, action): a child's move sequence is
    its parent's plus one action, and a finished row (action STOP, no
    children) compares with every child of another row as with that row,
    so the key orders each job as (-log_sum, move sequence) does.
    """
    order = np.lexsort((pool.action, pool.rank, -pool.log_sum, pool.job))
    kept = pool.take(order[_position_in_job(pool.job[order]) < width])
    lex = np.lexsort((kept.action, kept.rank, kept.job))
    kept.rank[lex] = _position_in_job(kept.job[lex])
    return kept


# the search ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Batch:
    """A decode call's jobs with their context features and legality table, built once for every stage."""

    jobs: list[Job]
    ctx_mat: np.ndarray
    grids: GridStack

    @classmethod
    def of(cls, model, jobs: list[Job]) -> "_Batch":
        return cls(jobs, np.array([context_features(ctx, model.cfg) for _, ctx, _ in jobs]),
                   GridStack.of([w for _, _, w in jobs]))

    def take(self, idx: list[int]) -> "_Batch":
        return _Batch([self.jobs[j] for j in idx], self.ctx_mat[idx], self.grids.take(np.array(idx, dtype=np.int64)))


@dataclass(frozen=True)
class _GreedyStep:
    """One model step of the greedy rollout, kept for the width-B search.

    job holds the stepped rows' jobs (ascending), probs their masked
    probabilities (rows, 7), and keys and values the per-layer keys and
    values (rows, heads, 1, head width) of the cell each row fed in.
    """

    job: np.ndarray
    probs: np.ndarray
    keys: list[np.ndarray]
    values: list[np.ndarray]


def _model_step(model, cells: np.ndarray, ctx_mat: np.ndarray, legal: np.ndarray, cache: KVCache,
                counters: DecodeCounters) -> np.ndarray:
    """Masked probabilities (rows, 7) of the next action from each row's cell; the cells join the cache."""
    with ad.no_grad():
        raw = model.forward_batch(cells[:, None], ctx_mat, cache).data[:, 0]
    counters.model_steps += 1
    counters.rows_stepped += len(cells)
    return ad.softmax(Tensor(raw), mask=legal).data


def _greedy_prefix(greedy: list[_GreedyStep], job: np.ndarray, t: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer keys and values (rows, heads, t, head width) of the first t cells of each job's greedy rollout."""
    at = [np.searchsorted(greedy[s].job, job) for s in range(t)]
    layers = range(len(greedy[0].keys))
    keys = [np.concatenate([greedy[s].keys[i][at[s]] for s in range(t)], axis=2) for i in layers]
    values = [np.concatenate([greedy[s].values[i][at[s]] for s in range(t)], axis=2) for i in layers]
    return keys, values


def _merged(cache: KVCache, slot: np.ndarray, cached: np.ndarray, prefix, t: int) -> KVCache:
    """A cache of t positions: where `cached`, rows `slot` of `cache`, in order; elsewhere the rows of
    `prefix` (per-layer keys and values, as from _greedy_prefix)."""
    out = KVCache()
    out.t = t
    for old, pre, new in zip((cache.keys, cache.values), prefix, (out.keys, out.values)):
        if not cached.any():  # `cache` may be empty, with no layers
            new.extend(pre)
            continue
        for a, p in zip(old, pre):
            rows = np.empty((len(cached), *p.shape[1:]))
            rows[cached], rows[~cached] = a[slot], p
            new.append(rows)
    return out


def _search(model, batch: _Batch, cfg: DecodeConfig, width: int, counters: DecodeCounters,
            floor: list[_Found] | None = None, greedy: list[_GreedyStep] | None = None) -> list[_Found]:
    """Width-`width` search for every job at once; at most one batched model step per decode step.

    Width 1 takes the highest-probability legal action of each row (ties
    resolve to the lowest canonical move index): the greedy rollout. Wider
    searches expand every action of nonzero probability; finished hypotheses
    stay in the pool and compete on score, equal scores prefer the
    lexicographically smaller move sequence, and the best `width` survive.
    A job stops stepping once its beam holds only finished hypotheses. The
    best finished hypothesis wins, else the best unfinished one at max_steps.
    Each job's result is plain values (a _Found): decode_batch builds a
    DecodedPath only for the path it returns.

    Given `greedy`, the width-1 search appends each of its model steps to
    it, and a wider search of the same jobs reuses them. A row is on its
    job's greedy prefix if it is a start row, or its parent was and its
    action is the greedy action at that step (the argmax of the parent's
    probabilities). Such a row has the cells, context and workspace of the
    greedy row of that step, so by causality its logits and its new cell's
    keys and values are the greedy row's: it takes them from `greedy`, and
    only the other rows go through the model and its KV cache. A step with
    no other row makes no model call; the start rows are one. A row that
    leaves the greedy prefix (its parent was on it, its action is not the
    greedy one) joins the cache with the keys and values of its parent's
    cells from `greedy`. Ranking, pruning and the result are those of
    stepping every row. In floating point the reused numbers come from the
    greedy step's product, not from one that holds the beam's rows;
    OpenBLAS runs a one-row product with another kernel, so a one-row
    product can differ in its last bits from the same row computed
    alongside others, and so can a score.

    Given `floor` (each job's greedy path), every step but the last drops
    the live rows whose log_sum is below their job's bar: the higher of the
    floor (the greedy score if that rollout stopped, else -inf) and the best
    finished hypothesis in the job's beam. This returns what decode_batch
    returns unpruned:
    - math.log(p) <= 0, so a row's log_sum, and in floating point every
      descendant's too, is at most its own;
    - a row's score is its log_sum, so every row at or above the bar ranks
      above every row below it. Rows below the bar never displace one at or
      above it, and the rows at or above the bar evolve as they do unpruned.
      When a finished row leaves the beam and the bar falls, B rows ranked
      above it, so the beam is the unpruned beam again;
    - decode_batch returns `g if g.score > b.score else b`, so an answer
      below the floor is never returned: a job that pruning left with no
      row returns its floor.
    A finished hypothesis wins over unfinished ones, so whether any row
    below the floor survives to max_steps can decide the result. A job is
    therefore settled unless pruning dropped one of its rows and, at
    max_steps, it has no finished row at or above its floor and holds some
    but fewer than `width` rows at or above it. Those jobs are decoded again
    without a floor, in one call.
    """
    ctx_mat, grids = batch.ctx_mat, batch.grids
    cache = KVCache()  # keys and values of the rows that step (those off the greedy prefix), in row order
    n = len(batch.jobs)
    none = np.full(n, -1)
    starts = np.array([start.as_tuple() for start, _, _ in batch.jobs], dtype=np.int64).reshape(n, 1, 3)
    live = _Rows(np.arange(n), starts, np.zeros(n), np.zeros(n, dtype=np.int64), none, none)
    done = live.take(slice(0, 0))
    reuse = greedy is not None and width > 1
    on_greedy = np.full(n, reuse)
    if floor is not None:
        floor_score = np.array([g.score if g.terminated_by == "stop_token" else -math.inf for g in floor])
        cut = np.zeros(n, dtype=bool)  # jobs that lost a row to the bar

    for step in range(cfg.max_steps):
        if not len(live):
            break
        legal = np.ones((len(live), STOP + 1), dtype=bool)
        legal[:, :STOP] = grids.move_mask(live.path[:, -1])
        if not on_greedy.any():
            probs = _model_step(model, live.path[:, -1], ctx_mat, legal, cache, counters)
        else:  # the rows on the greedy prefix are rows of the greedy rollout's step
            rec = greedy[step]
            probs = np.empty((len(live), STOP + 1))
            probs[on_greedy] = rec.probs[np.searchsorted(rec.job, live.job[on_greedy])]
            counters.rows_reused += int(on_greedy.sum())
            stepped = np.flatnonzero(~on_greedy)
            if len(stepped):
                probs[stepped] = _model_step(model, live.path[stepped, -1], ctx_mat[stepped], legal[stepped], cache,
                                             counters)
        if greedy is not None and width == 1:
            greedy.append(_GreedyStep(live.job, probs, [k[:, :, -1:].copy() for k in cache.keys],
                                      [v[:, :, -1:].copy() for v in cache.values]))
        if width == 1:
            pool = _children(live, probs.argmax(axis=1), probs.max(axis=1))
        else:
            parent, action = np.nonzero(probs > 0.0)
            pool = _children(live, action, probs[parent, action], parent)
        if len(done):
            done.path = np.concatenate([done.path, done.path[:, -1:]], axis=1)  # finished rows stay put
        if width > 1 and len(done):  # the finished rows of a stepping job compete with its new candidates
            stepping = np.zeros(n, dtype=bool)
            stepping[live.job] = True
            waiting = stepping[done.job]
            if waiting.all():
                pool, done = pool + done, done.take(slice(0, 0))
            else:
                pool, done = pool + done.take(waiting), done.take(~waiting)
        counters.candidates += len(pool)
        if width > 1:  # at width 1 every job has one candidate: nothing to rank
            pool = _best(pool, width)
        finished = pool.action == STOP
        if finished.any():
            done, pool = done + pool.take(finished), pool.take(~finished)
        if floor is not None and step + 1 < cfg.max_steps:  # no model step follows the last
            bar = floor_score.copy()
            np.maximum.at(bar, done.job, done.log_sum)
            low = pool.log_sum < bar[pool.job]
            if low.any():
                counters.rows_pruned += int(low.sum())
                cut[pool.job[low]] = True
                pool = pool.take(~low)
        if reuse:  # a child stays on the greedy prefix if its parent was and it took the greedy action
            stays = np.where(on_greedy, probs.argmax(axis=1), -1)[pool.parent] == pool.action
            # the next cache: the rows of stepped parents, and the greedy prefix of each row leaving it
            goes = np.flatnonzero(~stays)
            parent = pool.parent[goes]
            cached = ~on_greedy[parent]
            slot = (np.cumsum(~on_greedy) - 1)[parent[cached]]  # a stepped parent's row in the cache
            if cached.all():
                cache = cache.take(slot)
            else:
                prefix = _greedy_prefix(greedy, pool.job[goes[~cached]], step + 1)
                cache = _merged(cache, slot, cached, prefix, step + 1)
            on_greedy = stays
        elif width > 1 or len(pool) < len(live):
            cache = cache.take(pool.parent)
        if width > 1 or len(pool) < len(live):  # gather the rows that go on
            ctx_mat, grids = ctx_mat[pool.parent], grids.take(pool.parent)
        live = pool

    rows = done + live
    order = np.lexsort((rows.rank, -rows.log_sum, rows.action != STOP, rows.job))
    kept, first = np.unique(rows.job[order], return_index=True)
    best = order[first]
    out = list(floor) if floor is not None else [None] * n  # a job left with no row returns its floor
    for j, b, path in zip(kept.tolist(), best.tolist(), rows.path[best].tolist()):
        while len(path) > 1 and path[-1] == path[-2]:  # a finished row repeats its last cell
            path.pop()
        out[j] = _Found(path, float(rows.log_sum[b]), "stop_token" if rows.action[b] == STOP else "max_steps")
    if floor is not None:
        above = np.zeros(n, dtype=bool)
        above[done.job[done.log_sum >= floor_score[done.job]]] = True
        holding = np.bincount(live.job[live.log_sum >= floor_score[live.job]], minlength=n)
        redo = np.flatnonzero(cut & ~above & (holding > 0) & (holding < width)).tolist()
        if redo:
            counters.jobs_redecoded += len(redo)
            for j, d in zip(redo, _search(model, batch.take(redo), cfg, width, counters)):
                out[j] = d
    return out


def decode_batch(model, jobs: list[Job], cfg: DecodeConfig, counters: DecodeCounters | None = None) -> list[DecodedPath]:
    """Decode every (start, ctx, workspace) job together, dispatching on cfg.mode.

    Beam mode runs the greedy rollout first, keeping each of its model
    steps, then the width-B search, which takes the step of every row still
    on its job's greedy prefix from those instead of the model (see
    _search): on seed-1 desk_decode inputs that is about three rows in four.
    The greedy rollout is also a floor: where the width-B search ends below
    it, the greedy path is returned, so the beam score never falls below
    the greedy score. The greedy paths also go into the width-B search,
    which drops the hypotheses that can no longer beat them. Width 1
    returns the greedy paths. Both stages share one batch of context
    features and legality grids.
    """
    for start, _, w in jobs:
        if not in_bounds(start, w):
            raise ValueError(f"start {start} is out of bounds")
    counters = DecodeCounters() if counters is None else counters
    batch = _Batch.of(model, jobs)
    beam = cfg.mode == "beam" and cfg.beam_width > 1
    greedy = [] if beam else None
    found = _search(model, batch, cfg, 1, counters, greedy=greedy)
    if beam:
        beams = _search(model, batch, cfg, cfg.beam_width, counters, found, greedy)
        found = [g if g.score > b.score else b for g, b in zip(found, beams)]
    for f in found:
        counters.terminated[f.terminated_by] += 1
    return [f.path() for f in found]


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
    counterparts, so the evaluator can pair them, plus each path's score and
    termination kind.
    """
    jobs = [(r.trajectory.start, r.context, r.workspace) for r in records]
    out = []
    for r, d in zip(records, decode_batch(model, jobs, cfg, counters)):
        traj = Trajectory(points=d.trajectory.points, task=r.trajectory.task, seed=r.trajectory.seed)
        out.append(CorpusRecord(trajectory=traj, workspace=r.workspace, context=r.context, split_tag=r.split_tag,
                                score=d.score, terminated_by=d.terminated_by))
    return out
