"""Reference decoders, the oracles for latticepath.decoder.

reference_greedy / reference_beam re-run the whole prefix through
model.forward(prefix, ctx, w) and masked_softmax, one hypothesis at a time,
with no cache and no batching; latticepath.decoder must return the same
paths and termination kinds, with scores equal up to float reassociation.

reference_decode_batch is the object-pool search that the array-state search
replaced: the same batched model steps (KV cache for a PathModel), with one
hypothesis object per row, a per-row legality mask and a pool sorted on
(-score, moves) tuples. latticepath.decoder.decode_batch must return
DecodedPaths equal to its own, scores included, and the same counters where
nothing is pruned, but for the rows its width-B search reuses from the
greedy rollout instead of stepping them.
"""

import math
from dataclasses import dataclass

import numpy as np

from latticepath import autodiff as ad
from latticepath.autodiff import Tensor
from latticepath.corpus import Trajectory
from latticepath.decoder import DecodeConfig, DecodeCounters, DecodedPath
from latticepath.lattice import MOVES, STOP, LatticeCoord, Workspace, in_bounds
from latticepath.model import KVCache, PathModel, context_features, masked_softmax
from latticepath.taskgrid import TaskContext


def apply_move(p: LatticeCoord, idx: int) -> LatticeCoord:
    """Cell reached from p by canonical move idx (0..5)."""
    return p.offset(*MOVES[idx])


def log_prob(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def reference_greedy(model, start: LatticeCoord, ctx: TaskContext, w: Workspace,
                     cfg: DecodeConfig) -> DecodedPath:
    """Argmax rollout; ties resolve to the lowest canonical move index."""
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    points = [start]
    log_sum = 0.0
    terminated = "max_steps"
    for _ in range(cfg.max_steps):
        probs = masked_softmax(model.forward(points, ctx, w))
        action = int(probs.argmax())
        log_sum += log_prob(float(probs[action]))
        if action == STOP:
            terminated = "stop_token"
            break
        points.append(apply_move(points[-1], action))
    return DecodedPath(trajectory=Trajectory(points=tuple(points)), score=log_sum, terminated_by=terminated)


@dataclass(frozen=True)
class Hypothesis:
    points: tuple[LatticeCoord, ...]
    moves: tuple[int, ...]
    log_sum: float
    finished: bool

    def extend(self, action: int, p: float) -> "Hypothesis":
        lp = self.log_sum + log_prob(p)
        if action == STOP:
            return Hypothesis(self.points, self.moves + (action,), lp, True)
        nxt = apply_move(self.points[-1], action)
        return Hypothesis(self.points + (nxt,), self.moves + (action,), lp, False)


def reference_beam(model, start: LatticeCoord, ctx: TaskContext, w: Workspace,
                   cfg: DecodeConfig) -> DecodedPath:
    """Width-B search with the greedy rollout restored as a floor."""
    greedy = reference_greedy(model, start, ctx, w, cfg)
    if cfg.beam_width == 1:
        return greedy

    def rank_key(h: Hypothesis):
        return (-h.log_sum, h.moves)

    beam = [Hypothesis(points=(start,), moves=(), log_sum=0.0, finished=False)]
    for _ in range(cfg.max_steps):
        if all(h.finished for h in beam):
            break
        pool: list[Hypothesis] = []
        for h in beam:
            if h.finished:
                pool.append(h)
                continue
            probs = masked_softmax(model.forward(list(h.points), ctx, w))
            for action in range(len(probs)):
                if not probs[action] > 0.0:
                    continue
                lp = h.log_sum + log_prob(float(probs[action]))
                if action == STOP:
                    pool.append(Hypothesis(h.points, h.moves + (action,), lp, True))
                else:
                    nxt = apply_move(h.points[-1], action)
                    pool.append(Hypothesis(h.points + (nxt,), h.moves + (action,), lp, False))
        pool.sort(key=rank_key)
        beam = pool[: cfg.beam_width]

    finished = [h for h in beam if h.finished]
    best = min(finished or beam, key=rank_key)
    result = DecodedPath(
        trajectory=Trajectory(points=best.points),
        score=best.log_sum,
        terminated_by="stop_token" if best.finished else "max_steps",
    )
    return greedy if greedy.score > result.score else result


def reference_decode(model, start, ctx, w, cfg: DecodeConfig) -> DecodedPath:
    if cfg.mode == "beam":
        return reference_beam(model, start, ctx, w, cfg)
    return reference_greedy(model, start, ctx, w, cfg)


# the object-pool batched search ------------------------------------------------------


class CachedStep:
    """PathModel rows stepped through one KV cache; one legality mask call per row."""

    def __init__(self, model: PathModel, jobs):
        self.model = model
        self.jobs = jobs
        self.ctx_mat = np.array([context_features(ctx, model.cfg) for _, ctx, _ in jobs])
        self.cache = KVCache()

    def __call__(self, rows):
        pts = np.array([[h.points[-1].as_tuple()] for _, h in rows], dtype=np.int64)
        with ad.no_grad():
            raw = self.model.forward_batch(pts, self.ctx_mat, self.cache).data[:, 0]
        legal = np.ones((len(rows), STOP + 1), dtype=bool)
        for r, (j, _) in enumerate(rows):
            legal[r, :STOP] = self.jobs[j][2].grid.move_mask(pts[r, 0])
        return raw, legal

    def keep(self, parents: np.ndarray) -> None:
        self.cache = self.cache.take(parents)
        self.ctx_mat = self.ctx_mat[parents]


class PrefixStep:
    """Rows stepped one at a time through a model's full-prefix forward(prefix, ctx, w)."""

    def __init__(self, model, jobs):
        self.model = model
        self.jobs = jobs

    def __call__(self, rows):
        steps = [self.model.forward(list(h.points), self.jobs[j][1], self.jobs[j][2]) for j, h in rows]
        return np.array([s.raw for s in steps]), np.array([s.legal_mask for s in steps])

    def keep(self, parents: np.ndarray) -> None:
        pass


def reference_search(model, jobs, cfg: DecodeConfig, width: int, counters: DecodeCounters) -> list[DecodedPath]:
    """Width-`width` search for every job at once, one hypothesis object per row."""
    step = CachedStep(model, jobs) if isinstance(model, PathModel) else PrefixStep(model, jobs)
    beams = [[Hypothesis((start,), (), 0.0, False)] for start, _, _ in jobs]
    rows = [(j, beam[0]) for j, beam in enumerate(beams)]

    def rank(h: Hypothesis):
        return (-h.log_sum, h.moves)

    for _ in range(cfg.max_steps):
        if not rows:
            break
        raw, legal = step(rows)
        probs = ad.softmax(Tensor(raw), mask=legal).data
        counters.model_steps += 1
        counters.rows_stepped += len(rows)
        pools: dict[int, list[tuple[Hypothesis, int]]] = {}
        for r, ((j, h), p) in enumerate(zip(rows, probs)):
            if j not in pools:
                pools[j] = [(f, -1) for f in beams[j] if f.finished]
            actions = [int(p.argmax())] if width == 1 else np.flatnonzero(p > 0.0)
            pools[j].extend((h.extend(int(a), float(p[a])), r) for a in actions)
        counters.candidates += sum(len(pool) for pool in pools.values())
        rows = []
        parents = []
        for j, pool in pools.items():
            pool.sort(key=lambda c: rank(c[0]))
            beams[j] = [h for h, _ in pool[:width]]
            for h, r in pool[:width]:
                if not h.finished:
                    rows.append((j, h))
                    parents.append(r)
        step.keep(np.array(parents, dtype=np.int64))

    out = []
    for j, beam in enumerate(beams):
        best = min([h for h in beam if h.finished] or beam, key=rank)
        out.append(DecodedPath(
            trajectory=Trajectory(points=best.points),
            score=best.log_sum,
            terminated_by="stop_token" if best.finished else "max_steps",
        ))
    return out


def reference_decode_batch(model, jobs, cfg: DecodeConfig, counters: DecodeCounters | None = None):
    """decode_batch over reference_search: the greedy rollout, then the beam with it as a floor."""
    counters = DecodeCounters() if counters is None else counters
    paths = reference_search(model, jobs, cfg, 1, counters)
    if cfg.mode == "beam" and cfg.beam_width > 1:
        beams = reference_search(model, jobs, cfg, cfg.beam_width, counters)
        paths = [g if g.score > b.score else b for g, b in zip(paths, beams)]
    for d in paths:
        counters.terminated[d.terminated_by] += 1
    return paths
