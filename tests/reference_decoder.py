"""Full-prefix greedy and beam decoding, the oracle for the batched decoder.

Each step re-runs the whole prefix through model.forward(prefix, ctx, w) and
masked_softmax, one hypothesis at a time, with no cache and no batching.
latticepath.decoder must return the same paths and termination kinds, with
scores equal up to float reassociation.
"""

import math
from dataclasses import dataclass

from latticepath.corpus import Trajectory
from latticepath.decoder import DecodeConfig, DecodedPath
from latticepath.lattice import STOP, LatticeCoord, Workspace, apply_move, in_bounds, manhattan
from latticepath.model import masked_softmax
from latticepath.taskgrid import TaskContext


def coverage_penalty(end: LatticeCoord, ctx: TaskContext, cfg: DecodeConfig) -> float:
    if ctx.target is None or cfg.coverage_penalty_weight == 0.0:
        return 0.0
    return cfg.coverage_penalty_weight * max(0, manhattan(end, ctx.target))


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
    score = log_sum - coverage_penalty(points[-1], ctx, cfg)
    return DecodedPath(trajectory=Trajectory(points=tuple(points)), score=score, terminated_by=terminated)


@dataclass(frozen=True)
class Hypothesis:
    points: tuple[LatticeCoord, ...]
    moves: tuple[int, ...]
    log_sum: float
    finished: bool

    def score(self, ctx: TaskContext, cfg: DecodeConfig) -> float:
        return self.log_sum - coverage_penalty(self.points[-1], ctx, cfg)


def reference_beam(model, start: LatticeCoord, ctx: TaskContext, w: Workspace,
                   cfg: DecodeConfig) -> DecodedPath:
    """Width-B search with the greedy rollout restored as a floor."""
    greedy = reference_greedy(model, start, ctx, w, cfg)
    if cfg.beam_width == 1:
        return greedy

    def rank_key(h: Hypothesis):
        return (-h.score(ctx, cfg), h.moves)

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
        score=best.score(ctx, cfg),
        terminated_by="stop_token" if best.finished else "max_steps",
    )
    return greedy if greedy.score > result.score else result


def reference_decode(model, start, ctx, w, cfg: DecodeConfig) -> DecodedPath:
    if cfg.mode == "beam":
        return reference_beam(model, start, ctx, w, cfg)
    return reference_greedy(model, start, ctx, w, cfg)
