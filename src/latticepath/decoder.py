"""Constrained decoding over the lattice: greedy and beam search.

Both decoders draw next-move probabilities from the model's legality-masked
softmax, so emitted paths satisfy adjacency and bounds by construction. A
hypothesis score is the sum of chosen-action log-probabilities minus an
optional coverage penalty (weighted Manhattan distance from the hypothesis
end to the context target), which discourages early truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import CorpusRecord, Trajectory, validate_path  # noqa: F401 (re-exported)
from .lattice import STOP, LatticeCoord, Workspace, apply_move, in_bounds, manhattan
from .model import masked_softmax
from .taskgrid import TaskContext

TERMINATION_KINDS = ("stop_token", "max_steps")


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


def _coverage_penalty(end: LatticeCoord, ctx: TaskContext, cfg: DecodeConfig) -> float:
    """Weighted remaining distance to the context target; 0 when no target."""
    if ctx.target is None or cfg.coverage_penalty_weight == 0.0:
        return 0.0
    return cfg.coverage_penalty_weight * max(0, manhattan(end, ctx.target))


def _log_prob(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def decode_greedy(
    model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig
) -> DecodedPath:
    """Argmax rollout under the legality mask.

    Each step takes the highest-probability legal action (ties resolve to the
    lowest canonical move index); the rollout stops on STOP or when max_steps
    moves have been taken.
    """
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    points = [start]
    log_sum = 0.0
    terminated = "max_steps"
    for _ in range(cfg.max_steps):
        probs = masked_softmax(model.forward(points, ctx, w))
        action = int(probs.argmax())
        log_sum += _log_prob(float(probs[action]))
        if action == STOP:
            terminated = "stop_token"
            break
        points.append(apply_move(points[-1], action))
    traj = Trajectory(points=tuple(points))
    score = log_sum - _coverage_penalty(points[-1], ctx, cfg)
    return DecodedPath(trajectory=traj, score=score, terminated_by=terminated)


@dataclass(frozen=True)
class _Hypothesis:
    points: tuple[LatticeCoord, ...]
    moves: tuple[int, ...]
    log_sum: float
    finished: bool

    def score(self, ctx: TaskContext, cfg: DecodeConfig) -> float:
        return self.log_sum - _coverage_penalty(self.points[-1], ctx, cfg)


def decode_beam(
    model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig
) -> DecodedPath:
    """Width-B search over legal action sequences.

    Finished hypotheses stay in the pool and compete on score; equal scores
    prefer the lexicographically smaller move sequence. The best finished
    hypothesis wins, else the best unfinished one at max_steps. The greedy
    rollout is scored as a floor: if pruning ever drops it, it is restored,
    so the returned score never falls below the greedy score.
    """
    if not in_bounds(start, w):
        raise ValueError(f"start {start} is out of bounds")
    greedy = decode_greedy(model, start, ctx, w, cfg)
    if cfg.beam_width == 1:
        return greedy

    def rank_key(h: _Hypothesis):
        return (-h.score(ctx, cfg), h.moves)

    beam = [_Hypothesis(points=(start,), moves=(), log_sum=0.0, finished=False)]
    for _ in range(cfg.max_steps):
        if all(h.finished for h in beam):
            break
        pool: list[_Hypothesis] = []
        for h in beam:
            if h.finished:
                pool.append(h)
                continue
            probs = masked_softmax(model.forward(list(h.points), ctx, w))
            legal = probs > 0.0
            for action in range(len(probs)):
                if not legal[action]:
                    continue
                lp = h.log_sum + _log_prob(float(probs[action]))
                if action == STOP:
                    pool.append(_Hypothesis(h.points, h.moves + (action,), lp, True))
                else:
                    nxt = apply_move(h.points[-1], action)
                    pool.append(_Hypothesis(h.points + (nxt,), h.moves + (action,), lp, False))
        pool.sort(key=rank_key)
        beam = pool[: cfg.beam_width]

    finished = [h for h in beam if h.finished]
    best = min(finished or beam, key=rank_key)
    result = DecodedPath(
        trajectory=Trajectory(points=best.points),
        score=best.score(ctx, cfg),
        terminated_by="stop_token" if best.finished else "max_steps",
    )
    if greedy.score > result.score:
        return greedy
    return result


def decode(model, start: LatticeCoord, ctx: TaskContext, w: Workspace, cfg: DecodeConfig) -> DecodedPath:
    """Dispatch on cfg.mode."""
    if cfg.mode == "beam":
        return decode_beam(model, start, ctx, w, cfg)
    return decode_greedy(model, start, ctx, w, cfg)


def decode_records(model, records: list[CorpusRecord], cfg: DecodeConfig) -> list[CorpusRecord]:
    """Decode from each record's start cell; predictions reuse the record schema.

    The output records carry the same workspace, context, seed, task graph,
    and split tag as their gold counterparts, so the evaluator can pair them.
    """
    out = []
    for r in records:
        d = decode(model, r.trajectory.start, r.context, r.workspace, cfg)
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
