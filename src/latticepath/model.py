"""Causal transformer over lattice prefixes with a 7-way constrained move head.

The per-step embedding sums three learned components: per-axis goal-sign
tables, a projection of the task-context features, and a learned position
table. Each goal-sign table has three rows, indexed by the sign of target
minus cell on its axis (below, level, above), so the "where" input says only
in which direction the target lies; a row with no target adds zeros. No
input depends on absolute coordinates: a model has no box, and a path, its
target and its workspace shifted together get bit-equal logits. The output
head scores the six canonical moves plus STOP; legality masks force illegal
moves to -inf before the softmax, so decoded motion is lattice-legal by
construction. Training optimizes a five-term composite loss; its coord term
scores the successor mass that lands on the gold path, read from one
per-record on-path mask.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Trajectory, check_trajectory
from .lattice import MOVES, STOP, Workspace, in_bounds, move_index, read_int, read_number
from .lattice import legal_moves  # noqa: F401 (perfbench/tracer.py wraps model.legal_moves)
from .taskgrid import TASK_FEATURE_WIDTH, TaskContext

MOVE_VOCAB = len(MOVES) + 1  # six canonical moves + STOP

# target x/y/z as integers + has-target flag, appended to the task features
GOAL_FEATURE_WIDTH = 4


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    max_seq_len: int = 32
    task_feature_width: int = TASK_FEATURE_WIDTH
    move_vocab: int = MOVE_VOCAB

    def __post_init__(self) -> None:
        for name, least in (("embed_dim", 1), ("num_heads", 1), ("num_layers", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")
        if self.move_vocab != MOVE_VOCAB:
            raise ValueError(f"move_vocab is fixed at {MOVE_VOCAB}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict, as a checkpoint's model_config entry: a missing key is a KeyError, a value
        that is not an integer a ValueError naming it (model_config.<key>), and extra keys are ignored."""
        return cls(**{f.name: read_int(d[f.name], f"model_config.{f.name}") for f in fields(cls)})


@dataclass(frozen=True)
class StepLogits:
    """Raw and legality-masked move scores for one decoding step."""

    raw: np.ndarray
    legal_mask: np.ndarray
    masked: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw, dtype=np.float64)
        legal = np.asarray(self.legal_mask, dtype=bool)
        if raw.shape != (MOVE_VOCAB,) or legal.shape != (MOVE_VOCAB,):
            raise ValueError(f"StepLogits expects vectors of length {MOVE_VOCAB}")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "legal_mask", legal)
        object.__setattr__(self, "masked", np.where(legal, raw, -np.inf))


def masked_softmax(s: StepLogits) -> np.ndarray:
    """Probabilities over legal entries; exactly zero on illegal ones."""
    return ad.softmax(Tensor(s.raw), mask=s.legal_mask).data


class KVCache:
    """Per-layer attention keys and values of rows decoded one position at a time.

    Inference only: it holds plain arrays, so no gradient flows through cached
    positions. `t` counts the positions cached so far; every row has the same
    count. `take` returns a cache of the rows it selects, in its order.
    """

    def __init__(self):
        self.t = 0
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append (rows, heads, T, dh) keys and values; return every cached position."""
        if layer == len(self.keys):
            self.keys.append(k)
            self.values.append(v)
        else:
            self.keys[layer] = np.concatenate([self.keys[layer], k], axis=2)
            self.values[layer] = np.concatenate([self.values[layer], v], axis=2)
        return self.keys[layer], self.values[layer]

    def take(self, rows: np.ndarray) -> "KVCache":
        sub = KVCache()
        sub.t = self.t
        sub.keys = [k[rows] for k in self.keys]
        sub.values = [v[rows] for v in self.values]
        return sub


def context_features(ctx: TaskContext, cfg: ModelConfig) -> np.ndarray:
    """Task features plus the goal block: the target's x, y, z as integers (exact in float64) and a
    has-target flag, or four zeros without a target. The task features feed task_w; the goal block only
    picks the goal-sign rows of each cell."""
    feat = np.asarray(ctx.task_feature_vector, dtype=np.float64)
    if feat.shape != (cfg.task_feature_width,):
        raise ValueError(
            f"context feature width {feat.shape} does not match configured "
            f"task_feature_width {cfg.task_feature_width}"
        )
    goal = np.zeros(GOAL_FEATURE_WIDTH) if ctx.target is None else np.array([*ctx.target.as_tuple(), 1.0])
    return np.concatenate([feat, goal])


def _check_lengths(lengths, B: int, T: int, cache) -> np.ndarray:
    """forward_batch's real-position counts as an int array; raises ValueError naming the violation."""
    if cache is not None:
        raise ValueError("lengths cannot be combined with a cache")
    lengths = np.asarray(lengths)
    if lengths.shape != (B,):
        raise ValueError(f"lengths must have shape ({B},), got {lengths.shape}")
    if not np.issubdtype(lengths.dtype, np.integer):
        raise ValueError(f"lengths must be integers, got dtype {lengths.dtype}")
    if lengths.min() < 1 or lengths.max() > T:
        raise ValueError(f"lengths must lie in 1..{T}, got {lengths.min()}..{lengths.max()}")
    return lengths


class PathModel:
    """Transformer parameters plus the forward pass."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    def _init_params(self, rng) -> None:
        d = self.cfg.embed_dim
        scale = 1.0 / math.sqrt(d)

        def uniform(name, *shape):
            self.params[name] = Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)

        def ones(name, *shape):
            self.params[name] = Tensor(np.ones(shape), requires_grad=True)

        def zeros(name, *shape):
            self.params[name] = Tensor(np.zeros(shape), requires_grad=True)

        for axis in "xyz":
            uniform(f"sign_{axis}", 3, d)
        uniform("task_w", self.cfg.task_feature_width, d)
        uniform("task_b", d)
        uniform("seq", self.cfg.max_seq_len, d)
        for i in range(self.cfg.num_layers):
            ones(f"l{i}.ln1_g", d)
            zeros(f"l{i}.ln1_b", d)
            for m in ("q", "k", "v", "o"):
                uniform(f"l{i}.w{m}", d, d)
                uniform(f"l{i}.b{m}", d)
            ones(f"l{i}.ln2_g", d)
            zeros(f"l{i}.ln2_b", d)
            uniform(f"l{i}.w1", d, 4 * d)
            uniform(f"l{i}.b1", 4 * d)
            uniform(f"l{i}.w2", 4 * d, d)
            uniform(f"l{i}.b2", d)
        ones("lnf_g", d)
        zeros("lnf_b", d)
        uniform("head_w", d, MOVE_VOCAB)
        uniform("head_b", MOVE_VOCAB)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # forward passes ----------------------------------------------------------

    def forward_batch(self, points: np.ndarray, ctx_mat: np.ndarray, cache: KVCache | None = None,
                      lengths: np.ndarray | None = None) -> Tensor:
        """Logits (B, T, 7) for every position of each padded point sequence.

        points is an int array (B, T, 3); ctx_mat is (B, task_feature_width +
        goal block) as produced by context_features: each position embeds the
        goal-sign rows of its cell against its row's target, its row's task
        features and its position, in one tape node (ad.embed). Causal masking keeps
        position t blind to later positions, so right padding never leaks into
        real positions.

        lengths (B,), each in 1..T, marks positions t < lengths[b] of row b as
        real. The embedding, layer norms, projections, FFN and head then run
        on the (N, d) real positions only, in row-major order. Only the
        attention core (ad.attention) runs on the padded (B, H, T, dh)
        layout, with zeros at padded slots, which the causal mask keeps away
        from real queries; it returns the real rows. Padded positions get
        zero logits and pass no gradient. The weight gradients then sum over
        the N real rows, a different float association than a sum over all
        B * T slots. Without lengths every slot is real and packing is a
        plain reshape.

        With a cache (inference under ad.no_grad only, without lengths),
        points holds the cells at positions cache.t .. cache.t + T - 1 of each
        row: their keys and values are appended to the cache, they attend over
        every cached position, and cache.t advances by T.
        """
        B, T, _ = points.shape
        t0 = 0 if cache is None else cache.t
        if t0 + T > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {t0 + T} exceeds max_seq_len {self.cfg.max_seq_len}")
        if lengths is None:
            real = np.arange(B * T)
        else:
            real = np.flatnonzero(np.arange(T) < _check_lengths(lengths, B, T, cache)[:, None])
        P = self.params

        def lin(h, layer, m):
            return ad.linear(h, P[f"l{layer}.w{m}"], P[f"l{layer}.b{m}"])

        def spread(a):  # (N, m) real rows -> (B * T, m), zeros at padded slots
            return a if lengths is None else ad.put_rows(a, real, B * T)

        row, pos = np.divmod(real, T)
        goal = ctx_mat[row, -GOAL_FEATURE_WIDTH:]  # target x, y, z and has-target flag of each real position
        sign = (np.sign(goal[:, :3] - points.reshape(B * T, 3)[real]) + 1).astype(np.int64)
        task = ad.linear(Tensor(ctx_mat[:, :-GOAL_FEATURE_WIDTH]), P["task_w"], P["task_b"])
        flag = goal[:, 3:].copy()  # a column of its own, so the tape does not keep all of goal
        x = ad.embed((P["sign_x"], P["sign_y"], P["sign_z"]), sign, flag, task, row, P["seq"], t0 + pos)

        for i in range(self.cfg.num_layers):
            h = ad.layer_norm(x, P[f"l{i}.ln1_g"], P[f"l{i}.ln1_b"])
            ctx = ad.attention(*(lin(h, i, m) for m in "qkv"), (B, T), self.cfg.num_heads,
                               rows=None if lengths is None else real,
                               extend=None if cache is None else partial(cache.extend, i))
            x = x + lin(ctx, i, "o")
            h2 = ad.layer_norm(x, P[f"l{i}.ln2_g"], P[f"l{i}.ln2_b"])
            x = x + lin(lin(h2, i, "1").gelu(), i, "2")
        if cache is not None:
            cache.t += T

        x = ad.layer_norm(x, P["lnf_g"], P["lnf_b"])
        return spread(ad.linear(x, P["head_w"], P["head_b"])).reshape(B, T, MOVE_VOCAB)

    def forward(self, prefix, ctx: TaskContext, w: Workspace) -> StepLogits:
        """Move logits for the next step after the last prefix cell."""
        prefix = list(prefix)
        if not prefix:
            raise ValueError("prefix must be non-empty")
        for p in prefix:
            if not in_bounds(p, w):
                raise ValueError(f"prefix point {p} is out of bounds")
        pts = np.array([[(p.x, p.y, p.z) for p in prefix]], dtype=np.int64)
        cv = context_features(ctx, self.cfg)[None, :]
        with ad.no_grad():
            logits = self.forward_batch(pts, cv)
        legal = np.ones(MOVE_VOCAB, dtype=bool)
        legal[:STOP] = w.grid.move_mask(pts[0, -1])
        return StepLogits(raw=logits.data[0, -1], legal_mask=legal)


# composite loss ---------------------------------------------------------------


@dataclass(frozen=True)
class LossConfig:
    lambda_coord: float = 0.5
    lambda_valid: float = 0.5
    lambda_cov: float = 1.0
    lambda_len: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if v < 0:
                raise ValueError(f"{f.name} must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    seq: float
    coord: float
    valid: float
    cov: float
    len: float
    total: float


@dataclass
class LossBatch:
    """Numpy-side supervision arrays for one padded batch."""

    points: np.ndarray         # (B, T, 3) int
    ctx_mat: np.ndarray        # (B, F) float
    gold_moves: np.ndarray     # (B, T) int, STOP at each terminal position
    legal: np.ndarray          # (B, T, 7) bool
    lengths: np.ndarray        # (B,) point counts
    on_path: np.ndarray        # (B, T, 6) bool, move m from point t lands on a cell of the gold path
    gold_set_size: np.ndarray  # (B,) distinct gold cells


_MOVE_OFFSETS = np.array(MOVES, dtype=np.int64)


@dataclass(frozen=True)
class _Supervision:
    """One record's batch-independent supervision, built once per record."""

    points: np.ndarray      # (L, 3) int
    legal: np.ndarray       # (L, 6) bool move legality
    gold_moves: np.ndarray  # (L,) int, STOP last
    ctx_row: np.ndarray     # (F,) context_features
    on_path: np.ndarray     # (L, 6) bool, move m from point t lands on a cell of the path
    n_distinct: int         # distinct gold cells


def _on_path(pts: np.ndarray) -> np.ndarray:
    """(L, 6) bool: whether move m from point t lands on a cell of the path pts (L, 3)."""
    lo = pts.min(axis=0) - 1
    ext = pts.max(axis=0) - lo + 2
    stride = np.array([ext[1] * ext[2], ext[2], 1])  # flat index over the path's box grown by one cell
    key = (pts - lo) @ stride
    return ((key[:, None] + _MOVE_OFFSETS @ stride)[:, :, None] == key).any(axis=-1)


def supervision_row(traj: Trajectory, ctx: TaskContext, w: Workspace, cfg: ModelConfig) -> _Supervision:
    """A gold trajectory's supervision; the caller has checked the path (check_trajectory)."""
    pts = np.array([p.as_tuple() for p in traj.points], dtype=np.int64)
    moves = [move_index(a, b) for a, b in zip(traj.points, traj.points[1:])] + [STOP]
    return _Supervision(
        points=pts, legal=w.grid.move_mask(pts), gold_moves=np.array(moves, dtype=np.int64),
        ctx_row=context_features(ctx, cfg), on_path=_on_path(pts), n_distinct=len(set(traj.points)),
    )


def supervision_rows(items, cfg: ModelConfig) -> list[_Supervision]:
    """Rows of (trajectory, context, workspace) items, each gold path checked first (raises if one is
    illegal); rows already prepared by supervision_row pass through."""
    rows = []
    for it in items:
        if not isinstance(it, _Supervision):
            check_trajectory(it[0], it[2])
            it = supervision_row(*it, cfg)
        rows.append(it)
    return rows


def make_loss_batch(items: list, cfg: ModelConfig) -> LossBatch:
    """Assemble padded supervision arrays; raises on illegal gold trajectories.

    Items are (trajectory, context, workspace) tuples or rows that fit has
    already prepared with supervision_row. Padded positions repeat the record's
    last row: its last point, legality and on-path rows, and STOP, its last
    gold move, which keeps gathered log-probs finite.
    """
    if not items:
        raise ValueError("batch must be non-empty")
    rows = supervision_rows(items, cfg)
    B = len(rows)
    lengths = np.array([len(r.points) for r in rows])
    T = int(lengths.max())
    if T > cfg.max_seq_len:
        raise ValueError(f"gold trajectory of length {T} exceeds max_seq_len {cfg.max_seq_len}")

    # row (b, t) of the concatenated per-record rows: start of record b plus min(t, L_b - 1)
    at = (np.cumsum(lengths) - lengths)[:, None] + np.minimum(np.arange(T), lengths[:, None] - 1)
    legal = np.ones((B, T, MOVE_VOCAB), dtype=bool)  # STOP is always legal
    legal[:, :, :STOP] = np.concatenate([r.legal for r in rows])[at]

    return LossBatch(
        points=np.concatenate([r.points for r in rows])[at], ctx_mat=np.stack([r.ctx_row for r in rows]),
        gold_moves=np.concatenate([r.gold_moves for r in rows])[at], legal=legal, lengths=lengths,
        on_path=np.concatenate([r.on_path for r in rows])[at],
        gold_set_size=np.array([r.n_distinct for r in rows], dtype=np.float64),
    )


def composite_loss(logits: Tensor, batch: LossBatch, cfg: LossConfig) -> tuple[Tensor, LossBreakdown]:
    """Five-term training objective; see module docstring for the recipe.

    seq    mean masked cross-entropy of the gold move at pre-terminal steps
    coord  1 - soft-F1 of the successor mass that lands on the gold path: the
           mass of the moves batch.on_path marks, over all move mass for
           precision and over the distinct gold cells for recall; the start
           cell adds 1 to both masses
    valid  mean unmasked probability mass on illegal moves
    cov    terminal-STOP cross-entropy plus mean premature STOP mass
    len    relative gap between expected path length and gold length

    Step masks and terminal positions come from batch.lengths.
    """
    B, T, _ = logits.shape
    lengths = batch.lengths
    logp = ad.log_softmax(logits, mask=batch.legal)
    p = logp.exp()
    move_pos = (np.arange(T) < lengths[:, None] - 1).astype(np.float64)
    all_pos = (np.arange(T) < lengths[:, None]).astype(np.float64)
    n_moves = max(move_pos.sum(), 1.0)
    n_all = max(all_pos.sum(), 1.0)

    gold_lp = logp[np.arange(B)[:, None], np.arange(T), batch.gold_moves]
    seq = -(gold_lp * move_pos).sum() / n_moves

    p_un = ad.softmax(logits)
    illegal = (~batch.legal).astype(np.float64)
    valid = ((p_un * illegal).sum(axis=-1) * all_pos).sum() / n_all

    stop_lp_term = logp[np.arange(B), lengths - 1, np.full(B, STOP)]
    p_stop = p[:, :, STOP]
    cov = -stop_lp_term.mean() + (p_stop * move_pos).sum() / n_moves

    cont = 1.0 - p_stop
    survival = Tensor(np.ones(B))
    expected_moves = Tensor(np.zeros(B))
    for t in range(T):
        step_w = move_pos[:, t]
        if step_w.sum() == 0.0:
            break
        survival = survival * cont[:, t]
        expected_moves = expected_moves + survival * step_w
    expected_len = expected_moves + 1.0
    gold_len = lengths.astype(np.float64)
    len_term = ((expected_len - gold_len).abs() / gold_len).mean()

    p_moves = p[:, :, :STOP] * all_pos[:, :, None]
    inter = (p_moves * batch.on_path).sum(axis=(1, 2)) + 1.0  # + 1: the start cell
    precision = inter / (p_moves.sum(axis=(1, 2)) + 1.0)
    recall = inter / batch.gold_set_size
    f1 = (2.0 * precision * recall) / (precision + recall + 1e-12)
    coord = (1.0 - f1).mean()

    total = (
        seq
        + cfg.lambda_coord * coord
        + cfg.lambda_valid * valid
        + cfg.lambda_cov * cov
        + cfg.lambda_len * len_term
    )
    breakdown = LossBreakdown(
        seq=seq.item(), coord=coord.item(), valid=valid.item(),
        cov=cov.item(), len=len_term.item(), total=total.item(),
    )
    for f, value in zip(fields(breakdown), astuple(breakdown)):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite loss term: {f.name} = {value}")
    return total, breakdown


# optimizer -------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"  # sgd | momentum | adam
    lr: float = 0.1
    weight_decay: float = 0.0
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "momentum", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        for f in fields(self):
            if f.name != "kind" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        """Inverse of to_dict, as a config's or a checkpoint's optimizer entry: a missing key is a KeyError,
        a value that is not a number a ValueError naming it (optimizer.<key>), and extra keys are ignored."""
        return cls(kind=str(d["kind"]),
                   **{f.name: read_number(d[f.name], f"optimizer.{f.name}") for f in fields(cls) if f.name != "kind"})


class Optimizer:
    """SGD with decoupled weight decay; momentum and Adam behind config flags."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.step_count = 0
        self.slots: dict[str, np.ndarray] = {}

    def step(self, params: list[tuple[str, Tensor]]) -> None:
        c = self.cfg
        self.step_count += 1
        for name, p in params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if c.kind == "sgd":
                update = g
            elif c.kind == "momentum":
                buf = self.slots.setdefault(f"{name}.m", np.zeros_like(p.data))
                buf *= c.momentum
                buf += g
                update = buf
            else:  # adam
                m = self.slots.setdefault(f"{name}.m", np.zeros_like(p.data))
                v = self.slots.setdefault(f"{name}.v", np.zeros_like(p.data))
                m *= c.beta1
                m += (1 - c.beta1) * g
                v *= c.beta2
                v += (1 - c.beta2) * g * g
                mhat = m / (1 - c.beta1 ** self.step_count)
                vhat = v / (1 - c.beta2 ** self.step_count)
                update = mhat / (np.sqrt(vhat) + c.eps)
            p.data -= c.lr * update
            if c.weight_decay:
                p.data -= c.lr * c.weight_decay * p.data


def train_step(
    model: PathModel,
    batch: LossBatch,
    loss_cfg: LossConfig,
    optimizer: Optimizer,
) -> LossBreakdown:
    """One gradient step on the composite loss; deterministic."""
    model.zero_grad()
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
    total, breakdown = composite_loss(logits, batch, loss_cfg)
    total.backward()
    optimizer.step(model.parameters())
    return breakdown


@dataclass
class TrainCounters:
    """Seed-determined tallies of one fit call."""

    epochs: int = 0
    batches: int = 0
    records_seen: int = 0
    optimizer_steps: int = 0  # the optimizer's step count afterwards, resumed steps included


def fit(
    model: PathModel,
    items: list,
    loss_cfg: LossConfig,
    optimizer: Optimizer,
    epochs: int,
    batch_size: int,
    seed: int = 0,
    log=None,
    counters: TrainCounters | None = None,
) -> list[LossBreakdown]:
    """Mini-batch training loop; returns the mean per-epoch loss breakdowns.

    Items are (trajectory, context, workspace) tuples or rows already made by
    supervision_rows. Every record's supervision is prepared (and its
    trajectory checked) once, before the first step; batches are assembled
    from the prepared rows. A non-finite loss term raises FloatingPointError
    naming the epoch.
    """
    rows = supervision_rows(items, model.cfg)
    counters = counters if counters is not None else TrainCounters()
    rng = np.random.default_rng(seed)
    history: list[LossBreakdown] = []
    for epoch in range(epochs):
        order = rng.permutation(len(rows))
        sums = np.zeros(len(fields(LossBreakdown)))
        n_batches = 0
        for lo in range(0, len(rows), batch_size):
            chunk = [rows[i] for i in order[lo : lo + batch_size]]
            batch = make_loss_batch(chunk, model.cfg)
            try:
                bd = train_step(model, batch, loss_cfg, optimizer)
            except FloatingPointError as e:
                raise FloatingPointError(f"training diverged at epoch {epoch}: {e}") from None
            sums += astuple(bd)
            n_batches += 1
            counters.records_seen += len(chunk)
        counters.epochs += 1
        counters.batches += n_batches
        mean = sums / max(n_batches, 1)
        bd = LossBreakdown(*mean)
        history.append(bd)
        if log is not None:
            log(epoch, bd)
    counters.optimizer_steps = optimizer.step_count
    return history
