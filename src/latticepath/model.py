"""Causal transformer over lattice prefixes with a 7-way constrained move head.

The per-step embedding sums three learned components: per-axis coordinate
tables, a projection of the task-context features (with the optional target
cell appended as a goal block), and a learned position table. The output head
scores the six canonical moves plus STOP; legality masks force illegal moves
to -inf before the softmax, so decoded motion is lattice-legal by
construction. Training optimizes a five-term composite loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Trajectory, check_trajectory
from .lattice import MOVES, STOP, LatticeCoord, Workspace, in_bounds, move_index
from .lattice import legal_moves  # noqa: F401 (perfbench/tracer.py wraps model.legal_moves)
from .taskgrid import TASK_FEATURE_WIDTH, TaskContext

MOVE_VOCAB = len(MOVES) + 1  # six canonical moves + STOP

# normalized target x/y/z + has-target flag, appended to the task features
GOAL_FEATURE_WIDTH = 4

DESK_BOUNDS = (-3, 3, -3, 3, 0, 4)


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    max_seq_len: int = 32
    task_feature_width: int = TASK_FEATURE_WIDTH
    move_vocab: int = MOVE_VOCAB
    bounds: tuple[int, int, int, int, int, int] = DESK_BOUNDS

    def __post_init__(self) -> None:
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")
        if self.move_vocab != MOVE_VOCAB:
            raise ValueError(f"move_vocab is fixed at {MOVE_VOCAB}")

    @property
    def axis_sizes(self) -> tuple[int, int, int]:
        x0, x1, y0, y1, z0, z1 = self.bounds
        return (x1 - x0 + 1, y1 - y0 + 1, z1 - z0 + 1)

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "max_seq_len": self.max_seq_len,
            "task_feature_width": self.task_feature_width,
            "move_vocab": self.move_vocab,
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            embed_dim=int(d["embed_dim"]),
            num_layers=int(d["num_layers"]),
            num_heads=int(d["num_heads"]),
            max_seq_len=int(d["max_seq_len"]),
            task_feature_width=int(d["task_feature_width"]),
            move_vocab=int(d["move_vocab"]),
            bounds=tuple(int(v) for v in d["bounds"]),
        )


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
    count. `keep` selects and reorders rows by index.
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

    def keep(self, rows: np.ndarray) -> None:
        self.keys = [k[rows] for k in self.keys]
        self.values = [v[rows] for v in self.values]


def context_features(ctx: TaskContext, cfg: ModelConfig) -> np.ndarray:
    """Task features plus the goal block (target normalized to the model box)."""
    feat = np.asarray(ctx.task_feature_vector, dtype=np.float64)
    if feat.shape != (cfg.task_feature_width,):
        raise ValueError(
            f"context feature width {feat.shape} does not match configured "
            f"task_feature_width {cfg.task_feature_width}"
        )
    x0, x1, y0, y1, z0, z1 = cfg.bounds
    if ctx.target is None:
        goal = np.zeros(GOAL_FEATURE_WIDTH)
    else:
        t = ctx.target
        goal = np.array([
            (t.x - x0) / max(x1 - x0, 1),
            (t.y - y0) / max(y1 - y0, 1),
            (t.z - z0) / max(z1 - z0, 1),
            1.0,
        ])
    return np.concatenate([feat, goal])


def _box_text(b) -> str:
    return f"x {b[0]}..{b[1]}, y {b[2]}..{b[3]}, z {b[4]}..{b[5]}"


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
        nx, ny, nz = self.cfg.axis_sizes
        fin = self.cfg.task_feature_width + GOAL_FEATURE_WIDTH

        def uniform(name, *shape):
            self.params[name] = Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)

        def ones(name, *shape):
            self.params[name] = Tensor(np.ones(shape), requires_grad=True)

        def zeros(name, *shape):
            self.params[name] = Tensor(np.zeros(shape), requires_grad=True)

        uniform("coord_x", nx, d)
        uniform("coord_y", ny, d)
        uniform("coord_z", nz, d)
        uniform("task_w", fin, d)
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

    # embedding helpers -----------------------------------------------------

    def _axis_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x0, x1, y0, y1, z0, z1 = self.cfg.bounds
        xi = points[..., 0] - x0
        yi = points[..., 1] - y0
        zi = points[..., 2] - z0
        nx, ny, nz = self.cfg.axis_sizes
        for idx, n, lo, hi, name in ((xi, nx, x0, x1, "x"), (yi, ny, y0, y1, "y"), (zi, nz, z0, z1, "z")):
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError(f"coordinate outside the model box on axis {name} (bounds {lo}..{hi})")
        return xi, yi, zi

    def check_workspace(self, w: Workspace) -> None:
        """Raise ValueError unless every cell of w lies inside the model box."""
        box = self.cfg.bounds
        if any(w.bounds[a] < box[a] or w.bounds[a + 1] > box[a + 1] for a in (0, 2, 4)):
            raise ValueError(f"workspace box {_box_text(w.bounds)} exceeds the model box {_box_text(box)}")

    def embed_step(self, p: LatticeCoord, ctx: TaskContext, t: int) -> np.ndarray:
        """Summed coordinate/task/position embedding for one step."""
        if not (0 <= t < self.cfg.max_seq_len):
            raise ValueError(f"step index {t} outside [0, {self.cfg.max_seq_len})")
        pts = np.array([[p.x, p.y, p.z]])
        xi, yi, zi = self._axis_indices(pts)
        coord = (
            self.params["coord_x"].data[xi[0]]
            + self.params["coord_y"].data[yi[0]]
            + self.params["coord_z"].data[zi[0]]
        )
        cv = context_features(ctx, self.cfg)
        task = cv @ self.params["task_w"].data + self.params["task_b"].data
        return coord + task + self.params["seq"].data[t]

    # forward passes ----------------------------------------------------------

    def forward_batch(self, points: np.ndarray, ctx_mat: np.ndarray, cache: KVCache | None = None) -> Tensor:
        """Logits (B, T, 7) for every position of each padded point sequence.

        points is an int array (B, T, 3); padded slots must repeat a valid
        cell. ctx_mat is (B, task_feature_width + goal block) as produced by
        context_features. Causal masking keeps position t blind to later
        positions, so right padding never leaks into real positions.

        With a cache (inference under ad.no_grad only), points holds the
        cells at positions cache.t .. cache.t + T - 1 of each row: their keys
        and values are appended to the cache, they attend over every cached
        position, and cache.t advances by T.
        """
        B, T, _ = points.shape
        t0 = 0 if cache is None else cache.t
        if t0 + T > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {t0 + T} exceeds max_seq_len {self.cfg.max_seq_len}")
        d = self.cfg.embed_dim
        H = self.cfg.num_heads
        dh = d // H

        xi, yi, zi = self._axis_indices(points)
        x = self.params["coord_x"][xi] + self.params["coord_y"][yi] + self.params["coord_z"][zi]
        task = Tensor(ctx_mat) @ self.params["task_w"] + self.params["task_b"]
        x = x + task.reshape(B, 1, d)
        x = x + self.params["seq"][np.arange(t0, t0 + T)]

        causal = np.tril(np.ones((T, t0 + T), dtype=bool), k=t0)
        for i in range(self.cfg.num_layers):
            h = ad.layer_norm(x, self.params[f"l{i}.ln1_g"], self.params[f"l{i}.ln1_b"])
            q = (h @ self.params[f"l{i}.wq"] + self.params[f"l{i}.bq"]).reshape(B, T, H, dh).transpose((0, 2, 1, 3))
            k = (h @ self.params[f"l{i}.wk"] + self.params[f"l{i}.bk"]).reshape(B, T, H, dh).transpose((0, 2, 1, 3))
            v = (h @ self.params[f"l{i}.wv"] + self.params[f"l{i}.bv"]).reshape(B, T, H, dh).transpose((0, 2, 1, 3))
            if cache is not None:
                k, v = (Tensor(a) for a in cache.extend(i, k.data, v.data))
            scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
            att = ad.softmax(scores, mask=causal)
            ctx = (att @ v).transpose((0, 2, 1, 3)).reshape(B, T, d)
            x = x + ctx @ self.params[f"l{i}.wo"] + self.params[f"l{i}.bo"]
            h2 = ad.layer_norm(x, self.params[f"l{i}.ln2_g"], self.params[f"l{i}.ln2_b"])
            ff = (h2 @ self.params[f"l{i}.w1"] + self.params[f"l{i}.b1"]).gelu()
            x = x + ff @ self.params[f"l{i}.w2"] + self.params[f"l{i}.b2"]
        if cache is not None:
            cache.t += T

        x = ad.layer_norm(x, self.params["lnf_g"], self.params["lnf_b"])
        return x @ self.params["head_w"] + self.params["head_b"]

    def forward(self, prefix, ctx: TaskContext, w: Workspace) -> StepLogits:
        """Move logits for the next step after the last prefix cell."""
        prefix = list(prefix)
        if not prefix:
            raise ValueError("prefix must be non-empty")
        if len(prefix) > self.cfg.max_seq_len:
            raise ValueError(f"prefix length {len(prefix)} exceeds max_seq_len {self.cfg.max_seq_len}")
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
        for name in ("lambda_coord", "lambda_valid", "lambda_cov", "lambda_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    seq: float
    coord: float
    valid: float
    cov: float
    len: float
    total: float

    def as_dict(self) -> dict:
        return {
            "seq": self.seq, "coord": self.coord, "valid": self.valid,
            "cov": self.cov, "len": self.len, "total": self.total,
        }


@dataclass
class LossBatch:
    """Numpy-side supervision arrays for one padded batch."""

    points: np.ndarray        # (B, T, 3) int
    ctx_mat: np.ndarray       # (B, F) float
    gold_moves: np.ndarray    # (B, T) int, STOP at each terminal position
    legal: np.ndarray         # (B, T, 7) bool
    move_pos: np.ndarray      # (B, T) 1.0 on positions 0..L-2
    all_pos: np.ndarray       # (B, T) 1.0 on positions 0..L-1
    term_index: np.ndarray    # (B,) index L-1
    lengths: np.ndarray       # (B,) point counts
    succ_idx: np.ndarray      # (B, T, 6) flat successor-cell index
    gold_cells: np.ndarray    # (B, C) binary gold point-set indicator
    start_onehot: np.ndarray  # (B, C)
    n_cells: int
    gold_set_size: np.ndarray  # (B,)


def _flat_cell_index(points: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Flat index into the model box, with one trailing dump slot for outside cells."""
    x0, x1, y0, y1, z0, z1 = cfg.bounds
    nx, ny, nz = cfg.axis_sizes
    xi = points[..., 0] - x0
    yi = points[..., 1] - y0
    zi = points[..., 2] - z0
    inside = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny) & (zi >= 0) & (zi < nz)
    idx = xi * (ny * nz) + yi * nz + zi
    return np.where(inside, idx, nx * ny * nz)


def make_loss_batch(items: list[tuple[Trajectory, TaskContext, Workspace]], cfg: ModelConfig) -> LossBatch:
    """Assemble padded supervision arrays; raises on illegal gold trajectories."""
    if not items:
        raise ValueError("batch must be non-empty")
    B = len(items)
    lengths = np.array([len(traj) for traj, _, _ in items])
    T = int(lengths.max())
    if T > cfg.max_seq_len:
        raise ValueError(f"gold trajectory of length {T} exceeds max_seq_len {cfg.max_seq_len}")
    nx, ny, nz = cfg.axis_sizes
    n_cells = nx * ny * nz + 1

    points = np.zeros((B, T, 3), dtype=np.int64)
    ctx_mat = np.zeros((B, cfg.task_feature_width + GOAL_FEATURE_WIDTH))
    gold_moves = np.zeros((B, T), dtype=np.int64)
    legal = np.zeros((B, T, MOVE_VOCAB), dtype=bool)
    legal[:, :, STOP] = True
    move_pos = np.zeros((B, T))
    all_pos = np.zeros((B, T))
    gold_cells = np.zeros((B, n_cells))
    start_onehot = np.zeros((B, n_cells))

    for b, (traj, ctx, w) in enumerate(items):
        check_trajectory(traj, w)
        L = len(traj)
        pts = np.array([p.as_tuple() for p in traj.points], dtype=np.int64)
        points[b, :L] = pts
        points[b, L:] = pts[-1]
        ctx_mat[b] = context_features(ctx, cfg)
        legal[b, :L, :STOP] = w.grid.move_mask(pts)
        for t, p in enumerate(traj.points):
            if t < L - 1:
                gold_moves[b, t] = move_index(p, traj.points[t + 1])
            else:
                gold_moves[b, t] = STOP
        legal[b, L:] = legal[b, L - 1]
        gold_moves[b, L:] = STOP  # padding must stay legal so gathered log-probs are finite
        move_pos[b, : max(L - 1, 0)] = 1.0
        all_pos[b, :L] = 1.0
        cell_ids = _flat_cell_index(pts, cfg)
        gold_cells[b, cell_ids] = 1.0
        start_onehot[b, cell_ids[0]] = 1.0

    succ = points[:, :, None, :] + np.array(MOVES, dtype=np.int64)[None, None, :, :]
    succ_idx = _flat_cell_index(succ, cfg)
    gold_set_size = np.array([len({p for p in traj.points}) for traj, _, _ in items], dtype=np.float64)

    return LossBatch(
        points=points, ctx_mat=ctx_mat, gold_moves=gold_moves, legal=legal,
        move_pos=move_pos, all_pos=all_pos,
        term_index=lengths - 1, lengths=lengths,
        succ_idx=succ_idx, gold_cells=gold_cells, start_onehot=start_onehot,
        n_cells=n_cells, gold_set_size=gold_set_size,
    )


def composite_loss(logits: Tensor, batch: LossBatch, cfg: LossConfig) -> tuple[Tensor, LossBreakdown]:
    """Five-term training objective; see module docstring for the recipe.

    seq    mean masked cross-entropy of the gold move at pre-terminal steps
    coord  1 - soft-F1 of accumulated successor-cell probability mass vs gold cells
    valid  mean unmasked probability mass on illegal moves
    cov    terminal-STOP cross-entropy plus mean premature STOP mass
    len    relative gap between expected path length and gold length
    """
    B, T, _ = logits.shape
    logp = ad.log_softmax(logits, mask=batch.legal)
    p = logp.exp()
    move_pos = batch.move_pos
    all_pos = batch.all_pos
    n_moves = max(move_pos.sum(), 1.0)
    n_all = max(all_pos.sum(), 1.0)

    gold_lp = ad.gather_last(logp, batch.gold_moves)
    seq = -(gold_lp * move_pos).sum() / n_moves

    p_un = ad.softmax(logits)
    illegal = (~batch.legal).astype(np.float64)
    valid = ((p_un * illegal).sum(axis=-1) * all_pos).sum() / n_all

    rows = np.arange(B)
    stop_lp_term = logp[rows, batch.term_index, np.full(B, STOP)]
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
    gold_len = batch.lengths.astype(np.float64)
    len_term = ((expected_len - gold_len).abs() / gold_len).mean()

    p_moves = p[:, :, :6] * all_pos[:, :, None]
    mass = ad.scatter_add_last(
        p_moves.reshape(B, T * 6), batch.succ_idx.reshape(B, T * 6), batch.n_cells
    ) + batch.start_onehot
    inter = (mass * batch.gold_cells).sum(axis=-1)
    precision = inter / mass.sum(axis=-1)
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
    for name, value in breakdown.as_dict().items():
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite loss term: {name} = {value}")
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "lr": self.lr, "weight_decay": self.weight_decay,
            "momentum": self.momentum, "beta1": self.beta1, "beta2": self.beta2,
            "eps": self.eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        return cls(
            kind=str(d["kind"]), lr=float(d["lr"]), weight_decay=float(d["weight_decay"]),
            momentum=float(d["momentum"]), beta1=float(d["beta1"]), beta2=float(d["beta2"]),
            eps=float(d["eps"]),
        )


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
    logits = model.forward_batch(batch.points, batch.ctx_mat)
    total, breakdown = composite_loss(logits, batch, loss_cfg)
    total.backward()
    optimizer.step(model.parameters())
    return breakdown


def fit(
    model: PathModel,
    items: list[tuple[Trajectory, TaskContext, Workspace]],
    loss_cfg: LossConfig,
    optimizer: Optimizer,
    epochs: int,
    batch_size: int,
    seed: int = 0,
    log=None,
) -> list[LossBreakdown]:
    """Mini-batch training loop; returns the mean per-epoch loss breakdowns."""
    rng = np.random.default_rng(seed)
    history: list[LossBreakdown] = []
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        sums = np.zeros(6)
        n_batches = 0
        for lo in range(0, len(items), batch_size):
            chunk = [items[i] for i in order[lo : lo + batch_size]]
            batch = make_loss_batch(chunk, model.cfg)
            bd = train_step(model, batch, loss_cfg, optimizer)
            sums += np.array([bd.seq, bd.coord, bd.valid, bd.cov, bd.len, bd.total])
            n_batches += 1
        mean = sums / max(n_batches, 1)
        bd = LossBreakdown(*mean)
        history.append(bd)
        if log is not None:
            log(epoch, bd)
    return history
