"""The autodiff and supervision code of the training hot path before it was fused, kept as oracles.

backward is the retaining sweep: every node keeps its gradient, closure and
parents until the sweep returns, where Tensor.backward frees them as it goes.
accumulate adds every gradient, the first one included, into a zeros array;
gelu cubes with pow; linear is a batched matmul plus a broadcast bias, with
the weight and bias gradients summed down by _unbroadcast; the scatters run
np.add.at into zeros; softmax and log_softmax each check and fill their own
mask; attention is the composition of put_rows, the head reshape and
transpose, q @ k^T, the scale, the masked softmax, @ v, the merge and
take_rows, whose tape keeps every intermediate; embed is the three sign
gathers and their sum, the has-target multiply and the task-row and position
gathers and adds, ten nodes whose tape keeps every gather and sum; make_loss_batch derives
every record's rows inside the batch loop, its on-path mask from a set of
the path's cells. composite_loss is the loss with the coord term over the
whole box of the batch's workspace: successor mass scattered onto flat cell
indices (plus a dump slot for cells outside the box) and compared with dense
gold-cell and start indicators. reference_engine() installs the autodiff
ones in latticepath.autodiff, so a whole forward and backward pass of the
model runs on this code; reference_attention() and reference_embedding()
install attention alone and embed alone.
"""

import math
from contextlib import contextmanager

import numpy as np

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor, _make, _unbroadcast, as_tensor
from latticepath.corpus import check_trajectory
from latticepath.lattice import MOVES, STOP, move_index
from latticepath.model import (
    GOAL_FEATURE_WIDTH,
    MOVE_VOCAB,
    LossBatch,
    LossBreakdown,
    context_features,
)


def backward(self):
    if self.data.size != 1:
        raise ValueError("backward() requires a scalar tensor")
    topo = []
    visited = set()
    stack = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    self._accumulate(np.ones_like(self.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def tensor_sum(self, axis=None, keepdims=False):
    out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
    if out._parents:
        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        out._backward = backward
    return out


def gelu(self):
    c = math.sqrt(2.0 / math.pi)
    a = 0.044715
    x = self.data
    u = c * (x + a * x ** 3)
    t = np.tanh(u)
    out = _make(0.5 * x * (1.0 + t), (self,))
    if out._parents:
        def backward(g):
            du = c * (1.0 + 3.0 * a * x ** 2)
            self._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du))
        out._backward = backward
    return out


def matmul(a, b):
    b = as_tensor(b)
    out = _make(a.data @ b.data, (a, b))
    if out._parents:
        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.data.shape))
        out._backward = backward
    return out


def linear(x, w, b):
    return matmul(x, w) + b


def getitem(self, index):
    out = _make(self.data[index], (self,))
    if out._parents:
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            self._accumulate(full)
        out._backward = backward
    return out


def gather_last(x, index):
    index = np.asarray(index, dtype=np.int64)
    picked = np.take_along_axis(x.data, index[..., None], axis=-1)[..., 0]
    out = _make(picked, (x,))
    if out._parents:
        lead = tuple(np.indices(index.shape))
        def backward(g):
            full = np.zeros_like(x.data)
            np.add.at(full, lead + (index,), g)
            x._accumulate(full)
        out._backward = backward
    return out


def scatter_add_last(values, index, size):
    index = np.asarray(index, dtype=np.int64)
    if index.shape != values.data.shape:
        raise ValueError("scatter index must match values shape")
    out_data = np.zeros(values.data.shape[:-1] + (size,))
    lead = tuple(np.indices(index.shape))
    np.add.at(out_data, lead[:-1] + (index,), values.data)
    out = _make(out_data, (values,))
    if out._parents:
        def backward(g):
            values._accumulate(g[lead[:-1] + (index,)])
        out._backward = backward
    return out


def softmax(x, mask=None):
    logits = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax mask leaves a row with no legal entries")
        logits = np.where(mask, logits, -np.inf)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = _make(p, (x,))
    if out._parents:
        def backward(g):
            inner = (g * p).sum(axis=-1, keepdims=True)
            x._accumulate(p * (g - inner))
        out._backward = backward
    return out


def log_softmax(x, mask=None):
    logits = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError("log_softmax mask leaves a row with no legal entries")
        logits = np.where(mask, logits, -np.inf)
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    e = np.exp(shifted)
    lse = m + np.log(e.sum(axis=-1, keepdims=True))
    out = _make(logits - lse, (x,))
    if out._parents:
        p = e / e.sum(axis=-1, keepdims=True)
        grad_gate = mask if mask is not None else None
        def backward(g):
            if grad_gate is not None:
                g = np.where(grad_gate, g, 0.0)
            inner = g.sum(axis=-1, keepdims=True)
            x._accumulate(g - p * inner)
        out._backward = backward
    return out


def take_rows(x, rows):
    """out[i] = x[rows[i]] along the first axis; rows are distinct constants."""
    out = _make(x.data[rows], (x,))
    if out._parents:
        def backward(g):
            gx = np.zeros_like(x.data)
            gx[rows] = g
            x._accumulate(gx)
        out._backward = backward
    return out


def attention(q, k, v, shape, heads, rows=None, extend=None):
    """ad.attention as the composition of autodiff ops it replaced (same arguments)."""
    B, T = shape
    d = q.data.shape[1]
    dh = d // heads

    def split(a):
        if rows is not None:
            a = ad.put_rows(a, rows, B * T)
        return a.reshape(B, T, heads, dh).transpose((0, 2, 1, 3))

    q4, k4, v4 = split(q), split(k), split(v)
    if extend is not None:
        k4, v4 = (Tensor(a) for a in extend(k4.data, v4.data))
    t0 = k4.shape[2] - T
    scores = (q4 @ k4.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    att = ad.softmax(scores, mask=np.tril(np.ones((T, t0 + T), dtype=bool), k=t0))
    out = (att @ v4).transpose((0, 2, 1, 3)).reshape(B * T, d)
    return out if rows is None else take_rows(out, rows)


def embed(signs, sign_rows, flag, task, task_rows, seq, seq_rows):
    """ad.embed as the composition of autodiff ops it replaced (same arguments)."""
    x = (signs[0][sign_rows[:, 0]] + signs[1][sign_rows[:, 1]] + signs[2][sign_rows[:, 2]]) * flag
    x = x + task[task_rows]
    return x + seq[seq_rows]


def make_loss_batch(items, cfg):
    if not items:
        raise ValueError("batch must be non-empty")
    B = len(items)
    lengths = np.array([len(traj) for traj, _, _ in items])
    T = int(lengths.max())
    if T > cfg.max_seq_len:
        raise ValueError(f"gold trajectory of length {T} exceeds max_seq_len {cfg.max_seq_len}")

    points = np.zeros((B, T, 3), dtype=np.int64)
    ctx_mat = np.zeros((B, cfg.task_feature_width + GOAL_FEATURE_WIDTH))
    gold_moves = np.zeros((B, T), dtype=np.int64)
    legal = np.zeros((B, T, MOVE_VOCAB), dtype=bool)
    legal[:, :, STOP] = True
    on_path = np.zeros((B, T, STOP), dtype=bool)

    for b, (traj, ctx, w) in enumerate(items):
        check_trajectory(traj, w)
        L = len(traj)
        cells = set(traj.points)
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
            on_path[b, t] = [p.offset(*mv) in cells for mv in MOVES]
        legal[b, L:] = legal[b, L - 1]
        on_path[b, L:] = on_path[b, L - 1]
        gold_moves[b, L:] = STOP

    gold_set_size = np.array([len({p for p in traj.points}) for traj, _, _ in items], dtype=np.float64)

    return LossBatch(
        points=points, ctx_mat=ctx_mat, gold_moves=gold_moves, legal=legal, lengths=lengths,
        on_path=on_path, gold_set_size=gold_set_size,
    )


def _flat_cell_index(points, box):
    """Flat index into box (x_min, x_max, y_min, y_max, z_min, z_max), with one trailing dump slot for
    outside cells."""
    x0, x1, y0, y1, z0, z1 = box
    nx, ny, nz = x1 - x0 + 1, y1 - y0 + 1, z1 - z0 + 1
    xi = points[..., 0] - x0
    yi = points[..., 1] - y0
    zi = points[..., 2] - z0
    inside = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny) & (zi >= 0) & (zi < nz)
    idx = xi * (ny * nz) + yi * nz + zi
    return np.where(inside, idx, nx * ny * nz)


def composite_loss(logits, batch, cfg, box):
    """The five-term loss with its coord term over every cell of box, the bounds of the batch's workspace."""
    B, T, _ = logits.shape
    move_pos = np.zeros((B, T))
    all_pos = np.zeros((B, T))
    x0, x1, y0, y1, z0, z1 = box
    n_cells = (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1) + 1
    gold_cells = np.zeros((B, n_cells))
    start_onehot = np.zeros((B, n_cells))
    for b, L in enumerate(batch.lengths):
        move_pos[b, : L - 1] = 1.0
        all_pos[b, :L] = 1.0
        cell_ids = _flat_cell_index(batch.points[b, :L], box)
        gold_cells[b, cell_ids] = 1.0
        start_onehot[b, cell_ids[0]] = 1.0
    succ = batch.points[:, :, None, :] + np.array(MOVES, dtype=np.int64)[None, None, :, :]
    succ_idx = _flat_cell_index(succ, box)

    logp = ad.log_softmax(logits, mask=batch.legal)
    p = logp.exp()
    n_moves = max(move_pos.sum(), 1.0)
    n_all = max(all_pos.sum(), 1.0)

    gold_lp = gather_last(logp, batch.gold_moves)
    seq = -(gold_lp * move_pos).sum() / n_moves

    p_un = ad.softmax(logits)
    illegal = (~batch.legal).astype(np.float64)
    valid = ((p_un * illegal).sum(axis=-1) * all_pos).sum() / n_all

    stop_lp_term = logp[np.arange(B), batch.lengths - 1, np.full(B, STOP)]
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
    mass = scatter_add_last(p_moves.reshape(B, T * 6), succ_idx.reshape(B, T * 6), n_cells) + start_onehot
    inter = (mass * gold_cells).sum(axis=-1)
    precision = inter / mass.sum(axis=-1)
    recall = inter / batch.gold_set_size
    f1 = (2.0 * precision * recall) / (precision + recall + 1e-12)
    coord = (1.0 - f1).mean()

    total = (seq + cfg.lambda_coord * coord + cfg.lambda_valid * valid + cfg.lambda_cov * cov
             + cfg.lambda_len * len_term)
    return total, LossBreakdown(seq=seq.item(), coord=coord.item(), valid=valid.item(), cov=cov.item(),
                                len=len_term.item(), total=total.item())


_PATCHES = (
    (Tensor, "backward", backward),
    (Tensor, "_accumulate", accumulate),
    (Tensor, "sum", tensor_sum),
    (Tensor, "gelu", gelu),
    (Tensor, "__getitem__", getitem),
    (ad, "linear", linear),
    (ad, "softmax", softmax),
    (ad, "log_softmax", log_softmax),
    (ad, "attention", attention),
    (ad, "embed", embed),
)


@contextmanager
def _installed(patches):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def reference_engine():
    """Run the block on the oracle code above; the fast code is restored afterwards."""
    return _installed(_PATCHES)


def reference_attention():
    """Run the block with the attention composition above and the fast code for everything else."""
    return _installed(((ad, "attention", attention),))


def reference_embedding():
    """Run the block with the embedding composition above and the fast code for everything else."""
    return _installed(((ad, "embed", embed),))
