"""Small reverse-mode automatic differentiation engine over numpy arrays.

Tensors record their parents and a backward closure; calling backward() on a
scalar walks the graph in reverse topological order and accumulates gradients
into every tensor created with requires_grad=True. Ops are vectorized and
broadcast-aware, float64 throughout.

backward() consumes the tape as it sweeps, as PyTorch's autograd does unless
asked to retain the graph: once a node's closure has run, an op output (a
node with parents) drops its gradient, its closure and its parents, so each
intermediate array is freed when its last consumer has run, not when the
sweep ends. Leaves keep their gradients. Running backward() again through a
consumed node raises ValueError; rebuild the graph instead.

Freeing memory mid-sweep makes glibc's malloc give pages back to the system
and fault them in again on the next step. So importing this module sets the
process's allocator policy once: blocks below 32 MiB come from the heap, not
from mmap, and up to 256 MiB of free heap top is kept rather than trimmed
(mallopt M_MMAP_THRESHOLD and M_TRIM_THRESHOLD). Where libc has no mallopt,
nothing is set. A 3-epoch d64/L2 desk `train` of 1,600 records (glibc 2.36,
2-vCPU host) had 39k minor faults and 0.15 s of system time with the
retaining sweep, 174k and 0.6 s with the freeing sweep alone, and 17k and
0.07 s with both.

What each op keeps for backward, besides its parents (whose data stays on
the tape until the op's closure has run):
- `+`, reshape, transpose, sum and mean: nothing;
- `*`, `/` and `@`: nothing more, but they read both parents' data;
- exp: its output; abs: nothing more (it reads its input);
- gelu: its input and the tanh (x, t), its backward three buffers of x's size;
- getitem: its index; put_rows: the row index;
- linear: the 2-D view of its input;
- embed: its int index arrays and its (N, 1) flag column;
- softmax and log_softmax: the probabilities (log_softmax also its mask);
- attention: the (B, H, T, T) probabilities and its row index;
- layer_norm: the normalized input and the inverse deviation.

attention() is causal multi-head attention as one node with a hand-written
backward. Its tape keeps only the (B, H, T, T) probabilities; the backward
places the packed q, k and v rows in the head layout again (three scatters)
and recomputes from them, rather than keeping the padded head copies, the raw
and scaled scores and the weighted sum that the composition of matmul,
softmax and the row ops kept. It runs the composition's numpy operations in
its order, in place where it can, so its outputs and gradients are
bit-equal to it.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True

_M_TRIM_THRESHOLD = -1  # glibc <malloc.h> mallopt parameters
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages(libc) -> bool:
    """Set libc's malloc to reuse freed memory rather than return it; False where there is no mallopt."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return True


try:
    _keep_freed_pages(ctypes.CDLL(None))
except (OSError, TypeError):  # no handle on the process's own symbols (Windows)
    pass


def _consumed(g):
    raise ValueError("backward() already ran through this tensor; rebuild the graph")


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy, not alias g; empty_like keeps self.data's memory layout,
            # which later BLAS calls on the gradient depend on bit for bit
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output; consumes the graph (see the module docstring)."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._backward = _consumed
                node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)
        out = _make(self.data / other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-g * self.data / (other.data ** 2), other.data.shape))
            out._backward = backward
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = _make(self.data @ other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad:
                    ga = g @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(ga, self.data.shape))
                if other.requires_grad:
                    gb = np.swapaxes(self.data, -1, -2) @ g
                    other._accumulate(_unbroadcast(gb, other.data.shape))
            out._backward = backward
        return out

    # elementwise functions --------------------------------------------------

    def exp(self):
        out = _make(np.exp(self.data), (self,))
        if out._parents:
            data = out.data
            def backward(g):
                self._accumulate(g * data)
            out._backward = backward
        return out

    def abs(self):
        out = _make(np.abs(self.data), (self,))
        if out._parents:
            def backward(g):
                self._accumulate(g * np.sign(self.data))
            out._backward = backward
        return out

    def gelu(self):
        """Gaussian error linear unit, tanh approximation (smooth everywhere)."""
        c = math.sqrt(2.0 / math.pi)
        a = 0.044715
        x = self.data
        t = np.tanh(c * (x + a * (x * x * x)))
        out = _make(0.5 * x * (1.0 + t), (self,))
        if out._parents:
            def backward(g):
                # g * (0.5 * (1 + t) + 0.5 * x * (1 - t ** 2) * c * (1 + 3 * a * x * x)), in that
                # expression's operations and order, in three buffers
                du = np.multiply(x, x)
                du *= 3.0 * a
                du += 1.0
                du *= c
                s = np.square(t)
                np.subtract(1.0, s, out=s)
                h = np.multiply(0.5, x)
                h *= s
                h *= du
                del du
                np.add(1.0, t, out=s)
                s *= 0.5
                s += h
                del h
                s *= g
                self._accumulate(s)
            out._backward = backward
        return out

    # shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        out = _make(self.data.reshape(*shape), (self,))
        if out._parents:
            def backward(g):
                self._accumulate(g.reshape(self.data.shape))
            out._backward = backward
        return out

    def transpose(self, axes: tuple[int, ...]):
        out = _make(self.data.transpose(axes), (self,))
        if out._parents:
            inverse = tuple(np.argsort(axes))
            def backward(g):
                self._accumulate(g.transpose(inverse))
            out._backward = backward
        return out

    def __getitem__(self, index):
        out = _make(self.data[index], (self,))
        if out._parents:
            def backward(g):
                flat = np.arange(self.data.size).reshape(self.data.shape)[index]
                self._accumulate(_bincount(flat, g, self.data.shape))
            out._backward = backward
        return out

    # reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            def backward(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _bincount(flat: np.ndarray, weights: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Array of `shape` whose flat entry i sums the weights at flat == i.

    Sums in input order starting from 0, exactly as np.add.at into zeros.
    """
    size = math.prod(shape)
    return np.bincount(flat.ravel(), weights=weights.ravel(), minlength=size).reshape(shape)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D weight, as one GEMM over x's flattened leading axes.

    The weight gradient is one GEMM too, so its sum over the leading axes is
    associated differently from a per-batch-element matmul.
    """
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = x2 @ w.data + b.data
    out = _make(y.reshape(x.data.shape[:-1] + y.shape[-1:]), (x, w, b))
    if out._parents:
        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            if x.requires_grad:
                x._accumulate((g2 @ w.data.T).reshape(x.data.shape))
            if w.requires_grad:
                w._accumulate(x2.T @ g2)
            if b.requires_grad:
                b._accumulate(g2.sum(axis=0))
        out._backward = backward
    return out


def _distinct_rows(rows: np.ndarray, n: int, op: str) -> np.ndarray:
    """rows as a 1-D int64 array of distinct indices in [0, n); raises ValueError otherwise."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError(f"{op} rows must be one-dimensional")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"{op} rows must lie in 0..{n - 1}")
    if np.bincount(rows, minlength=n).max(initial=0) > 1:
        raise ValueError(f"{op} rows must be distinct")
    return rows


def put_rows(x: Tensor, rows: np.ndarray, n: int) -> Tensor:
    """n rows of zeros with row rows[i] = x[i]; rows are distinct constants.

    Its backward is one exact gather.
    """
    rows = _distinct_rows(rows, n, "put_rows")
    if rows.size != x.data.shape[0]:
        raise ValueError(f"put_rows needs one row index per row of x, got {rows.size} for {x.data.shape[0]}")
    data = np.zeros((n,) + x.data.shape[1:])
    data[rows] = x.data
    out = _make(data, (x,))
    if out._parents:
        def backward(g):
            x._accumulate(g[rows])
        out._backward = backward
    return out


def _scatter_rows(rows: np.ndarray, g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Array of `shape` whose row r sums the rows g[i] with rows[i] == r, as getitem's backward sums them."""
    return _bincount(rows[:, None] * shape[1] + np.arange(shape[1]), g, shape)


def embed(signs: tuple[Tensor, Tensor, Tensor], sign_rows: np.ndarray, flag: np.ndarray,
          task: Tensor, task_rows: np.ndarray, seq: Tensor, seq_rows: np.ndarray) -> Tensor:
    """The (N, d) rows (signs[0][sign_rows[:, 0]] + signs[1][sign_rows[:, 1]] + signs[2][sign_rows[:, 2]])
    * flag + task[task_rows] + seq[seq_rows] as one node.

    The index arrays are int constants and flag an (N, 1) constant column.
    The node keeps only those; its backward scatters its gradient, times flag
    for the sign tables, into each table as getitem's backward does. It runs
    the composition's numpy operations in its order, in place where it can,
    so its output and gradients are bit-equal to it.
    """
    x = signs[0].data[sign_rows[:, 0]] + signs[1].data[sign_rows[:, 1]]
    x += signs[2].data[sign_rows[:, 2]]
    x *= flag
    x += task.data[task_rows]
    x += seq.data[seq_rows]
    out = _make(x, (*signs, task, seq))
    if out._parents:
        def backward(g):
            gf = g * flag
            for s, rows in zip(signs, sign_rows.T):
                if s.requires_grad:
                    s._accumulate(_scatter_rows(rows, gf, s.data.shape))
            del gf
            if task.requires_grad:
                task._accumulate(_scatter_rows(task_rows, g, task.data.shape))
            if seq.requires_grad:
                seq._accumulate(_scatter_rows(seq_rows, g, seq.data.shape))
        out._backward = backward
    return out


def _mask_logits(logits: np.ndarray, mask: np.ndarray, op: str) -> np.ndarray:
    """logits with its masked-out entries set to -inf, in place; every row must keep an entry."""
    if not mask.any(axis=-1).all():
        raise ValueError(f"{op} mask leaves a row with no legal entries")
    np.copyto(logits, -np.inf, where=~mask)
    return logits


def _softmax_rows(p: np.ndarray, mask: np.ndarray | None, op: str) -> np.ndarray:
    """p's softmax over the last axis, in place (see softmax)."""
    if mask is not None:
        _mask_logits(p, mask, op)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax over the last axis.

    mask (boolean, constant) marks entries to keep; masked-out entries get
    probability exactly 0. Every row must keep at least one entry.
    """
    p = _softmax_rows(np.array(x.data), None if mask is None else np.asarray(mask, dtype=bool), "softmax")
    out = _make(p, (x,))
    if out._parents:
        def backward(g):
            inner = (g * p).sum(axis=-1, keepdims=True)
            x._accumulate(p * (g - inner))
        out._backward = backward
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, shape: tuple[int, int], heads: int,
              rows: np.ndarray | None = None, extend=None) -> Tensor:
    """Causal multi-head attention as one node: the (N, d) context of (N, d) query, key and value rows.

    The N rows are the positions `rows` (distinct constants, row-major) of
    a (B, T) = shape grid, or all B * T of them in order without rows. Each
    of q, k and v is placed in the (B, heads, T, d / heads) head layout,
    zeros at the positions not in rows; the causal mask keeps those from
    every position in rows. Position t attends to positions 0..t, with
    scores scaled by 1 / sqrt(d / heads).

    With extend (inference only), the new (B, heads, T, d / heads) keys and
    values are handed to extend, which returns those of every position so
    far, the new ones last, as a KV cache does; the queries are the last T
    of those positions.

    The node keeps only the probabilities (B, heads, T, T'). Its backward
    places q, k and v in the head layout again, from its parents' data.
    """
    B, T = shape
    d = q.data.shape[1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    if rows is not None:
        rows = _distinct_rows(rows, B * T, "attention")
        if rows.size != q.data.shape[0]:
            raise ValueError(f"attention needs one row index per row of q, got {rows.size} for {q.data.shape[0]}")
    if extend is not None and _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad):
        raise ValueError("attention with a KV cache is inference only; run it under no_grad")

    def split(a):  # (N, d) rows -> (B, heads, T, dh) view of all B * T positions
        if rows is not None:
            full = np.zeros((B * T, d))
            full[rows] = a
            a = full
        return a.reshape(B, T, heads, dh).transpose((0, 2, 1, 3))

    def merge(a):  # (B, heads, T, dh) -> (N, d) rows
        a = a.transpose((0, 2, 1, 3)).reshape(B * T, d)
        return a if rows is None else a[rows]

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    if extend is not None:
        k4, v4 = extend(k4, v4)
    t0 = k4.shape[2] - T
    p = q4 @ k4.transpose((0, 1, 3, 2))
    p *= scale
    _softmax_rows(p, np.tril(np.ones((T, t0 + T), dtype=bool), k=t0), "attention")
    out = _make(merge(p @ v4), (q, k, v))
    if out._parents:
        def backward(g):
            g4 = np.ascontiguousarray(split(g))
            gp = g4 @ np.swapaxes(split(v.data), -1, -2)
            if v.requires_grad:
                v._accumulate(merge(np.swapaxes(p, -1, -2) @ g4))
            del g4
            for h in range(heads):  # softmax backward, then the scale; by head, to bound the temporary
                gh, ph = gp[:, h], p[:, h]
                gh -= (gh * ph).sum(axis=-1, keepdims=True)
                gh *= ph
                gh *= scale
            if q.requires_grad:
                q._accumulate(merge(gp @ split(k.data)))
            if k.requires_grad:
                k._accumulate(merge(np.swapaxes(np.swapaxes(split(q.data), -1, -2) @ gp, -1, -2)))
        out._backward = backward
    return out


def log_softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Log of softmax over the last axis; masked-out entries are -inf."""
    logits = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        logits = _mask_logits(np.array(logits), mask, "log_softmax")
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    e = np.exp(shifted)
    lse = m + np.log(e.sum(axis=-1, keepdims=True))
    out = _make(logits - lse, (x,))
    if out._parents:
        p = e / e.sum(axis=-1, keepdims=True)
        def backward(g):
            if mask is not None:
                g = np.where(mask, g, 0.0)
            inner = g.sum(axis=-1, keepdims=True)
            x._accumulate(g - p * inner)
        out._backward = backward
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _make(xhat * gamma.data + beta.data, (x, gamma, beta))
    if out._parents:
        def backward(g):
            if gamma.requires_grad:
                axes = tuple(range(g.ndim - 1))
                gamma._accumulate((g * xhat).sum(axis=axes))
            if beta.requires_grad:
                axes = tuple(range(g.ndim - 1))
                beta._accumulate(g.sum(axis=axes))
            if x.requires_grad:
                gh = g * gamma.data
                term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(term * inv)
        out._backward = backward
    return out

