"""ad.attention, the one-node attention, against the composition it replaced.

The oracle is tests/reference_autodiff.attention: put_rows, the head reshape
and transpose, q @ k^T, the scale, the masked softmax, @ v, the merge and
take_rows, each its own node. The op runs the same numpy operations in the
same order, so its outputs and gradients are compared byte for byte.
"""

import contextlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
import reference_autodiff as ref
from gradcheck import numeric_gradient
from test_autodiff_reference import loss_items

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor
from latticepath.model import KVCache, LossConfig, ModelConfig, PathModel, composite_loss, make_loss_batch

BATCHES = ("desk_0.1", "envelope_0.05")
D, HEADS = 24, 4  # a head width of 6: the 1 / sqrt(6) scale rounds, so its place in the order shows


def padded_batch(name):
    items, _ = loss_items(name)
    batch = make_loss_batch(items, ModelConfig(embed_dim=D, num_heads=HEADS, max_seq_len=32))
    assert (batch.lengths < batch.lengths.max()).any()  # the batch has padding
    return batch


def real_rows(lengths):
    return np.flatnonzero(np.arange(lengths.max()) < lengths[:, None])


def qkv(n, seed=0, d=D):
    return [np.random.default_rng(seed + i).normal(size=(n, d)) for i in range(3)]


def run(op, arrays, shape, rows=None, heads=HEADS):
    """The op's output and the q, k and v gradients of sum(output * fixed weights)."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts, shape, heads, rows=rows)
    weights = np.random.default_rng(99).normal(size=out.shape)
    (out * weights).sum().backward()
    return out.data, [t.grad for t in ts]


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("packed", [True, False], ids=["lengths", "no_lengths"])
@pytest.mark.parametrize("name", BATCHES)
def test_output_and_gradients_equal_the_composition_byte_for_byte(name, packed):
    lengths = padded_batch(name).lengths
    B, T = len(lengths), int(lengths.max())
    rows = real_rows(lengths) if packed else None
    arrays = qkv(B * T if rows is None else rows.size)
    out, grads = run(ad.attention, arrays, (B, T), rows)
    want, want_grads = run(ref.attention, arrays, (B, T), rows)
    assert_bytes_equal(out, want)
    for g, w in zip(grads, want_grads):
        assert_bytes_equal(g, w)


@pytest.mark.parametrize("name", BATCHES)
def test_cached_steps_equal_the_composition_at_every_position(name):
    lengths = padded_batch(name).lengths
    B, T = len(lengths), int(lengths.max())
    steps = qkv(B * T, seed=5)
    caches = {ad.attention: KVCache(), ref.attention: KVCache()}
    with ad.no_grad():
        for t in range(T):
            at_t = [a.reshape(B, T, D)[:, t] for a in steps]
            outs = [op(*map(Tensor, at_t), (B, 1), HEADS, extend=partial(cache.extend, 0)).data
                    for op, cache in caches.items()]
            assert_bytes_equal(*outs)
    for a, b in zip(*(c.keys + c.values for c in caches.values())):
        assert a.shape == (B, HEADS, T, D // HEADS) and a.tobytes() == b.tobytes()


def test_gradients_match_finite_differences_on_a_padded_batch():
    rows = real_rows(np.array([4, 2, 3]))
    arrays = qkv(rows.size, seed=11, d=6)
    _, grads = run(ad.attention, arrays, (3, 4), rows, heads=2)
    weights = np.random.default_rng(99).normal(size=(rows.size, 6))  # run's weights

    def loss(i, a):
        args = [Tensor(a if j == i else arrays[j]) for j in range(3)]
        return (ad.attention(*args, (3, 4), 2, rows=rows) * weights).sum().item()

    for i, g in enumerate(grads):  # criterion 03's step and tolerance, at every entry
        num = numeric_gradient(partial(loss, i), arrays[i], h=1e-4)
        assert (np.abs(g - num) <= np.maximum(1e-7, 1e-4 * np.maximum(np.abs(g), np.abs(num)))).all(), "qkv"[i]


def model_and_batch(name, num_layers=2):
    cfg = ModelConfig(embed_dim=D, num_layers=num_layers, num_heads=HEADS, max_seq_len=32)
    return PathModel(cfg, seed=7), padded_batch(name)


def logits_and_grads(model, batch):
    model.zero_grad()
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
    composite_loss(logits, batch, LossConfig())[0].backward()
    return logits.data, {n: p.grad for n, p in model.parameters()}


@pytest.mark.parametrize("name", BATCHES)
def test_a_training_step_equals_the_composition_byte_for_byte(name):
    model, batch = model_and_batch(name)
    logits, grads = logits_and_grads(model, batch)
    with ref.reference_attention():
        want, want_grads = logits_and_grads(model, batch)
    assert_bytes_equal(logits, want)
    assert grads.keys() == want_grads.keys()
    for n in grads:
        assert grads[n].tobytes() == want_grads[n].tobytes(), n


def test_the_model_cached_step_equals_the_composition_at_every_position():
    model, batch = model_and_batch("envelope_0.05")
    steps = []
    for engine in (contextlib.nullcontext, ref.reference_attention):
        cache = KVCache()
        with engine(), ad.no_grad():
            steps.append([model.forward_batch(batch.points[:, t:t + 1], batch.ctx_mat, cache).data
                          for t in range(batch.points.shape[1])])
    for got, want in zip(*steps):
        assert_bytes_equal(got, want)


def test_the_backward_closure_keeps_only_the_probabilities_besides_its_parents():
    # the float arrays reachable from the closure, its helpers' closures included; the int row
    # index is a constant of the batch, not an activation
    lengths = padded_batch("envelope_0.05").lengths
    B, T = len(lengths), int(lengths.max())
    rows = real_rows(lengths)
    q, k, v = (Tensor(a, requires_grad=True) for a in qkv(rows.size))
    out = ad.attention(q, k, v, (B, T), HEADS, rows=rows)
    assert out._parents == (q, k, v)
    held, stack = [], [out._backward]
    while stack:
        for cell in stack.pop().__closure__ or ():
            c = cell.cell_contents
            if callable(c) and not isinstance(c, Tensor) and getattr(c, "__closure__", None):
                stack.append(c)
            elif isinstance(c, np.ndarray) and c.dtype.kind == "f":
                held.append(c)
    assert len(held) == 1 and held[0].shape == (B, HEADS, T, T)
    np.testing.assert_allclose(held[0].sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert not np.triu(held[0], k=1).any()  # causal: no weight on a later position


def tape_bytes(model, batch):
    """Bytes that numpy and Python hold after the training forward, its output kept."""
    tracemalloc.start()
    try:
        logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    return held


def test_the_training_tape_is_at_least_a_fifth_smaller_than_the_composition():
    model, batch = model_and_batch("envelope_0.05")
    fused = tape_bytes(model, batch)
    with ref.reference_attention():
        composed = tape_bytes(model, batch)
    assert fused <= 0.8 * composed, (fused, composed)


def test_a_kv_cache_is_refused_while_recording():
    q, k, v = (Tensor(a, requires_grad=True) for a in qkv(2))
    with pytest.raises(ValueError, match="inference only"):
        ad.attention(q, k, v, (2, 1), HEADS, extend=partial(KVCache().extend, 0))


def test_rows_must_match_the_query_rows():
    q, k, v = (Tensor(a) for a in qkv(3))
    with pytest.raises(ValueError, match="attention needs one row index per row of q, got 2 for 3"):
        ad.attention(q, k, v, (2, 2), HEADS, rows=np.array([0, 2]))
