"""ad.embed, the one-node embedding, against the composition it replaced.

The oracle is tests/reference_autodiff.embed: the three goal-sign gathers and
their sum, the has-target multiply, the task-row gather and its add and the
position gather and its add, each its own node. The op runs the same numpy
operations in the same order, so its output and gradients are compared byte
for byte.
"""

import contextlib

import numpy as np
import pytest
import reference_autodiff as ref
from test_autodiff_reference import loss_items

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor
from latticepath.model import KVCache, LossConfig, ModelConfig, PathModel, composite_loss, make_loss_batch

BATCHES = ("desk_0.1", "envelope_0.05")
D, N = 24, 50


def model_and_batch(name):
    cfg = ModelConfig(embed_dim=D, num_layers=2, num_heads=4, max_seq_len=32)
    items, _ = loss_items(name)
    batch = make_loss_batch(items, cfg)
    assert (batch.lengths < batch.lengths.max()).any()  # the batch has padding
    return PathModel(cfg, seed=7), batch


def logits_and_grads(model, batch, packed):
    model.zero_grad()
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths if packed else None)
    composite_loss(logits, batch, LossConfig())[0].backward()
    return logits.data, {n: p.grad for n, p in model.parameters()}


@pytest.mark.parametrize("packed", [True, False], ids=["lengths", "no_lengths"])
@pytest.mark.parametrize("name", BATCHES)
def test_a_training_step_equals_the_composition_byte_for_byte(name, packed):
    model, batch = model_and_batch(name)
    logits, grads = logits_and_grads(model, batch, packed)
    with ref.reference_embedding():
        want, want_grads = logits_and_grads(model, batch, packed)
    assert logits.tobytes() == want.tobytes()
    assert grads.keys() == want_grads.keys()
    for n in grads:
        assert grads[n].strides == want_grads[n].strides and grads[n].tobytes() == want_grads[n].tobytes(), n


@pytest.mark.parametrize("name", BATCHES)
def test_cached_steps_equal_the_composition_and_the_full_forward(name):
    model, batch = model_and_batch(name)
    T = batch.points.shape[1]
    steps = []
    for engine in (contextlib.nullcontext, ref.reference_embedding):
        cache = KVCache()
        with engine(), ad.no_grad():
            steps.append([model.forward_batch(batch.points[:, t:t + 1], batch.ctx_mat, cache).data[:, 0]
                          for t in range(T)])
    with ad.no_grad():
        full = model.forward_batch(batch.points, batch.ctx_mat).data
    for t, (got, want) in enumerate(zip(*steps)):
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, full[:, t], rtol=0.0, atol=1e-12)


def op_inputs(seed=0):
    """Tables, a task tensor and index arrays as forward_batch passes them, some rows repeated."""
    rng = np.random.default_rng(seed)
    signs = tuple(Tensor(rng.normal(size=(3, D)), requires_grad=True) for _ in range(3))
    task = Tensor(rng.normal(size=(4, D)), requires_grad=True)
    seq = Tensor(rng.normal(size=(32, D)), requires_grad=True)
    sign_rows = rng.integers(0, 3, size=(N, 3))
    flag = (rng.random((N, 1)) < 0.8).astype(np.float64)
    return signs, sign_rows, flag, task, np.sort(rng.integers(0, 4, size=N)), seq, rng.integers(3, 20, size=N)


@pytest.mark.parametrize("grad", ["all", "tables_only", "task_only"])
def test_the_op_equals_the_composition_for_each_set_of_grad_inputs(grad):
    runs = []
    for op in (ad.embed, ref.embed):
        signs, sign_rows, flag, task, task_rows, seq, seq_rows = args = op_inputs()
        if grad == "tables_only":
            task.requires_grad = False
        if grad == "task_only":
            for t in (*signs, seq):
                t.requires_grad = False
        out = op(*args)
        (out * np.random.default_rng(99).normal(size=out.shape)).sum().backward()
        runs.append([out.data] + [t.grad for t in (*signs, task, seq)])
    for got, want in zip(*runs):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_zero_flag_row_takes_no_sign_gradient():
    signs, sign_rows, flag, task, task_rows, seq, seq_rows = op_inputs(seed=3)
    flag[:] = 0.0
    out = ad.embed(signs, sign_rows, flag, task, task_rows, seq, seq_rows)
    np.testing.assert_array_equal(out.data, task.data[task_rows] + seq.data[seq_rows])
    out.sum().backward()
    for s in signs:
        assert not s.grad.any()
    np.testing.assert_array_equal(seq.grad.sum(axis=1), np.bincount(seq_rows, minlength=32) * float(D))


def test_no_node_is_recorded_without_grad():
    with ad.no_grad():
        out = ad.embed(*op_inputs())
    assert out._parents == () and out._backward is None and not out.requires_grad
