"""Packed training positions against the padded forward they replace.

With `lengths`, PathModel.forward_batch runs every per-position layer on the
real positions only; without it every slot is real, which is the padded
computation train_step ran before. The padded path stays as the oracle here.
"""

import numpy as np
import pytest
from test_autodiff_reference import CORPORA, corpus_items

import latticepath.autodiff as ad
from latticepath.model import (
    KVCache,
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    composite_loss,
    make_loss_batch,
    train_step,
)


def model_for(name, num_layers, seed=7):
    cfg = ModelConfig(embed_dim=16, num_layers=num_layers, num_heads=4, max_seq_len=16)
    return PathModel(cfg, seed=seed)


class PaddedModel(PathModel):
    """The oracle: every slot of the padded batch runs through every layer."""

    def forward_batch(self, points, ctx_mat, cache=None, lengths=None):
        return super().forward_batch(points, ctx_mat, cache)


def logits_and_grads(model, batch, packed):
    model.zero_grad()
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths if packed else None)
    total, _ = composite_loss(logits, batch, LossConfig())
    total.backward()
    return logits.data, {name: p.grad.copy() for name, p in model.parameters()}


def real_mask(batch):
    return np.arange(batch.points.shape[1]) < batch.lengths[:, None]


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("name", CORPORA)
def test_packed_logits_and_gradients_match_the_padded_path(name, num_layers):
    model = model_for(name, num_layers)
    batch = make_loss_batch(corpus_items(name, count=40), model.cfg)
    real = real_mask(batch)
    assert not real.all()  # the batch has padding to skip
    padded, padded_grads = logits_and_grads(model, batch, packed=False)
    packed, packed_grads = logits_and_grads(model, batch, packed=True)
    np.testing.assert_allclose(packed[real], padded[real], rtol=1e-12, atol=1e-12)
    assert not packed[~real].any()  # padded slots hold zero logits
    assert packed_grads.keys() == padded_grads.keys()
    for pname, want in padded_grads.items():
        scale = np.abs(want).max()
        np.testing.assert_allclose(packed_grads[pname], want, rtol=1e-10, atol=1e-10 * scale, err_msg=pname)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_a_batch_without_padding_gives_bitwise_equal_logits(num_layers):
    items = corpus_items("desk_0.1", count=80)
    length = max({len(t) for t, _, _ in items}, key=lambda n: sum(len(t) == n for t, _, _ in items))
    same = [it for it in items if len(it[0]) == length]
    assert len(same) >= 4
    model = model_for("desk_0.1", num_layers)
    batch = make_loss_batch(same, model.cfg)
    assert real_mask(batch).all()
    padded, padded_grads = logits_and_grads(model, batch, packed=False)
    packed, packed_grads = logits_and_grads(model, batch, packed=True)
    assert packed.tobytes() == padded.tobytes()
    for pname, want in padded_grads.items():
        np.testing.assert_allclose(packed_grads[pname], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_adam_steps_track_the_padded_path():
    items = corpus_items("desk_0.1", count=64, seed=5)
    cfg = ModelConfig(embed_dim=32, num_layers=2, num_heads=4, max_seq_len=16)
    batch = make_loss_batch(items, cfg)
    assert not real_mask(batch).all()
    losses = []
    for cls in (PathModel, PaddedModel):
        model = cls(cfg, seed=7)
        opt = Optimizer(OptimizerConfig(kind="adam", lr=3e-3))
        losses.append([train_step(model, batch, LossConfig(), opt).total for _ in range(20)])
    np.testing.assert_allclose(losses[0], losses[1], rtol=1e-9, atol=0.0)
    assert losses[0][-1] < losses[0][0]


# lengths validation -------------------------------------------------------------


def test_forward_batch_accepts_lengths_without_grad():
    model = model_for("desk_0.1", 1)
    batch = make_loss_batch(corpus_items("desk_0.1", count=8), model.cfg)
    with ad.no_grad():
        out = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
    assert out.shape == batch.points.shape[:2] + (7,) and not out.requires_grad


@pytest.mark.parametrize("lengths, match", [
    (np.array([3, 3]), r"lengths must have shape \(3,\), got \(2,\)"),
    (np.array([[3, 3, 3]]), r"lengths must have shape \(3,\), got \(1, 3\)"),
    (np.array([3, 0, 2]), r"lengths must lie in 1\.\.4, got 0\.\.3"),
    (np.array([3, 5, 2]), r"lengths must lie in 1\.\.4, got 2\.\.5"),
    (np.array([3.0, 2.0, 1.0]), "lengths must be integers"),
], ids=["short", "two_dim", "zero", "past_T", "float"])
def test_forward_batch_rejects_bad_lengths(lengths, match):
    model = model_for("desk_0.1", 1)
    points = np.zeros((3, 4, 3), dtype=np.int64)
    ctx = np.zeros((3, model.cfg.task_feature_width + 4))
    with pytest.raises(ValueError, match=match):
        model.forward_batch(points, ctx, lengths=lengths)


def test_forward_batch_rejects_lengths_with_a_cache():
    model = model_for("desk_0.1", 1)
    points = np.zeros((2, 1, 3), dtype=np.int64)
    ctx = np.zeros((2, model.cfg.task_feature_width + 4))
    cache = KVCache()
    with ad.no_grad(), pytest.raises(ValueError, match="lengths cannot be combined with a cache"):
        model.forward_batch(points, ctx, cache, lengths=np.array([1, 1]))
    assert cache.t == 0 and not cache.keys
