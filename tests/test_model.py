import math
from dataclasses import fields

import numpy as np
import pytest
from gradcheck import numeric_gradient

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor
from latticepath.corpus import Trajectory
from latticepath.lattice import LatticeCoord, Workspace, default_workspace, desk_workspace
from latticepath.model import (
    MOVE_VOCAB,
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    StepLogits,
    TrainCounters,
    composite_loss,
    context_features,
    fit,
    make_loss_batch,
    masked_softmax,
    train_step,
)
from latticepath.taskgrid import build_context, reach_only_graph

C = LatticeCoord


def tiny_cfg(**overrides):
    base = dict(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=8)
    base.update(overrides)
    return ModelConfig(**base)


def ctx_for(goal, hint=4):
    return build_context(reach_only_graph(), 0, sequence_length_hint=hint, target=goal)


# config and logits ------------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(embed_dim=10, num_heads=4)  # not divisible
    with pytest.raises(ValueError):
        tiny_cfg(max_seq_len=1)
    with pytest.raises(ValueError):
        ModelConfig(move_vocab=6)


@pytest.mark.parametrize("field, value, least", [
    ("embed_dim", 0, 1), ("embed_dim", -4, 1), ("num_heads", 0, 1), ("num_layers", -1, 0),
])
def test_model_config_rejects_sizes_below_their_least_by_name(field, value, least):
    with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {value}$"):
        tiny_cfg(**{field: value})


def test_model_config_round_trip():
    cfg = tiny_cfg(max_seq_len=12)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert [f.name for f in fields(cfg)] == [
        "embed_dim", "num_layers", "num_heads", "max_seq_len", "task_feature_width", "move_vocab"]


def test_step_logits_masks_illegal_entries():
    raw = np.arange(7.0)
    legal = np.array([True, False, True, True, True, True, True])
    s = StepLogits(raw=raw, legal_mask=legal)
    assert s.masked[1] == -np.inf
    assert s.masked[0] == 0.0


def test_step_logits_shape_checked():
    with pytest.raises(ValueError):
        StepLogits(raw=np.zeros(6), legal_mask=np.ones(6, dtype=bool))


def test_masked_softmax_uniform_over_legal():
    legal = np.array([True, True, False, False, True, False, True])
    p = masked_softmax(StepLogits(raw=np.zeros(7), legal_mask=legal))
    np.testing.assert_allclose(p[legal], 0.25)
    assert np.all(p[~legal] == 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_masked_softmax_single_legal_entry():
    legal = np.zeros(7, dtype=bool)
    legal[6] = True
    p = masked_softmax(StepLogits(raw=np.random.default_rng(0).normal(size=7), legal_mask=legal))
    assert p[6] == 1.0
    assert np.all(p[:6] == 0.0)


def test_masked_softmax_matches_plain_softmax_when_all_legal():
    raw = np.random.default_rng(1).normal(size=7)
    p = masked_softmax(StepLogits(raw=raw, legal_mask=np.ones(7, dtype=bool)))
    e = np.exp(raw - raw.max())
    np.testing.assert_allclose(p, e / e.sum(), atol=1e-12)


def test_masked_softmax_requires_a_legal_entry():
    with pytest.raises(ValueError):
        masked_softmax(StepLogits(raw=np.zeros(7), legal_mask=np.zeros(7, dtype=bool)))


def test_context_features_goal_block():
    cfg = tiny_cfg()
    far = context_features(ctx_for(C(40, -17, 9)), cfg)
    assert far[-4:].tolist() == [40.0, -17.0, 9.0, 1.0]  # the target as integers, then the has-target flag
    assert context_features(ctx_for(None), cfg)[-4:].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert far[:-4].tolist() == list(ctx_for(None).task_feature_vector)


def test_context_features_rejects_wrong_width():
    cfg = tiny_cfg(task_feature_width=3)
    with pytest.raises(ValueError):
        context_features(ctx_for(C(0, 0, 0)), cfg)


# embeddings and forward -------------------------------------------------------


def test_forward_interior_cell_all_legal():
    m = PathModel(tiny_cfg(), seed=0)
    s = m.forward([C(0, 0, 2)], ctx_for(C(1, 0, 2)), desk_workspace())
    assert s.legal_mask.tolist() == [True] * 7


def test_forward_corner_cell_three_moves_plus_stop():
    m = PathModel(tiny_cfg(), seed=0)
    s = m.forward([C(-22, -22, 0)], ctx_for(C(0, 0, 0)), default_workspace())
    assert s.legal_mask.tolist() == [True, False, True, False, True, False, True]
    p = masked_softmax(s)
    assert np.all(p[[1, 3, 5]] == 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_validates_prefix():
    m = PathModel(tiny_cfg(), seed=0)
    w = desk_workspace()
    ctx = ctx_for(C(0, 0, 0))
    with pytest.raises(ValueError):
        m.forward([], ctx, w)
    with pytest.raises(ValueError):
        m.forward([C(0, 0, 0)] * 9, ctx, w)
    with pytest.raises(ValueError):
        m.forward([C(0, 0, -1)], ctx, w)


def test_forward_batch_is_causal_and_deterministic_per_seed():
    """Changing a later point must not perturb earlier logits at all; the seed alone fixes the logits."""
    m = PathModel(tiny_cfg(), seed=1)
    ctx = context_features(ctx_for(C(2, 0, 0)), m.cfg)[None, :]
    pts_a = np.array([[(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0)]], dtype=np.int64)
    pts_b = np.array([[(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 0, 1)]], dtype=np.int64)
    la = m.forward_batch(pts_a, ctx).data
    lb = m.forward_batch(pts_b, ctx).data
    np.testing.assert_array_equal(la[0, :3], lb[0, :3])
    assert not np.array_equal(la[0, 3], lb[0, 3])
    np.testing.assert_array_equal(PathModel(tiny_cfg(), seed=1).forward_batch(pts_a, ctx).data, la)
    assert not np.array_equal(PathModel(tiny_cfg(), seed=2).forward_batch(pts_a, ctx).data, la)


def test_forward_batch_rejects_overlong_points():
    m = PathModel(tiny_cfg(), seed=0)
    ctx = context_features(ctx_for(C(0, 0, 0)), m.cfg)[None, :]
    with pytest.raises(ValueError, match="exceeds max_seq_len"):
        m.forward_batch(np.zeros((1, 9, 3), dtype=np.int64), ctx)


def test_goal_sign_embedding_reads_only_the_direction_of_the_target():
    """Cells on the same side of the target on every axis get the same logits; a row without a
    target adds no goal-sign row, however far its cells lie."""
    m = PathModel(tiny_cfg(), seed=3)
    near = np.array([[(0, 0, 0), (1, 0, 0)]], dtype=np.int64)
    far = np.array([[(-50, 0, 0), (-49, 0, 0)]], dtype=np.int64)  # still below the target on x, level on y, z
    ctx = context_features(ctx_for(C(5, 0, 0)), m.cfg)[None, :]
    np.testing.assert_array_equal(m.forward_batch(near, ctx).data, m.forward_batch(far, ctx).data)
    above = np.array([[(0, 0, 0), (6, 0, 0)]], dtype=np.int64)  # past the target on x
    assert not np.array_equal(m.forward_batch(above, ctx).data[0, 1], m.forward_batch(near, ctx).data[0, 1])
    none = context_features(ctx_for(None), m.cfg)[None, :]
    np.testing.assert_array_equal(m.forward_batch(near, none).data, m.forward_batch(above + 1000, none).data)


# loss ---------------------------------------------------------------------------


def one_move_batch(cfg):
    # interior cells (z=2): all six moves plus STOP are legal at both points
    traj = Trajectory(points=(C(0, 0, 2), C(1, 0, 2)))
    return make_loss_batch([(traj, ctx_for(C(1, 0, 2), hint=2), desk_workspace())], cfg)


def test_make_loss_batch_layout():
    cfg = tiny_cfg()
    t1 = Trajectory(points=(C(0, 0, 0), C(1, 0, 0)))
    t2 = Trajectory(points=(C(0, 0, 0), C(0, 1, 0), C(0, 2, 0), C(1, 2, 0)))
    t3 = Trajectory(points=(C(0, 0, 0), C(1, 0, 0), C(0, 0, 0)))  # back to its start
    w = desk_workspace()
    batch = make_loss_batch([(t, ctx_for(t.end), w) for t in (t1, t2, t3)], cfg)
    assert [f.name for f in fields(batch)] == [
        "points", "ctx_mat", "gold_moves", "legal", "lengths", "on_path", "gold_set_size"]
    assert batch.points.shape == (3, 4, 3)
    np.testing.assert_array_equal(batch.points[0, 1:], np.array([[1, 0, 0]] * 3))  # padding repeats
    assert batch.gold_moves[0].tolist() == [0, 6, 6, 6]  # +x, then STOP padding
    assert batch.gold_moves[1].tolist() == [2, 2, 0, 6]
    np.testing.assert_array_equal(batch.legal[0, 2], batch.legal[0, 1])
    assert batch.lengths.tolist() == [2, 4, 3]
    # move order +x -x +y -y +z -z; a padded position repeats the last point's row
    on = [[[i for i, hit in enumerate(row) if hit] for row in rows] for rows in batch.on_path.tolist()]
    assert on[0] == [[0], [1], [1], [1]]
    assert on[1] == [[2], [2, 3], [0, 3], [1]]
    assert on[2] == [[0], [1], [0], [0]]
    assert batch.gold_set_size.tolist() == [2.0, 4.0, 2.0]  # the revisit counts once


def test_make_loss_batch_shifts_with_its_items():
    """Shifting paths, targets and workspace moves the points and the target columns, and nothing else."""
    paths = [Trajectory(points=(C(0, 0, 0), C(1, 0, 0))),
             Trajectory(points=(C(-3, -3, 0), C(-3, -3, 1), C(-3, -2, 1)))]
    d = np.array([20, -10, 5])
    shift = C(*d.tolist())
    moved_w = Workspace(*(np.repeat(d, 2) + desk_workspace().bounds).tolist())
    items = [(t, ctx_for(t.end), desk_workspace()) for t in paths]
    moved = [(Trajectory(points=tuple(p.offset(*shift.as_tuple()) for p in t.points)),
              ctx_for(t.end.offset(*shift.as_tuple())), moved_w) for t in paths]
    a, b = make_loss_batch(items, tiny_cfg()), make_loss_batch(moved, tiny_cfg())
    np.testing.assert_array_equal(b.points, a.points + d)
    np.testing.assert_array_equal(b.ctx_mat[:, -4:-1], a.ctx_mat[:, -4:-1] + d)
    np.testing.assert_array_equal(b.ctx_mat[:, :-4], a.ctx_mat[:, :-4])
    for f in fields(a):
        if f.name not in ("points", "ctx_mat"):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def test_make_loss_batch_rejects_empty_and_overlong():
    cfg = tiny_cfg(max_seq_len=3)
    with pytest.raises(ValueError):
        make_loss_batch([], cfg)
    t = Trajectory(points=(C(0, 0, 0), C(1, 0, 0), C(2, 0, 0), C(3, 0, 0)))
    with pytest.raises(ValueError):
        make_loss_batch([(t, ctx_for(t.end), desk_workspace())], cfg)


def test_composite_loss_uniform_logits_hand_values():
    """Zero logits mean uniform p=1/7 over the 7 legal entries at interior cells."""
    cfg = tiny_cfg()
    batch = one_move_batch(cfg)
    logits = Tensor(np.zeros((1, 2, MOVE_VOCAB)))
    _, bd = composite_loss(logits, batch, LossConfig())
    assert bd.seq == pytest.approx(math.log(7.0), abs=1e-12)
    assert bd.valid == pytest.approx(0.0, abs=1e-15)
    assert bd.cov == pytest.approx(math.log(7.0) + 1.0 / 7.0, abs=1e-12)
    assert bd.len == pytest.approx(1.0 / 14.0, abs=1e-12)
    assert 0.0 <= bd.coord <= 1.0


def test_composite_loss_zero_lambdas_reduce_to_seq():
    cfg = tiny_cfg()
    batch = one_move_batch(cfg)
    logits = Tensor(np.random.default_rng(2).normal(size=(1, 2, MOVE_VOCAB)))
    _, bd = composite_loss(
        logits, batch, LossConfig(lambda_coord=0.0, lambda_valid=0.0, lambda_cov=0.0, lambda_len=0.0)
    )
    assert bd.total == pytest.approx(bd.seq, abs=1e-15)


def test_composite_loss_names_non_finite_terms():
    cfg = tiny_cfg()
    batch = one_move_batch(cfg)
    logits = Tensor(np.full((1, 2, MOVE_VOCAB), np.inf))
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError):
            composite_loss(logits, batch, LossConfig())


def test_composite_loss_gradcheck_through_model():
    """End-to-end analytic gradients of the total loss for a few parameters; the batch's cells lie below,
    level with and above their targets on x, so every row of sign_x is checked."""
    cfg = tiny_cfg()
    m = PathModel(cfg, seed=5)
    t1 = Trajectory(points=(C(0, 0, 0), C(1, 0, 0), C(1, 1, 0)))
    t2 = Trajectory(points=(C(-1, 0, 1), C(-1, 1, 1)))
    t3 = Trajectory(points=(C(0, 0, 2), C(-1, 0, 2)))
    w = desk_workspace()
    batch = make_loss_batch([(t1, ctx_for(t1.end, 3), w), (t2, ctx_for(t2.end, 2), w),
                             (t3, ctx_for(C(-2, 0, 3), 2), w)], cfg)
    lcfg = LossConfig()

    def loss_value():
        total, _ = composite_loss(m.forward_batch(batch.points, batch.ctx_mat), batch, lcfg)
        return total

    m.zero_grad()
    loss_value().backward()
    for name in ("sign_x", "l0.wq", "l0.w1", "lnf_g", "head_w"):
        p = m.params[name]
        analytic = p.grad.copy()
        original = p.data.copy()

        def f(candidate):
            p.data[...] = candidate
            with ad.no_grad():
                v = loss_value().item()
            p.data[...] = original
            return v

        numeric = numeric_gradient(f, original, h=1e-4)
        if name == "sign_x":
            assert (np.abs(numeric).max(axis=1) > 0).all()  # below, level and above each have a gradient
        denom = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / denom < 1e-4, name


# optimizers ---------------------------------------------------------------------


def test_optimizer_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="rmsprop")
    cfg = OptimizerConfig(kind="adam", lr=0.01, weight_decay=0.1)
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg


def test_sgd_step():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, 0.5])
    Optimizer(OptimizerConfig(kind="sgd", lr=0.1)).step([("p", p)])
    np.testing.assert_allclose(p.data, [0.95, -2.05])


def test_momentum_accumulates_velocity():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Optimizer(OptimizerConfig(kind="momentum", lr=1.0, momentum=0.9))
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step([("p", p)])
    # steps: -1.0, then -(0.9 + 1.0)
    np.testing.assert_allclose(p.data, [-2.9])


def test_adam_first_step_is_lr_sized():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([123.0])
    Optimizer(OptimizerConfig(kind="adam", lr=0.01)).step([("p", p)])
    np.testing.assert_allclose(p.data, [-0.01], rtol=1e-6)


def test_decoupled_weight_decay_applies_after_update():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    Optimizer(OptimizerConfig(kind="sgd", lr=0.1, weight_decay=0.5)).step([("p", p)])
    np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.05)])


def test_train_step_zero_lr_keeps_parameters():
    cfg = tiny_cfg()
    m = PathModel(cfg, seed=6)
    before = {k: v.data.copy() for k, v in m.params.items()}
    batch = one_move_batch(cfg)
    train_step(m, batch, LossConfig(), Optimizer(OptimizerConfig(kind="sgd", lr=0.0)))
    for k, v in m.params.items():
        np.testing.assert_array_equal(v.data, before[k])


def test_fit_returns_per_epoch_history():
    cfg = tiny_cfg()
    m = PathModel(cfg, seed=7)
    w = desk_workspace()
    items = [
        (Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), ctx_for(C(1, 0, 0), 2), w),
        (Trajectory(points=(C(0, 0, 0), C(0, 1, 0))), ctx_for(C(0, 1, 0), 2), w),
    ]
    seen = []
    history = fit(m, items, LossConfig(), Optimizer(OptimizerConfig(kind="sgd", lr=0.1)),
                  epochs=3, batch_size=2, seed=0, log=lambda e, bd: seen.append(e))
    assert len(history) == 3
    assert seen == [0, 1, 2]
    assert history[2].total < history[0].total  # it should be learning this


@pytest.mark.parametrize("field", ["lr", "weight_decay", "momentum", "beta1", "beta2", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_optimizer_config_rejects_non_finite_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        OptimizerConfig(**{field: value})


def test_fit_names_the_epoch_a_run_diverges_in():
    w = desk_workspace()
    items = [(Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), ctx_for(C(1, 0, 0), 2), w)] * 4
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="^training diverged at epoch 0: non-finite loss term: "):
        fit(PathModel(tiny_cfg(), seed=7), items, LossConfig(), Optimizer(OptimizerConfig(kind="sgd", lr=1e300)),
            epochs=3, batch_size=1, seed=0)


def test_fit_is_deterministic():
    cfg = tiny_cfg()
    w = desk_workspace()
    items = [
        (Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), ctx_for(C(1, 0, 0), 2), w),
        (Trajectory(points=(C(1, 1, 0), C(1, 2, 0))), ctx_for(C(1, 2, 0), 2), w),
        (Trajectory(points=(C(0, 0, 1), C(0, 0, 2))), ctx_for(C(0, 0, 2), 2), w),
    ]

    def run():
        m = PathModel(cfg, seed=8)
        fit(m, items, LossConfig(), Optimizer(OptimizerConfig(kind="adam", lr=0.01)),
            epochs=2, batch_size=2, seed=3)
        return {k: v.data.copy() for k, v in m.params.items()}

    a, b = run(), run()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_fit_checks_every_record_before_the_first_step():
    w = desk_workspace()
    items = [(Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), ctx_for(C(1, 0, 0), 2), w)] * 3
    items.append((Trajectory(points=(C(0, 0, 0), C(2, 0, 0))), ctx_for(C(2, 0, 0), 2), w))
    opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
    with pytest.raises(ValueError):
        fit(PathModel(tiny_cfg(), seed=1), items, LossConfig(), opt, epochs=1, batch_size=1)
    assert opt.step_count == 0


def test_fit_counters():
    w = desk_workspace()
    items = [(Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), ctx_for(C(1, 0, 0), 2), w)] * 5
    opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1))
    counters = TrainCounters()
    fit(PathModel(tiny_cfg(), seed=1), items, LossConfig(), opt, epochs=3, batch_size=2, counters=counters)
    assert counters == TrainCounters(epochs=3, batches=9, records_seen=15, optimizer_steps=9)
