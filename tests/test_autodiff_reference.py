"""The fused training hot path against the code it replaced (tests/reference_autodiff.py)."""

import contextlib
import math

import numpy as np
import pytest
import reference_autodiff as ref
from gradcheck import numeric_gradient

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor
from latticepath.corpus import GenerationConfig, Trajectory, generate_corpus
from latticepath.lattice import MOVES, LatticeCoord, Workspace, default_workspace, desk_workspace, legal_moves
from latticepath.model import (
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    composite_loss,
    make_loss_batch,
    supervision_row,
    supervision_rows,
    train_step,
)

SHAPES = {"2d": (6, 5), "3d": (3, 4, 5), "4d": (2, 3, 4, 5)}


def rng(seed=0):
    return np.random.default_rng(seed)


def grads(build, *arrays):
    """Output and input gradients of sum(build(*tensors) * fixed weights)."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*ts)
    weights = rng(99).normal(size=out.shape)
    (out * weights).sum().backward()
    return out.data, [t.grad for t in ts]


def close(new, old, rtol=1e-12):
    np.testing.assert_allclose(new, old, rtol=rtol, atol=0.0)


# fused linear node -----------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_linear_matches_batched_matmul_reference(shape):
    x, w, b = rng(1).normal(size=shape), rng(2).normal(size=(shape[-1], 7)), rng(3).normal(size=7)
    out, (gx, gw, gb) = grads(ad.linear, x, w, b)
    ref_out, (rx, rw, rb) = grads(ref.linear, x, w, b)
    assert out.shape == shape[:-1] + (7,) and gw.shape == w.shape and gb.shape == b.shape
    close(out, ref_out)
    close(gx, rx)
    close(gw, rw)
    close(gb, rb)


def test_linear_finite_differences_in_x_w_and_b():
    x, w, b = rng(4).normal(size=(2, 3, 4)), rng(5).normal(size=(4, 3)), rng(6).normal(size=3)
    weights = rng(7).normal(size=(2, 3, 3))

    def loss(xa, wa, ba):
        return (ad.linear(xa, wa, ba) * weights).sum()

    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    loss(tx, tw, tb).backward()
    num_x = numeric_gradient(lambda v: loss(Tensor(v), Tensor(w), Tensor(b)).item(), x, h=1e-6)
    num_w = numeric_gradient(lambda v: loss(Tensor(x), Tensor(v), Tensor(b)).item(), w, h=1e-6)
    num_b = numeric_gradient(lambda v: loss(Tensor(x), Tensor(w), Tensor(v)).item(), b, h=1e-6)
    np.testing.assert_allclose(tx.grad, num_x, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(tw.grad, num_w, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(tb.grad, num_b, rtol=1e-6, atol=1e-8)


def test_linear_with_a_constant_input_skips_its_gradient():
    x = Tensor(rng(8).normal(size=(4, 3)))
    w, b = Tensor(rng(9).normal(size=(3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    ad.linear(x, w, b).sum().backward()
    assert x.grad is None
    np.testing.assert_array_equal(b.grad, np.full(2, 4.0))


# product-form GELU -------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_gelu_matches_pow_cube_reference(shape):
    x = rng(10).normal(size=shape) * 3.0
    out, (g,) = grads(lambda t: t.gelu(), x)
    ref_out, (rg,) = grads(ref.gelu, x)
    close(out, ref_out)
    close(g, rg)


def expression_gelu_grad(x, g):
    """Tensor.gelu's input gradient as the one numpy expression its backward evaluated before it took buffers."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * (x * x * x)))
    du = c * (1.0 + 3.0 * a * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du)


GELU_SCALES = {"unit": 1.0, "wide": 30.0, "huge": 1e150}
GELU_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 3.0, -3.0, 40.0, -40.0, 1e154, -1e154,
                       1e200, -1e200, 1.7e308, -1.7e308])  # x * x overflows from about 1.3e154


@pytest.mark.parametrize("scale", GELU_SCALES.values(), ids=GELU_SCALES.keys())
def test_gelu_backward_equals_the_expression_it_replaced_byte_for_byte(scale):
    x = np.concatenate([rng(11).normal(size=(40, 24)).ravel() * scale, GELU_EDGES]).reshape(-1, 8)
    g = rng(12).normal(size=x.shape) * np.where(rng(13).random(x.shape) < 0.1, 1e200, 1.0)
    t = Tensor(x, requires_grad=True)
    with np.errstate(all="ignore"):
        t.gelu()._backward(g)
        want = expression_gelu_grad(x, g)
    assert t.grad.tobytes() == want.tobytes()


# scatters ----------------------------------------------------------------------

GETITEM_CASES = {
    "2d_repeats": ((6, 5), (np.array([0, 3, 3, 1, 0, 3]),)),
    "2d_pairs": ((6, 5), (np.array([1, 1, 4, 1]), np.array([2, 2, 0, 2]))),
    "3d_slice_and_array": ((3, 4, 5), (slice(None), np.array([[0, 2], [2, 2]]))),
    "3d_basic": ((3, 4, 5), (slice(1, None), -1)),
    "4d_mixed": ((2, 3, 4, 5), (np.array([1, 0, 1]), slice(None), np.array([3, 3, 0]), 2)),
    "4d_embedding": ((2, 3, 4, 5), (np.array([[1, 1], [0, 1], [1, 1]]),)),
}


@pytest.mark.parametrize("shape, index", GETITEM_CASES.values(), ids=GETITEM_CASES.keys())
def test_getitem_scatter_matches_add_at_exactly(shape, index):
    x = rng(11).normal(size=shape)
    out, (g,) = grads(lambda t: t[index], x)
    ref_out, (rg,) = grads(lambda t: ref.getitem(t, index), x)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(g, rg)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_gather_last_matches_add_at_exactly(shape):
    # indexing with one array per axis, as composite_loss gathers each position's gold move
    x = rng(12).normal(size=shape)
    index = rng(13).integers(0, shape[-1], size=shape[:-1])
    lead = np.ix_(*map(np.arange, shape[:-1]))

    def build(gather):
        # the second gather of the same index adds into the first one's gradient
        return lambda t: gather(t) * 2.0 + gather(t)

    out, (g,) = grads(build(lambda t: t[lead + (index,)]), x)
    ref_out, (rg,) = grads(build(lambda t: ref.gather_last(t, index)), x)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(g, rg)


# gradient accumulation ---------------------------------------------------------


@pytest.mark.parametrize("order", ["C", "F"])
def test_first_gradient_write_matches_zeros_then_add(order):
    data = np.asarray(rng(16).normal(size=(4, 6)), order=order)
    g1, g2 = rng(17).normal(size=(4, 6)), rng(18).normal(size=(4, 6))
    fast, slow = Tensor(data), Tensor(data)
    for g in (g1, g2):
        fast._accumulate(g)
        ref.accumulate(slow, g)
        assert fast.grad.tobytes() == slow.grad.tobytes()
        assert fast.grad.strides == slow.grad.strides == data.strides
    assert fast.grad is not g1


def test_first_gradient_write_keeps_negative_zero():
    # zeros-then-add turned -0.0 into +0.0; the copy keeps the sign, equal in value
    t = Tensor(np.ones(2))
    t._accumulate(np.array([-0.0, 1.0]))
    assert np.signbit(t.grad[0]) and np.array_equal(t.grad, [0.0, 1.0])


def test_first_gradient_write_broadcasts():
    t = Tensor(np.zeros((3, 2)), requires_grad=True)
    t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones((3, 2)))
    assert t.grad.flags.writeable


# masked softmaxes --------------------------------------------------------------


@pytest.mark.parametrize("masked", [False, True])
def test_softmaxes_match_their_reference_bit_for_bit(masked):
    x = rng(19).normal(size=(3, 4, 7))
    mask = rng(20).random(size=(3, 4, 7)) < 0.6 if masked else None
    if masked:
        mask[..., 0] = True
    for fast, slow in ((ad.softmax, ref.softmax), (ad.log_softmax, ref.log_softmax)):
        assert fast(Tensor(x), mask=mask).data.tobytes() == slow(Tensor(x), mask=mask).data.tobytes()
        # exp keeps the loss finite where log_softmax is -inf
        _, (g,) = grads(lambda t, f=fast: f(t, mask=mask).exp(), x)
        _, (rg,) = grads(lambda t, f=slow: f(t, mask=mask).exp(), x)
        assert g.tobytes() == rg.tobytes()


def test_softmaxes_name_themselves_on_an_empty_row():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ValueError, match="^softmax mask leaves a row"):
        ad.softmax(Tensor(np.zeros((2, 2))), mask=mask)
    with pytest.raises(ValueError, match="^log_softmax mask leaves a row"):
        ad.log_softmax(Tensor(np.zeros((2, 2))), mask=mask)


# supervision rows --------------------------------------------------------------

CORPORA = {
    "desk_0.1": (desk_workspace(), 0.1, 12),
    "desk_0.2": (desk_workspace(), 0.2, 12),
    "offset_0.2": (Workspace(2, 6, -4, -1, 3, 5), 0.2, 8),
}


def corpus_items(name, count=60, seed=3):
    w, density, max_len = CORPORA[name]
    records = generate_corpus(GenerationConfig(
        workspace=w, count=count, obstacle_density=density, max_path_length=max_len), seed)
    return [(r.trajectory, r.context, r.workspace) for r in records]


def walk_items(count=16, seed=4):
    """Criterion-03-style random walks over legal moves, from the starts of a density-0.2 corpus."""
    r = rng(seed)
    items = []
    for traj, ctx, w in corpus_items("desk_0.2", count=count, seed=seed):
        pts = [traj.start]
        for _ in range(int(r.integers(2, 12))):
            options = np.flatnonzero(legal_moves(pts[-1], w))
            pts.append(pts[-1].offset(*MOVES[int(r.choice(options))]))
        items.append((Trajectory(points=tuple(pts)), ctx, w))
    return items


LOSS_CASES = (*CORPORA, "envelope_0.05", "walks")


def loss_items(name):
    """A batch's (trajectory, context, workspace) items and the workspace box they lie in."""
    if name == "envelope_0.05":
        w = default_workspace()
        records = generate_corpus(GenerationConfig(workspace=w, count=8, obstacle_density=0.05), 3)
        return [(r.trajectory, r.context, r.workspace) for r in records], w.bounds
    if name == "walks":
        return walk_items(), desk_workspace().bounds
    return corpus_items(name), CORPORA[name][0].bounds


@pytest.mark.parametrize("name", LOSS_CASES)
def test_make_loss_batch_matches_per_record_reference(name):
    items, _ = loss_items(name)
    traj, ctx, w = items[0]
    items = [(Trajectory(points=(traj.start,)), ctx, w)] + items  # a one-point record: every row is padding but one
    cfg = ModelConfig(max_seq_len=32)
    rows = [supervision_row(*it, cfg) for it in items]
    for lo in range(0, len(items), 16):
        want = ref.make_loss_batch(items[lo : lo + 16], cfg)
        for got in (make_loss_batch(items[lo : lo + 16], cfg), make_loss_batch(rows[lo : lo + 16], cfg)):
            for field in vars(want):
                a, b = getattr(got, field), getattr(want, field)
                np.testing.assert_array_equal(a, b, err_msg=field)
                assert np.asarray(a).dtype == np.asarray(b).dtype, field


LOSS_CONFIGS = {
    "default": LossConfig(),
    "coord_only": LossConfig(lambda_coord=1, lambda_valid=0, lambda_cov=0, lambda_len=0),
}


@pytest.mark.parametrize("loss_cfg", LOSS_CONFIGS.values(), ids=LOSS_CONFIGS)
@pytest.mark.parametrize("name", LOSS_CASES)
def test_on_path_coord_loss_matches_the_dense_workspace_box_oracle(name, loss_cfg):
    items, box = loss_items(name)
    cfg = ModelConfig(max_seq_len=32)
    batch = make_loss_batch(items, cfg)
    assert (batch.lengths < batch.lengths.max()).any()  # the batch has padding
    if name == "walks":
        assert (batch.gold_set_size < batch.lengths).any()  # some walk revisits a cell
    logits = rng(21).normal(size=batch.legal.shape) * 2.0
    got, want = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
    total, bd = composite_loss(got, batch, loss_cfg)
    ref_total, ref_bd = ref.composite_loss(want, batch, loss_cfg, box)
    total.backward()
    ref_total.backward()
    for field in vars(bd):
        close(getattr(bd, field), getattr(ref_bd, field))
    close(got.grad, want.grad)


def test_supervision_rejects_an_illegal_gold_trajectory():
    _, ctx, w = corpus_items("desk_0.1", count=1)[0]
    jump = Trajectory(points=(LatticeCoord(0, 0, 0), LatticeCoord(2, 0, 0)))
    with pytest.raises(ValueError):
        supervision_rows([(jump, ctx, w)], ModelConfig())
    with pytest.raises(ValueError):
        ref.make_loss_batch([(jump, ctx, w)], ModelConfig())


# the whole training step -------------------------------------------------------


def test_adam_steps_track_the_reference_engine():
    items = corpus_items("desk_0.1", count=64, seed=5)
    cfg = ModelConfig(embed_dim=32, num_layers=2, num_heads=4, max_seq_len=16)
    batch = make_loss_batch(items, cfg)
    losses = []
    for engine in (contextlib.nullcontext, ref.reference_engine):
        model = PathModel(cfg, seed=7)
        opt = Optimizer(OptimizerConfig(kind="adam", lr=3e-3))
        with engine():
            losses.append([train_step(model, batch, LossConfig(), opt).total for _ in range(20)])
    np.testing.assert_allclose(losses[0], losses[1], rtol=1e-9, atol=0.0)
    assert losses[0][-1] < losses[0][0]


def test_reference_engine_restores_the_fast_code():
    with ref.reference_engine():
        assert ad.linear is ref.linear
    assert ad.linear is not ref.linear
    assert Tensor._accumulate is not ref.accumulate
