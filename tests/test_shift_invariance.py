"""A model has no box: shifting paths, targets and workspaces together changes no logit and no decision.

The embedding reads each cell only through the sign of target minus cell on
each axis, and legality through the workspace's own grid, so a record moved
by an offset gets bit-equal logits, and greedy and beam decoding return the
moved paths with the same scores.
"""

from dataclasses import replace

import numpy as np
import pytest

from latticepath.corpus import GenerationConfig, Trajectory, generate_corpus
from latticepath.decoder import DecodeConfig, decode_batch
from latticepath.lattice import Workspace, desk_workspace
from latticepath.model import (
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    fit,
    make_loss_batch,
)
from latticepath.taskgrid import TaskContext

OFFSETS = [(20, -10, 5), (-7, 13, 0)]


def shift_item(traj: Trajectory, ctx: TaskContext, w: Workspace, d):
    """The (trajectory, context, workspace) item moved by offset d: every cell, the target and the box."""
    box = Workspace(*(b + d[i // 2] for i, b in enumerate(w.bounds)), resolution_mm=w.resolution_mm)
    ctx = replace(ctx, target=None if ctx.target is None else ctx.target.offset(*d))
    return Trajectory(points=tuple(p.offset(*d) for p in traj.points)), ctx, box.with_ranks(w.ranks)


@pytest.fixture(scope="module")
def items():
    records = generate_corpus(GenerationConfig(desk_workspace(), count=60, obstacle_density=0.2), 5)
    return [(r.trajectory, r.context, r.workspace) for r in records]


@pytest.fixture(scope="module")
def models(items):
    cfg = ModelConfig(embed_dim=16, num_layers=1, num_heads=2, max_seq_len=16)
    trained = PathModel(cfg, seed=1)
    fit(trained, items[:48], LossConfig(), Optimizer(OptimizerConfig(kind="adam", lr=3e-3)), epochs=3,
        batch_size=16, seed=2)
    return {"random": PathModel(cfg, seed=4), "trained": trained}


@pytest.mark.parametrize("d", OFFSETS)
@pytest.mark.parametrize("name", ["random", "trained"])
def test_forward_batch_logits_are_bit_equal_under_a_shift(items, models, name, d):
    model = models[name]
    batch = make_loss_batch(items, model.cfg)
    shifted = make_loss_batch([shift_item(*it, d) for it in items], model.cfg)
    np.testing.assert_array_equal(shifted.points, batch.points + np.array(d))
    for lengths in (None, batch.lengths):
        np.testing.assert_array_equal(model.forward_batch(shifted.points, shifted.ctx_mat, lengths=lengths).data,
                                      model.forward_batch(batch.points, batch.ctx_mat, lengths=lengths).data)


def test_a_context_without_a_target_is_shift_free_too(items, models):
    model = models["trained"]
    traj, ctx, w = items[0]
    ctx = replace(ctx, target=None)
    batch = make_loss_batch([(traj, ctx, w)], model.cfg)
    shifted = make_loss_batch([shift_item(traj, ctx, w, OFFSETS[0])], model.cfg)
    np.testing.assert_array_equal(model.forward_batch(shifted.points, shifted.ctx_mat).data,
                                  model.forward_batch(batch.points, batch.ctx_mat).data)


@pytest.mark.parametrize("cfg", [DecodeConfig(max_steps=16), DecodeConfig(max_steps=16, mode="beam"),
                                 DecodeConfig(max_steps=16, mode="beam", beam_width=3)],
                         ids=["greedy", "beam5", "beam3"])
@pytest.mark.parametrize("name", ["random", "trained"])
def test_decodes_of_a_shifted_batch_are_the_shifted_paths(items, models, name, cfg):
    model = models[name]
    d = OFFSETS[0]
    jobs = [(t.start, ctx, w) for t, ctx, w in items]
    shifted_jobs = [(t.start, ctx, w) for t, ctx, w in (shift_item(*it, d) for it in items)]
    got = decode_batch(model, shifted_jobs, cfg)
    want = decode_batch(model, jobs, cfg)
    assert [g.trajectory.points for g in got] == [tuple(p.offset(*d) for p in w.trajectory.points) for w in want]
    assert [(g.score, g.terminated_by) for g in got] == [(w.score, w.terminated_by) for w in want]
    if name == "trained":
        assert len({len(w.trajectory) for w in want}) > 2  # the paths are not all one length


@pytest.mark.parametrize("name", ["random", "trained"])
def test_goal_signs_are_exact_at_plus_or_minus_2_pow_53(items, models, name):
    # a record moved so that its box and its target reach the edge of the coordinate range reads the same
    # signs, and so the same logits
    model = models[name]
    for edge, side in ((2 ** 53, 1), (-2 ** 53, 0)):
        traj, ctx, w = next(it for it in items if it[1].target is not None and it[1].target.x == it[2].bounds[side])
        d = (edge - ctx.target.x, 0, 0)
        batch, moved = (make_loss_batch([it], model.cfg) for it in ((traj, ctx, w), shift_item(traj, ctx, w, d)))
        assert moved.ctx_mat[0, -4] == edge
        np.testing.assert_array_equal(model.forward_batch(moved.points, moved.ctx_mat).data,
                                      model.forward_batch(batch.points, batch.ctx_mat).data)
