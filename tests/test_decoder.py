import math

import numpy as np
import pytest
from scripted_model import ScriptedModel

from latticepath.corpus import CorpusRecord, Trajectory, oracle_path
from latticepath.decoder import (
    DecodeConfig,
    DecodedPath,
    decode,
    decode_beam,
    decode_greedy,
    decode_records,
    validate_path,
)
from latticepath.lattice import LatticeCoord, Workspace, desk_workspace
from latticepath.model import ModelConfig, PathModel, StepLogits, masked_softmax
from latticepath.taskgrid import build_context, reach_only_graph

C = LatticeCoord


def ctx_for(goal, hint=4):
    return build_context(reach_only_graph(), 0, sequence_length_hint=hint, target=goal)


def stop_heavy():
    """Logits that put nearly all mass on STOP."""
    row = np.full(7, -30.0)
    row[6] = 0.0
    return row


def move_row(idx, logit=5.0):
    row = np.zeros(7)
    row[idx] = logit
    return row


# config and validation ----------------------------------------------------------


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(max_steps=-1)
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecodeConfig(mode="sampled")


def test_decoded_path_rejects_unknown_termination():
    with pytest.raises(ValueError):
        DecodedPath(trajectory=Trajectory(points=(C(0, 0, 0),)), score=0.0, terminated_by="oops")


def test_validate_path_accepts_single_point():
    v = validate_path(Trajectory(points=(C(0, 0, 0),)), desk_workspace())
    assert v.valid and v.first_violation is None


def test_validate_path_flags_diagonal_jump():
    t = Trajectory(points=(C(0, 0, 0), C(1, 1, 0)))
    v = validate_path(t, desk_workspace())
    assert not v.valid
    assert v.first_violation == 1


def test_validate_path_flags_out_of_bounds_start():
    t = Trajectory(points=(C(9, 0, 0), C(8, 0, 0)))
    v = validate_path(t, desk_workspace())
    assert (v.valid, v.first_violation) == (False, 0)


def test_validate_path_flags_obstacle_entry():
    w = desk_workspace().with_obstacles(frozenset({C(2, 0, 0)}))
    t = Trajectory(points=(C(0, 0, 0), C(1, 0, 0), C(2, 0, 0)))
    v = validate_path(t, w)
    assert (v.valid, v.first_violation) == (False, 2)


# greedy ------------------------------------------------------------------------


def test_greedy_zero_steps_returns_start_only():
    m = ScriptedModel({})
    d = decode_greedy(m, C(0, 0, 2), ctx_for(None), desk_workspace(), DecodeConfig(max_steps=0))
    assert d.trajectory.points == (C(0, 0, 2),)
    assert d.terminated_by == "max_steps"


def test_greedy_follows_scripted_argmax():
    table = {
        C(0, 0, 2): move_row(0),  # +x
        C(1, 0, 2): move_row(2),  # +y
        C(1, 1, 2): stop_heavy(),
    }
    d = decode_greedy(ScriptedModel(table), C(0, 0, 2), ctx_for(None), desk_workspace(), DecodeConfig())
    assert d.trajectory.points == (C(0, 0, 2), C(1, 0, 2), C(1, 1, 2))
    assert d.terminated_by == "stop_token"


def test_greedy_tie_breaks_to_lowest_move_index():
    # uniform logits at an interior cell: argmax lands on +x, the first entry
    d = decode_greedy(
        ScriptedModel({}), C(0, 0, 2), ctx_for(None), desk_workspace(), DecodeConfig(max_steps=1)
    )
    assert d.trajectory.points[-1] == C(1, 0, 2)


def test_greedy_stops_immediately_when_walled_in():
    w = Workspace(x_min=0, x_max=0, y_min=0, y_max=0, z_min=0, z_max=0)
    d = decode_greedy(ScriptedModel({}), C(0, 0, 0), ctx_for(None), w, DecodeConfig())
    assert d.trajectory.points == (C(0, 0, 0),)
    assert d.terminated_by == "stop_token"
    assert d.score == pytest.approx(0.0)  # log(1)


def test_greedy_hits_max_steps():
    table = {C(x, 0, 2): move_row(0) for x in range(-3, 4)}
    d = decode_greedy(ScriptedModel(table), C(-3, 0, 2), ctx_for(None), desk_workspace(),
                      DecodeConfig(max_steps=3))
    assert len(d.trajectory) == 4
    assert d.terminated_by == "max_steps"


def test_greedy_rejects_out_of_bounds_start():
    with pytest.raises(ValueError):
        decode_greedy(ScriptedModel({}), C(9, 9, 9), ctx_for(None), desk_workspace(), DecodeConfig())


@pytest.mark.parametrize("mode", ["greedy", "beam"])
def test_score_is_the_log_probability_sum_however_far_the_target(mode):
    ctx = ctx_for(C(3, 0, 2))
    d = decode(ScriptedModel({C(0, 0, 2): stop_heavy()}), C(0, 0, 2), ctx, desk_workspace(), DecodeConfig(mode=mode))
    p_stop = masked_softmax(StepLogits(raw=stop_heavy(), legal_mask=np.ones(7, dtype=bool)))[6]
    assert (d.trajectory.points, d.score) == ((C(0, 0, 2),), math.log(p_stop))


# beam --------------------------------------------------------------------------


def test_beam_width_one_equals_greedy():
    m = PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=8), seed=2)
    ctx = ctx_for(C(2, 1, 2), hint=4)
    w = desk_workspace()
    g = decode_greedy(m, C(0, 0, 2), ctx, w, DecodeConfig())
    b = decode_beam(m, C(0, 0, 2), ctx, w, DecodeConfig(beam_width=1, mode="beam"))
    assert b == g


def test_beam_escapes_greedy_trap():
    # greedy grabs +x (p=.6) then wanders on uniform logits; the +y branch
    # stops immediately, so the beam keeps more mass and must win.
    trap = np.array([math.log(0.6), -30.0, math.log(0.4), -30.0, -30.0, -30.0, -30.0])
    table = {
        C(0, 0, 2): trap,
        C(0, 1, 2): stop_heavy(),
    }
    m = ScriptedModel(table)
    ctx = ctx_for(None)
    w = desk_workspace()
    g = decode_greedy(m, C(0, 0, 2), ctx, w, DecodeConfig(max_steps=6))
    b = decode_beam(m, C(0, 0, 2), ctx, w, DecodeConfig(max_steps=6, beam_width=5, mode="beam"))
    assert g.trajectory.points[1] == C(1, 0, 2)
    assert b.trajectory.points == (C(0, 0, 2), C(0, 1, 2))
    assert b.score > g.score


def test_beam_never_scores_below_greedy():
    m = PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=8), seed=11)
    w = desk_workspace()
    for i in range(10):
        ctx = ctx_for(C(1, 2, 1), hint=5)
        start = C(i % 3 - 1, (i * 2) % 3 - 1, 2)
        g = decode_greedy(m, start, ctx, w, DecodeConfig(max_steps=7))
        b = decode_beam(m, start, ctx, w, DecodeConfig(max_steps=7, beam_width=5, mode="beam"))
        assert b.score >= g.score


def test_beam_prefers_lexicographically_smaller_tie():
    # +x and +y both carry p=.5 into a cell that stops with certainty
    fork = np.array([math.log(0.5), -40.0, math.log(0.5), -40.0, -40.0, -40.0, -40.0])
    table = {
        C(0, 0, 2): fork,
        C(1, 0, 2): stop_heavy(),
        C(0, 1, 2): stop_heavy(),
    }
    b = decode_beam(ScriptedModel(table), C(0, 0, 2), ctx_for(None), desk_workspace(),
                    DecodeConfig(beam_width=5, mode="beam"))
    assert b.trajectory.points[1] == C(1, 0, 2)  # move 0 beats move 2


def test_decode_dispatches_on_mode():
    m = ScriptedModel({C(0, 0, 2): stop_heavy()})
    ctx = ctx_for(None)
    w = desk_workspace()
    g = decode(m, C(0, 0, 2), ctx, w, DecodeConfig(mode="greedy"))
    b = decode(m, C(0, 0, 2), ctx, w, DecodeConfig(mode="beam", beam_width=3))
    assert g.trajectory.points == b.trajectory.points == (C(0, 0, 2),)


# records -----------------------------------------------------------------------


def test_decode_records_preserves_pairing_fields():
    w = desk_workspace()
    golds = []
    for i, (a, b) in enumerate([((0, 0, 0), (2, 0, 0)), ((1, 1, 1), (1, 3, 1))]):
        traj = oracle_path(C(*a), C(*b), w)
        traj = Trajectory(points=traj.points, task="reach", seed=100 + i)
        golds.append(CorpusRecord(trajectory=traj, workspace=w,
                                  context=ctx_for(traj.end, len(traj)),
                                  split_tag="validation"))
    preds = decode_records(ScriptedModel({}, default=stop_heavy()), golds, DecodeConfig())
    assert len(preds) == len(golds)
    for p, g in zip(preds, golds):
        assert p.trajectory.seed == g.trajectory.seed
        assert p.trajectory.task == g.trajectory.task
        assert p.split_tag == g.split_tag
        assert p.workspace == g.workspace
        assert p.context == g.context
        assert p.trajectory.start == g.trajectory.start


def test_real_model_decodes_are_always_valid():
    m = PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=16), seed=9)
    w = desk_workspace().with_obstacles(frozenset({C(1, 0, 2), C(0, 1, 2)}))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        start = C(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), int(rng.integers(0, 5)))
        if start in w.obstacles:
            continue
        for mode, width in (("greedy", 1), ("beam", 4)):
            d = decode(m, start, ctx_for(C(2, 2, 2), 6), w, DecodeConfig(max_steps=12, mode=mode, beam_width=width))
            assert validate_path(d.trajectory, w).valid
