"""The batched, KV-cached decoder against the full-prefix reference it replaced."""

import numpy as np
import pytest
from reference_decoder import reference_decode
from test_acceptance import quick_trained_model, random_desk_workspace, random_free_cell

from latticepath import autodiff as ad
from latticepath.corpus import CorpusRecord, Trajectory
from latticepath.decoder import DecodeConfig, DecodeCounters, decode_batch, decode_records
from latticepath.lattice import MOVES, LatticeCoord, desk_workspace, legal_moves, manhattan
from latticepath.model import KVCache, ModelConfig, PathModel, StepLogits, context_features
from latticepath.taskgrid import build_context, reach_only_graph

C = LatticeCoord


def ctx_for(goal, hint):
    return build_context(reach_only_graph(), 0, sequence_length_hint=hint, target=goal)


def random_walks(rng, w, n, length):
    """n legal walks of exactly `length` cells as a (n, length, 3) int array."""
    out = []
    while len(out) < n:
        pts = [C(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), int(rng.integers(0, 5)))]
        while len(pts) < length:
            options = [i for i, ok in enumerate(legal_moves(pts[-1], w)) if ok]
            pts.append(pts[-1].offset(*MOVES[int(rng.choice(options))]))
        out.append([p.as_tuple() for p in pts])
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_cached_step_matches_full_forward_at_every_step(num_layers):
    cfg = ModelConfig(embed_dim=16, num_layers=num_layers, num_heads=4, max_seq_len=12)
    model = PathModel(cfg, seed=num_layers)
    rng = np.random.default_rng(num_layers)
    points = random_walks(rng, desk_workspace(), 6, cfg.max_seq_len)
    ctx = np.array([context_features(ctx_for(C(*map(int, p[-1])), 12), cfg) for p in points])
    cache = KVCache()
    with ad.no_grad():
        for t in range(cfg.max_seq_len):
            if t == 5:  # drop a row and reorder the rest, as a beam reselection does
                keep = np.array([4, 0, 0, 2, 5])
                cache.keep(keep)
                points, ctx = points[keep], ctx[keep]
            step = model.forward_batch(points[:, t:t + 1], ctx, cache).data[:, 0]
            full = model.forward_batch(points[:, :t + 1], ctx).data[:, -1]
            assert cache.t == t + 1
            np.testing.assert_allclose(step, full, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError):
            model.forward_batch(points[:, :1], ctx, cache)  # past max_seq_len


def desk_jobs(seed, n):
    """Start/context/workspace triples on criterion-01/08 style obstacle sub-boxes."""
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(n):
        w, cells = random_desk_workspace(rng)
        start = random_free_cell(rng, w, cells)
        goal = random_free_cell(rng, w, cells)
        jobs.append((start, ctx_for(goal, manhattan(start, goal) + 1), w))
    return jobs


@pytest.fixture(scope="module")
def models():
    return [
        PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=16), seed=5),
        PathModel(ModelConfig(embed_dim=16, num_layers=2, num_heads=4, max_seq_len=16), seed=6),
        quick_trained_model(seed=0),
    ]


DECODE_CONFIGS = [
    DecodeConfig(max_steps=10, mode="greedy"),
    DecodeConfig(max_steps=8, mode="beam", beam_width=5),
    DecodeConfig(max_steps=8, mode="beam", beam_width=3, coverage_penalty_weight=0.5),
]


@pytest.mark.parametrize("cfg", DECODE_CONFIGS, ids=["greedy", "beam5", "beam3_coverage"])
def test_batched_decode_matches_full_prefix_reference(models, cfg):
    for i, model in enumerate(models):
        jobs = desk_jobs(100 + i, 40)
        got = decode_batch(model, jobs, cfg)
        records = [CorpusRecord(trajectory=Trajectory(points=(s,), seed=k), workspace=w, context=c,
                                split_tag="validation") for k, (s, c, w) in enumerate(jobs)]
        preds = decode_records(model, records, cfg)
        for job, d, pred in zip(jobs, got, preds):
            ref = reference_decode(model, *job, cfg)
            assert d.trajectory == ref.trajectory
            assert pred.trajectory.points == ref.trajectory.points
            assert d.terminated_by == ref.terminated_by
            assert abs(d.score - ref.score) <= 1e-9


@pytest.mark.parametrize("cfg", DECODE_CONFIGS[:2], ids=["greedy", "beam5"])
def test_batch_composition_does_not_change_results(models, cfg):
    model = models[2]
    jobs = desk_jobs(7, 30)
    together = decode_batch(model, jobs, cfg)
    alone = [decode_batch(model, [job], cfg)[0] for job in jobs]
    for a, b in zip(together, alone):
        assert a.trajectory == b.trajectory
        assert a.terminated_by == b.terminated_by
        assert abs(a.score - b.score) <= 1e-9


class ScriptedModel:
    """Raw logits looked up by the current cell; only the full-prefix forward exists."""

    def __init__(self, table):
        self.table = table

    def forward(self, points, ctx, w):
        raw = self.table.get(points[-1], np.zeros(7))
        return StepLogits(raw=raw, legal_mask=np.append(legal_moves(points[-1], w), True))


@pytest.mark.parametrize("cfg", DECODE_CONFIGS, ids=["greedy", "beam5", "beam3_coverage"])
def test_search_matches_reference_on_ties_and_vanishing_moves(cfg):
    """Scripted logits with exact ties, underflowing moves and early stops, decoded as one batch."""
    rng = np.random.default_rng(3)
    levels = np.array([-800.0, -40.0, 0.0, 0.0, 1.0, 1.0, 2.0])  # -800: legal yet probability 0
    w = desk_workspace()
    table = {c: rng.choice(levels, size=7) for c in w.cells()}
    model = ScriptedModel(table)
    jobs = desk_jobs(9, 60)
    for job, d in zip(jobs, decode_batch(model, jobs, cfg)):
        assert d == reference_decode(model, *job, cfg)


def test_beam_restores_the_greedy_floor():
    # +x is near-certain everywhere, so greedy runs to max_steps with a score near 0;
    # the beam keeps an early STOP (score about -5), which as its only finished
    # hypothesis would win without the floor.
    row = np.full(7, -40.0)
    row[0], row[6] = 5.0, 0.0
    model = ScriptedModel({C(x, 0, 2): row for x in range(-3, 4)})
    job = (C(-3, 0, 2), ctx_for(None, 5), desk_workspace())
    cfg = DecodeConfig(max_steps=4, mode="beam", beam_width=2)
    d = decode_batch(model, [job], cfg)[0]
    assert d == reference_decode(model, *job, cfg)
    assert (len(d.trajectory), d.terminated_by) == (5, "max_steps")
    assert d.score > -0.1


def test_counters_count_steps_rows_and_terminations():
    stop = np.full(7, -30.0)
    stop[6] = 0.0
    plus_x = np.zeros(7)
    plus_x[0] = 5.0
    table = {C(0, 0, 2): stop, C(-3, 0, 2): plus_x, C(-2, 0, 2): plus_x, C(-1, 0, 2): stop}
    w = desk_workspace()
    jobs = [(C(0, 0, 2), ctx_for(None, 1), w), (C(-3, 0, 2), ctx_for(None, 3), w)]
    counters = DecodeCounters()
    paths = decode_batch(ScriptedModel(table), jobs, DecodeConfig(max_steps=8), counters)
    assert [len(d.trajectory) for d in paths] == [1, 3]
    # step 1 runs both rows; the first row stopped, so steps 2 and 3 run one row
    assert (counters.model_steps, counters.rows_stepped) == (3, 4)
    assert counters.terminated == {"stop_token": 2, "max_steps": 0}
    decode_batch(ScriptedModel({}), jobs[:1], DecodeConfig(max_steps=2), counters)
    assert counters.terminated == {"stop_token": 2, "max_steps": 1}
