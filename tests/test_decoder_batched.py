"""The batched, KV-cached decoder against the full-prefix reference it replaced."""

import math
from dataclasses import replace

import numpy as np
import pytest
from reference_decoder import reference_decode, reference_decode_batch
from scripted_model import ScriptedModel
from test_acceptance import quick_trained_model, random_desk_workspace, random_free_cell

from latticepath import autodiff as ad
from latticepath.corpus import CorpusRecord, Trajectory
from latticepath.decoder import DecodeConfig, DecodeCounters, _Batch, _search, decode_batch, decode_records
from latticepath.lattice import MOVES, LatticeCoord, Workspace, desk_workspace, legal_moves, manhattan
from latticepath.model import KVCache, ModelConfig, PathModel, context_features
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
                cache = cache.take(keep)
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
            assert (pred.score, pred.terminated_by) == (d.score, d.terminated_by)
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


# the array-state search against the object-pool search it replaced -------------------

WIDE_BOUNDS = (-3, 6, -4, 3, 0, 5)  # holds the desk box, OFFSET_BOX and PAIR_BOX: the scripted models' cells
OFFSET_BOX = Workspace(2, 6, -4, -1, 3, 5)
PAIR_BOX = Workspace(0, 0, 0, 0, 2, 3)  # 1x1x2: one legal move from either cell


def box_cells(w):
    return [C(x, y, z) for x in range(w.x_min, w.x_max + 1)
            for y in range(w.y_min, w.y_max + 1) for z in range(w.z_min, w.z_max + 1)]


def mixed_jobs(seed, n, boxes):
    """Jobs cycling over workspaces of different shapes, so per-row strides differ in one batch.

    Every fourth job's goal is its start and every fifth has no target, so
    early stops and target-free rows (no coverage penalty) share the batch.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(n):
        w = boxes[k % len(boxes)]
        if w is None:
            w, cells = random_desk_workspace(rng)
        else:
            cells = box_cells(w)
            if len(cells) > 2:
                w = w.with_obstacles(c for c in cells if rng.random() < 0.1)
        start = random_free_cell(rng, w, cells)
        goal = start if k % 4 == 0 else random_free_cell(rng, w, cells)
        jobs.append((start, ctx_for(None if k % 5 == 0 else goal, manhattan(start, goal) + 1), w))
    return jobs


def tie_model(seed, w):
    """A ScriptedModel with exact ties and legal-yet-vanishing moves on every cell of w."""
    rng = np.random.default_rng(seed)
    levels = np.array([-800.0, -40.0, 0.0, 0.0, 1.0, 1.0, 2.0])
    return ScriptedModel({c: rng.choice(levels, size=7) for c in box_cells(w)})


@pytest.fixture(scope="module")
def pool_models(models):
    """(name, model, boxes): random PathModels over a box holding every test box, the trained
    desk model on desk sub-boxes, and the scripted tie model."""
    wide = [PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=16), seed=7),
            PathModel(ModelConfig(embed_dim=16, num_layers=2, num_heads=4, max_seq_len=16), seed=8)]
    all_boxes = [desk_workspace(), OFFSET_BOX, PAIR_BOX, None]
    return [
        ("random1", wide[0], all_boxes),
        ("random2", wide[1], all_boxes),
        ("trained", models[2], [desk_workspace(), PAIR_BOX, None]),
        ("scripted", tie_model(4, Workspace(*WIDE_BOUNDS)), all_boxes),
    ]


def decode_without_reuse(model, jobs, cfg, counters):
    """decode_batch's stages with no greedy record kept: every width-B row steps through the model."""
    batch = _Batch.of(model, jobs)
    paths = _search(model, batch, cfg, 1, counters)
    if cfg.mode == "beam" and cfg.beam_width > 1:
        floor = paths if cfg.coverage_penalty_weight == 0.0 else None
        beams = _search(model, batch, cfg, cfg.beam_width, counters, floor)
        paths = [g if g.score > b.score else b for g, b in zip(paths, beams)]
    for d in paths:
        counters.terminated[d.terminated_by] += 1
    return [d.path() for d in paths]


def assert_reuse_counts(got, stepped):
    """Counters of a decode against those of the same decode with every row stepped: equal, but the rows
    reused from the greedy rollout no longer step, and each is one row the other decode stepped."""
    assert got.rows_stepped + got.rows_reused == stepped.rows_stepped
    assert got.model_steps <= stepped.model_steps
    assert replace(got, model_steps=0, rows_stepped=0, rows_reused=0) == replace(stepped, model_steps=0, rows_stepped=0)


def assert_same_as_object_pool(model, jobs, cfg):
    got_counters, ref_counters, own_counters = DecodeCounters(), DecodeCounters(), DecodeCounters()
    got = decode_batch(model, jobs, cfg, got_counters)
    ref = reference_decode_batch(model, jobs, cfg, ref_counters)
    assert got == ref == decode_without_reuse(model, jobs, cfg, own_counters)  # bit for bit
    assert_reuse_counts(got_counters, own_counters)
    assert got_counters.terminated == ref_counters.terminated
    if not (cfg.mode == "beam" and cfg.beam_width > 1 and cfg.coverage_penalty_weight == 0.0):  # unpruned
        assert_reuse_counts(got_counters, ref_counters)
    return got, got_counters


@pytest.mark.parametrize("cfg", DECODE_CONFIGS, ids=["greedy", "beam5", "beam3_coverage"])
def test_search_equals_object_pool_search_on_mixed_boxes(pool_models, cfg):
    for k, (name, model, boxes) in enumerate(pool_models):
        jobs = mixed_jobs(200 + k, 48, boxes)
        assert len({w.shape for _, _, w in jobs}) > 3, name
        got, counters = assert_same_as_object_pool(model, jobs, cfg)
        assert len(got) == len(jobs)
        if cfg.mode == "greedy":
            assert counters.candidates == counters.rows_stepped


def stop_or_run_model(stoppers):
    """STOP is near-certain on the cells of `stoppers` and impossible elsewhere (its logit underflows)."""
    stop, run = np.zeros(7), np.zeros(7)
    stop[6] = 30.0
    run[:6] = [1.0, 1.0, 0.5, 0.5, 0.0, 0.0]
    run[6] = -800.0
    return ScriptedModel({c: stop if c in stoppers else run for c in box_cells(Workspace(*WIDE_BOUNDS))})


@pytest.mark.parametrize("max_steps", [0, 1, 2, 6])
@pytest.mark.parametrize("cfg", DECODE_CONFIGS, ids=["greedy", "beam5", "beam3_coverage"])
def test_search_equals_object_pool_search_when_jobs_stop_early_or_run_out(pool_models, cfg, max_steps):
    cfg = DecodeConfig(max_steps=max_steps, mode=cfg.mode, beam_width=cfg.beam_width,
                       coverage_penalty_weight=cfg.coverage_penalty_weight)
    jobs = mixed_jobs(300, 40, [desk_workspace(), OFFSET_BOX, PAIR_BOX, None])
    model = stop_or_run_model({start for start, _, _ in jobs[::2]})
    got, _ = assert_same_as_object_pool(model, jobs, cfg)
    kinds = {(len(d.trajectory), d.terminated_by) for d in got}
    if max_steps == 0:
        assert kinds == {(1, "max_steps")}
    else:
        assert (1, "stop_token") in kinds and (max_steps + 1, "max_steps") in kinds
    if max_steps <= 1:  # the PathModels too, through the KV-cached step
        for _, model, boxes in pool_models[:3]:
            assert_same_as_object_pool(model, mixed_jobs(301, 40, boxes), cfg)


def test_scores_take_libm_log_of_each_probability():
    import math

    from latticepath.decoder import _log

    p = np.random.default_rng(0).dirichlet(np.ones(7), size=20000).ravel()
    assert _log(p).tolist() == [math.log(v) for v in p.tolist()]


def test_equal_scores_prefer_the_smaller_move_sequence():
    # From A, +x and STOP have probability 1/2 each; from B = A + x, STOP is certain. Both
    # finished hypotheses score log(1/2), and (+x, STOP) < (STOP,) as move sequences.
    a, b = C(0, 0, 2), C(1, 0, 2)
    at_a, at_b = np.full(7, -800.0), np.full(7, -800.0)
    at_a[0] = at_a[6] = at_b[6] = 0.0
    model = ScriptedModel({a: at_a, b: at_b})
    job = (a, ctx_for(None, 2), desk_workspace())
    for cfg in DECODE_CONFIGS:
        got, _ = assert_same_as_object_pool(model, [job], cfg)
        assert got[0].trajectory.points == (a, b)


# the pruned beam against the unpruned object-pool search ------------------------------


def assert_same_as_unpruned(model, jobs, cfg, exact):
    """decode_batch equals the reference's unpruned search: bit for bit if `exact`, with the counters of
    the same decode with every row stepped less the reused rows; else paths and terminations equal and
    scores within 1e-12 (pruning changes which rows share a model step, a reused row's step comes from
    the greedy rollout's product, and a BLAS product of a row can depend on its neighbours: OpenBLAS
    runs a one-row product with another kernel). Returns decode_batch's counters."""
    counters, stepped = DecodeCounters(), DecodeCounters()
    got = decode_batch(model, jobs, cfg, counters)
    ref = reference_decode_batch(model, jobs, cfg)
    if exact:
        assert got == ref == decode_without_reuse(model, jobs, cfg, stepped)
        assert_reuse_counts(counters, stepped)
    else:
        assert [(d.trajectory, d.terminated_by) for d in got] == [(d.trajectory, d.terminated_by) for d in ref]
        assert max(abs(a.score - b.score) for a, b in zip(got, ref)) <= 1e-12
    return counters


@pytest.mark.parametrize("width", [2, 5, 8])
def test_pruned_beam_equals_unpruned_search(pool_models, width):
    pruned = 0
    for k, (name, model, boxes) in enumerate(pool_models):
        for max_steps in (2, 3, 5, 9):
            cfg = DecodeConfig(max_steps=max_steps, mode="beam", beam_width=width)
            jobs = mixed_jobs(400 + 10 * k + max_steps, 32, boxes)
            pruned += assert_same_as_unpruned(model, jobs, cfg, exact=name == "scripted").rows_pruned
    assert pruned > 0


@pytest.mark.parametrize("width", [2, 5, 8])
def test_reused_greedy_steps_equal_the_object_pool_search(pool_models, width):
    """Batches on mixed boxes and one-record jobs (each greedy product then has one row), with and
    without a coverage penalty, where greedy rollouts stop early or run out at max_steps."""
    reused, stepped, ends = 0, 0, set()
    for k, (name, model, boxes) in enumerate(pool_models):
        for max_steps, penalty in ((2, 0.0), (6, 0.0), (6, 0.5)):
            cfg = DecodeConfig(max_steps=max_steps, mode="beam", beam_width=width, coverage_penalty_weight=penalty)
            jobs = mixed_jobs(600 + 10 * k + width, 16, boxes)
            for part in [jobs] + [[job] for job in jobs[:4]]:
                counters = assert_same_as_unpruned(model, part, cfg, exact=name == "scripted")
                reused, stepped = reused + counters.rows_reused, stepped + counters.rows_stepped
                ends.update(kind for kind, count in counters.terminated.items() if count)
    assert reused > stepped / 4 and ends == {"stop_token", "max_steps"}


def test_a_coverage_penalty_prunes_nothing(pool_models):
    cfg = DecodeConfig(max_steps=6, mode="beam", beam_width=5, coverage_penalty_weight=0.5)
    for k, (_, model, boxes) in enumerate(pool_models):
        got, counters = assert_same_as_object_pool(model, mixed_jobs(500 + k, 32, boxes), cfg)
        assert (counters.rows_pruned, counters.jobs_redecoded) == (0, 0)


ACTIONS = ("px", "nx", "py", "ny", "pz", "nz", "stop")  # +x, -x, ..., STOP in canonical order


def dist(**p):
    """Logits giving each named action its probability; the rest vanish."""
    row = np.full(7, -800.0)
    for name, prob in p.items():
        row[ACTIONS.index(name)] = math.log(prob)
    return row


# From S the greedy rollout takes +x to X and stops there: its score, the floor, is
# log .5 + log .3. W = S + y scores log .48, and its two children at log .48 + log .5
# outrank the greedy STOP, which leaves the width-2 beam.
S, X, W = C(0, 0, 2), C(1, 0, 2), C(0, 1, 2)
FORK = {S: dist(px=0.5, py=0.48, pz=0.02),
        X: dist(stop=0.3, px=0.7 / 6, nx=0.7 / 6, py=0.7 / 6, ny=0.7 / 6, pz=0.7 / 6, nz=0.7 / 6),
        W: dist(py=0.5, pz=0.5)}
W1, W2 = C(0, 2, 2), C(0, 1, 3)


def one_job(table, cfg, default=None, start=S, goal=None):
    """decode_batch and the unpruned reference on one scripted job; returns the result, the counters
    and whether the pruned width-B search returned the greedy floor itself."""
    model = ScriptedModel(table, default)
    job = (start, ctx_for(goal, 5), desk_workspace())
    counters, stepped = DecodeCounters(), DecodeCounters()
    d = decode_batch(model, [job], cfg, counters)[0]
    assert d == reference_decode(model, *job, cfg) == reference_decode_batch(model, [job], cfg)[0]
    assert decode_without_reuse(model, [job], cfg, stepped) == [d]
    assert_reuse_counts(counters, stepped)
    batch = _Batch.of(model, [job])
    floor = _search(model, batch, cfg, 1, DecodeCounters())
    return d, counters, _search(model, batch, cfg, cfg.beam_width, DecodeCounters(), floor)[0] is floor[0]


def test_a_job_pruning_empties_returns_its_greedy_floor():
    # every child of W1 and W2 falls below the floor and none finishes, so step 3 drops them all
    table = {**FORK, W1: dist(nx=0.25, px=0.25, py=0.25, pz=0.25), W2: dist(nx=0.25, px=0.25, py=0.25, ny=0.25)}
    d, counters, emptied = one_job(table, DecodeConfig(max_steps=4, mode="beam", beam_width=2))
    assert emptied and (d.trajectory.points, d.terminated_by) == ((S, X), "stop_token")
    assert counters.rows_pruned == 2 and counters.jobs_redecoded == 0


def test_a_job_left_with_fewer_than_b_rows_above_its_floor_is_decoded_again():
    """At step 3 the beam holds W1a above the floor and W2a below it, which is dropped. Unpruned,
    W2a stops at step 4 and, finished, beats W1a's near-certain child; it scores below the floor,
    so the greedy path is the answer. Pruned, W1a's child would win: the job must be decoded again."""
    w1a, w2a = C(0, 3, 2), C(0, 1, 4)
    table = {**FORK, W1: dist(py=0.9, nx=0.1), W2: dist(pz=0.55, stop=0.45),
             w1a: dist(px=0.99, nx=0.01), w2a: dist(stop=0.9, ny=0.1)}
    d, counters, emptied = one_job(table, DecodeConfig(max_steps=4, mode="beam", beam_width=2))
    assert (d.trajectory.points, d.terminated_by) == ((S, X), "stop_token")
    assert counters.rows_pruned == 1 and counters.jobs_redecoded == 1
    assert counters.rows_reused == 2  # S and X in the first pass; the pass without a floor reuses nothing


def test_a_beam_that_outlives_its_greedy_rollout_steps_its_own_rows():
    """The greedy rollout stops at X in two steps. With a coverage penalty nothing is pruned, and the rows
    through W step on past the end of the greedy record."""
    table = {**FORK, W1: dist(py=0.5, stop=0.5), W2: dist(pz=0.5, stop=0.5)}
    cfg = DecodeConfig(max_steps=5, mode="beam", beam_width=2, coverage_penalty_weight=0.5)
    d, counters, _ = one_job(table, cfg, goal=C(0, 3, 2))
    assert d.trajectory.points[:2] == (S, W)
    # greedy: steps 0 and 1; width 2: S and X reused, W stepped at step 1, then two rows at step 2 and one
    # at step 3, past the two greedy steps
    assert (counters.model_steps, counters.rows_stepped, counters.rows_reused) == (2 + 3, 2 + 4, 2)


def test_the_bar_falls_when_its_finished_row_leaves_the_beam():
    """The greedy rollout never stops, so the floor is -inf. From S, +x is likely and STOP finishes
    F at about -2.1. X's two children at about -0.8 push F out of the width-2 beam, and at step 3
    every row is below F. The bar must fall back to the floor: the rows below F are the answer."""
    xx, xy = C(-1, 0, 2), C(-2, 1, 2)
    start = C(-3, 0, 2)
    four_way = dist(px=0.25, nx=0.25, py=0.25, ny=0.25)
    table = {start: dist(px=0.88, stop=0.12), C(-2, 0, 2): dist(px=0.5, py=0.5),
             xx: dist(px=1 / 6, nx=1 / 6, py=1 / 6, ny=1 / 6, pz=1 / 6, nz=1 / 6), xy: four_way}
    d, counters, _ = one_job(table, DecodeConfig(max_steps=4, mode="beam", beam_width=2), four_way, start)
    assert d.terminated_by == "max_steps" and d.trajectory.points[2] == xy  # not the greedy path through xx
    assert counters.rows_pruned == 0
