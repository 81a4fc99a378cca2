"""The flat-index lattice core against the cell-by-cell code it replaced."""

import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import reference_lattice as ref
from reference_lattice import in_bounds, legal_moves  # the cell-by-cell rule over the obstacle set

from latticepath.corpus import (
    GenerationConfig,
    GenerationCounters,
    UnreachableGoalError,
    generate_corpus,
    oracle_path,
    record_to_dict,
    validate_path,
)
from latticepath.lattice import GridStack, LatticeCoord, Workspace, desk_workspace
from latticepath.model import ModelConfig, PathModel, make_loss_batch

C = LatticeCoord


def box_cells(w):
    return [C(x, y, z) for x in range(w.x_min, w.x_max + 1)
            for y in range(w.y_min, w.y_max + 1) for z in range(w.z_min, w.z_max + 1)]


def face_workspace():
    """Desk box with obstacles on every face, edge and corner class, plus seeded interior ones."""
    w = desk_workspace()
    faces = {C(3, 0, 2), C(-3, 1, 1), C(0, 3, 3), C(2, -3, 0), C(1, 1, 4), C(-1, 2, 0),
             C(3, 3, 4), C(-3, -3, 0), C(3, -3, 2), C(0, -3, 4)}
    interior = random.Random(5).sample([c for c in box_cells(w) if c not in faces], 30)
    return w.with_obstacles(faces | set(interior))


def test_grid_matches_legal_moves_on_every_cell():
    w = face_workspace()
    cells = box_cells(w)  # obstacle cells included
    masks = w.grid.move_mask(np.array([c.as_tuple() for c in cells]))
    assert masks.shape == (len(cells), 6) and masks.dtype == bool
    for c, row in zip(cells, masks):
        assert row.tolist() == legal_moves(c, w), c


def test_grid_free_cells_are_exactly_the_legal_cells_of_the_padded_box():
    w = Workspace(2, 6, -4, -1, 3, 5, obstacles={C(2, -4, 3), C(6, -1, 5), C(4, -2, 4)})
    grid = w.grid
    padded = [C(x, y, z) for x in range(1, 8) for y in range(-5, 1) for z in range(2, 7)]
    assert len(grid.free) == len(padded)
    for c in padded:
        i = grid.index(c)
        assert grid.coord(i) == c
        assert grid.free[i] == in_bounds(c, w), c


def test_grid_is_built_once_per_workspace():
    w = desk_workspace()
    assert w.grid is w.grid
    assert w.with_obstacles({C(0, 0, 0)}).grid is not w.grid
    assert w == desk_workspace()  # the cached grid is not part of equality


def seeded_obstacle_box():
    """Criterion 04's 5x5x3 box at 20% seeded obstacles, plus a sealed corner pocket."""
    w = Workspace(0, 4, 0, 4, 0, 2)
    pocket_walls = {C(1, 0, 0), C(0, 1, 0), C(0, 0, 1)}
    kept_free = {C(0, 0, 0), C(4, 4, 2), C(4, 4, 1)}
    rest = [c for c in box_cells(w) if c not in pocket_walls | kept_free]
    return w.with_obstacles(pocket_walls | set(random.Random(3).sample(rest, 12)))


def test_oracle_path_matches_reference_on_every_ordered_pair():
    w = seeded_obstacle_box()
    free = list(w.cells())
    unreachable = 0
    for s in free:
        for g in free:
            try:
                expected = ref.oracle_path(s, g, w).points
            except UnreachableGoalError:
                with pytest.raises(UnreachableGoalError):
                    oracle_path(s, g, w)
                unreachable += 1
                continue
            assert oracle_path(s, g, w).points == expected, (s, g)
    assert unreachable >= 2 * (len(free) - 1)  # the pocket cell reaches nothing and is reached by nothing


def test_oracle_path_counts_its_search():
    w = seeded_obstacle_box()
    counters = GenerationCounters()
    oracle_path(C(4, 4, 2), C(4, 4, 2), w, counters)  # no search
    assert counters.bfs_runs == 0
    with pytest.raises(UnreachableGoalError):
        oracle_path(C(0, 0, 0), C(4, 4, 2), w, counters)
    # the sealed pocket: its box stage and the full search each expand the start alone
    assert (counters.bfs_runs, counters.bfs_cells_expanded, counters.bfs_fallbacks) == (1, 2, 1)
    oracle_path(C(4, 4, 2), C(4, 4, 1), w, counters)
    # found while the box stage expands the start
    assert (counters.bfs_runs, counters.bfs_cells_expanded, counters.bfs_fallbacks) == (2, 3, 1)


BOXES = {
    "desk": (desk_workspace(), 32),
    "desk_short": (desk_workspace(), 5),  # most attempts rejected on distance alone
    "offset": (Workspace(2, 6, -4, -1, 3, 5), 32),
    "pair": (Workspace(0, 0, 0, 0, 0, 1), 32),
}


def assert_legal_shortest_records(records, cfg):
    """Each record: its exact obstacle count, a start and goal off the obstacles, the reference BFS path length."""
    n_obstacles = round(cfg.obstacle_density * cfg.workspace.volume())
    for r in records:
        w, traj = r.workspace, r.trajectory
        assert w.bounds == cfg.workspace.bounds and len(w.ranks) == n_obstacles
        assert in_bounds(traj.start, w) and in_bounds(traj.end, w) and traj.start != traj.end
        assert validate_path(traj, w).valid and len(traj) <= cfg.max_path_length
        assert len(traj) == len(ref.oracle_path(traj.start, traj.end, w))
        assert r.context.target == traj.end and r.context.sequence_length_hint == len(traj)


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("density", [0.0, 0.1, 0.2])
def test_generate_corpus_against_the_reference_generator(box, density):
    w, max_len = BOXES[box]
    cfg = GenerationConfig(w, count=25, obstacle_density=density, max_path_length=max_len)
    for seed in (0, 1, 2):
        counters = GenerationCounters()
        records = generate_corpus(cfg, seed, counters)
        if round(density * w.volume()) == 0:  # nothing to draw: the reference's records, draw for draw
            assert corpus_bytes(records) == corpus_bytes(ref.generate_corpus(cfg, seed))
        assert_legal_shortest_records(records, cfg)
        assert len({r.trajectory.seed for r in records}) == cfg.count
        rejected = counters.rejected_distance + counters.rejected_unreachable + counters.rejected_too_long
        assert counters.attempts == cfg.count + rejected
        assert counters.obstacle_draws == counters.bfs_runs == counters.attempts - counters.rejected_distance


def corpus_bytes(records):
    return "".join(json.dumps(record_to_dict(r), sort_keys=True) + "\n" for r in records)


def test_generators_draw_every_obstacle_start_goal_triple_alike():
    """A 3x2x1 box with one obstacle stays connected, so every (obstacle, start, goal) triple yields a
    record: both generators must hit each of the 120 about equally often (chi-square, 119 degrees of freedom)."""
    cfg = GenerationConfig(Workspace(0, 2, 0, 1, 0, 0), count=6000, obstacle_density=0.2)
    for generate in (generate_corpus, ref.generate_corpus):
        tally = Counter((int(r.workspace.ranks[0]), cfg.workspace.rank(r.trajectory.start),
                         cfg.workspace.rank(r.trajectory.end)) for r in generate(cfg, 4))
        assert len(tally) == 120 and all(len(set(triple)) == 3 for triple in tally)
        chi2 = sum((n - 50) ** 2 / 50 for n in tally.values())
        assert chi2 < 172, (generate.__module__, chi2)  # about the 0.999 quantile


def test_saturated_box_is_refused_before_any_attempt():
    with pytest.raises(ValueError, match="fewer than two free cells .* box has 1 cells and obstacle_density 0.0 blocks 0"):
        GenerationConfig(Workspace(0, 0, 0, 0, 0, 0), count=1, max_resample_attempts=3)
    cfg = GenerationConfig(Workspace(0, 0, 0, 0, 0, 2), count=3, obstacle_density=0.2)  # one blocked, two free
    assert_legal_shortest_records(generate_corpus(cfg, 0), cfg)
    assert_legal_shortest_records(ref.generate_corpus(cfg, 0), cfg)
    cfg = replace(cfg, count=4, max_path_length=2, max_resample_attempts=1)  # an attempt fails if the obstacle splits the box
    for generate in (generate_corpus, ref.generate_corpus):
        with pytest.raises(ValueError, match="after 1 attempts"):
            generate(cfg, 0)


def generated_items(count=40, density=0.2):
    cfg = GenerationConfig(desk_workspace(), count=count, obstacle_density=density, max_path_length=24)
    return [(r.trajectory, r.context, r.workspace) for r in generate_corpus(cfg, 9)]


def test_loss_batch_legal_arrays_match_reference():
    items = generated_items()
    batch = make_loss_batch(items, ModelConfig(max_seq_len=24))
    T = batch.legal.shape[1]
    assert len({len(t) for t, _, _ in items}) > 1  # padding is exercised
    for b, (traj, _, w) in enumerate(items):
        np.testing.assert_array_equal(batch.legal[b], ref.legal_mask_rows(traj, w, T))


def test_model_and_decoder_masks_match_legal_moves():
    items = generated_items(count=12)
    model = PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=24), seed=0)
    for traj, ctx, w in items:
        for t in range(1, len(traj) + 1):
            assert model.forward(traj.points[:t], ctx, w).legal_mask.tolist() == legal_moves(traj.points[t - 1], w) + [True]
    starts = np.array([traj.start.as_tuple() for traj, _, _ in items], dtype=np.int64)
    legal = GridStack.of([w for _, _, w in items]).move_mask(starts)  # the decoder's per-step gather
    assert legal.tolist() == [legal_moves(traj.start, w) for traj, _, w in items]


def test_grid_stack_matches_legal_moves_across_boxes():
    boxes = [face_workspace(), seeded_obstacle_box(), Workspace(2, 6, -4, -1, 3, 5), Workspace(0, 0, 0, 0, 2, 3)]
    stack = GridStack.of(boxes + boxes[:2])  # a workspace on several rows stores its grid once
    assert len(stack.free) == sum(len(w.grid.free) for w in boxes)
    rows = [(i, c) for i, w in enumerate(boxes) for c in box_cells(w) if in_bounds(c, w)]
    rows = [rows[k] for k in np.random.default_rng(0).permutation(len(rows))]  # boxes interleaved
    picked = stack.take(np.array([i for i, _ in rows]))
    mask = picked.move_mask(np.array([c.as_tuple() for _, c in rows]))
    assert mask.tolist() == [legal_moves(c, boxes[i]) for i, c in rows]
