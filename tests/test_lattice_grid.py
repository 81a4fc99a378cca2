"""The flat-index lattice core against the cell-by-cell code it replaced."""

import json
import random

import numpy as np
import pytest
import reference_lattice as ref

from latticepath.corpus import (
    GenerationConfig,
    GenerationCounters,
    UnreachableGoalError,
    generate_corpus,
    oracle_path,
    record_to_dict,
)
from latticepath.decoder import _CachedStep, _Hypothesis
from latticepath.lattice import LatticeCoord, Workspace, desk_workspace, in_bounds, legal_moves
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
    assert (counters.bfs_runs, counters.bfs_cells_expanded) == (1, 1)  # the sealed pocket
    oracle_path(C(4, 4, 2), C(4, 4, 1), w, counters)
    assert (counters.bfs_runs, counters.bfs_cells_expanded) == (2, 2)  # found while expanding the start


BOXES = {
    "desk": (desk_workspace(), 32),
    "desk_short": (desk_workspace(), 5),  # most attempts rejected on distance alone
    "offset": (Workspace(2, 6, -4, -1, 3, 5), 32),
    "pair": (Workspace(0, 0, 0, 0, 0, 1), 32),
}


def corpus_bytes(records):
    return "".join(json.dumps(record_to_dict(r), sort_keys=True) + "\n" for r in records)


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("density", [0.0, 0.1, 0.2])
def test_generate_corpus_matches_reference_bytes(box, density):
    w, max_len = BOXES[box]
    cfg = GenerationConfig(w, count=25, obstacle_density=density, max_path_length=max_len)
    for seed in (0, 1, 2):
        counters = GenerationCounters()
        assert corpus_bytes(generate_corpus(cfg, seed, counters)) == corpus_bytes(ref.generate_corpus(cfg, seed))
        rejected = counters.rejected_distance + counters.rejected_unreachable + counters.rejected_too_long
        assert counters.attempts == cfg.count + rejected
        assert counters.bfs_runs == counters.attempts - counters.rejected_distance


def test_saturated_box_fails_like_the_reference():
    cfg = GenerationConfig(Workspace(0, 0, 0, 0, 0, 0), count=1, max_resample_attempts=3)
    for generate in (generate_corpus, ref.generate_corpus):
        with pytest.raises(ValueError, match="after 3 attempts"):
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
    jobs = [(traj.start, ctx, w) for traj, ctx, w in items]
    rows = [(j, _Hypothesis((start,), (), 0.0, False)) for j, (start, _, _) in enumerate(jobs)]
    _, legal = _CachedStep(model, jobs)(rows)
    assert legal.tolist() == [legal_moves(start, w) + [True] for start, _, w in jobs]
