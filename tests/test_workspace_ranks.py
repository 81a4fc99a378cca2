"""Rank-stored workspaces against the frozenset workspace and row-by-row grid they replaced."""

import json
import random

import numpy as np
import pytest
import reference_lattice as ref

from latticepath.corpus import GenerationConfig, generate_corpus, read_records, write_records
from latticepath.lattice import LatticeCoord, Workspace, default_workspace, in_bounds
from latticepath.twinsim import OraclePlanner, Scene, run_episode_detailed, with_activated

C = LatticeCoord

BOXES = {
    "desk": (-3, 3, -3, 3, 0, 4),
    "offset": (2, 6, -4, -1, 3, 5),
    "pair": (0, 0, 0, 0, 0, 1),
    "envelope": (-22, 22, -22, 22, 0, 34),
}
CASES = [("desk", 0.0), ("desk", 0.1), ("desk", 0.2), ("offset", 0.2), ("pair", 0.5), ("envelope", 0.05)]


def box_cells(box, margin=0):
    x0, x1, y0, y1, z0, z1 = box
    m = margin
    return [C(x, y, z) for x in range(x0 - m, x1 + m + 1) for y in range(y0 - m, y1 + m + 1)
            for z in range(z0 - m, z1 + m + 1)]


def seeded(box_name, density, seed=0):
    """One seeded obstacle set as a rank-stored Workspace and as a RefWorkspace."""
    box = BOXES[box_name]
    cells = box_cells(box)
    obstacles = random.Random(f"{box_name}:{density}:{seed}").sample(cells, round(density * len(cells)))
    return Workspace(*box, obstacles=obstacles), ref.RefWorkspace(*box, obstacles=frozenset(obstacles))


def dumps(d) -> str:
    return json.dumps(d, sort_keys=True)


@pytest.fixture(params=CASES, ids=[f"{b}-{d}" for b, d in CASES])
def pair(request):
    return seeded(*request.param)


def test_codec_matches_reference(pair):
    w, r = pair
    text = dumps(r.to_dict())
    assert dumps(w.to_dict()) == text
    assert w.to_dict() == r.to_dict()
    back = Workspace.from_dict(json.loads(text))
    assert back == w and dumps(back.to_dict()) == text
    assert ref.RefWorkspace.from_dict(w.to_dict()) == r
    d = json.loads(text)
    d["obstacles"] = d["obstacles"][::-1] + d["obstacles"][:1]  # any order, repeats collapse
    assert Workspace.from_dict(d) == w


def test_grid_obstacles_and_cells_match_reference(pair):
    w, r = pair
    assert bytes(w.grid.free) == bytes(ref.RefLegalityGrid(r).free)
    assert w.obstacles == r.obstacles
    assert list(w.cells()) == list(r.cells())
    assert len(w.ranks) == len(r.obstacles)


def test_in_bounds_matches_reference_on_every_cell_and_the_padding(pair):
    w, r = pair
    box = (w.x_min, w.x_max, w.y_min, w.y_max, w.z_min, w.z_max)
    for c in box_cells(box, margin=2):  # the padding and one layer beyond it
        assert in_bounds(c, w) == ref.in_bounds(c, r), c


def test_equality_and_hash_match_reference():
    pairs = [seeded("desk", 0.1), seeded("desk", 0.1, seed=1), seeded("offset", 0.2), seeded("pair", 0.5)]
    w, r = pairs[0]
    extra = next(r.cells())
    pairs += [
        (Workspace(*BOXES["desk"]).with_ranks(w.ranks[::-1].tolist() + w.ranks[:2].tolist()), r),
        (Workspace.from_dict(r.to_dict()), r),
        (w.with_obstacles(w.obstacles | {extra}), r.with_obstacles(r.obstacles | {extra})),
        (Workspace(*BOXES["desk"], obstacles=r.obstacles, resolution_mm=10.0),
         ref.RefWorkspace(*BOXES["desk"], obstacles=r.obstacles, resolution_mm=10.0)),
        (Workspace(*BOXES["desk"]), ref.RefWorkspace(*BOXES["desk"])),
    ]
    for a, ra in pairs:
        for b, rb in pairs:
            assert (a == b) == (ra == rb)
            if a == b:
                assert hash(a) == hash(b)
    assert len({a for a, _ in pairs}) == len({ra for _, ra in pairs})


def test_twin_union_matches_reference(pair):
    w, r = pair
    rng = random.Random(7)
    free = list(r.cells())
    activated = rng.sample(free, min(3, len(free))) + rng.sample(sorted(r.obstacles), min(2, len(r.obstacles)))
    union = with_activated(w, activated)
    expected = r.with_obstacles(r.obstacles | set(activated))
    assert dumps(union.to_dict()) == dumps(expected.to_dict())
    assert bytes(union.grid.free) == bytes(ref.RefLegalityGrid(expected).free)
    assert union == Workspace(*w.bounds, obstacles=expected.obstacles)
    assert w == Workspace(*w.bounds, obstacles=r.obstacles)  # the scene's workspace is untouched


def test_with_ranks_rejects_ranks_outside_the_box():
    w = Workspace(0, 1, 0, 1, 0, 1)
    for ranks in ([-1], [8], [0, 3, 8]):
        with pytest.raises(ValueError, match="outside the workspace box"):
            w.with_ranks(ranks)
    assert w.with_ranks(np.array([7, 0, 7])).obstacles == {C(0, 0, 0), C(1, 1, 1)}


MALFORMED = {
    "not-a-list": ({"a": 1}, 'workspace.obstacles must be a list of [x, y, z] cells, got {"a": 1}'),
    "fraction": ([[0, 0, 0], [0.5, 0, 1]], "workspace.obstacles[1] must be three integers, got [0.5, 0, 1]"),
    "bool": ([[False, 0, 0]], "workspace.obstacles[0] must be three integers, got [false, 0, 0]"),
    "string": (["012"], 'workspace.obstacles[0] must be three integers, got "012"'),
    "string-value": ([[0, "0", 0]], 'workspace.obstacles[0] must be three integers, got [0, "0", 0]'),
    "four-values": ([[0, 0, 0, 0]], "workspace.obstacles[0] must be three integers, got [0, 0, 0, 0]"),
    "scalar-entry": ([[0, 0, 0], 7], "workspace.obstacles[1] must be three integers, got 7"),
    "outside": ([[0, 0, 0], [0, 0, 2]], "workspace.obstacles[1] = [0, 0, 2] lies outside the workspace bounds"),
    "huge": ([[10**400, 0, 0]], "lies outside the workspace bounds"),
}


@pytest.mark.parametrize("obstacles, message", MALFORMED.values(), ids=MALFORMED)
def test_from_dict_names_the_malformed_obstacle_entry(obstacles, message):
    d = {**Workspace(0, 1, 0, 1, 0, 1).to_dict(), "obstacles": obstacles}
    with pytest.raises(ValueError) as exc:
        Workspace.from_dict(d)
    assert message in str(exc.value)


def test_from_dict_reads_integral_floats_as_integers():
    d = {**Workspace(0, 1, 0, 1, 0, 1).to_dict(), "obstacles": [[1.0, 0, 1], [0, 0, 0]]}
    assert Workspace.from_dict(d) == Workspace(0, 1, 0, 1, 0, 1, obstacles={C(1, 0, 1), C(0, 0, 0)})


def test_workspace_is_immutable():
    w = Workspace(0, 1, 0, 1, 0, 1, obstacles={C(0, 0, 0)})
    with pytest.raises(AttributeError):
        w.x_min = 5
    with pytest.raises(ValueError):
        w.ranks[0] = 1


def test_hot_paths_never_build_coordinate_sets(tmp_path, monkeypatch):
    """Envelope generation, reading records back and a twin episode with a pop-up obstacle read only ranks."""
    built = []
    cached = Workspace.__dict__["obstacles"]
    monkeypatch.setattr(Workspace, "obstacles", property(lambda w: built.append(w) or cached.func(w)))
    cfg = GenerationConfig(default_workspace(), count=2, obstacle_density=0.05, max_path_length=32)
    records = generate_corpus(cfg, 0)
    write_records(tmp_path / "corpus.jsonl", records)
    back = read_records(tmp_path / "corpus.jsonl")
    assert back == records
    scene = Scene(workspace=back[0].workspace, end_effector=back[0].trajectory.start, target=back[0].trajectory.end,
                  dynamic_obstacles=((back[0].trajectory.points[2], 1),))
    result = run_episode_detailed(scene, OraclePlanner())
    assert result.outcome.detours == 1 and result.outcome.success
    assert built == []
