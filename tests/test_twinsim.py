import pytest

from latticepath.corpus import Trajectory
from latticepath.decoder import validate_path
from latticepath.lattice import LatticeCoord, Workspace
from latticepath.twinsim import (
    FAILURE_MODES,
    EpisodeOutcome,
    Event,
    OraclePlanner,
    Scenario,
    Scene,
    check_expectation,
    default_scenario_pack,
    format_outcome_table,
    read_scenarios,
    run_episode,
    run_episode_detailed,
    run_scenarios,
    write_scenarios,
)

C = LatticeCoord


def flat(x1=4, y1=2, obstacles=()):
    return Workspace(x_min=0, x_max=x1, y_min=0, y_max=y1, z_min=0, z_max=0,
                     obstacles=frozenset(obstacles))


class FixedPlanner:
    """Replays canned legs in order; lets tests force off-target plans."""

    def __init__(self, legs):
        self.legs = list(legs)

    def plan(self, start, goal, w):
        return Trajectory(points=tuple(self.legs.pop(0)))


# scene, event and outcome datatypes ----------------------------------------------


def test_scene_validates_cells():
    w = flat()
    with pytest.raises(ValueError):
        Scene(workspace=w, end_effector=C(9, 0, 0), target=C(1, 0, 0))
    with pytest.raises(ValueError):
        Scene(workspace=w, end_effector=C(0, 0, 0), target=C(0, 0, 5))
    with pytest.raises(ValueError):
        Scene(workspace=w, end_effector=C(0, 0, 0), target=C(1, 0, 0),
              container=frozenset({C(0, 9, 0)}))
    with pytest.raises(ValueError):
        Scene(workspace=w, end_effector=C(0, 0, 0), target=C(1, 0, 0),
              dynamic_obstacles=((C(99, 0, 0), 2),))
    with pytest.raises(ValueError, match="container must be None or hold at least one cell"):
        Scene(workspace=w, end_effector=C(0, 0, 0), target=C(1, 0, 0), container=frozenset())


def test_drop_cell_is_smallest_container_cell():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(1, 0, 0),
              container=frozenset({C(3, 1, 0), C(2, 2, 0), C(3, 0, 0)}))
    assert s.drop_cell == C(2, 2, 0)


def test_drop_cell_falls_back_to_target():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(4, 1, 0))
    assert s.drop_cell == C(4, 1, 0)


def test_scene_round_trips_through_dict():
    s = Scene(workspace=flat(obstacles={C(1, 1, 0)}), end_effector=C(0, 0, 0),
              target=C(3, 0, 0), container=frozenset({C(4, 2, 0)}),
              dynamic_obstacles=((C(2, 0, 0), 1),))
    assert Scene.from_dict(s.to_dict()) == s


def test_event_validation():
    with pytest.raises(ValueError):
        Event(kind="teleport", step=0)
    with pytest.raises(ValueError):
        Event(kind="slip", step=0)  # no cell
    with pytest.raises(ValueError):
        Event(kind="fail", step=0, mode="gremlins")
    e = Event(kind="slip", step=2, cell=C(1, 1, 0))
    assert Event.from_dict(e.to_dict()) == e


@pytest.mark.parametrize("step", [-1, 0.5, True, "1"])
def test_event_and_obstacle_steps_must_be_non_negative_integers(step):
    with pytest.raises(ValueError, match=r"event\.step must be a non-negative integer"):
        Event(kind="fail", step=step, mode="no_state")
    with pytest.raises(ValueError, match=r"dynamic_obstacles\[0\]\[1\] must be a non-negative integer"):
        Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0), dynamic_obstacles=((C(1, 0, 0), step),))


def test_outcome_exclusivity():
    with pytest.raises(ValueError):
        EpisodeOutcome(success=True, failure_mode="mis_id")
    with pytest.raises(ValueError):
        EpisodeOutcome(success=False, failure_mode="not_a_mode")


# episode execution ---------------------------------------------------------------


def test_unperturbed_pick_place():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0),
              container=frozenset({C(2, 2, 0)}))
    r = run_episode_detailed(s, OraclePlanner())
    assert r.outcome == EpisodeOutcome(success=True)
    assert r.grasped and r.released
    assert r.trace.points == (C(0, 0, 0), C(1, 0, 0), C(2, 0, 0), C(2, 1, 0), C(2, 2, 0))
    assert r.ticks == 6  # 4 moves + engage + release


def test_unperturbed_reach_only():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0))
    r = run_episode_detailed(s, OraclePlanner())
    assert r.outcome.success
    assert r.trace.points == (C(0, 0, 0), C(1, 0, 0), C(2, 0, 0))
    assert r.ticks == 4  # 2 moves + engage + release


def test_start_on_target():
    s = Scene(workspace=flat(), end_effector=C(1, 1, 0), target=C(1, 1, 0))
    r = run_episode_detailed(s, OraclePlanner())
    assert r.outcome.success
    assert r.trace.points == (C(1, 1, 0),)
    assert r.ticks == 2  # engage + release only


def test_slip_before_grasp_regrounds_locally():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(3, 0, 0),
              container=frozenset({C(3, 2, 0)}))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=1, cell=C(2, 1, 0)),))
    assert r.outcome.success
    assert r.outcome.regrounds == 1
    assert r.outcome.replanned_globally is False
    assert C(2, 1, 0) in r.trace.points  # new target actually visited
    assert r.trace.end == C(3, 2, 0)


def test_slip_after_grasp_is_ignored():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(1, 0, 0),
              container=frozenset({C(1, 2, 0)}))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=3, cell=C(4, 2, 0)),))
    assert r.outcome.success
    assert r.outcome.regrounds == 0
    assert r.trace.end == C(1, 2, 0)


def test_out_of_bounds_slip_is_ignored():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=0, cell=C(0, 0, 4)),))
    assert r.outcome.success
    assert r.outcome.regrounds == 0


def test_slip_onto_a_static_obstacle_is_ignored():
    s = Scene(workspace=flat(obstacles={C(2, 1, 0)}), end_effector=C(0, 0, 0), target=C(3, 0, 0))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=1, cell=C(2, 1, 0)),))
    assert r.outcome.success
    assert r.outcome.regrounds == 0
    assert r.trace.end == C(3, 0, 0)


def test_slip_onto_an_activated_dynamic_obstacle_is_ignored():
    # the pop-up lands off the route at tick 0; at tick 1 the object slips onto it
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(3, 0, 0),
              dynamic_obstacles=((C(2, 2, 0), 0),))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=1, cell=C(2, 2, 0)),))
    assert r.outcome.success
    assert (r.outcome.regrounds, r.outcome.detours) == (0, 0)
    assert r.trace.end == C(3, 0, 0)


def test_reach_only_slip_moves_the_drop():
    # with no container the release must land on the slipped target
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(4, 0, 0))
    r = run_episode_detailed(s, OraclePlanner(), (Event(kind="slip", step=1, cell=C(2, 2, 0)),))
    assert r.outcome.success
    assert r.trace.end == C(2, 2, 0)


def test_dynamic_obstacle_detour():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(4, 0, 0),
              dynamic_obstacles=((C(2, 0, 0), 1),))
    r = run_episode_detailed(s, OraclePlanner())
    assert r.outcome.success
    assert r.outcome.detours == 1
    assert r.outcome.regrounds == 0
    assert C(2, 0, 0) not in r.trace.points
    assert validate_path(r.trace, s.workspace).valid


def test_obstacle_on_target_fails_occlusion():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(4, 0, 0),
              dynamic_obstacles=((C(4, 0, 0), 0),))
    r = run_episode_detailed(s, OraclePlanner())
    assert not r.outcome.success
    assert r.outcome.failure_mode == "occlusion_cluster"
    assert not r.grasped


def test_obstacle_on_drop_fails_occlusion():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0),
              container=frozenset({C(2, 2, 0)}),
              dynamic_obstacles=((C(2, 2, 0), 2),))
    out = run_episode(s, OraclePlanner())
    assert out.failure_mode == "occlusion_cluster"


def test_scripted_fail_event():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0))
    out = run_episode(s, OraclePlanner(), (Event(kind="fail", step=0, mode="nested_block"),))
    assert not out.success
    assert out.failure_mode == "nested_block"


def test_engage_off_target_is_mis_id():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0))
    bad = FixedPlanner([
        [C(0, 0, 0), C(1, 0, 0)],  # approach stops one cell short
        [C(1, 0, 0), C(2, 0, 0)],
    ])
    out = run_episode(s, bad)
    assert out.failure_mode == "mis_id"
    assert not out.success


def test_release_off_drop_is_mechanical_slip():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(2, 0, 0),
              container=frozenset({C(2, 2, 0)}))
    bad = FixedPlanner([
        [C(0, 0, 0), C(1, 0, 0), C(2, 0, 0)],
        [C(2, 0, 0), C(2, 1, 0)],  # transport stops short of the container
    ])
    r = run_episode_detailed(s, bad)
    assert r.outcome.failure_mode == "mechanical_slip"
    assert r.released  # the gripper did open, just in the wrong cell


def test_episode_is_deterministic():
    s = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(4, 2, 0),
              container=frozenset({C(0, 2, 0)}),
              dynamic_obstacles=((C(2, 1, 0), 2),))
    ev = (Event(kind="slip", step=1, cell=C(3, 1, 0)),)
    a = run_episode_detailed(s, OraclePlanner(), ev)
    b = run_episode_detailed(s, OraclePlanner(), ev)
    assert a == b


def test_exhaustive_unperturbed_grid_always_succeeds():
    w = flat(x1=2, y1=2)
    cells = [C(x, y, 0) for x in range(3) for y in range(3)]
    for ee in cells:
        for target in cells:
            s = Scene(workspace=w, end_effector=ee, target=target,
                      container=frozenset({C(2, 2, 0)}))
            r = run_episode_detailed(s, OraclePlanner())
            assert r.outcome.success, (ee, target)
            assert validate_path(r.trace, w).valid


# scenario plumbing ---------------------------------------------------------------


def scenario_fixture():
    scene = Scene(workspace=flat(), end_effector=C(0, 0, 0), target=C(3, 0, 0),
                  container=frozenset({C(4, 2, 0)}))
    return Scenario(name="ship_it", scene=scene,
                    events=(Event(kind="slip", step=1, cell=C(2, 1, 0)),),
                    tags=("slip",), expected={"success": True, "regrounds": 1})


def test_scenario_jsonl_round_trip(tmp_path):
    pack = [scenario_fixture(), Scenario(name="plain", scene=scenario_fixture().scene)]
    path = tmp_path / "pack.jsonl"
    write_scenarios(path, pack)
    again = read_scenarios(path)
    assert again == pack


def test_read_scenarios_reports_bad_line(tmp_path):
    path = tmp_path / "pack.jsonl"
    write_scenarios(path, [scenario_fixture()])
    lines = path.read_text().splitlines()
    lines.append(lines[0].replace('"schema_version": 1', '"schema_version": 3'))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_scenarios(path)


def test_check_expectation_matches_subset():
    sc = scenario_fixture()
    good = EpisodeOutcome(success=True, regrounds=1, detours=0)
    off = EpisodeOutcome(success=True, regrounds=2)
    assert check_expectation(sc, good)
    assert not check_expectation(sc, off)
    assert check_expectation(Scenario(name="x", scene=sc.scene), off)  # no expectation


def test_default_pack_is_large_and_self_consistent():
    pack = default_scenario_pack()
    assert len(pack) >= 30
    assert len({s.name for s in pack}) == len(pack)
    results = run_scenarios(pack)
    for s, r in results:
        assert check_expectation(s, r.outcome), s.name
        assert validate_path(r.trace, s.scene.workspace).valid, s.name


def test_default_pack_unperturbed_scenarios_all_succeed():
    results = run_scenarios([s for s in default_scenario_pack() if "unperturbed" in s.tags])
    assert results
    assert all(r.outcome.success for _, r in results)


def test_default_pack_recoveries_stay_local():
    pack = [s for s in default_scenario_pack()
            if ("slip" in s.tags or "detour" in s.tags)]
    assert pack
    recovered = 0
    for s, r in run_scenarios(pack):
        if r.outcome.success:
            assert r.outcome.replanned_globally is False, s.name
            recovered += r.outcome.regrounds + r.outcome.detours
    assert recovered >= 5  # most perturbed scenarios recover locally


def test_default_pack_covers_failure_modes():
    pack = default_scenario_pack()
    seen = {r.outcome.failure_mode for _, r in run_scenarios(pack)}
    assert {"occlusion_cluster", "mis_id", "nested_block", "no_state"} <= seen


def test_format_outcome_table_summarizes():
    results = run_scenarios(default_scenario_pack()[:5])
    text = format_outcome_table(results)
    assert "successful executions" in text
    assert "grasp" in text and "placement" in text
    for s, _ in results:
        assert s.name in text


def test_unknown_failure_modes_never_appear():
    for _, r in run_scenarios(default_scenario_pack()):
        mode = r.outcome.failure_mode
        assert mode is None or mode in FAILURE_MODES
