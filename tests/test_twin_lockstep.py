"""Lock-step twin planning against the one-plan-call-at-a-time episode loop it replaced."""

import random

import numpy as np
import pytest
import reference_twin
from scripted_model import ScriptedModel
from test_acceptance import quick_trained_model

from latticepath.corpus import Trajectory, UnreachableGoalError
from latticepath.decoder import DecodeConfig
from latticepath.lattice import LatticeCoord, Workspace, desk_workspace
from latticepath.twinsim import (
    FAILURE_MODES,
    Event,
    ModelPlanner,
    OraclePlanner,
    Scenario,
    Scene,
    TwinCounters,
    default_scenario_pack,
    run_episode_detailed,
    run_scenarios,
)

C = LatticeCoord


def desk_scenes(seed: int, n: int, density: float = 0.1) -> list[Scenario]:
    """Cluttered desk scenes, each with a slip and a pop-up obstacle at seeded ticks.

    The slip may land on an obstacle or the end effector, and the pop-up
    obstacle on the route, the target or the drop cell, so every branch of
    the episode loop is reached; dense scenes also make some legs unreachable.
    """
    rng = random.Random(f"lockstep:{seed}")
    box = desk_workspace()
    cells = [C(x, y, z) for x in range(box.x_min, box.x_max + 1) for y in range(box.y_min, box.y_max + 1)
             for z in range(box.z_min, box.z_max + 1)]
    out = []
    for i in range(n):
        obstacles = set(rng.sample(cells, round(density * len(cells))))
        ee, target, drop = rng.sample([c for c in cells if c not in obstacles], 3)
        w = Workspace(*box.bounds, obstacles=frozenset(obstacles))
        slip = Event(kind="slip", step=rng.randint(0, 6), cell=rng.choice(cells))
        popup = (rng.choice(cells), rng.randint(0, 8))
        scene = Scene(workspace=w, end_effector=ee, target=target, container=frozenset({drop}),
                      dynamic_obstacles=(popup,))
        out.append(Scenario(name=f"desk_{i}", scene=scene, events=(slip,)))
    return out


def reference_results(scenarios, planner):
    return [reference_twin.run_episode_detailed(s.scene, planner, s.events) for s in scenarios]


def assert_lock_step_matches_reference(scenarios, planner):
    """run_scenarios (one plan_batch call per round) and run_episode_detailed (one plan call per leg)."""
    expected = reference_results(scenarios, planner)
    got = run_scenarios(scenarios, planner)
    assert [s for s, _ in got] == scenarios
    assert [r for _, r in got] == expected
    assert [run_episode_detailed(s.scene, planner, s.events) for s in scenarios] == expected


ORACLE_SETS = {
    "default_pack": default_scenario_pack,
    "desk_sparse": lambda: desk_scenes(1, 60),
    "desk_dense": lambda: desk_scenes(2, 60, density=0.45),
}


@pytest.mark.parametrize("make", ORACLE_SETS.values(), ids=ORACLE_SETS)
def test_oracle_lock_step_matches_the_one_call_loop(make):
    assert_lock_step_matches_reference(make(), OraclePlanner())


@pytest.fixture(scope="module")
def trained():
    return quick_trained_model(seed=0)


def test_seeded_desk_scenes_reach_every_outcome_kind(trained):
    """The differential sets exercise slips, detours, unreachable legs and each failure the loop detects."""
    oracle = RefusingPlanner()
    results = [r for make in ORACLE_SETS.values() for _, r in run_scenarios(make(), oracle)]
    assert oracle.unreachable >= 5
    results += [r for _, r in run_scenarios(desk_scenes(3, 40), ModelPlanner(trained, DecodeConfig()))]
    assert any(r.outcome.success for r in results)
    assert any(r.outcome.regrounds for r in results) and any(r.outcome.detours for r in results)
    assert {"occlusion_cluster", "mis_id", "mechanical_slip"} <= {r.outcome.failure_mode for r in results}


@pytest.mark.parametrize("cfg", [DecodeConfig(mode="greedy"), DecodeConfig(mode="beam", beam_width=5)],
                         ids=["greedy", "beam5"])
def test_model_planner_lock_step_matches_the_one_call_loop(trained, cfg):
    assert_lock_step_matches_reference(desk_scenes(3, 40), ModelPlanner(trained, cfg))


@pytest.mark.parametrize("cfg", [DecodeConfig(max_steps=12, mode="greedy"),
                                 DecodeConfig(max_steps=12, mode="beam", beam_width=5)], ids=["greedy", "beam5"])
def test_scripted_model_planner_lock_step_matches_the_one_call_loop(cfg):
    rng = np.random.default_rng(4)
    box = desk_workspace()
    table = {C(x, y, z): rng.normal(size=7) for x in range(box.x_min, box.x_max + 1)
             for y in range(box.y_min, box.y_max + 1) for z in range(box.z_min, box.z_max + 1)}
    scenarios = desk_scenes(5, 30) + default_scenario_pack()
    assert_lock_step_matches_reference(scenarios, ModelPlanner(ScriptedModel(table), cfg))


class RefusingPlanner(OraclePlanner):
    """The BFS oracle, refusing the goals in `refused`.

    It records each plan_batch call and each goal asked for, and counts the
    legs the BFS itself found unreachable.
    """

    def __init__(self, refused=()):
        self.refused = set(refused)
        self.batches = []
        self.goals = []
        self.unreachable = 0

    def plan(self, start, goal, w):
        self.goals.append(goal)
        if goal in self.refused:
            raise UnreachableGoalError(f"goal {goal} refused")
        try:
            return super().plan(start, goal, w)
        except UnreachableGoalError:
            self.unreachable += 1
            raise

    def plan_batch(self, requests):
        self.batches.append(list(requests))
        return super().plan_batch(requests)


def test_plan_batch_is_called_once_per_round_not_once_per_leg():
    scenarios = default_scenario_pack() + desk_scenes(1, 30)
    legs = []  # plan calls (legs and bypass candidates) each episode makes in the one-call loop
    for s in scenarios:
        one_call = RefusingPlanner()
        reference_twin.run_episode_detailed(s.scene, one_call, s.events)
        legs.append(len(one_call.goals))
    planner, counters = RefusingPlanner(), TwinCounters()
    results = run_scenarios(scenarios, planner, counters)
    assert len(planner.batches) == max(legs) < sum(legs)
    assert [len(b) for b in planner.batches] == [sum(n > k for n in legs) for k in range(max(legs))]
    # the legs of each round, plus 4, 1 and 1 bypass candidates in rounds 3 to 5
    assert [len(b) for b in planner.batches] == [66, 66, 34, 30, 2, 1]
    assert (counters.plan_batches, counters.plan_requests) == (max(legs), sum(legs))
    assert counters.ticks == sum(r.ticks for _, r in results)
    assert counters.regrounds == sum(r.outcome.regrounds for _, r in results)
    assert counters.detours == sum(r.outcome.detours for _, r in results)
    assert counters.failure_modes == {m: sum(r.outcome.failure_mode == m for _, r in results) for m in FAILURE_MODES}


def test_unreachable_answer_fails_only_the_episode_that_asked():
    scenarios = desk_scenes(1, 40)
    refused = {s.scene.target for s in scenarios[::3]}
    planner = RefusingPlanner(refused)
    got = [r for _, r in run_scenarios(scenarios, planner)]
    first = RefusingPlanner(refused).plan_batch(planner.batches[0])
    assert {type(a) for a in first} == {Trajectory, UnreachableGoalError}
    plain = reference_results(scenarios, OraclePlanner())
    asked_refused = 0
    for s, r, ref in zip(scenarios, got, plain):
        one_call = RefusingPlanner(refused)
        assert r == reference_twin.run_episode_detailed(s.scene, one_call, s.events)
        if refused & set(one_call.goals):
            asked_refused += 1
            assert r.outcome.failure_mode == "occlusion_cluster"
        else:
            assert r == ref
    assert len(scenarios[::3]) <= asked_refused < len(scenarios)


def test_model_planner_plan_is_its_plan_batch_of_one_and_counts_decodes(trained):
    planner = ModelPlanner(trained, DecodeConfig(mode="beam", beam_width=3))
    requests = [(C(-3, -3, 0), C(2, 1, 0), desk_workspace()), (C(0, 0, 0), C(0, 0, 3), desk_workspace())]
    batch = planner.plan_batch(requests)
    assert batch == [planner.plan(*q) for q in requests]
    counters = planner.counters
    assert sum(counters.terminated.values()) == 2 * len(requests)
    assert counters.model_steps > 0 and counters.rows_stepped >= counters.model_steps


# pop-up bypasses are plan requests -------------------------------------------------------------

CORRIDOR = Scene(workspace=Workspace(-3, 3, -3, 3, 0, 4), end_effector=C(-3, 0, 0), target=C(3, 0, 0),
                 dynamic_obstacles=((C(-1, 0, 0), 1),))
# At tick 1 the effector is on (-2, 0, 0) and (-1, 0, 0) blocks the straight approach: the bypass candidates
# run from (-2, 0, 0) to each later cell of the route.
BYPASS_START, BYPASS_GOALS = C(-2, 0, 0), [C(0, 0, 0), C(1, 0, 0), C(2, 0, 0), C(3, 0, 0)]


class BypassSpoiler(OraclePlanner):
    """The BFS oracle, but its answers to the bypass candidates follow `answers`, one a candidate:
    "unreachable" raises, "off_goal" stops one cell short of the goal, "too_long" adds four cells,
    and "bfs" is the oracle's path."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.asked = []

    def plan(self, start, goal, w):
        path = super().plan(start, goal, w)
        if start != BYPASS_START:
            return path
        self.asked.append(goal)
        answer = self.answers[len(self.asked) - 1]
        if answer == "unreachable":
            raise UnreachableGoalError(f"goal {goal} refused")
        if answer == "off_goal":
            return Trajectory(points=path.points[:-1])
        if answer == "too_long":
            up = goal.offset(0, 0, 1)
            return Trajectory(points=path.points + (up, goal, up, goal))
        return path


@pytest.mark.parametrize("last", ["bfs", "off_goal"])
def test_each_rejected_bypass_moves_on_to_the_next_route_cell(last):
    planner = BypassSpoiler(["unreachable", "off_goal", "too_long", last])
    want = reference_twin.run_episode_detailed(CORRIDOR, BypassSpoiler(planner.answers))
    got = run_episode_detailed(CORRIDOR, planner)
    assert got == want == run_scenarios([Scenario("corridor", CORRIDOR)], BypassSpoiler(planner.answers))[0][1]
    assert planner.asked == BYPASS_GOALS
    if last == "bfs":
        assert (got.outcome.success, got.outcome.detours) == (True, 1)
        assert got.trace.points[:3] == (C(-3, 0, 0), C(-2, 0, 0), C(-2, 1, 0))
    else:
        assert (got.outcome.failure_mode, got.outcome.detours, got.ticks) == ("occlusion_cluster", 0, 1)


def steer(*actions):
    """Logits preferring `actions` (move indices) in the order given."""
    row = np.full(7, -9.0)
    for rank, a in enumerate(actions):
        row[a] = 5.0 - rank
    return row


def test_model_planner_plans_its_own_bypasses(monkeypatch):
    """A scripted model drives along y = 0 (or, blocked, up to y = 1, along it and back) and stops on (3, 0, 0),
    so every bypass candidate ends there: the three to earlier route cells are refused, the last is spliced
    in. No BFS runs, and each candidate is one decoded plan request of its own round."""
    from latticepath import twinsim

    monkeypatch.setattr(twinsim, "oracle_path", lambda *a: pytest.fail("the BFS oracle planned a leg"))
    px, py, ny, stop = 0, 2, 3, 6
    table = {**{C(x, 0, 0): steer(px, py) for x in range(-3, 3)}, C(3, 0, 0): steer(stop),
             C(-2, 1, 0): steer(px), C(-1, 1, 0): steer(px), C(0, 1, 0): steer(ny)}
    planner, counters = ModelPlanner(ScriptedModel(table), DecodeConfig(mode="greedy")), TwinCounters()
    got = run_scenarios([Scenario("corridor", CORRIDOR)], planner, counters)[0][1]
    assert got == reference_twin.run_episode_detailed(CORRIDOR, ModelPlanner(ScriptedModel(table), DecodeConfig()))
    assert (got.outcome.success, got.outcome.detours) == (True, 1)
    assert got.trace.points == (C(-3, 0, 0), C(-2, 0, 0), C(-2, 1, 0), C(-1, 1, 0), C(0, 1, 0), C(0, 0, 0),
                                C(1, 0, 0), C(2, 0, 0), C(3, 0, 0))
    assert (counters.plan_requests, counters.plan_batches) == (2 + len(BYPASS_GOALS), 2 + len(BYPASS_GOALS))
    assert sum(planner.counters.terminated.values()) == counters.plan_requests
