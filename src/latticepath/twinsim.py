"""Desk-scale digital-twin episode simulator on the lattice.

A Scene mirrors the tracked world state: workspace, end-effector cell,
target cell, an optional container region, and dynamic obstacles that
activate at scripted ticks. An episode plans an approach leg to the target
and a transport leg to the drop cell, then runs them through four phases
(approach, engage, transport, release), one lattice move per tick, while
scripted events perturb the run:

* slip: the target moves; the remaining approach is re-grounded from the
  current end-effector cell without touching the executed prefix and
  without any global re-plan. Slips after the grasp, or to a cell outside
  the box or blocked, are ignored.
* dynamic obstacle: if the remaining route crosses the activated cell, a
  planned local bypass (at most two extra cells) rejoins the original route
  at the earliest cell it can; otherwise the episode fails as an
  occlusion_cluster. An obstacle landing on the live target or the drop
  cell fails immediately.
* fail: scripted outcome injection (no_state, mis_id, nested_block,
  mechanical_slip) for failure modes the lattice has no mechanics for.

An engage tick off the live target cell fails as mis_id (the gripper closed
on the wrong cell); a release outside the container fails as
mechanical_slip. Neither can happen with the BFS oracle planner. Success
means the release happened inside the container region, or on the live
target for reach-only scenes without a container. Everything is
deterministic: scripted events, BFS with canonical tie-breaking, no RNG.

Planning is lock-step. An episode is a generator that yields each plan
request (start, goal, workspace) as it reaches it (the approach leg, then
the transport leg from the approach's last cell, both again after each
slip, and each bypass candidate) and is sent the planned trajectory, or has
the request's UnreachableGoalError thrown into it. One driver steps every
episode of a run to its next request and answers all pending requests with
a single plan_batch call, so a model planner decodes a round of requests as
one batch rather than one per call. A planner offers plan(start, goal, w),
which returns a trajectory or raises UnreachableGoalError, and
plan_batch(requests), which returns one answer per request: a trajectory or
the UnreachableGoalError instance for that request only. run_scenarios
drives all its scenes through plan_batch; run_episode_detailed drives one
scene through plan, one call per request.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Generator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import Trajectory, UnreachableGoalError, oracle_path, read_jsonl, write_jsonl
from .decoder import DecodeConfig, DecodeCounters, decode_batch
from .lattice import (LatticeCoord, Workspace, in_bounds, manhattan, read_cell, read_list, read_object, read_step,
                      read_str)
from .taskgrid import build_context, reach_only_graph

FAILURE_MODES = ("no_state", "occlusion_cluster", "nested_block", "mis_id", "mechanical_slip")

SCENARIO_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scene:
    workspace: Workspace
    end_effector: LatticeCoord
    target: LatticeCoord
    container: frozenset[LatticeCoord] | None = None
    dynamic_obstacles: tuple[tuple[LatticeCoord, int], ...] = ()

    def __post_init__(self) -> None:
        if not in_bounds(self.end_effector, self.workspace):
            raise ValueError(f"end effector {self.end_effector} is out of bounds")
        if not in_bounds(self.target, self.workspace):
            raise ValueError(f"target {self.target} is out of bounds")
        if self.container is not None:
            object.__setattr__(self, "container", frozenset(self.container))
            if not self.container:
                raise ValueError("container must be None or hold at least one cell")
            for c in self.container:
                if not in_bounds(c, self.workspace):
                    raise ValueError(f"container cell {c} is out of bounds")
        obstacles = tuple((c, read_step(step, f"dynamic_obstacles[{i}][1]"))
                          for i, (c, step) in enumerate(self.dynamic_obstacles))
        for c, _ in obstacles:
            if not self.workspace._in_box(c):
                raise ValueError(f"dynamic obstacle {c} is outside the workspace box")
        object.__setattr__(self, "dynamic_obstacles", obstacles)

    @property
    def drop_cell(self) -> LatticeCoord:
        """Deterministic release destination: smallest container cell, else the target."""
        if self.container is None:
            return self.target
        return min(self.container, key=lambda c: c.as_tuple())

    def to_dict(self) -> dict:
        return {
            "workspace": self.workspace.to_dict(),
            "end_effector": list(self.end_effector.as_tuple()),
            "target": list(self.target.as_tuple()),
            "container": sorted(list(c.as_tuple()) for c in self.container) if self.container is not None else None,
            "dynamic_obstacles": [[list(c.as_tuple()), step] for c, step in self.dynamic_obstacles],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        container = read_object(d, "scene").get("container")
        if not (container is None or (type(container) is list and container)):
            raise ValueError(f"container must be null or a non-empty list of cells, got {json.dumps(container)}")
        return cls(
            workspace=Workspace.from_dict(d["workspace"]),
            end_effector=read_cell(d["end_effector"], "end_effector"),
            target=read_cell(d["target"], "target"),
            container=(
                frozenset(read_cell(c, f"container[{i}]") for i, c in enumerate(container))
                if container is not None
                else None
            ),
            dynamic_obstacles=tuple(
                (read_cell(c, f"dynamic_obstacles[{i}][0]"), step)
                for i, (c, step) in enumerate(read_list(d.get("dynamic_obstacles", []), "dynamic_obstacles", True))
            ),
        )


@dataclass(frozen=True)
class EpisodeOutcome:
    success: bool
    failure_mode: str | None = None
    regrounds: int = 0
    detours: int = 0
    replanned_globally: bool = False

    def __post_init__(self) -> None:
        if self.success and self.failure_mode is not None:
            raise ValueError("a successful episode cannot carry a failure mode")
        if self.failure_mode is not None and self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode {self.failure_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Event:
    """One scripted perturbation: kind 'slip' (cell = new target) or 'fail' (mode)."""

    kind: str
    step: int
    cell: LatticeCoord | None = None
    mode: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", read_step(self.step, "event.step"))
        if self.kind not in ("slip", "fail"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "slip" and self.cell is None:
            raise ValueError("slip events need a cell")
        if self.kind == "fail" and self.mode not in FAILURE_MODES:
            raise ValueError(f"fail events need a mode from {FAILURE_MODES}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "step": self.step,
            "cell": list(self.cell.as_tuple()) if self.cell is not None else None,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        return cls(
            kind=read_str(read_object(d, "event")["kind"], "event.kind"),
            step=d["step"],
            cell=read_cell(d["cell"], "event.cell") if d.get("cell") is not None else None,
            mode=read_str(d["mode"], "event.mode") if d.get("mode") is not None else None,
        )


# One plan request (start, goal, workspace), and its answer: a trajectory or the request's UnreachableGoalError.
PlanRequest = tuple[LatticeCoord, LatticeCoord, Workspace]
PlanAnswer = Trajectory | UnreachableGoalError


def plan_each(plan: Callable[..., Trajectory], requests: list[PlanRequest]) -> list[PlanAnswer]:
    """Answer each request with one plan(start, goal, w) call; an UnreachableGoalError becomes its answer."""
    answers: list[PlanAnswer] = []
    for start, goal, w in requests:
        try:
            answers.append(plan(start, goal, w))
        except UnreachableGoalError as e:
            answers.append(e)
    return answers


class OraclePlanner:
    """BFS shortest paths; the planner used by the scripted scenario suite."""

    def plan(self, start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
        return oracle_path(start, goal, w)

    def plan_batch(self, requests: list[PlanRequest]) -> list[PlanAnswer]:
        return plan_each(self.plan, requests)


class ModelPlanner:
    """Plans by constrained decoding from a trained model; counters tally every decode call."""

    def __init__(self, model, decode_cfg: DecodeConfig):
        self.model = model
        self.decode_cfg = decode_cfg
        self.counters = DecodeCounters()

    def plan(self, start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
        return self.plan_batch([(start, goal, w)])[0]

    def plan_batch(self, requests: list[PlanRequest]) -> list[PlanAnswer]:
        """One decode_batch call; each leg is a reach toward its goal, hinted at its Manhattan length + 1."""
        jobs = [(start, build_context(reach_only_graph(), 0, sequence_length_hint=manhattan(start, goal) + 1,
                                      target=goal), w)
                for start, goal, w in requests]
        return [d.trajectory for d in decode_batch(self.model, jobs, self.decode_cfg, self.counters)]


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome plus the executed motion trace and phase completion flags."""

    outcome: EpisodeOutcome
    trace: Trajectory
    grasped: bool
    released: bool
    ticks: int


def with_activated(w: Workspace, cells) -> Workspace:
    """w with obstacles also on `cells` (cells of its box): the union of their ranks with w's."""
    return w.with_ranks(np.append(w.ranks, [w.rank(c) for c in cells]))


@dataclass
class TwinCounters:
    """Seed-determined tallies of a lock-step run; no timings.

    plan_requests counts the legs and bypass candidates asked for,
    plan_batches the plan_batch calls that answered them; ticks, regrounds
    and detours sum over the episodes, and failure_modes counts the failed
    episodes by mode.
    """

    plan_requests: int = 0
    plan_batches: int = 0
    ticks: int = 0
    regrounds: int = 0
    detours: int = 0
    failure_modes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(FAILURE_MODES, 0))


def run_episode(scene: Scene, planner, event_script: tuple[Event, ...] = ()) -> EpisodeOutcome:
    return run_episode_detailed(scene, planner, event_script).outcome


def run_episode_detailed(scene: Scene, planner, event_script: tuple[Event, ...] = ()) -> EpisodeResult:
    """One episode, its legs planned one planner.plan call at a time."""
    return run_lock_step([episode(scene, event_script)], lambda requests: plan_each(planner.plan, requests))[0]


def run_lock_step(episodes: list[Generator], plan_batch: Callable[[list[PlanRequest]], list[PlanAnswer]],
                  counters: TwinCounters | None = None) -> list[EpisodeResult]:
    """Run episode generators together: step each to its next plan request, answer all with one plan_batch call.

    Each round asks plan_batch for every pending request, in episode order,
    and sends each episode its own answer (an UnreachableGoalError is thrown
    into that episode only), until every episode has returned its result.
    """
    counters = TwinCounters() if counters is None else counters
    results: list[EpisodeResult | None] = [None] * len(episodes)
    pending: dict[int, PlanRequest] = {}

    def advance(i: int, answer: PlanAnswer | None) -> None:
        try:
            if isinstance(answer, UnreachableGoalError):
                pending[i] = episodes[i].throw(answer)
            else:
                pending[i] = episodes[i].send(answer)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(episodes)):
        advance(i, None)
    while pending:
        asked, pending = pending, {}
        answers = plan_batch(list(asked.values()))
        counters.plan_requests += len(asked)
        counters.plan_batches += 1
        for i, answer in zip(asked, answers, strict=True):
            advance(i, answer)
    for r in results:
        counters.ticks += r.ticks
        counters.regrounds += r.outcome.regrounds
        counters.detours += r.outcome.detours
        if r.outcome.failure_mode is not None:
            counters.failure_modes[r.outcome.failure_mode] += 1
    return results


def episode(scene: Scene, event_script: tuple[Event, ...] = ()) -> Generator[PlanRequest, Trajectory, EpisodeResult]:
    """Tick-by-tick execution, yielding each plan request; see the module docstring for event semantics."""
    events = sorted(event_script, key=lambda e: e.step)
    pending_obstacles = sorted(scene.dynamic_obstacles, key=lambda o: o[1])
    active: set[LatticeCoord] = set()
    w_active, n_active = scene.workspace, 0
    trace = [scene.end_effector]
    regrounds = detours = tick = pos = 0
    grasped = released = False
    current_target = scene.target
    phase = "approach"

    def result(mode: str | None) -> EpisodeResult:
        """The episode so far, failed with `mode`, or successful when mode is None."""
        return EpisodeResult(
            outcome=EpisodeOutcome(success=mode is None, failure_mode=mode, regrounds=regrounds, detours=detours),
            trace=Trajectory(points=tuple(trace)), grasped=grasped, released=released, ticks=tick,
        )

    def active_workspace() -> Workspace:
        """Scene workspace plus the activated obstacles, rebuilt only when `active` grows."""
        nonlocal w_active, n_active
        if n_active != len(active):
            n_active = len(active)
            w_active = with_activated(scene.workspace, active)
        return w_active

    def live_drop() -> LatticeCoord:
        return scene.drop_cell if scene.container is not None else current_target

    def apply_detour(cell: LatticeCoord) -> Generator[PlanRequest, Trajectory, bool]:
        """Local bypass around an activated obstacle, each candidate a plan request; False means occlusion."""
        nonlocal detours
        # (leg, index reached) for each part of the route not yet executed
        remaining = {"approach": [(leg_a, pos), (leg_t, 0)], "engage": [(leg_t, 0)],
                     "transport": [(leg_t, pos)]}
        for leg, start in remaining.get(phase, []):
            hits = [j for j in range(start + 1, len(leg)) if leg[j] == cell]
            if not hits:
                continue
            j = hits[0]
            if leg[j - 1] in active:
                return False
            w = active_workspace()
            for k in range(j + 1, len(leg)):
                if leg[k] in active:
                    continue
                try:
                    bypass = yield leg[j - 1], leg[k], w
                except UnreachableGoalError:
                    continue
                extra = (len(bypass) - 1) - (k - (j - 1))
                if bypass.points[-1] == leg[k] and extra <= 2:
                    leg[j - 1 : k + 1] = list(bypass.points)
                    detours += 1
                    return True
            return False
        return True  # obstacle does not cross the remaining route

    try:
        leg_a = list((yield scene.end_effector, current_target, scene.workspace).points)
        leg_t = list((yield leg_a[-1], live_drop(), scene.workspace).points)
    except UnreachableGoalError:
        return result("occlusion_cluster")

    while phase != "done":
        if tick > 100000:
            return result("occlusion_cluster")

        # scripted events scheduled for this tick
        while events and events[0].step <= tick:
            ev = events.pop(0)
            if ev.kind == "fail":
                return result(ev.mode)
            # slip: only meaningful before the grasp
            if grasped:
                continue
            if not in_bounds(ev.cell, active_workspace()):
                continue  # rejected, target unchanged
            current_target = ev.cell
            here = trace[-1]
            try:
                leg_a = list((yield here, current_target, active_workspace()).points)
                leg_t = list((yield leg_a[-1], live_drop(), active_workspace()).points)
            except UnreachableGoalError:
                return result("occlusion_cluster")
            pos = 0
            phase = "approach"
            regrounds += 1

        # dynamic obstacles activating now
        while pending_obstacles and pending_obstacles[0][1] <= tick:
            cell, _ = pending_obstacles.pop(0)
            active.add(cell)
            if (cell == current_target and not grasped) or (cell == live_drop() and not released):
                return result("occlusion_cluster")
            if not (yield from apply_detour(cell)):
                return result("occlusion_cluster")

        # one tick of execution
        if phase in ("approach", "transport"):
            leg = leg_a if phase == "approach" else leg_t
            if pos == len(leg) - 1:
                phase = "engage" if phase == "approach" else "release"
                continue  # phase switches consume no tick
            pos += 1
            trace.append(leg[pos])
        elif phase == "engage":
            if trace[-1] != current_target:
                return result("mis_id")
            grasped = True
            phase = "transport"
            pos = 0
        elif phase == "release":
            released = True
            phase = "done"
        tick += 1

    # the loop ends only after the release
    placed = trace[-1] in scene.container if scene.container is not None else trace[-1] == current_target
    return result(None if placed else "mechanical_slip")


# scenarios ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    scene: Scene
    events: tuple[Event, ...] = ()
    tags: tuple[str, ...] = ()
    expected: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "scene": self.scene.to_dict(),
            "events": [e.to_dict() for e in self.events],
            "tags": list(self.tags),
            "expected": self.expected,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        version = d.get("schema_version")
        if version != SCENARIO_SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema_version {version!r}")
        tags = [read_str(t, f"tags[{i}]") for i, t in enumerate(read_list(d.get("tags", []), "tags"))]
        expected = d.get("expected")
        if expected is not None and not isinstance(expected, dict):
            raise ValueError(f"scenario expected must be null or an object, got {expected!r}")
        outcome_fields = [f.name for f in fields(EpisodeOutcome)]
        if unknown := sorted(set(expected or ()) - set(outcome_fields)):
            raise ValueError(f"scenario expected has unknown keys {unknown}; outcome fields are {outcome_fields}")
        return cls(
            name=read_str(d["name"], "name"),
            scene=Scene.from_dict(d["scene"]),
            events=tuple(Event.from_dict(e) for e in read_list(d.get("events", []), "events")),
            tags=tuple(tags),
            expected=expected,
        )


def write_scenarios(path, scenarios: list[Scenario]) -> None:
    write_jsonl(path, (s.to_dict() for s in scenarios))


def read_scenarios(path) -> list[Scenario]:
    """Scenarios of a JSONL file."""
    return read_jsonl(path, Scenario.from_dict)


def check_expectation(scenario: Scenario, outcome: EpisodeOutcome) -> bool:
    """True when every field pinned in scenario.expected matches the outcome."""
    if scenario.expected is None:
        return True
    got = outcome.to_dict()
    return all(got[k] == v for k, v in scenario.expected.items())


def run_scenarios(scenarios: list[Scenario], planner=None,
                  counters: TwinCounters | None = None) -> list[tuple[Scenario, EpisodeResult]]:
    """Every scenario's episode, planned in lock step through planner.plan_batch (the BFS oracle by default)."""
    planner = planner if planner is not None else OraclePlanner()
    results = run_lock_step([episode(s.scene, s.events) for s in scenarios], planner.plan_batch, counters)
    return list(zip(scenarios, results))


def format_outcome_table(results: list[tuple[Scenario, EpisodeResult]]) -> str:
    """Success / grasp / placement percentages plus per-scenario rows."""
    n = len(results)
    successes = sum(1 for _, r in results if r.outcome.success)
    grasps = sum(1 for _, r in results if r.grasped)
    placements = sum(1 for _, r in results if r.outcome.success and r.released)
    lines = [
        f"{'scenarios':<24} {n}",
        f"{'successful executions':<24} {100.0 * successes / n:.1f}%",
        f"{'grasp':<24} {100.0 * grasps / n:.1f}%",
        f"{'placement':<24} {100.0 * placements / n:.1f}%",
        "",
        f"{'name':<32} {'ok':>3} {'mode':>18} {'regrounds':>9} {'detours':>8} {'ticks':>6}",
    ]
    for s, r in results:
        o = r.outcome
        lines.append(
            f"{s.name:<32} {'yes' if o.success else 'no':>3} "
            f"{o.failure_mode or '-':>18} {o.regrounds:>9} {o.detours:>8} {r.ticks:>6}"
        )
    return "\n".join(lines) + "\n"


# bundled scripted pack -----------------------------------------------------------


def _box(x0, x1, y0, y1, z0, z1, obstacles=()) -> Workspace:
    return Workspace(x0, x1, y0, y1, z0, z1, obstacles=frozenset(obstacles))


def default_scenario_pack() -> list[Scenario]:
    """Scripted scenarios covering unperturbed runs, slips, detours, and failures."""
    desk = _box(-3, 3, -3, 3, 0, 4)
    small = _box(-2, 2, -2, 2, 0, 2)
    C = LatticeCoord
    scenarios: list[Scenario] = []

    def add(name, scene, events=(), tags=(), expected=None):
        scenarios.append(
            Scenario(name=name, scene=scene, events=tuple(events), tags=tuple(tags), expected=expected)
        )

    ok_quiet = {"success": True, "failure_mode": None, "regrounds": 0, "detours": 0,
                "replanned_globally": False}

    # unperturbed pick-and-place episodes
    unperturbed = [
        ("unperturbed_corner_to_corner", desk, C(-3, -3, 0), C(0, 0, 0), {C(3, 3, 0)}),
        ("unperturbed_short_hop", desk, C(0, 0, 0), C(1, 0, 0), {C(2, 0, 0)}),
        ("unperturbed_vertical_lift", desk, C(0, 0, 0), C(0, 0, 2), {C(0, 2, 4)}),
        ("unperturbed_degenerate_approach", desk, C(1, 1, 0), C(1, 1, 0), {C(-1, 1, 0)}),
        ("unperturbed_drop_on_target", desk, C(-2, 0, 0), C(2, 0, 0), {C(2, 0, 0)}),
        ("unperturbed_long_diagonal", desk, C(-3, -3, 0), C(3, 3, 4), {C(-3, 3, 0)}),
        ("unperturbed_small_box", small, C(-2, -2, 0), C(2, 2, 2), {C(0, 0, 0)}),
        ("unperturbed_small_box_reverse", small, C(2, 2, 2), C(-2, -2, 0), {C(0, -2, 0)}),
        ("unperturbed_container_region", desk, C(0, -3, 0), C(0, 0, 0), {C(2, 2, 0), C(2, 3, 0), C(3, 2, 0)}),
        ("unperturbed_static_obstacles", _box(-3, 3, -3, 3, 0, 4, {C(1, 0, 0), C(0, 1, 0)}),
         C(-3, 0, 0), C(2, 0, 1), {C(3, 3, 1)}),
        ("unperturbed_grid_a", small, C(-2, 0, 0), C(0, 0, 1), {C(2, 0, 2)}),
        ("unperturbed_grid_b", small, C(0, -2, 0), C(0, 2, 0), {C(-2, 2, 1)}),
        ("unperturbed_grid_c", small, C(1, 1, 1), C(-1, -1, 1), {C(-2, -2, 2)}),
        ("unperturbed_grid_d", desk, C(3, -3, 0), C(-3, 3, 2), {C(0, 0, 4)}),
        ("unperturbed_grid_e", desk, C(2, 2, 3), C(-2, -2, 1), {C(-3, -3, 0)}),
    ]
    for name, w, ee, tgt, cont in unperturbed:
        add(name, Scene(workspace=w, end_effector=ee, target=tgt, container=frozenset(cont)),
            tags=("unperturbed",), expected=dict(ok_quiet))

    # reach-only scenes: no container, success = end on the live target
    add(
        "reach_only_plain",
        Scene(workspace=desk, end_effector=C(-2, -2, 0), target=C(2, 1, 1)),
        tags=("unperturbed", "reach"),
        expected=dict(ok_quiet),
    )
    add(
        "reach_only_with_slip",
        Scene(workspace=desk, end_effector=C(-2, -2, 0), target=C(2, 1, 0)),
        events=[Event(kind="slip", step=2, cell=C(2, -1, 0))],
        tags=("slip", "reach"),
        expected={"success": True, "regrounds": 1, "replanned_globally": False},
    )

    # slip scenarios (the object slid; the twin re-grounds locally)
    add(
        "slip_two_cells_mid_approach",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 3, 0)})),
        events=[Event(kind="slip", step=2, cell=C(2, 2, 0))],
        tags=("slip",),
        expected={"success": True, "failure_mode": None, "regrounds": 1, "detours": 0,
                  "replanned_globally": False},
    )
    add(
        "slip_to_current_cell",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(3, 0, 0), container=frozenset({C(3, 3, 0)})),
        events=[Event(kind="slip", step=1, cell=C(1, 0, 0))],
        tags=("slip",),
        expected={"success": True, "regrounds": 1, "replanned_globally": False},
    )
    add(
        "slip_out_of_bounds_rejected",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 0, 0)})),
        events=[Event(kind="slip", step=1, cell=C(9, 9, 9))],
        tags=("slip",),
        expected={"success": True, "regrounds": 0, "detours": 0, "replanned_globally": False},
    )
    add(
        "slip_twice",
        Scene(workspace=desk, end_effector=C(-3, -3, 0), target=C(0, 0, 0), container=frozenset({C(3, 3, 0)})),
        events=[Event(kind="slip", step=1, cell=C(1, 0, 0)), Event(kind="slip", step=3, cell=C(1, 2, 0))],
        tags=("slip",),
        expected={"success": True, "regrounds": 2, "replanned_globally": False},
    )
    add(
        "slip_after_grasp_ignored",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(1, 0, 0), container=frozenset({C(3, 0, 0)})),
        events=[Event(kind="slip", step=4, cell=C(-3, -3, 0))],
        tags=("slip",),
        expected={"success": True, "regrounds": 0, "replanned_globally": False},
    )
    add(
        "slip_into_walled_pocket",
        Scene(
            workspace=_box(-3, 3, -3, 3, 0, 4,
                           {C(2, 2, 0), C(2, 3, 0), C(3, 2, 0), C(3, 3, 1)}),
            end_effector=C(-3, 0, 0), target=C(0, 0, 0), container=frozenset({C(-3, 3, 0)}),
        ),
        events=[Event(kind="slip", step=1, cell=C(3, 3, 0))],
        tags=("slip",),
        expected={"success": False, "failure_mode": "occlusion_cluster", "replanned_globally": False},
    )

    # dynamic-obstacle scenarios (local detours that rejoin the route)
    add(
        "detour_straight_corridor",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(3, 0, 0), container=frozenset({C(3, 3, 0)}),
              dynamic_obstacles=((C(0, 0, 0), 1),)),
        tags=("detour",),
        expected={"success": True, "failure_mode": None, "detours": 1, "regrounds": 0,
                  "replanned_globally": False},
    )
    add(
        "obstacle_off_path",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(0, 0, 0), container=frozenset({C(2, 0, 0)}),
              dynamic_obstacles=((C(0, 3, 4), 1),)),
        tags=("detour",),
        expected={"success": True, "detours": 0, "regrounds": 0, "replanned_globally": False},
    )
    add(
        "obstacle_behind_effector",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 0, 0)}),
              dynamic_obstacles=((C(-2, 0, 0), 3),)),
        tags=("detour",),
        expected={"success": True, "detours": 0, "regrounds": 0, "replanned_globally": False},
    )
    add(
        "obstacle_on_target_fails",
        Scene(workspace=desk, end_effector=C(-2, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 3, 0)}),
              dynamic_obstacles=((C(2, 0, 0), 1),)),
        tags=("detour",),
        expected={"success": False, "failure_mode": "occlusion_cluster", "replanned_globally": False},
    )
    add(
        "two_obstacles_two_detours",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(3, 0, 0), container=frozenset({C(3, 3, 0)}),
              dynamic_obstacles=((C(-1, 0, 0), 1), (C(1, 0, 0), 4))),
        tags=("detour",),
        expected={"success": True, "detours": 2, "regrounds": 0, "replanned_globally": False},
    )
    add(
        "detour_during_transport",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(1, 0, 0), container=frozenset({C(1, 3, 0)}),
              dynamic_obstacles=((C(1, 2, 0), 3),)),
        tags=("detour",),
        expected={"success": True, "detours": 1, "regrounds": 0, "replanned_globally": False},
    )
    add(
        "obstacle_walls_off_goal",
        Scene(
            workspace=_box(-2, 2, -2, 2, 0, 0,
                           {C(1, -1, 0), C(0, -1, 0), C(-1, -1, 0), C(-1, 0, 0),
                            C(-1, 1, 0), C(0, 1, 0), C(1, 1, 0)}),
            end_effector=C(-2, -2, 0), target=C(0, 0, 0), container=frozenset({C(2, 2, 0)}),
            dynamic_obstacles=((C(1, 0, 0), 0),),
        ),
        tags=("detour",),
        expected={"success": False, "failure_mode": "occlusion_cluster", "replanned_globally": False},
    )

    # combined slip + obstacle recovery
    add(
        "slip_plus_detour",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 3, 0)}),
              dynamic_obstacles=((C(1, 0, 0), 3),)),
        events=[Event(kind="slip", step=1, cell=C(2, 1, 0))],
        tags=("slip", "detour"),
        expected={"success": True, "regrounds": 1, "detours": 1, "replanned_globally": False},
    )
    add(
        "slip_then_blocked_target",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 3, 0)}),
              dynamic_obstacles=((C(2, 1, 0), 4),)),
        events=[Event(kind="slip", step=1, cell=C(2, 1, 0))],
        tags=("slip", "detour"),
        expected={"success": False, "failure_mode": "occlusion_cluster", "replanned_globally": False},
    )

    # scripted failure injections from the taxonomy
    add(
        "no_state_at_start",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 0, 0)})),
        events=[Event(kind="fail", step=0, mode="no_state")],
        tags=("scripted_failure",),
        expected={"success": False, "failure_mode": "no_state", "replanned_globally": False},
    )
    add(
        "mis_id_mid_approach",
        Scene(workspace=desk, end_effector=C(-3, 0, 0), target=C(2, 0, 0), container=frozenset({C(3, 0, 0)})),
        events=[Event(kind="fail", step=2, mode="mis_id")],
        tags=("scripted_failure",),
        expected={"success": False, "failure_mode": "mis_id", "replanned_globally": False},
    )
    add(
        "nested_block_during_transport",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(1, 0, 0), container=frozenset({C(1, 3, 0)})),
        events=[Event(kind="fail", step=3, mode="nested_block")],
        tags=("scripted_failure",),
        expected={"success": False, "failure_mode": "nested_block", "replanned_globally": False},
    )
    add(
        "mechanical_slip_before_release",
        Scene(workspace=desk, end_effector=C(0, 0, 0), target=C(1, 0, 0), container=frozenset({C(2, 0, 0)})),
        events=[Event(kind="fail", step=3, mode="mechanical_slip")],
        tags=("scripted_failure",),
        expected={"success": False, "failure_mode": "mechanical_slip", "replanned_globally": False},
    )

    return scenarios
