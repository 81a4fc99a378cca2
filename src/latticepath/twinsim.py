"""Desk-scale digital-twin episode simulator on the lattice.

A Scene mirrors the tracked world state: workspace, end-effector cell,
target cell, an optional container region, and dynamic obstacles that
activate at scripted ticks. Episodes compile planner paths into the four
primitive phases (approach, engage, transport, release) and execute them one
lattice move per tick while scripted events perturb the run:

* slip: the target moves; the remaining approach is re-grounded from the
  current end-effector cell without touching the executed prefix and
  without any global re-plan. Slips after the grasp, or to out-of-bounds
  cells, are ignored.
* dynamic obstacle: if the remaining route crosses the activated cell, a
  minimal local bypass (at most two extra cells) rejoins the original route
  at the earliest shared cell; otherwise the episode fails as an
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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import Trajectory, UnreachableGoalError, oracle_path, read_jsonl, write_jsonl
from .decoder import DecodeConfig, decode
from .lattice import LatticeCoord, Workspace, in_bounds, manhattan
from .taskgrid import TaskContext, build_context, reach_only_graph

PHASE_KINDS = ("approach", "engage", "transport", "release")

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
            for c in self.container:
                if not in_bounds(c, self.workspace):
                    raise ValueError(f"container cell {c} is out of bounds")
        obstacles = tuple((c, int(step)) for c, step in self.dynamic_obstacles)
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
        return cls(
            workspace=Workspace.from_dict(d["workspace"]),
            end_effector=LatticeCoord(*map(int, d["end_effector"])),
            target=LatticeCoord(*map(int, d["target"])),
            container=(
                frozenset(LatticeCoord(*map(int, c)) for c in d["container"])
                if d.get("container") is not None
                else None
            ),
            dynamic_obstacles=tuple(
                (LatticeCoord(*map(int, c)), int(step)) for c, step in d.get("dynamic_obstacles", [])
            ),
        )


@dataclass(frozen=True)
class PrimitivePlan:
    phases: tuple[tuple[str, Trajectory], ...]

    def __post_init__(self) -> None:
        for kind, sub in self.phases:
            if kind not in PHASE_KINDS:
                raise ValueError(f"unknown phase kind {kind!r}")
            if kind in ("engage", "release") and len(sub) != 1:
                raise ValueError(f"{kind} sub-path must have length 1")

    def waypoints(self) -> Trajectory:
        """Concatenated motion path with shared phase junctions deduplicated."""
        pts: list[LatticeCoord] = []
        for _, sub in self.phases:
            for p in sub.points:
                if not pts or p != pts[-1]:
                    pts.append(p)
        return Trajectory(points=tuple(pts))


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
        return {
            "success": self.success,
            "failure_mode": self.failure_mode,
            "regrounds": self.regrounds,
            "detours": self.detours,
            "replanned_globally": self.replanned_globally,
        }


@dataclass(frozen=True)
class Event:
    """One scripted perturbation: kind 'slip' (cell = new target) or 'fail' (mode)."""

    kind: str
    step: int
    cell: LatticeCoord | None = None
    mode: str | None = None

    def __post_init__(self) -> None:
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
            kind=str(d["kind"]),
            step=int(d["step"]),
            cell=LatticeCoord(*map(int, d["cell"])) if d.get("cell") is not None else None,
            mode=d.get("mode"),
        )


def compile_primitives(path_to_target: Trajectory, path_to_container: Trajectory) -> PrimitivePlan:
    """Four-phase plan from an approach path and a transport path.

    The transport must start where the approach ends (the grasp cell);
    anything else is a junction discontinuity and an error.
    """
    if path_to_container.start != path_to_target.end:
        raise ValueError(
            f"phase discontinuity: transport starts at {path_to_container.start}, "
            f"approach ends at {path_to_target.end}"
        )
    target = path_to_target.end
    drop = path_to_container.end
    return PrimitivePlan(
        phases=(
            ("approach", path_to_target),
            ("engage", Trajectory(points=(target,))),
            ("transport", path_to_container),
            ("release", Trajectory(points=(drop,))),
        )
    )


def inject_slip(scene: Scene, new_target: LatticeCoord) -> Scene:
    """Scene with the target moved; out-of-bounds slips are rejected unchanged."""
    if not in_bounds(new_target, scene.workspace):
        return scene
    return replace(scene, target=new_target)


def inject_dynamic_obstacle(scene: Scene, cell: LatticeCoord, step: int) -> Scene:
    """Scene with one more scripted obstacle activation."""
    if not scene.workspace._in_box(cell):
        raise ValueError(f"dynamic obstacle {cell} is outside the workspace box")
    return replace(scene, dynamic_obstacles=scene.dynamic_obstacles + ((cell, step),))


class OraclePlanner:
    """BFS shortest paths; the planner used by the scripted scenario suite."""

    def plan(self, start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
        return oracle_path(start, goal, w)


class ModelPlanner:
    """Plans by constrained decoding from a trained model."""

    def __init__(self, model, decode_cfg: DecodeConfig):
        self.model = model
        self.decode_cfg = decode_cfg

    def _context(self, goal: LatticeCoord, hint: int) -> TaskContext:
        return build_context(reach_only_graph(), 0, sequence_length_hint=hint, target=goal)

    def plan(self, start: LatticeCoord, goal: LatticeCoord, w: Workspace) -> Trajectory:
        hint = manhattan(start, goal) + 1
        d = decode(self.model, start, self._context(goal, hint), w, self.decode_cfg)
        return d.trajectory


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome plus the executed motion trace and phase completion flags."""

    outcome: EpisodeOutcome
    trace: Trajectory
    grasped: bool
    released: bool
    ticks: int


def run_episode(scene: Scene, planner, event_script: tuple[Event, ...] = ()) -> EpisodeOutcome:
    return run_episode_detailed(scene, planner, event_script).outcome


def run_episode_detailed(scene: Scene, planner, event_script: tuple[Event, ...] = ()) -> EpisodeResult:
    """Tick-by-tick execution; see the module docstring for event semantics."""
    events = sorted(event_script, key=lambda e: e.step)
    pending_obstacles = sorted(scene.dynamic_obstacles, key=lambda o: o[1])
    active: set[LatticeCoord] = set()
    trace = [scene.end_effector]
    state = {"regrounds": 0, "detours": 0, "grasped": False, "released": False}
    tick = 0
    current_target = scene.target
    pos = 0
    phase = "approach"

    def fail(mode: str) -> EpisodeResult:
        return EpisodeResult(
            outcome=EpisodeOutcome(
                success=False, failure_mode=mode,
                regrounds=state["regrounds"], detours=state["detours"],
                replanned_globally=False,
            ),
            trace=Trajectory(points=tuple(trace)),
            grasped=state["grasped"], released=state["released"], ticks=tick,
        )

    live = {"n_active": 0, "workspace": scene.workspace}

    def active_workspace() -> Workspace:
        """Scene workspace plus the activated obstacles, rebuilt only when `active` grows."""
        if live["n_active"] != len(active):
            live["n_active"] = len(active)
            live["workspace"] = scene.workspace.with_obstacles(scene.workspace.obstacles | active)
        return live["workspace"]

    def live_drop() -> LatticeCoord:
        return scene.drop_cell if scene.container is not None else current_target

    def remaining_legs():
        """(leg list, current index) pairs covering the not-yet-executed route."""
        if phase == "approach":
            return [(leg_a, pos), (leg_t, 0)]
        if phase in ("engage", "transport"):
            return [(leg_t, pos if phase == "transport" else 0)]
        return []

    def apply_detour(cell: LatticeCoord) -> bool:
        """Local bypass around an activated obstacle; False means occlusion."""
        for leg, start in remaining_legs():
            hits = [j for j in range(start + 1, len(leg)) if leg[j] == cell]
            if not hits:
                continue
            j = hits[0]
            if leg[j - 1] in active:
                return False
            w_active = active_workspace()
            for k in range(j + 1, len(leg)):
                if leg[k] in active:
                    continue
                try:
                    bypass = oracle_path(leg[j - 1], leg[k], w_active)
                except UnreachableGoalError:
                    continue
                extra = (len(bypass) - 1) - (k - (j - 1))
                if extra <= 2:
                    leg[j - 1 : k + 1] = list(bypass.points)
                    state["detours"] += 1
                    return True
            return False
        return True  # obstacle does not cross the remaining route

    try:
        leg_a = list(planner.plan(scene.end_effector, current_target, scene.workspace).points)
        leg_t = list(planner.plan(leg_a[-1], live_drop(), scene.workspace).points)
    except UnreachableGoalError:
        return fail("occlusion_cluster")

    while phase != "done":
        if tick > 100000:
            return fail("occlusion_cluster")

        # scripted events scheduled for this tick
        while events and events[0].step <= tick:
            ev = events.pop(0)
            if ev.step < tick:
                continue
            if ev.kind == "fail":
                return fail(ev.mode)
            # slip: only meaningful before the grasp
            if state["grasped"]:
                continue
            if not in_bounds(ev.cell, active_workspace()):
                continue  # rejected, target unchanged
            current_target = ev.cell
            here = trace[-1]
            try:
                leg_a = list(planner.plan(here, current_target, active_workspace()).points)
                leg_t = list(planner.plan(leg_a[-1], live_drop(), active_workspace()).points)
            except UnreachableGoalError:
                return fail("occlusion_cluster")
            pos = 0
            phase = "approach"
            state["regrounds"] += 1

        # dynamic obstacles activating now
        while pending_obstacles and pending_obstacles[0][1] <= tick:
            cell, _ = pending_obstacles.pop(0)
            active.add(cell)
            if cell == current_target and not state["grasped"]:
                return fail("occlusion_cluster")
            if cell == live_drop() and not state["released"]:
                return fail("occlusion_cluster")
            if not apply_detour(cell):
                return fail("occlusion_cluster")

        # one tick of execution
        if phase == "approach":
            if pos == len(leg_a) - 1:
                phase = "engage"
                continue  # phase switches consume no tick
            pos += 1
            trace.append(leg_a[pos])
        elif phase == "engage":
            if trace[-1] != current_target:
                return fail("mis_id")
            state["grasped"] = True
            phase = "transport"
            pos = 0
        elif phase == "transport":
            if pos == len(leg_t) - 1:
                phase = "release"
                continue
            pos += 1
            trace.append(leg_t[pos])
        elif phase == "release":
            state["released"] = True
            phase = "done"
        tick += 1

    end = trace[-1]
    if scene.container is not None:
        placed = end in scene.container
    else:
        placed = end == current_target
    success = bool(state["released"] and placed)
    outcome = EpisodeOutcome(
        success=success,
        failure_mode=None if success else "mechanical_slip",
        regrounds=state["regrounds"],
        detours=state["detours"],
        replanned_globally=False,
    )
    return EpisodeResult(
        outcome=outcome,
        trace=Trajectory(points=tuple(trace)),
        grasped=state["grasped"],
        released=state["released"],
        ticks=tick,
    )


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
        return cls(
            name=str(d["name"]),
            scene=Scene.from_dict(d["scene"]),
            events=tuple(Event.from_dict(e) for e in d.get("events", [])),
            tags=tuple(d.get("tags", [])),
            expected=d.get("expected"),
        )


def write_scenarios(path, scenarios: list[Scenario]) -> None:
    write_jsonl(path, (s.to_dict() for s in scenarios))


def read_scenarios(path) -> list[Scenario]:
    return read_jsonl(path, Scenario.from_dict)


def check_expectation(scenario: Scenario, outcome: EpisodeOutcome) -> bool:
    """True when every field pinned in scenario.expected matches the outcome."""
    if scenario.expected is None:
        return True
    got = outcome.to_dict()
    return all(got[k] == v for k, v in scenario.expected.items())


def run_scenarios(scenarios: list[Scenario], planner=None) -> list[tuple[Scenario, EpisodeResult]]:
    planner = planner if planner is not None else OraclePlanner()
    return [(s, run_episode_detailed(s.scene, planner, s.events)) for s in scenarios]


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
