"""The twin's episode loop as it ran before lock-step planning: one plan call at a time.

latticepath.twinsim runs every episode as a generator that yields its plan
requests, and run_scenarios answers the pending requests of all episodes
with one plan_batch call. This module keeps the plain loop, which calls
planner.plan for each leg as the episode reaches it, as the oracle the
lock-step driver is tested against.
"""

from latticepath.corpus import Trajectory, UnreachableGoalError, oracle_path
from latticepath.lattice import LatticeCoord, Workspace, in_bounds
from latticepath.twinsim import EpisodeOutcome, EpisodeResult, Event, Scene, with_activated


def run_episode_detailed(scene: Scene, planner, event_script: tuple[Event, ...] = ()) -> EpisodeResult:
    """Tick-by-tick execution, one planner.plan call per leg."""
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
        return EpisodeResult(
            outcome=EpisodeOutcome(success=mode is None, failure_mode=mode, regrounds=regrounds, detours=detours),
            trace=Trajectory(points=tuple(trace)), grasped=grasped, released=released, ticks=tick,
        )

    def active_workspace() -> Workspace:
        nonlocal w_active, n_active
        if n_active != len(active):
            n_active = len(active)
            w_active = with_activated(scene.workspace, active)
        return w_active

    def live_drop() -> LatticeCoord:
        return scene.drop_cell if scene.container is not None else current_target

    def apply_detour(cell: LatticeCoord) -> bool:
        nonlocal detours
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
                    bypass = oracle_path(leg[j - 1], leg[k], w)
                except UnreachableGoalError:
                    continue
                extra = (len(bypass) - 1) - (k - (j - 1))
                if extra <= 2:
                    leg[j - 1 : k + 1] = list(bypass.points)
                    detours += 1
                    return True
            return False
        return True

    try:
        leg_a = list(planner.plan(scene.end_effector, current_target, scene.workspace).points)
        leg_t = list(planner.plan(leg_a[-1], live_drop(), scene.workspace).points)
    except UnreachableGoalError:
        return result("occlusion_cluster")

    while phase != "done":
        if tick > 100000:
            return result("occlusion_cluster")

        while events and events[0].step <= tick:
            ev = events.pop(0)
            if ev.kind == "fail":
                return result(ev.mode)
            if grasped:
                continue
            if not in_bounds(ev.cell, active_workspace()):
                continue
            current_target = ev.cell
            here = trace[-1]
            try:
                leg_a = list(planner.plan(here, current_target, active_workspace()).points)
                leg_t = list(planner.plan(leg_a[-1], live_drop(), active_workspace()).points)
            except UnreachableGoalError:
                return result("occlusion_cluster")
            pos = 0
            phase = "approach"
            regrounds += 1

        while pending_obstacles and pending_obstacles[0][1] <= tick:
            cell, _ = pending_obstacles.pop(0)
            active.add(cell)
            if (cell == current_target and not grasped) or (cell == live_drop() and not released):
                return result("occlusion_cluster")
            if not apply_detour(cell):
                return result("occlusion_cluster")

        if phase in ("approach", "transport"):
            leg = leg_a if phase == "approach" else leg_t
            if pos == len(leg) - 1:
                phase = "engage" if phase == "approach" else "release"
                continue
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

    placed = trace[-1] in scene.container if scene.container is not None else trace[-1] == current_target
    return result(None if placed else "mechanical_slip")
