"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload has a set-up (run several times; its median is ``setup_s``) and
a timed region (repeated; its median is ``wall_s``). Outputs of same-seed
repetitions must be byte-identical. All inputs come from ``--seed``; the
program only sees the files written here.

Reported times are scaled to reference speed. Before the first and after
every CLI command the benchmark times two fixed probes, a pure-Python BFS and a
loop of small numpy products, and multiplies wall seconds by the probes'
nominal time over their median time in the run. A workload is scaled by the
probes that match its work: the envelope runs no numpy, so only the Python
probe. On a shared host whose speed drifts by tens of percent over minutes
this keeps runs comparable; raw wall seconds and the scale are printed on the
detail line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
from collections import deque
from time import perf_counter

import numpy as np

from checks import (Abort, check_corpus, check_predictions, check_same_bytes, read_outcomes,
                    read_report)

DESK_BOX = (-3, 3, -3, 3, 0, 4)
ENVELOPE_BOX = (-22, 22, -22, 22, 0, 34)
ARCH = ["--embed-dim", "64", "--num-layers", "2", "--num-heads", "4",
        "--optimizer", "adam", "--lr", "3e-3", "--batch-size", "64"]

# Seconds each speed probe takes at reference speed; the constants only set the unit.
PROBE_S = {"python": 0.05, "numpy": 0.05}


def probe_python(n: int = 30) -> None:
    """BFS over an n^3 grid of tuple cells with a dict of parents."""
    start = (0, 0, 0)
    seen = {start: start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            u = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
            if 0 <= u[0] < n and 0 <= u[1] < n and 0 <= u[2] < n and u not in seen:
                seen[u] = p
                queue.append(u)


def probe_numpy(products: int = 2000) -> None:
    """Small matrix products and tanh, the shape of a batch-1 model step."""
    a = np.full((8, 64), 0.01)
    w = np.full((64, 64), 0.01)
    for _ in range(products):
        a = np.tanh(a @ w)


PROBES = {"python": probe_python, "numpy": probe_numpy}


SIZES = {
    "full": {
        "desk_train": {"setups": 2, "count": 2000, "epochs": 3},
        "desk_decode": {"setups": 2, "count": 1000, "epochs": 6, "episodes": 60},
        "envelope_oracle": {"setups": 5, "gen_seed": 0, "gen_count": 2, "episodes": 10},
    },
    "tiny": {
        "desk_train": {"setups": 2, "count": 60, "epochs": 1},
        "desk_decode": {"setups": 2, "count": 60, "epochs": 1, "episodes": 4},
        "envelope_oracle": {"setups": 2, "gen_seed": 0, "gen_count": 1, "episodes": 2},
    },
}


class Context:
    """Run directory, ledger, speed probe samples and the optional tracer for CLI calls."""

    def __init__(self, lp, run_dir: str, ledger, tracer=None):
        self.lp = lp
        self.run_dir = run_dir
        self.ledger = ledger
        self.tracer = tracer
        self.probe_times: list[dict[str, float]] = []

    def path(self, *parts) -> str:
        return os.path.join(self.run_dir, *parts)

    def sample_speed(self) -> None:
        """Time each probe once, with the collector off so heap size cannot matter."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sample = {}
            for name, probe in PROBES.items():
                t0 = perf_counter()
                probe()
                sample[name] = perf_counter() - t0
            self.probe_times.append(sample)
        finally:
            if was_enabled:
                gc.enable()

    def scale(self, probes: tuple[str, ...]) -> float:
        """Factor from this run's wall seconds to seconds at reference speed."""
        nominal = sum(PROBE_S[p] for p in probes)
        return nominal / statistics.median(sum(s[p] for p in probes) for s in self.probe_times)

    def cli(self, *argv) -> float:
        """Run one latticepath command in-process; a nonzero exit aborts the workload.

        Returns wall seconds; the speed probes run before the first command
        and after every command, outside the returned time.
        """
        argv = [str(a) for a in argv]
        main = self.lp.cli.main
        if not self.probe_times:
            self.sample_speed()
        t0 = perf_counter()
        try:
            if self.tracer is None:
                rc = main(argv)
            else:
                self.tracer.install(self.lp)
                try:
                    rc = self.tracer.command(argv, main)
                finally:
                    self.tracer.uninstall()
        except Exception as exc:  # a crash is one failed operation, reported below
            rc = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.sample_speed()
        if not self.ledger.check(rc == 0, f"latticepath {' '.join(argv)} exited with {rc}"):
            raise Abort(argv[0])
        return dt


# seeded scenario files -------------------------------------------------------------


def _cells(box):
    x0, x1, y0, y1, z0, z1 = box
    return [(x, y, z) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1) for z in range(z0, z1 + 1)]


def _in_box(c, box) -> bool:
    return box[0] <= c[0] <= box[1] and box[2] <= c[1] <= box[3] and box[4] <= c[2] <= box[5]


def _l1(a, b) -> int:
    return sum(abs(u - v) for u, v in zip(a, b))


def _offset(rng, c, dist: int, box):
    """A random in-box cell at exactly L1 distance dist from c."""
    while True:
        a = rng.randint(0, dist)
        b = rng.randint(0, dist - a)
        parts = [a, b, dist - a - b]
        rng.shuffle(parts)
        cell = tuple(v + rng.choice((-1, 1)) * d for v, d in zip(c, parts))
        if _in_box(cell, box):
            return cell


def _scenario(name, box, obstacles, ee, target, drop, slip, popup) -> dict:
    """One scenario in the twinsim JSONL schema (version 1)."""
    x0, x1, y0, y1, z0, z1 = box
    return {
        "schema_version": 1,
        "name": name,
        "scene": {
            "workspace": {"x_min": x0, "x_max": x1, "y_min": y0, "y_max": y1, "z_min": z0,
                          "z_max": z1, "resolution_mm": 20.0,
                          "obstacles": [list(c) for c in sorted(obstacles)]},
            "end_effector": list(ee),
            "target": list(target),
            "container": [list(drop)],
            "dynamic_obstacles": [[list(popup[0]), popup[1]]],
        },
        "events": [{"kind": "slip", "step": slip[0], "cell": list(slip[1]), "mode": None}],
        "tags": ["slip", "detour"],
        "expected": None,
    }


def desk_scenarios(seed: int, n: int) -> list[dict]:
    """Desk scenes at 10% static obstacles, one slip and one pop-up obstacle each."""
    rng = random.Random(f"desk-scenes:{seed}")
    cells = _cells(DESK_BOX)
    out = []
    for i in range(n):
        obstacles = set(rng.sample(cells, round(0.1 * len(cells))))
        free = [c for c in cells if c not in obstacles]
        while True:
            ee, target, drop = rng.sample(free, 3)
            if _l1(ee, target) >= 3:
                break
        slip = rng.choice([c for c in free if 1 <= _l1(c, target) <= 2 and c not in (ee, drop)])
        popup = rng.choice([c for c in free if c not in (ee, target, drop, slip)])
        out.append(_scenario(f"desk_{i}", DESK_BOX, obstacles, ee, target, drop,
                             (rng.randint(1, 2), slip), (popup, rng.randint(1, 3))))
    return out


def envelope_scenarios(seed: int, n: int, approach: int = 18, transport: int = 14) -> list[dict]:
    """Full-envelope scenes at 5% static obstacles with fixed approach/transport distances.

    The pop-up obstacle sits on the third cell of the route a canonical BFS
    takes in free space (x moves, then y, then z), which is kept clear, so
    most episodes detour; the slip moves the target two cells.
    """
    cells = _cells(ENVELOPE_BOX)
    out = []
    for i in range(n):
        rng = random.Random(f"envelope-scenes:{seed}:{i}")
        obstacles = set(rng.sample(cells, round(0.05 * len(cells))))
        ee = (rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(12, 22))
        target = _offset(rng, ee, approach, ENVELOPE_BOX)
        drop = _offset(rng, target, transport, ENVELOPE_BOX)
        slip = _offset(rng, target, 2, ENVELOPE_BOX)
        route = [ee]
        for axis in range(3):
            step = 1 if target[axis] > ee[axis] else -1
            while route[-1][axis] != target[axis]:
                nxt = list(route[-1])
                nxt[axis] += step
                route.append(tuple(nxt))
        obstacles.difference_update(route, (drop, slip))
        out.append(_scenario(f"envelope_{i}", ENVELOPE_BOX, obstacles, ee, target, drop,
                             (5, slip), (route[3], 1)))
    return out


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


# workloads ---------------------------------------------------------------------------


class Workload:
    """Set-up, one timed repetition, checks, and metric summary."""

    name = ""
    setup_outputs: tuple[str, ...] = ()  # compared across set-ups
    rep_outputs: tuple[str, ...] = ()    # compared across repetitions
    probes: tuple[str, ...] = ("python", "numpy")  # speed probes matching the workload's work

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def setup(self, ctx: Context, i: int) -> float:
        raise NotImplementedError

    def check_setup(self, ctx: Context, i: int) -> None:
        pass

    def rep(self, ctx: Context, r: int) -> dict:
        raise NotImplementedError

    def check_rep(self, ctx: Context, r: int) -> dict:
        raise NotImplementedError

    def summarize(self, reps: list[dict], quality: dict, scale: float) -> tuple[dict, dict]:
        """End-to-end values at reference speed, and per-stage detail figures."""
        raise NotImplementedError

    def _corpus_sizes(self, count: int) -> tuple[int, int]:
        n_train = int(count * 0.8)
        return n_train, count - n_train


def _median(reps: list[dict], key: str, scale: float = 1.0) -> float:
    return scale * statistics.median(r[key] for r in reps)


class DeskTrain(Workload):
    name = "desk_train"
    setup_outputs = ("corpus/corpus_train.jsonl", "corpus/corpus_validation.jsonl")
    rep_outputs = ("model/model.npz", "greedy/predictions.jsonl", "eval_greedy/report.json")

    def setup(self, ctx, i):
        return ctx.cli("gen", "--out", ctx.path(f"setup{i}", "corpus"), "--seed", self.seed,
                       "--count", self.size["count"])

    def check_setup(self, ctx, i):
        n_train, n_val = self._corpus_sizes(self.size["count"])
        check_corpus(ctx.ledger, ctx.lp, ctx.path(f"setup{i}", "corpus", "corpus_train.jsonl"), n_train, 32)
        check_corpus(ctx.ledger, ctx.lp, ctx.path(f"setup{i}", "corpus", "corpus_validation.jsonl"), n_val, 32)

    def rep(self, ctx, r):
        corpus = ctx.path("setup0", "corpus")
        out = ctx.path(f"rep{r}")
        t = {"train": ctx.cli("train", "--corpus", os.path.join(corpus, "corpus_train.jsonl"),
                              "--out", os.path.join(out, "model"), "--seed", self.seed,
                              "--epochs", self.size["epochs"], *ARCH)}
        t["greedy"] = ctx.cli("decode", "--checkpoint", os.path.join(out, "model", "model.npz"),
                              "--records", os.path.join(corpus, "corpus_validation.jsonl"),
                              "--out", os.path.join(out, "greedy"), "--seed", self.seed)
        t["eval"] = ctx.cli("eval", "--pred", os.path.join(out, "greedy", "predictions.jsonl"),
                            "--gold", os.path.join(corpus, "corpus_validation.jsonl"),
                            "--out", os.path.join(out, "eval_greedy"))
        return t

    def check_rep(self, ctx, r):
        gold = ctx.path("setup0", "corpus", "corpus_validation.jsonl")
        check_predictions(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", "greedy", "predictions.jsonl"), gold)
        _, n_val = self._corpus_sizes(self.size["count"])
        report = read_report(ctx.ledger, ctx.path(f"rep{r}", "eval_greedy", "report.json"), n_val)
        return {"stepwise": report["stepwise_accuracy"], "f1": report["f1"]}

    def summarize(self, reps, quality, scale):
        n_train, n_val = self._corpus_sizes(self.size["count"])
        train_rate = self.size["epochs"] * n_train / _median(reps, "train", scale)
        e2e = {"records_per_s": (train_rate, "1/s"), "output_quality": (quality["f1"], "ratio")}
        detail = {"train_records_per_s": train_rate,
                  "greedy_records_per_s": n_val / _median(reps, "greedy", scale),
                  "heldout_stepwise_accuracy": quality["stepwise"], "heldout_f1": quality["f1"]}
        return e2e, detail


class DeskDecode(Workload):
    name = "desk_decode"
    setup_outputs = ("corpus/corpus_train.jsonl", "corpus/corpus_validation.jsonl",
                     "model/model.npz", "scenes.jsonl")
    rep_outputs = ("greedy/predictions.jsonl", "eval_greedy/report.json",
                   "beam/predictions.jsonl", "eval_beam/report.json", "sim/outcomes.jsonl")

    def setup(self, ctx, i):
        d = ctx.path(f"setup{i}")
        t = ctx.cli("gen", "--out", os.path.join(d, "corpus"), "--seed", self.seed,
                    "--count", self.size["count"], "--obstacle-density", "0.1")
        t += ctx.cli("train", "--corpus", os.path.join(d, "corpus", "corpus_train.jsonl"),
                     "--out", os.path.join(d, "model"), "--seed", self.seed,
                     "--epochs", self.size["epochs"], *ARCH)
        t0 = perf_counter()
        write_jsonl(os.path.join(d, "scenes.jsonl"), desk_scenarios(self.seed, self.size["episodes"]))
        return t + perf_counter() - t0

    check_setup = DeskTrain.check_setup

    def rep(self, ctx, r):
        s = ctx.path("setup0")
        out = ctx.path(f"rep{r}")
        model = os.path.join(s, "model", "model.npz")
        gold = os.path.join(s, "corpus", "corpus_validation.jsonl")
        t = {}
        for mode in ("greedy", "beam"):
            t[mode] = ctx.cli("decode", "--checkpoint", model, "--records", gold,
                              "--out", os.path.join(out, mode), "--seed", self.seed,
                              "--mode", mode, "--beam-width", "5")
            t[f"eval_{mode}"] = ctx.cli("eval", "--pred", os.path.join(out, mode, "predictions.jsonl"),
                                        "--gold", gold, "--out", os.path.join(out, f"eval_{mode}"))
        t["sim"] = ctx.cli("sim", "--checkpoint", model, "--scenarios", os.path.join(s, "scenes.jsonl"),
                           "--out", os.path.join(out, "sim"), "--seed", self.seed)
        return t

    def check_rep(self, ctx, r):
        gold = ctx.path("setup0", "corpus", "corpus_validation.jsonl")
        _, n_val = self._corpus_sizes(self.size["count"])
        q = {}
        for mode in ("greedy", "beam"):
            check_predictions(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", mode, "predictions.jsonl"), gold)
            report = read_report(ctx.ledger, ctx.path(f"rep{r}", f"eval_{mode}", "report.json"), n_val)
            q[f"{mode}_stepwise"] = report["stepwise_accuracy"]
            q[f"{mode}_f1"] = report["f1"]
        rows = read_outcomes(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", "sim", "outcomes.jsonl"),
                             ctx.path("setup0", "scenes.jsonl"), oracle=False)
        q["twin_success_frac"] = sum(row["outcome"]["success"] for row in rows) / len(rows)
        return q

    def summarize(self, reps, quality, scale):
        _, n_val = self._corpus_sizes(self.size["count"])
        beam_rate = n_val / _median(reps, "beam", scale)
        e2e = {"records_per_s": (beam_rate, "1/s"), "output_quality": (quality["greedy_f1"], "ratio")}
        detail = {"greedy_records_per_s": n_val / _median(reps, "greedy", scale),
                  "beam_records_per_s": beam_rate,
                  "twin_episodes_per_s": self.size["episodes"] / _median(reps, "sim", scale),
                  "twin_success_frac": quality["twin_success_frac"],
                  "heldout_stepwise_accuracy": quality["greedy_stepwise"],
                  "heldout_f1": quality["greedy_f1"],
                  "beam_heldout_stepwise_accuracy": quality["beam_stepwise"],
                  "beam_heldout_f1": quality["beam_f1"]}
        return e2e, detail


class EnvelopeOracle(Workload):
    name = "envelope_oracle"
    probes = ("python",)
    setup_outputs = ("scenes.jsonl",)
    rep_outputs = ("corpus/corpus_train.jsonl", "corpus/corpus_validation.jsonl", "sim/outcomes.jsonl")

    def setup(self, ctx, i):
        t0 = perf_counter()
        os.makedirs(ctx.path(f"setup{i}"), exist_ok=True)
        write_jsonl(ctx.path(f"setup{i}", "scenes.jsonl"),
                    envelope_scenarios(self.seed, self.size["episodes"]))
        return perf_counter() - t0

    def rep(self, ctx, r):
        out = ctx.path(f"rep{r}")
        x0, x1, y0, y1, z0, z1 = ENVELOPE_BOX
        t = {"gen": ctx.cli("gen", "--out", os.path.join(out, "corpus"), "--seed", self.size["gen_seed"],
                            "--count", self.size["gen_count"], "--box", x0, x1, y0, y1, z0, z1,
                            "--obstacle-density", "0.05", "--max-path-length", "32")}
        t["sim"] = ctx.cli("sim", "--scenarios", ctx.path("setup0", "scenes.jsonl"),
                           "--out", os.path.join(out, "sim"), "--seed", self.seed)
        return t

    def check_rep(self, ctx, r):
        n_train, n_val = self._corpus_sizes(self.size["gen_count"])
        check_corpus(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", "corpus", "corpus_train.jsonl"), n_train, 32)
        check_corpus(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", "corpus", "corpus_validation.jsonl"), n_val, 32)
        rows = read_outcomes(ctx.ledger, ctx.lp, ctx.path(f"rep{r}", "sim", "outcomes.jsonl"),
                             ctx.path("setup0", "scenes.jsonl"), oracle=True)
        return {"twin_success_frac": sum(row["outcome"]["success"] for row in rows) / len(rows)}

    def summarize(self, reps, quality, scale):
        oracle_rate = self.size["gen_count"] / _median(reps, "gen", scale)
        e2e = {"records_per_s": (oracle_rate, "1/s"),
               "output_quality": (quality["twin_success_frac"], "ratio")}
        detail = {"oracle_records_per_s": oracle_rate,
                  "twin_episodes_per_s": self.size["episodes"] / _median(reps, "sim", scale),
                  "twin_success_frac": quality["twin_success_frac"]}
        return e2e, detail


WORKLOADS = {w.name: w for w in (DeskTrain, DeskDecode, EnvelopeOracle)}


def run_reps(wl: Workload, ctx: Context, seconds: float, max_reps: int = 10) -> list[dict]:
    """Timed repetitions until `seconds` of timed work, at least two; each is checked."""
    reps = []
    while len(reps) < 2 or (sum(r["wall"] for r in reps) < seconds and len(reps) < max_reps):
        reps.append(timed_rep(wl, ctx, len(reps)))
    return reps


def timed_rep(wl: Workload, ctx: Context, r: int) -> dict:
    """Stage seconds of one repetition; its wall time is their sum, speed probes excluded."""
    times = wl.rep(ctx, r)
    times["wall"] = sum(times.values())
    times["quality"] = wl.check_rep(ctx, r)
    return times


def compare_outputs(wl: Workload, ctx: Context, n_setups: int, n_reps: int) -> None:
    for rel in wl.setup_outputs if n_setups > 1 else ():
        check_same_bytes(ctx.ledger, f"setup {rel}", [ctx.path(f"setup{i}", rel) for i in range(n_setups)])
    for rel in wl.rep_outputs:
        check_same_bytes(ctx.ledger, rel, [ctx.path(f"rep{r}", rel) for r in range(n_reps)])
