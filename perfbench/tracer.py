"""In-memory span tracer installed around latticepath's public functions.

Wrappers are set at the name each caller looks the function up by (a module
global such as ``latticepath.corpus.oracle_path``, or a class attribute such
as ``Tensor.__matmul__``), so nothing under ``src/`` changes. Two kinds of
wrapper exist:

* span wrappers push a frame, record one span (id, parent id, trace id, name,
  start, end) and keep the duration for percentiles;
* leaf wrappers, used for functions called millions of times (BFS neighbor
  expansion, autodiff ops), only add their duration to per-name totals and to
  the enclosing frame's child time, so memory stays flat.

Self time is a call's duration minus the time of the wrapped calls inside it.
One trace id covers one CLI command. Everything runs on the caller's thread.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

# (module or class path, attribute, span name, leaf?)
INSTALL_POINTS = (
    ("corpus", "neighbors", "lattice.neighbors", True),
    ("model", "legal_moves", "lattice.legal_moves", True),
    ("corpus", "build_context", "taskgrid.build_context", True),
    ("twinsim", "build_context", "taskgrid.build_context", True),
    ("cli", "generate_corpus", "corpus.generate_corpus", False),
    ("corpus", "oracle_path", "corpus.oracle_path", False),
    ("twinsim", "oracle_path", "corpus.oracle_path", False),
    ("cli", "read_records", "corpus.read_records", False),
    ("corpus", "record_to_dict", "corpus.record_to_dict", True),
    ("autodiff.Tensor", "backward", "autodiff.backward", True),
    ("autodiff.Tensor", "__matmul__", "autodiff.matmul", True),
    ("autodiff.Tensor", "gelu", "autodiff.gelu", True),
    ("autodiff.Tensor", "__getitem__", "autodiff.getitem", True),
    ("autodiff", "softmax", "autodiff.softmax", True),
    ("autodiff", "log_softmax", "autodiff.log_softmax", True),
    ("autodiff", "layer_norm", "autodiff.layer_norm", True),
    ("cli", "fit", "model.fit", False),
    ("model", "make_loss_batch", "model.make_loss_batch", False),
    ("model", "train_step", "model.train_step", False),
    ("model.PathModel", "forward_batch", "model.forward_batch", False),
    ("model", "composite_loss", "model.composite_loss", False),
    ("model.Optimizer", "step", "model.optimizer_step", False),
    ("model.PathModel", "forward", "model.forward", False),
    ("cli", "save_checkpoint", "checkpoint.save_checkpoint", False),
    ("cli", "load_checkpoint", "checkpoint.load_checkpoint", False),
    ("cli", "decode_records", "decoder.decode_records", False),
    ("decoder", "decode_greedy", "decoder.decode_greedy", False),
    ("decoder", "decode_beam", "decoder.decode_beam", False),
    ("decoder", "masked_softmax", "decoder.masked_softmax", True),
    ("cli", "evaluate_records", "evaluator.evaluate_records", False),
    ("cli", "read_scenarios", "twinsim.read_scenarios", False),
    ("cli", "run_scenarios", "twinsim.run_scenarios", False),
    ("twinsim", "run_episode_detailed", "twinsim.run_episode_detailed", False),
    ("twinsim.OraclePlanner", "plan", "twinsim.plan", False),
    ("twinsim.ModelPlanner", "plan", "twinsim.plan", False),
)

CLI_COMMANDS = ("gen", "train", "decode", "eval", "sim")

# Functions whose latency distribution is reported (.ms_p50, .ms_tail, .tail_pct).
TIMED = (
    "corpus.oracle_path",
    "model.train_step",
    "model.forward",
    "decoder.decode_greedy",
    "decoder.decode_beam",
    "twinsim.run_episode_detailed",
)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, trace id, name, start, end)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.self_by_parent: defaultdict = defaultdict(float)  # (name, parent name) -> s
        self.durations: defaultdict = defaultdict(list)
        self.counters: Counter = Counter()
        self.active: Counter = Counter()
        self.trace_id = 0
        self._stack = [[0, 0.0, None]]  # frames: [span id, child seconds, name]
        self._next_id = 1
        self._saved: list[tuple] = []

    # installation ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every install point; uninstall() restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name, leaf in INSTALL_POINTS:
            owner = _resolve(package, owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrapper = self._leaf(name, original) if leaf else self._span(name, original)
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # wrappers ------------------------------------------------------------------

    def _leaf(self, name, fn):
        stack = self._stack
        calls = self.calls
        total = self.total_s
        own = self.self_s

        def leaf(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = stack[-1]
                parent[1] += dt
                calls[name] += 1
                total[name] += dt
                own[name] += dt

        return leaf

    def _span(self, name, fn):
        note = _NOTES.get(name)

        def span(*args, **kwargs):
            return self._run(name, fn, args, kwargs, note)

        return span

    def _run(self, name, fn, args, kwargs, note=None):
        stack = self._stack
        parent = stack[-1]
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        stack.append(frame)
        self.active[name] += 1
        result = error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            self.active[name] -= 1
            dt = t1 - t0
            parent[1] += dt
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]
            self.self_by_parent[name, parent[2]] += dt - frame[1]
            self.durations[name].append(dt)
            self.spans.append((frame[0], parent[0], self.trace_id, name, t0, t1))
            if note is not None:
                note(self, args, result, error)

    def command(self, argv: list[str], main):
        """Run one CLI command as the root span of a new trace."""
        self.trace_id += 1
        return self._run(f"cli.{argv[0]}", main, (argv,), {})

    # output --------------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of leaf totals."""
        epoch = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, trace, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "trace": trace, "name": name,
                                    "start": t0 - epoch, "end": t1 - epoch}) + "\n")
            f.write(json.dumps({"totals": {n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                                           for n in sorted(self.calls)},
                                "counters": dict(sorted(self.counters.items()))}) + "\n")


# notes: seed-determined counts read from arguments and results ---------------------


def _note_oracle_path(tr, args, result, error):
    if type(error).__name__ == "UnreachableGoalError":
        tr.counters["corpus.oracle_path.unreachable"] += 1
    if tr.active["corpus.generate_corpus"]:
        tr.counters["corpus.oracle_path.in_gen"] += 1


def _note_generate_corpus(tr, args, result, error):
    if result is not None:
        tr.counters["corpus.records_generated"] += len(result)


def _note_forward(tr, args, result, error):
    tr.counters["model.forward.prefix_len_sum"] += len(args[1])
    if tr.active["decoder.decode_records"]:
        mode = "beam" if tr.active["decoder.decode_beam"] else "greedy"
        tr.counters[f"decoder.steps.{mode}"] += 1


def _note_decode(mode):
    def note(tr, args, result, error):
        if mode == "greedy" and tr.active["decoder.decode_beam"]:
            return  # the beam's greedy floor is part of the beam decode
        if result is not None:
            tr.counters[f"decoder.terminated.{result.terminated_by}"] += 1
        if tr.active["decoder.decode_records"]:
            tr.counters[f"decoder.records.{mode}"] += 1
    return note


def _note_episode(tr, args, result, error):
    if result is not None:
        tr.counters["twinsim.ticks"] += result.ticks
        tr.counters["twinsim.regrounds"] += result.outcome.regrounds
        tr.counters["twinsim.detours"] += result.outcome.detours


def _note_save(tr, args, result, error):
    if error is None:
        tr.counters["checkpoint.saves"] += 1
        tr.counters["checkpoint.bytes"] += os.path.getsize(args[0])


_NOTES = {
    "corpus.oracle_path": _note_oracle_path,
    "corpus.generate_corpus": _note_generate_corpus,
    "model.forward": _note_forward,
    "decoder.decode_greedy": _note_decode("greedy"),
    "decoder.decode_beam": _note_decode("beam"),
    "twinsim.run_episode_detailed": _note_episode,
    "checkpoint.save_checkpoint": _note_save,
}


# per-layer metrics -----------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p75 with at least ten samples beyond it, else 50."""
    for q in (99.9, 99.0, 90.0, 75.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tr: Tracer, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every per-layer metric, as (value, unit); absent layers read 0."""
    m: dict[str, tuple[float, str]] = {}
    c = tr.counters

    def calls(name):
        m[f"{name}.calls"] = (tr.calls[name], "count")

    def own(name):
        m[f"{name}.self_s"] = (tr.self_s[name], "s")

    for name in ("lattice.neighbors", "lattice.legal_moves", "taskgrid.build_context",
                 "corpus.oracle_path", "model.train_step", "model.forward",
                 "checkpoint.load_checkpoint", "decoder.decode_greedy", "decoder.decode_beam",
                 "decoder.masked_softmax", "twinsim.run_episode_detailed", "twinsim.plan"):
        calls(name)
    for name in ("lattice.neighbors", "lattice.legal_moves", "taskgrid.build_context",
                 "corpus.oracle_path", "corpus.generate_corpus", "corpus.read_records",
                 "corpus.record_to_dict", "autodiff.backward", "autodiff.matmul",
                 "autodiff.gelu", "autodiff.softmax", "autodiff.log_softmax",
                 "autodiff.layer_norm", "autodiff.getitem", "model.make_loss_batch",
                 "model.composite_loss", "model.optimizer_step", "model.forward",
                 "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                 "decoder.decode_greedy", "decoder.decode_beam", "decoder.masked_softmax",
                 "evaluator.evaluate_records", "twinsim.run_episode_detailed", "twinsim.plan"):
        own(name)
    for name in TIMED:
        d = sorted(tr.durations[name])
        q = tail_percentile(len(d))
        m[f"{name}.ms_p50"] = (1e3 * percentile(d, 50.0) if d else 0.0, "ms")
        m[f"{name}.ms_tail"] = (1e3 * percentile(d, q) if d else 0.0, "ms")
        m[f"{name}.tail_pct"] = (q if d else 0.0, "%")

    m["model.forward_batch.self_s"] = (tr.self_by_parent["model.forward_batch", "model.train_step"], "s")
    m["model.forward.prefix_len_mean"] = (
        _ratio(c["model.forward.prefix_len_sum"], tr.calls["model.forward"]), "count")
    m["corpus.oracle_path.unreachable"] = (c["corpus.oracle_path.unreachable"], "count")
    m["corpus.accept_ratio"] = (
        _ratio(c["corpus.records_generated"], c["corpus.oracle_path.in_gen"]), "ratio")
    m["checkpoint.save_checkpoint.bytes"] = (_ratio(c["checkpoint.bytes"], c["checkpoint.saves"]), "B")
    for mode in ("greedy", "beam"):
        m[f"decoder.steps_per_record.{mode}"] = (
            _ratio(c[f"decoder.steps.{mode}"], c[f"decoder.records.{mode}"]), "count")
    for kind in ("stop_token", "max_steps"):
        m[f"decoder.terminated.{kind}"] = (c[f"decoder.terminated.{kind}"], "count")
    for key in ("ticks", "regrounds", "detours"):
        m[f"twinsim.{key}"] = (c[f"twinsim.{key}"], "count")
    cli_self = 0.0
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = (tr.total_s[f"cli.{cmd}"], "s")
        cli_self += tr.self_s[f"cli.{cmd}"]
    m["cli.self_s"] = (cli_self, "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    m["trace.overhead_frac"] = (_ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "ratio")
    return m
