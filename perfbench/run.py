"""latticepath benchmark: seeded CLI workloads, output checks, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --self-test

The program is imported from ``src/`` of the checkout and driven in-process
through ``latticepath.cli.main``, one command at a time, on one thread.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
traces one set-up and one repetition and reports the per-layer metrics,
including the tracing overhead against one untraced repetition. The last
line of standard output is the result object; earlier lines carry the
environment stamp, per-stage figures and output digests. Work files go to
``.perfbench_runs/`` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import Abort, Ledger  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, Context, compare_outputs, run_reps, timed_rep  # noqa: E402


def import_program(root: str = ROOT):
    """Import latticepath from the checkout's src/; None if the sources are absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latticepath", "cli.py")):
        return None
    sys.path.insert(0, src)
    importlib.import_module("latticepath.cli")  # imports every layer module
    return sys.modules["latticepath"]


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_workload(lp, name: str, seed: int, seconds: float, trace: bool, size: dict, run_dir: str) -> dict:
    """Set up, repeat, check and measure one workload; returns the result object."""
    wl = WORKLOADS[name](size, seed)
    ledger = Ledger()
    ctx = Context(lp, run_dir, ledger)
    tracer = Tracer() if trace else None
    metrics: dict = {}
    detail: dict = {}
    try:
        n_setups = 1 if trace else size["setups"]
        ctx.tracer = tracer
        setup_times = [wl.setup(ctx, i) for i in range(n_setups)]
        ctx.tracer = None
        for i in range(n_setups):
            wl.check_setup(ctx, i)
        if trace:
            reps = [timed_rep(wl, ctx, 0)]
            ctx.tracer = tracer
            reps.append(timed_rep(wl, ctx, 1))
            ctx.tracer = None
        else:
            reps = run_reps(wl, ctx, seconds)
        compare_outputs(wl, ctx, n_setups, len(reps))
        if trace:
            values = per_layer_metrics(tracer, reps[0]["wall"], reps[1]["wall"])
            tracer.write(os.path.join(run_dir, "spans.jsonl"))
        else:
            scale = ctx.scale(wl.probes)
            values, detail = wl.summarize(reps, reps[0]["quality"], scale)
            values["setup_s"] = (scale * statistics.median(setup_times), "s")
            values["wall_s"] = (scale * statistics.median(r["wall"] for r in reps), "s")
            values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            detail["scale"] = scale
            detail["raw_probe_s"] = {p: statistics.median(t[p] for t in ctx.probe_times) for p in wl.probes}
            detail["raw_setup_s"] = setup_times
            detail.update({f"raw_{k}_s": [r[k] for r in reps] for k in reps[0] if k != "quality"})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    except Abort:
        pass
    except (OSError, ValueError, KeyError, TypeError) as exc:  # an output the checks cannot read
        ledger.check(False, f"unreadable output: {type(exc).__name__}: {exc}")
    detail["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics, "detail": detail, "first_failure": ledger.first_failure}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check the benchmark itself at tiny sizes")
    args = p.parse_args(argv)

    lp = import_program()
    if lp is None:
        print(f"error: latticepath sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(lp)
    if args.workload is None:
        p.error("--workload is required")

    run_dir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result = run_workload(lp, args.workload, args.seed, args.seconds, bool(args.trace),
                          SIZES["full"][args.workload], run_dir)
    detail = result.pop("detail")
    print("detail " + json.dumps(detail, sort_keys=True))
    first_failure = result.pop("first_failure")
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "detail": detail, **result}, f, sort_keys=True, indent=1)
    for entry in sorted(os.listdir(run_dir)):
        if os.path.isdir(os.path.join(run_dir, entry)):
            shutil.rmtree(os.path.join(run_dir, entry))
    print(json.dumps(result))
    if first_failure is not None:
        print(f"error: first failed check: {first_failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
