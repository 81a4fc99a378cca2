"""Self-test of the benchmark at tiny sizes.

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names with their units and passes its own checks; that a
planted invalid prediction and a planted byte mismatch each make the checker
fail; and that a checkout without the program's sources exits nonzero
without printing a result. Run it with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from checks import Ledger, check_predictions, check_same_bytes, read_report
from run import ROOT, run_workload
from workloads import SIZES, WORKLOADS, Context

WORK = os.path.join(ROOT, ".perfbench_runs", "selftest")


def _declared() -> tuple[dict, dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layer_map.json"), "r", encoding="utf-8") as f:
        layer_map = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, per_layer, layer_map


def self_test(lp) -> int:
    problems: list[str] = []
    e2e, per_layer, layer_map = _declared()
    shutil.rmtree(WORK, ignore_errors=True)

    mapped = {name for layer in layer_map["layers"].values() for name in layer["metrics"]}
    if mapped != set(per_layer):
        problems.append(f"layer_map.json and BENCHMARK.json per_layer differ: {sorted(mapped ^ set(per_layer))}")

    for name in sorted(WORKLOADS):
        for trace, declared in ((False, e2e), (True, per_layer)):
            run_dir = os.path.join(WORK, f"{name}-trace{int(trace)}")
            os.makedirs(run_dir)
            result = run_workload(lp, name, 1, 0.0, trace, SIZES["tiny"][name], run_dir)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: checks failed ({result['first_failure']})")
            if emitted != declared:
                diff = sorted(set(emitted.items()) ^ set(declared.items()))
                problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: {diff}")
            print(f"self-test {name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

    problems += _planted_failures(lp)
    problems += _bare_checkout()
    for p in problems:
        print(f"self-test problem: {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def _planted_failures(lp) -> list[str]:
    """An illegal jump in one prediction and one flipped model byte must both be caught."""
    print("self-test: planting failures; the three 'check failed' lines that follow are expected")
    problems = []
    run_dir = os.path.join(WORK, "desk_train-trace0")
    rep = os.path.join(run_dir, "rep0")
    gold = os.path.join(run_dir, "setup0", "corpus", "corpus_validation.jsonl")

    planted = os.path.join(WORK, "planted")
    os.makedirs(planted)
    with open(os.path.join(rep, "greedy", "predictions.jsonl"), "r", encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    x, y, z = rows[0]["points"][-1]
    rows[0]["points"].append([x, y, z + 2])  # two cells in one step
    pred = os.path.join(planted, "predictions.jsonl")
    with open(pred, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)

    ledger = Ledger()
    check_predictions(ledger, lp, pred, gold)
    if ledger.failed != 1:
        problems.append("a planted illegal jump passed check_predictions")
    ledger = Ledger()
    Context(lp, planted, ledger).cli("eval", "--pred", pred, "--gold", gold, "--out", planted)
    read_report(ledger, os.path.join(planted, "report.json"), len(rows))
    if ledger.failed != 1:
        problems.append("a planted illegal jump passed the report check")

    flipped = os.path.join(planted, "model.npz")
    shutil.copyfile(os.path.join(rep, "model", "model.npz"), flipped)
    with open(flipped, "r+b") as f:
        f.seek(-9, os.SEEK_END)
        b = f.read(1)
        f.seek(-9, os.SEEK_END)
        f.write(bytes([b[0] ^ 1]))
    ledger = Ledger()
    check_same_bytes(ledger, "planted model.npz", [os.path.join(rep, "model", "model.npz"), flipped])
    if ledger.failed != 1:
        problems.append("a planted byte mismatch passed the determinism check")
    return problems


def _bare_checkout() -> list[str]:
    """Only BENCHMARK.json and perfbench/: must exit nonzero and print no result."""
    bare = os.path.join(WORK, "bare")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"a checkout without src/ exited {proc.returncode} with stdout {proc.stdout[-200:]!r}"]
    return []
