"""Output checks: every check counts as one attempted operation.

A failed check counts toward ``failed`` in the result line, and the first one
is named on stderr; the benchmark then exits nonzero. Checks read outputs
through latticepath's own readers and validators, outside any timed region.
"""

from __future__ import annotations

import hashlib
import json
import sys


class Abort(Exception):
    """A failure after which the workload cannot continue."""


class Ledger:
    """Attempted and failed operations, plus the first failure's name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_same_bytes(ledger: Ledger, label: str, paths: list) -> None:
    """Same-seed outputs must be byte-identical; prints the digests."""
    digests = [digest(p) for p in paths]
    same = len(set(digests)) == 1
    print(f"digest {label}: {' '.join(d[:16] for d in digests)} {'same' if same else 'DIFFER'}")
    ledger.check(same, f"determinism: {label} differs between same-seed runs")


def check_corpus(ledger: Ledger, lp, path, expected: int, max_len: int) -> None:
    records = lp.corpus.read_records(path)
    bad = [r.trajectory.seed for r in records
           if len(r.trajectory) > max_len
           or not lp.decoder.validate_path(r.trajectory, r.workspace).valid]
    ledger.check(len(records) == expected and not bad,
                 f"corpus {path}: {len(records)} records (expected {expected}), invalid seeds {bad[:3]}")


def check_predictions(ledger: Ledger, lp, pred_path, gold_path) -> None:
    """Every decoded path passes validate_path and starts at its gold start cell."""
    golds = {r.trajectory.seed: r for r in lp.corpus.read_records(gold_path)}
    preds = lp.corpus.read_records(pred_path)
    bad = [p.trajectory.seed for p in preds
           if p.trajectory.seed not in golds
           or p.trajectory.start != golds[p.trajectory.seed].trajectory.start
           or not lp.decoder.validate_path(p.trajectory, p.workspace).valid]
    ledger.check(len(preds) == len(golds) and not bad,
                 f"predictions {pred_path}: {len(preds)} of {len(golds)}, invalid seeds {bad[:3]}")


def read_report(ledger: Ledger, path, n_pairs: int) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    ledger.check(report["valid_path_percent"] == 1.0 and report["n_pairs"] == n_pairs,
                 f"report {path}: valid_path_percent {report['valid_path_percent']}, "
                 f"n_pairs {report['n_pairs']} (expected {n_pairs})")
    return report


def read_outcomes(ledger: Ledger, lp, outcomes_path, scenarios_path, oracle: bool) -> list[dict]:
    """One row per scenario, valid traces, and no planner-impossible failures for BFS."""
    scenarios = lp.twinsim.read_scenarios(scenarios_path)
    with open(outcomes_path, "r", encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    ledger.check(len(rows) == len(scenarios),
                 f"outcomes {outcomes_path}: {len(rows)} rows for {len(scenarios)} scenarios")
    C = lp.lattice.LatticeCoord
    bad_trace = []
    for s, row in zip(scenarios, rows):
        trace = lp.corpus.Trajectory(points=tuple(C(*p) for p in row["trace"]))
        if (row["name"] != s.name or trace.start != s.scene.end_effector
                or not lp.decoder.validate_path(trace, s.scene.workspace).valid):
            bad_trace.append(s.name)
    ledger.check(not bad_trace, f"outcomes {outcomes_path}: invalid twin traces {bad_trace[:3]}")
    if oracle:
        impossible = [r["name"] for r in rows
                      if r["outcome"]["failure_mode"] in ("mis_id", "mechanical_slip")]
        ledger.check(not impossible,
                     f"outcomes {outcomes_path}: OraclePlanner ended in mis_id/mechanical_slip "
                     f"{impossible[:3]}")
    return rows
