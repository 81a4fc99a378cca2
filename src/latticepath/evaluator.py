"""Path-prediction metrics, error taxonomy, and aggregate reporting.

Per-pair metrics: stepwise accuracy (order-sensitive, denominator
max(len(pred), len(gold)) so truncations and over-extensions both lose
credit), coordinate-set precision/recall/F1 (order-agnostic), and valid-path
percent. Corpus aggregation accumulates exact integer counts and divides
once at the end. The taxonomy labels residual errors: E1 tail truncation,
E2 adjacent-step swap, E3 boundary nudge, L1 illegal jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import CorpusRecord, Trajectory, validate_path
from .lattice import Workspace

ERROR_LABELS = (
    "E1_tail_truncation",
    "E2_adjacent_swap",
    "E3_boundary_nudge",
    "L1_illegal_jump",
)


@dataclass(frozen=True)
class EvalReport:
    stepwise_accuracy: float
    precision: float
    recall: float
    f1: float
    valid_path_percent: float
    error_counts: dict[str, int] = field(default_factory=dict)
    n_pairs: int = 0

    def to_dict(self) -> dict:
        return {
            "stepwise_accuracy": self.stepwise_accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "valid_path_percent": self.valid_path_percent,
            "error_counts": {k: self.error_counts.get(k, 0) for k in ERROR_LABELS},
            "n_pairs": self.n_pairs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(
            stepwise_accuracy=float(d["stepwise_accuracy"]),
            precision=float(d["precision"]),
            recall=float(d["recall"]),
            f1=float(d["f1"]),
            valid_path_percent=float(d["valid_path_percent"]),
            error_counts={k: int(d["error_counts"].get(k, 0)) for k in ERROR_LABELS},
            n_pairs=int(d["n_pairs"]),
        )


def _pair_counts(pred: Trajectory, gold: Trajectory) -> tuple[int, int, int, int, int]:
    """(position matches, longer length, shared cells, pred cells, gold cells)."""
    ps, gs = set(pred.points), set(gold.points)
    matches = sum(1 for a, b in zip(pred.points, gold.points) if a == b)
    return matches, max(len(pred), len(gold)), len(ps & gs), len(ps), len(gs)


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def stepwise_accuracy(pred: Trajectory, gold: Trajectory) -> float:
    """Fraction of positions that agree, over the longer of the two paths."""
    matches, length, *_ = _pair_counts(pred, gold)
    return matches / length


def coordinate_prf(pred: Trajectory, gold: Trajectory) -> tuple[float, float, float]:
    """Set-overlap precision/recall/F1 over visited cells (duplicates collapse)."""
    _, _, inter, n_pred, n_gold = _pair_counts(pred, gold)
    precision, recall = inter / n_pred, inter / n_gold
    return precision, recall, _f1(precision, recall)


def valid_path_percent(preds: list[Trajectory], w: Workspace) -> float:
    """Fraction of paths satisfying adjacency and bounds everywhere."""
    if not preds:
        return 1.0
    return sum(1 for t in preds if validate_path(t, w).valid) / len(preds)


def _near_boundary(p, w: Workspace) -> bool:
    return (
        min(p.x - w.x_min, w.x_max - p.x) <= 1
        or min(p.y - w.y_min, w.y_max - p.y) <= 1
        or min(p.z - w.z_min, w.z_max - p.z) <= 1
    )


def classify_errors(pred: Trajectory, gold: Trajectory, w: Workspace) -> set[str]:
    """Taxonomy labels for a prediction; labels co-occur except L1 excludes E3.

    E1: pred is a strict prefix of gold. E2: pred equals gold up to exactly
    one adjacent transposition. E3: pred is legal, same length, and deviates
    from gold only at cells within one step of the workspace boundary.
    L1: pred fails validate_path.
    """
    labels: set[str] = set()
    pp, gp = pred.points, gold.points
    legal = validate_path(pred, w).valid
    if not legal:
        labels.add("L1_illegal_jump")
    if len(pp) < len(gp) and pp == gp[: len(pp)]:
        labels.add("E1_tail_truncation")
    if len(pp) == len(gp) and pp != gp:
        diffs = [i for i in range(len(pp)) if pp[i] != gp[i]]
        if (
            len(diffs) == 2
            and diffs[1] == diffs[0] + 1
            and pp[diffs[0]] == gp[diffs[1]]
            and pp[diffs[1]] == gp[diffs[0]]
        ):
            labels.add("E2_adjacent_swap")
        if legal and all(_near_boundary(pp[i], w) for i in diffs):
            labels.add("E3_boundary_nudge")
    return labels


def evaluate(triples: list[tuple[Trajectory, Trajectory, Workspace]]) -> EvalReport:
    """Aggregate report over (pred, gold, workspace) triples."""
    if not triples:
        raise ValueError("evaluate requires at least one (pred, gold) pair")
    matches, length, inter, n_pred, n_gold = map(
        sum, zip(*(_pair_counts(pred, gold) for pred, gold, _ in triples))
    )
    counts = {label: 0 for label in ERROR_LABELS}
    for pred, gold, w in triples:
        for label in classify_errors(pred, gold, w):
            counts[label] += 1
    precision, recall = inter / n_pred, inter / n_gold
    return EvalReport(
        stepwise_accuracy=matches / length,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        valid_path_percent=(len(triples) - counts["L1_illegal_jump"]) / len(triples),
        error_counts=counts,
        n_pairs=len(triples),
    )


def evaluate_records(preds: list[CorpusRecord], golds: list[CorpusRecord]) -> EvalReport:
    """Pair prediction and gold records by seed, then evaluate."""
    gold_by_seed = {r.trajectory.seed: r for r in golds}
    if len(gold_by_seed) != len(golds):
        raise ValueError("gold records have duplicate seeds; cannot pair")
    triples = []
    for p in preds:
        g = gold_by_seed.pop(p.trajectory.seed, None)
        if g is None:
            raise ValueError(f"no gold record with seed {p.trajectory.seed}")
        triples.append((p.trajectory, g.trajectory, g.workspace))
    if gold_by_seed:
        missing = sorted(gold_by_seed)[0]
        raise ValueError(f"no prediction for gold record with seed {missing}")
    triples.sort(key=lambda t: t[1].seed)
    return evaluate(triples)


def format_report(report: EvalReport) -> str:
    """Key-value text block, one metric per line."""
    lines = [
        f"n_pairs             {report.n_pairs}",
        f"stepwise_accuracy   {report.stepwise_accuracy:.6f}",
        f"precision           {report.precision:.6f}",
        f"recall              {report.recall:.6f}",
        f"f1                  {report.f1:.6f}",
        f"valid_path_percent  {report.valid_path_percent:.6f}",
    ]
    for label in ERROR_LABELS:
        lines.append(f"{label:<19} {report.error_counts.get(label, 0)}")
    return "\n".join(lines) + "\n"


def format_table(rows: list[tuple[str, EvalReport]]) -> str:
    """Flat one-row-per-corpus table, stable layout for diffing."""
    header = (
        f"{'corpus':<16} {'n':>6} {'stepwise':>9} {'prec':>9} {'recall':>9} "
        f"{'f1':>9} {'valid':>9} {'E1':>5} {'E2':>5} {'E3':>5} {'L1':>5}"
    )
    out = [header]
    for name, r in rows:
        c = r.error_counts
        out.append(
            f"{name:<16} {r.n_pairs:>6} {r.stepwise_accuracy:>9.4f} {r.precision:>9.4f} "
            f"{r.recall:>9.4f} {r.f1:>9.4f} {r.valid_path_percent:>9.4f} "
            f"{c.get('E1_tail_truncation', 0):>5} {c.get('E2_adjacent_swap', 0):>5} "
            f"{c.get('E3_boundary_nudge', 0):>5} {c.get('L1_illegal_jump', 0):>5}"
        )
    return "\n".join(out) + "\n"
