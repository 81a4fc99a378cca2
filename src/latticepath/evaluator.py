"""Path-prediction metrics, error taxonomy, and aggregate reporting.

Metrics: stepwise accuracy (order-sensitive, denominator
max(len(pred), len(gold)) so truncations and over-extensions both lose
credit), coordinate-set precision/recall/F1 (order-agnostic), and valid-path
percent. Corpus aggregation accumulates exact integer counts and divides
once at the end. The taxonomy labels residual errors: E1 tail truncation,
E2 adjacent-step swap, E3 boundary nudge, L1 illegal jump.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .corpus import CorpusRecord, Trajectory, validate_path
from .lattice import Workspace, read_number, read_object, read_step

ERROR_LABELS = (
    "E1_tail_truncation",
    "E2_adjacent_swap",
    "E3_boundary_nudge",
    "L1_illegal_jump",
)

# (field, format_table column) of each pooled metric, in report order
METRICS = (
    ("stepwise_accuracy", "stepwise"),
    ("precision", "prec"),
    ("recall", "recall"),
    ("f1", "f1"),
    ("valid_path_percent", "valid"),
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
        return {**asdict(self), "error_counts": {k: self.error_counts.get(k, 0) for k in ERROR_LABELS}}

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """Inverse of to_dict; a missing key is a KeyError (a missing error label counts 0), a value of the
        wrong type a ValueError naming it."""
        counts = read_object(read_object(d, "report")["error_counts"], "error_counts")
        return cls(**{m: read_number(d[m], m) for m, _ in METRICS},
                   error_counts={k: read_step(counts.get(k, 0), f"error_counts.{k}") for k in ERROR_LABELS},
                   n_pairs=read_step(d["n_pairs"], "n_pairs"))


def _pair_counts(pred: Trajectory, gold: Trajectory) -> tuple[int, int, int, int, int]:
    """(position matches, longer length, shared cells, pred cells, gold cells)."""
    ps, gs = set(pred.points), set(gold.points)
    matches = sum(1 for a, b in zip(pred.points, gold.points) if a == b)
    return matches, max(len(pred), len(gold)), len(ps & gs), len(ps), len(gs)


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


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
    if len({p.trajectory.seed for p in preds}) != len(preds):
        raise ValueError("prediction records have duplicate seeds; cannot pair")
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
    """Key-value text block: the pair count, then one line per metric and per error label."""
    lines = [("n_pairs", report.n_pairs)]
    lines += [(m, f"{getattr(report, m):.6f}") for m, _ in METRICS]
    lines += [(label, report.error_counts.get(label, 0)) for label in ERROR_LABELS]
    return "".join(f"{key:<19} {value}\n" for key, value in lines)


def format_table(rows: list[tuple[str, EvalReport]]) -> str:
    """Flat one-row-per-corpus table, stable layout for diffing."""
    out = [_table_row("corpus", "n", [col for _, col in METRICS], [label[:2] for label in ERROR_LABELS])]
    for name, r in rows:
        out.append(_table_row(name, r.n_pairs, [f"{getattr(r, m):.4f}" for m, _ in METRICS],
                              [r.error_counts.get(label, 0) for label in ERROR_LABELS]))
    return "\n".join(out) + "\n"


def _table_row(name, n, metrics: list, counts: list) -> str:
    return " ".join([f"{name:<16}", f"{n:>6}", *(f"{v:>9}" for v in metrics), *(f"{c:>5}" for c in counts)])
