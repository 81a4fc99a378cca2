import numpy as np
import pytest

from latticepath.corpus import CorpusRecord, Trajectory, oracle_path
from latticepath.decoder import validate_path
from latticepath.evaluator import (
    ERROR_LABELS,
    EvalReport,
    classify_errors,
    evaluate,
    evaluate_records,
    format_report,
    format_table,
)
from latticepath.lattice import LatticeCoord, desk_workspace
from latticepath.taskgrid import build_context, reach_only_graph

C = LatticeCoord
W = desk_workspace()


def line(*cells):
    return Trajectory(points=tuple(C(*c) for c in cells))


# metrics of one pair ---------------------------------------------------------------


def one_pair(pred, gold):
    return evaluate([(pred, gold, W)])


def test_identical_paths_score_perfectly():
    gold = oracle_path(C(0, 0, 0), C(2, 2, 2), W)
    r = one_pair(gold, gold)
    assert r.stepwise_accuracy == 1.0
    assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)
    assert classify_errors(gold, gold, W) == set()


def test_stepwise_counts_positionwise_matches():
    gold = line((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    pred = line((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0))
    assert one_pair(pred, gold).stepwise_accuracy == pytest.approx(3 / 4)


def test_stepwise_divides_by_longer_path():
    gold = line((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    pred = line((0, 0, 0), (1, 0, 0))
    assert one_pair(pred, gold).stepwise_accuracy == pytest.approx(2 / 4)
    assert one_pair(gold, pred).stepwise_accuracy == pytest.approx(2 / 4)


def test_coordinate_prf_hand_example():
    gold = line((1, 0, 0), (2, 0, 0), (3, 0, 0))
    pred = line((0, 0, 0), (1, 0, 0), (2, 0, 0))
    r = one_pair(pred, gold)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)
    assert r.f1 == pytest.approx(2 / 3)


def test_coordinate_prf_collapses_duplicates():
    gold = line((0, 0, 0), (1, 0, 0))
    pred = line((0, 0, 0), (1, 0, 0), (0, 0, 0))  # revisits start
    r = one_pair(pred, gold)
    assert r.precision == 1.0 and r.recall == 1.0


def test_valid_path_percent_one_pair_and_mixed():
    good = line((0, 0, 0), (1, 0, 0))
    bad = line((0, 0, 0), (2, 0, 0))
    assert one_pair(good, good).valid_path_percent == 1.0
    assert one_pair(bad, good).valid_path_percent == 0.0
    assert evaluate([(good, good, W), (bad, good, W)]).valid_path_percent == pytest.approx(0.5)


# error taxonomy ------------------------------------------------------------------


def test_e1_requires_strict_prefix():
    gold = line((0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert "E1_tail_truncation" in classify_errors(line((0, 0, 0), (1, 0, 0)), gold, W)
    # same start but divergent continuation is not a truncation
    assert "E1_tail_truncation" not in classify_errors(line((0, 0, 0), (0, 1, 0)), gold, W)


def test_e2_adjacent_transposition():
    gold = line((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0))
    pred = line((0, 0, 0), (1, 1, 0), (1, 0, 0), (2, 1, 0))
    labels = classify_errors(pred, gold, W)
    assert "E2_adjacent_swap" in labels
    assert "L1_illegal_jump" in labels  # the swap breaks adjacency here


def test_e2_requires_exactly_one_swap():
    gold = line((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0))
    pred = line((1, 0, 0), (0, 0, 0), (2, 1, 0), (1, 1, 0), (2, 2, 0))  # two swaps
    assert "E2_adjacent_swap" not in classify_errors(pred, gold, W)


def test_e3_boundary_nudge():
    gold = line((2, 0, 2), (2, 1, 2), (2, 2, 2))
    pred = line((3, 0, 2), (3, 1, 2), (3, 2, 2))  # hugs the x_max face
    assert validate_path(pred, W).valid
    assert classify_errors(pred, gold, W) == {"E3_boundary_nudge"}


def test_e3_requires_legality():
    gold = line((2, 0, 2), (2, 1, 2), (2, 2, 2))
    pred = line((3, 0, 2), (3, 2, 2), (3, 2, 2))  # jump, still near the face
    labels = classify_errors(pred, gold, W)
    assert "E3_boundary_nudge" not in labels
    assert "L1_illegal_jump" in labels


def test_e3_not_triggered_for_interior_deviation():
    gold = line((0, 0, 2), (1, 0, 2))
    pred = line((0, 1, 2), (1, 1, 2))  # deviates at interior cells
    assert "E3_boundary_nudge" not in classify_errors(pred, gold, W)


def test_l1_for_out_of_bounds():
    gold = line((0, 0, 0), (1, 0, 0))
    pred = Trajectory(points=(C(0, 0, 0), C(0, 0, -1)))
    assert "L1_illegal_jump" in classify_errors(pred, gold, W)


# pooled evaluation ---------------------------------------------------------------


def naive_report(triples):
    """Straight-line recomputation of the pooled metrics, used as an oracle."""
    match = sum(sum(1 for a, b in zip(p.points, g.points) if a == b) for p, g, _ in triples)
    longer = sum(max(len(p), len(g)) for p, g, _ in triples)
    inter = sum(len(set(p.points) & set(g.points)) for p, g, _ in triples)
    psz = sum(len(set(p.points)) for p, g, _ in triples)
    gsz = sum(len(set(g.points)) for p, g, _ in triples)
    precision = inter / psz
    recall = inter / gsz
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    valid = sum(1 for p, _, w in triples if validate_path(p, w).valid) / len(triples)
    return match / longer, precision, recall, f1, valid


def random_triples(n, seed):
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        cells = rng.integers([-3, -3, 0, -3, -3, 0], [4, 4, 5, 4, 4, 5])
        a, b = C(*map(int, cells[:3])), C(*map(int, cells[3:]))
        gold = oracle_path(a, b, W)
        roll = rng.random()
        if roll < 0.25:
            pred = gold
        elif roll < 0.5 and len(gold) > 1:  # truncate: length mismatch
            cut = int(rng.integers(1, len(gold)))
            pred = Trajectory(points=gold.points[:cut])
        elif roll < 0.75:  # corrupt one cell, possibly illegally
            pts = list(gold.points)
            i = int(rng.integers(0, len(pts)))
            pts[i] = C(pts[i].x, pts[i].y, (pts[i].z + 2) % 5)
            pred = Trajectory(points=tuple(pts))
        else:  # a different valid path entirely
            d = C(*map(int, rng.integers([-3, -3, 0], [4, 4, 5])))
            pred = oracle_path(a, d, W)
        triples.append((pred, gold, W))
    return triples


def test_pooled_metrics_match_naive_reimplementation():
    triples = random_triples(200, seed=7)
    report = evaluate(triples)
    acc, precision, recall, f1, valid = naive_report(triples)
    assert abs(report.stepwise_accuracy - acc) <= 1e-12
    assert abs(report.precision - precision) <= 1e-12
    assert abs(report.recall - recall) <= 1e-12
    assert abs(report.f1 - f1) <= 1e-12
    assert abs(report.valid_path_percent - valid) <= 1e-12


def test_evaluate_rejects_empty_input():
    with pytest.raises(ValueError):
        evaluate([])


def test_evaluate_counts_errors_across_pairs():
    gold = line((0, 0, 0), (1, 0, 0), (2, 0, 0))
    triples = [
        (line((0, 0, 0), (1, 0, 0)), gold, W),  # E1
        (gold, gold, W),
        (line((0, 0, 0), (2, 0, 0), (1, 0, 0)), gold, W),  # E2 + L1
    ]
    report = evaluate(triples)
    assert report.error_counts["E1_tail_truncation"] == 1
    assert report.error_counts["E2_adjacent_swap"] == 1
    assert report.error_counts["L1_illegal_jump"] == 1
    assert report.n_pairs == 3
    assert set(report.to_dict()["error_counts"]) == set(ERROR_LABELS)


def test_eval_report_round_trips_through_dict():
    gold = line((0, 0, 0), (1, 0, 0), (2, 0, 0))
    report = evaluate([(line((0, 0, 0), (1, 0, 0)), gold, W), (gold, gold, W)])
    assert EvalReport.from_dict(report.to_dict()) == report
    with pytest.raises(KeyError):
        EvalReport.from_dict({k: v for k, v in report.to_dict().items() if k != "f1"})


# record pairing ------------------------------------------------------------------


def record(seed, traj, split="validation"):
    ctx = build_context(reach_only_graph(), 0, sequence_length_hint=len(traj), target=traj.end)
    t = Trajectory(points=traj.points, task="reach", seed=seed)
    return CorpusRecord(trajectory=t, workspace=W, context=ctx, split_tag=split)


def test_evaluate_records_pairs_by_seed_in_any_order():
    golds = [record(s, oracle_path(C(0, 0, 0), C(s % 3, 1, 0), W)) for s in (11, 12, 13)]
    preds = [record(s, oracle_path(C(0, 0, 0), C(0, s % 2, 0), W)) for s in (13, 11, 12)]
    a = evaluate_records(preds, golds)
    b = evaluate_records(list(reversed(preds)), golds)
    assert a == b


def test_evaluate_records_rejects_unpaired_seeds():
    golds = [record(1, line((0, 0, 0), (1, 0, 0)))]
    with pytest.raises(ValueError, match="no gold record"):
        evaluate_records([record(2, line((0, 0, 0), (1, 0, 0)))], golds)
    preds = [record(1, line((0, 0, 0), (1, 0, 0))), record(2, line((0, 0, 0), (0, 1, 0)))]
    with pytest.raises(ValueError, match="no prediction"):
        evaluate_records([preds[0]], preds)


def test_evaluate_records_rejects_duplicate_gold_seeds():
    g = record(5, line((0, 0, 0), (1, 0, 0)))
    for side, preds, golds in (("gold", [g], [g, g]), ("prediction", [g, g], [g])):
        with pytest.raises(ValueError, match=f"^{side} records have duplicate seeds; cannot pair$"):
            evaluate_records(preds, golds)


# formatting ----------------------------------------------------------------------


def test_format_report_lists_every_metric():
    report = evaluate([(line((0, 0, 0), (1, 0, 0)),) * 2 + (W,)])
    text = format_report(report)
    for key in ("stepwise_accuracy", "precision", "recall", "f1", "valid_path_percent"):
        assert key in text
    for label in ERROR_LABELS:
        assert label in text


def test_format_table_includes_row_names():
    report = evaluate([(line((0, 0, 0), (1, 0, 0)),) * 2 + (W,)])
    text = format_table([("run_a", report), ("run_b", report)])
    assert "run_a" in text and "run_b" in text
