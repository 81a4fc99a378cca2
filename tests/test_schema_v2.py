"""Record schema v2 against v1: every v1 file still reads, and re-written as v2 reads back to the same records.

v1 files come from the reference (v1) generator and the v1 writer in
reference_lattice; v2 files from write_records. The obstacle_bits codec is
checked on a hand-packed box, and malformed bitmaps, resolutions, scores and
terminations are each one `error: schema:` line naming the entry.
"""

import base64
import json
from dataclasses import replace

import pytest
import reference_lattice as ref

from latticepath.checkpoint import save_checkpoint
from latticepath.cli import main
from latticepath.corpus import (
    TERMINATION_KINDS,
    GenerationConfig,
    GenerationCounters,
    generate_corpus,
    read_records,
    write_records,
)
from latticepath.decoder import DecodeConfig, decode_records
from latticepath.lattice import LatticeCoord, Workspace, default_workspace, desk_workspace
from latticepath.model import ModelConfig, PathModel
from latticepath.twinsim import default_scenario_pack, write_scenarios

C = LatticeCoord

V1_CORPORA = {
    "desk_0.1": GenerationConfig(desk_workspace(), count=40, obstacle_density=0.1),
    "desk_0": GenerationConfig(desk_workspace(), count=20),
    "offset_0.2": GenerationConfig(Workspace(2, 6, -4, -1, 3, 5), count=30, obstacle_density=0.2, max_path_length=12),
    "envelope_0.05": GenerationConfig(default_workspace(), count=2, obstacle_density=0.05, max_path_length=32),
}


def rows_of(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_obstacle_bits_are_packbits_over_the_box_in_rank_order():
    w = Workspace(0, 1, 0, 1, 0, 2, obstacles={C(0, 0, 0), C(0, 1, 2), C(1, 1, 2)})  # ranks 0, 5 and 11 of 12
    d = w.to_dict(packed=True)
    assert d["obstacle_bits"] == base64.b64encode(bytes([0b10000100, 0b00010000])).decode() == "hBA="
    assert Workspace.from_dict(d) == w and "obstacles" not in d
    assert w.to_dict() == {**{k: v for k, v in d.items() if k != "obstacle_bits"},
                           "obstacles": [(0, 0, 0), (0, 1, 2), (1, 1, 2)]}
    empty = Workspace(0, 1, 0, 1, 0, 1).to_dict(packed=True)  # 8 cells: one byte, no pad bits
    assert empty["obstacle_bits"] == "AA==" and len(Workspace.from_dict(empty).ranks) == 0


@pytest.mark.parametrize("name", V1_CORPORA)
def test_v1_corpus_reads_and_rewrites_as_v2_to_equal_records(tmp_path, name):
    records = ref.generate_corpus(V1_CORPORA[name], 5)
    v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    v1.write_bytes(ref.v1_bytes(records))
    back = read_records(v1)
    assert back == records  # ranks, points, task graphs, contexts, seeds and split tags
    write_records(v2, back)
    rows = rows_of(v2)
    assert {r["schema_version"] for r in rows} == {2}
    assert all("obstacle_bits" in r["workspace"] and "obstacles" not in r["workspace"] for r in rows)
    again = read_records(v2)
    assert again == records
    assert [a.workspace.ranks.tolist() for a in again] == [r.workspace.ranks.tolist() for r in records]
    write_records(tmp_path / "v2_again.jsonl", again)
    assert (tmp_path / "v2_again.jsonl").read_bytes() == v2.read_bytes()
    for old, new in zip(rows_of(v1), rows):  # only the version and the obstacle form differ
        del old["workspace"]["obstacles"], new["workspace"]["obstacle_bits"]
        assert {**old, "schema_version": 2} == new
    if V1_CORPORA[name].obstacle_density:
        assert len(v2.read_bytes()) < len(v1.read_bytes())


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.npz"
    save_checkpoint(path, PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=32), seed=0))
    return path


def test_v1_predictions_read_and_evaluate_like_v2(tmp_path):
    gold = ref.generate_corpus(V1_CORPORA["desk_0.1"], 7)
    preds = decode_records(PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=32), seed=0),
                           gold, DecodeConfig(max_steps=32))
    assert all(p.terminated_by in TERMINATION_KINDS and type(p.score) is float for p in preds)
    for version in ("v1", "v2"):
        (tmp_path / version).mkdir()
    (tmp_path / "v1" / "gold.jsonl").write_bytes(ref.v1_bytes(gold))
    (tmp_path / "v1" / "pred.jsonl").write_bytes(ref.v1_bytes(preds))  # v1 had no score or terminated_by
    write_records(tmp_path / "v2" / "gold.jsonl", gold)
    write_records(tmp_path / "v2" / "pred.jsonl", preds)
    assert read_records(tmp_path / "v1" / "pred.jsonl") == [replace(p, score=None, terminated_by=None) for p in preds]
    assert read_records(tmp_path / "v2" / "pred.jsonl") == preds
    reports = []
    for version in ("v1", "v2"):
        d = tmp_path / version
        assert main(["eval", "--gold", str(d / "gold.jsonl"), "--pred", str(d / "pred.jsonl"),
                     "--out", str(d / "eval")]) == 0
        reports.append([(d / "eval" / f).read_bytes() for f in ("report.json", "report.txt")])
    assert reports[0] == reports[1]


def test_decode_writes_each_paths_score_and_termination(tmp_path, checkpoint):
    gold = tmp_path / "gold.jsonl"
    gold.write_bytes(ref.v1_bytes(ref.generate_corpus(V1_CORPORA["desk_0.1"], 8)))
    assert main(["decode", "--checkpoint", str(checkpoint), "--records", str(gold), "--out", str(tmp_path / "d"),
                 "--mode", "beam", "--beam-width", "3"]) == 0
    rows = rows_of(tmp_path / "d" / "predictions.jsonl")
    assert {r["schema_version"] for r in rows} == {2}
    assert all(type(r["score"]) is float and r["score"] <= 0 for r in rows)
    terminated = json.loads((tmp_path / "d" / "manifest.json").read_text())["counters"]["terminated"]
    assert terminated == {k: sum(r["terminated_by"] == k for r in rows) for k in TERMINATION_KINDS}
    assert [(p.score, p.terminated_by) for p in read_records(tmp_path / "d" / "predictions.jsonl")] == \
        [(r["score"], r["terminated_by"]) for r in rows]


def test_gen_counts_the_obstacle_draws():
    counters = GenerationCounters()
    generate_corpus(V1_CORPORA["envelope_0.05"], 0, counters)
    assert (counters.attempts, counters.rejected_distance, counters.obstacle_draws, counters.bfs_runs) == (5, 3, 2, 2)
    counters = GenerationCounters()
    generate_corpus(replace(V1_CORPORA["desk_0.1"], max_path_length=6), 0, counters)
    assert counters.rejected_distance > 0
    assert counters.obstacle_draws == counters.attempts - counters.rejected_distance == counters.bfs_runs


# malformed entries ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def gold(tmp_path_factory):
    path = tmp_path_factory.mktemp("gold") / "gold.jsonl"
    write_records(path, generate_corpus(V1_CORPORA["desk_0.1"], 3))
    return path


def flip_pad_bit(ws):
    raw = bytearray(base64.b64decode(ws["obstacle_bits"]))
    raw[-1] |= 1  # the desk box has 245 cells: the last byte's three low bits are padding
    ws["obstacle_bits"] = base64.b64encode(bytes(raw)).decode()


def resize(ws, delta):
    raw = base64.b64decode(ws["obstacle_bits"])
    ws["obstacle_bits"] = base64.b64encode(raw[:delta] if delta < 0 else raw + bytes(delta)).decode()


BITS_CASES = {
    "pad-bit": (flip_pad_bit, "workspace.obstacle_bits sets a pad bit past the box's 245 cells"),
    "short": (lambda ws: resize(ws, -1), "workspace.obstacle_bits holds 30 bytes, but a box of 245 cells takes 31"),
    "long": (lambda ws: resize(ws, 2), "workspace.obstacle_bits holds 33 bytes, but a box of 245 cells takes 31"),
    "not-base64": (lambda ws: ws.update(obstacle_bits="*" + ws["obstacle_bits"][1:]),
                   "workspace.obstacle_bits is not valid base64"),
    "not-a-string": (lambda ws: ws.update(obstacle_bits=7), "workspace.obstacle_bits must be a base64 string, got 7"),
    "both": (lambda ws: ws.update(obstacles=[]),
             "workspace.obstacle_bits and workspace.obstacles are both present; give one"),
    "neither": (lambda ws: ws.pop("obstacle_bits"), "workspace.obstacle_bits is missing"),
}


def run_bad(tmp_path, capsys, argv_before, rows, argv_after=()) -> str:
    """Write rows to a file, run the command on it, and return its one stderr line; nothing is written."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert main([*argv_before, str(bad), *argv_after, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists(), err
    return err.replace(str(bad), "<bad>")


@pytest.mark.parametrize("edit, detail", BITS_CASES.values(), ids=BITS_CASES)
def test_malformed_obstacle_bits_are_one_schema_line(gold, tmp_path, capsys, edit, detail):
    rows = rows_of(gold)
    edit(rows[1]["workspace"])
    err = run_bad(tmp_path, capsys, ["eval", "--gold"], rows, ["--pred", str(gold)])
    assert err.startswith(f"error: schema: <bad>: line 2: malformed record ({detail}"), err


RESOLUTIONS = {"string": '"20"', "bool": "true", "overflow": "1e400", "infinity": "Infinity", "zero": "0",
               "negative": "-20", "huge-int": "1" + "0" * 400}


def with_resolution(row: dict, ws: dict, token: str) -> str:
    """The row as a JSON line whose workspace resolution_mm is the raw JSON token."""
    ws["resolution_mm"] = "<resolution>"
    return json.dumps(row).replace('"<resolution>"', token)


@pytest.mark.parametrize("token", RESOLUTIONS.values(), ids=RESOLUTIONS)
@pytest.mark.parametrize("file", ["records", "scenes"])
def test_bad_resolution_in_a_file_is_one_schema_line_naming_it(gold, tmp_path, capsys, file, token):
    if file == "records":
        rows = rows_of(gold)
        rows[1] = with_resolution(rows[1], rows[1]["workspace"], token)
        argv, after = ["eval", "--gold"], ["--pred", str(gold)]
    else:
        write_scenarios(tmp_path / "scenes.jsonl", default_scenario_pack()[:2])
        rows = rows_of(tmp_path / "scenes.jsonl")
        rows[1] = with_resolution(rows[1], rows[1]["scene"]["workspace"], token)
        argv, after = ["sim", "--scenarios"], []
    err = run_bad(tmp_path, capsys, argv, rows, after)
    shown = json.dumps(json.loads(token))
    assert err == f"error: schema: <bad>: line 2: malformed record (workspace.resolution_mm must be a finite " \
                  f"positive number, got {shown})\n"


def test_infinite_resolution_in_a_gen_config_is_one_config_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"workspace": {"resolution_mm": 1e400}}')
    out = tmp_path / "never"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: config: workspace.resolution_mm must be a finite positive number, "
                                       "got Infinity\n")
    assert not out.exists()


PREDICTION_CASES = {
    "score-string": ({"score": "high", "terminated_by": "stop_token"}, 'score must be a finite number, got "high"'),
    "score-nan": ({"score": float("nan"), "terminated_by": "stop_token"}, "score must be a finite number, got NaN"),
    "score-bool": ({"score": True, "terminated_by": "max_steps"}, "score must be a finite number, got true"),
    "kind": ({"score": -1.5, "terminated_by": "timeout"},
             "terminated_by must be one of stop_token, max_steps, got 'timeout'"),
    "score-alone": ({"score": -1.5}, "a record carries both score and terminated_by, or neither"),
    "kind-alone": ({"terminated_by": "stop_token"}, "a record carries both score and terminated_by, or neither"),
}


@pytest.mark.parametrize("fields, detail", PREDICTION_CASES.values(), ids=PREDICTION_CASES)
def test_malformed_score_or_termination_is_one_schema_line(gold, tmp_path, capsys, fields, detail):
    rows = rows_of(gold)
    rows[1].update(fields)
    err = run_bad(tmp_path, capsys, ["eval", "--gold", str(gold), "--pred"], rows)
    assert err == f"error: schema: <bad>: line 2: malformed record ({detail})\n"
