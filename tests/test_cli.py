import dataclasses
import io
import json
import math
import zipfile

import numpy as np
import pytest
from test_decoder_batched import decode_without_reuse

from latticepath import cli
from latticepath.checkpoint import load_checkpoint, save_checkpoint
from latticepath.cli import main
from latticepath.corpus import read_records, write_records
from latticepath.decoder import DecodeConfig, DecodeCounters, validate_path
from latticepath.lattice import LatticeCoord as C

GEN_ARGS = ["--seed", "0", "--count", "40"]


def run(argv):
    return main([str(a) for a in argv])


def gen(tmp_path, name="corpus", extra=()):
    out = tmp_path / name
    assert run(["gen", "--out", out, *GEN_ARGS, *extra]) == 0
    return out


def train(tmp_path, corpus_dir, name="run", extra=()):
    out = tmp_path / name
    args = ["train", "--corpus", corpus_dir / "corpus_train.jsonl", "--out", out,
            "--seed", "0", "--epochs", "2", "--batch-size", "16",
            "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
            "--max-seq-len", "24", *extra]
    assert run(args) == 0
    return out


# gen -------------------------------------------------------------------------


def test_gen_writes_split_files_and_manifest(tmp_path):
    out = gen(tmp_path)
    train_recs = read_records(out / "corpus_train.jsonl")
    val_recs = read_records(out / "corpus_validation.jsonl")
    assert len(train_recs) == 32 and len(val_recs) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert "corpus_train.jsonl" in manifest["outputs"]
    assert "manifest.json" in manifest["outputs"]
    assert manifest["config"]["seed"] == 0


def test_gen_is_reproducible_byte_for_byte(tmp_path):
    a, b = gen(tmp_path, "a"), gen(tmp_path, "b")
    for name in ("corpus_train.jsonl", "corpus_validation.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "count": 40}))
    flagged = tmp_path / "flagged"
    assert run(["gen", "--config", cfg, "--seed", "0", "--out", flagged]) == 0
    plain = gen(tmp_path, "plain")
    assert (flagged / "corpus_train.jsonl").read_bytes() == (plain / "corpus_train.jsonl").read_bytes()


@pytest.mark.parametrize("config, key", [({"seeed": 1}, "'seeed'"), ({"workspace": {"x_mn": -5}}, "'workspace'.'x_mn'")],
                         ids=["top", "workspace"])
def test_gen_rejects_unknown_config_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "never"
    assert run(["gen", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: config: unknown config key {key}\n"
    assert not out.exists()  # nothing half-written


def test_gen_rejects_malformed_config_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_missing_required_out_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--seed", "0"])
    assert exc.value.code == 2


def test_gen_custom_box_with_obstacles(tmp_path):
    out = tmp_path / "boxed"
    assert run(["gen", "--out", out, "--seed", "3", "--count", "20",
                "--box", "0", "6", "0", "6", "0", "2",
                "--obstacle-density", "0.1"]) == 0
    recs = read_records(out / "corpus_train.jsonl")
    assert any(r.workspace.obstacles for r in recs)
    for r in recs:
        assert validate_path(r.trajectory, r.workspace).valid


@pytest.mark.parametrize("attempts", [0, -3])
def test_gen_rejects_nonpositive_resample_attempts(tmp_path, capsys, attempts):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_resample_attempts": attempts}))
    out = tmp_path / "never"
    assert run(["gen", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "max_resample_attempts" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_gen_manifest_counters_are_seed_determined(tmp_path):
    extra = ["--obstacle-density", "0.2", "--max-path-length", "6"]
    a, b = gen(tmp_path, "a", extra), gen(tmp_path, "b", extra)
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    counters = json.loads((a / "manifest.json").read_text())["counters"]
    rejections = counters["rejected_distance"] + counters["rejected_unreachable"] + counters["rejected_too_long"]
    assert counters["rejected_distance"] > 0
    assert counters["attempts"] == 40 + rejections  # one record per accepted attempt
    assert counters["bfs_runs"] == counters["attempts"] - counters["rejected_distance"]
    assert counters["bfs_cells_expanded"] >= counters["bfs_runs"]


# train -----------------------------------------------------------------------


def test_train_writes_checkpoint_and_loss_log(tmp_path):
    corpus = gen(tmp_path)
    out = train(tmp_path, corpus)
    model, opt, step = load_checkpoint(out / "model.npz")
    assert model.cfg.embed_dim == 16
    assert step == opt.step_count > 0
    log_lines = (out / "loss_log.tsv").read_text().splitlines()
    assert log_lines[0].split("\t") == ["epoch", "seq", "coord", "valid", "cov", "len", "total"]
    assert len(log_lines) == 3  # header + 2 epochs
    manifest = json.loads((out / "manifest.json").read_text())
    assert "model.npz" in manifest["outputs"]


def test_train_zero_epochs_keeps_initialization(tmp_path):
    corpus = gen(tmp_path)
    out = train(tmp_path, corpus, "zero", extra=["--epochs", "0"])
    model, _, step = load_checkpoint(out / "model.npz")
    assert step == 0
    from latticepath.model import PathModel

    fresh = PathModel(model.cfg, seed=0)
    for (name, p), (_, q) in zip(model.parameters(), fresh.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_train_resume_continues_step_count(tmp_path):
    corpus = gen(tmp_path)
    first = train(tmp_path, corpus, "first")
    _, _, step_first = load_checkpoint(first / "model.npz")
    resumed = tmp_path / "resumed"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", resumed,
                "--resume", first / "model.npz", "--epochs", "1", "--batch-size", "16",
                "--seed", "0"]) == 0
    model, _, step_resumed = load_checkpoint(resumed / "model.npz")
    assert step_resumed > step_first
    assert model.cfg.embed_dim == 16  # architecture rides along from the checkpoint


def test_train_rejects_overlong_trajectories(tmp_path, capsys):
    corpus = gen(tmp_path)
    out = tmp_path / "short"
    code = run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", out,
                "--seed", "0", "--epochs", "1", "--max-seq-len", "2",
                "--embed-dim", "8", "--num-heads", "2", "--num-layers", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_train_manifest_counters_are_seed_determined(tmp_path):
    corpus = gen(tmp_path)
    a, b = (train(tmp_path, corpus, name, extra=["--batch-size", "12"]) for name in ("a", "b"))
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    n = len(read_records(corpus / "corpus_train.jsonl"))
    batches = 2 * math.ceil(n / 12)
    counters = json.loads((a / "manifest.json").read_text())["counters"]
    assert counters == {"epochs": 2, "batches": batches, "records_seen": 2 * n, "optimizer_steps": batches}
    _, _, step = load_checkpoint(a / "model.npz")
    assert step == batches


def test_train_resume_counts_the_checkpoint_steps(tmp_path):
    corpus = gen(tmp_path)
    first = train(tmp_path, corpus, "first")
    resumed = tmp_path / "resumed"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", resumed,
                "--resume", first / "model.npz", "--epochs", "1", "--batch-size", "16"]) == 0
    before = json.loads((first / "manifest.json").read_text())["counters"]
    after = json.loads((resumed / "manifest.json").read_text())["counters"]
    assert after["epochs"] == 1 and after["batches"] == before["batches"] // 2
    assert after["optimizer_steps"] == before["optimizer_steps"] + after["batches"]


def bigger_box_corpus(tmp_path):
    return gen(tmp_path, "big", extra=["--seed", "2", "--count", "20", "--max-path-length", "20",
                                       "--box", "-6", "6", "-6", "6", "0", "8"])


def test_train_takes_records_of_any_boxes_fresh_or_resumed(tmp_path):
    """A model has no box: one corpus may mix workspace boxes, and a resumed run may train on another box."""
    desk = gen(tmp_path, extra=["--seed", "1", "--count", "20"])
    big = bigger_box_corpus(tmp_path) / "corpus_train.jsonl"
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text((desk / "corpus_train.jsonl").read_text() + big.read_text())
    assert run(["train", "--corpus", mixed, "--out", tmp_path / "run", "--epochs", "1"]) == 0
    model_dir = train(tmp_path, desk, "desk_run")
    assert run(["train", "--corpus", big, "--out", tmp_path / "resumed", "--epochs", "1",
                "--resume", model_dir / "model.npz"]) == 0


def test_train_config_model_bounds_is_an_unknown_key(tmp_path, capsys):
    corpus = gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"bounds": [-3, 3, -3, 3, 0, 4]}}))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--corpus", corpus / "corpus_train.jsonl", "--out", out]) == 1
    assert capsys.readouterr().err == "error: config: unknown config key 'model'.'bounds'\n"
    assert not out.exists()


# decode / eval / report --------------------------------------------------------


def pipeline(tmp_path):
    corpus = gen(tmp_path)
    model_dir = train(tmp_path, corpus)
    decoded = tmp_path / "decoded"
    assert run(["decode", "--checkpoint", model_dir / "model.npz",
                "--records", corpus / "corpus_validation.jsonl",
                "--out", decoded, "--seed", "0"]) == 0
    evald = tmp_path / "evald"
    assert run(["eval", "--pred", decoded / "predictions.jsonl",
                "--gold", corpus / "corpus_validation.jsonl",
                "--out", evald]) == 0
    return corpus, model_dir, decoded, evald


def test_full_pipeline_artifacts(tmp_path):
    corpus, model_dir, decoded, evald = pipeline(tmp_path)
    preds = read_records(decoded / "predictions.jsonl")
    golds = read_records(corpus / "corpus_validation.jsonl")
    assert {p.trajectory.seed for p in preds} == {g.trajectory.seed for g in golds}
    for p in preds:
        assert validate_path(p.trajectory, p.workspace).valid
    report = json.loads((evald / "report.json").read_text())
    for key in ("stepwise_accuracy", "precision", "recall", "f1", "valid_path_percent"):
        assert key in report
    assert report["valid_path_percent"] == 1.0
    assert "stepwise_accuracy" in (evald / "report.txt").read_text()


def test_eval_rejects_unpaired_records(tmp_path, capsys):
    corpus, _, decoded, _ = pipeline(tmp_path)
    code = run(["eval", "--pred", decoded / "predictions.jsonl",
                "--gold", corpus / "corpus_train.jsonl",
                "--out", tmp_path / "bad_eval"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: schema:")


def test_report_prints_to_stdout(tmp_path, capsys):
    *_, evald = pipeline(tmp_path)
    assert run(["report", evald / "report.json"]) == 0
    out = capsys.readouterr().out
    assert "stepwise_accuracy" in out


def test_report_multiple_runs_renders_table(tmp_path, capsys):
    *_, evald = pipeline(tmp_path)
    dest = tmp_path / "summary"
    assert run(["report", evald / "report.json", evald / "report.json",
                "--out", dest]) == 0
    text = (dest / "summary.txt").read_text()
    assert "report" in text or "run" in text or "stepwise" in text


def test_decode_rejects_missing_checkpoint(tmp_path, capsys):
    corpus = gen(tmp_path)
    code = run(["decode", "--checkpoint", tmp_path / "nope.npz",
                "--records", corpus / "corpus_validation.jsonl",
                "--out", tmp_path / "d", "--seed", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_decode_manifest_counters_are_seed_determined(tmp_path):
    corpus = gen(tmp_path)
    model_dir = train(tmp_path, corpus)
    manifests = []
    for name in ("first", "second"):
        assert run(["decode", "--checkpoint", model_dir / "model.npz",
                    "--records", corpus / "corpus_validation.jsonl", "--out", tmp_path / name,
                    "--seed", "0", "--mode", "beam", "--beam-width", "3"]) == 0
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    counters = json.loads(manifests[0])["counters"]
    assert sum(counters["terminated"].values()) == 8  # one per validation record
    assert 0 < counters["model_steps"] <= counters["rows_stepped"]


@pytest.mark.parametrize("box, extra", [
    (("17", "23", "-13", "-7", "5", "9"), []),
    (("-22", "22", "-22", "22", "0", "34"), ["--count", "8", "--max-path-length", "24", "--obstacle-density", "0.05"]),
], ids=["shifted", "envelope"])
@pytest.mark.parametrize("mode", ["greedy", "beam"])
def test_desk_checkpoint_decodes_records_of_other_boxes(inputs, tmp_path, box, extra, mode):
    records = gen(tmp_path, "other", extra=["--box", *box, *extra]) / "corpus_validation.jsonl"
    out = tmp_path / "decoded"
    assert run(["decode", "--checkpoint", inputs["<ckpt>"], "--records", records, "--out", out,
                "--mode", mode, "--beam-width", "3"]) == 0
    golds, preds = read_records(records), read_records(out / "predictions.jsonl")
    assert len(preds) == len(golds) > 0
    for g, p in zip(golds, preds):
        assert p.trajectory.start == g.trajectory.start
        assert validate_path(p.trajectory, p.workspace).valid, p.trajectory.points


def _with_points(r, points):
    return dataclasses.replace(r, trajectory=dataclasses.replace(r.trajectory, points=tuple(points)))


# edit of the record on line 2 -> the error after "line 2: "
BAD_PATHS = {
    "start-outside-the-box": (lambda r: _with_points(r, (C(9, 9, 9),) + r.trajectory.points),
                              "path starts outside the workspace box, at [9, 9, 9]"),
    "start-on-an-obstacle": (lambda r: dataclasses.replace(
        r, workspace=r.workspace.with_obstacles(r.workspace.obstacles | {r.trajectory.start})),
        "path starts on an obstacle, at {start}"),
    "later-jump": (lambda r: _with_points(r, r.trajectory.points[:2] + (r.trajectory.points[1].offset(2, 0, 0),)),
                   "trajectory point 2 = {jump} is out of bounds or not a unit move"),
}


@pytest.mark.parametrize("command, case", [(c, k) for c in ("decode", "train") for k in BAD_PATHS
                                           if (c, k) != ("decode", "later-jump")])  # decode reads only the start
def test_a_path_off_its_workspace_names_the_file_and_line(inputs, tmp_path, capsys, command, case):
    """A record whose path starts outside its box or on an obstacle is refused as it is read, and so is a
    later illegal step of a gold path that train learns from."""
    edit, message = BAD_PATHS[case]
    records = read_records(inputs["<gold>"])
    records[1] = edit(records[1])
    bad = tmp_path / "bad.jsonl"
    write_records(bad, records)
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "decode":
        argv = ["decode", "--checkpoint", inputs["<ckpt>"], "--records", bad, "--out", out]
    else:
        argv = ["train", "--corpus", bad, "--out", out, "--epochs", "1", "--embed-dim", "8", "--num-heads", "2"]
    assert run(argv) == 1
    points = records[1].trajectory.points
    detail = message.format(start=list(points[0].as_tuple()), jump=points[-1])
    assert capsys.readouterr().err == f"error: schema: {bad}: line 2: {detail}\n"
    assert not out.exists()


TOP = 2 ** 53  # the largest magnitude of a workspace bound or a target coordinate


@pytest.mark.parametrize("x", [(TOP - 2, TOP), (-TOP, -TOP + 2)], ids=["top", "bottom"])
def test_coordinates_of_plus_or_minus_2_pow_53_still_read(inputs, tmp_path, x):
    corpus = gen(tmp_path, extra=["--box", *x, 0, 1, 0, 1, "--count", "10"])
    gold = corpus / "corpus_validation.jsonl"
    records = read_records(corpus / "corpus_train.jsonl") + read_records(gold)
    assert any(abs(r.context.target.x) == TOP for r in records)
    train(tmp_path, corpus)
    out = tmp_path / "decoded"
    assert run(["decode", "--checkpoint", inputs["<ckpt>"], "--records", gold, "--out", out]) == 0
    for p in read_records(out / "predictions.jsonl"):
        assert validate_path(p.trajectory, p.workspace).valid


@pytest.mark.parametrize("command", ["decode", "train"])
def test_a_target_past_2_pow_53_names_the_file_and_line(inputs, tmp_path, capsys, command):
    """The pair a float64 sign read as level: a path cell at x = 2^53 and its target at x = 2^53 + 1."""
    corpus = gen(tmp_path, extra=["--box", TOP - 2, TOP, 0, 1, 0, 1, "--count", "10"])
    records = read_records(corpus / "corpus_train.jsonl")
    i, cell = next((i, p) for i, r in enumerate(records) for p in r.trajectory.points if p.x == TOP)
    bad_record = dataclasses.replace(records[i], context=dataclasses.replace(records[i].context,
                                                                             target=cell.offset(1, 0, 0)))
    bad = tmp_path / "bad.jsonl"
    write_records(bad, [records[i - 1 if i else 1], bad_record])
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "decode":
        argv = ["decode", "--checkpoint", inputs["<ckpt>"], "--records", bad, "--out", out]
    else:
        argv = ["train", "--corpus", bad, "--out", out, "--epochs", "1", "--embed-dim", "8", "--num-heads", "2"]
    assert run(argv) == 1
    target = [TOP + 1, cell.y, cell.z]
    assert capsys.readouterr().err == (f"error: schema: {bad}: line 2: malformed record "
                                       f"(context.target must lie within -2^53..2^53, got {target})\n")
    assert not out.exists()


def test_gen_refuses_a_box_past_2_pow_53(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["gen", "--out", out, "--box", 0, TOP + 1, 0, 1, 0, 1]) == 1
    assert capsys.readouterr().err == (f"error: config: workspace bounds must lie within -2^53..2^53, "
                                       f"got [0, {TOP + 1}, 0, 1, 0, 1]\n")
    assert not out.exists()


def test_decode_into_an_existing_file_writes_nothing(tmp_path, capsys):
    corpus = gen(tmp_path)
    model_dir = train(tmp_path, corpus)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run(["decode", "--checkpoint", model_dir / "model.npz",
                "--records", corpus / "corpus_validation.jsonl", "--out", taken]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io:") and err.count("\n") == 1, err
    assert taken.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# sim ----------------------------------------------------------------------------


def test_sim_runs_bundled_pack(tmp_path):
    out = tmp_path / "sim"
    assert run(["sim", "--out", out, "--seed", "0"]) == 0
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    assert len(rows) >= 30
    assert all(r["expected_ok"] for r in rows)
    table = (out / "table.txt").read_text()
    assert "successful executions" in table
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sim"


def test_sim_reads_scenario_file(tmp_path):
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    pack_path = tmp_path / "pack.jsonl"
    write_scenarios(pack_path, default_scenario_pack()[:4])
    out = tmp_path / "sim_subset"
    assert run(["sim", "--scenarios", pack_path, "--out", out, "--seed", "0"]) == 0
    rows = (out / "outcomes.jsonl").read_text().splitlines()
    assert len(rows) == 4


def test_sim_is_deterministic(tmp_path):
    a, b = tmp_path / "sa", tmp_path / "sb"
    assert run(["sim", "--out", a, "--seed", "0"]) == 0
    assert run(["sim", "--out", b, "--seed", "0"]) == 0
    assert (a / "outcomes.jsonl").read_bytes() == (b / "outcomes.jsonl").read_bytes()
    assert (a / "table.txt").read_bytes() == (b / "table.txt").read_bytes()


# end-to-end determinism ----------------------------------------------------------


def test_pipeline_reports_are_bit_identical_across_runs(tmp_path):
    reports = []
    for tag in ("r1", "r2"):
        base = tmp_path / tag
        base.mkdir()
        corpus = gen(base)
        model_dir = train(base, corpus)
        decoded = base / "decoded"
        assert run(["decode", "--checkpoint", model_dir / "model.npz",
                    "--records", corpus / "corpus_validation.jsonl",
                    "--out", decoded, "--seed", "0"]) == 0
        evald = base / "evald"
        assert run(["eval", "--pred", decoded / "predictions.jsonl",
                    "--gold", corpus / "corpus_validation.jsonl",
                    "--out", evald]) == 0
        reports.append((evald / "report.json").read_bytes())
    assert reports[0] == reports[1]


# malformed inputs and failed writes -----------------------------------------------


def _truncated(ckpt, path):
    path.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])


def _empty(ckpt, path):
    path.write_bytes(b"")


def _not_a_checkpoint(ckpt, path):
    path.write_text("epoch\tseq\n")


def _without_slots(ckpt, path):
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            if not info.filename.startswith("slot/"):
                dst.writestr(info, src.read(info))


def _edit_meta(ckpt, path, edit):
    """Copy ckpt to path with its metadata replaced by edit(metadata)."""
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "__meta__.npy":
                meta = edit(json.loads(str(np.load(io.BytesIO(data))[()])))
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.array(json.dumps(meta)))
                data = buf.getvalue()
            dst.writestr(info, data)


def _without_embed_dim(ckpt, path):
    _edit_meta(ckpt, path, lambda m: {**m, "model_config": {k: v for k, v in m["model_config"].items()
                                                            if k != "embed_dim"}})


def _set_first_entry(ckpt, path, prefix, value):
    """Copy ckpt to path with the first entry of its first array under prefix set to value."""
    done = False
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if not done and info.filename.startswith(prefix):
                a = np.load(io.BytesIO(data))
                a.flat[0] = value
                buf = io.BytesIO()
                np.lib.format.write_array(buf, a)
                data, done = buf.getvalue(), True
            dst.writestr(info, data)


def _nan_parameter(ckpt, path):
    _set_first_entry(ckpt, path, "param/", math.nan)


def _infinite_slot(ckpt, path):
    _set_first_entry(ckpt, path, "slot/", math.inf)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    corpus = gen(base)
    ckpt = train(base, corpus, extra=["--optimizer", "adam"]) / "model.npz"
    with zipfile.ZipFile(ckpt) as zf:
        assert any(n.startswith("slot/") for n in zf.namelist())
    return corpus, ckpt


@pytest.mark.parametrize("corrupt", [_truncated, _empty, _not_a_checkpoint, _without_slots, _without_embed_dim,
                                     _nan_parameter, _infinite_slot])
@pytest.mark.parametrize("command", ["train", "decode"])
def test_malformed_checkpoint_is_one_schema_error(trained, tmp_path, capsys, corrupt, command):
    corpus, ckpt = trained
    bad = tmp_path / "bad.npz"
    corrupt(ckpt, bad)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--corpus", corpus / "corpus_train.jsonl", "--resume", bad,
                "--epochs", "1", "--batch-size", "16"]
    else:
        argv = ["decode", "--checkpoint", bad, "--records", corpus / "corpus_validation.jsonl"]
    assert run([*argv, "--out", out, "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schema:") and err.count("\n") == 1, err
    assert not out.exists()


WRONG_TYPED_METADATA = {  # the edit, and the key the error line names
    "seed-null": (lambda m: {**m, "seed": None}, "seed"),
    "step-a-string": (lambda m: {**m, "step": "7"}, "step"),
    "optimizer-step-count-fractional": (lambda m: {**m, "optimizer_step_count": 2.5}, "optimizer_step_count"),
    "metadata-a-list": (lambda m: [m], "metadata"),
    "optimizer-slots-an-int": (lambda m: {**m, "optimizer_slots": 5}, "optimizer_slots"),
    "embed-dim-null": (lambda m: {**m, "model_config": {**m["model_config"], "embed_dim": None}},
                       "model_config.embed_dim"),
    "optimizer-a-list": (lambda m: {**m, "optimizer": [1]}, "optimizer"),
    "lr-null": (lambda m: {**m, "optimizer": {**m["optimizer"], "lr": None}}, "optimizer.lr"),
}


@pytest.mark.parametrize("edit,key", WRONG_TYPED_METADATA.values(), ids=WRONG_TYPED_METADATA)
@pytest.mark.parametrize("command", ["train", "decode", "sim"])
def test_wrong_typed_checkpoint_metadata_is_one_schema_error(trained, tmp_path, capsys, edit, key, command):
    corpus, ckpt = trained
    bad = tmp_path / "bad.npz"
    _edit_meta(ckpt, bad, edit)
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", corpus / "corpus_train.jsonl", "--resume", bad,
                      "--epochs", "1", "--batch-size", "16"],
            "decode": ["decode", "--checkpoint", bad, "--records", corpus / "corpus_validation.jsonl"],
            "sim": ["sim", "--checkpoint", bad]}[command]
    assert run([*argv, "--out", out, "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema: {bad}: malformed checkpoint (") and err.count("\n") == 1, err
    assert f"{key} " in err, err
    assert not out.exists()


def _without_member(ckpt, path, name):
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            if info.filename != name:
                dst.writestr(info, src.read(info))


def _first_param(ckpt):
    with zipfile.ZipFile(ckpt) as zf:
        return next(n for n in zf.namelist() if n.startswith("param/"))


def _reshaped_param(ckpt, path):
    first = _first_param(ckpt)
    with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == first:
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.load(io.BytesIO(data)).ravel()[:-1])
                data = buf.getvalue()
            dst.writestr(info, data)


def _version_1(meta: dict) -> dict:
    """Metadata as format version 1 wrote it: coordinate tables over a model box, named in model_config."""
    names = [n for n in meta["param_names"] if not n.startswith("sign_")]
    return {**meta, "format_version": 1, "model_config": {**meta["model_config"], "bounds": [-3, 3, -3, 3, 0, 4]},
            "param_names": ["coord_x", "coord_y", "coord_z", *names]}


CHECKPOINT_FORMAT_ERRORS = {  # a checkpoint that reads yet is not this program's, and the error it names
    "missing-metadata": (lambda ckpt, path: _without_member(ckpt, path, "__meta__.npy"),
                         "not a checkpoint: missing metadata entry"),
    "format-version-1": (lambda ckpt, path: _edit_meta(ckpt, path, _version_1),
                         "unsupported checkpoint format_version 1"),
    "format-version-3": (lambda ckpt, path: _edit_meta(ckpt, path, lambda m: {**m, "format_version": 3}),
                         "unsupported checkpoint format_version 3"),
    "param-set-mismatch": (lambda ckpt, path: _edit_meta(ckpt, path, lambda m: {**m, "param_names": ["w"]}),
                           "checkpoint parameter set does not match the config"),
    "shape-mismatch": (_reshaped_param, "has shape"),
    "missing-parameter-array": (lambda ckpt, path: _without_member(ckpt, path, _first_param(ckpt)),
                                "checkpoint missing array for parameter"),
}


@pytest.mark.parametrize("corrupt,detail", CHECKPOINT_FORMAT_ERRORS.values(), ids=CHECKPOINT_FORMAT_ERRORS)
@pytest.mark.parametrize("command", ["train", "decode", "sim"])
def test_checkpoint_format_errors_name_the_file(trained, tmp_path, capsys, corrupt, detail, command):
    corpus, ckpt = trained
    bad = tmp_path / "bad.npz"
    corrupt(ckpt, bad)
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", corpus / "corpus_train.jsonl", "--resume", bad,
                      "--epochs", "1", "--batch-size", "16"],
            "decode": ["decode", "--checkpoint", bad, "--records", corpus / "corpus_validation.jsonl"],
            "sim": ["sim", "--checkpoint", bad]}[command]
    assert run([*argv, "--out", out, "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema: {bad}: ") and detail in err and err.count("\n") == 1, err
    assert not out.exists()


def test_failed_checkpoint_save_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    corpus = gen(tmp_path)

    def failing_save(path, *args, **kwargs):
        with open(path, "wb") as f:
            f.write(b"PK")  # a partial write before the failure
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "save_checkpoint", failing_save)
    out = tmp_path / "run"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", out,
                "--seed", "0", "--epochs", "1", "--batch-size", "16",
                "--embed-dim", "8", "--num-layers", "1", "--num-heads", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io:") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []  # no manifest, loss log, checkpoint or staged file


def test_sim_rejects_bad_scenario_line(tmp_path, capsys):
    pack_path = tmp_path / "pack.jsonl"
    pack_path.write_text('{"schema_version": 99}\n')
    out = tmp_path / "sim_bad"
    assert run(["sim", "--scenarios", pack_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schema:") and "line 1" in err
    assert not out.exists()


GEN_OBSTACLE_CASES = {
    "not-a-list": (5, "workspace.obstacles must be a list of [x, y, z] cells, got 5"),
    "fraction": ([[1.5, 0, 0]], "workspace.obstacles[0] must be three integers, got [1.5, 0, 0]"),
    "bool": ([[0, 0, 0], [True, 0, 0]], "workspace.obstacles[1] must be three integers, got [true, 0, 0]"),
    "string": (["abc"], 'workspace.obstacles[0] must be three integers, got "abc"'),
    "two-values": ([[0, 0]], "workspace.obstacles[0] must be three integers, got [0, 0]"),
    "outside": ([[9, 0, 0]], "workspace.obstacles[0] = [9, 0, 0] lies outside the workspace bounds"),
    "non-empty": ([[1.0, 0, 0]], "workspace.obstacles must be empty: gen draws each record's obstacles "
                                 "(set obstacle_density)"),
}


@pytest.mark.parametrize("obstacles, detail", GEN_OBSTACLE_CASES.values(), ids=GEN_OBSTACLE_CASES)
def test_gen_workspace_obstacles_error_is_one_config_line(tmp_path, capsys, obstacles, detail):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workspace": {"obstacles": obstacles}}))
    out = tmp_path / "never"
    assert run(["gen", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: config: {detail}\n"
    assert not out.exists()


def test_gen_accepts_the_empty_obstacle_list_its_manifest_echoes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workspace": {"obstacles": []}}))
    out = tmp_path / "out"
    assert run(["gen", "--config", path, "--count", 5, "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["workspace"]["obstacles"] == []


@pytest.mark.parametrize("obstacles", [5, [[1.5, 0, 0]], [[0, 0]], [[True, 0, 0]]])
def test_malformed_obstacles_in_record_and_scenario_files_are_schema_errors(tmp_path, capsys, obstacles):
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    corpus = gen(tmp_path)
    write_scenarios(tmp_path / "scenes.jsonl", default_scenario_pack()[:2])
    rows = {"records": [json.loads(line) for line in (corpus / "corpus_train.jsonl").read_text().splitlines()],
            "scenes": [json.loads(line) for line in (tmp_path / "scenes.jsonl").read_text().splitlines()]}
    rows["records"][1]["schema_version"] = 1  # a v1 record, whose workspace carries an obstacle list
    del rows["records"][1]["workspace"]["obstacle_bits"]
    rows["records"][1]["workspace"]["obstacles"] = obstacles
    rows["scenes"][1]["scene"]["workspace"]["obstacles"] = obstacles
    for name, argv in (("records", ["train", "--corpus"]), ("scenes", ["sim", "--scenarios"])):
        bad = tmp_path / f"bad_{name}.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows[name]))
        out = tmp_path / f"never_{name}"
        capsys.readouterr()
        assert run([*argv, bad, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: schema: {bad}: line 2: ") and "workspace.obstacles" in err, err
        assert err.count("\n") == 1 and not out.exists()


# input files edited by hand ----------------------------------------------------------

HUGE = 10 ** 400  # a JSON integer that no float holds


def _set(*path_and_value):
    """The edit of a JSON object that sets the entry at the key path to the value."""
    *path, value = path_and_value

    def edit(row):
        for k in path[:-1]:
            row = row[k]
        row[path[-1]] = value
    return edit


DECODE, SIM, REPORT = ["decode", "--checkpoint", "<ckpt>", "--records"], ["sim", "--scenarios"], ["report"]
EVAL_GOLD = ["eval", "--pred", "<pred>", "--gold"]
READER_CASES = {  # command (the edited file last), the file edited, the edit of its first row (or the row that
    # replaces it), the one error line
    "eval-context-int": (EVAL_GOLD, "<gold>", _set("context", 5),
                         "malformed record (context must be an object, got 5)"),
    "decode-workspace-int": (DECODE, "<gold>", _set("workspace", 5),
                             "malformed record (workspace must be an object, got 5)"),
    "decode-task_graph-int": (DECODE, "<gold>", _set("task_graph", 5),
                              "malformed record (task_graph must be an object, got 5)"),
    "eval-task_graph-node-list": (EVAL_GOLD, "<gold>", _set("task_graph", "nodes", 0, [0]),
                                  "malformed record (task_graph.nodes[0] must be an object, got [0])"),
    "eval-feature-huge": (EVAL_GOLD, "<gold>", _set("context", "feature", 0, HUGE),
                          "malformed record (context.feature[0] must be a number that fits a float, "
                          "got an integer of 401 digits)"),
    "decode-feature-huge-among-floats": (DECODE, "<gold>", _set("context", "feature", 3, -HUGE),
                                         "malformed record (context.feature[3] must be a number that fits a "
                                         "float, got an integer of 401 digits)"),
    "sim-scene-int": (SIM, "<scenes>", _set("scene", 5), "malformed record (scene must be an object, got 5)"),
    "sim-scene-workspace-list": (SIM, "<scenes>", _set("scene", "workspace", []),
                                 "malformed record (workspace must be an object, got [])"),
    "sim-event-string": (SIM, "<scenes>", _set("events", ["slip"]),
                         'malformed record (event must be an object, got "slip")'),
    "report-error_counts-int": (REPORT, "<report>", _set("error_counts", 5),
                                "not an eval report (error_counts must be an object, got 5)"),
    "report-error_count-fraction": (REPORT, "<report>", _set("error_counts", "E2_adjacent_swap", 1.5),
                                    "not an eval report (error_counts.E2_adjacent_swap must be a non-negative "
                                    "integer, got 1.5)"),
    "report-n_pairs-string": (REPORT, "<report>", _set("n_pairs", "8"),
                              'not an eval report (n_pairs must be a non-negative integer, got "8")'),
    "report-f1-huge": (REPORT, "<report>", _set("f1", HUGE),
                       "not an eval report (f1 must be a number that fits a float, got an integer of 401 digits)"),
    "report-int": (REPORT, "<report>", lambda row: 5, "not an eval report (report must be an object, got 5)"),
}


@pytest.mark.parametrize("argv, source, edit, detail", READER_CASES.values(), ids=READER_CASES)
def test_an_input_file_edited_by_hand_is_one_schema_error(inputs, tmp_path, capsys, argv, source, edit, detail):
    if source == "<report>":
        rows = [dataclasses.asdict(cli.EvalReport(0.5, 0.5, 0.5, 0.5, 100.0, {"E1_tail_truncation": 1}, 8))]
    else:
        rows = [json.loads(line) for line in inputs[source].read_text().splitlines()]
    rows[0] = edit(rows[0]) or rows[0]
    bad = tmp_path / "bad.json"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([inputs.get(a, a) for a in argv] + [bad, "--out", out]) == 1
    where = f"{bad}: line 1:" if source != "<report>" else f"{bad}:"
    assert capsys.readouterr().err == f"error: schema: {where} {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, key", [
    ("train", {"optimizer": {"lr": HUGE}}, "optimizer.lr"),
    ("gen", {"obstacle_density": -HUGE}, "obstacle_density"),
], ids=["train-lr-huge", "gen-obstacle_density-huge"])
def test_an_integer_too_large_for_a_float_is_one_config_error(inputs, tmp_path, capsys, command, cfg, key):
    err = config_error(inputs, tmp_path, capsys, command, cfg)
    assert err == f"error: config: {key} must be a number that fits a float, got an integer of 401 digits\n"


# config values and flags -----------------------------------------------------------


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files by placeholder: corpus, gold records, checkpoint, predictions, scenarios."""
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    base = tmp_path_factory.mktemp("inputs")
    corpus = gen(base)
    ckpt = train(base, corpus) / "model.npz"
    assert run(["decode", "--checkpoint", ckpt, "--records", corpus / "corpus_validation.jsonl",
                "--out", base / "decoded"]) == 0
    scenes = base / "scenes.jsonl"
    write_scenarios(scenes, default_scenario_pack()[:2])
    return {"<corpus>": corpus / "corpus_train.jsonl", "<gold>": corpus / "corpus_validation.jsonl",
            "<ckpt>": ckpt, "<pred>": base / "decoded" / "predictions.jsonl", "<scenes>": scenes}


WRONG_TYPE_CASES = {
    "gen-seed-null": ("gen", {"seed": None}),
    "gen-count-list": ("gen", {"count": [40]}),
    "train-epochs-null": ("train", {"epochs": None}),
    "train-batch_size-null": ("train", {"batch_size": None}),
    "train-seed-object": ("train", {"seed": {}}),
    "train-corpus-int": ("train", {"corpus": 7}),
    "train-resume-int": ("train", {"resume": 0}),
    "train-loss-null": ("train", {"loss": {"lambda_cov": None}}),
    "train-lr-string": ("train", {"optimizer": {"lr": "fast"}}),
    "decode-checkpoint-list": ("decode", {"checkpoint": ["model.npz"]}),
    "decode-records-int": ("decode", {"records": 0}),
    "decode-beam_width-null": ("decode", {"beam_width": None}),
    "eval-gold-pred-int": ("eval", {"gold": 0, "pred": 0}),
    "sim-scenarios-int": ("sim", {"scenarios": 1}),
}


@pytest.mark.parametrize("command, cfg", WRONG_TYPE_CASES.values(), ids=WRONG_TYPE_CASES)
def test_config_value_of_the_wrong_type_is_one_config_error(inputs, tmp_path, capsys, command, cfg):
    base = {"train": {"corpus": "<corpus>", "epochs": 0},
            "decode": {"checkpoint": "<ckpt>", "records": "<gold>"}}.get(command, {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: str(inputs.get(v, v)) if isinstance(v, str) else v
                                for k, v in {**base, **cfg}.items()}))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1, err
    assert not out.exists()


FLAG_CASES = [  # command, flag, config key (dotted: nested block), config-file value, flag value
    ("gen", "--seed", "seed", 1, 2),
    ("gen", "--count", "count", 10, 12),
    ("gen", "--train-frac", "train_fraction", 0.5, 0.75),
    ("gen", "--obstacle-density", "obstacle_density", 0.0, 0.1),
    ("gen", "--max-path-length", "max_path_length", 20, 16),
    ("train", "--seed", "seed", 1, 2),
    ("train", "--corpus", "corpus", "missing.jsonl", "<corpus>"),
    ("train", "--epochs", "epochs", 0, 1),
    ("train", "--batch-size", "batch_size", 8, 16),
    ("train", "--resume", "resume", "missing.npz", "<ckpt>"),
    ("train", "--embed-dim", "model.embed_dim", 8, 16),
    ("train", "--num-layers", "model.num_layers", 2, 1),
    ("train", "--num-heads", "model.num_heads", 4, 2),
    ("train", "--max-seq-len", "model.max_seq_len", 20, 24),
    ("train", "--lr", "optimizer.lr", 0.1, 0.01),
    ("train", "--optimizer", "optimizer.kind", "sgd", "adam"),
    ("train", "--weight-decay", "optimizer.weight_decay", 0.0, 0.01),
    ("decode", "--seed", "seed", 1, 2),
    ("decode", "--checkpoint", "checkpoint", "missing.npz", "<ckpt>"),
    ("decode", "--records", "records", "missing.jsonl", "<gold>"),
    ("decode", "--mode", "mode", "greedy", "beam"),
    ("decode", "--beam-width", "beam_width", 3, 2),
    ("decode", "--max-steps", "max_steps", 12, 16),
    ("eval", "--gold", "gold", "missing.jsonl", "<gold>"),
    ("eval", "--pred", "pred", "missing.jsonl", "<pred>"),
    ("sim", "--seed", "seed", 1, 2),
    ("sim", "--scenarios", "scenarios", "missing.jsonl", "<scenes>"),
    ("sim", "--checkpoint", "checkpoint", "missing.npz", "<ckpt>"),
    ("sim", "--mode", "mode", "greedy", "beam"),
    ("sim", "--beam-width", "beam_width", 3, 2),
    ("sim", "--max-steps", "max_steps", 12, 16),
]

FLAG_BASE = {  # flags each command needs to run; the flag under test replaces its own
    "gen": {"--count": 10},
    "train": {"--corpus": "<corpus>", "--epochs": 0, "--embed-dim": 8, "--num-layers": 1,
              "--num-heads": 2, "--max-seq-len": 24},
    "decode": {"--checkpoint": "<ckpt>", "--records": "<gold>"},
    "eval": {"--gold": "<gold>", "--pred": "<pred>"},
    "sim": {"--scenarios": "<scenes>", "--checkpoint": "<ckpt>"},
}


@pytest.mark.parametrize("command, flag, key, file_value, flag_value", FLAG_CASES,
                         ids=[f"{c[0]}{c[1]}" for c in FLAG_CASES])
def test_flag_sets_the_config_key_it_names(inputs, tmp_path, command, flag, key, file_value, flag_value):
    flag_value = str(inputs.get(flag_value, flag_value))
    block, _, sub = key.rpartition(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {sub: file_value}} if block else {key: file_value}))
    flags = {**FLAG_BASE[command], flag: flag_value}
    out = tmp_path / "out"
    assert run([command, "--config", path, *[str(inputs.get(a, a)) for kv in flags.items() for a in kv],
                "--out", out]) == 0
    echoed = json.loads((out / "manifest.json").read_text())["config"]
    if block:
        echoed = echoed[block]
    assert str(echoed[sub]) == flag_value


def test_gen_box_flag_replaces_the_config_workspace(tmp_path):
    from latticepath.lattice import Workspace

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workspace": Workspace(-2, 2, -2, 2, 0, 2).to_dict()}))
    out = tmp_path / "out"
    assert run(["gen", "--config", path, "--count", 10, "--box", 0, 4, 0, 4, 0, 2, "--out", out]) == 0
    echoed = json.loads((out / "manifest.json").read_text())["config"]["workspace"]
    assert echoed == json.loads(json.dumps(Workspace(0, 4, 0, 4, 0, 2).to_dict()))
    assert {r.workspace.bounds for r in read_records(out / "corpus_train.jsonl")} == {(0, 4, 0, 4, 0, 2)}


def test_train_resume_echoes_the_checkpoint_optimizer(tmp_path):
    corpus = gen(tmp_path)
    first = train(tmp_path, corpus, "first", extra=["--optimizer", "adam", "--lr", "0.003"])
    resumed = tmp_path / "resumed"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", resumed, "--epochs", "1",
                "--resume", first / "model.npz", "--lr", "0.5", "--optimizer", "sgd"]) == 0
    _, opt, _ = load_checkpoint(resumed / "model.npz")
    assert (opt.cfg.kind, opt.cfg.lr) == ("adam", 0.003)
    echoed = json.loads((resumed / "manifest.json").read_text())["config"]
    assert echoed["optimizer"] == opt.cfg.to_dict()
    assert echoed["optimizer"] == json.loads((first / "manifest.json").read_text())["config"]["optimizer"]


def test_train_resume_from_a_model_only_checkpoint_keeps_the_config_optimizer(tmp_path):
    corpus = gen(tmp_path)
    first = train(tmp_path, corpus, "first")
    model, _, _ = load_checkpoint(first / "model.npz")
    save_checkpoint(tmp_path / "model_only.npz", model)
    resumed = tmp_path / "resumed"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", resumed, "--epochs", "1",
                "--resume", tmp_path / "model_only.npz", "--lr", "0.5", "--optimizer", "momentum"]) == 0
    _, opt, _ = load_checkpoint(resumed / "model.npz")
    assert (opt.cfg.kind, opt.cfg.lr) == ("momentum", 0.5)
    assert json.loads((resumed / "manifest.json").read_text())["config"]["optimizer"] == opt.cfg.to_dict()


def test_sim_checkpoint_runs_scenes_outside_the_training_box(inputs, tmp_path):
    from latticepath.lattice import LatticeCoord, Workspace
    from latticepath.twinsim import Scenario, Scene, default_scenario_pack, write_scenarios

    big = Workspace(-6, 6, -6, 6, 0, 8)
    far = Scene(workspace=big, end_effector=LatticeCoord(-6, 0, 0), target=LatticeCoord(5, 0, 0))
    scenes = tmp_path / "scenes.jsonl"
    write_scenarios(scenes, [default_scenario_pack()[0], Scenario(name="far", scene=far)])
    out = tmp_path / "sim"
    assert run(["sim", "--scenarios", scenes, "--checkpoint", inputs["<ckpt>"], "--out", out]) == 0
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == [default_scenario_pack()[0].name, "far"]
    for r in rows:  # every traced cell is a unit move from the one before
        assert all(sum(abs(a - b) for a, b in zip(p, q)) <= 1 for p, q in zip(r["trace"], r["trace"][1:])), r


def desk_dict():
    from latticepath.lattice import desk_workspace

    return desk_workspace().to_dict()


NON_INTEGER_CASES = {  # command, config, the key the error must name
    "gen-seed-null": ("gen", {"seed": None}, "seed"),
    "gen-seed-true": ("gen", {"seed": True}, "seed"),
    "gen-count-fraction": ("gen", {"count": 40.5}, "count"),
    "gen-max_path_length-string": ("gen", {"max_path_length": "8"}, "max_path_length"),
    "gen-workspace-fraction": ("gen", {"workspace": {**desk_dict(), "z_max": 4.5}}, "workspace.z_max"),
    "train-embed_dim-fraction": ("train", {"model": {"embed_dim": 8.5}}, "model.embed_dim"),
    "train-epochs-true": ("train", {"epochs": True}, "epochs"),
    "decode-beam_width-fraction": ("decode", {"beam_width": 2.5}, "beam_width"),
    "decode-max_steps-false": ("decode", {"max_steps": False}, "max_steps"),
    "decode-seed-string": ("decode", {"seed": "1"}, "seed"),
    "decode-seed-list": ("decode", {"seed": [1]}, "seed"),
    "eval-seed-null": ("eval", {"seed": None}, "seed"),
    "eval-seed-fraction": ("eval", {"seed": 0.5}, "seed"),
    "sim-seed-list": ("sim", {"seed": [1]}, "seed"),
    "sim-seed-true": ("sim", {"seed": True}, "seed"),
    "sim-max_steps-fraction": ("sim", {"checkpoint": "<ckpt>", "max_steps": 3.5}, "max_steps"),
    "sim-oracle-max_steps-fraction": ("sim", {"max_steps": 2.5}, "max_steps"),
    "sim-oracle-beam_width-null": ("sim", {"beam_width": None}, "beam_width"),
}


def config_error(inputs, tmp_path, capsys, command, cfg):
    """The stderr of `command` run on the inputs it needs plus cfg; it must exit 1 and write no --out."""
    base = {"train": {"corpus": "<corpus>", "epochs": 0},
            "decode": {"checkpoint": "<ckpt>", "records": "<gold>"},
            "eval": {"gold": "<gold>", "pred": "<pred>"},
            "sim": {"scenarios": "<scenes>"}}.get(command, {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: str(inputs.get(v, v)) if isinstance(v, str) and v in inputs else v
                                for k, v in {**base, **cfg}.items()}))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([command, "--config", path, "--out", out]) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", NON_INTEGER_CASES.values(), ids=NON_INTEGER_CASES)
def test_non_integer_config_value_is_one_config_error_naming_its_key(inputs, tmp_path, capsys, command, cfg, key):
    err = config_error(inputs, tmp_path, capsys, command, cfg)
    assert err.startswith(f"error: config: {key} must be ") and err.count("\n") == 1, err


NON_NUMBER_CASES = {  # command, config, the one error line after "error: config: "
    "gen-obstacle_density-null": ("gen", {"obstacle_density": None}, "obstacle_density must be a number, got null"),
    "gen-obstacle_density-string": ("gen", {"obstacle_density": "0.1"},
                                    'obstacle_density must be a number, got "0.1"'),
    "gen-train_fraction-true": ("gen", {"train_fraction": True}, "train_fraction must be a number, got true"),
    "gen-resolution_mm-string": ("gen", {"workspace": {"resolution_mm": "20"}},
                                 'workspace.resolution_mm must be a number, got "20"'),
    "train-lambda_len-null": ("train", {"loss": {"lambda_len": None}}, "loss.lambda_len must be a number, got null"),
    "train-lambda_coord-list": ("train", {"loss": {"lambda_coord": [0.5]}},
                                "loss.lambda_coord must be a number, got [0.5]"),
    "train-lr-true": ("train", {"optimizer": {"lr": True}}, "optimizer.lr must be a number, got true"),
    "train-eps-string": ("train", {"optimizer": {"eps": "1e-8"}}, 'optimizer.eps must be a number, got "1e-8"'),
    "train-beta2-null": ("train", {"optimizer": {"kind": "adam", "beta2": None}},
                         "optimizer.beta2 must be a number, got null"),
}


@pytest.mark.parametrize("command, cfg, line", NON_NUMBER_CASES.values(), ids=NON_NUMBER_CASES)
def test_non_number_config_value_is_one_config_error_naming_its_key(inputs, tmp_path, capsys, command, cfg, line):
    assert config_error(inputs, tmp_path, capsys, command, cfg) == f"error: config: {line}\n"


def test_decode_has_no_coverage_penalty_key(inputs, tmp_path, capsys):
    err = config_error(inputs, tmp_path, capsys, "decode", {"coverage_penalty_weight": 0.5})
    assert err == "error: config: unknown config key 'coverage_penalty_weight'\n"


TRAIN_FLAG_CASES = {  # train flags, the one error line after "error: config: "
    "embed_dim-zero": (["--embed-dim", "0"], "embed_dim must be at least 1, got 0"),
    "embed_dim-negative": (["--embed-dim", "-4"], "embed_dim must be at least 1, got -4"),
    "num_heads-zero": (["--num-heads", "0"], "num_heads must be at least 1, got 0"),
    "num_layers-negative": (["--num-layers", "-1"], "num_layers must be at least 0, got -1"),
    "lr-nan": (["--lr", "nan"], "lr must be finite, got nan"),
    "lr-inf": (["--lr", "inf"], "lr must be finite, got inf"),
    "weight_decay-nan": (["--weight-decay", "nan"], "weight_decay must be finite, got nan"),
}


def train_error(inputs, tmp_path, capsys, flags):
    """The stderr of a small train run on the shared corpus plus flags; it must exit 1 and write no --out."""
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["train", "--corpus", inputs["<corpus>"], "--out", out, "--epochs", "3", "--batch-size", "8",
                "--embed-dim", "8", "--num-layers", "1", "--num-heads", "2", *flags]) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("flags, line", TRAIN_FLAG_CASES.values(), ids=TRAIN_FLAG_CASES)
def test_train_size_and_optimizer_flags_out_of_range_are_one_config_error(inputs, tmp_path, capsys, flags, line):
    assert train_error(inputs, tmp_path, capsys, flags) == f"error: config: {line}\n"


@pytest.mark.parametrize("key", ["lr", "weight_decay"])
def test_train_non_finite_optimizer_value_in_a_config_file_is_one_config_error(inputs, tmp_path, capsys, key):
    err = config_error(inputs, tmp_path, capsys, "train", {"optimizer": {key: float("nan")}})
    assert err == f"error: config: {key} must be finite, got nan\n"


NON_FINITE_CASES = {  # command, config, the one error line after "error: config: "
    "train-lambda_len-inf": ("train", {"loss": {"lambda_len": math.inf}}, "lambda_len must be finite, got inf"),
    "train-lambda_coord-nan": ("train", {"loss": {"lambda_coord": math.nan}},
                               "lambda_coord must be finite, got nan"),
    "train-lambda_cov-minus-inf": ("train", {"loss": {"lambda_cov": -math.inf}},
                                   "lambda_cov must be finite, got -inf"),
    "sim-max_steps-nan": ("sim", {"max_steps": math.nan}, "max_steps must be an integer, got NaN"),
    "sim-beam_width-inf": ("sim", {"checkpoint": "<ckpt>", "beam_width": math.inf},
                           "beam_width must be an integer, got Infinity"),
}


@pytest.mark.parametrize("command, cfg, line", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES)
def test_non_finite_config_value_is_one_config_error(inputs, tmp_path, capsys, command, cfg, line):
    assert config_error(inputs, tmp_path, capsys, command, cfg) == f"error: config: {line}\n"


def test_train_that_diverges_is_one_config_error_naming_its_epoch(inputs, tmp_path, capsys):
    err = train_error(inputs, tmp_path, capsys, ["--optimizer", "sgd", "--lr", "1e300"])
    assert err.startswith("error: config: training diverged at epoch 0: non-finite loss term: ")
    assert err.count("\n") == 1, err


def test_integral_float_config_values_run_and_are_echoed_as_integers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 0.0, "count": 40.0, "workspace": {**desk_dict(), "z_max": 4.0},
                                "obstacle_density": 0}))
    out = tmp_path / "out"
    assert run(["gen", "--config", path, "--out", out]) == 0
    echoed = json.loads((out / "manifest.json").read_text())["config"]
    assert (echoed["seed"], echoed["count"], echoed["workspace"]["z_max"]) == (0, 40, 4)
    assert "seed\": 0," in (out / "manifest.json").read_text()
    assert "obstacle_density\": 0," in (out / "manifest.json").read_text()  # number keys echo as given
    plain = gen(tmp_path, "plain")
    assert (out / "corpus_train.jsonl").read_bytes() == (plain / "corpus_train.jsonl").read_bytes()


def test_python_dash_m_runs_the_cli_without_installing(tmp_path):
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    ok = subprocess.run([sys.executable, "-m", "latticepath", "gen", "--help"], cwd=tmp_path, env=env,
                        capture_output=True, text=True)
    assert ok.returncode == 0 and ok.stdout.startswith("usage: latticepath gen"), ok.stderr
    failed = subprocess.run([sys.executable, "-m", "latticepath", "gen", "--config", "missing.json",
                             "--out", "never"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert failed.returncode == 1 and failed.stderr == "error: io: config file not found: missing.json\n"
    assert not (tmp_path / "never").exists()


def test_decode_manifest_counts_ranked_candidates(inputs, tmp_path):
    counters = {}
    for mode in ("greedy", "beam"):
        manifests = []
        for name in ("first", "second"):
            out = tmp_path / f"{mode}_{name}"
            assert run(["decode", "--checkpoint", inputs["<ckpt>"], "--records", inputs["<gold>"], "--out", out,
                        "--seed", "0", "--mode", mode, "--beam-width", "3"]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        counters[mode] = json.loads(manifests[0])["counters"]
    greedy, beam = counters["greedy"], counters["beam"]
    assert greedy["candidates"] == greedy["rows_stepped"] > 0  # width 1: one candidate per stepped row
    assert greedy["rows_reused"] == 0
    # beam runs the greedy floor, then the width-3 search, whose rows each rank up to 7 actions; a row on
    # its job's greedy prefix takes the floor's step instead of stepping, and no floor row serves two rows
    model, _, _ = load_checkpoint(inputs["<ckpt>"])
    jobs = [(r.trajectory.start, r.context, r.workspace) for r in read_records(inputs["<gold>"])]
    stepped = DecodeCounters()
    decode_without_reuse(model, jobs, DecodeConfig(max_steps=model.cfg.max_seq_len, beam_width=3, mode="beam"),
                         stepped)
    assert beam["rows_stepped"] + beam["rows_reused"] == stepped.rows_stepped
    assert (beam["candidates"], beam["terminated"]) == (stepped.candidates, stepped.terminated)
    assert 0 < beam["rows_reused"] <= greedy["rows_stepped"]
    assert beam["candidates"] - greedy["candidates"] > stepped.rows_stepped - greedy["rows_stepped"]


def test_sim_without_a_checkpoint_still_checks_the_search_settings(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "sideways"}))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["sim", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: mode must be 'greedy' or 'beam'") and err.count("\n") == 1, err
    assert not out.exists()


# record and scenario file entries --------------------------------------------------


@pytest.mark.parametrize("line", ["[1, 2, 3]", '"text"'])
@pytest.mark.parametrize("command", ["decode", "eval", "sim"])
def test_json_line_that_is_not_an_object_is_one_schema_error(inputs, tmp_path, capsys, command, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    argv = {"decode": ["decode", "--checkpoint", inputs["<ckpt>"], "--records", bad],
            "eval": ["eval", "--gold", bad, "--pred", bad],
            "sim": ["sim", "--scenarios", bad]}[command]
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 1
    got = type(json.loads(line)).__name__
    assert capsys.readouterr().err == (f"error: schema: {bad}: line 1: malformed record "
                                       f"(expected a JSON object, got {got})\n")
    assert not out.exists()


SCENARIO_FIELD_CASES = {
    "expected-list": ("expected", [1], "scenario expected must be null or an object, got [1]"),
    "expected-unknown-key": ("expected", {"success": True, "nope": 1}, "scenario expected has unknown keys ['nope']"),
    "tags-string": ("tags", "abc", 'tags must be a list, got "abc"'),
    "tags-int": ("tags", ["ok", 3], "tags[1] must be a string, got 3"),
}


@pytest.mark.parametrize("key, value, detail", SCENARIO_FIELD_CASES.values(), ids=SCENARIO_FIELD_CASES)
def test_bad_scenario_expected_or_tags_is_one_schema_error_before_any_episode(inputs, tmp_path, capsys,
                                                                                monkeypatch, key, value, detail):
    rows = [json.loads(line) for line in inputs["<scenes>"].read_text().splitlines()]
    rows[1][key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    monkeypatch.setattr(cli, "run_scenarios", lambda *a, **k: pytest.fail("an episode ran"))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["sim", "--scenarios", bad, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema: {bad}: line 2: malformed record ({detail}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("file", ["<corpus>", "<scenes>"])
@pytest.mark.parametrize("line", [1, 2])
def test_non_utf8_byte_in_a_record_or_scenario_file_is_one_schema_error_naming_its_line(inputs, tmp_path,
                                                                                       capsys, file, line):
    raw = inputs[file].read_bytes().splitlines(keepends=True)
    at = raw[line - 1].index(b'"', 10)  # inside a JSON string, where a decoder that skipped the byte would pass
    raw[line - 1] = raw[line - 1][:at + 1] + b"\xff" + raw[line - 1][at + 1:]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(raw))
    argv = {"<corpus>": ["train", "--corpus"], "<scenes>": ["sim", "--scenarios"]}[file]
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([*argv, bad, "--out", out]) == 1
    assert capsys.readouterr().err == (f"error: schema: {bad}: line {line}: not UTF-8 "
                                       f"(byte 0xff at column {at + 2})\n")
    assert not out.exists()


def test_non_utf8_byte_after_a_bad_line_leaves_the_first_error_standing(inputs, tmp_path, capsys):
    raw = inputs["<corpus>"].read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"[1]\n" + raw[1].replace(b'"', b'"\xff', 1))
    capsys.readouterr()
    assert run(["train", "--corpus", bad, "--out", tmp_path / "never"]) == 1
    assert capsys.readouterr().err == (f"error: schema: {bad}: line 1: malformed record "
                                       f"(expected a JSON object, got list)\n")


def test_non_utf8_config_file_is_one_config_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1, "note": "\xff"}')
    out = tmp_path / "never"
    assert run(["gen", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {cfg}: not UTF-8 (") and "0xff" in err and err.count("\n") == 1, err
    assert not out.exists()


FILE_FIELDS = {  # file, the entry's keys and indices, its name in the error, whether it is a step
    "points": ("records", ("points", 1), "points[1]", False),
    "context-target": ("records", ("context", "target"), "context.target", False),
    "end_effector": ("scenes", ("scene", "end_effector"), "end_effector", False),
    "target": ("scenes", ("scene", "target"), "target", False),
    "container": ("scenes", ("scene", "container", 0), "container[0]", False),
    "obstacle-cell": ("scenes", ("scene", "dynamic_obstacles", 0, 0), "dynamic_obstacles[0][0]", False),
    "obstacle-step": ("scenes", ("scene", "dynamic_obstacles", 0, 1), "dynamic_obstacles[0][1]", True),
    "event-cell": ("scenes", ("events", 0, "cell"), "event.cell", False),
    "event-step": ("scenes", ("events", 0, "step"), "event.step", True),
}
BAD_VALUES = {"fraction": -0.6, "bool": True, "string": "1", "negative": -1}  # a negative coordinate is valid
FILE_FIELD_CASES = [pytest.param(*field, value, id=f"{name}-{kind}")
                    for name, field in FILE_FIELDS.items() for kind, value in BAD_VALUES.items()
                    if field[3] or kind != "negative"]


@pytest.mark.parametrize("file, keys, name, is_step, value", FILE_FIELD_CASES)
def test_non_integer_cell_or_step_in_a_file_is_one_schema_error_naming_it(inputs, tmp_path, capsys,
                                                                          file, keys, name, is_step, value):
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    if file == "records":
        rows = [json.loads(line) for line in inputs["<gold>"].read_text().splitlines()]
        argv, lineno = ["eval", "--gold", inputs["<gold>"], "--pred"], 2
    else:
        write_scenarios(tmp_path / "scenes.jsonl", [s for s in default_scenario_pack() if s.name == "slip_plus_detour"])
        rows = [json.loads(line) for line in (tmp_path / "scenes.jsonl").read_text().splitlines()]
        argv, lineno = ["sim", "--scenarios"], 1
    entry = rows[lineno - 1]
    for k in keys[:-1]:
        entry = entry[k]
    if is_step:
        entry[keys[-1]] = value
        detail = f"{name} must be a non-negative integer, got {json.dumps(value)}"
    else:
        entry[keys[-1]][0] = value
        detail = f"{name} must be three integers, got {json.dumps(entry[keys[-1]])}"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([*argv, bad, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: schema: {bad}: line {lineno}: malformed record ({detail})\n"
    assert not out.exists()


@pytest.mark.parametrize("container", [[], {}, "abc", 5, [[]]], ids=["empty", "object", "string", "number", "bad-cell"])
def test_a_container_other_than_null_or_cells_is_one_schema_error_before_any_episode(tmp_path, capsys, monkeypatch,
                                                                                    container):
    from latticepath import twinsim
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    monkeypatch.setattr(twinsim, "run_lock_step", lambda *a, **k: pytest.fail("an episode ran"))
    write_scenarios(tmp_path / "scenes.jsonl", default_scenario_pack()[:2])
    rows = [json.loads(line) for line in (tmp_path / "scenes.jsonl").read_text().splitlines()]
    rows[1]["scene"]["container"] = container
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["sim", "--scenarios", bad, "--out", out]) == 1
    if container == [[]]:
        detail = "container[0] must be three integers, got []"
    else:
        detail = f"container must be null or a non-empty list of cells, got {json.dumps(container)}"
    assert capsys.readouterr().err == f"error: schema: {bad}: line 2: malformed record ({detail})\n"
    assert not out.exists()


def test_integral_float_cells_and_steps_in_a_file_read_as_integers(inputs, tmp_path):
    from latticepath.twinsim import default_scenario_pack, read_scenarios, write_scenarios

    rows = [json.loads(line) for line in inputs["<gold>"].read_text().splitlines()]
    rows[0]["points"] = [[float(v) for v in p] for p in rows[0]["points"]]
    floats = tmp_path / "floats.jsonl"
    floats.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert read_records(floats) == read_records(inputs["<gold>"])
    pack = [s for s in default_scenario_pack() if s.name == "slip_plus_detour"]
    write_scenarios(tmp_path / "scenes.jsonl", pack)
    row = json.loads((tmp_path / "scenes.jsonl").read_text())
    row["events"][0]["step"] = 1.0
    row["scene"]["dynamic_obstacles"][0] = [[float(v) for v in row["scene"]["dynamic_obstacles"][0][0]], 3.0]
    (tmp_path / "scenes.jsonl").write_text(json.dumps(row) + "\n")
    assert read_scenarios(tmp_path / "scenes.jsonl") == pack


INT_FIELDS = {  # file, the entry's keys and indices, its name in the error, whether it must be non-negative
    **{bound: ("records", ("workspace", bound), f"workspace.{bound}", False)
       for bound in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")},
    "scene-bound": ("scenes", ("scene", "workspace", "z_max"), "workspace.z_max", False),
    "sequence_length_hint": ("records", ("context", "sequence_length_hint"), "context.sequence_length_hint", True),
    "seed": ("records", ("seed",), "seed", False),
    "node-id": ("records", ("task_graph", "nodes", 1, "id"), "task_graph.nodes[1].id", False),
    "edge-from": ("records", ("task_graph", "edges", 0, 0), "task_graph.edges[0][0]", False),
    "edge-to": ("records", ("task_graph", "edges", 2, 1), "task_graph.edges[2][1]", False),
}
BAD_INTS = {"fraction": 3.7, "bool": True, "string": "1", "negative": -1}
INT_FIELD_CASES = [pytest.param(*field, value, id=f"{name}-{kind}")
                   for name, field in INT_FIELDS.items() for kind, value in BAD_INTS.items()
                   if field[3] or kind != "negative"]


def _rows(inputs, tmp_path, file):
    """The gold record or scenario rows, the command reading the file, and the line to break."""
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    if file == "records":
        return ([json.loads(line) for line in inputs["<gold>"].read_text().splitlines()],
                ["eval", "--gold", inputs["<gold>"], "--pred"], 2)
    write_scenarios(tmp_path / "scenes.jsonl", default_scenario_pack()[:2])
    return [json.loads(line) for line in (tmp_path / "scenes.jsonl").read_text().splitlines()], ["sim", "--scenarios"], 2


@pytest.mark.parametrize("file, keys, name, non_negative, value", INT_FIELD_CASES)
def test_non_integer_count_bound_seed_or_node_id_in_a_file_is_one_schema_error_naming_it(
        inputs, tmp_path, capsys, file, keys, name, non_negative, value):
    rows, argv, lineno = _rows(inputs, tmp_path, file)
    entry = rows[lineno - 1]
    for k in keys[:-1]:
        entry = entry[k]
    entry[keys[-1]] = value
    kind = "a non-negative integer" if non_negative else "an integer"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([*argv, bad, "--out", out]) == 1
    assert capsys.readouterr().err == (f"error: schema: {bad}: line {lineno}: malformed record "
                                       f"({name} must be {kind}, got {json.dumps(value)})\n")
    assert not out.exists()


def test_integral_float_counts_bounds_seeds_and_node_ids_in_a_file_read_as_integers(inputs, tmp_path):
    from latticepath.twinsim import default_scenario_pack, read_scenarios, write_scenarios

    rows = [json.loads(line) for line in inputs["<gold>"].read_text().splitlines()]
    rows[0]["seed"] = 7
    ints = tmp_path / "ints.jsonl"
    ints.write_text("".join(json.dumps(r) + "\n" for r in rows))
    r = rows[0]
    r["seed"] = 7.0
    r["workspace"] = {k: float(v) if k.endswith(("_min", "_max")) else v for k, v in r["workspace"].items()}
    r["context"]["sequence_length_hint"] = float(r["context"]["sequence_length_hint"])
    r["task_graph"]["nodes"] = [{**n, "id": float(n["id"])} for n in r["task_graph"]["nodes"]]
    r["task_graph"]["edges"] = [[float(a), float(b)] for a, b in r["task_graph"]["edges"]]
    floats = tmp_path / "floats.jsonl"
    floats.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert read_records(floats) == read_records(ints)
    pack = default_scenario_pack()[:1]
    write_scenarios(tmp_path / "scenes.jsonl", pack)
    row = json.loads((tmp_path / "scenes.jsonl").read_text())
    row["scene"]["workspace"]["x_max"] = float(row["scene"]["workspace"]["x_max"])
    (tmp_path / "scenes.jsonl").write_text(json.dumps(row) + "\n")
    assert read_scenarios(tmp_path / "scenes.jsonl") == pack


OBJ = {"a": 1}
SHAPE_CASES = {  # file, the entry's keys, its new value, the error detail
    "active_kind": ("records", ("context", "active_kind"), OBJ, 'context.active_kind must be a string, got {"a": 1}'),
    "node-kind": ("records", ("task_graph", "nodes", 0, "kind"), OBJ,
                  'task_graph.nodes[0].kind must be a string, got {"a": 1}'),
    "split_tag": ("records", ("split_tag",), OBJ, 'split_tag must be a string, got {"a": 1}'),
    "nodes": ("records", ("task_graph", "nodes"), 5, "task_graph.nodes must be a list, got 5"),
    "edges": ("records", ("task_graph", "edges"), 5, "task_graph.edges must be a list, got 5"),
    "edge": ("records", ("task_graph", "edges"), [5], "task_graph.edges[0] must be a pair, got 5"),
    "name": ("scenes", ("name",), OBJ, 'name must be a string, got {"a": 1}'),
    "events": ("scenes", ("events",), 5, "events must be a list, got 5"),
    "event-kind": ("scenes", ("events",), [{"kind": OBJ, "step": 0}], 'event.kind must be a string, got {"a": 1}'),
    "event-mode": ("scenes", ("events",), [{"kind": "fail", "step": 0, "mode": OBJ}],
                   'event.mode must be a string, got {"a": 1}'),
    "dynamic_obstacles": ("scenes", ("scene", "dynamic_obstacles"), 5, "dynamic_obstacles must be a list, got 5"),
    "dynamic_obstacle": ("scenes", ("scene", "dynamic_obstacles"), [5], "dynamic_obstacles[0] must be a pair, got 5"),
}


@pytest.mark.parametrize("file, keys, value, detail", SHAPE_CASES.values(), ids=SHAPE_CASES)
def test_a_string_or_list_field_of_another_type_is_one_schema_error_naming_it(inputs, tmp_path, capsys,
                                                                              file, keys, value, detail):
    rows, _, lineno = _rows(inputs, tmp_path, file)
    entry = rows[lineno - 1]
    for k in keys[:-1]:
        entry = entry[k]
    entry[keys[-1]] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    if file == "records":
        runs = [["decode", "--checkpoint", inputs["<ckpt>"], "--records", bad],
                ["eval", "--gold", inputs["<gold>"], "--pred", bad]]
    else:
        runs = [["sim", "--scenarios", bad]]
    for argv in runs:
        out = tmp_path / "never"
        capsys.readouterr()
        assert run([*argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: schema: {bad}: line {lineno}: malformed record ({detail})\n"
        assert not out.exists()


# non-finite numbers and search lengths -----------------------------------------------


NON_FINITE_FEATURE_ARGV = {  # a command, up to the flag that reads the broken record file
    "decode": ["decode", "--checkpoint", "<ckpt>", "--records"],
    "train": ["train", "--epochs", "1", "--embed-dim", "8", "--num-layers", "1", "--num-heads", "2", "--corpus"],
    "eval-gold": ["eval", "--pred", "<pred>", "--gold"],
    "eval-pred": ["eval", "--gold", "<gold>", "--pred"],
}


NON_NUMBER_FEATURES = {  # feature entry 3 (or, with no index, the whole feature) -> the error detail
    "nan": (3, math.nan, "context.feature[3] must be a finite number, got nan"),
    "inf": (3, -math.inf, "context.feature[3] must be a finite number, got -inf"),
    "string": (3, "1.5", 'context.feature[3] must be a number, got "1.5"'),
    "bool": (3, True, "context.feature[3] must be a number, got true"),
    "not-a-list": (None, "123456789", 'context.feature must be a list of numbers, got "123456789"'),
}


@pytest.mark.parametrize("index, value, detail", NON_NUMBER_FEATURES.values(), ids=NON_NUMBER_FEATURES)
@pytest.mark.parametrize("argv", NON_FINITE_FEATURE_ARGV.values(), ids=NON_FINITE_FEATURE_ARGV)
def test_non_finite_context_feature_is_one_schema_error_naming_it(inputs, tmp_path, capsys, argv, index, value,
                                                                   detail):
    rows = [json.loads(line) for line in inputs["<gold>"].read_text().splitlines()]
    if index is None:
        rows[1]["context"]["feature"] = value
    else:
        rows[1]["context"]["feature"][index] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run([*(inputs.get(a, a) for a in argv), bad, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: schema: {bad}: line 2: malformed record ({detail})\n"
    assert not out.exists()


def test_points_that_are_not_a_list_are_one_schema_error(inputs, tmp_path, capsys):
    rows = [json.loads(line) for line in inputs["<gold>"].read_text().splitlines()]
    rows[1]["points"] = 5
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "never"
    capsys.readouterr()
    assert run(["eval", "--gold", inputs["<gold>"], "--pred", bad, "--out", out]) == 1
    assert capsys.readouterr().err == (f"error: schema: {bad}: line 2: malformed record "
                                       f"(points must be a list of [x, y, z] cells, got 5)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "sim"])
def test_max_steps_above_the_checkpoint_max_seq_len_is_one_config_error(tmp_path, capsys, command):
    corpus = gen(tmp_path, extra=["--max-path-length", "8"])
    ckpt = tmp_path / "untrained"
    assert run(["train", "--corpus", corpus / "corpus_train.jsonl", "--out", ckpt, "--epochs", "0",
                "--embed-dim", "8", "--num-layers", "1", "--num-heads", "2", "--max-seq-len", "8"]) == 0
    argv = {"decode": ["decode", "--records", corpus / "corpus_validation.jsonl"], "sim": ["sim"]}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--checkpoint", ckpt / "model.npz", "--max-steps", "9", "--out", out]) == 1
    assert capsys.readouterr().err == "error: config: max_steps 9 exceeds the checkpoint's max_seq_len 8\n"
    assert not out.exists()
    assert run([*argv, "--checkpoint", ckpt / "model.npz", "--max-steps", "8", "--out", out]) == 0  # the limit itself


def test_sim_max_steps_defaults_to_the_checkpoint_max_seq_len(inputs, tmp_path):
    null = tmp_path / "null.json"
    null.write_text(json.dumps({"max_steps": None}))  # null means unset, as in decode
    for cfg in ([], ["--config", null]):
        model_sim, oracle_sim = tmp_path / "model_sim", tmp_path / "oracle_sim"
        assert run(["sim", *cfg, "--scenarios", inputs["<scenes>"], "--checkpoint", inputs["<ckpt>"],
                    "--out", model_sim]) == 0
        assert run(["sim", *cfg, "--scenarios", inputs["<scenes>"], "--out", oracle_sim]) == 0
        steps = [json.loads((d / "manifest.json").read_text())["config"]["max_steps"] for d in (model_sim, oracle_sim)]
        assert steps == [24, 32]  # the fixture checkpoint's max_seq_len; without a checkpoint, 32


def test_gen_box_without_two_free_cells_is_one_config_error(tmp_path, capsys):
    out = tmp_path / "never"
    assert run(["gen", "--box", 0, 0, 0, 0, 0, 0, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: config: fewer than two free cells for a start and a goal: "
                                       "the workspace box has 1 cells and obstacle_density 0.0 blocks 0\n")
    assert not out.exists()


# sim manifest counters and reruns ---------------------------------------------------


def _outcome_rows(out):
    return [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]


def test_sim_manifest_counts_plan_rounds_and_episode_tallies(tmp_path):
    from latticepath.twinsim import FAILURE_MODES

    out = tmp_path / "sim"
    assert run(["sim", "--out", out, "--seed", "0"]) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    rows = _outcome_rows(out)
    assert sorted(counters) == ["detours", "failure_modes", "plan_batches", "plan_requests", "regrounds", "ticks"]
    assert 0 < counters["plan_batches"] < counters["plan_requests"]
    assert counters["ticks"] == sum(r["ticks"] for r in rows)
    assert counters["regrounds"] == sum(r["outcome"]["regrounds"] for r in rows)
    assert counters["detours"] == sum(r["outcome"]["detours"] for r in rows)
    assert counters["failure_modes"] == {m: sum(r["outcome"]["failure_mode"] == m for r in rows)
                                         for m in FAILURE_MODES}


@pytest.mark.parametrize("mode", ["greedy", "beam"])
def test_sim_checkpoint_reruns_are_byte_identical_and_count_decodes(inputs, tmp_path, mode):
    from latticepath.twinsim import default_scenario_pack, write_scenarios

    scenes = tmp_path / "scenes.jsonl"
    write_scenarios(scenes, default_scenario_pack())
    outs = [tmp_path / name for name in ("first", "second")]
    for out in outs:
        assert run(["sim", "--checkpoint", inputs["<ckpt>"], "--scenarios", scenes, "--out", out,
                    "--seed", "0", "--mode", mode, "--beam-width", "5", "--max-steps", "20"]) == 0
    for name in ("outcomes.jsonl", "table.txt", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    counters = json.loads((outs[0] / "manifest.json").read_text())["counters"]
    assert 0 < counters["plan_batches"] < counters["plan_requests"]
    assert sum(counters["terminated"].values()) == counters["plan_requests"]  # one decoded path per leg
    assert counters["rows_stepped"] >= counters["model_steps"] > 0
    assert (counters["rows_reused"] > 0) == (mode == "beam")  # beam rows on the greedy prefix reuse its steps
    assert counters["ticks"] == sum(r["ticks"] for r in _outcome_rows(outs[0]))
