import json
import zipfile

import numpy as np
import pytest

from latticepath import cli
from latticepath.checkpoint import load_checkpoint
from latticepath.cli import main
from latticepath.corpus import read_records
from latticepath.decoder import validate_path

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


def test_gen_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeed": 1}))
    out = tmp_path / "never"
    assert run(["gen", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "seeed" in err
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


def test_decode_rejects_records_outside_the_model_box(tmp_path, capsys):
    desk = gen(tmp_path)
    model_dir = train(tmp_path, desk)
    big = gen(tmp_path, "big", extra=["--box", "-6", "6", "-6", "6", "0", "8"])
    records = big / "corpus_validation.jsonl"
    out = tmp_path / "decoded"
    capsys.readouterr()
    assert run(["decode", "--checkpoint", model_dir / "model.npz", "--records", records,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema: {records}: line 1: ") and err.count("\n") == 1, err
    assert "model box" in err
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    corpus = gen(base)
    ckpt = train(base, corpus, extra=["--optimizer", "adam"]) / "model.npz"
    with zipfile.ZipFile(ckpt) as zf:
        assert any(n.startswith("slot/") for n in zf.namelist())
    return corpus, ckpt


@pytest.mark.parametrize("corrupt", [_truncated, _empty, _not_a_checkpoint, _without_slots])
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
