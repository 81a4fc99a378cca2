"""Fixed-seed CLI outputs pinned by sha256, so any drift in a codec, a report format or the BFS shows.

The gen and eval digests are those of record schema v2 and the generator
that draws start and goal before the obstacles. The schema-v1 digests they
replace stay pinned too: the reference (v1) generator, written by the v1
writer, must still give the v1 corpora, and eval of those corpora the v1
reports. The v1 gen manifests are not rebuilt, as the reference keeps no
counters. The train and oracle `sim` digests were computed from the code
before configs, loss breakdowns, eval reports and twin outcomes serialized
from their dataclass fields; the train digests did not move with schema v2,
as its density-0 corpus holds the v1 generator's records. The gen manifests
hold the search counters, so they were re-pinned when the oracle began to
search the start-goal box first, and again when that stage became a
depth-first search; its corpora did not move. The decode digests pin the
greedy and beam-5 predictions of a small seeded model; they were computed
before the beam search began to drop hypotheses that can no longer win. The
train and decode digests were re-pinned when the model's coordinate tables
gave way to goal-sign tables (checkpoint format version 2, no model box in
the config): that changed the parameters, the checkpoint metadata and the
manifest's model config, and so the decoded paths. No other byte may move.
"""

import hashlib
import json
import random

import numpy as np
import pytest
import reference_lattice as ref

from latticepath.cli import main
from latticepath.corpus import GenerationConfig, Trajectory, read_records, write_records
from latticepath.lattice import Workspace, desk_workspace, neighbors

ENVELOPE_BOX = (-22, 22, -22, 22, 0, 34)

GEN_DIGESTS = {
    "desk": {
        "corpus_train.jsonl": "bc2cbdd4aa5c77c3a1a9fbde1a81ba916b5b4bfb70c8a11acfe1a353f0265eb2",
        "corpus_validation.jsonl": "f637c2280322681f2931be29a39502bf8a9cd67a9df786a2a24e71f2cd468652",
        "manifest.json": "b3d69b84ca5d4d39048f4786c00c3b97d4b03a0d0aab8160b403ad7be1437ae5",
    },
    "envelope": {
        "corpus_train.jsonl": "74bc7f23671a48d3e7703e1efc60006be4a17ea28dd41fbef7d96b15abf61b20",
        "corpus_validation.jsonl": "068b439e58e777eb21774e12be79e176d776c54c96c078608129e37fc6cb6dcc",
        "manifest.json": "feabe433fc11d633f22689bcbe61e2a45e777e3adf43c455c2252235a6bd358e",
    },
}

V1_GEN_DIGESTS = {  # and manifests 7192e91c… (desk) and d7cce10e… (envelope)
    "desk": {
        "corpus_train.jsonl": "cffbf0b02d1cee54d6a6dfbcfd6c820fc97cacaa6652500ec6260e87a0ff4062",
        "corpus_validation.jsonl": "35c19857308a322c536f9ed8f0abf9486895312e0bba1483fd2b997507cca8f2",
    },
    "envelope": {
        "corpus_train.jsonl": "7d2aeed88b3ac6f780cc0dfa4667537032ddb1bd2315fb156f051d18950e443d",
        "corpus_validation.jsonl": "d87c0de5c64aea4e17802a429ff007a3b52991ece00e81b4f9752df3e25a4c18",
    },
}

OUTCOMES_DIGEST = "416aff67ca7a5e2f8bd7304a8a5c36e54c09b8b1a51a19ce498cc3699ad7c30c"

GEN_ARGS = {
    "desk": ["--count", "300", "--obstacle-density", "0.1"],
    "envelope": ["--count", "2", "--box", *map(str, ENVELOPE_BOX), "--obstacle-density", "0.05",
                 "--max-path-length", "32"],
}


GEN_CONFIGS = {  # GEN_ARGS as the reference generator takes them
    "desk": GenerationConfig(desk_workspace(), count=300, obstacle_density=0.1),
    "envelope": GenerationConfig(Workspace(*ENVELOPE_BOX), count=2, obstacle_density=0.05, max_path_length=32),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN_ARGS))
def test_gen_outputs_match_pinned_digests(tmp_path, name):
    assert main(["gen", "--out", str(tmp_path), "--seed", "0", *GEN_ARGS[name]]) == 0
    assert {f: sha256(tmp_path / f) for f in GEN_DIGESTS[name]} == GEN_DIGESTS[name]


def write_v1_corpus(out, cfg: GenerationConfig) -> None:
    """The reference generator's corpus at seed 0, as schema v1 gen wrote it."""
    out.mkdir()
    records = ref.generate_corpus(cfg, 0)
    for split in ("train", "validation"):
        (out / f"corpus_{split}.jsonl").write_bytes(ref.v1_bytes(r for r in records if r.split_tag == split))


@pytest.mark.parametrize("name", sorted(GEN_ARGS))
def test_reference_generator_and_v1_writer_give_the_v1_digests(tmp_path, name):
    write_v1_corpus(tmp_path / "v1", GEN_CONFIGS[name])
    assert {f: sha256(tmp_path / "v1" / f) for f in V1_GEN_DIGESTS[name]} == V1_GEN_DIGESTS[name]


def envelope_scenes(n: int) -> list[dict]:
    """Seeded full-envelope scenes: 5% static obstacles, a straight route kept clear, a slip and a pop-up on it."""
    x0, x1, y0, y1, z0, z1 = ENVELOPE_BOX
    cells = [(x, y, z) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1) for z in range(z0, z1 + 1)]
    scenes = []
    for i in range(n):
        rng = random.Random(f"pinned-envelope:{i}")
        obstacles = set(rng.sample(cells, round(0.05 * len(cells))))
        ee = (rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(12, 22))
        target = (ee[0] + 7, ee[1] - 6, ee[2] + 4)
        drop = (target[0] - 5, target[1] + 4, target[2] - 6)
        slip = (target[0] + 1, target[1] + 1, target[2])
        route = [ee]
        for axis in range(3):
            while route[-1][axis] != target[axis]:
                nxt = list(route[-1])
                nxt[axis] += 1 if target[axis] > nxt[axis] else -1
                route.append(tuple(nxt))
        obstacles.difference_update(route, (drop, slip))
        scenes.append({
            "schema_version": 1,
            "name": f"envelope_{i}",
            "scene": {
                "workspace": {"x_min": x0, "x_max": x1, "y_min": y0, "y_max": y1, "z_min": z0, "z_max": z1,
                              "resolution_mm": 20.0, "obstacles": [list(c) for c in sorted(obstacles)]},
                "end_effector": list(ee),
                "target": list(target),
                "container": [list(drop)],
                "dynamic_obstacles": [[list(route[3]), 1]],
            },
            "events": [{"kind": "slip", "step": 5, "cell": list(slip), "mode": None}],
            "tags": ["slip", "detour"],
            "expected": None,
        })
    return scenes


def test_envelope_oracle_outcomes_match_pinned_digest(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in envelope_scenes(3)))
    assert main(["sim", "--scenarios", str(scenes), "--out", str(tmp_path / "sim"), "--seed", "0"]) == 0
    assert sha256(tmp_path / "sim" / "outcomes.jsonl") == OUTCOMES_DIGEST


EVAL_DIGESTS = {
    "eval_a/report.json": "3754d4161a5e81c6524aa6fa97e5b4ee45cdae70701bbd05f002e71f92bd8451",
    "eval_a/report.txt": "b18261f4ed3cd9f1621c00ae636ece0672da27c68fd135f00dcf04b27b2ffcc6",
    "eval_b/report.json": "3040d61fc72b87807690f152541cf1b6ca5e74fb9f8a3a8000278dba130ceaaf",
    "eval_b/report.txt": "0b7e9aaf0901aba1d828bb55b32eaa06c98395fbf122e96e42cc0fb1aee540ac",
    "one/summary.txt": "b18261f4ed3cd9f1621c00ae636ece0672da27c68fd135f00dcf04b27b2ffcc6",
    "two/summary.txt": "5acae69466295701399980c4a340f0789eacf87a225564ec79aa2ff840ae8f70",
}

V1_EVAL_DIGESTS = {  # the same reports on the reference generator's corpus
    "eval_a/report.json": "de85e265dafb25d7afa9e50ddc9f5ceafa1cb219a362eb119b2112c1a71223ab",
    "eval_a/report.txt": "7232999394dd46e77814214b7cd8ca229d74a3fb31e7afad951d95cd7de2d985",
    "eval_b/report.json": "51e4f963379fa94b15a54e8f4de0b2c2567e2644002b949b02d71cb70e606205",
    "eval_b/report.txt": "a8958a8365a8d430249ed8c7c6bb536fbec56f00490f52bde471c9358c947bfc",
    "one/summary.txt": "7232999394dd46e77814214b7cd8ca229d74a3fb31e7afad951d95cd7de2d985",
    "two/summary.txt": "3263464f310913bbc046159f3e54dc05d85d012ce0b24a9d1adae13c886e2408",
}

TRAIN_DIGESTS = {
    "manifest.json": "9cef4f1dc86c81fbf9f269cc799315825836c05b669b77086762aef06cc9a2fc",
    "__meta__": "885ca691c22c9e24baeb81723497c061e7bfae6cb37d649dd021dbb22011cdb1",
}

PACK_OUTCOMES_DIGEST = "514696dafc35129cacb565fa1a98f1dfcb774801de20f0c2aa40abda2b4e5607"


def perturbed(points: tuple, i: int, w) -> tuple:
    """Record i's prediction: its gold path as is, or with a truncated tail, an adjacent swap,
    a boundary nudge or an illegal jump, by i mod 5."""
    rule, pts = i % 5, list(points)
    if rule == 1 and len(pts) > 1:
        del pts[-1]
    elif rule == 2 and len(pts) > 3:
        pts[1], pts[2] = pts[2], pts[1]
    elif rule == 3 and len(pts) > 1:  # another legal last step
        pts[-1] = next((c for c in neighbors(pts[-2], w) if c != pts[-1]), pts[-1])
    elif rule == 4 and len(pts) > 2:
        del pts[1]
    return tuple(pts)


def write_predictions(gold_path, pred_path) -> None:
    golds = read_records(gold_path)
    write_records(pred_path, [
        type(r)(trajectory=Trajectory(points=perturbed(r.trajectory.points, i, r.workspace),
                                      task=r.trajectory.task, seed=r.trajectory.seed),
                workspace=r.workspace, context=r.context, split_tag=r.split_tag)
        for i, r in enumerate(golds)
    ])


def eval_and_report(gold_dir) -> None:
    """eval of perturbed predictions on the validation and train splits, and report of one and both."""
    for name, split in (("eval_a", "validation"), ("eval_b", "train")):
        write_predictions(f"{gold_dir}/corpus_{split}.jsonl", f"pred_{split}.jsonl")
        assert main(["eval", "--gold", f"{gold_dir}/corpus_{split}.jsonl", "--pred", f"pred_{split}.jsonl",
                     "--out", name]) == 0
    assert main(["report", "eval_a/report.json", "--out", "one"]) == 0
    assert main(["report", "eval_a/report.json", "eval_b/report.json", "--out", "two"]) == 0


def test_eval_and_report_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "corpus", "--seed", "0", "--count", "60", "--obstacle-density", "0.1"]) == 0
    eval_and_report("corpus")
    assert {f: sha256(tmp_path / f) for f in EVAL_DIGESTS} == EVAL_DIGESTS


def test_eval_of_the_reference_v1_corpus_matches_the_v1_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_v1_corpus(tmp_path / "corpus", GenerationConfig(desk_workspace(), count=60, obstacle_density=0.1))
    eval_and_report("corpus")
    assert {f: sha256(tmp_path / f) for f in V1_EVAL_DIGESTS} == V1_EVAL_DIGESTS


def test_train_manifest_and_checkpoint_metadata_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "corpus", "--seed", "0", "--count", "40"]) == 0
    assert main(["train", "--corpus", "corpus/corpus_train.jsonl", "--out", "run", "--seed", "3",
                 "--epochs", "2", "--batch-size", "8", "--embed-dim", "8", "--num-layers", "1",
                 "--num-heads", "2", "--max-seq-len", "20", "--optimizer", "adam", "--lr", "0.003",
                 "--weight-decay", "0.01"]) == 0
    with np.load(tmp_path / "run" / "model.npz", allow_pickle=False) as f:
        meta = str(f["__meta__"][()]).encode()
    got = {"manifest.json": sha256(tmp_path / "run" / "manifest.json"), "__meta__": hashlib.sha256(meta).hexdigest()}
    assert got == TRAIN_DIGESTS
    log = (tmp_path / "run" / "loss_log.tsv").read_text().splitlines()
    assert log[0] == "epoch\tseq\tcoord\tvalid\tcov\tlen\ttotal" and len(log) == 3


def test_default_pack_oracle_outcomes_match_pinned_digest(tmp_path):
    assert main(["sim", "--out", str(tmp_path), "--seed", "0"]) == 0
    assert sha256(tmp_path / "outcomes.jsonl") == PACK_OUTCOMES_DIGEST


DECODE_DIGESTS = {
    "greedy": "c0aba7b62d716d110c87eaa59329164e2ad50e4846ae73d12b778415ba223d4d",
    "beam": "1befc4e46d22d10a22043506df700e654bc73aaa0d5ab69ff858903790490af2",
}


def test_greedy_and_beam_predictions_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "corpus", "--seed", "0", "--count", "200", "--obstacle-density", "0.1"]) == 0
    assert main(["train", "--corpus", "corpus/corpus_train.jsonl", "--out", "run", "--seed", "3",
                 "--epochs", "4", "--batch-size", "16", "--embed-dim", "16", "--num-layers", "1",
                 "--num-heads", "2", "--max-seq-len", "20", "--optimizer", "adam", "--lr", "0.003"]) == 0
    for mode in DECODE_DIGESTS:
        assert main(["decode", "--checkpoint", "run/model.npz", "--records", "corpus/corpus_validation.jsonl",
                     "--out", mode, "--mode", mode, "--beam-width", "5"]) == 0
    assert {mode: sha256(tmp_path / mode / "predictions.jsonl") for mode in DECODE_DIGESTS} == DECODE_DIGESTS
