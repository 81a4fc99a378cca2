"""`gen` streams its corpus: the same bytes as the list API, memory flat in the record count.

cmd_gen writes each record to its split's file as corpus_records yields it,
and generate_corpus is that generator as a list; the files, the manifest
counters and each record's context must agree with the list API, the
reference build_context and a failure's no-output rule.
"""

import dataclasses
import json
import tracemalloc

import pytest

from latticepath.cli import main
from latticepath.corpus import (
    _TASK_TEMPLATES,
    GenerationConfig,
    GenerationCounters,
    _task_template,
    corpus_records,
    generate_corpus,
    write_records,
)
from latticepath.lattice import LatticeCoord, Workspace, desk_workspace
from latticepath.taskgrid import build_context

ENVELOPE_BOX = (-22, 22, -22, 22, 0, 34)


def run(argv):
    return main([str(a) for a in argv])


CASES = {  # gen flags, and the GenerationConfig they resolve to
    "desk-0": (["--count", 120], GenerationConfig(desk_workspace(), count=120)),
    "desk-0.1": (["--count", 120, "--obstacle-density", 0.1],
                 GenerationConfig(desk_workspace(), count=120, obstacle_density=0.1)),
    "envelope-0.05": (["--count", 12, "--box", *ENVELOPE_BOX, "--obstacle-density", 0.05],
                      GenerationConfig(Workspace(*ENVELOPE_BOX), count=12, obstacle_density=0.05)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 3])
def test_streamed_gen_equals_the_list_api(tmp_path, case, seed):
    flags, cfg = CASES[case]
    out = tmp_path / "gen"
    assert run(["gen", "--out", out, "--seed", seed, *flags]) == 0
    counters = GenerationCounters()
    records = generate_corpus(cfg, seed, counters)
    for tag, name in (("train", "corpus_train.jsonl"), ("validation", "corpus_validation.jsonl")):
        write_records(tmp_path / name, [r for r in records if r.split_tag == tag])
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == dataclasses.asdict(counters)
    assert manifest["outputs"] == ["corpus_train.jsonl", "corpus_validation.jsonl", "manifest.json"]


def test_each_template_context_equals_build_context():
    for k, (kinds, active) in enumerate(_TASK_TEMPLATES):
        graph, unhinted = _task_template(k)
        assert tuple(n.kind for n in graph.nodes) == kinds
        for hint in (0, 1, 2, 7, 31, 64, 65, 200):
            for target in (None, LatticeCoord(0, 0, 0), LatticeCoord(-3, 2, 4)):
                assert unhinted.with_hint(hint, target) == build_context(
                    graph, active_id=active, done=frozenset(range(active)),
                    sequence_length_hint=hint, target=target)


def test_generated_records_share_their_template_graphs():
    records = generate_corpus(GenerationConfig(desk_workspace(), count=60), 4)
    assert len({id(r.trajectory.task) for r in records}) == len(_TASK_TEMPLATES)


def _gen_peak(tmp_path, count: int) -> int:
    """tracemalloc's peak over an envelope gen of count records at 5% obstacles."""
    tracemalloc.start()
    try:
        assert run(["gen", "--out", tmp_path / f"gen{count}", "--count", count, "--box", *ENVELOPE_BOX,
                    "--obstacle-density", 0.05]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_memory_does_not_grow_with_the_record_count(tmp_path):
    n = 25
    _gen_peak(tmp_path, 1)  # first-call allocations (argparse, caches) out of the way
    small, large = _gen_peak(tmp_path, n), _gen_peak(tmp_path, 4 * n)
    assert large <= 1.25 * small, (small, large)


def test_a_record_that_fails_mid_stream_leaves_no_file(tmp_path, capsys):
    # one cell of three blocked and one attempt per record: a record fails if its attempt is rejected
    cfg = GenerationConfig(Workspace(0, 0, 0, 0, 0, 2), count=6, obstacle_density=0.2, max_path_length=2,
                           max_resample_attempts=1)
    made = []
    with pytest.raises(ValueError, match="after 1 attempts"):
        for r in corpus_records(cfg, 1, GenerationCounters()):
            made.append(r.split_tag)
    assert set(made) == {"train", "validation"}  # both files had lines staged when the record failed
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_resample_attempts": 1}))
    out = tmp_path / "gen"
    assert run(["gen", "--config", config, "--out", out, "--seed", 1, "--count", 6, "--box", 0, 0, 0, 0, 0, 2,
                "--obstacle-density", 0.2, "--max-path-length", 2]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: could not generate a feasible record after 1 attempts")
    assert err.count("\n") == 1, err
    assert list(out.iterdir()) == []  # the directory stays, empty, as after a failed checkpoint save
