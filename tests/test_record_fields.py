"""Each record type's dict codec, text and log iterate its dataclass fields, so none can drift from them."""

import dataclasses
import json

import pytest

from latticepath.cli import main
from latticepath.evaluator import ERROR_LABELS, METRICS, EvalReport, format_report, format_table
from latticepath.model import LossBreakdown, LossConfig, ModelConfig, OptimizerConfig
from latticepath.twinsim import EpisodeOutcome

# every field away from its default (where it may be), so a round trip exercises each one
NON_DEFAULT = {
    "ModelConfig": ModelConfig(embed_dim=12, num_layers=3, num_heads=3, max_seq_len=9, task_feature_width=5),
    "OptimizerConfig": OptimizerConfig(kind="adam", lr=0.5, weight_decay=0.25, momentum=0.5, beta1=0.75,
                                       beta2=0.875, eps=0.125),
    "EvalReport": EvalReport(stepwise_accuracy=0.5, precision=0.25, recall=0.75, f1=0.375, valid_path_percent=0.625,
                             error_counts=dict(zip(ERROR_LABELS, (1, 2, 3, 4))), n_pairs=9),
    "EpisodeOutcome": EpisodeOutcome(success=False, failure_mode="mis_id", regrounds=2, detours=1,
                                     replanned_globally=True),
}
DECODABLE = {k: v for k, v in NON_DEFAULT.items() if hasattr(v, "from_dict")}


def field_names(value) -> list[str]:
    return [f.name for f in dataclasses.fields(value)]


@pytest.mark.parametrize("value", NON_DEFAULT.values(), ids=NON_DEFAULT)
def test_to_dict_keys_are_the_field_names(value):
    assert set(value.to_dict()) == set(field_names(value))
    for f in dataclasses.fields(value):
        if f.default is not dataclasses.MISSING and f.name != "move_vocab":  # move_vocab has one legal value
            assert getattr(value, f.name) != f.default, f.name


@pytest.mark.parametrize("value", DECODABLE.values(), ids=DECODABLE)
def test_from_dict_round_trips_through_json_and_ignores_extra_keys(value):
    d = json.loads(json.dumps(value.to_dict()))
    assert type(value).from_dict(d) == value
    assert type(value).from_dict({**d, "not_a_field": 1}) == value


def test_episode_outcome_dict_is_its_constructor_arguments():
    outcome = NON_DEFAULT["EpisodeOutcome"]
    assert EpisodeOutcome(**outcome.to_dict()) == outcome


@pytest.mark.parametrize("value, key", [pytest.param(v, k, id=f"{name}-{k}")
                                        for name, v in DECODABLE.items() for k in field_names(v)])
def test_from_dict_without_any_one_key_raises(value, key):
    d = value.to_dict()
    del d[key]
    with pytest.raises(KeyError, match=key):
        type(value).from_dict(d)


def test_eval_report_metrics_and_texts_cover_its_fields():
    assert [m for m, _ in METRICS] + ["error_counts", "n_pairs"] == field_names(EvalReport)
    report = NON_DEFAULT["EvalReport"]
    text = format_report(report)
    assert [line.split()[0] for line in text.splitlines()] == ["n_pairs", *(m for m, _ in METRICS), *ERROR_LABELS]
    header, row = format_table([("run", report)]).splitlines()
    assert header.split() == ["corpus", "n", *(col for _, col in METRICS), "E1", "E2", "E3", "L1"]
    assert row.split() == ["run", "9", "0.5000", "0.2500", "0.7500", "0.3750", "0.6250", "1", "2", "3", "4"]


@pytest.mark.parametrize("name", field_names(LossConfig))
def test_every_loss_weight_must_be_non_negative(name):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
        LossConfig(**{name: -0.5})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", field_names(LossConfig))
def test_every_loss_weight_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        LossConfig(**{name: value})


def test_loss_log_header_names_every_loss_breakdown_field(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "corpus"), "--seed", "0", "--count", "20"]) == 0
    assert main(["train", "--corpus", str(tmp_path / "corpus" / "corpus_train.jsonl"), "--out", str(tmp_path / "run"),
                 "--epochs", "2", "--batch-size", "8", "--embed-dim", "8", "--num-layers", "1",
                 "--num-heads", "2"]) == 0
    header, *rows = (tmp_path / "run" / "loss_log.tsv").read_text().splitlines()
    assert header.split("\t") == ["epoch", *field_names(LossBreakdown)]
    assert [row.split("\t")[0] for row in rows] == ["0", "1"]
    assert {len(row.split("\t")) for row in rows} == {1 + len(field_names(LossBreakdown))}
