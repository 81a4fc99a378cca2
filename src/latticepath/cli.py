"""Command-line runner binding generation, training, decoding, evaluation, and simulation.

Subcommands:

* ``gen``    write a generated corpus (train + validation JSONL files)
* ``train``  fit a model on a corpus file; writes a checkpoint and a loss log
* ``decode`` decode predictions for a record file from a checkpoint
* ``eval``   compare prediction records against gold records
* ``sim``    run scripted twin scenarios (BFS oracle or checkpointed planner)
* ``report`` render stored eval reports as text

Every writing command takes ``--config <json>`` plus command flags (flags win
over the config file), ``--seed``, and ``--out <dir>``. Outputs land in the
out directory next to a ``manifest.json`` echoing the fully resolved config
and seed; nothing carries a timestamp, so identical config + seed reruns are
byte-identical. The whole configuration and all inputs are validated before
anything is written. Failures exit nonzero after printing a single line
``error: <code>: <detail>`` (codes: config, schema, io, infeasible).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusFormatError,
    GenerationConfig,
    GenerationCounters,
    UnreachableGoalError,
    check_trajectory,
    corpus_records,
    read_records,
    write_jsonl,
    write_records,
    write_split_records,
)
from .corpus import generate_corpus  # noqa: F401 (perfbench/tracer.py wraps cli.generate_corpus)
from .decoder import DecodeConfig, DecodeCounters, decode_records
from .evaluator import EvalReport, evaluate_records, format_report, format_table
from .lattice import Workspace, desk_workspace, in_bounds, read_int, read_number
from .model import (
    LossBreakdown,
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    TrainCounters,
    context_features,
    fit,
    supervision_row,
)
from .twinsim import (
    ModelPlanner,
    OraclePlanner,
    TwinCounters,
    check_expectation,
    default_scenario_pack,
    format_outcome_table,
    read_scenarios,
    run_scenarios,
)


class CliError(Exception):
    """Config or input problem surfaced as `error: <code>: <detail>`."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise CliError("io", f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise CliError("config", f"{path}: invalid JSON ({e})") from None
    except UnicodeDecodeError as e:
        raise CliError("config", f"{path}: not UTF-8 ({e})") from None
    if not isinstance(cfg, dict):
        raise CliError("config", f"{path}: top level must be a JSON object")
    return cfg


# Config keys whose values name files; anything but a string (or unset) is a config error.
PATH_KEYS = ("corpus", "resume", "checkpoint", "records", "gold", "pred", "scenarios")


def _resolve(defaults: dict, file_cfg: dict, args) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys are errors.

    A flag's argparse dest is the config key it sets; a dotted dest such as
    ``model.embed_dim`` sets a key of a nested block.
    """
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in defaults.items()}
    for k, v in file_cfg.items():
        if k not in cfg:
            raise CliError("config", f"unknown config key {k!r}")
        if isinstance(cfg[k], dict):
            if not isinstance(v, dict):
                raise CliError("config", f"config key {k!r} must be an object")
            for kk, vv in v.items():
                if kk not in cfg[k]:
                    raise CliError("config", f"unknown config key {k!r}.{kk!r}")
                cfg[k][kk] = vv
        else:
            cfg[k] = v
    for key, v in vars(args).items():
        block, _, sub = key.rpartition(".")
        target = cfg[block] if block else cfg
        if v is not None and sub in target:
            target[sub] = v
    for k in PATH_KEYS:
        if cfg.get(k) is not None and not isinstance(cfg[k], str):
            raise CliError("config", f"{k} must be a path string, got {cfg[k]!r}")
    return cfg


def _integer(block, key, name: str | None = None) -> int:
    """block[key] (a dict or a list) as an int, stored back so the manifest echoes the value used.

    lattice.read_int's rule: a float with no fractional part counts as its
    integer; anything else is a config error naming the key (`name`, for a
    key of a nested block).
    """
    with _config_errors():
        block[key] = read_int(block[key], name or key)
    return block[key]


def _number(block, key, name: str | None = None) -> float:
    """block[key] as a float; the value stays as given, so the manifest echoes it unchanged.

    lattice.read_number's rule: an int or a float counts; a bool, null or any
    other type is a config error naming the key (`name`, for a key of a
    nested block).
    """
    with _config_errors():
        return read_number(block[key], name or key)


@contextlib.contextmanager
def _config_errors():
    """Report a config value of the wrong type, range or shape as `error: config:`."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as e:
        raise CliError("config", str(e)) from None


def _write_outputs(out_dir: str, command: str, cfg: dict, files: dict, counters: list | tuple = ()) -> None:
    """Write every output plus the manifest, or leave none of them behind.

    A file's content is its text, or a function that writes the file at the
    path it is given; a tuple of names is written by one function given a
    path for each. Each file is staged under a temporary name and moved into
    place only once all are written, manifest.json last. Counters, if any,
    are dataclasses of seed-determined tallies, recorded in the manifest as
    they stand once the other files are written. After a failure the out
    directory stays, with no file of this command in it.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = [n for key in files for n in ((key,) if isinstance(key, str) else key)]
    staged = {name: os.path.join(out_dir, f".{name}.partial") for name in names + ["manifest.json"]}

    def write_text(path, text):
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    try:
        for key, content in files.items():
            if isinstance(key, tuple):
                content(*(staged[n] for n in key))
            elif callable(content):
                content(staged[key])
            else:
                write_text(staged[key], content)
        manifest = {"command": command, "config": cfg, "outputs": sorted(names) + ["manifest.json"]}
        if counters:
            manifest["counters"] = {k: v for c in counters for k, v in dataclasses.asdict(c).items()}
        write_text(staged["manifest.json"], json.dumps(manifest, sort_keys=True) + "\n")
    except BaseException:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for name, tmp in staged.items():
        os.replace(tmp, os.path.join(out_dir, name))


# gen ------------------------------------------------------------------------------


def cmd_gen(args) -> int:
    defaults = {
        "seed": 0,
        "count": 1000,
        "train_fraction": 0.8,
        "obstacle_density": 0.0,
        "max_path_length": 32,
        "max_resample_attempts": 200,
        "workspace": desk_workspace().to_dict(),
    }
    cfg = _resolve(defaults, _load_config_file(args.config), args)
    if args.box is not None:
        x0, x1, y0, y1, z0, z1 = args.box
        cfg["workspace"] = Workspace(x0, x1, y0, y1, z0, z1).to_dict()
    seed = _integer(cfg, "seed")
    for key in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"):
        _integer(cfg["workspace"], key, f"workspace.{key}")
    _number(cfg["workspace"], "resolution_mm", "workspace.resolution_mm")
    with _config_errors():
        gcfg = GenerationConfig(
            workspace=Workspace.from_dict(cfg["workspace"]),
            count=_integer(cfg, "count"),
            obstacle_density=_number(cfg, "obstacle_density"),
            max_path_length=_integer(cfg, "max_path_length"),
            train_fraction=_number(cfg, "train_fraction"),
            max_resample_attempts=_integer(cfg, "max_resample_attempts"),
        )
    if len(gcfg.workspace.ranks):
        raise CliError("config", "workspace.obstacles must be empty: gen draws each record's obstacles "
                                 "(set obstacle_density)")

    counters = GenerationCounters()
    _write_outputs(args.out, "gen", cfg, {
        ("corpus_train.jsonl", "corpus_validation.jsonl"):
            lambda train, val: write_split_records(train, val, corpus_records(gcfg, seed, counters)),
    }, counters=[counters])
    return 0


# train ----------------------------------------------------------------------------


def cmd_train(args) -> int:
    model_defaults = ModelConfig().to_dict()
    del model_defaults["move_vocab"]  # fixed by the move set, not a config key
    defaults = {
        "seed": 0,
        "corpus": None,
        "epochs": 30,
        "batch_size": 64,
        "resume": None,
        "model": {**model_defaults, "task_feature_width": None},  # unset: from the corpus
        "optimizer": OptimizerConfig().to_dict(),
        "loss": dataclasses.asdict(LossConfig()),
    }
    cfg = _resolve(defaults, _load_config_file(args.config), args)
    if cfg["corpus"] is None:
        raise CliError("config", "train requires --corpus (or a corpus path in the config)")
    seed, epochs, batch_size = (_integer(cfg, k) for k in ("seed", "epochs", "batch_size"))
    with _config_errors():
        loss_cfg = LossConfig(**{k: _number(cfg["loss"], k, f"loss.{k}") for k in cfg["loss"]})
        optimizer = Optimizer(OptimizerConfig.from_dict(cfg["optimizer"]))
    if epochs < 0:
        raise CliError("config", "epochs must be non-negative")
    if batch_size < 1:
        raise CliError("config", "batch_size must be positive")

    model = mcfg = None
    if cfg["resume"] is not None:
        model, saved, _ = load_checkpoint(cfg["resume"])
        mcfg = model.cfg  # the checkpoint's architecture and, if it saved one, its optimizer win on resume
        optimizer = saved or optimizer

    def check(record):
        nonlocal mcfg
        if mcfg is None:  # a fresh model's context width comes from the first record
            mcfg = _model_config(cfg["model"], record)
        _check_decodable(mcfg, record)
        check_trajectory(record.trajectory, record.workspace)  # the one check of each gold path

    records = read_records(cfg["corpus"], check=check)
    if not records:
        raise CliError("config", f"corpus {cfg['corpus']} contains no records")
    longest = max(len(r.trajectory) for r in records)
    cfg["model"], cfg["optimizer"] = mcfg.to_dict(), optimizer.cfg.to_dict()
    if model is None:
        model = PathModel(mcfg, seed=seed)
    if longest > model.cfg.max_seq_len:
        raise CliError(
            "config",
            f"corpus has a {longest}-point trajectory but max_seq_len is {model.cfg.max_seq_len}",
        )

    def drain():
        """The records oldest first, each dropped (with its cached grid) once its row is made."""
        records.reverse()
        while records:
            r = records.pop()
            yield r.trajectory, r.context, r.workspace

    rows = [supervision_row(*item, model.cfg) for item in drain()]

    log_lines = ["\t".join(["epoch", *(f.name for f in dataclasses.fields(LossBreakdown))])]

    def log(epoch, bd):
        log_lines.append("\t".join([str(epoch), *(f"{v:.10g}" for v in dataclasses.astuple(bd))]))

    counters = TrainCounters()
    try:  # a diverging run ends on its non-finite loss, not on numpy's overflow warnings
        with np.errstate(all="ignore"):
            fit(model, rows, loss_cfg, optimizer, epochs=epochs, batch_size=batch_size, seed=seed, log=log,
                counters=counters)
    except FloatingPointError as e:
        raise CliError("config", str(e)) from None

    _write_outputs(args.out, "train", cfg, {
        "loss_log.tsv": "\n".join(log_lines) + "\n",
        "model.npz": lambda path: save_checkpoint(path, model, optimizer, optimizer.step_count),
    }, counters=[counters])
    return 0


def _model_config(m: dict, first) -> ModelConfig:
    """A fresh model's config; an unset context width comes from the first record."""
    m = {**m, "task_feature_width": m.get("task_feature_width") or len(first.context.task_feature_vector)}
    sizes = {k: _integer(m, k, f"model.{k}") for k in m}
    with _config_errors():
        return ModelConfig(**sizes)


# decode ---------------------------------------------------------------------------


# The search keys of decode and sim; an unset max_steps comes from the checkpoint (see _decode_config).
SEARCH_DEFAULTS = {"mode": DecodeConfig.mode, "beam_width": DecodeConfig.beam_width, "max_steps": None}


def cmd_decode(args) -> int:
    defaults = {"seed": 0, "checkpoint": None, "records": None, **SEARCH_DEFAULTS}
    cfg = _resolve(defaults, _load_config_file(args.config), args)
    _integer(cfg, "seed")
    if cfg["checkpoint"] is None or cfg["records"] is None:
        raise CliError("config", "decode requires --checkpoint and --records")
    model, _, _ = load_checkpoint(cfg["checkpoint"])
    dcfg = _decode_config(cfg, model)
    records = read_records(cfg["records"], check=lambda r: _check_decodable(model.cfg, r))
    counters = DecodeCounters()
    preds = decode_records(model, records, dcfg, counters)
    _write_outputs(args.out, "decode", cfg, {
        "predictions.jsonl": lambda path: write_records(path, preds),
    }, counters=[counters])
    return 0


def _decode_config(cfg: dict, model: PathModel | None) -> DecodeConfig:
    """The search settings of a decode or sim config.

    An unset max_steps is the model's max_seq_len (DecodeConfig's default without one); a larger
    one is refused before any decoding, which would fail only once some path outgrew the model.
    """
    if cfg["max_steps"] is None:
        cfg["max_steps"] = DecodeConfig.max_steps if model is None else model.cfg.max_seq_len
    max_steps, beam_width = _integer(cfg, "max_steps"), _integer(cfg, "beam_width")
    with _config_errors():
        dcfg = DecodeConfig(max_steps=max_steps, beam_width=beam_width, mode=str(cfg["mode"]))
    if model is not None and max_steps > model.cfg.max_seq_len:
        raise CliError("config", f"max_steps {max_steps} exceeds the checkpoint's max_seq_len "
                                 f"{model.cfg.max_seq_len}")
    return dcfg


def _check_decodable(mcfg: ModelConfig, record) -> None:
    """A record's path must start on a free cell of its workspace, and its context must fit the model."""
    context_features(record.context, mcfg)
    start, w = record.trajectory.start, record.workspace
    if not in_bounds(start, w):
        where = "on an obstacle" if w._in_box(start) else "outside the workspace box"
        raise ValueError(f"path starts {where}, at {list(start.as_tuple())}")


# eval -----------------------------------------------------------------------------


def cmd_eval(args) -> int:
    cfg = _resolve({"seed": 0, "gold": None, "pred": None}, _load_config_file(args.config), args)
    _integer(cfg, "seed")
    if cfg["gold"] is None or cfg["pred"] is None:
        raise CliError("config", "eval requires --gold and --pred")
    golds = read_records(cfg["gold"])
    preds = read_records(cfg["pred"])
    try:
        report = evaluate_records(preds, golds)
    except ValueError as e:
        raise CliError("schema", str(e)) from None
    _write_outputs(args.out, "eval", cfg, {
        "report.json": json.dumps(report.to_dict(), sort_keys=True) + "\n",
        "report.txt": format_report(report),
    })
    return 0


# sim ------------------------------------------------------------------------------


def cmd_sim(args) -> int:
    defaults = {"seed": 0, "scenarios": None, "checkpoint": None, **SEARCH_DEFAULTS}
    cfg = _resolve(defaults, _load_config_file(args.config), args)
    _integer(cfg, "seed")
    model = None if cfg["checkpoint"] is None else load_checkpoint(cfg["checkpoint"])[0]
    dcfg = _decode_config(cfg, model)  # checked even when the BFS oracle plans, since the manifest echoes it
    scenarios = read_scenarios(cfg["scenarios"]) if cfg["scenarios"] is not None else default_scenario_pack()
    if not scenarios:
        raise CliError("config", "no scenarios to run")
    planner = OraclePlanner() if model is None else ModelPlanner(model, dcfg)

    twin = TwinCounters()
    results = run_scenarios(scenarios, planner, twin)
    counters = [twin] if model is None else [twin, planner.counters]  # with a model, its decode calls too
    rows = [{
        "name": s.name,
        "tags": list(s.tags),
        "outcome": r.outcome.to_dict(),
        "expected_ok": check_expectation(s, r.outcome),
        "grasped": r.grasped,
        "released": r.released,
        "ticks": r.ticks,
        "trace": [list(p.as_tuple()) for p in r.trace.points],
    } for s, r in results]
    _write_outputs(args.out, "sim", cfg, {
        "outcomes.jsonl": lambda path: write_jsonl(path, rows),
        "table.txt": format_outcome_table(results),
    }, counters=counters)
    return 0


# report ---------------------------------------------------------------------------


def _read_eval_report(path: str) -> EvalReport:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return EvalReport.from_dict(json.load(f))
    except json.JSONDecodeError as e:
        raise CliError("schema", f"{path}: invalid JSON ({e})") from None
    except (KeyError, TypeError, ValueError) as e:
        raise CliError("schema", f"{path}: not an eval report ({e})") from None


def cmd_report(args) -> int:
    reports = [(os.path.basename(os.path.dirname(p)) or p, _read_eval_report(p)) for p in args.reports]
    if len(reports) == 1:
        text = format_report(reports[0][1])
    else:
        text = format_table(reports)
    if args.out is not None:
        _write_outputs(args.out, "report", {"reports": list(args.reports)}, {"summary.txt": text})
    else:
        sys.stdout.write(text)
    return 0


# parser ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged, so callers share it."""
    p = argparse.ArgumentParser(prog="latticepath", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        sp.add_argument("--seed", type=int, help="global run seed (default 0)")
        sp.add_argument("--out", required=out_required, help="output directory")

    g = sub.add_parser("gen", help="generate an oracle corpus")
    common(g)
    g.add_argument("--count", type=int)
    g.add_argument("--train-frac", dest="train_fraction", type=float)
    g.add_argument("--obstacle-density", type=float)
    g.add_argument("--max-path-length", type=int)
    g.add_argument("--box", type=int, nargs=6, metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"))
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model on a corpus file")
    common(t)
    t.add_argument("--corpus")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--resume", help="checkpoint to continue from (its architecture and optimizer win)")
    t.add_argument("--embed-dim", dest="model.embed_dim", type=int)
    t.add_argument("--num-layers", dest="model.num_layers", type=int)
    t.add_argument("--num-heads", dest="model.num_heads", type=int)
    t.add_argument("--max-seq-len", dest="model.max_seq_len", type=int)
    t.add_argument("--lr", dest="optimizer.lr", type=float)
    t.add_argument("--optimizer", dest="optimizer.kind", choices=("sgd", "momentum", "adam"))
    t.add_argument("--weight-decay", dest="optimizer.weight_decay", type=float)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("decode", help="decode predictions from a checkpoint")
    common(d)
    d.add_argument("--checkpoint")
    d.add_argument("--records", help="gold records supplying start cells and contexts")
    d.add_argument("--mode", choices=("greedy", "beam"))
    d.add_argument("--beam-width", type=int)
    d.add_argument("--max-steps", type=int)
    d.set_defaults(func=cmd_decode)

    e = sub.add_parser("eval", help="evaluate predictions against gold records")
    common(e)
    e.add_argument("--gold")
    e.add_argument("--pred")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sim", help="run scripted twin scenarios")
    common(s)
    s.add_argument("--scenarios", help="scenario JSONL (default: bundled pack)")
    s.add_argument("--checkpoint", help="decode plans from this model instead of BFS")
    s.add_argument("--mode", choices=("greedy", "beam"))
    s.add_argument("--beam-width", type=int)
    s.add_argument("--max-steps", type=int)
    s.set_defaults(func=cmd_sim)

    r = sub.add_parser("report", help="render stored eval reports")
    r.add_argument("reports", nargs="+", help="report.json files")
    r.add_argument("--out", help="optional output directory (default: stdout)")
    r.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e.code}: {e.detail}", file=sys.stderr)
        return 1
    except (CorpusFormatError, CheckpointFormatError) as e:
        print(f"error: schema: {e}", file=sys.stderr)
        return 1
    except UnreachableGoalError as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
