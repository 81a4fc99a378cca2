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
import json
import os
import sys

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusFormatError,
    GenerationConfig,
    GenerationCounters,
    UnreachableGoalError,
    generate_corpus,
    read_records,
    write_jsonl,
    write_records,
)
from .decoder import DecodeConfig, DecodeCounters, decode_records
from .evaluator import ERROR_LABELS, EvalReport, evaluate_records, format_report, format_table
from .lattice import Workspace, desk_workspace
from .model import LossConfig, ModelConfig, Optimizer, OptimizerConfig, PathModel, context_features, fit
from .twinsim import (
    ModelPlanner,
    OraclePlanner,
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
    if not isinstance(cfg, dict):
        raise CliError("config", f"{path}: top level must be a JSON object")
    return cfg


def _resolve(defaults: dict, file_cfg: dict, overrides: dict) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys are errors."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in defaults.items()}
    for k, v in file_cfg.items():
        if k not in cfg:
            raise CliError("config", f"unknown config key {k!r}")
        if isinstance(cfg[k], dict):
            if not isinstance(v, dict):
                raise CliError("config", f"config key {k!r} must be an object")
            for kk, vv in v.items():
                if kk not in cfg[k] and k != "workspace":
                    raise CliError("config", f"unknown config key {k!r}.{kk!r}")
                cfg[k][kk] = vv
        else:
            cfg[k] = v
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _write_outputs(out_dir: str, command: str, cfg: dict, files: dict, counters: dict | None = None) -> None:
    """Write every output plus the manifest, or leave none of them behind.

    A file's content is its text, or a function that writes the file at the
    path it is given. Each file is staged under a temporary name and moved
    into place only once all are written, manifest.json last. Counters, if
    given, are seed-determined tallies recorded in the manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "config": cfg, "outputs": sorted(files) + ["manifest.json"]}
    if counters is not None:
        manifest["counters"] = counters
    files = {**files, "manifest.json": json.dumps(manifest, sort_keys=True) + "\n"}
    staged = {name: os.path.join(out_dir, f".{name}.partial") for name in files}
    try:
        for name, content in files.items():
            if callable(content):
                content(staged[name])
            else:
                with open(staged[name], "w", encoding="utf-8") as f:
                    f.write(content)
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
    overrides = {
        "seed": args.seed,
        "count": args.count,
        "train_fraction": args.train_frac,
        "obstacle_density": args.obstacle_density,
        "max_path_length": args.max_path_length,
    }
    cfg = _resolve(defaults, _load_config_file(args.config), overrides)
    if args.box is not None:
        x0, x1, y0, y1, z0, z1 = args.box
        cfg["workspace"] = Workspace(x0, x1, y0, y1, z0, z1).to_dict()
    try:
        gcfg = GenerationConfig(
            workspace=Workspace.from_dict(cfg["workspace"]),
            count=int(cfg["count"]),
            obstacle_density=float(cfg["obstacle_density"]),
            max_path_length=int(cfg["max_path_length"]),
            train_fraction=float(cfg["train_fraction"]),
            max_resample_attempts=int(cfg["max_resample_attempts"]),
        )
    except (ValueError, KeyError, TypeError) as e:
        raise CliError("config", str(e)) from None

    counters = GenerationCounters()
    records = generate_corpus(gcfg, int(cfg["seed"]), counters)
    train = [r for r in records if r.split_tag == "train"]
    val = [r for r in records if r.split_tag == "validation"]
    _write_outputs(args.out, "gen", cfg, {
        "corpus_train.jsonl": lambda path: write_records(path, train),
        "corpus_validation.jsonl": lambda path: write_records(path, val),
    }, counters=dataclasses.asdict(counters))
    return 0


# train ----------------------------------------------------------------------------


def cmd_train(args) -> int:
    defaults = {
        "seed": 0,
        "corpus": None,
        "epochs": 30,
        "batch_size": 64,
        "resume": None,
        "model": {
            "embed_dim": 64,
            "num_layers": 2,
            "num_heads": 4,
            "max_seq_len": 32,
            "bounds": None,
            "task_feature_width": None,
        },
        "optimizer": OptimizerConfig().to_dict(),
        "loss": {
            "lambda_coord": 0.5,
            "lambda_valid": 0.5,
            "lambda_cov": 1.0,
            "lambda_len": 0.1,
        },
    }
    overrides = {
        "seed": args.seed,
        "corpus": args.corpus,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "resume": args.resume,
    }
    cfg = _resolve(defaults, _load_config_file(args.config), overrides)
    for flag, key in (
        (args.embed_dim, "embed_dim"), (args.num_layers, "num_layers"),
        (args.num_heads, "num_heads"), (args.max_seq_len, "max_seq_len"),
    ):
        if flag is not None:
            cfg["model"][key] = flag
    for flag, key in ((args.lr, "lr"), (args.optimizer, "kind"), (args.weight_decay, "weight_decay")):
        if flag is not None:
            cfg["optimizer"][key] = flag

    if cfg["corpus"] is None:
        raise CliError("config", "train requires --corpus (or a corpus path in the config)")
    if int(cfg["epochs"]) < 0:
        raise CliError("config", "epochs must be non-negative")
    if int(cfg["batch_size"]) < 1:
        raise CliError("config", "batch_size must be positive")

    records = read_records(cfg["corpus"])
    if not records:
        raise CliError("config", f"corpus {cfg['corpus']} contains no records")
    items = [(r.trajectory, r.context, r.workspace) for r in records]
    longest = max(len(r.trajectory) for r in records)

    seed = int(cfg["seed"])
    if cfg["resume"] is not None:
        model, optimizer, _ = load_checkpoint(cfg["resume"])
        if optimizer is None:
            optimizer = Optimizer(_optimizer_config(cfg["optimizer"]))
        cfg["model"] = model.cfg.to_dict()  # checkpoint architecture wins on resume
    else:
        m = cfg["model"]
        bounds = m.get("bounds") or records[0].workspace.bounds
        width = m.get("task_feature_width") or len(records[0].context.task_feature_vector)
        try:
            mcfg = ModelConfig(
                embed_dim=int(m["embed_dim"]),
                num_layers=int(m["num_layers"]),
                num_heads=int(m["num_heads"]),
                max_seq_len=int(m["max_seq_len"]),
                task_feature_width=int(width),
                bounds=tuple(int(v) for v in bounds),
            )
        except (ValueError, KeyError, TypeError) as e:
            raise CliError("config", str(e)) from None
        cfg["model"] = mcfg.to_dict()
        model = PathModel(mcfg, seed=seed)
        optimizer = Optimizer(_optimizer_config(cfg["optimizer"]))
    if longest > model.cfg.max_seq_len:
        raise CliError(
            "config",
            f"corpus has a {longest}-point trajectory but max_seq_len is {model.cfg.max_seq_len}",
        )
    try:
        loss_cfg = LossConfig(**{k: float(v) for k, v in cfg["loss"].items()})
    except (ValueError, TypeError) as e:
        raise CliError("config", str(e)) from None

    log_lines = ["epoch\tseq\tcoord\tvalid\tcov\tlen\ttotal"]

    def log(epoch, bd):
        log_lines.append(
            f"{epoch}\t{bd.seq:.10g}\t{bd.coord:.10g}\t{bd.valid:.10g}"
            f"\t{bd.cov:.10g}\t{bd.len:.10g}\t{bd.total:.10g}"
        )

    fit(model, items, loss_cfg, optimizer,
        epochs=int(cfg["epochs"]), batch_size=int(cfg["batch_size"]), seed=seed, log=log)

    _write_outputs(args.out, "train", cfg, {
        "loss_log.tsv": "\n".join(log_lines) + "\n",
        "model.npz": lambda path: save_checkpoint(path, model, optimizer, optimizer.step_count),
    })
    return 0


def _optimizer_config(d: dict) -> OptimizerConfig:
    try:
        return OptimizerConfig.from_dict(d)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError("config", str(e)) from None


# decode ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    defaults = {
        "seed": 0,
        "checkpoint": None,
        "records": None,
        "mode": "greedy",
        "beam_width": 5,
        "coverage_penalty_weight": 0.0,
        "max_steps": None,
    }
    overrides = {
        "seed": args.seed,
        "checkpoint": args.checkpoint,
        "records": args.records,
        "mode": args.mode,
        "beam_width": args.beam_width,
        "coverage_penalty_weight": args.coverage_weight,
        "max_steps": args.max_steps,
    }
    cfg = _resolve(defaults, _load_config_file(args.config), overrides)
    if cfg["checkpoint"] is None or cfg["records"] is None:
        raise CliError("config", "decode requires --checkpoint and --records")
    model, _, _ = load_checkpoint(cfg["checkpoint"])
    if cfg["max_steps"] is None:
        cfg["max_steps"] = model.cfg.max_seq_len
    try:
        dcfg = DecodeConfig(
            max_steps=int(cfg["max_steps"]),
            beam_width=int(cfg["beam_width"]),
            coverage_penalty_weight=float(cfg["coverage_penalty_weight"]),
            mode=str(cfg["mode"]),
        )
    except (ValueError, TypeError) as e:
        raise CliError("config", str(e)) from None
    records = read_records(cfg["records"], check=lambda r: _check_decodable(model, r))
    counters = DecodeCounters()
    preds = decode_records(model, records, dcfg, counters)
    _write_outputs(args.out, "decode", cfg, {
        "predictions.jsonl": lambda path: write_records(path, preds),
    }, counters=dataclasses.asdict(counters))
    return 0


def _check_decodable(model: PathModel, record) -> None:
    """Every cell a decode may visit must lie in the model box; contexts must fit the model."""
    try:
        model.check_workspace(record.workspace)
        context_features(record.context, model.cfg)
    except ValueError as e:
        raise CorpusFormatError(str(e)) from None


# eval -----------------------------------------------------------------------------


def cmd_eval(args) -> int:
    defaults = {"seed": 0, "gold": None, "pred": None}
    overrides = {"seed": args.seed, "gold": args.gold, "pred": args.pred}
    cfg = _resolve(defaults, _load_config_file(args.config), overrides)
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
    defaults = {"seed": 0, "scenarios": None, "checkpoint": None,
                "mode": "greedy", "beam_width": 5, "max_steps": 32}
    overrides = {
        "seed": args.seed,
        "scenarios": args.scenarios,
        "checkpoint": args.checkpoint,
        "mode": args.mode,
        "beam_width": args.beam_width,
        "max_steps": args.max_steps,
    }
    cfg = _resolve(defaults, _load_config_file(args.config), overrides)
    if cfg["scenarios"] is not None:
        scenarios = read_scenarios(cfg["scenarios"])
    else:
        scenarios = default_scenario_pack()
    if not scenarios:
        raise CliError("config", "no scenarios to run")
    if cfg["checkpoint"] is not None:
        model, _, _ = load_checkpoint(cfg["checkpoint"])
        try:
            dcfg = DecodeConfig(
                max_steps=int(cfg["max_steps"]), beam_width=int(cfg["beam_width"]),
                mode=str(cfg["mode"]),
            )
        except (ValueError, TypeError) as e:
            raise CliError("config", str(e)) from None
        planner = ModelPlanner(model, dcfg)
    else:
        planner = OraclePlanner()

    results = run_scenarios(scenarios, planner)
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
    })
    return 0


# report ---------------------------------------------------------------------------


def _read_eval_report(path: str) -> EvalReport:
    try:
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise CliError("schema", f"{path}: invalid JSON ({e})") from None
    try:
        return EvalReport(
            stepwise_accuracy=float(d["stepwise_accuracy"]),
            precision=float(d["precision"]),
            recall=float(d["recall"]),
            f1=float(d["f1"]),
            valid_path_percent=float(d["valid_path_percent"]),
            error_counts={k: int(d["error_counts"].get(k, 0)) for k in ERROR_LABELS},
            n_pairs=int(d["n_pairs"]),
        )
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latticepath", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        sp.add_argument("--seed", type=int, default=None, help="global run seed (default 0)")
        sp.add_argument("--out", required=out_required, help="output directory")

    g = sub.add_parser("gen", help="generate an oracle corpus")
    common(g)
    g.add_argument("--count", type=int, default=None)
    g.add_argument("--train-frac", type=float, default=None)
    g.add_argument("--obstacle-density", type=float, default=None)
    g.add_argument("--max-path-length", type=int, default=None)
    g.add_argument("--box", type=int, nargs=6, default=None,
                   metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"))
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model on a corpus file")
    common(t)
    t.add_argument("--corpus", default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--resume", default=None, help="checkpoint to continue from (its architecture wins)")
    t.add_argument("--embed-dim", type=int, default=None)
    t.add_argument("--num-layers", type=int, default=None)
    t.add_argument("--num-heads", type=int, default=None)
    t.add_argument("--max-seq-len", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--optimizer", choices=("sgd", "momentum", "adam"), default=None)
    t.add_argument("--weight-decay", type=float, default=None)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("decode", help="decode predictions from a checkpoint")
    common(d)
    d.add_argument("--checkpoint", default=None)
    d.add_argument("--records", default=None, help="gold records supplying start cells and contexts")
    d.add_argument("--mode", choices=("greedy", "beam"), default=None)
    d.add_argument("--beam-width", type=int, default=None)
    d.add_argument("--coverage-weight", type=float, default=None)
    d.add_argument("--max-steps", type=int, default=None)
    d.set_defaults(func=cmd_decode)

    e = sub.add_parser("eval", help="evaluate predictions against gold records")
    common(e)
    e.add_argument("--gold", default=None)
    e.add_argument("--pred", default=None)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sim", help="run scripted twin scenarios")
    common(s)
    s.add_argument("--scenarios", default=None, help="scenario JSONL (default: bundled pack)")
    s.add_argument("--checkpoint", default=None, help="decode plans from this model instead of BFS")
    s.add_argument("--mode", choices=("greedy", "beam"), default=None)
    s.add_argument("--beam-width", type=int, default=None)
    s.add_argument("--max-steps", type=int, default=None)
    s.set_defaults(func=cmd_sim)

    r = sub.add_parser("report", help="render stored eval reports")
    r.add_argument("reports", nargs="+", help="report.json files")
    r.add_argument("--out", default=None, help="optional output directory (default: stdout)")
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
