"""Checkpoint serialization: one .npz holding parameters, config, and optimizer state.

Arrays are stored as float64 .npy members, so a save/load round trip
reproduces every parameter bit for bit. A JSON metadata entry carries the
model config, seed, step counter, and the declared parameter order.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .lattice import read_int
from .model import ModelConfig, Optimizer, OptimizerConfig, PathModel

FORMAT_VERSION = 2  # 2: goal-sign tables replace version 1's absolute coordinate tables


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file is missing, stale, or inconsistent."""


def save_checkpoint(path, model: PathModel, optimizer: Optimizer | None = None, step: int = 0) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "model_config": model.cfg.to_dict(),
        "seed": model.seed,
        "step": step,
        "param_names": [name for name, _ in model.parameters()],
        "optimizer": optimizer.cfg.to_dict() if optimizer is not None else None,
        "optimizer_step_count": optimizer.step_count if optimizer is not None else 0,
        "optimizer_slots": sorted(optimizer.slots) if optimizer is not None else [],
    }
    arrays = {"__meta__": np.array(json.dumps(meta, sort_keys=True))}
    for name, p in model.parameters():
        arrays[f"param/{name}"] = p.data
    if optimizer is not None:
        for name, buf in optimizer.slots.items():
            arrays[f"slot/{name}"] = buf
    # npz laid out by hand with fixed zip timestamps so identical runs
    # produce byte-identical checkpoint files (np.savez stamps wall time)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in arrays:
            payload = io.BytesIO()
            np.lib.format.write_array(payload, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, payload.getvalue())


def load_checkpoint(path) -> tuple[PathModel, Optimizer | None, int]:
    """Model, optimizer (or None) and step; a malformed file or metadata value is a CheckpointFormatError
    whose message starts with the path."""
    try:
        return _read_checkpoint(path)
    except CheckpointFormatError as e:
        raise CheckpointFormatError(f"{path}: {e}") from None
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError) as e:
        detail = f"{type(e).__name__}: {e}"
        raise CheckpointFormatError(f"{path}: malformed checkpoint ({detail})") from None


def _read_checkpoint(path) -> tuple[PathModel, Optimizer | None, int]:
    with np.load(path, allow_pickle=False) as f:
        if "__meta__" not in f:
            raise CheckpointFormatError("not a checkpoint: missing metadata entry")
        meta = json.loads(str(f["__meta__"][()]))
        if not isinstance(meta, dict):
            raise ValueError(f"metadata is a JSON {type(meta).__name__}, not an object")
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint format_version {meta.get('format_version')!r}"
            )
        cfg = ModelConfig.from_dict(_entry(meta, "model_config", dict))
        model = PathModel(cfg, seed=read_int(meta["seed"], "seed"))
        stored = {name for name, _ in model.parameters()}
        listed = set(_entry(meta, "param_names", list))
        if stored != listed:
            raise CheckpointFormatError("checkpoint parameter set does not match the config")
        for name, p in model.parameters():
            key = f"param/{name}"
            if key not in f:
                raise CheckpointFormatError(f"checkpoint missing array for parameter {name}")
            arr = f[key]
            if arr.shape != p.data.shape:
                raise CheckpointFormatError(
                    f"parameter {name} has shape {arr.shape}, expected {p.data.shape}"
                )
            p.data = _finite(arr, f"parameter {name}")
        optimizer = None
        if meta["optimizer"] is not None:
            optimizer = Optimizer(OptimizerConfig.from_dict(_entry(meta, "optimizer", dict)))
            optimizer.step_count = read_int(meta["optimizer_step_count"], "optimizer_step_count")
            for name in _entry(meta, "optimizer_slots", list):
                optimizer.slots[name] = _finite(f[f"slot/{name}"], f"optimizer slot {name}")
        return model, optimizer, read_int(meta["step"], "step")


def _entry(meta: dict, key: str, kind: type):
    """meta[key] if it is a JSON object (kind dict) or array (kind list), else a ValueError naming key."""
    v = meta[key]
    if not isinstance(v, kind):
        raise ValueError(f"{key} must be a JSON {'object' if kind is dict else 'array'}, got {json.dumps(v)}")
    return v


def _finite(arr, name: str) -> np.ndarray:
    """arr as a float64 copy; a NaN or infinity, which no legality mask survives, is a ValueError."""
    a = np.array(arr, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds a non-finite value")
    return a
