import json
import zipfile

import numpy as np
import pytest

from latticepath.checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from latticepath.corpus import Trajectory
from latticepath.lattice import LatticeCoord, desk_workspace
from latticepath.model import (
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    make_loss_batch,
    train_step,
)
from latticepath.taskgrid import build_context, reach_only_graph

C = LatticeCoord


def small_model(seed=0):
    return PathModel(ModelConfig(embed_dim=8, num_layers=1, num_heads=2, max_seq_len=8), seed=seed)


def trained_pair(tmp_path, steps=3):
    """A model plus adam optimizer that have taken a few real steps."""
    m = small_model(seed=1)
    opt = Optimizer(OptimizerConfig(kind="adam", lr=0.01))
    traj = Trajectory(points=(C(0, 0, 2), C(1, 0, 2)))
    ctx = build_context(reach_only_graph(), 0, sequence_length_hint=2, target=traj.end)
    batch = make_loss_batch([(traj, ctx, desk_workspace())], m.cfg)
    for _ in range(steps):
        train_step(m, batch, LossConfig(), opt)
    return m, opt


def test_round_trip_restores_parameters_bit_for_bit(tmp_path):
    m, opt = trained_pair(tmp_path)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m, opt, step=opt.step_count)
    loaded, _, step = load_checkpoint(path)
    assert step == 3
    assert loaded.cfg == m.cfg
    for (name, p), (_, q) in zip(m.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_round_trip_restores_optimizer_state(tmp_path):
    m, opt = trained_pair(tmp_path)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m, opt, step=opt.step_count)
    _, opt2, _ = load_checkpoint(path)
    assert opt2 is not None
    assert opt2.cfg == opt.cfg
    assert opt2.step_count == opt.step_count
    assert sorted(opt2.slots) == sorted(opt.slots)
    for name in opt.slots:
        np.testing.assert_array_equal(opt.slots[name], opt2.slots[name])


def test_checkpoint_without_optimizer(tmp_path):
    m = small_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m)
    _, opt, step = load_checkpoint(path)
    assert opt is None
    assert step == 0


def test_identical_saves_are_byte_identical(tmp_path):
    m, opt = trained_pair(tmp_path)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(a, m, opt, step=3)
    save_checkpoint(b, m, opt, step=3)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_missing_metadata(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(CheckpointFormatError, match="metadata"):
        load_checkpoint(path)


def test_rejects_unknown_format_version(tmp_path):
    m = small_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m)
    # rewrite the metadata member with a bumped version
    with np.load(path, allow_pickle=False) as f:
        members = {k: np.array(f[k]) for k in f.files}
    meta = json.loads(str(members["__meta__"][()]))
    meta["format_version"] = 99
    members["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **members)
    with pytest.raises(CheckpointFormatError, match="format_version"):
        load_checkpoint(path)


def test_rejects_missing_parameter_array(tmp_path):
    m = small_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m)
    with np.load(path, allow_pickle=False) as f:
        members = {k: np.array(f[k]) for k in f.files}
    del members["param/head_w"]
    stripped = tmp_path / "stripped.npz"
    np.savez(stripped, **members)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(stripped)


def test_rejects_shape_mismatch(tmp_path):
    m = small_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m)
    with np.load(path, allow_pickle=False) as f:
        members = {k: np.array(f[k]) for k in f.files}
    members["param/head_w"] = np.zeros((2, 2))
    broken = tmp_path / "broken.npz"
    np.savez(broken, **members)
    with pytest.raises(CheckpointFormatError, match="shape"):
        load_checkpoint(broken)


@pytest.mark.parametrize("member, value, name", [("param/head_w", np.nan, "parameter head_w"),
                                                  ("slot/sign_x.v", -np.inf, "optimizer slot sign_x.v")])
def test_rejects_non_finite_arrays(tmp_path, member, value, name):
    m, opt = trained_pair(tmp_path)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m, opt)
    with np.load(path, allow_pickle=False) as f:
        members = {k: np.array(f[k]) for k in f.files}
    members[member].flat[0] = value
    broken = tmp_path / "broken.npz"
    np.savez(broken, **members)
    with pytest.raises(CheckpointFormatError, match=f"malformed checkpoint .*{name} holds a non-finite value"):
        load_checkpoint(broken)


def test_zip_members_carry_fixed_timestamps(tmp_path):
    m = small_model()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, m)
    with zipfile.ZipFile(path) as zf:
        stamps = {info.date_time for info in zf.infolist()}
    assert stamps == {(1980, 1, 1, 0, 0, 0)}
