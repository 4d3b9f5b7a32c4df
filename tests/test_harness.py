import dataclasses
import json
import os
import struct
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hypermesh
from hypermesh import tensor as T
from hypermesh.checks import PROPCHECKS
from hypermesh.cli import main
from hypermesh.config import PipelineConfig
from hypermesh.errors import ConfigError, ContractError, NumericError
from hypermesh.manifold import BallParams
from hypermesh.metrics import write_metric_report
from hypermesh.pipeline import fibonacci_sphere
from hypermesh.synth import load_scene, save_scene, synth_generate
from hypermesh.tensor import Tensor
from hypermesh import tensor_io
from hypermesh.tensor_io import (atomic_write, load_checkpoint, load_tensor,
                                 save_checkpoint, save_tensor)
from hypermesh.train import SGD, build_pipeline, evaluate, train_toy

SMALL = dict(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
             n_coarse=6, n_fine=10, steps=0)


def _small_cfg(**kw):
    return PipelineConfig(**{**SMALL, **kw})


# ---------------------------------------------------------------- config

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig.from_dict({"t_frames": 4, "learning_rte": 0.1})


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(t_frames=5)
    with pytest.raises(ConfigError):
        PipelineConfig(model_dim=10, heads=4)
    with pytest.raises(ConfigError):
        PipelineConfig(n_coarse=2, n_joints=5)


def test_config_save_load_roundtrip(tmp_path):
    cfg = _small_cfg(seed=7, learning_rate=0.01)
    path = tmp_path / "config.json"
    cfg.save(path)
    assert PipelineConfig.load(path) == cfg


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        PipelineConfig.load(path)


def test_config_fields_are_fixed_once_validated():
    # a later assignment would skip validation
    cfg = _small_cfg()
    for field, value in (("lambda_edge", 0.0), ("heads", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    assert cfg.lambda_edge == 20.0


def test_float_width_policies():
    margins = _small_cfg().ball_params()
    assert (margins.eps_ball, margins.eps_norm) == (1e-5, 1e-12)
    # the margins are fixed: no field selects or overrides them
    for removed, value in (("eps_ball", 1e-9), ("eps_norm", 1e-9), ("float_width", "narrow")):
        with pytest.raises(ConfigError, match=f"unknown config fields: \\['{removed}'\\]"):
            PipelineConfig.from_dict({removed: value})


# ---------------------------------------------------------------- tensor io

def test_tensor_io_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 5))
    path = tmp_path / "t.gymt"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.tobytes() == arr.tobytes()
    save_tensor(path, back)
    assert path.read_bytes() == path.read_bytes()


def test_tensor_io_bad_magic(tmp_path):
    path = tmp_path / "bad.gymt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(ContractError, match="magic"):
        load_tensor(path)


def test_tensor_io_truncated(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.gymt"
    save_tensor(path, rng.normal(size=(4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContractError, match="truncated"):
        load_tensor(path)


def test_tensor_io_truncated_header(tmp_path):
    path = tmp_path / "t.gymt"
    path.write_bytes(b"GYMTENSR\x02\x00")
    with pytest.raises(ContractError, match="truncated header"):
        load_tensor(path)
    path.write_bytes(b"GYMTENSR\x02\x00\x00\x00\x03\x00\x00\x00")
    with pytest.raises(ContractError, match="truncated header"):
        load_tensor(path)


def test_tensor_io_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.gymt"
    save_tensor(path, np.arange(6.0).reshape(2, 3))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ContractError, match="trailing"):
        load_tensor(path)


def test_tensor_io_sizes_the_payload_exactly(tmp_path):
    # four dims of 65536 hold 2**64 elements, which wrap to 0 in int64
    path = tmp_path / "t.gymt"
    path.write_bytes(tensor_io.MAGIC + struct.pack("<5I", 4, *[65536] * 4))
    with pytest.raises(ContractError, match="truncated payload"):
        load_tensor(path)
    # 70 axes of length 1: more than numpy supports
    path.write_bytes(tensor_io.MAGIC + struct.pack("<71I", 70, *[1] * 70) + bytes(8))
    with pytest.raises(ContractError):
        load_tensor(path)


def test_tensor_io_short_read_is_truncated(tmp_path, monkeypatch):
    # a file that shrinks after its size is checked: the read must fill the array
    path = tmp_path / "t.gymt"
    save_tensor(path, np.arange(6.0))
    monkeypatch.setattr(tensor_io, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(
        st_size=os.fstat(fd).st_size + 8)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContractError, match="truncated payload"):
        load_tensor(path)


def test_tensor_io_keeps_a_zero_dim_shape(tmp_path):
    path = tmp_path / "t.gymt"
    save_tensor(path, np.float64(2.5))
    back = load_tensor(path)
    assert back.shape == () and back == 2.5


def test_checkpoint_is_a_manifest_and_one_payload(tmp_path):
    # "a.b_c" and "a_b.c" once mapped to one file name
    rng = np.random.default_rng(4)
    params = {"b": rng.normal(size=(2, 3)), "a.b_c": rng.normal(size=4),
              "a_b.c": rng.normal(size=1), "zero_d": np.float64(-0.0), "empty": np.zeros((0, 3))}
    manifest = save_checkpoint(tmp_path / "ckpt", params)
    assert sorted(f.name for f in manifest.parent.iterdir()) == ["manifest.json", "tensors.gymt"]
    assert json.loads(manifest.read_text()) == {k: {"shape": list(np.shape(v))}
                                                for k, v in params.items()}
    values = b"".join(np.asarray(params[k], dtype="<f8").tobytes() for k in sorted(params))
    assert (manifest.parent / "tensors.gymt").read_bytes() == (
        tensor_io.MAGIC + struct.pack("<2I", 1, len(values) // 8) + values)
    # the payload's order is the names' sorted order, whatever the manifest's
    manifest.write_text(json.dumps(dict(reversed(json.loads(manifest.read_text()).items()))))
    back = load_checkpoint(manifest)
    assert list(back) == sorted(params)
    for k, v in params.items():
        assert back[k].shape == np.shape(v) and back[k].tobytes() == np.asarray(v).tobytes(), k
    assert load_checkpoint(save_checkpoint(tmp_path / "none", {})) == {}


@pytest.mark.parametrize("damage, error, match", [
    (lambda p: p.unlink(), FileNotFoundError, "tensors.gymt"),
    (lambda p: p.write_bytes(p.read_bytes()[:-8]), ContractError, "truncated payload"),
    (lambda p: p.write_bytes(p.read_bytes() + bytes(8)), ContractError, "trailing bytes"),
    (lambda p: save_tensor(p, np.ones((2, 2))), ContractError, "rank 2, not 1"),
    (lambda p: save_tensor(p, np.float64(1.0)), ContractError, "rank 0, not 1"),
], ids=["missing", "truncated", "trailing_bytes", "rank_2", "rank_0"])
def test_checkpoint_refuses_a_damaged_payload(tmp_path, damage, error, match):
    manifest = save_checkpoint(tmp_path / "ckpt", {"w": np.ones(4)})
    damage(manifest.parent / "tensors.gymt")
    with pytest.raises(error, match=match):
        load_checkpoint(manifest)


@pytest.mark.parametrize("shape, held", [([3], 5), ([1], 3)], ids=["more", "fewer"])
def test_checkpoint_shapes_must_tile_the_payload(tmp_path, shape, held):
    manifest = save_checkpoint(tmp_path / "ckpt", {"v": np.ones(2), "w": np.ones(2)})
    manifest.write_text(json.dumps({"v": {"shape": [2]}, "w": {"shape": shape}}))
    with pytest.raises(ContractError, match=f"the shapes hold {held} values, the payload 4"):
        load_checkpoint(manifest)


@pytest.mark.parametrize("array, shape", [(np.ones(2), [2.0]), (np.ones(1), [True]),
                                          (np.ones(1), [-1, -1])],
                         ids=["float", "bool", "negative"])
def test_checkpoint_shape_entries_must_be_ints(tmp_path, array, shape):
    manifest = save_checkpoint(tmp_path / "ckpt", {"w": array})
    manifest.write_text(json.dumps({"w": {"shape": shape}}))
    with pytest.raises(ContractError, match="list of integers >= 0"):
        load_checkpoint(manifest)


@pytest.mark.parametrize("entry", [{"file": "w.gymt", "shape": [2]}, {"shape": [2], "dtype": "<f8"},
                                   {}], ids=["file", "dtype", "no_shape"])
def test_checkpoint_entry_holds_only_a_shape(tmp_path, entry):
    manifest = save_checkpoint(tmp_path / "ckpt", {"v": np.ones(2), "w": np.ones(2)})
    manifest.write_text(json.dumps({"v": {"shape": [2]}, "w": entry}))
    with pytest.raises(ContractError, match="checkpoint entry w: needs only a \"shape\""):
        load_checkpoint(manifest)


def test_atomic_write_cut_short_keeps_the_previous_file(tmp_path):
    path = tmp_path / "w.gymt"
    save_tensor(path, np.arange(3.0))
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="cut"):
        with atomic_write(path, "wb") as fh:
            fh.write(b"GYMTENSR partial")
            raise RuntimeError("cut")
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["w.gymt"]


def _disk_fills_after(monkeypatch, writes: int) -> None:
    """Writes through ``tensor_io.atomic_write`` raise OSError("disk full")
    once ``writes`` of them went through."""
    real, done = tensor_io.atomic_write, []

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            if len(done) == writes:
                raise OSError("disk full")
            done.append(data)
            return self.fh.write(data)

    @contextmanager
    def filling(path, mode="w"):
        with real(path, mode) as fh:
            yield Full(fh)

    monkeypatch.setattr(tensor_io, "atomic_write", filling)


def test_checkpoint_overwrite_cut_short_leaves_no_mixed_manifest(tmp_path, monkeypatch):
    params = {"a": np.ones(2), "b": np.ones(3)}
    manifest = save_checkpoint(tmp_path / "ckpt", params)
    payload_before = (tmp_path / "ckpt" / "tensors.gymt").read_bytes()
    _disk_fills_after(monkeypatch, 2)  # the header and "a"
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", {k: v * 2.0 for k, v in params.items()})
    # the payload was not replaced: no manifest may describe it as the new one
    assert not manifest.exists()
    assert (tmp_path / "ckpt" / "tensors.gymt").read_bytes() == payload_before
    assert sorted(f.name for f in (tmp_path / "ckpt").iterdir()) == ["tensors.gymt"]


def test_checkpoint_roundtrip_and_byte_identity(tmp_path):
    rng = np.random.default_rng(2)
    params = {"a.w": rng.normal(size=(3, 2)), "b": rng.normal(size=5)}
    m1 = save_checkpoint(tmp_path / "c1", params)
    m2 = save_checkpoint(tmp_path / "c2", load_checkpoint(m1))
    assert m1.read_bytes() == m2.read_bytes()
    assert ((tmp_path / "c1" / "tensors.gymt").read_bytes()
            == (tmp_path / "c2" / "tensors.gymt").read_bytes())


# ---------------------------------------------------------------- synth

def test_synth_deterministic_given_seed():
    a = synth_generate(_small_cfg(seed=3))
    b = synth_generate(_small_cfg(seed=3))
    assert np.array_equal(a.poses, b.poses)
    assert np.array_equal(a.feats, b.feats)
    c = synth_generate(_small_cfg(seed=4))
    assert not np.array_equal(a.poses, c.poses)


def test_scene_save_load_roundtrip(tmp_path):
    scene = synth_generate(_small_cfg(seed=6))
    save_scene(scene, tmp_path / "scene")
    back = load_scene(tmp_path / "scene")
    for name in ("poses", "coarse_meshes", "fine_meshes", "feats"):
        assert np.array_equal(getattr(back, name), getattr(scene, name))
    for name in ("upsampler", "edges", "faces"):
        got, want = getattr(back.topology, name), getattr(scene.topology, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (back.topology.n_coarse, back.topology.n_fine) == (6, 10)
    assert np.array_equal(back.regressor.matrix, scene.regressor.matrix)


def test_scene_save_cut_short_leaves_no_manifest(tmp_path, monkeypatch):
    scene = synth_generate(_small_cfg())
    save_scene(scene, tmp_path / "scene")
    _disk_fills_after(monkeypatch, 3)
    with pytest.raises(OSError, match="disk full"):
        save_scene(scene, tmp_path / "scene")
    assert not (tmp_path / "scene" / "manifest.json").exists()


def test_fine_mesh_is_upsampled_coarse():
    scene = synth_generate(_small_cfg(seed=8))
    for t in range(scene.poses.shape[0]):
        np.testing.assert_allclose(
            scene.fine_meshes[t],
            scene.topology.upsampler @ scene.coarse_meshes[t], atol=1e-12)


# ---------------------------------------------------------------- training

def test_train_smoke_writes_artifacts(tmp_path):
    cfg = _small_cfg(steps=3, learning_rate=0.001)
    result = train_toy(cfg, out_dir=tmp_path / "run")
    assert len(result.losses) == 3
    assert result.checkpoint_path.exists()
    lines = result.loss_curve_path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4


def test_train_checkpoint_reproduces_forward(tmp_path):
    cfg = _small_cfg(steps=2, learning_rate=0.001)
    scene = synth_generate(cfg)
    result = train_toy(cfg, out_dir=tmp_path / "run")
    pipe = build_pipeline(cfg, scene)
    pipe.load_state_dict(load_checkpoint(result.checkpoint_path))
    _, m_out = pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    assert np.all(np.isfinite(m_out.vertices.data))


def test_train_with_zero_steps_writes_one_loss_and_the_initial_state(tmp_path):
    cfg = _small_cfg(steps=0)
    scene = synth_generate(cfg)
    result = train_toy(cfg, out_dir=tmp_path / "run")
    lines = result.loss_curve_path.read_text().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 2 and len(result.losses) == 1
    initial = build_pipeline(cfg, scene).state_dict()
    saved = load_checkpoint(result.checkpoint_path)
    assert sorted(saved) == sorted(initial)
    assert all(saved[k].tobytes() == v.tobytes() for k, v in initial.items())


@pytest.mark.parametrize("ball", [BallParams(), BallParams(eps_ball=1e-3)],
                         ids=["default", "eps_ball_1e-3"])
def test_sgd_step_clamps_ball_rows_onto_the_shell(ball):
    b = Tensor(np.array([[0.3, -0.2, 0.1], [0.9, 0.3, 0.0]]), requires_grad=True)
    b.grad = np.array([[0.1, 0.2, -0.3], [-1.0, -0.5, 0.0]])
    inside = b.data[0] - 0.5 * b.grad[0]
    pushed = b.data[1] - 0.5 * b.grad[1]
    SGD([b], [b], lr=0.5, ball=ball).step()
    np.testing.assert_array_equal(b.data[0], inside)
    assert abs(np.linalg.norm(b.data[1]) - (1.0 - ball.eps_ball)) < 1e-15
    np.testing.assert_allclose(b.data[1] / np.linalg.norm(b.data[1]),
                               pushed / np.linalg.norm(pushed), atol=1e-15)


def test_nonfinite_loss_names_the_op_that_made_it(tmp_path, monkeypatch):
    real_tabs = T.tabs

    def inf_abs(a):
        out = real_tabs(a)
        out.data = np.full_like(out.data, np.inf)
        return out

    monkeypatch.setattr(T, "tabs", inf_abs)
    with pytest.raises(NumericError, match=(
            r"^training aborted at step 0: non-finite output of op 'abs'$")):
        train_toy(_small_cfg(steps=2), out_dir=tmp_path / "run")


def _count_made(monkeypatch) -> dict:
    """Counts the tensors ops make from here on, and those on a tape."""
    made = {"all": 0, "taped": 0}
    make = T._make

    def counting_make(*args):
        out = make(*args)
        made["all"] += 1
        made["taped"] += out.requires_grad
        return out

    monkeypatch.setattr(T, "_make", counting_make)
    return made


def test_evaluate_records_no_tape(tmp_path, monkeypatch):
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    manifest = save_checkpoint(tmp_path / "ckpt", build_pipeline(cfg, scene).state_dict())

    # the report the same forward writes with trainable parameters
    pipe = build_pipeline(cfg, scene)
    pipe.load_state_dict(load_checkpoint(manifest))
    _, m_out = pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    assert m_out.vertices.requires_grad
    fine = m_out.vertices.data
    joints = np.einsum("jf,tfx->tjx", scene.regressor.matrix, fine)
    write_metric_report(tmp_path / "taped.csv", joints, scene.poses, fine,
                        scene.fine_meshes, root_idx=cfg.root_joint)

    made = _count_made(monkeypatch)
    evaluate(cfg, manifest, tmp_path / "report.csv", scene=scene)
    assert made["all"] > 0
    assert made["taped"] == 0
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "taped.csv").read_bytes()


# ---------------------------------------------------------------- cli

def _write_cfg(tmp_path, **kw):
    cfg = _small_cfg(**kw)
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


def test_cli_synth_train_eval_export(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, steps=2, learning_rate=0.001)
    assert main(["synth", "--config", str(cfg_path),
                 "--out", str(tmp_path / "scene")]) == 0
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    train_info = json.loads(out[-1])
    ckpt = train_info["checkpoint"]
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                 "--report", str(tmp_path / "report.csv"),
                 "--scene", str(tmp_path / "scene")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm",
                            "accel_error_mm"}
    assert (tmp_path / "report.csv").exists()
    assert main(["export-mesh", "--config", str(cfg_path),
                 "--checkpoint", ckpt, "--frame", "0",
                 "--out", str(tmp_path / "frame0.obj"),
                 "--scene", str(tmp_path / "scene")]) == 0
    assert (tmp_path / "frame0.obj").read_text().startswith("v ")


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"t_frames": 5}\n')
    assert main(["synth", "--config", str(path),
                 "--out", str(tmp_path / "scene")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


@pytest.mark.parametrize("fields, named", [
    ({"t_frames": "four"}, "t_frames"),
    ({"heads": 0}, "heads"),
    ({"topology_path": ""}, "topology_path"),
    ({"eps_ball": 1e-5}, "eps_ball"),
    ({"eps_norm": 1e-12}, "eps_norm"),
    ({"hymesh_scale": 1.0}, "hymesh_scale"),
    ({"output_dir": "out"}, "output_dir"),
    ({"lambda_edge": -1}, "lambda_edge"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"lambda_mesh": float("inf")}, "lambda_mesh"),
    ({"learning_rate": 10 ** 400}, "learning_rate"),
    ({"momentum": -1.0}, "momentum"),
    ({"momentum": 1.0}, "momentum"),
    ({"momentum": 3.0}, "momentum"),
    ({"root_joint": 5}, "root_joint"),
    ({"motion_amplitude": 0.15}, "motion_amplitude"),
    ({"feature_noise": 0.01}, "feature_noise"),
    ({"float_width": "wide"}, "float_width"),
], ids=["wrong_type", "out_of_range", "removed_field", "removed_eps_ball",
        "removed_eps_norm", "removed_hymesh_scale", "removed_output_dir",
        "negative_loss_weight", "nan_learning_rate", "infinite_loss_weight",
        "int_beyond_float64", "negative_momentum", "momentum_one", "momentum_above_one",
        "root_joint_out_of_range", "removed_motion_amplitude", "removed_feature_noise",
        "removed_float_width"])
def test_cli_config_field_errors_exit_code(tmp_path, capsys, fields, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert main(["synth", "--config", str(path),
                 "--out", str(tmp_path / "scene")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and named in err["message"]
    assert not (tmp_path / "scene").exists()


def test_cli_train_refuses_momentum_that_does_not_decay(tmp_path, capsys):
    # at momentum 1.5 the velocity grows each step: 40 steps ended at loss 8e5
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL, "momentum": 1.5, "steps": 40}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"] == "momentum must be in [0, 1), got 1.5"
    assert not (tmp_path / "run").exists()


def test_cli_config_key_given_twice_exit_code(tmp_path, capsys):
    # json alone keeps the last copy: this config would run 1,500 steps
    path = tmp_path / "config.json"
    path.write_text('{"steps": 3, "steps": 1500}')
    assert main(["synth", "--config", str(path),
                 "--out", str(tmp_path / "scene")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "'steps' given twice" in err["message"]
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("content, named", [
    (b'{"seed": "\xff"}', "invalid JSON"),
    (b"[" * 100_000, "invalid JSON"),
    (b"[1, 2]", "config must be a JSON object"),
], ids=["not_utf8", "nested_too_deep", "top_level_list"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, content, named):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["synth", "--config", str(path),
                 "--out", str(tmp_path / "scene")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and named in err["message"]
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("manifest", [
    '[{"shape": [6, 3]}]',
    '{"template": 3}',
    '{"template": {"shape": [6, 3]}}',
    '{"template": {}}',
    '{"template": ',
    "[" * 100_000,
    b'{"template": {"shape": [6, 3], "\xff": 0}}',
    lambda m: m["template"].update(shape=[6.0, 3.0]),
    lambda m: m["prior.gru_aft.w_r"].update(file="prior_gru_aft_w_r.gymt"),
    lambda m: m["template"].update(shape=[3, 6]),
], ids=["top_level_list", "entry_not_object", "fewer_entries", "no_shape", "not_json",
        "nested_too_deep", "not_utf8", "float_shape", "per_file_entry",
        "shape_disagrees_with_file"])
def test_cli_eval_malformed_manifest_exit_code(tmp_path, capsys, manifest):
    cfg_path = _write_cfg(tmp_path)
    path = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    if callable(manifest):
        _edit_manifest(path.parent, manifest)
    elif isinstance(manifest, bytes):
        path.write_bytes(manifest)
    else:
        path.write_text(manifest)
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(path),
                 "--report", str(tmp_path / "report.csv")]) == 5
    assert json.loads(capsys.readouterr().err.strip())["error"] == "contract"
    assert not (tmp_path / "report.csv").exists()


def test_cli_eval_refuses_a_manifest_entry_given_twice(tmp_path, capsys):
    # json alone keeps the last copy, so an entry of the same shape given
    # twice would load unseen
    cfg_path = _write_cfg(tmp_path)
    path = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    path.write_text(path.read_text().rstrip()[:-1] + ', "hpo.head.b": {"shape": [3]}}\n')
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(path),
                 "--report", str(tmp_path / "report.csv")]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "contract" and "'hpo.head.b' given twice" in err["message"]
    assert not (tmp_path / "report.csv").exists()


def test_cli_eval_needs_four_frames(tmp_path, capsys):
    # the acceleration error needs 3 frames; the other commands run on 2
    cfg_path = str(_write_cfg(tmp_path, t_frames=2, steps=1, learning_rate=0.001))
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "scene")]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    ckpt = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checkpoint"]
    assert main(["export-mesh", "--config", cfg_path, "--checkpoint", ckpt, "--frame", "1",
                 "--out", str(tmp_path / "frame1.obj"), "--scene", str(tmp_path / "scene")]) == 0
    # refused before the checkpoint is read: a missing one changes nothing
    for checkpoint in (ckpt, str(tmp_path / "missing.json")):
        assert main(["eval", "--config", cfg_path, "--checkpoint", checkpoint,
                     "--report", str(tmp_path / "report.csv"),
                     "--scene", str(tmp_path / "scene")]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "t_frames" in err["message"]
    assert not (tmp_path / "report.csv").exists()


def _edit_manifest(scene_dir, edit):
    path = scene_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _edit_arrays(scene_dir, edit):
    arrays = load_checkpoint(scene_dir / "manifest.json")
    edit(arrays)
    save_checkpoint(scene_dir, arrays)


def _old_layout(scene_dir):
    (scene_dir / "manifest.json").unlink()
    (scene_dir / "topology.json").write_text('{"n_coarse": 6, "n_fine": 10}\n')


@pytest.mark.parametrize("corrupt, code", [
    (lambda d: _edit_arrays(d, lambda a: a.pop("feats")), 5),
    (lambda d: _edit_arrays(d, lambda a: a.update(faces=a["faces"] + 0.5)), 5),
    (lambda d: _edit_arrays(d, lambda a: a.update(upsampler=a["upsampler"].ravel())), 5),
    (_old_layout, 4),
    (lambda d: _edit_arrays(d, lambda a: a.update(poses=a["poses"] * np.nan)), 5),
    (lambda d: _edit_arrays(d, lambda a: a.update(upsampler=a["upsampler"] + np.inf)), 5),
], ids=["missing_array", "fractional_face", "flat_upsampler", "old_layout", "nan_poses",
        "infinite_upsampler"])
def test_cli_eval_malformed_scene_exit_code(tmp_path, capsys, corrupt, code):
    cfg_path = _write_cfg(tmp_path)
    save_scene(synth_generate(_small_cfg()), tmp_path / "scene")
    corrupt(tmp_path / "scene")
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(tmp_path / "unused.json"),
                 "--report", str(tmp_path / "report.csv"),
                 "--scene", str(tmp_path / "scene")]) == code
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == {4: "io", 5: "contract"}[code]
    if code == 4:
        assert "manifest.json" in err["message"]
    assert not (tmp_path / "report.csv").exists()


def _save_per_file(directory, arrays) -> Path:
    """Writes ``arrays`` in the layout the one payload file replaced: a
    tensor file per entry, named by the entry's ``"file"``."""
    directory.mkdir()
    manifest = {}
    for name in sorted(arrays):
        manifest[name] = {"file": name.replace(".", "_") + ".gymt",
                          "shape": list(arrays[name].shape)}
        save_tensor(directory / manifest[name]["file"], arrays[name])
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return directory / "manifest.json"


@pytest.mark.parametrize("command, per_file", [("eval", "checkpoint"),
                                               ("export-mesh", "checkpoint"), ("eval", "scene")],
                         ids=["eval", "export_mesh", "eval_scene"])
def test_cli_refuses_the_per_file_layout(tmp_path, capsys, command, per_file):
    cfg_path = _write_cfg(tmp_path)
    scene = synth_generate(_small_cfg())
    state = build_pipeline(_small_cfg(), scene).state_dict()
    if per_file == "scene":
        ckpt = save_checkpoint(tmp_path / "ckpt", state)
        arrays = load_checkpoint(save_scene(scene, tmp_path / "new_scene") / "manifest.json")
        _save_per_file(tmp_path / "scene", arrays)
    else:
        ckpt = _save_per_file(tmp_path / "ckpt", state)
        save_scene(scene, tmp_path / "scene")
    out = tmp_path / "out"
    extra = (["--report", str(out)] if command == "eval"
             else ["--frame", "0", "--out", str(out)])
    assert main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--scene", str(tmp_path / "scene"), *extra]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    first = "coarse_meshes" if per_file == "scene" else sorted(state)[0]
    assert err["error"] == "contract"
    assert err["message"].startswith(f"checkpoint entry {first}: ")
    assert "per-file layout" in err["message"]
    assert not out.exists()


def test_cli_eval_missing_payload_exit_code(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    ckpt = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    (ckpt.parent / "tensors.gymt").unlink()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--report", str(tmp_path / "report.csv")]) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "io" and "tensors.gymt" in err["message"]
    assert not (tmp_path / "report.csv").exists()


def test_export_mesh_records_no_tape(tmp_path, capsys, monkeypatch):
    cfg_path = _write_cfg(tmp_path)
    ckpt = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    made = _count_made(monkeypatch)
    assert main(["export-mesh", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--frame", "1", "--out", str(tmp_path / "frame.obj")]) == 0
    assert made["all"] > 0
    assert made["taped"] == 0


@pytest.mark.parametrize("frame", [-1, SMALL["t_frames"]], ids=["negative", "past_end"])
def test_cli_export_mesh_frame_out_of_range_exit_code(tmp_path, capsys, frame):
    cfg_path = _write_cfg(tmp_path)
    ckpt = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    assert main(["export-mesh", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--frame", str(frame), "--out", str(tmp_path / "frame.obj")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "frame" in err["message"]
    assert not (tmp_path / "frame.obj").exists()


@pytest.mark.parametrize("frame", [-1, SMALL["t_frames"]], ids=["negative", "past_end"])
def test_cli_export_mesh_refuses_a_bad_frame_before_reading_anything(tmp_path, capsys, frame):
    # neither the checkpoint nor the scene exists: the frame is refused first
    cfg_path = _write_cfg(tmp_path)
    assert main(["export-mesh", "--config", str(cfg_path),
                 "--checkpoint", str(tmp_path / "missing" / "manifest.json"),
                 "--scene", str(tmp_path / "no_scene"),
                 "--frame", str(frame), "--out", str(tmp_path / "frame.obj")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "frame" in err["message"]
    assert not (tmp_path / "frame.obj").exists()


@pytest.mark.parametrize("command, scene_kw, named", [
    ("eval", {"t_frames": 8}, "t_frames is 8 in the scene but 4 in the config"),
    ("export-mesh", {"n_fine": 12}, "n_fine is 12 in the scene but 10 in the config"),
], ids=["eval_more_frames", "export_more_fine_vertices"])
def test_cli_scene_must_agree_with_the_config(tmp_path, capsys, command, scene_kw, named):
    cfg_path = _write_cfg(tmp_path)
    save_scene(synth_generate(_small_cfg(**scene_kw)), tmp_path / "scene")
    ckpt = save_checkpoint(tmp_path / "ckpt",
                           build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict())
    out = tmp_path / "out"
    extra = (["--report", str(out)] if command == "eval"
             else ["--frame", "0", "--out", str(out)])
    assert main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--scene", str(tmp_path / "scene"), *extra]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "contract" and named in err["message"]
    assert not out.exists()


def test_cli_missing_file_exit_code(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "scene")]) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_cli_propcheck_filtered(capsys):
    assert main(["propcheck", "--module", "temporal", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS temporal/gru_vs_loop_oracle" in out


def test_cli_propcheck_reports_a_failing_check(capsys, monkeypatch):
    def broken(cases=None):
        raise AssertionError("worst error 0.5 > 1e-9")
    first, _, last = PROPCHECKS["hyperlayers"]
    monkeypatch.setitem(PROPCHECKS, "hyperlayers",
                        [first, ("adaln_vs_composition_oracle", broken), last])
    assert main(["propcheck", "--module", "hyperlayers", "--cases", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS hyperlayers/attention_vs_loop_oracle cases=3",
        "FAIL hyperlayers/adaln_vs_composition_oracle cases=0 (worst error 0.5 > 1e-9)",
        "PASS hyperlayers/attention_permutation cases=3",
        "2/3 propchecks passed"]


def test_propchecks_fail_under_python_optimize(tmp_path, monkeypatch):
    # python -O strips assert statements: a check that fails only through
    # them reports PASS on a wrong op
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    planted = ("import sys, numpy as np, hypermesh.checks as C; from hypermesh.cli import main; "
               "C.mobius_add = lambda x, y: C.Tensor(np.full(np.broadcast_shapes("
               "x.shape, y.shape), 0.5)); "
               "print('optimize', sys.flags.optimize); sys.exit(main(sys.argv[1:]))")
    done = _run_fresh(planted, "propcheck", "--module", "manifold", "--cases", "5",
                      cwd=tmp_path)
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1" and done.returncode == 1, done.stderr
    failed = [line for line in lines if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == [
        "manifold/mobius_identities", "manifold/ball_closure",
        "manifold/noncommutativity_witness"]
    assert all("not below" in line for line in failed)


def test_cli_missing_required_flag_is_a_usage_error(capsys):
    # argparse exits 2 with its usage text, not a JSON error
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", "config.json", "--report", "report.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hypermesh eval") and "--checkpoint" in err


@pytest.mark.parametrize("argv, named", [
    (["propcheck", "--module", "temporal", "--cases", "-3"], "cases"),
    (["propcheck", "--cases", "0"], "cases"),
    (["propcheck", "--module", "tensor-autodiff"], "tensor-autodiff"),
    (["gradcheck", "--module", "manifold"], "manifold"),
], ids=["negative_cases", "zero_cases", "propcheck_unknown_module",
        "gradcheck_unknown_module"])
def test_cli_vacuous_check_is_a_config_error(capsys, argv, named):
    # a run that checks nothing must not report a pass
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"] == "config" and named in err["message"]


def test_cli_gradcheck_filtered(capsys):
    assert main(["gradcheck", "--module", "temporal"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def _run_fresh(code: str, *argv: str, cwd, timeout: float = 600,
               env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Runs ``code`` in a new interpreter that imports this package's source,
    with the variables ``env`` adds to this one's environment."""
    path = [str(Path(hypermesh.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                               **(env or {})})


def test_a_utf8_config_loads_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259): the locale's codec must not decide how a config reads
    fields = {**dataclasses.asdict(_small_cfg()), "template_mesh_path": "caf\u00e9.gymt"}
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(fields, ensure_ascii=False).encode("utf-8"))
    done = _run_fresh("import sys; from hypermesh.config import PipelineConfig; "
                      "print(ascii(PipelineConfig.load(sys.argv[1]).template_mesh_path))",
                      str(path), cwd=tmp_path,
                      env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ascii("caf\u00e9.gymt")


def test_runtime_loads_no_scipy(tmp_path):
    # scipy comes with the test extra only: no runtime module may load it
    done = _run_fresh("import sys, hypermesh, hypermesh.checks; "
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])", cwd=tmp_path)
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr


def test_cli_runs_with_scipy_blocked(tmp_path):
    cfg = str(_write_cfg(tmp_path, steps=2, learning_rate=0.001))
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from hypermesh.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["gradcheck", "--module", "tensor-autodiff"], ["propcheck"],
                 ["train", "--config", cfg, "--out", "run"],
                 ["eval", "--config", cfg, "--checkpoint", "run/checkpoint/manifest.json",
                  "--report", "report.csv"]):
        done = _run_fresh(blocked, *argv, cwd=tmp_path)
        assert done.returncode == 0, (argv, done.stderr)
    assert (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("sizes, named", [((1, 2, 3), "n_fine"), ((1, 1, 4), "n_coarse"),
                                          ((1, 2, 2), "n_fine")],
                         ids=["three_fine_vertices", "one_coarse_vertex", "two_fine_vertices"])
def test_cli_refuses_meshes_the_scene_generator_cannot_build(tmp_path, sizes, named):
    # three fine vertices make one distinct face, and the generator wants
    # n_fine of them: at worst the command never returns, hence the timeout
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(zip(("n_joints", "n_coarse", "n_fine"), sizes))))
    cli = "import sys; from hypermesh.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["synth", "--config", str(path), "--out", "scene"],
                 ["train", "--config", str(path), "--out", "run"]):
        done = _run_fresh(cli, *argv, cwd=tmp_path, timeout=60)
        assert done.returncode == 3, done.stderr
        err = json.loads(done.stderr.strip())
        assert err["error"] == "config" and named in err["message"]
    assert not (tmp_path / "scene").exists() and not (tmp_path / "run").exists()


def test_cli_smallest_admitted_mesh_trains_and_evaluates(tmp_path, capsys):
    path = tmp_path / "config.json"
    PipelineConfig(n_joints=1, n_coarse=2, n_fine=4, steps=2, learning_rate=0.001).save(path)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    ckpt = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checkpoint"]
    assert main(["eval", "--config", str(path), "--checkpoint", ckpt,
                 "--report", str(tmp_path / "report.csv")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(np.isfinite(v) for v in summary.values())


@pytest.mark.parametrize("command", ["eval", "export-mesh"])
@pytest.mark.parametrize("entry", ["hpo.head.w", "hpo.head.b", "hmo.head.w", "hmo.head.b",
                                   "hpo.cross_att.w_q"])
def test_cli_nonfinite_checkpoint_entry_is_named(tmp_path, capsys, command, entry):
    cfg_path = _write_cfg(tmp_path)
    state = build_pipeline(_small_cfg(), synth_generate(_small_cfg())).state_dict()
    state[entry].flat[-1] = np.nan
    ckpt = save_checkpoint(tmp_path / "ckpt", state)
    out = tmp_path / "out"
    extra = (["--report", str(out)] if command == "eval"
             else ["--frame", "0", "--out", str(out)])
    assert main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt), *extra]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "contract"
    assert err["message"] == f"state dict entry {entry} is not finite"
    assert not out.exists()


def test_template_mesh_path_sets_the_initial_template(tmp_path):
    template = np.random.default_rng(3).uniform(-0.5, 0.5, size=(SMALL["n_coarse"], 3))
    save_tensor(tmp_path / "template.gymt", template)
    cfg = _small_cfg(template_mesh_path=str(tmp_path / "template.gymt"))
    result = train_toy(cfg, out_dir=tmp_path / "run")  # steps=0: no update
    assert load_checkpoint(result.checkpoint_path)["template"].tobytes() == template.tobytes()


def test_build_pipeline_does_not_read_the_template_file(tmp_path):
    cfg = _small_cfg(template_mesh_path=str(tmp_path / "missing.gymt"))
    pipe = build_pipeline(cfg, synth_generate(cfg))
    assert pipe.template.data.tobytes() == fibonacci_sphere(SMALL["n_coarse"]).tobytes()
    assert pipe.template.requires_grad


def test_evaluate_builds_no_config(tmp_path, monkeypatch):
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    ckpt = save_checkpoint(tmp_path / "ckpt", build_pipeline(cfg, scene).state_dict())
    built = []
    post_init = PipelineConfig.__post_init__
    monkeypatch.setattr(PipelineConfig, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    evaluate(cfg, ckpt, tmp_path / "report.csv", scene=scene)
    assert built == []


def test_cli_eval_and_export_do_not_read_the_template_file(tmp_path, capsys):
    # the checkpoint holds the trained template, so the file may move after training
    template_path = tmp_path / "template.gymt"
    save_tensor(template_path, np.random.default_rng(4).uniform(-0.5, 0.5,
                                                                size=(SMALL["n_coarse"], 3)))
    cfg_path = _write_cfg(tmp_path, template_mesh_path=str(template_path), steps=1,
                          learning_rate=0.001)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    ckpt = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checkpoint"]

    def outputs(tag):
        report, obj = tmp_path / f"report_{tag}.csv", tmp_path / f"frame_{tag}.obj"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                     "--report", str(report)]) == 0
        assert main(["export-mesh", "--config", str(cfg_path), "--checkpoint", ckpt,
                     "--frame", "1", "--out", str(obj)]) == 0
        return report.read_bytes(), obj.read_bytes()

    kept = outputs("kept")
    template_path.unlink()
    assert outputs("moved") == kept


def _nan_template():
    template = np.zeros((SMALL["n_coarse"], 3))
    template[2, 1] = np.nan
    return template


@pytest.mark.parametrize("template, named", [
    (np.zeros((SMALL["n_coarse"] + 1, 3)), "state dict entry template: shape (7, 3) != (6, 3)"),
    (_nan_template(), "state dict entry template is not finite"),
], ids=["wrong_shape", "nan"])
def test_cli_bad_template_mesh_exit_code(tmp_path, capsys, template, named):
    save_tensor(tmp_path / "template.gymt", template)
    cfg_path = _write_cfg(tmp_path, template_mesh_path=str(tmp_path / "template.gymt"),
                          steps=2, learning_rate=0.001)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "contract" and err["message"] == named
    assert not (tmp_path / "run" / "loss_curve.csv").exists()


def test_cli_missing_template_file_exit_code(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, template_mesh_path=str(tmp_path / "missing.gymt"),
                          steps=2, learning_rate=0.001)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 4
    assert "missing.gymt" in capsys.readouterr().err
    assert not (tmp_path / "run" / "loss_curve.csv").exists()


def test_gradcheck_inputs_depend_on_the_entry_name_alone(monkeypatch):
    # so that `gradcheck --module X` checks what a full run checks
    from hypermesh import checks
    registry = checks.gradcheck_registry()
    temporal = [e for e in registry if e[0] == "temporal"]
    others = [e for e in registry if e[1] in ("gelu", "mobius_add")]

    def errors(entries):
        monkeypatch.setattr(checks, "gradcheck_registry", lambda: entries)
        return sorted((r["check"], r["max_rel_err"]) for r in checks.run_gradchecks()
                      if r["module"] == "temporal")

    alone = errors(temporal)
    assert errors(others + temporal) == alone
    assert errors(temporal[::-1]) == alone


def test_gradcheck_registry_names_are_unique_and_modules_selectable():
    # an entry's inputs are seeded from its name alone, so a duplicate name
    # would check the same inputs twice; `gradcheck --module` names these four
    from hypermesh import checks
    registry = checks.gradcheck_registry()
    names = [name for _, name, _ in registry]
    assert len(names) == len(set(names))
    assert {module for module, _, _ in registry} == {
        "tensor-autodiff", "hyperlayers", "temporal", "mesh-pipeline"}


def test_benchmark_tracer_binds_every_name(monkeypatch):
    # the benchmark wraps these names from outside the package; a name that
    # moves or goes would silently drop its figures from a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    assert tracer.Tracer().missing == []


@pytest.mark.parametrize("disable_hmo", [False, True], ids=["default", "disable_hmo"])
def test_trainer_steps_bit_for_bit_as_the_benchmark_step(monkeypatch, tmp_path, disable_hmo):
    # the benchmark is to drive its training step through Trainer, which must
    # keep its bits; 7 steps at steps=3 cross the cosine schedule's wrap twice
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    from hypermesh.train import Trainer

    cfg = _small_cfg(steps=3, disable_hmo=disable_hmo)
    state = workloads.build_state("train", cfg, cfg.seed, tmp_path)
    trainer = Trainer(cfg, synth_generate(cfg))
    for _ in range(7):
        want = workloads.train_step(state)
        got = trainer.step()
        assert got.data.tobytes() == want.data.tobytes()
        params = trainer.pipeline.named_parameters()
        bench_params = state.pipeline.named_parameters()
        assert sorted(params) == sorted(bench_params)
        assert all(p.data.tobytes() == bench_params[k].data.tobytes()
                   for k, p in params.items())


def test_trainer_step_at_zero_steps_names_steps_and_leaves_the_optimizer():
    from hypermesh.train import Trainer

    cfg = _small_cfg(steps=0)
    trainer = Trainer(cfg, synth_generate(cfg))
    before = [p.data.tobytes() for p in trainer.pipeline.parameters()]
    with pytest.raises(ContractError, match="steps"):
        trainer.step()
    assert trainer.opt.lr == cfg.learning_rate and trainer.position == 0
    assert [p.data.tobytes() for p in trainer.pipeline.parameters()] == before


def test_benchmark_tracer_accounts_for_every_node(monkeypatch, tmp_path):
    # a traced training step and predict, as the benchmark traces them: the
    # self-node counts of the spans sum to the node counter, and the kept
    # tape root is the [T, n_fine, 3] fine mesh; counts only, no timing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer as tracing
    from hypermesh import train

    cfg = _small_cfg(steps=2)
    scene = synth_generate(cfg)
    pipe = train.build_pipeline(cfg, scene)
    opt = train.SGD(pipe.parameters(), pipe.ball_parameters(), lr=cfg.learning_rate,
                    momentum=cfg.momentum, ball=cfg.ball_params())
    manifest = save_checkpoint(tmp_path / "ckpt", pipe.state_dict())

    def step():
        opt.zero_grad()
        loss = train.scene_loss(pipe, scene, cfg)
        loss.backward()
        opt.step()

    tr = tracing.Tracer()
    tr.keep_tape_roots = True
    for op in (step, lambda: train.predict(cfg, manifest, scene)):
        tr.install()
        try:
            tr.root(op)()
        finally:
            tr.uninstall()
        roots = list(tr.tape_roots)
        snap = tr.snapshot()
        stats = snap["stats"]
        assert stats[tracing.ROOT][tracing.CALLS] == 1
        assert snap["nodes"] > 0
        assert sum(s[tracing.SELF_NODES] for s in stats.values()) == snap["nodes"]
        assert stats[tracing.ROOT][tracing.INCL_NODES] == snap["nodes"]
        assert [r.shape for r in roots] == [(cfg.t_frames, cfg.n_fine, 3)]
