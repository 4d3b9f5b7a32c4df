"""Property-based fuzzing of the loaders that read untrusted files.

Every input either round-trips exactly or raises the documented error:
``ContractError`` (exit 5) for tensor files, ``ConfigError`` (exit 3) for
configs, and for checkpoints and scenes a contract error (exit 5) or an
``OSError`` (exit 4). The examples are derandomized, so the suite sees the
same inputs on every run; raise ``max_examples`` locally to search further.
"""

import dataclasses
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from hypermesh.config import PipelineConfig
from hypermesh.errors import ConfigError, ContractError, HypermeshError
from hypermesh.synth import load_scene, save_scene, synth_generate
from hypermesh.tensor_io import (MAGIC, PAYLOAD, load_checkpoint, load_tensor,
                                 save_checkpoint, save_tensor)

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _roundtrip_file(blob: bytes, name: str, check) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(blob)
        check(path)


@st.composite
def tensor_files(draw):
    """A header and a payload that mostly agree; sometimes the rank, the
    payload size or the magic is off, or the file is cut short."""
    shape = draw(st.lists(st.integers(0, 4) | st.integers(0, 2 ** 32 - 1), max_size=5))
    rank = draw(st.just(len(shape)) | st.integers(0, 2 ** 32 - 1))
    count = math.prod(shape)
    size = draw(st.just(8 * count) | st.integers(0, 80)) if count <= 8 else draw(
        st.integers(0, 80))
    magic = draw(st.sampled_from([MAGIC, MAGIC, MAGIC, b"GYMTENSX"]))
    blob = (magic + struct.pack("<I", rank) + struct.pack(f"<{len(shape)}I", *shape)
            + draw(st.binary(min_size=size, max_size=size)))
    return blob[:draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@FUZZ
@given(tensor_files() | st.binary(max_size=64))
def test_load_tensor_round_trips_or_raises_contract_error(blob):
    def check(path):
        try:
            arr = load_tensor(path)
        except ContractError:
            return
        save_tensor(path, arr)
        assert path.read_bytes() == blob
    _roundtrip_file(blob, "t.gymt", check)


_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8),
                                                                inner, max_size=3),
    max_leaves=6)
# mostly known fields with plausible values, so that some documents load
_CONFIGS = st.dictionaries(
    st.sampled_from(_FIELDS) | st.text(max_size=8),
    st.integers(0, 64) | st.floats(0.0, 2.0) | _JSON,
    max_size=4)


@FUZZ
@given(st.binary(max_size=64) | (_JSON | _CONFIGS).map(lambda v: json.dumps(v).encode()))
def test_config_load_round_trips_or_raises_config_error(blob):
    def check(path):
        try:
            cfg = PipelineConfig.load(path)
        except ConfigError:
            return
        assert all(getattr(cfg, k) == v for k, v in json.loads(blob).items())
        cfg.save(path)
        assert PipelineConfig.load(path) == cfg
    _roundtrip_file(blob, "config.json", check)


def _damage(data, directory: Path) -> np.ndarray:
    """Leaves the checkpoint in ``directory`` as it is or damages one thing:
    the manifest (other bytes, other JSON, one edited entry) or the payload
    file (cut short, extended, removed, or replaced by another array). Returns
    the payload array as last written."""
    manifest, path = directory / "manifest.json", directory / PAYLOAD
    entries = json.loads(manifest.read_text())
    payload = load_tensor(path)
    kind = data.draw(st.sampled_from(
        ["none", "bytes", "json", "entry", "cut", "extend", "remove", "replace"]))
    if kind == "bytes":
        manifest.write_bytes(data.draw(st.binary(max_size=64)))
    elif kind == "json":
        manifest.write_text(json.dumps(data.draw(_JSON)))
    elif kind == "entry":
        name = data.draw(st.sampled_from(sorted(entries)))
        entries[name] = data.draw(st.fixed_dictionaries({}, optional={
            "shape": st.just(entries[name]["shape"]) | st.lists(st.integers(-1, 12),
                                                                max_size=3) | _JSON,
            "file": st.just(name + ".gymt") | _JSON}))
        manifest.write_text(json.dumps(entries))
    elif kind == "cut":
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    elif kind == "extend":
        path.write_bytes(path.read_bytes() + data.draw(st.binary(min_size=1, max_size=16)))
    elif kind == "remove":
        path.unlink()
    elif kind == "replace":
        shape = data.draw(st.just([payload.size]) | st.lists(st.integers(0, 12), max_size=3))
        value = data.draw(st.sampled_from([0.0, 1.0, -1.0, 0.5, np.nan, np.inf]))
        payload = np.full(shape, value)
        save_tensor(path, payload)
    return payload


def _as_written(loaded: dict, manifest: Path, payload: np.ndarray) -> None:
    """A load that succeeded gives the manifest's names, each with its shape
    and its run of the rank-1 payload last written, taken in sorted-name order."""
    entries = json.loads(manifest.read_text())
    assert sorted(loaded) == sorted(entries) and payload.ndim == 1
    start = 0
    for name in sorted(entries):
        want = payload[start:start + math.prod(entries[name]["shape"])]
        start += want.size
        assert loaded[name].shape == tuple(entries[name]["shape"])
        assert np.array_equal(loaded[name].ravel(), want, equal_nan=True)
    assert start == payload.size


def _load_or_raise(load, *args):
    """The load's result, or None when it raised an error that the CLI
    reports with exit 4 or 5."""
    try:
        return load(*args)
    except OSError:
        return None
    except HypermeshError as exc:
        assert not isinstance(exc, ConfigError), exc
        return None


_PARAM_NAMES = ["w", "b", "hpo.w_q", "prior.gru.u_z", "template"]


@FUZZ
@given(st.data())
def test_load_checkpoint_round_trips_or_raises(data):
    names = data.draw(st.lists(st.sampled_from(_PARAM_NAMES), min_size=1, unique=True))
    params = {name: np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(
        size=data.draw(st.lists(st.integers(0, 3), max_size=3))) for name in names}
    with tempfile.TemporaryDirectory() as d:
        manifest = save_checkpoint(Path(d) / "ckpt", params)
        payload = _damage(data, manifest.parent)
        loaded = _load_or_raise(load_checkpoint, manifest)
        if loaded is not None:
            _as_written(loaded, manifest, payload)


@FUZZ
@given(st.data())
def test_load_scene_round_trips_or_raises(data):
    cfg = PipelineConfig(t_frames=2, n_joints=2, feat_dim=2, model_dim=2, heads=1,
                         n_coarse=3, n_fine=4, seed=data.draw(st.integers(0, 99)))
    with tempfile.TemporaryDirectory() as d:
        directory = save_scene(synth_generate(cfg), Path(d) / "scene")
        payload = _damage(data, directory)
        scene = _load_or_raise(load_scene, directory)
        if scene is not None:
            topo = scene.topology
            _as_written({"poses": scene.poses, "coarse_meshes": scene.coarse_meshes,
                         "fine_meshes": scene.fine_meshes, "feats": scene.feats,
                         "regressor": scene.regressor.matrix, "upsampler": topo.upsampler,
                         "edges": topo.edges, "faces": topo.faces},
                        directory / "manifest.json", payload)
