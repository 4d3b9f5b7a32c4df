"""Property-based fuzzing of the loaders that read untrusted files.

Every input either round-trips exactly or raises the documented error:
``ContractError`` (exit 5) for tensor files, ``ConfigError`` (exit 3) for
configs. The examples are derandomized, so the suite sees the same inputs on
every run; raise ``max_examples`` locally to search further.
"""

import dataclasses
import json
import math
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hypermesh.config import PipelineConfig
from hypermesh.errors import ConfigError, ContractError
from hypermesh.tensor_io import MAGIC, load_tensor, save_tensor

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
    st.integers(0, 64) | st.floats(0.0, 2.0) | st.sampled_from(["wide", "narrow"]) | _JSON,
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
