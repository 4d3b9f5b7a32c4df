"""Binary tensor files, JSON-manifest checkpoints, and the atomic file
write every artifact goes through.

File layout: 8-byte magic ``GYMTENSR``, u32 rank, u32 dims[rank], then
little-endian float64 payload in row-major order. Round-trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ContractError

MAGIC = b"GYMTENSR"


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (``mode`` "w" or "wb").

    When the block completes, the file replaces ``path`` in one step
    (``os.replace``); when it raises, the temporary file is removed and
    ``path`` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.load``'s ``object_pairs_hook``: a key given twice raises ``ValueError``."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value
    return out


def save_tensor(path: str | Path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f8")  # tobytes() is row-major; keeps 0-d shapes
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # sized against the file before reading: a corrupt header must not turn
    # into one huge read request
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ContractError(f"{path}: truncated {what}")
    return fh.read(size)


def load_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ContractError(f"{path}: bad magic {magic!r}")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, "header"))
        count = math.prod(shape)  # Python ints: np.prod wraps around in int64
        payload = _read_exact(fh, 8 * count, path, "payload")
        if fh.read(1):
            raise ContractError(f"{path}: trailing bytes after the payload")
        try:
            return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # more axes than numpy supports
            raise ContractError(f"{path}: {exc}") from None


def _file_name(name: str) -> str:
    return name.replace("/", "_").replace(".", "_") + ".gymt"


def save_checkpoint(directory: str | Path, params: dict[str, np.ndarray]) -> Path:
    """Write one binary file per parameter plus a JSON manifest; returns manifest path."""
    owners: dict[str, str] = {}
    for name in sorted(params):
        other = owners.setdefault(_file_name(name), name)
        if other != name:
            raise ContractError(
                f"parameters {other!r} and {name!r} map to one file {_file_name(name)!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mpath = directory / "manifest.json"
    # the old manifest goes before any file is rewritten and the new one comes
    # last: an overwrite cut short leaves no manifest, never one over mixed files
    mpath.unlink(missing_ok=True)
    manifest = {}
    for fname, name in owners.items():
        save_tensor(directory / fname, params[name])
        manifest[name] = {"file": fname, "shape": list(params[name].shape)}
    with atomic_write(mpath) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return mpath


def load_checkpoint(manifest_path: str | Path) -> dict[str, np.ndarray]:
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep, a key twice
            raise ContractError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ContractError(f"{manifest_path}: manifest must be a JSON object")
    out = {}
    owners: dict[str, str] = {}
    for name, entry in manifest.items():
        # a bool or a float would compare equal to an int dimension
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int for d in entry["shape"])):
            raise ContractError(f"checkpoint entry {name}: needs a string \"file\" "
                                "and a \"shape\" list of integers")
        fname = entry["file"]
        if fname in ("", "..") or Path(fname).name != fname or not fname.isprintable():
            raise ContractError(
                f"checkpoint entry {name}: file {fname!r} is not a file name "
                "in the manifest's directory")
        other = owners.setdefault(fname, name)
        if other != name:
            raise ContractError(f"checkpoint entries {other} and {name} name one file {fname!r}")
        arr = load_tensor(manifest_path.parent / fname)
        if list(arr.shape) != entry["shape"]:
            raise ContractError(f"checkpoint entry {name}: shape mismatch")
        out[name] = arr
    return out
