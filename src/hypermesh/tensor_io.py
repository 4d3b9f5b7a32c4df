"""Binary tensor files, JSON-manifest checkpoints, the atomic write every
artifact goes through, and the strict JSON reader of configs and manifests.

Tensor file layout: 8-byte magic ``GYMTENSR``, u32 rank, u32 dims[rank],
then little-endian float64 payload in row-major order. Round-trips are
bit-exact.

A checkpoint directory holds ``manifest.json``, which maps each entry name
to ``{"shape": [...]}``, and one rank-1 tensor file, ``tensors.gymt``, of
every entry's values in sorted-name order. The former per-file layout (a
``"file"`` key per entry) is refused, naming its first entry.
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
PAYLOAD = "tensors.gymt"


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


def read_json_object(path: str | Path, error: type[Exception], what: str) -> dict:
    """The JSON object in the file at ``path``. Raises ``error`` when the file is
    not UTF-8 JSON, nests too deep, gives a key twice or holds no ``what`` object."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ValueError(f"key {key!r} given twice")
            out[key] = value
        return out

    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep, a key twice
        raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return data


def save_tensor(path: str | Path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f8")  # tobytes() is row-major; keeps 0-d shapes
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
        fh.write(arr.tobytes())


def _fits(fh, size: int, path, what: str) -> int:
    # sized against the file before reading or allocating: a corrupt header
    # must not turn into one huge request
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ContractError(f"{path}: truncated {what}")
    return size


def load_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ContractError(f"{path}: bad magic {magic!r}")
        (rank,) = struct.unpack("<I", fh.read(_fits(fh, 4, path, "header")))
        shape = struct.unpack(f"<{rank}I", fh.read(_fits(fh, 4 * rank, path, "header")))
        _fits(fh, 8 * math.prod(shape), path, "payload")  # np.prod wraps around in int64
        try:
            out = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # more axes than numpy supports
            raise ContractError(f"{path}: {exc}") from None
        if fh.readinto(out) != out.nbytes:  # read straight into the array: one copy
            raise ContractError(f"{path}: truncated payload")
        if fh.read(1):
            raise ContractError(f"{path}: trailing bytes after the payload")
        return out


def save_checkpoint(directory: str | Path, params: dict[str, np.ndarray]) -> Path:
    """Write the arrays as one payload file plus a JSON manifest of their
    shapes; returns the manifest path."""
    arrays = {name: np.asarray(params[name], dtype="<f8") for name in sorted(params)}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mpath = directory / "manifest.json"
    # the old manifest goes before the payload is replaced and the new one
    # comes last: a save cut short leaves no manifest, never one over another payload
    mpath.unlink(missing_ok=True)
    with atomic_write(directory / PAYLOAD, "wb") as fh:
        fh.write(MAGIC + struct.pack("<2I", 1, sum(a.size for a in arrays.values())))
        for a in arrays.values():  # one array at a time: no concatenated copy
            fh.write(np.ascontiguousarray(a))
    with atomic_write(mpath) as fh:
        json.dump({name: {"shape": list(a.shape)} for name, a in arrays.items()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return mpath


def load_checkpoint(manifest_path: str | Path) -> dict[str, np.ndarray]:
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, ContractError, "manifest")
    for name, entry in manifest.items():
        # a bool or a float would compare equal to an int dimension
        if not (isinstance(entry, dict) and list(entry) == ["shape"]
                and isinstance(entry["shape"], list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            old = isinstance(entry, dict) and "file" in entry
            raise ContractError(f"checkpoint entry {name}: needs only a \"shape\" list of integers"
                                " >= 0" + (" (the per-file layout is no longer read)" * old))
    payload = load_tensor(manifest_path.parent / PAYLOAD)
    if payload.ndim != 1:
        raise ContractError(f"{manifest_path.parent / PAYLOAD}: rank {payload.ndim}, not 1")
    sizes = {name: math.prod(manifest[name]["shape"]) for name in sorted(manifest)}
    if sum(sizes.values()) != payload.size:
        raise ContractError(f"{manifest_path}: the shapes hold {sum(sizes.values())} values, "
                            f"the payload {payload.size}")
    out, start = {}, 0
    for name, size in sizes.items():
        try:
            out[name] = payload[start:start + size].reshape(manifest[name]["shape"])
        except ValueError as exc:  # more axes than numpy supports
            raise ContractError(f"checkpoint entry {name}: {exc}") from None
        start += size
    return out
