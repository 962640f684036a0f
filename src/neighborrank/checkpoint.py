"""Binary checkpoint files for named float64 arrays, and atomic file writes.

Layout (little-endian): magic "NLGRCKPT", version u32, then one record per
array: name length u32, name bytes (utf-8), rank u32, dims u32 each, values
as float64 row-major. Round-trips are bit-exact. Every artifact is written
through `atomic_write`, so a failed write leaves the previous file in place.
"""
from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"NLGRCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file beside `path` for writing; when the block ends it
    replaces `path`, and when the block raises it is removed instead."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_arrays(path) -> dict[str, np.ndarray]:
    path = Path(path)
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = data[pos : pos + n]
        pos += n
        return out

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: array name is not UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4))
        if rank > 32:
            raise CheckpointError(f"{path}: array {name!r} has rank {rank}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(dims)
        values = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        arrays[name] = values.reshape(dims)
    return arrays
