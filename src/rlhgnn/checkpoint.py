"""Checkpoint container shared by model.bin and agent.bin: one JSON header
line, then the raw bytes of every named float64 array in header order.

The header lists the arrays as {name, shape} entries; each array takes
exactly prod(shape) * 8 bytes (little-endian float64, C order, no padding),
and the file must end right after the last one.
"""
from __future__ import annotations

import json

import numpy as np


def write_checkpoint(path, kind: str, fields: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    header = {
        "kind": kind,
        "dtype": "float64",
        **fields,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        for _, a in arrays:
            f.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def read_checkpoint(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, name -> array); raises ValueError unless the file is a
    complete checkpoint of the given kind with no trailing bytes."""
    with open(path, "rb") as f:
        line = f.readline()
        blob = f.read()
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: checkpoint header line is not terminated by a newline")
    header = json.loads(line.decode("utf-8"))
    if header.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind!r} checkpoint, got kind {header.get('kind')!r}")
    sizes = [int(np.prod(spec["shape"])) for spec in header["arrays"]]
    expected = 8 * sum(sizes)
    if len(blob) != expected:
        raise ValueError(
            f"{path}: checkpoint arrays need exactly {expected} bytes after the header, "
            f"found {len(blob)}"
        )
    arrays: dict[str, np.ndarray] = {}
    off = 0
    for spec, n in zip(header["arrays"], sizes):
        arrays[spec["name"]] = np.frombuffer(
            blob, dtype=np.float64, count=n, offset=off
        ).reshape(spec["shape"]).copy()
        off += 8 * n
    return header, arrays
