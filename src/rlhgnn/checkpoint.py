"""Checkpoint container shared by model.bin and agent.bin: one JSON header
line, then the raw bytes of every named float64 array in header order.

The header lists the arrays as {name, shape} entries; each array takes
exactly prod(shape) * 8 bytes (little-endian float64, C order, no padding),
and the file must end right after the last one.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .hin import COUNT, STRING, Rule, check_fields, list_of

_SHAPE = list_of(COUNT, "a list of integers >= 0")
# the container's own header fields, besides kind
_CONTAINER = {
    "dtype": Rule(lambda v: v == "float64", '"float64"'),
    "arrays": list_of(Rule(lambda a: isinstance(a, dict) and STRING.ok(a.get("name"))
                           and _SHAPE.ok(a.get("shape")), "a {name, shape} object"),
                      "a list of {name, shape} objects with integer shapes >= 0"),
}


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
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as e:  # also UnicodeDecodeError
        raise ValueError(f"{path}: checkpoint header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header must be a JSON object, "
                         f"got {type(header).__name__}")
    if header.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind!r} checkpoint, got kind {header.get('kind')!r}")
    header_fields(path, header, _CONTAINER)
    sizes = [math.prod(spec["shape"]) for spec in header["arrays"]]
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
    if len(arrays) != len(sizes):
        raise ValueError(f"{path}: checkpoint names an array more than once")
    return header, arrays


def header_fields(path, header: dict, rules: dict[str, Rule]) -> dict:
    """check_fields with a ValueError naming the file and the field."""
    return check_fields(header, rules, lambda n: f"{path}: checkpoint header field {n!r}",
                        lambda n: f"{path}: checkpoint header lacks field {n!r}")


def check_arrays(path, arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise ValueError naming the file unless `arrays` holds exactly the
    names in `shapes`, each with its shape."""
    missing = [n for n in shapes if n not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint lacks array(s) {', '.join(missing)}")
    extra = [n for n in arrays if n not in shapes]
    if extra:
        raise ValueError(f"{path}: checkpoint has unexpected array(s) {', '.join(extra)}")
    for n, shape in shapes.items():
        if arrays[n].shape != tuple(shape):
            raise ValueError(f"{path}: array {n} has shape {arrays[n].shape}, "
                             f"expected {tuple(shape)}")
