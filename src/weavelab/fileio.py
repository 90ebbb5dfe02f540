"""Frame-system files and machine-readable reports.

Systems are stored as JSON with an explicit norm tag; numbers round-trip
losslessly (shortest-repr doubles).  Reports are JSON with sorted keys so a
rerun with the same inputs and seed is byte-identical except for the
timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InputError, NotABasis
from .normed import NormKind, NormedSpace
from .frames import FrameSystem, biorthogonals


def _require(condition: bool, message: str):
    if not condition:
        raise InputError(message)


def system_to_payload(system: FrameSystem) -> dict:
    return {
        "dim": system.space.dim,
        "norm": system.space.norm.format(),
        "vectors": [[float(x) for x in row] for row in system.vectors],
        "functionals": [[float(x) for x in row] for row in system.functionals],
        "label": system.label,
    }


def _rows(source: str, field: str, rows: list, dim: int) -> np.ndarray:
    """``rows`` as a float array; each row must hold ``dim`` finite numbers."""
    for i, row in enumerate(rows, start=1):
        _require(isinstance(row, list) and len(row) == dim,
                 f"{source}: {field} row {i} must be an array of {dim} numbers")
        _require(all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     and abs(x) <= sys.float_info.max for x in row),
                 f"{source}: {field} row {i} has a non-finite or non-numeric entry")
    return np.array([[float(x) for x in row] for row in rows])


def system_from_payload(payload: dict, norm_override: str | None = None,
                        source: str = "<payload>") -> FrameSystem:
    """Validate and build a FrameSystem; messages name the offending field."""
    _require(isinstance(payload, dict), f"{source}: top level must be an object")
    for key in ("dim", "norm", "vectors"):
        _require(key in payload, f"{source}: missing required field {key!r}")
    dim = payload["dim"]
    _require(type(dim) is int and dim >= 1, f"{source}: dim must be a positive integer")
    norm = norm_override if norm_override is not None else payload["norm"]
    _require(isinstance(norm, str), f"{source}: norm must be a string such as 'lp:3'")
    norm = NormKind.parse(norm)
    vectors = payload["vectors"]
    _require(isinstance(vectors, list) and vectors, f"{source}: vectors must be a nonempty array")
    v = _rows(source, "vectors", vectors, dim)
    functionals = payload.get("functionals")
    if functionals is None:
        _require(len(vectors) == dim,
                 f"{source}: functionals are absent, so the {len(vectors)} vectors must "
                 f"form a square basis of dimension {dim}")
        try:
            f = biorthogonals(v)
        except NotABasis as exc:
            raise InputError(f"{source}: cannot compute biorthogonals: {exc}") from None
    else:
        _require(isinstance(functionals, list) and len(functionals) == len(vectors),
                 f"{source}: functionals must match the number of vectors")
        f = _rows(source, "functionals", functionals, dim)
    label = payload.get("label", "")
    _require(isinstance(label, str), f"{source}: label must be a string")
    return FrameSystem(NormedSpace(dim, norm), v, f, label=label)


def load_system(path: str, norm_override: str | None = None) -> FrameSystem:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    return system_from_payload(payload, norm_override, source=path)


def save_system(system: FrameSystem, path: str):
    write_report(system_to_payload(system), path)


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build_report(command: str, inputs: list[tuple[str, str]], seed: int,
                 results: dict) -> dict:
    """Assemble the report envelope; ``inputs`` holds (name, sha256) pairs."""
    return {
        "tool": "weavelab",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "seed": seed,
        "inputs": [{"name": name, "sha256": digest} for name, digest in inputs],
        "results": results,
    }


def write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_growth_csv(rows: list[tuple[int, float]], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,constant\n")
        for d, c in rows:
            fh.write(f"{d},{c!r}\n")
