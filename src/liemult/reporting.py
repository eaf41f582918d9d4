"""Deterministic report serialization.

Report bytes must be a pure function of (config, seeds, version), so: keys
are sorted, floats use repr (shortest round-trip form), no timestamps or
environment data are recorded, and CSV rows are written in a fixed order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

__all__ = ["Report", "jsonable", "dump_json", "write_csv"]


class Report:
    """Base of the report dataclasses: one ``to_dict`` for all of them.

    The dict lists the fields in declaration order, with ``passed`` under the
    key ``pass``; ``jsonable`` does the rest of the conversion.
    """

    def to_dict(self) -> dict:
        return {"pass" if f.name == "passed" else f.name: getattr(self, f.name)
                for f in fields(self)}


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and report objects for json."""
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if np.isnan(value):
            return None
        return value
    return obj


def dump_json(obj, path: str | Path) -> bytes:
    """Write canonical JSON; returns the bytes written."""
    data = (json.dumps(jsonable(obj), sort_keys=True, indent=2,
                       ensure_ascii=True) + "\n").encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return data


def write_csv(path: str | Path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
