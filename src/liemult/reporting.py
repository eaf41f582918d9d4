"""Deterministic report serialization.

Report bytes must be a pure function of (config, seeds, version), so: keys
are sorted, floats use repr (shortest round-trip form), no timestamps or
environment data are recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["jsonable", "dump_json"]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays (NaN and +-inf to None) for strict json."""
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
        return value if np.isfinite(value) else None
    return obj


def dump_json(obj, path: str | Path) -> bytes:
    """Write canonical JSON; returns the bytes written."""
    data = (json.dumps(jsonable(obj), sort_keys=True, indent=2,
                       ensure_ascii=True) + "\n").encode()
    Path(path).write_bytes(data)
    return data
