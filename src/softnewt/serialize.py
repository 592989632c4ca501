"""JSON helpers shared by every artifact (instances, reports, bounds).

All floats are written in shortest round-trip decimal (up to 17 significant
digits), so write-then-read reproduces the in-memory double bit-exactly and a
fixed input always serializes to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

SCHEMA_VERSION = 1


def _pyify(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json.dumps round-trips them."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def dumps(doc: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift."""
    return json.dumps(_pyify(doc), sort_keys=True, indent=2, allow_nan=True)


def dump_path(doc: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load_path(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
