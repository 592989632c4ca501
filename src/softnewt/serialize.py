"""JSON helpers shared by every artifact (instances, reports, bounds).

``dumps`` writes exactly the bytes of the standard library's
``json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)`` once numpy
arrays are converted with ``tolist()`` and numpy scalars with ``float``,
``int`` or ``bool``. The stdlib's ``indent=2`` takes its pure-Python encoder,
whose per-value overhead is most of the cost of writing an instance, so the
writer here renders each innermost row of a float array with one join of
``float.__repr__`` values. Floats are written in shortest round-trip decimal
(up to 17 significant digits), so write-then-read reproduces the in-memory
double bit-exactly and a fixed input always serializes to identical bytes.
Non-finite floats are spelled ``NaN``, ``Infinity`` and ``-Infinity``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

SCHEMA_VERSION = 1

_INDENT = "  "


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _rows(items: list, depth: int, leaf, out: list, nl: str) -> None:
    """A nested list of ``depth`` levels whose innermost values ``leaf`` renders."""
    if not items:
        out.append("[]")
        return
    inner = nl + _INDENT
    if depth == 1:
        out.append("[" + inner + ("," + inner).join(map(leaf, items)) + nl + "]")
        return
    sep = "[" + inner
    for row in items:
        out.append(sep)
        _rows(row, depth - 1, leaf, out, inner)
        sep = "," + inner
    out.append(nl + "]")


def _write(obj: Any, out: list, nl: str) -> None:
    """Append the encoding of ``obj`` to ``out``; ``nl`` is a newline and the current indent."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + _INDENT
        sep = "{" + inner
        # a key that is not a str raises TypeError, in sorting or in encoding
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + _INDENT
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            leaf = float.__repr__ if np.isfinite(obj).all() else _float
            _rows(obj.tolist(), obj.ndim, leaf, out, nl)
        else:
            _write(obj.tolist(), out, nl)
    elif isinstance(obj, np.floating):
        out.append(_float(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(doc: Any) -> str:
    """Deterministic JSON encoding: sorted keys, two-space indent, no whitespace drift.

    Raises TypeError on a dict key that is not a str and on any value other
    than a str, int, float, bool, None, dict, list, tuple, numpy array or
    numpy scalar.
    """
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def dump_path(doc: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load_path(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
