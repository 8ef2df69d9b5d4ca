"""Deterministic text output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). Output is byte-stable across runs.
"""

from __future__ import annotations

import json

import numpy as np


def format_column(values, sig: int, quote_nonfinite: bool = False) -> list[str]:
    """Each value as a float to sig significant digits, in order.

    The one place the float rules live: adding 0.0 turns -0 into 0, so
    repeated runs cannot differ on signed zero, and %g spells the
    non-finite values nan, inf and -inf. CSV writes them bare; JSON has
    no such literals, so quote_nonfinite writes them as strings.
    """
    arr = np.asarray(values, dtype=float) + 0.0
    texts = list(map(f"%.{sig}g".__mod__, arr.ravel().tolist()))
    if quote_nonfinite:
        for i in np.flatnonzero(~np.isfinite(arr)).tolist():
            texts[i] = f'"{texts[i]}"'
    return texts


def fmt_float(x: float, sig: int) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of float paths
        raise TypeError("bool is not a float")
    return format_column((x,), sig)[0]


def json_dumps(obj, sig: int = 17) -> str:
    """Serialize dicts/lists/str/int/float/bool/None with fixed float precision.

    Key order is preserved (callers build dicts in deterministic order).
    """
    out: list[str] = []
    _emit(obj, sig, out)
    return "".join(out)


def _emit(obj, sig: int, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_column((obj,), sig, quote_nonfinite=True)[0])
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, got {type(k)}")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, sig, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, sig, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def csv_row(values, sig: int = 12) -> str:
    """One CSV line; floats formatted to sig digits, strings passed through."""
    cells = []
    for v in values:
        if isinstance(v, str):
            cells.append(v)
        elif isinstance(v, float):
            cells.append(fmt_float(v, sig))
        else:
            cells.append(str(v))
    return ",".join(cells)
