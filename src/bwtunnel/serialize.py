"""Deterministic text output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). json_dumps and csv_row write those
fixed widths; the column formatters take the digits, since the streamed
scan and grid writer uses both. Output is byte-stable across runs.
"""

from __future__ import annotations

import json

import numpy as np


def _float_rules(values, sig: int) -> tuple[np.ndarray, str]:
    """The values as floats and the field that writes one of them.

    The one place the float rules live: adding 0.0 turns -0 into 0, so
    repeated runs cannot differ on signed zero, and %g spells the
    non-finite values nan, inf and -inf.
    """
    return np.asarray(values, dtype=float) + 0.0, f"%.{sig}g"


def format_column(values, sig: int, quote_nonfinite: bool = False) -> list[str]:
    """Each value as a float to sig significant digits, in order.

    CSV writes the non-finite values bare; JSON has no such literals, so
    quote_nonfinite writes them as strings.
    """
    arr, field = _float_rules(values, sig)
    texts = list(map(field.__mod__, arr.ravel().tolist()))
    if quote_nonfinite:
        for i in np.flatnonzero(~np.isfinite(arr)).tolist():
            texts[i] = f'"{texts[i]}"'
    return texts


def format_rows(values, sig: int, quote_nonfinite: bool = False, texts=(),
                start: str = "", sep: str = ",", end: str = "\n") -> str:
    """Rows of cells as one text: start, the row's cells joined by sep, end.

    values is a 2-D array of floats, one row per output row, written as
    format_column writes them. Each column of texts (a list of str, one
    per row) comes first in its row, as it is. The whole block is one %
    over the row template repeated once per row, so every cell is
    formatted inside one C call instead of one Python call per row.
    """
    rows, width = np.shape(values)
    if quote_nonfinite:
        field, cells = "%s", format_column(values, sig, quote_nonfinite=True)
    else:
        arr, field = _float_rules(values, sig)
        cells = arr.ravel().tolist()
    columns = [*texts, *(cells[j::width] for j in range(width))]
    flat = [None] * (rows * len(columns))
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
    template = start + sep.join(["%s"] * len(texts) + [field] * width) + end
    return (template * rows) % tuple(flat)


def json_dumps(obj) -> str:
    """Serialize dicts/lists/str/int/float/bool/None, floats to 17 digits.

    Key order is preserved (callers build dicts in deterministic order).
    """
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_column((obj,), 17, quote_nonfinite=True)[0])
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
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def csv_row(values) -> str:
    """One CSV line; floats formatted to 12 digits, strings passed through."""
    cells = []
    for v in values:
        if isinstance(v, str):
            cells.append(v)
        elif isinstance(v, float):
            cells.append(format_column((v,), 12)[0])
        else:
            cells.append(str(v))
    return ",".join(cells)
