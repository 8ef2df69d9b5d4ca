"""Deterministic text output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). json_dumps and csv_row write those
fixed widths; the column formatters take the digits, since the streamed
scan and grid writer uses both. Output is byte-stable across runs.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def float_field(sig: int) -> str:
    """The % field that writes one float to sig significant digits.

    %g spells the non-finite values nan, inf and -inf.
    """
    return f"%.{sig}g"


def _float_rules(values) -> list[float]:
    """The values as Python floats, row-major, by one tolist().

    The one place the float rules live besides float_field: adding 0.0
    turns -0 into 0, so repeated runs cannot differ on signed zero.
    """
    return (np.asarray(values, dtype=float) + 0.0).ravel().tolist()


def literal(text: str) -> str:
    """text as it stands in a % template, which writes it as it is."""
    return text.replace("%", "%%")


def format_column(values, sig: int, quote_nonfinite: bool = False) -> list[str]:
    """Each value as a float to sig significant digits, in order.

    CSV writes the non-finite values bare; JSON has no such literals, so
    quote_nonfinite writes them as strings.
    """
    cells = _float_rules(values)
    texts = list(map(float_field(sig).__mod__, cells))
    if quote_nonfinite:
        return [t if math.isfinite(x) else f'"{t}"' for x, t in zip(cells, texts)]
    return texts


# a % template holds escaped percent signs and float fields, nothing else
_TEMPLATE_TOKEN = re.compile(r"%%|%\.\d+g")


def format_rows(template: str, columns, sig: int, quote_nonfinite: bool = False,
                derive=None) -> str:
    """A block of rows as one text: template filled by one %.

    template holds one float_field(sig) per cell, in output order, and
    other text only as literal() writes it. Cell n of the block is item
    n // w of column n % w, for w columns each raveled, so a block's
    row-major 2-D array is one column and separate columns meet row by
    row. Every cell is written as format_column writes it: each column
    passes the float rules by one tolist(), and derive, if given, maps the
    last column's floats to one more column, used as it returns them (log10
    T beside T), so a derived column costs no second conversion. With
    quote_nonfinite, a block that holds a non-finite cell takes
    format_column's quoted texts in every field; a finite block pays
    nothing for it.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    cells = [_float_rules(a) for a in arrays]
    if derive is not None:
        cells.append(derive(cells[-1]))
        arrays.append(cells[-1])
    if quote_nonfinite and not all(np.isfinite(a).all() for a in arrays):
        cells = [format_column(c, sig, quote_nonfinite=True) for c in cells]
        template = _TEMPLATE_TOKEN.sub(lambda m: "%%" if m.group() == "%%" else "%s", template)
    flat = [None] * sum(map(len, cells))
    for j, column in enumerate(cells):
        flat[j::len(cells)] = column
    return template % tuple(flat)


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
