"""Deterministic text output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). The writers compose one function per
rule: floats() holds the float rules, format_rows() fills a % template
from ready-made cell lists, and quote_nonfinite() writes the bare nan and
inf of a %g text as JSON strings. json_dumps and csv_row are the
one-value case. Output is byte-stable across runs.
"""

from __future__ import annotations

import json
import re

import numpy as np


def floats(values) -> list[float]:
    """The values as Python floats, row-major, by one tolist().

    Adding 0.0 turns -0 into 0, so runs cannot differ on signed zero.
    """
    return (np.asarray(values, dtype=float) + 0.0).ravel().tolist()


def format_column(values, sig: int) -> list[str]:
    """Each value to sig significant digits, in order; %g spells nan, inf and -inf."""
    return list(map(f"%.{sig}g".__mod__, floats(values)))


# the non-finite fields of a %g text
_NONFINITE = re.compile(r"-?inf|nan")


def quote_nonfinite(text: str) -> str:
    """A %g text with each bare nan, inf and -inf written as a JSON string.

    A finite %g field never holds the letter n, so a text without one is
    returned as it is.
    """
    if "n" not in text:
        return text
    # a function replacement: a template one is much slower on many matches
    return _NONFINITE.sub(lambda m: f'"{m.group()}"', text)


def format_rows(template: str, columns) -> str:
    """A block of rows as one text: template filled by one %.

    template holds one % field per cell, in output order. Cell n is item
    n // w of column n % w of the w equal-length cell lists, so one
    row-major list is one column and separate columns meet row by row.
    """
    flat = [None] * sum(map(len, columns))
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
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
        out.append(quote_nonfinite(format_column((obj,), 17)[0]))
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
