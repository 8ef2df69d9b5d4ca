"""Deterministic text output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). The writers compose one function per
rule: _field() writes one float and floats() readies the cells of a %
template by the same rule (-0 as 0), format_rows() fills a % template
from ready-made cell lists, and quote_nonfinite() writes the bare nan and
inf of a %g text as JSON strings. format_column, json_dumps and csv_row
write each float by _field, with no numpy round trip. Output is
byte-stable across runs.

The JSON axes and value rows of scans and grids are written by
_rows17, which gives the bytes of %.17g without the float formatter.
For 17 digits CPython's %g takes the bignum path of its correctly
rounded dtoa (D. M. Gay, 1990), several times the cost of a %d field of
a 17-digit integer. _rows17 computes each value's 17-digit significand
exactly in numpy and writes it as one integer % field inside a short
fragment that holds the rest of its text; a value it cannot certify
keeps its %.17g field.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np


def floats(values) -> list[float]:
    """The values as Python floats, row-major, by one tolist().

    Adding 0.0 turns -0 into 0, so runs cannot differ on signed zero.
    """
    with np.errstate(invalid="ignore"):  # only a signaling nan raises it, and stays nan
        return (np.asarray(values, dtype=float) + 0.0).ravel().tolist()


def _field(value, sig: int) -> str:
    """One float to sig significant digits, -0 as 0; %g spells nan, inf and -inf.

    float() comes first, so a numpy scalar is added as a Python float and
    a signaling nan raises no numpy warning.
    """
    return "%.*g" % (sig, float(value) + 0.0)


def format_column(values, sig: int) -> list[str]:
    """Each value by _field, row-major."""
    return [_field(v, sig) for v in np.asarray(values, dtype=float).ravel().tolist()]


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


# powers of ten as int64, 10**0 to 10**17
_P10 = 10 ** np.arange(18, dtype=np.int64)

# values from here up keep %.17g, so a fragment holds at most three integer
# digits and the codes that occur stay few
_WHOLE_LIMIT = 1000


@functools.cache
def _powers_of_ten():
    """10**s for s = 0..308 as (hi, hi's upper half, hi's lower half, lo).

    hi is the double nearest 10**s and lo the double nearest 10**s - hi,
    so lo is 0 exactly where 10**s is a double (s <= 22). The halves are
    Veltkamp's 26-bit split of hi, taken at 2**-100 scale so that the
    split cannot overflow.
    """
    exact = [10 ** s for s in range(309)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    h = hi * 2.0 ** -100
    t = h * 134217729.0
    upper = t - (t - h)
    return hi, upper * 2.0 ** 100, (h - upper) * 2.0 ** 100, lo


@functools.lru_cache(maxsize=4096)
def _fragment_body(code: int) -> str:
    """The text of one certified value around its integer field; code -1 is %.17g.

    code packs, from the top: the negated exponent of the e-notation (0
    in fixed notation), whether there is a fraction, its leading zeros,
    the sign and the integer part that precedes the point.
    """
    if code < 0:
        return "%.17g"
    code, whole = divmod(code, _WHOLE_LIMIT)
    code, negative = divmod(code, 2)
    code, zeros = divmod(code, 32)
    exponent, fraction = divmod(code, 2)
    text = ("-" if negative else "") + (f"{whole}.{'0' * zeros}%d" if fraction else "%d")
    return text + "e-%02d" % exponent if exponent else text


def _significands(a):
    """(m, s, ok) of a in [1e-290, 1000): m = a * 10**s rounded half to even, 17 digits where ok.

    s = 16 - floor(log10 a). Dekker's two-product against the power table
    gives a * 10**s as the double p plus the remainder f. Where 10**s is a
    double (s <= 22) p + f is exact, and since p > 1e16 > 2**53 is an even
    integer, m = p + rint(f) is the rounding of p + f. Past s = 22 the
    table's lo adds an error of about 1e-14 to f, so a value whose f lies
    within 1e-6 of a tie is not ok. p + f >= 1e16 and p < 1e17 check s,
    which log10 may miss by one.
    """
    s = (16.0 - np.floor(np.log10(a))).astype(np.intp)
    hi, hi_upper, hi_lower, lo = _powers_of_ten()
    p = a * hi[s]
    a_upper = a * 134217729.0
    a_upper -= a_upper - a
    a_lower = a - a_upper
    f = ((a_upper * hi_upper[s] - p) + a_upper * hi_lower[s] + a_lower * hi_upper[s]) \
        + a_lower * hi_lower[s] + a * lo[s]
    r = np.rint(f)
    ok = ((p > 1e16) | (p == 1e16) & (f >= 0)) & (p < 1e17) \
        & ((s <= 22) | (np.abs(np.abs(f - r) - 0.5) > 1e-6))
    p[~ok] = 1e16
    return p.astype(np.int64) + r.astype(np.int64), s, ok


def _codes(x):
    """(code, arg) of each flat cell x: its fragment code and %d argument, code -1 for %.17g.

    A value that _significands certifies is written from its 17-digit
    significand m: the digits after the point lose their trailing zeros,
    as %g does, and the code keeps the e-notation exponent, whether there
    is a fraction, its leading zeros, the sign and the integer part
    before the point (see _fragment_body).
    """
    a = np.abs(x)
    ok = a >= 1e-290  # 0, tiny values, nan, inf and 1000 up keep %.17g
    ok &= a < _WHOLE_LIMIT
    m, s, certified = _significands(np.where(ok, a, 1.0))
    ok &= certified

    # %g's fixed notation from exponent 16 - s = -4 up, its e-notation below
    fixed = s <= 20
    places = np.where(fixed, s, 16)  # digits after the point before stripping
    scale = _P10[np.minimum(places, 17)]
    whole = m // scale
    digits = m - whole * scale
    fraction = digits != 0
    zeros = places - np.searchsorted(_P10, digits, side="right")
    ends_in_zero = np.flatnonzero(digits - digits // 10 * 10 == 0)
    if ends_in_zero.size:
        d = digits[ends_in_zero]
        for n in (16, 8, 4, 2, 1):
            shorter = d // _P10[n]
            d = np.where(shorter * _P10[n] == d, shorter, d)
        digits[ends_in_zero] = d

    code = np.where(fixed, 0, s - 16) * 2 + fraction
    code = ((code * 32 + np.where(fraction, zeros, 0)) * 2 + (x < 0)) * _WHOLE_LIMIT
    code += np.where(fraction, whole, 0)
    code[~ok] = -1
    return code, np.where(fraction, digits, whole)


class _Fragments(dict):
    """The text around each cell's field by code, built on first use.

    The two low bits of a code mark the first and the last cell of a
    row, which carry its head and its tail; the rest is the code of
    _fragment_body.
    """

    def __init__(self, head: str, sep: str, tail: str):
        super().__init__()
        self.before, self.after = (sep, head, sep, head), ("", "", tail, tail)

    def __missing__(self, code: int) -> str:
        text = self[code] = self.before[code & 3] + _fragment_body(code >> 2) + self.after[code & 3]
        return text


def _rows17(values, head: str, sep: str, tail: str) -> str:
    """A 2-D block as rows of head, cells joined by sep, and tail: each cell "%.17g" % (v + 0.0).

    The bytes equal that % fill for every float64, nan and inf included,
    so quote_nonfinite works on the text as on the % fill's. Most cells
    are one %d field inside a fragment that holds the separator, sign,
    integer part, point, leading zeros and exponent (_codes).
    """
    values = np.asarray(values, dtype=float)
    rows, width = values.shape
    with np.errstate(invalid="ignore"):  # only a signaling nan raises it, and stays nan
        x = values.ravel() + 0.0  # -0 to 0
    code, args = _codes(x)
    column = np.arange(width)
    cells = (code.reshape(rows, width) * 4 + (column == 0) + 2 * (column == width - 1)).ravel()
    template = "".join(map(_Fragments(head, sep, tail).__getitem__, cells.tolist()))
    args = args.tolist()
    kept = np.flatnonzero(code < 0)
    for i, v in zip(kept.tolist(), x[kept].tolist()):
        args[i] = v
    return template % tuple(args)


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
        out.append(quote_nonfinite(_field(obj, 17)))
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
            cells.append(_field(v, 12))
        else:
            cells.append(str(v))
    return ",".join(cells)
