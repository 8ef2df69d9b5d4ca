"""Deterministic output: fixed-precision floats for CSV and JSON.

CSV rows carry 12 significant digits; JSON carries 17 (enough to
round-trip any double exactly). The writers compose one function per
rule: _field() writes one float and floats() readies the cells of a %
template by the same rule (-0 as 0), format_rows() fills a % template
from ready-made cell lists, and quote_nonfinite() writes the bare nan and
inf of a %g text as JSON strings. format_column, json_dumps and csv_row
write each float by _field, with no numpy round trip. Output is
byte-stable across runs.

Every writer takes and returns ASCII bytes, so the CLI writes each
block as it was filled, with no encoded copy. bytes % and str % format a
float by the same routine (PyOS_double_to_string), so the bytes are
those of the str fill.

format_block writes a block of rows at 12 or 17 digits with the bytes
of the %.12g or %.17g fill, without the float formatter for most cells.
CPython's %g takes its correctly rounded dtoa (D. M. Gay, 1990), about
0.23 us a field against 0.06 us for a %d field of an integer.
format_block computes each value's significand exactly in numpy and
writes it as one integer % field inside a fragment that holds the rest
of its text (sign, integer part, leading zeros, exponent); a value it
cannot certify keeps its %g field. Neighbouring rows of a scan mostly
share one such layout, about a hundred rows at a time, so the template
is one row fragment repeated per run of equal rows. A writer keeps one
BlockLayout (digit count, gaps and the fragment texts built so far) for
all its blocks. format_block writes a scan's
CSV rows (alpha, T and log10T at 12 digits, the k text inside the row
fragment) and the JSON axes and value rows of scans and grids. A grid's
CSV rows change layout every few cells along k, so its runs are short,
and there format_block was slower than the plain %.12g fill the CLI
keeps (format_column and format_rows).
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


def _field(value, sig: int) -> bytes:
    """One float to sig significant digits, -0 as 0; %g spells nan, inf and -inf.

    float() comes first, so a numpy scalar is added as a Python float and
    a signaling nan raises no numpy warning.
    """
    return b"%.*g" % (sig, float(value) + 0.0)


def format_column(values, sig: int) -> list[bytes]:
    """Each value by _field, row-major."""
    return [_field(v, sig) for v in np.asarray(values, dtype=float).ravel().tolist()]


# the non-finite fields of a %g text
_NONFINITE = re.compile(rb"-?inf|nan")


def quote_nonfinite(text: bytes) -> bytes:
    """A %g text with each bare nan, inf and -inf written as a JSON string.

    A finite %g field never holds the letter n, so a text without one is
    returned as it is.
    """
    if b"n" not in text:
        return text
    # a function replacement: a template one is much slower on many matches
    return _NONFINITE.sub(lambda m: b'"' + m.group() + b'"', text)


def format_rows(template: bytes, columns) -> bytes:
    """A block of rows as one text: template filled by one bytes %.

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

# values from here up keep their %g field, so a fragment holds at most three
# integer digits and the codes that occur stay few
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
def _fragment_body(code: int, sig: int) -> bytes:
    """The text of one certified value around its integer field; code -1 is the %g field.

    code packs, from the top: the negated exponent of the e-notation (0
    in fixed notation), whether there is a fraction, its leading zeros,
    the sign and the integer part that precedes the point. The %g field
    is written %%.12g or %%.17g, so that the fill of the %d fields leaves
    one % field for the fill of the floats.
    """
    if code < 0:
        return b"%%%%.%dg" % sig
    code, whole = divmod(code, _WHOLE_LIMIT)
    code, negative = divmod(code, 2)
    code, zeros = divmod(code, 32)
    exponent, fraction = divmod(code, 2)
    text = (b"-" if negative else b"") + (b"%d.%s%%d" % (whole, b"0" * zeros) if fraction else b"%d")
    return text + b"e-%02d" % exponent if exponent else text


def _significands(a, sig: int):
    """(m, s, ok) of a in [1e-290, 1000): m = a * 10**s rounded half to even, sig digits where ok.

    s = sig - 1 - floor(log10 a), and p = a * 10**s by one product with
    the power table. At 12 digits p < 2**40, so p lies within 2e-4 of the
    exact value, and m = rint(p) wherever p lies more than 1e-3 from a
    tie. At 17 digits Dekker's two-product gives a * 10**s as p plus the
    remainder f. Where 10**s is a double (s <= 22) p + f is exact, and
    since p > 1e16 > 2**53 is an even integer, m = p + rint(f) is the
    rounding of p + f. Past s = 22 the table's lo adds an error of about
    1e-14 to f, so a value whose f lies within 1e-6 of a tie is not ok.
    The bounds on p check s, which log10 may miss by one.
    """
    s = (sig - 1.0 - np.floor(np.log10(a))).astype(np.intp)
    hi, hi_upper, hi_lower, lo = _powers_of_ten()
    p = a * hi[s]
    if sig == 12:
        m = np.rint(p)
        ok = (p >= 1e11) & (m < 1e12) & (np.abs(np.abs(p - m) - 0.5) > 1e-3)
        return m.astype(np.int64), s, ok
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


def _codes(x, sig: int):
    """(code, args): each flat cell x's fragment code, -1 for %g, and the %d arguments in order.

    A value that _significands certifies is written from its sig-digit
    significand m: the digits after the point lose their trailing zeros,
    as %g does, and the code keeps the e-notation exponent, whether there
    is a fraction, its leading zeros, the sign and the integer part
    before the point (see _fragment_body). A block with no cell in
    [1e-290, 1000) returns before any of this work.
    """
    a = np.abs(x)
    ok = a >= 1e-290  # 0, tiny values, nan, inf and 1000 up keep %g
    ok &= a < _WHOLE_LIMIT
    if not ok.any():
        return np.full(x.size, -1), np.empty(0, dtype=np.int64)
    m, s, certified = _significands(np.where(ok, a, 1.0), sig)
    ok &= certified

    # %g's fixed notation from exponent sig - 1 - s = -4 up, its e-notation below
    fixed = s <= sig + 3
    places = np.where(fixed, s, sig - 1)  # digits after the point before stripping
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

    code = np.where(fixed, 0, s - (sig - 1)) * 2 + fraction
    code = ((code * 32 + np.where(fraction, zeros, 0)) * 2 + (x < 0)) * _WHOLE_LIMIT
    code += np.where(fraction, whole, 0)
    code[~ok] = -1
    return code, np.where(fraction, digits, whole)[ok]


class BlockLayout(dict):
    """One writer's rows, sig digits a cell between gaps, and its cell texts by key.

    gaps holds the text before each column and, last, the text that ends
    a row. A writer passes one BlockLayout to format_block for each of
    its blocks, so a cell text built for one block serves the later ones.
    The key of a cell is (code + 1) * width + column; its text is the gap
    before its column, the _fragment_body of its code, and after the last
    column the row's closing gap. Columns with the same text around them
    share one key column, the first of them.
    """

    def __init__(self, sig: int, gaps):
        super().__init__()
        self.sig, self.gaps, self.width = sig, gaps, len(gaps) - 1
        first = {}
        self.columns = np.array([first.setdefault((gap, j == self.width - 1), j)
                                 for j, gap in enumerate(gaps[:-1])])

    def __missing__(self, key: int) -> bytes:
        code, column = divmod(key, self.width)
        text = self.gaps[column] + _fragment_body(code - 1, self.sig)
        if column == self.width - 1:
            text += self.gaps[-1]
        self[key] = text
        return text


def format_block(columns, layout: BlockLayout) -> bytes:
    """Rows of cells between the layout's gaps, cell (i, j) b"%.*g" % (sig, v + 0.0) of item i of column j.

    columns are equal-length sequences of floats (the rows of a 2-D
    array, or its transpose for a block of rows), one per column of the
    layout, which gives sig and the gaps. The bytes equal that % fill for every float64, nan and inf included, so
    quote_nonfinite works on the text as on the % fill's. Most cells are
    one %d field of their significand inside a fragment that holds the
    sign, integer part, point, leading zeros and exponent (_codes).
    Neighbouring rows mostly share their fragments, so the template
    repeats one row text per run of rows whose codes are all equal. One %
    fills the %d fields and a second the %g fields of the other cells.
    """
    values = np.asarray(columns, dtype=float).T
    rows, width = values.shape
    with np.errstate(invalid="ignore"):  # only a signaling nan raises it, and stays nan
        x = values.ravel() + 0.0  # -0 to 0
    code, args = _codes(x, layout.sig)
    codes = code.reshape(rows, width)
    starts = np.ones(rows, dtype=bool)  # a run starts where a row's codes leave the last row's
    np.any(codes[1:] != codes[:-1], axis=1, out=starts[1:])
    starts = np.flatnonzero(starts)
    keys = ((codes[starts] + 1) * width + layout.columns).ravel().tolist()
    cells = list(map(layout.__getitem__, keys))
    template = b"".join([b"".join(cells[i * width:(i + 1) * width]) * n
                         for i, n in enumerate(np.diff(starts, append=rows).tolist())])
    # the %d fields first; each %g field's %% leaves one % for the floats
    return template % tuple(args.tolist()) % tuple(x[code < 0].tolist())


def json_dumps(obj) -> bytes:
    """Serialize dicts/lists/str/int/float/bool/None, floats to 17 digits.

    Key order is preserved (callers build dicts in deterministic order).
    """
    out: list[bytes] = []
    _emit(obj, out)
    return b"".join(out)


def _emit(obj, out: list[bytes]) -> None:
    if obj is None:
        out.append(b"null")
    elif isinstance(obj, bool):
        out.append(b"true" if obj else b"false")
    elif isinstance(obj, int):
        out.append(str(obj).encode("ascii"))
    elif isinstance(obj, float):
        out.append(quote_nonfinite(_field(obj, 17)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj).encode("ascii"))
    elif isinstance(obj, dict):
        out.append(b"{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(b", ")
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, got {type(k)}")
            out.append(json.dumps(k).encode("ascii"))
            out.append(b": ")
            _emit(v, out)
        out.append(b"}")
    elif isinstance(obj, (list, tuple)):
        out.append(b"[")
        for i, v in enumerate(obj):
            if i:
                out.append(b", ")
            _emit(v, out)
        out.append(b"]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def csv_row(values) -> bytes:
    """One CSV line of floats, each to 12 digits by _field."""
    return b",".join([_field(v, 12) for v in values])
