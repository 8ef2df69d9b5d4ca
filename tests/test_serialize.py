import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel import serialize
from bwtunnel.serialize import (
    _rows17,
    csv_row,
    floats,
    format_column,
    format_rows,
    json_dumps,
    quote_nonfinite,
)

SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 0.1, -2.5e-300]


def _json_cell(x, sig=17):
    """One float as JSON writes it: the %g text, quoted where it is not finite."""
    text = "%.*g" % (sig, x + 0.0)
    return text if math.isfinite(x) else f'"{text}"'


def test_column_rules_for_csv():
    assert format_column(SPECIAL, 12) == [b"0", b"nan", b"inf", b"-inf", b"0.1", b"-2.5e-300"]


def test_column_rules_for_json():
    assert [quote_nonfinite(t) for t in format_column(np.array(SPECIAL), 17)] == [
        b"0", b'"nan"', b'"inf"', b'"-inf"', b"0.10000000000000001", b"-2.5e-300"]


def test_signaling_nan_column_raises_no_floating_point_error():
    # adding 0.0 to a signaling nan sets the invalid flag; the column rules ignore it
    snan = np.array([0x7FF0000000000001], np.uint64).view(np.float64)
    with np.errstate(all="raise"):
        assert format_column(snan, 12) == [b"nan"]
        assert format_column(snan, 17) == [b"nan"]


def test_column_is_row_major_over_arrays():
    values = np.array([[1.5, -0.0], [math.nan, 3.0]])
    got = floats(values)
    assert [type(x) for x in got] == [float] * 4
    assert [math.copysign(1.0, x) for x in got] == [1.0, 1.0, 1.0, 1.0]
    assert format_column(values, 12) == [b"1.5", b"0", b"nan", b"3"]


def test_finite_text_is_returned_as_it_is():
    text = b"[0, 1e-300, -2.5, 1.7976931348623157e+308]\n"
    assert quote_nonfinite(text) is text
    assert quote_nonfinite(b"") == b""


def test_quoting_keeps_every_other_byte():
    text = b"nan, -inf,inf\n[1e+300, nan]inf"
    assert quote_nonfinite(text) == b'"nan", "-inf","inf"\n[1e+300, "nan"]"inf"'


def _template(sig, width, rows, start=b"", sep=b",", end=b"\n"):
    return (start + sep.join([b"%%.%dg" % sig] * width) + end) * rows


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("sig", [12, 17])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_rows_write_the_column_texts(width, sig, quote):
    texts = format_column(SPECIAL, sig)
    if quote:
        texts = list(map(quote_nonfinite, texts))
    want = b"".join(b"[" + b";".join(texts[i:i + width]) + b"]\n" for i in range(0, len(texts), width))
    block = np.reshape(SPECIAL, (-1, width))
    template = _template(sig, width, len(block), start=b"[", sep=b";", end=b"]\n")
    write = quote_nonfinite if quote else bytes
    # one row-major 2-D column, or one column per cell of a row
    assert write(format_rows(template, (floats(block),))) == want
    assert write(format_rows(template, [floats(c) for c in block.T])) == want


def test_rows_put_the_text_columns_first_as_they_are():
    template = b"%s,%s,%.12g,%.12g\n" * 2
    columns = ([b"a", b"%.12g%"], [b"x%s", b"y"], floats([0.5, math.nan]), floats([-0.0, -math.inf]))
    assert format_rows(template, columns) == b"a,x%s,0.5,0\n%.12g%,y,nan,-inf\n"


def test_columns_meet_row_by_row():
    ts = floats([1.0, -0.0, 2.0])
    got = format_rows(_template(12, 3, 3), (floats([0.5, 0.0, -0.0]), ts, [t + 1.0 for t in ts]))
    assert got == b"0.5,1,2\n0,0,1\n0,2,3\n"


finite_or_special = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), rows=st.integers(0, 12),
       sig=st.sampled_from([12, 17]), quote=st.booleans(), split=st.booleans())
def test_float_columns_are_the_per_cell_join(data, width, rows, sig, quote, split):
    cells = data.draw(st.lists(finite_or_special, min_size=rows * width, max_size=rows * width))
    block = np.reshape(np.array(cells, dtype=float), (rows, width))
    texts = [_json_cell(x, sig) if quote else "%.*g" % (sig, x + 0.0) for x in cells]
    want = "".join("[" + ", ".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    columns = [floats(c) for c in block.T] if split else (floats(block),)
    got = format_rows(_template(sig, width, rows, b"[", b", ", b"]\n"), columns)
    assert (quote_nonfinite(got) if quote else got) == want.encode("ascii")


_SNAN = np.array([0x7FF0000000000001, 0xFFF0000000000001], np.uint64).view(np.float64)
# the special values, subnormals, signaling nans (as np.float64 and as float)
# and np.float64 scalars, which are floats too
SCALARS = (SPECIAL + [5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1.7976931348623157e308]
           + list(_SNAN) + _SNAN.tolist()
           + [np.float64(v) for v in (-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -1e300)])


@pytest.mark.parametrize("x", SCALARS, ids=repr)
def test_scalar_paths_are_the_one_element_column(x):
    with np.errstate(all="raise"):
        assert csv_row((x,)) == format_column([x], 12)[0]
        assert json_dumps([x]) == b"[" + quote_nonfinite(format_column([x], 17)[0]) + b"]"
        assert json_dumps({"x": x}) == b'{"x": ' + _json_cell(float(x)).encode() + b"}"


def test_json_quotes_only_float_cells():
    assert json_dumps({"nan": "inf", "x": math.nan}) == b'{"nan": "inf", "x": "nan"}'
    assert json_dumps(["-inf", -math.inf, {"inf": None}]) == b'["-inf", "-inf", {"inf": null}]'


def test_json_bools_are_not_ints():
    # bool is a subclass of int, so it is tested first
    assert json_dumps({"flags": [True, False], "n": 1}) == b'{"flags": [true, false], "n": 1}'


@pytest.mark.parametrize("obj, message", [
    ({1: 2.0}, "JSON keys must be str"), ({"x": [1.0, {2.0: 1}]}, "JSON keys must be str"),
    (1 + 2j, "cannot serialize"), ({"x": {1.0}}, "cannot serialize"),
])
def test_json_rejects_what_it_cannot_write(obj, message):
    with pytest.raises(TypeError, match=message):
        json_dumps(obj)


def _percent_rows(block, head, sep, tail):
    """The str %.17g fill of a 2-D block, one cell at a time, encoded: the bytes _rows17 must give."""
    return b"".join(head + sep.join(("%.17g" % (v + 0.0)).encode("ascii") for v in row) + tail
                    for row in np.asarray(block, dtype=float).tolist())


def _check_rows17(values):
    """values as a column, and beside a column of certified values, in both JSON layouts."""
    values = np.asarray(values, dtype=float).ravel()
    blocks = (values[:, None], np.column_stack([values, np.full(values.size, 1.25)]))
    with np.errstate(all="raise"):
        for block in blocks:
            for layout in ((b", ", b"", b""), (b", [", b", ", b"]")):
                assert _rows17(block, *layout) == _percent_rows(block, *layout)


def _bits(n):
    return struct.unpack("<d", struct.pack("<Q", n))[0]


# every float64, signaling nan payloads included; st.floats covers the
# subnormals, +-0, nan, +-inf and +-max
any_float64 = st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(_bits))
# values the integer-field path certifies, bar near-ties
certified = st.one_of(st.floats(1e-280, 999.0), st.floats(-999.0, -1e-280))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), rows=st.integers(1, 6),
       bracketed=st.booleans())
def test_rows17_is_the_percent_fill_of_any_float64(data, width, rows, bracketed):
    n = rows * width
    tame = data.draw(st.integers(0, n))
    cells = data.draw(st.lists(any_float64, min_size=n - tame, max_size=n - tame))
    cells += data.draw(st.lists(certified, min_size=tame, max_size=tame))
    block = np.reshape(data.draw(st.permutations(cells)), (rows, width))
    layout = (b", [", b", ", b"]") if bracketed else (b"[", b";", b"]\n")
    with np.errstate(all="raise"):
        assert _rows17(block, *layout) == _percent_rows(block, *layout)


def test_rows17_powers_of_two():
    _check_rows17(2.0 ** np.arange(-1074, 1024))


def test_rows17_near_ties():
    # 17 random digits and then a 5: the nearest double to an 18-digit tie
    rng = np.random.default_rng(17)
    digits = rng.integers(10 ** 16, 10 ** 17, 20000)
    exponents = rng.integers(-330, 300, 20000)
    near = [float(f"{d}5e{e}") for d, e in zip(digits.tolist(), exponents.tolist())]
    # where 10**s is exact, s <= 22: values between 1e-6 and 1e17
    near += [float(f"{d}5e{e}") for d, e in zip(digits.tolist(), (exponents % 23 - 39).tolist())]
    # exact ties: x = M / 2**(s + 1), M odd, with s = 16 - floor(log10 x), makes
    # x * 10**s a half-integer, which %g rounds half to even
    for s in range(40):
        lo, hi = 10 ** (16 - s) * 2 ** (s + 1), 10 ** (17 - s) * 2 ** (s + 1)
        lo, hi = math.ceil(lo), min(math.ceil(hi), 2 ** 53)
        odd = [m | 1 for m in rng.integers(lo, hi, 50).tolist()] if lo < hi else []
        near += [m / 2 ** (s + 1) for m in odd if lo <= m < hi]
    _check_rows17(np.array(near) * rng.choice([-1.0, 1.0], len(near)))


def test_rows17_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-323, 309)
    _check_rows17(np.concatenate([powers, np.nextafter(powers, np.inf),
                                  np.nextafter(powers, -np.inf), -powers]))


def test_rows17_scan_axis():
    _check_rows17(np.linspace(-40, 40, 160001))


def test_rows17_short_fractions_and_integers():
    # trailing zeros to strip, leading zeros after the point, whole numbers
    rng = np.random.default_rng(3)
    values = [round(v, d) for v, d in zip((rng.random(5000) * 2000 - 1000).tolist(),
                                          rng.integers(0, 18, 5000).tolist())]
    _check_rows17(values + [1e16, 99999999999999984.0, 123.0, 1000.5, 999.5, 0.5, 1e-5, 1.5e-5])


def test_rows17_builds_fragments_for_every_block():
    # whatever share of a block is certified, it goes through the fragments:
    # its uncertified cells as %.17g fields (code -1), the rest as integer fields
    body = mock.patch.object(serialize, "_fragment_body", wraps=serialize._fragment_body)
    for block, integer_fields in (([[0.5, math.nan]], True), ([[0.5, math.nan, 0.0]], True),
                                  ([[math.nan, math.inf]], False), ([[1e17, 1e300]], False),
                                  ([[1234.5, 0.5, -1234.25]], True)):
        with body as spy, np.errstate(all="raise"):
            assert _rows17(np.array(block), b"[", b",", b"]") == _percent_rows(block, b"[", b",", b"]")
        codes = {c.args[0] for c in spy.call_args_list}
        assert -1 in codes and (max(codes) >= 0) == integer_fields
