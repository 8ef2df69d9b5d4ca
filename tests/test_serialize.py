import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.serialize import (
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
    assert format_column(SPECIAL, 12) == ["0", "nan", "inf", "-inf", "0.1", "-2.5e-300"]


def test_column_rules_for_json():
    assert [quote_nonfinite(t) for t in format_column(np.array(SPECIAL), 17)] == [
        "0", '"nan"', '"inf"', '"-inf"', "0.10000000000000001", "-2.5e-300"]


def test_column_is_row_major_over_arrays():
    values = np.array([[1.5, -0.0], [math.nan, 3.0]])
    got = floats(values)
    assert [type(x) for x in got] == [float] * 4
    assert [math.copysign(1.0, x) for x in got] == [1.0, 1.0, 1.0, 1.0]
    assert format_column(values, 12) == ["1.5", "0", "nan", "3"]


def test_finite_text_is_returned_as_it_is():
    text = "[0, 1e-300, -2.5, 1.7976931348623157e+308]\n"
    assert quote_nonfinite(text) is text
    assert quote_nonfinite("") == ""


def test_quoting_keeps_every_other_byte():
    text = "nan, -inf,inf\n[1e+300, nan]inf"
    assert quote_nonfinite(text) == '"nan", "-inf","inf"\n[1e+300, "nan"]"inf"'


def _template(sig, width, rows, start="", sep=",", end="\n"):
    return (start + sep.join([f"%.{sig}g"] * width) + end) * rows


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("sig", [12, 17])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_rows_write_the_column_texts(width, sig, quote):
    texts = format_column(SPECIAL, sig)
    if quote:
        texts = list(map(quote_nonfinite, texts))
    want = "".join("[" + ";".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    block = np.reshape(SPECIAL, (-1, width))
    template = _template(sig, width, len(block), start="[", sep=";", end="]\n")
    write = quote_nonfinite if quote else str
    # one row-major 2-D column, or one column per cell of a row
    assert write(format_rows(template, (floats(block),))) == want
    assert write(format_rows(template, [floats(c) for c in block.T])) == want


def test_rows_put_the_text_columns_first_as_they_are():
    template = "%s,%s,%.12g,%.12g\n" * 2
    columns = (["a", "%.12g%"], ["x%s", "y"], floats([0.5, math.nan]), floats([-0.0, -math.inf]))
    assert format_rows(template, columns) == "a,x%s,0.5,0\n%.12g%,y,nan,-inf\n"


def test_columns_meet_row_by_row():
    ts = floats([1.0, -0.0, 2.0])
    got = format_rows(_template(12, 3, 3), (floats([0.5, 0.0, -0.0]), ts, [t + 1.0 for t in ts]))
    assert got == "0.5,1,2\n0,0,1\n0,2,3\n"


finite_or_special = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), rows=st.integers(0, 12),
       sig=st.sampled_from([12, 17]), quote=st.booleans(), split=st.booleans())
def test_float_columns_are_the_per_cell_join(data, width, rows, sig, quote, split):
    cells = data.draw(st.lists(finite_or_special, min_size=rows * width, max_size=rows * width))
    block = np.reshape(np.array(cells, dtype=float), (rows, width))
    texts = [_json_cell(x, sig) if quote else format_column([x], sig)[0] for x in cells]
    want = "".join("[" + ", ".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    columns = [floats(c) for c in block.T] if split else (floats(block),)
    got = format_rows(_template(sig, width, rows, "[", ", ", "]\n"), columns)
    assert (quote_nonfinite(got) if quote else got) == want


@pytest.mark.parametrize("x", SPECIAL)
def test_scalar_paths_are_the_one_element_column(x):
    assert csv_row((x,)) == format_column([x], 12)[0]
    assert json_dumps([x]) == "[" + quote_nonfinite(format_column([x], 17)[0]) + "]"
    assert json_dumps([x]) == "[" + _json_cell(x) + "]"


def test_json_quotes_only_float_cells():
    assert json_dumps({"nan": "inf", "x": math.nan}) == '{"nan": "inf", "x": "nan"}'
    assert json_dumps(["-inf", -math.inf, {"inf": None}]) == '["-inf", "-inf", {"inf": null}]'
