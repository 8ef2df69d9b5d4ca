import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.serialize import (
    csv_row,
    float_field,
    format_column,
    format_rows,
    json_dumps,
    literal,
)

SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 0.1, -2.5e-300]


def test_column_rules_for_csv():
    assert format_column(SPECIAL, 12) == ["0", "nan", "inf", "-inf", "0.1", "-2.5e-300"]


def test_column_rules_for_json():
    assert format_column(np.array(SPECIAL), 17, quote_nonfinite=True) == [
        "0", '"nan"', '"inf"', '"-inf"', "0.10000000000000001", "-2.5e-300"]


def test_column_is_row_major_over_arrays():
    values = np.array([[1.5, -0.0], [math.nan, 3.0]])
    assert format_column(values, 12, quote_nonfinite=True) == ["1.5", "0", '"nan"', "3"]


def _template(sig, width, rows, start="", sep=",", end="\n"):
    return (start + sep.join([float_field(sig)] * width) + end) * rows


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("sig", [12, 17])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_rows_write_the_column_texts(width, sig, quote):
    texts = format_column(SPECIAL, sig, quote_nonfinite=quote)
    want = "".join("[" + ";".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    block = np.reshape(SPECIAL, (-1, width))
    template = _template(sig, width, len(block), start="[", sep=";", end="]\n")
    # one row-major 2-D column, or one column per cell of a row
    assert format_rows(template, (block,), sig, quote) == want
    assert format_rows(template, list(block.T), sig, quote) == want


def test_rows_put_the_text_columns_first_as_they_are():
    values = np.array([[0.5, -0.0], [math.nan, -math.inf]])
    field = float_field(12)
    template = "".join(f"{literal(a)},{literal(b)},{field},{field}\n"
                       for a, b in (("a", "x%s"), ("%.12g%", "y")))
    assert format_rows(template, (values,), 12) == "a,x%s,0.5,0\n%.12g%,y,nan,-inf\n"
    # the quoted fallback keeps the texts too
    quoted = format_rows(template, (values,), 12, quote_nonfinite=True)
    assert quoted == 'a,x%s,0.5,0\n%.12g%,y,"nan","-inf"\n'


def test_derived_column_follows_the_last_one():
    got = format_rows(_template(12, 3, 3), ([1.0, -0.0, 2.0], [0.5, 0.0, -0.0]), 12,
                      derive=lambda xs: [x + 1.0 for x in xs])
    assert got == "1,0.5,1.5\n0,0,1\n2,0,1\n"


finite_or_special = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), rows=st.integers(0, 12),
       sig=st.sampled_from([12, 17]), quote=st.booleans(), split=st.booleans())
def test_float_columns_are_the_per_cell_join(data, width, rows, sig, quote, split):
    cells = data.draw(st.lists(finite_or_special, min_size=rows * width, max_size=rows * width))
    block = np.reshape(np.array(cells, dtype=float), (rows, width))
    texts = [format_column([x], sig, quote_nonfinite=quote)[0] for x in cells]
    want = "".join("[" + ", ".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    columns = list(block.T) if split else (block,)
    got = format_rows(_template(sig, width, rows, "[", ", ", "]\n"), columns, sig, quote)
    assert got == want


@pytest.mark.parametrize("x", SPECIAL)
def test_scalar_paths_are_the_one_element_column(x):
    assert csv_row((x,)) == format_column([x], 12)[0]
    assert json_dumps([x]) == "[" + format_column([x], 17, quote_nonfinite=True)[0] + "]"
