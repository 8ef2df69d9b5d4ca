import math

import numpy as np
import pytest

from bwtunnel.serialize import csv_row, format_column, format_rows, json_dumps

SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 0.1, -2.5e-300]


def test_column_rules_for_csv():
    assert format_column(SPECIAL, 12) == ["0", "nan", "inf", "-inf", "0.1", "-2.5e-300"]


def test_column_rules_for_json():
    assert format_column(np.array(SPECIAL), 17, quote_nonfinite=True) == [
        "0", '"nan"', '"inf"', '"-inf"', "0.10000000000000001", "-2.5e-300"]


def test_column_is_row_major_over_arrays():
    values = np.array([[1.5, -0.0], [math.nan, 3.0]])
    assert format_column(values, 12, quote_nonfinite=True) == ["1.5", "0", '"nan"', "3"]


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("sig", [12, 17])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_rows_write_the_column_texts(width, sig, quote):
    texts = format_column(SPECIAL, sig, quote_nonfinite=quote)
    want = "".join("[" + ";".join(texts[i:i + width]) + "]\n" for i in range(0, len(texts), width))
    got = format_rows(np.reshape(SPECIAL, (-1, width)), sig, quote, start="[", sep=";", end="]\n")
    assert got == want


def test_rows_put_the_text_columns_first_as_they_are():
    values = np.array([[0.5, -0.0], [math.nan, -math.inf]])
    got = format_rows(values, 12, texts=(["a", "b"], ["x%s", "y"]))
    assert got == "a,x%s,0.5,0\nb,y,nan,-inf\n"


@pytest.mark.parametrize("x", SPECIAL)
def test_scalar_paths_are_the_one_element_column(x):
    assert csv_row((x,)) == format_column([x], 12)[0]
    assert json_dumps([x]) == "[" + format_column([x], 17, quote_nonfinite=True)[0] + "]"
