"""Shared plumbing: seed splitting and CSV formatting."""

import numpy as np

from semilevy.util import CSV_CHUNK_ROWS, format_csv


def _reference_csv(header, columns, int_columns=0):
    # the row-by-row formatting format_csv replaces
    lines = [header]
    for row in zip(*columns):
        cells = [str(int(v)) for v in row[:int_columns]]
        cells += [format(float(v), ".17g") for v in row[int_columns:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_format_csv_matches_row_by_row_formatting():
    rng = np.random.default_rng(0)
    n = 3 * CSV_CHUNK_ROWS + 17
    mantissas = rng.uniform(-10.0, 10.0, n)
    spread = mantissas * 10.0 ** rng.integers(-300, 301, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0])
    spread[: special.size] = special
    columns = [np.arange(n), spread, rng.standard_normal(n)]
    assert format_csv("i,x,y", columns, int_columns=1) == _reference_csv("i,x,y", columns, 1)
    assert format_csv("x,y", columns[1:]) == _reference_csv("x,y", columns[1:])
    assert format_csv("x", [np.array([])]) == "x\n"
