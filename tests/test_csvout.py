import csv
import math

import numpy as np
import pytest

from repscat.csvout import write_rows


def _csv_module_writer(path, header, rows):
    """The writer write_rows replaces: csv.writer, format(float(v), ".17g") per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(float(v), ".17g") for v in row] for row in rows)


ROWS = [
    (0.0, -0.0, 1.0),
    (math.nan, math.inf, -math.inf),
    (np.nan, np.float64(-np.inf), np.float64(np.inf)),
    (5e-324, -2.2250738585072009e-308, 1.7976931348623157e308),  # subnormals, extremes
    (0.1, 1 / 3, -2.5e-17),
    (3, -7, 2**60),                                               # Python ints
    (np.int64(-12), np.int32(4), np.uint8(255)),                  # numpy integers
    (np.float32(0.1), np.float16(-1.5), np.float64(1e22)),        # narrower floats
    (True, False, np.bool_(True)),
]


@pytest.mark.parametrize("header", [["t", "integrand", "extra"], ["x", "xi", "shell_E"]])
def test_rows_are_byte_identical_to_the_csv_module_writer(tmp_path, header):
    # ROWS as float64 columns, as the table writers pass them: every value
    # above survives the conversion unchanged
    write_rows(tmp_path / "new.csv", header, [np.array(col, dtype=float) for col in zip(*ROWS)])
    _csv_module_writer(tmp_path / "old.csv", header, ROWS)
    new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
    assert new == old
    assert new.split(b"\r\n")[0] == ",".join(header).encode()


def test_strided_and_integer_columns(tmp_path):
    # a transposed (n, 2) table gives strided columns; an integer column
    # writes its ints, as %.17g writes the equal floats
    table = np.arange(12.0).reshape(6, 2) / 7.0
    write_rows(tmp_path / "new.csv", ["a", "b", "n"], [*table.T, np.arange(6) * 2**40])
    _csv_module_writer(tmp_path / "old.csv", ["a", "b", "n"],
                       [(a, b, n * 2**40) for n, (a, b) in enumerate(table.tolist())])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_every_published_header_is_unchanged(tmp_path):
    headers = [["t", "integrand"], ["t", "mean", "ln_x0_over_t", "ln_x1_over_t"],
               ["t", "bin_lo", "bin_hi", "mass"], ["x", "xi", "bracket", "shell_E"],
               ["t", "x0", "x1", "xi0", "xi1", "energy"]]
    for header in headers:
        write_rows(tmp_path / "new.csv", header, [np.empty(0)] * len(header))
        _csv_module_writer(tmp_path / "old.csv", header, [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_rows(tmp_path / "new.csv", ["t", "mean"], [np.zeros(3), np.zeros(2)])
