"""CSV artifacts: a header row, then one row per sample with every value
written as %.17g, which round-trips a float64 exactly."""

import csv


def write_rows(path, header, rows):
    """Write `header` and then each row of numbers in `rows` to `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(float(v), ".17g") for v in row] for row in rows)
