"""CSV artifacts: a header row, then one row per sample with every value
written as %.17g, which round-trips a float64 exactly."""


def write_rows(path, header, columns):
    """Write the column names `header`, then the rows of `columns` (one 1-D
    numeric array per name), each a "%.17g,...\\r\\n" template over the
    Python numbers that memoryviews of the columns yield one at a time, so
    no table of Python objects is held: the bytes of csv.writer with
    format(float(v), ".17g") per value."""
    template = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % row for row in zip(*map(memoryview, columns), strict=True))
