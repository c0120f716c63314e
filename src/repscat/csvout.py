"""CSV artifacts: a header row, then one row per sample with every value
written as %.17g, which round-trips a float64 exactly."""


def write_rows(path, header, rows):
    """Write the plain column names `header` and then each row of numbers in
    `rows` to `path`, one "%.17g,...\\r\\n" template per row (the bytes of
    csv.writer with format(float(v), ".17g") per value)."""
    template = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % tuple(row) for row in rows)
