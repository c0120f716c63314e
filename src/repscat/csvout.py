"""Output files: the one opener of every file a run writes, and CSV artifacts,
a header row, then one row per sample with every value written as %.17g,
which round-trips a float64 exactly."""

import os

from .errors import ConfigurationError


def open_output(path):
    """A new text file at `path`, open for writing.  A file already there is
    removed first, not truncated: on ext4 (auto_da_alloc, its default),
    closing a truncated and rewritten file starts its writeback, about 50 ms
    for a few hundred kB against under 1 ms for a new one.  So a symlink at
    `path` is replaced, not written through.  Newlines are written as given.
    An OSError (a directory at `path`, a read-only directory) raises a
    ConfigurationError naming the path."""
    try:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot write output file: {exc.strerror or exc}") from exc


def write_rows(path, header, columns):
    """Write the column names `header`, then the rows of `columns` (one 1-D
    numeric array per name), each a "%.17g,...\\r\\n" template over the
    Python numbers that memoryviews of the columns yield one at a time, so
    no table of Python objects is held: the bytes of csv.writer with
    format(float(v), ".17g") per value."""
    template = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open_output(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % row for row in zip(*map(memoryview, columns), strict=True))
