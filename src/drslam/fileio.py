"""Trajectory and table file I/O.

TUM line format: ``timestamp tx ty tz qx qy qz qw``, space-separated, 17
significant digits (lossless for float64). Tables are comma-separated with
one header line. Both are read column-wise into float64 arrays; a field that
does not parse, or a row with the wrong number of fields, is a FormatError.
"""

from __future__ import annotations

from contextlib import closing
from itertools import islice

import numpy as np

from .errors import FormatError
from .geometry import Pose

# Largest magnitude at which every integer is exact in float64.
_INT_EXACT = 2.0 ** 53


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def fmt_bool(b: bool) -> str:
    return str(b).lower()


def pose_text(pose: Pose) -> str:
    """The pose's seven fields tx ty tz qx qy qz qw, as parse_poses reads them."""
    w, x, y, z = pose.q
    return " ".join(fmt(v) for v in (*pose.t, x, y, z, w))


def parse_poses(fields, path=None, line=None) -> list:
    """Poses of rows (N, 7) of the fields pose_text writes, numbers or text.

    A row with a field that is not finite, or whose quaternion has no finite
    nonzero norm to normalize by, is a FormatError at path and at the file
    line line(row), when given.
    """
    fields = np.asarray(fields, dtype=float).reshape(-1, 7)
    q = fields[:, [6, 3, 4, 5]]
    norm2 = np.einsum("ij,ij->i", q, q)
    bad = np.flatnonzero(~(np.isfinite(fields).all(axis=1) & (norm2 > 0) & (norm2 < np.inf)))
    if len(bad):
        row = int(bad[0])
        raise FormatError("pose fields must be finite, with a nonzero quaternion",
                          path=None if path is None else str(path),
                          line=None if line is None else line(row))
    return [Pose(q, t) for q, t in zip(q, fields[:, :3])]


def tum_line(timestamp: float, pose: Pose) -> str:
    return f"{fmt(timestamp)} {pose_text(pose)}"


def write_tum(path, rows) -> None:
    """rows: iterable of (timestamp, Pose)."""
    with open(path, "w") as f:
        for ts, pose in rows:
            f.write(tum_line(ts, pose) + "\n")


def _data_lines(path, delimiter, comment, skip):
    """(line number, fields) of every line after the first `skip` that holds a row."""
    with open(path) as f:
        for lineno, line in islice(enumerate(f, start=1), skip, None):
            if comment is not None:
                line = line.partition(comment)[0]
            # as np.loadtxt: a whitespace-only line is a row of a delimited table
            line = line.strip() if delimiter is None else line.rstrip("\n")
            if line:
                yield lineno, line.split(delimiter)


def _parse_error(path, columns, delimiter, comment, skip, cause) -> FormatError:
    """The first row the parse rejects, found by a line-by-line rescan."""
    for lineno, fields in _data_lines(path, delimiter, comment, skip):
        if len(fields) != columns:
            return FormatError(f"expected {columns} fields, got {len(fields)}",
                               path=str(path), line=lineno)
        try:
            for field in fields:
                float(field)
        except ValueError as e:
            return FormatError(f"non-numeric field: {e}", path=str(path), line=lineno)
    return FormatError(f"malformed table: {cause}", path=str(path))


def _load_table(path, columns, delimiter, comment, skip):
    """The rows after the first `skip` lines of a table file as an (N, columns) float64 array."""
    with closing(_data_lines(path, delimiter, comment, skip)) as rows:
        if next(rows, None) is None:
            # np.loadtxt warns on input without rows
            return np.empty((0, columns))
    try:
        table = np.loadtxt(path, delimiter=delimiter, comments=comment, skiprows=skip, ndmin=2)
    except ValueError as e:
        raise _parse_error(path, columns, delimiter, comment, skip, e) from e
    if table.shape[1] != columns:
        raise _parse_error(path, columns, delimiter, comment, skip,
                           f"{table.shape[1]} columns")
    return table


def read_tum(path):
    """[(timestamp, Pose), ...] in file order; '#' starts a comment."""
    table = _load_table(path, 8, None, "#", 0)
    poses = parse_poses(table[:, 1:], path, lambda row: tum_row_line(path, row))
    return list(zip(table[:, 0].tolist(), poses))


def write_csv(path, header, rows) -> None:
    """Writes a header line and one line per row: a float value as fmt
    writes it, any other value as str does. Each row is one %-format call,
    its format chosen by the types of its values."""
    formats = {}
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            line = formats.get(types)
            if line is None:
                line = formats[types] = ",".join(
                    "%.17g" if issubclass(kind, float) else "%s" for kind in types) + "\n"
            f.write(line % tuple(row))


def read_csv(path, expected_header) -> np.ndarray:
    """Rows after the header line as an (N, len(expected_header)) float64 array."""
    with open(path) as f:
        header = f.readline().strip()
        if header.split(",") != list(expected_header):
            raise FormatError(
                f"bad header: expected {','.join(expected_header)}, got {header}",
                path=str(path), line=1)
    return _load_table(path, len(expected_header), ",", None, 1)


def _row_line(path, row: int, delimiter, comment, skip) -> int:
    with closing(_data_lines(path, delimiter, comment, skip)) as rows:
        return next(islice(rows, row, None))[0]


def csv_line(path, row: int) -> int:
    """File line number of data row `row` of a table read by read_csv."""
    return _row_line(path, row, ",", None, 1)


def tum_row_line(path, row: int) -> int:
    """File line number of pose row `row` of a file read by read_tum."""
    return _row_line(path, row, None, "#", 0)


def int_column(table: np.ndarray, column: int, name: str, path) -> np.ndarray:
    """Column of a read_csv table as int64; FormatError on a non-integral value."""
    values = table[:, column]
    ok = np.isfinite(values) & (np.trunc(values) == values) & (np.abs(values) <= _INT_EXACT)
    if not ok.all():
        row = int(np.argmin(ok))
        raise FormatError(f"{name} must be an integer, got {float(values[row])}",
                          path=str(path), line=csv_line(path, row))
    return values.astype(np.int64)
