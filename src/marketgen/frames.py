"""Column-named matrices of observations, the data currency of the package.

A :class:`SeriesFrame` is a T x d float matrix with column names and an
optional strictly increasing ISO-8601 date index.  CSV ingestion is strict:
every cell must parse as a finite decimal number.
"""

from __future__ import annotations

import csv
import datetime
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NonFinite, ShapeError


@dataclass(frozen=True)
class SeriesFrame:
    columns: tuple
    data: np.ndarray
    index: tuple | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2:
            raise ShapeError(f"data must be 2-D, got ndim={data.ndim}")
        if len(self.columns) != data.shape[1]:
            raise ShapeError(
                f"{len(self.columns)} column names for {data.shape[1]} columns"
            )
        if not np.all(np.isfinite(data)):
            raise NonFinite("non-finite entries in frame data")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.index is not None:
            idx = tuple(self.index)
            if len(idx) != data.shape[0]:
                raise ShapeError("index length does not match row count")
            parsed = [datetime.date.fromisoformat(str(d)) for d in idx]
            if any(b <= a for a, b in zip(parsed, parsed[1:])):
                raise InvalidValue("date index must be strictly increasing")
            object.__setattr__(self, "index", idx)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def with_data(self, data: np.ndarray, columns=None) -> "SeriesFrame":
        """New frame with the same names (index kept only if length matches)."""
        cols = self.columns if columns is None else tuple(columns)
        index = self.index if (self.index and len(self.index) == len(data)) else None
        return SeriesFrame(cols, np.asarray(data, dtype=float), index)


def frame_from_columns(named_columns: dict, index=None) -> SeriesFrame:
    names = tuple(named_columns)
    data = np.column_stack([np.asarray(named_columns[c], dtype=float) for c in names])
    return SeriesFrame(names, data, index)


def read_csv(path) -> SeriesFrame:
    """Read a frame from CSV.

    First row is the header.  An optional leading ``date`` column (ISO-8601)
    becomes the index.  NaN/inf tokens and empty cells are rejected.
    """
    with open(path, "r", newline="") as fh:
        return _read_csv_file(fh)


def _read_csv_file(fh) -> SeriesFrame:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidValue("empty CSV file") from None
    header = [h.strip() for h in header]
    has_date = bool(header) and header[0].lower() == "date"
    names = tuple(header[1:] if has_date else header)
    if not names:
        raise InvalidValue("CSV has no data columns")
    dates = []
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InvalidValue(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        if has_date:
            dates.append(row[0].strip())
            cells = row[1:]
        else:
            cells = row
        values = []
        for name, cell in zip(names, cells):
            try:
                x = float(cell)
            except ValueError:
                raise InvalidValue(f"line {lineno}: cannot parse {cell!r} in column {name}") from None
            if not np.isfinite(x):
                raise InvalidValue(f"line {lineno}: non-finite value {cell!r} in column {name}")
            values.append(x)
        rows.append(values)
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(names)))
    return SeriesFrame(names, data, tuple(dates) if has_date and dates else None)


def write_csv(frame: SeriesFrame, path) -> None:
    """Write a frame as CSV with deterministic number formatting."""
    atomic_write(path, to_csv_text(frame))


def atomic_write(path, text: str) -> None:
    """Replace ``path`` by ``text`` in one rename: readers see the old file or
    the complete new one.  Each call writes (and on failure removes) its own
    temp file next to ``path``; the mode follows the umask."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def to_csv_text(frame: SeriesFrame) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if frame.index is not None:
        writer.writerow(("date",) + frame.columns)
        for date, row in zip(frame.index, frame.data):
            writer.writerow([date] + [_fmt(x) for x in row])
    else:
        writer.writerow(frame.columns)
        for row in frame.data:
            writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _fmt(x: float) -> str:
    return repr(float(x))
