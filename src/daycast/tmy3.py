"""TMY3 weather CSV ingestion.

The NREL typical-meteorological-year format carries one station per
file: a first line of station metadata, a second line of column names,
then hourly records (8760 for a full year). Column names drift between
vintages, so the extractor tries each field's known headers in order.
"""

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np

from .errors import Tmy3ParseError
from .series import Series

# The headers each field has carried across TMY3 vintages, tried in order.
_HEADERS = {
    "wind_speed": ("Wind Speed (m/s)", "Wspd (m/s)"),
    "dry_bulb": ("Dry-bulb (C)", "Dry-bulb (degC)"),
    "dni": ("DNI (W/m^2)", "DNI (Wh/m^2)"),
}

# Values at or below this are NREL missing-data sentinels (-9900 family).
_SENTINEL_FLOOR = -9000.0

# loadtxt strips the separators \x1c-\x1f from a cell and float() does not,
# and csv before Python 3.11 refuses a NUL anywhere in a row.
_LOADTXT_ONLY = "\0\x1c\x1d\x1e\x1f"

# np.loadtxt decompresses a path by these suffixes (numpy's _datasource).
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _resolve_column(header: list[str], key: str) -> int:
    for name in _HEADERS[key]:
        if name in header:
            return header.index(name)
    raise Tmy3ParseError(
        f"column {_HEADERS[key][0]!r} (for {key}) not found in header line 2: {header}",
        row=2,
    )


def _scan(records, path: Path, header: list[str], cols: dict) -> np.ndarray:
    """The picked cells of every data row, read with csv and float().

    records iterates csv rows from the first data row on.
    Raises for the first bad cell in file order, or for a file without data.
    Rows are numbered from 1 counting the two header lines, blank lines
    included; within a row the cells are checked in the order of cols.
    csv's own refusals (a cell past csv.field_size_limit(), or a NUL
    before Python 3.11) are raised as Tmy3ParseError naming the row.
    """
    values = []
    row_no = 2
    try:
        for row_no, row in enumerate(records, start=3):
            if not row:
                continue
            for key, col in cols.items():
                if col >= len(row):
                    raise Tmy3ParseError(
                        f"{path}: row {row_no} has no column {col} ({key})",
                        row=row_no, column=header[col])
                try:
                    value = float(row[col])
                except ValueError:
                    raise Tmy3ParseError(
                        f"{path}: non-numeric {key} value {row[col]!r} at row {row_no}",
                        row=row_no, column=header[col]) from None
                if not math.isfinite(value):
                    raise Tmy3ParseError(
                        f"{path}: non-finite {key} value {row[col]!r} at row {row_no}",
                        row=row_no, column=header[col])
                if value <= _SENTINEL_FLOOR:
                    raise Tmy3ParseError(
                        f"{path}: missing-data sentinel {value} for {key} at row {row_no}",
                        row=row_no, column=header[col])
                values.append(value)
    except csv.Error as exc:
        raise Tmy3ParseError(f"{path}: row {row_no + 1}: {exc}", row=row_no + 1) from None
    if not values:
        raise Tmy3ParseError(f"{path}: no data rows", row=3)
    return np.array(values).reshape(-1, len(cols))


def parse_tmy3(path) -> tuple[Series, Series, Series]:
    """Three hourly series (wind speed, dry-bulb temperature, DNI) from one file.

    Parsing is strict: a short row, a non-numeric or non-finite cell and
    a missing-data sentinel are each rejected with the offending row
    number (1-based, counting the two header lines) and column name; a
    line that csv itself refuses is rejected with its row number.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = []
        try:
            while len(head) < 2:
                head.append(next(reader))
        except StopIteration:
            raise Tmy3ParseError(f"{path}: fewer than two header lines", row=1) from None
        except csv.Error as exc:
            raise Tmy3ParseError(f"{path}: row {len(head) + 1}: {exc}",
                                 row=len(head) + 1) from None
        station, header = head[0], [h.strip() for h in head[1]]
        if len(station) < 2:
            raise Tmy3ParseError(
                f"{path}: line 1 does not look like station metadata: {station}", row=1)

        cols = {key: _resolve_column(header, key) for key in _HEADERS}
        # loadtxt's C reader splits rows and quoted cells as csv does and
        # converts a cell as float() does, or refuses it. It reads a regular
        # file by its path, in chunks, past the physical lines the header took
        # (reader.line_num: both split lines at LF, CR and CRLF), so the file
        # is read twice. A pipe cannot be reread and loadtxt would decompress
        # a name in _COMPRESSED: there it reads the text read here. _scan gives
        # the exact result where loadtxt could read differently (_LOADTXT_ONLY),
        # where there are only blank lines (loadtxt would warn), and where
        # loadtxt refuses the file or yields a bad value; it scans the text
        # read here, so a pipe names its bad row as its file does.
        text = table = None
        try:
            text = fh.read()
            if text.strip("\r\n") and not any(c in text for c in _LOADTXT_ONLY):
                by_path = path.is_file() and path.suffix not in _COMPRESSED
                table = np.loadtxt(str(path) if by_path else io.StringIO(text),
                                   skiprows=reader.line_num if by_path else 0, delimiter=",",
                                   encoding=fh.encoding, usecols=tuple(cols.values()),
                                   comments=None, quotechar='"', ndmin=2)
        except ValueError:  # a decode error in fh.read() leaves text None
            pass
    if table is None or not table.size or not np.all(
            np.isfinite(table) & (table > _SENTINEL_FLOOR)):
        if text is not None:
            table = _scan(csv.reader(io.StringIO(text, newline="")), path, header, cols)
        else:  # reread from the start, so the decode error names its position in the file
            with open(path, newline="") as fh:
                table = _scan(itertools.islice(csv.reader(fh), 2, None), path, header, cols)
    wind, bulb, dni = table.T
    return (Series(wind, t0=1, period_hint=24, unit="m/s"),
            Series(bulb, t0=1, period_hint=24, unit="degC"),
            Series(dni, t0=1, period_hint=24, unit="Wh/m^2"))
