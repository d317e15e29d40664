import copy
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import daycast
from daycast import tmy3
from daycast.cli import run_cli
from daycast.config import (band_from_config, builtin_config_names, builtin_config_path,
                            load_config, load_dataset, validate_config)
from daycast.errors import ConfigError, Tmy3ParseError
from daycast.evalharness import METHODS, Band, compare
from daycast.reportio import (export_report, export_series, format_report_table,
                              read_series_csv, report_rows, write_series)
from daycast.series import Series
from daycast.tmy3 import parse_tmy3
from daycast.tree import GrowConfig, fit_periodic_ensemble

HEADER = ("724940,LOS ANGELES INTL ARPT,CA,-8.0,33.938,-118.389,30\n"
          "Date (MM/DD/YYYY),Time (HH:MM),Wind Speed (m/s),Dry-bulb (C),DNI (W/m^2)\n")


def write_tmy3(path, rows):
    with open(path, "w") as fh:
        fh.write(HEADER)
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    return path


def weather_year(seed=1, days=365):
    """Hourly TMY3 rows of a diurnal wind, dry-bulb and DNI cycle plus seeded noise."""
    rng = np.random.default_rng(seed)
    hours = np.arange(24 * days)
    diurnal = np.sin(2 * np.pi * (hours % 24 - 9) / 24)
    noise = rng.normal(size=(3, len(hours)))
    wind = np.round(np.clip(3.5 + 1.8 * diurnal + 0.7 * noise[0], 0, None), 1)
    bulb = np.round(17 + 3 * diurnal + 0.5 * noise[1], 1)
    dni = np.round(np.clip(800 * diurnal + 60 * noise[2], 0, None))
    return [("01/01/1988", f"{h % 24 + 1:02d}:00", w, b, int(d))
            for h, w, b, d in zip(hours, wind, bulb, dni)]


def tiny_rows(n, wind=None):
    rows = []
    for i in range(n):
        w = wind[i] if wind else 3.0 + 0.1 * i
        rows.append((f"01/0{1 + i // 24}/1988", f"{i % 24 + 1:02d}:00", w, 15.0 + i % 24, 100 * (i % 5)))
    return rows


class TestParseTmy3:
    def test_three_row_miniature(self, tmp_path):
        path = write_tmy3(tmp_path / "mini.csv", tiny_rows(3))
        wind, bulb, dni = parse_tmy3(path)
        assert len(wind) == len(bulb) == len(dni) == 3
        assert wind.unit == "m/s" and bulb.unit == "degC" and dni.unit == "Wh/m^2"
        assert wind.values[0] == pytest.approx(3.0)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        rows = tiny_rows(5)
        rows[2] = (rows[2][0], rows[2][1], "gusty", rows[2][3], rows[2][4])
        path = write_tmy3(tmp_path / "bad.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 5           # line 5 of the file (two header lines)
        assert "row 5" in str(err.value)

    def test_sentinel_cell_rejected_with_row(self, tmp_path):
        rows = tiny_rows(4)
        rows[1] = (rows[1][0], rows[1][1], rows[1][2], -9900.0, rows[1][4])
        path = write_tmy3(tmp_path / "sentinel.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_row_and_column(self, tmp_path, token):
        rows = tiny_rows(5)
        rows[3] = (rows[3][0], rows[3][1], rows[3][2], rows[3][3], token)
        path = write_tmy3(tmp_path / "nonfinite.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 6
        assert err.value.column == "DNI (W/m^2)"
        assert f"non-finite dni value {token!r} at row 6" in str(err.value)

    def test_a_cell_beyond_the_bound_is_refused_with_its_index_and_time(self, tmp_path):
        # A finite cell past +/-1e150 reaches the Series rule, which names
        # the sample's index and time (row 6 of the file holds t = 4).
        rows = tiny_rows(5)
        rows[3] = (rows[3][0], rows[3][1], rows[3][2], rows[3][3], "1e200")
        path = write_tmy3(tmp_path / "huge.csv", rows)
        with pytest.raises(ValueError) as err:
            parse_tmy3(path)
        assert str(err.value) == "series value 1e+200 at index 3 (t = 4) is beyond +/-1e150"

    def test_short_row_names_missing_column(self, tmp_path):
        rows = tiny_rows(4)
        rows[2] = rows[2][:3]
        path = write_tmy3(tmp_path / "short.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 5
        assert err.value.column == "Dry-bulb (C)"
        assert "row 5 has no column 3 (dry_bulb)" in str(err.value)

    @pytest.mark.parametrize("first, second", [
        ("sentinel", "text"), ("text", "short"), ("short", "sentinel"), ("nan", "text")])
    def test_earlier_bad_row_reported_whatever_the_kinds(self, tmp_path, first, second):
        def spoil(row, kind):
            date, time, wind, bulb, dni = row
            if kind == "short":
                return (date, time, wind)
            return (date, time, wind, bulb, {"sentinel": -9900, "text": "n/a", "nan": "nan"}[kind])

        rows = tiny_rows(6)
        rows[1] = spoil(rows[1], first)
        rows[4] = spoil(rows[4], second)
        path = write_tmy3(tmp_path / "two_bad.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 4
        assert "row 4" in str(err.value)

    @pytest.mark.parametrize("wind, bulb, dni, column", [
        ("calm", -9999, "dark", "Wind Speed (m/s)"),
        (2.0, "warm", -9900, "Dry-bulb (C)"),
        (-9900, 15.0, "inf", "Wind Speed (m/s)"),
        (2.0, 15.0, "dark", "DNI (W/m^2)"),
    ])
    def test_bad_cells_in_one_row_reported_wind_bulb_dni(self, tmp_path, wind, bulb, dni,
                                                           column):
        rows = tiny_rows(3)
        rows[1] = (rows[1][0], rows[1][1], wind, bulb, dni)
        path = write_tmy3(tmp_path / "cells.csv", rows)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 4
        assert err.value.column == column

    def test_blank_lines_count_toward_the_reported_row(self, tmp_path):
        path = tmp_path / "blank.csv"
        rows = tiny_rows(4)
        rows[3] = (rows[3][0], rows[3][1], "gusty", rows[3][3], rows[3][4])
        with open(path, "w") as fh:
            fh.write(HEADER)
            fh.write(",".join(str(v) for v in rows[0]) + "\n\n\n")
            for r in rows[1:]:
                fh.write(",".join(str(v) for v in r) + "\n")
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        # Lines 1-2 header, 3 data, 4-5 blank, 6-7 data, 8 the bad row.
        assert err.value.row == 8
        assert "at row 8" in str(err.value)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        rows = tiny_rows(3)
        with open(path, "w") as fh:
            fh.write(HEADER + "\n")
            for r in rows:
                fh.write(",".join(str(v) for v in r) + "\n\n")
        wind, _, _ = parse_tmy3(path)
        np.testing.assert_array_equal(wind.values, [r[2] for r in rows])

    def test_only_blank_data_lines_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        with open(path, "w") as fh:
            fh.write(HEADER + "\n\n")
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 3
        assert "no data rows" in str(err.value)

    def test_cells_convert_exactly_as_float_does(self, tmp_path):
        rng = np.random.default_rng(11)
        cells = [(repr(float(w)), f" {b:.3f}", f"{d:.6e}")
                 for w, b, d in rng.uniform(0, 900, (50, 3))]
        rows = [("01/01/1988", "01:00", *c) for c in cells]
        path = write_tmy3(tmp_path / "exact.csv", rows)
        for series, col in zip(parse_tmy3(path), zip(*cells)):
            assert series.values.tolist() == [float(c) for c in col]

    def test_malformed_header_names_line_two(self, tmp_path):
        path = tmp_path / "noheader.csv"
        with open(path, "w") as fh:
            fh.write("724940,LOS ANGELES INTL ARPT,CA,-8.0,33.938,-118.389,30\n")
            fh.write("Date,Hour,Breeze,Warmth,Shine\n")
            fh.write("01/01/1988,01:00,1,2,3\n")
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert err.value.row == 2

    @pytest.mark.parametrize("text, message", [
        (HEADER.splitlines()[0] + "\n", "fewer than two header lines"),
        ("724940\n" + HEADER.splitlines()[1] + "\n01/01/1988,01:00,1,2,3\n",
         "line 1 does not look like station metadata: ['724940']")],
        ids=["one-line", "one-cell-station"])
    def test_a_bad_station_line_names_row_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "station.csv"
        path.write_text(text)
        with pytest.raises(Tmy3ParseError) as err:
            parse_tmy3(path)
        assert (err.value.row, str(err.value)) == (1, f"{path}: {message}")
        cfg = builtin_config_path("table2_wind")
        assert run_cli(["compare", "--config", str(cfg), "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", f"daycast: {path}: {message}\n")

    def test_alternate_vintage_headers(self, tmp_path):
        path = tmp_path / "alt.csv"
        with open(path, "w") as fh:
            fh.write("724940,LOS ANGELES INTL ARPT,CA,-8.0,33.938,-118.389,30\n")
            fh.write("Date (MM/DD/YYYY),Time (HH:MM),Wspd (m/s),Dry-bulb (C),DNI (Wh/m^2)\n")
            fh.write("01/01/1988,01:00,4.5,16.0,0\n")
        wind, _, _ = parse_tmy3(path)
        assert wind.values[0] == 4.5

    def test_series_roundtrip_keeps_its_start_time(self, tmp_path):
        series = Series([0.25, -1.5, 3.0], t0=17)
        with open(tmp_path / "s.csv", "w") as fh:
            write_series(series, fh)
        back = read_series_csv(tmp_path / "s.csv")
        assert back.t0 == 17
        assert back.values.tobytes() == series.values.tobytes()

    def test_series_roundtrip_keeps_times_of_a_million_or_more(self, tmp_path):
        series = Series([1.0, 2.0], t0=1234567)
        with open(tmp_path / "s.csv", "w") as fh:
            write_series(series, fh)
        assert (tmp_path / "s.csv").read_text() == "1234567,1.0\n1234568,2.0\n"
        assert read_series_csv(tmp_path / "s.csv").t0 == 1234567

    def test_series_roundtrip_through_csv(self, tmp_path):
        path = write_tmy3(tmp_path / "rt.csv", tiny_rows(30))
        wind, _, _ = parse_tmy3(path)
        out = tmp_path / "wind.csv"
        export_series(wind, out)
        back = read_series_csv(out)
        np.testing.assert_array_equal(back.values, wind.values)


def csv_reference_parse(path):
    """The csv plus float() TMY3 reader that np.loadtxt replaced, kept as the oracle.

    Returns the wind, dry-bulb and DNI arrays, or raises exactly what
    parse_tmy3 must raise. A csv.Error is raised as a Tmy3ParseError
    naming the csv record it stopped at.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            station = next(reader)
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise Tmy3ParseError(f"{path}: fewer than two header lines", row=1) from None
        except csv.Error as exc:
            raise Tmy3ParseError(f"{path}: row {reader.line_num}: {exc}",
                                 row=reader.line_num) from None
        if len(station) < 2:
            raise Tmy3ParseError(
                f"{path}: line 1 does not look like station metadata: {station}", row=1)
        cols = {key: tmy3._resolve_column(header, key) for key in tmy3._HEADERS}
        pick = operator.itemgetter(*cols.values())
        try:
            cells = list(itertools.chain.from_iterable(pick(row) for row in reader if row))
            table = np.array(cells, dtype=float).reshape(-1, len(cols))
        except (IndexError, ValueError, csv.Error):
            table = None
    if table is None or not table.size or not np.all(
            np.isfinite(table) & (table > tmy3._SENTINEL_FLOOR)):
        _reference_error(path, header, cols)
    return tuple(table.T)


def _reference_error(path, header, cols):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        row_no = 2
        try:
            next(reader)
            next(reader)
            for row_no, row in enumerate(reader, start=3):
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
                    if value <= tmy3._SENTINEL_FLOOR:
                        raise Tmy3ParseError(
                            f"{path}: missing-data sentinel {value} for {key} at row {row_no}",
                            row=row_no, column=header[col])
        except csv.Error as exc:
            raise Tmy3ParseError(f"{path}: row {row_no + 1}: {exc}",
                                 row=row_no + 1) from None
    raise Tmy3ParseError(f"{path}: no data rows", row=3)


def parse_outcome(parse, path):
    """The value bytes of each column, or the exception's type, row, column and message."""
    try:
        columns = parse(path)
    except Exception as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    return tuple((c.values if isinstance(c, Series) else c).tobytes() for c in columns)


def assert_parses_as_reference(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert parse_outcome(parse_tmy3, path) == parse_outcome(csv_reference_parse, path)


def data_row(wind="3.5", bulb="15.0", dni="100", date="01/01/1988", time="01:00"):
    return ",".join((date, time, wind, bulb, dni))


GOOD = data_row()
# Cells that csv plus float() and np.loadtxt might read differently.
ODD_CELLS = [
    '"3.5"', ' "3.5"', '"3.5" ', '"3""5"', '"""3.5"""', '"3.5"5', '"3,5"', '"3\n5"', '""',
    "1_0", "1__0", "_10", "١٢", "٣.٥", "３",
    "\xa03.5", "3.5\xa0", "\x0b3.5", "\x0c3.5", "\t3.5 ", " 3.5", "\x853.5",
    "\x1c3.5", "3.5\x1f", "\x1d", "3#5", "#", "3.5#", "3\x005", "\x00", "",  " ",
    "Infinity", "-Infinity", "inf", "iNfInItY", "nan", "-nan", "NaN", "1e400", "-1e400",
    "1e-400", "-9900", "-9999", "-9000", "-9000.0000000001", "-8999.9", "+3.5", ".5",
    "5.", "0x1p1", "3.5e", "1d5", "3.5\"", '3"5',
]
# Whole data sections after the two header lines.
ODD_DATA = {
    "good rows": f"{GOOD}\n{GOOD}\n",
    "no final line end": f"{GOOD}\n{GOOD}",
    "whitespace-only line": f"{GOOD}\n   \n{GOOD}\n",
    "tab line": f"{GOOD}\n\t\n{GOOD}\n",
    "form-feed line": f"{GOOD}\n\x0c\n{GOOD}\n",
    "vertical-tab line": f"{GOOD}\n\x0b\n{GOOD}\n",
    "NBSP line": f"{GOOD}\n\xa0\n{GOOD}\n",
    "separator line": f"{GOOD}\n\x1e\n{GOOD}\n",
    "quoted empty line": f'{GOOD}\n""\n{GOOD}\n',
    "lone comma line": f"{GOOD}\n,\n{GOOD}\n",
    "CR-only line ends": f"{GOOD}\r{GOOD}\r",
    "CRLF line ends": f"{GOOD}\r\n{GOOD}\r\n",
    "mixed line ends": f"{GOOD}\r\n{GOOD}\r{GOOD}\n",
    "CR-only blank lines": f"\r{GOOD}\r\r{GOOD}\r",
    "CRLF blank lines": f"\r\n{GOOD}\r\n\r\n{GOOD}\r\n",
    "blank lines between rows": f"\n{GOOD}\n\n\n{GOOD}\n\n",
    "blank lines only": "\n\n\n",
    "CRLF blank lines only": "\r\n\r\n",
    "CR blank lines only": "\r\r",
    "header lines only": "",
    "whitespace only": "  \n \n",
    "longer row": f"{GOOD},7,8\n{GOOD}\n",
    "shorter row": f"{GOOD}\n01/01/1988,01:00,3.5,15.0\n",
    "two-cell row": f"{GOOD}\n01/01/1988,01:00\n{GOOD}\n",
    "trailing comma": f"{GOOD},\n{GOOD},\n",
    "quoted comma, not picked": data_row(date='"01,01"') + f"\n{GOOD}\n",
    "quoted newline, not picked": data_row(date='"01\n01"') + "\n" + data_row(dni="dark") + "\n",
    "quoted CRLF, not picked": data_row(time='"01\r\n"') + f"\n{GOOD}\n",
    "quoted CR, not picked": data_row(time='"01\r"') + f"\r{GOOD}\r",
    "unclosed quote, not picked": data_row(date='"01') + f"\n{GOOD}\n",
    "quote inside a cell, not picked": data_row(date='01"01') + f"\n{GOOD}\n",
    "NUL, not picked": data_row(date="01\x00") + f"\n{GOOD}\n",
    "separator, not picked": data_row(date="\x1c01") + f"\n{GOOD}\n",
    "hash, not picked": data_row(date="#01") + f"\n{GOOD}\n",
    "bad cell after blank lines": f"{GOOD}\n\n\n{data_row(bulb='n/a')}\n",
    "sentinel after a quoted newline": (data_row(date='"\n"') + "\n"
                                        + data_row(wind="-9900") + "\n"),
}
STATION, NAMES = HEADER.splitlines()
# Two header records that take other physical lines than two LF-ended ones.
ODD_HEADERS = {
    **{f"quoted {name} in the station": STATION.replace(
        "LOS ANGELES INTL ARPT", f'"LOS ANGELES{end}INTL ARPT"') + "\n" + NAMES + "\n"
       for name, end in (("LF", "\n"), ("CR", "\r"), ("CRLF", "\r\n"))},
    "quoted LF in a column name": STATION + "\n" + NAMES.replace(
        "Date (MM/DD/YYYY)", '"Date\n(MM/DD/YYYY)"') + "\n",
    "CR line ends": STATION + "\r" + NAMES + "\r",
    "CRLF line ends": STATION + "\r\n" + NAMES + "\r\n",
}


class TestParseMatchesCsvReference:
    """parse_tmy3 gives the csv plus float() reader's values or error, byte for byte."""

    @pytest.mark.parametrize("column", ["wind", "bulb", "dni"])
    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_cell(self, tmp_path, cell, column):
        text = HEADER + f"{GOOD}\n{data_row(**{column: cell})}\n{GOOD}\n"
        assert_parses_as_reference(tmp_path / "cell.csv", text)

    @pytest.mark.parametrize("data", ODD_DATA.values(), ids=ODD_DATA.keys())
    def test_odd_lines(self, tmp_path, data):
        assert_parses_as_reference(tmp_path / "lines.csv", HEADER + data)

    @pytest.mark.parametrize("data", [f"{GOOD}\n{GOOD}\n", data_row(wind="gusty") + f"\n{GOOD}\n",
                                      data_row(bulb="-9900") + f"\n{GOOD}\n"],
                             ids=["good rows", "bad first cell", "first-row sentinel"])
    @pytest.mark.parametrize("header", ODD_HEADERS.values(), ids=ODD_HEADERS.keys())
    def test_odd_header_lines(self, tmp_path, header, data):
        # loadtxt skips the physical lines the header records took, and an
        # error's row number counts records as csv does.
        assert_parses_as_reference(tmp_path / "header.csv", header + data)

    @pytest.mark.parametrize("header", ODD_HEADERS.values(), ids=ODD_HEADERS.keys())
    def test_good_rows_under_odd_header_lines_never_reach_the_scan(self, tmp_path, monkeypatch,
                                                                   header):
        # Too few skipped lines would hand loadtxt a header line, which it
        # refuses, and the scan would hide that; too many would drop a row.
        path = tmp_path / "header.csv"
        path.write_bytes((header + f"{GOOD}\n{data_row(wind='4.5')}\n").encode())
        expected = parse_outcome(csv_reference_parse, path)
        monkeypatch.setattr(tmy3, "_scan", None)
        assert parse_outcome(parse_tmy3, path) == expected

    @pytest.mark.parametrize("data", ["3.5,15.0,100\n-1,2,3\n", "3.5,15.0,100\n-1,2,dark\n",
                                      '"3.5",15,100\n'])
    def test_columns_in_another_order(self, tmp_path, data):
        header = HEADER.splitlines()[0] + "\nDNI (W/m^2),Dry-bulb (C),Wind Speed (m/s)\n"
        assert_parses_as_reference(tmp_path / "order.csv", header + data)

    def test_undecodable_bytes_past_the_first_read(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes((HEADER + f"{GOOD}\n" * 500).encode() + b"01/01/1988,\xff\xfe,1,2,3\n")
        assert parse_outcome(parse_tmy3, path) == parse_outcome(csv_reference_parse, path)

    def test_a_field_past_the_csv_size_limit_is_read_where_it_is_not_picked(self, tmp_path):
        # The one known difference: csv refuses the file outright, loadtxt
        # reads it because it never converts that cell.
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + data_row(date="x" * (csv.field_size_limit() + 1)) + "\n")
        with pytest.raises(Tmy3ParseError, match="field larger than field limit"):
            csv_reference_parse(path)
        assert [s.values.tolist() for s in parse_tmy3(path)] == [[3.5], [15.0], [100.0]]

    @pytest.mark.parametrize("row", [1, 2, 4], ids=["station line", "column names", "wind cell"])
    def test_a_line_csv_refuses_is_one_error_line_naming_its_row(self, tmp_path, capsys, row):
        # A cell past csv.field_size_limit() in a line parse_tmy3 reads with csv.
        wide = "1" * 200_000
        lines = (HEADER + f"{GOOD}\n{GOOD}\n{GOOD}\n").splitlines()
        lines[row - 1] = (data_row(wind=wide) if row > 2
                          else f"{lines[row - 1]},{wide}" if row == 1 else f"{wide},{lines[1]}")
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: row {row}: field larger than field limit ({csv.field_size_limit()})"
        assert parse_outcome(parse_tmy3, path) == (Tmy3ParseError, row, None, message)
        assert parse_outcome(csv_reference_parse, path) == (Tmy3ParseError, row, None, message)
        cfg = builtin_config_path("nexting_multiperiod_irradiance")
        assert run_cli(["nexting-run", "--config", str(cfg), "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", f"daycast: {message}\n")

    def test_a_generated_year_never_reaches_the_scan(self, tmp_path, monkeypatch):
        path = write_tmy3(tmp_path / "year.csv", weather_year(days=30))
        expected = parse_outcome(csv_reference_parse, path)
        calls = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(tmy3, "_scan", None)
        monkeypatch.setattr(np, "loadtxt", spy)
        assert parse_outcome(parse_tmy3, path) == expected
        # numpy reads a str path in chunks, but other input line by line.
        assert calls == [str(path)]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_plain_file_with_a_compressed_suffix_reads_as_text(self, tmp_path, capsys,
                                                                 suffix):
        # loadtxt would decompress a path by its suffix and fail on plain text.
        plain = write_tmy3(tmp_path / "year.csv", weather_year(days=21))
        path = tmp_path / f"year.csv{suffix}"
        path.write_bytes(plain.read_bytes())
        assert parse_outcome(parse_tmy3, path) == parse_outcome(csv_reference_parse, path)
        cfg = str(builtin_config_path("nexting_multiperiod_irradiance"))
        for data in (plain, path):
            out = tmp_path / f"{data.name}.out"
            assert run_cli(["nexting-run", "--config", cfg, "--data", str(data),
                            "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / f"{path.name}.out").read_bytes() == (
            tmp_path / "year.csv.out").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_reads_as_its_file_does(self, tmp_path, capsys):
        # A pipe (say `--data <(zcat year.csv.gz)`) can be read only once.
        plain = write_tmy3(tmp_path / "year.csv", weather_year(days=21))
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(plain.read_bytes())        # fits the pipe's buffer
        cfg = str(builtin_config_path("nexting_multiperiod_irradiance"))
        try:
            for data, out in ((plain, "file.out"), (f"/dev/fd/{read_fd}", "pipe.out")):
                assert run_cli(["nexting-run", "--config", cfg, "--data", str(data),
                                "--out", str(tmp_path / out)]) == 0
        finally:
            os.close(read_fd)
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "pipe.out").read_bytes() == (tmp_path / "file.out").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_names_its_bad_row_as_its_file_does(self, tmp_path, capsys):
        # loadtxt refuses the cell, so the csv scan answers: from the text
        # already read, since the pipe cannot be read again.
        rows = weather_year(days=21)
        rows[1] = (*rows[1][:2], "gusty", *rows[1][3:])
        bad = write_tmy3(tmp_path / "bad.csv", rows)
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(bad.read_bytes())          # fits the pipe's buffer
        cfg = str(builtin_config_path("nexting_multiperiod_irradiance"))
        errors = []
        try:
            for data in (str(bad), f"/dev/fd/{read_fd}"):
                assert run_cli(["nexting-run", "--config", cfg, "--data", data]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                errors.append(err.replace(data, "<data>"))
        finally:
            os.close(read_fd)
        assert errors == ["daycast: <data>: non-numeric wind_speed value 'gusty' at row 4\n"] * 2

    def test_blank_data_lines_give_one_error_line_and_no_warning(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER + "\n\n\n")
        cfg = builtin_config_path("nexting_multiperiod_irradiance")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["nexting-run", "--config", str(cfg), "--data", str(path)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", f"daycast: {path}: no data rows\n")


# A number with the decorations csv plus float() accept: whitespace, quotes,
# underscores and non-ASCII digits.
_WHITESPACE = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\xa0", " ", "\x85", "\x1c"])


@st.composite
def decorated_numbers(draw):
    text = draw(st.sampled_from(["3.5", "15", "-2.25", "100", "0", "1e3", "-9000", "-9900",
                                 "12.5e-1", ".5", "7."]))
    if draw(st.booleans()):
        text = text.translate({ord(d): 0x0660 + int(d) for d in "0123456789"})
    if draw(st.booleans()) and len(text) > 1 and text[:2].isdigit():
        text = text[0] + "_" + text[1:]
    text = draw(_WHITESPACE) + text + draw(_WHITESPACE)
    if draw(st.booleans()):
        outside = st.sampled_from(["", " "])
        text = draw(outside) + '"' + text + '"' + draw(outside)
    return text


_CELLS = st.one_of(decorated_numbers(), st.sampled_from(ODD_CELLS),
                   st.text("0123456789.-+e_ \t\x0b\x0c\xa0\x1c\x1f\x00#\",\r\n٣in", max_size=5))


_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def tmy3_data(draw):
    """The data lines of a TMY3 file: rows of generated cells and odd lines,
    each ended by LF, CRLF or CR; the last line end may be missing."""
    lines = draw(st.lists(st.one_of(
        st.lists(_CELLS, min_size=0, max_size=7).map(",".join),
        st.sampled_from(["", "   ", "\x0c", '""', ",", GOOD])), max_size=6))
    ends = draw(st.lists(_LINE_END, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


@given(_LINE_END, _LINE_END, tmy3_data())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_matches_the_csv_reference_on_generated_data(tmp_path, station_end, names_end,
                                                           data):
    assert_parses_as_reference(tmp_path / "generated.csv",
                               STATION + station_end + NAMES + names_end + data)


class TestRunConfig:
    @pytest.mark.parametrize("name", ["table2_wind", "table2_temperature",
                                      "table2_irradiance"])
    def test_every_one_day_row_is_ok_on_a_tmy3_year(self, tmp_path, name):
        # Seasonal ARIMA's two-day window makes every TMY3 cut 72 samples
        # long; the one-day methods must still fit on t = 1..24.
        path = write_tmy3(tmp_path / "year.csv", weather_year())
        cfg = load_config(builtin_config_path(name))
        for day_offset in (0, 40, 200, 361):
            dataset = load_dataset({**cfg, "day_offset": day_offset}, data_path=path)
            assert len(dataset) == 72
            reports = compare(dataset, cfg["methods"], band_from_config(cfg))
            for row in reports:
                assert row.ok or row.method == "arima", (day_offset, row.method, row.error)

    def test_builtin_configs_exist_and_validate(self):
        names = builtin_config_names()
        assert {"table2_wind", "table2_temperature", "table2_irradiance"} <= set(names)
        for name in names:
            cfg = load_config(builtin_config_path(name))
            assert cfg["methods"]

    def test_unknown_top_level_key_rejected(self):
        cfg = json.loads(builtin_config_path("table2_wind").read_text())
        cfg["surprise"] = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_unknown_method_key_rejected(self):
        cfg = json.loads(builtin_config_path("table2_wind").read_text())
        cfg["methods"][0]["extra_knob"] = 2
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "extra_knob" in str(err.value)

    @pytest.mark.parametrize("name", ["table2_wind", "table2_temperature",
                                      "table2_irradiance"])
    def test_every_field_deletion_is_rejected(self, name):
        base = json.loads(builtin_config_path(name).read_text())
        for key in ("signal", "band", "methods"):
            broken = copy.deepcopy(base)
            del broken[key]
            with pytest.raises(ConfigError):
                validate_config(broken)
        for i, block in enumerate(base["methods"]):
            for key in block:
                broken = copy.deepcopy(base)
                del broken["methods"][i][key]
                with pytest.raises(ConfigError):
                    validate_config(broken)

    def test_module_preconditions_checked_up_front(self):
        base = json.loads(builtin_config_path("table2_wind").read_text())
        base["methods"] = [{"name": "polynomial", "degree": 30}]
        with pytest.raises(ConfigError):      # 31 coefficients from 24 samples
            validate_config(base)
        base["methods"] = [{"name": "arima", "p": 5, "d": 0, "q": 5, "P": 1, "D": 1,
                            "Q": 1, "s": 24, "train_periods": 2}]
        with pytest.raises(ConfigError):      # differencing leaves too few samples
            validate_config(base)

    def test_synthetic_dataset(self):
        cfg = validate_config({
            "signal": "synthetic",
            "synthetic": {"amplitude": 1, "period": 100, "count": 200},
            "band": {"inner": 0.1, "outer": 0.3},
            "methods": [{"name": "polynomial", "degree": 3}],
        })
        ds = load_dataset(cfg)
        assert len(ds) == 200

    def test_weather_signals_fall_back_to_fixtures(self):
        cfg = load_config(builtin_config_path("table2_temperature"))
        ds = load_dataset(cfg)
        assert len(ds) == 48 and ds.unit == "degC"

    def test_a_day_offset_needs_a_data_file(self, tmp_path):
        # The embedded fixture has no days to offset, so it is no fallback.
        cfg = validate_config({"signal": "wind", "day_offset": 100,
                               "band": {"inner": 1, "outer": 3},
                               "methods": [{"name": "polynomial", "degree": 3}]})
        with pytest.raises(ConfigError) as err:
            load_dataset(cfg)
        assert str(err.value) == ("day_offset 100 needs a TMY3 data file; "
                                  "the embedded wind fixture has no days to offset")
        path = write_tmy3(tmp_path / "spring.csv", weather_year(days=102))
        wind, _, _ = parse_tmy3(path)
        assert load_dataset(cfg, data_path=path).values.tobytes() == wind.values[2400:].tobytes()

    def test_tmy3_window_selection(self, tmp_path):
        path = write_tmy3(tmp_path / "week.csv", tiny_rows(24 * 7))
        cfg = validate_config({
            "signal": "wind", "data": str(path), "day_offset": 2,
            "band": {"inner": 1, "outer": 3},
            "methods": [{"name": "polynomial", "degree": 3}],
        })
        ds = load_dataset(cfg)
        assert len(ds) == 48                 # one training day + one forecast day
        assert ds.t0 == 1                    # re-indexed
        wind, _, _ = parse_tmy3(path)
        np.testing.assert_array_equal(ds.values, wind.values[48:96])

    SINE = {"amplitude": 1, "period": 24, "count": 72}

    @pytest.mark.parametrize("keys, message", [
        ({"signal": "wind", "synthetic": SINE}, "key 'synthetic' does not apply to signal 'wind'"),
        ({"signal": "synthetic", "synthetic": SINE, "data": "/nonexistent.csv"},
         "key 'data' does not apply to signal 'synthetic'"),
        ({"signal": "synthetic", "synthetic": SINE, "day_offset": 5},
         "key 'day_offset' does not apply to signal 'synthetic'"),
        ({"signal": "temperature", "synthetic": SINE},
         "key 'synthetic' does not apply to signal 'temperature'"),
        ({"signal": "synthetic", "synthetic": SINE, "day_offset": 1},
         "key 'day_offset' does not apply to signal 'synthetic'"),
        ({"signal": "irradiance", "synthetic": SINE},
         "key 'synthetic' does not apply to signal 'irradiance'"),
        ({"signal": "synthetic", "synthetic": None},
         "missing required key 'synthetic' for signal 'synthetic'"),
        ({"signal": "synthetic"}, "missing required key 'synthetic' for signal 'synthetic'"),
    ])
    def test_a_signal_needs_its_own_key_and_refuses_the_others(self, keys, message):
        with pytest.raises(ConfigError) as err:
            validate_config({**keys, "band": {"inner": 1, "outer": 3},
                             "methods": [{"name": "polynomial", "degree": 3}]})
        assert str(err.value) == f"config: {message}"

    @pytest.mark.parametrize("keys", [
        {"signal": "temperature", "day_offset": 0, "data": None, "synthetic": None},
        {"signal": "synthetic", "synthetic": SINE, "data": None, "day_offset": 0},
        {"signal": "wind", "data": "year.csv", "day_offset": 3, "synthetic": None},
    ])
    def test_defaults_and_the_keys_a_signal_reads_are_accepted(self, keys):
        validate_config({**keys, "band": {"inner": 1, "outer": 3},
                         "methods": [{"name": "polynomial", "degree": 3}]})

    @pytest.mark.parametrize("block, key", [
        ({"name": "tree", "min_node_size": 10, "period": 24}, "train_periods"),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0.3, "trace_lambda": 0.9,
          "freeze_after": 24}, "max_shift"),
    ])
    def test_null_on_optional_key_means_its_default(self, block, key):
        rows = []
        for methods in ([{**block, key: None}], [block]):
            cfg = validate_config({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": methods})
            [row] = compare(load_dataset(cfg), cfg["methods"], band_from_config(cfg))
            assert row.ok, row.error
            rows.append((row.train_rmse, row.inner_run, row.outer_run))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("block, message", [
        ({"name": "spline", "smooth_lambda": True}, "smooth_lambda must be a finite number"),
        ({"name": "spline", "smooth_lambda": math.nan}, "smooth_lambda must be a finite number"),
        ({"name": "polynomial", "degree": 6.0}, "degree must be an integer"),
        ({"name": "ridge", "reg_lambda": 0.1, "g1": {"period": 24}},
         "missing required key 'phase' in methods[0] (ridge).g1"),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0.3, "trace_lambda": 0.9},
         "missing required key 'freeze_after' in methods[0] (nexting)"),
        ({"name": "astrology"}, "methods[0]: unknown method 'astrology'"),
        ({"name": "tree", "min_node_size": 0, "period": 24},
         "methods[0] (tree): min_node_size must be >= 1"),
        ({"name": "tree", "min_node_size": 10, "period": 40},
         "methods[0] (tree): period 40 is longer than the 24-sample training window"),
        ({"name": "arima", "p": 5, "d": 0, "q": 5, "P": 1, "D": 1, "Q": 1, "s": 24,
          "train_periods": 1},
         "methods[0] (arima): differencing leaves 0 samples, estimation needs 39"),
        ({"name": "arima", "p": 0, "d": 0, "q": 0, "P": 1, "D": 0, "Q": 0, "s": 1,
          "train_periods": 2},
         "methods[0] (arima): seasonality must be >= 2, got 1"),
        ({"name": "arima", "p": 0, "d": 0, "q": 0, "P": 1, "D": 0, "Q": 0, "s": 0,
          "train_periods": 2},
         "methods[0] (arima): seasonality must be >= 2, got 0"),
        ({"name": "arima", "p": 0, "d": 0, "q": -1, "P": 0, "D": 0, "Q": 0, "s": 0,
          "train_periods": 2},
         "methods[0] (arima): orders must be >= 0, got (0, 0, -1)"),
        ({"name": "tree", "min_node_size": 10, "period": 24, "max_leaves": 0},
         "methods[0] (tree): max_leaves must be >= 1, got 0"),
        ({"name": "nexting", "gamma": 1.5, "alpha": 0.3, "trace_lambda": 0.9,
          "freeze_after": 24}, "methods[0] (nexting): gamma must lie in [0, 1), got 1.5"),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0, "trace_lambda": 0.9,
          "freeze_after": 24}, "methods[0] (nexting): alpha must be positive, got 0"),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0.3, "trace_lambda": 2,
          "freeze_after": 24}, "methods[0] (nexting): trace_lambda must lie in [0, 1], got 2"),
    ])
    def test_method_errors_name_the_block_and_key(self, block, message):
        with pytest.raises(ConfigError) as err:
            validate_config({"signal": "wind", "band": {"inner": 1, "outer": 3},
                             "methods": [block]})
        assert message in str(err.value)

    def test_arima_block_may_name_s_without_seasonal_orders(self):
        validate_config({"signal": "wind", "band": {"inner": 1, "outer": 3},
                         "methods": [{"name": "arima", "p": 1, "d": 0, "q": 0, "P": 0,
                                      "D": 0, "Q": 0, "s": 24, "train_periods": 1}]})

    @pytest.mark.parametrize("block, train_samples", [
        ({"name": "polynomial", "degree": 24}, 24),
        ({"name": "rbf", "n_basis": 24, "sigma": 2.0}, 24),
        ({"name": "spline", "smooth_lambda": 1.0}, 3),
        ({"name": "tree", "min_node_size": 10, "period": 40}, 24),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0.3, "trace_lambda": 0.9,
          "freeze_after": 24, "max_shift": 24}, 24),
        ({"name": "arima", "p": 5, "d": 0, "q": 5, "P": 1, "D": 1, "Q": 1, "s": 24,
          "train_periods": 1}, 24),
    ])
    def test_library_row_rejects_a_short_window_in_the_config_words(self, wind, block,
                                                                      train_samples):
        with pytest.raises(ConfigError) as err:
            validate_config({"signal": "wind", "band": {"inner": 1, "outer": 3},
                             "train_samples": train_samples, "methods": [block]})
        [row] = compare(wind, [block], Band(1, 3), train_samples=train_samples)
        assert f"methods[0] ({block['name']}): {row.error}" == str(err.value)

    def test_readme_key_table_matches_the_registry(self):
        names = {int: "integer", float: "number", str: "string", bool: "boolean"}
        want = []
        for method, cls in METHODS.items():
            for f in dataclasses.fields(cls):
                if not f.init:
                    continue
                args = typing.get_args(f.type)
                kind = names.get(args[0] if args else f.type, "object")
                if f.default is not dataclasses.MISSING:
                    default = f"`{json.dumps(f.default)}`"
                else:
                    default = "required"
                    kind += " or `null`" if type(None) in args else ""
                want.append((f"`{method}`", f"`{f.name}`", kind, default))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [tuple(cell.strip() for cell in line.split("|")[1:5])
                for line in readme.splitlines() if re.match(r"\| `\w+` \| `\w+` \|", line)]
        assert rows == want


class TestExportReport:
    def make_reports(self, wind):
        cfg = load_config(builtin_config_path("table2_wind"))
        return compare(wind, cfg["methods"], band_from_config(cfg))

    def test_csv_layout_and_missing_rmse_cell(self, tmp_path, wind):
        reports = self.make_reports(wind)
        out = tmp_path / "r.csv"
        export_report(reports, "csv", out)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["method", "train_rmse", "inner_run", "outer_run"]
        assert len(rows) == 1 + len(reports)
        arima_row = next(r for r in rows if r[0] == "arima")
        assert arima_row[1] == ""            # no training RMSE for ARIMA
        poly_row = next(r for r in rows if r[0] == "polynomial")
        assert float(poly_row[1]) == pytest.approx(0.9337, abs=1e-3)
        assert poly_row[2] == "2" and poly_row[3] == "7"

    def test_json_round_trip(self, tmp_path, wind):
        reports = self.make_reports(wind)
        out = tmp_path / "r.json"
        export_report(reports, "json", out)
        back = json.loads(out.read_text())
        assert back == report_rows(reports)
        assert back[0]["method"] == "polynomial"

    def test_single_report_two_line_csv(self, tmp_path, wind):
        reports = compare(wind, [{"name": "polynomial", "degree": 6}],
                          band_from_config(load_config(builtin_config_path("table2_wind"))))
        out = tmp_path / "one.csv"
        export_report(reports, "csv", out)
        assert len(out.read_text().strip().splitlines()) == 2

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_report([], "csv", tmp_path / "x.csv")

    def test_table_formatting_marks_failures(self, wind):
        reports = self.make_reports(wind)
        text = format_report_table(reports)
        assert "FAILED" in text and "polynomial" in text

    def test_arima_polynomial_and_nexting_rows_past_the_float_range_name_their_causes(
            self, tmp_path):
        # A fresh process, as a user runs it: stderr carries no numpy warning.
        nexting, = (m for m in load_config(builtin_config_path("table2_irradiance"))["methods"]
                    if m["name"] == "nexting")
        config = tmp_path / "huge.json"
        # Samples lie within +/-1e150, the range of every Series, and so must
        # a row's outputs.
        config.write_text(json.dumps({
            "signal": "synthetic", "synthetic": {"amplitude": 1e150, "period": 24, "count": 48},
            "band": {"inner": 1.0, "outer": 2.0},
            "methods": [{"name": "arima", "p": 0, "d": 2, "q": 0, "P": 0, "D": 0, "Q": 0,
                         "s": 0, "train_periods": 1},
                        {"name": "polynomial", "degree": 3}, nexting]}))
        proc = fresh_python("-m", "daycast.cli", "compare", "--config", str(config))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [line.split("FAILED: ")[1] for line in proc.stdout.splitlines()[1:]] == [
            "arima forecast is beyond +/-1e150 at t = 28",
            "polynomial fit is beyond +/-1e150 at t = 19",
            "nexting fit is beyond +/-1e150 at t = 5"]


class TestCli:
    def test_synth_emits_count_lines(self, capsys):
        assert run_cli(["synth", "--period", "100", "--count", "100"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 100
        first = out.splitlines()[0].split(",")
        assert float(first[0]) == 1.0

    def test_synth_json(self, capsys):
        assert run_cli(["synth", "--period", "4", "--count", "4",
                        "--format", "json"]) == 0
        pairs = json.loads(capsys.readouterr().out)
        assert len(pairs) == 4 and pairs[0][0] == 1.0

    def test_compare_builtin_config(self, capsys):
        rc = run_cli(["compare", "--config", str(builtin_config_path("table2_wind"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "polynomial" in out and "0.9337" in out

    def test_compare_export(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = run_cli(["compare", "--config", str(builtin_config_path("table2_wind")),
                      "--out", str(out)])
        assert rc == 0
        assert out.exists()
        capsys.readouterr()

    def test_missing_config_exits_1_with_path(self, capsys):
        rc = run_cli(["compare", "--config", "/no/such/config.json"])
        assert rc == 1
        assert "/no/such/config.json" in capsys.readouterr().err

    def test_unreadable_config_exits_1_with_path(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        for path in (tmp_path, binary):
            assert run_cli(["compare", "--config", str(path)]) == 1
            assert str(path) in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer string conversion limit")
    def test_config_with_an_overlong_integer_exits_1_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"signal": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert f"daycast: {cfg}: invalid JSON (Exceeds the limit" in capsys.readouterr().err

    def test_config_nested_too_deeply_exits_1_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"daycast: {cfg}: invalid JSON (nested too deeply)\n")

    def test_a_count_past_the_address_space_exits_2(self, tmp_path, capsys):
        # 10**15 samples are 8 PB, which no 64-bit process can map, so the
        # allocation fails at once whatever the machine's overcommit policy.
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"signal": "synthetic", "band": {"inner": 1, "outer": 3},
                                   "synthetic": {"amplitude": 1, "period": 24,
                                                 "count": 10**15},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        for argv in (["synth", "--period", "24", "--count", str(10**15)],
                     ["compare", "--config", str(cfg)]):
            assert run_cli(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("daycast: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "forecast"])
    def test_rbf_sigma_whose_square_overflows_is_one_error_line(self, tmp_path, capsys,
                                                                command):
        cfg = tmp_path / "rbf.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "rbf", "n_basis": 4,
                                                "sigma": 1e300}]}))
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: methods[0] (rbf): bump width must lie "
                                           "in [1e-150, 1e150], got 1e+300\n")

    @pytest.mark.parametrize("command", ["fit", "forecast"])
    def test_ridge_period_whose_frequency_overflows_is_one_error_line(self, tmp_path, capsys,
                                                                      command):
        cfg = tmp_path / "ridge.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "ridge", "reg_lambda": 0.1,
                                                "g1": {"period": 1e-320, "phase": 0.0}}]}))
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: methods[0] (ridge).g1: sinusoid period "
                                           "must lie in [1e-150, 1e150], got 1e-320\n")

    SYNTH_USAGE = ("usage: daycast synth [-h] [--amplitude AMPLITUDE] --period PERIOD "
                   "--count COUNT [--phase PHASE] [--out OUT] [--format {csv,json}]\n")
    ACF_USAGE = ("usage: daycast acf [-h] (--fixture FIXTURE | --data DATA) "
                 "[--max-lag MAX_LAG] [--out OUT]\n")

    @pytest.mark.parametrize("argv, message, usage", [
        (["synth", "--period", "0", "--count", "3"],
         "argument --period: must be a number in [1e-150, 1e150], got '0'", SYNTH_USAGE),
        (["synth", "--period", "1e-320", "--count", "3"],
         "argument --period: must be a number in [1e-150, 1e150], got '1e-320'", SYNTH_USAGE),
        (["synth", "--period", "1e+200", "--count", "3"],
         "argument --period: must be a number in [1e-150, 1e150], got '1e+200'", SYNTH_USAGE),
        (["compare"], "the following arguments are required: --config",
         "usage: daycast compare [-h] --config CONFIG [--data DATA] [--out OUT] "
         "[--format {csv,json}]\n"),
        (["synth", "--period", "24", "--count", "abc"],
         "argument --count: must be an integer >= 1, got 'abc'", SYNTH_USAGE),
        (["acf"], "one of the arguments --fixture --data is required", ACF_USAGE),
        (["acf", "--fixture", "wind48", "--data", "x.csv"],
         "argument --data: not allowed with argument --fixture", ACF_USAGE),
    ], ids=["synth-period-0", "synth-period-1e-320", "synth-period-1e+200", "compare-no-config",
            "synth-count-abc", "acf-no-source", "acf-two-sources"])
    def test_refused_flag_prints_its_subcommand_usage(
            self, capsys, monkeypatch, argv, message, usage):
        # Every flag is refused by the parser: a period outside make_sine's
        # range by its type, the acf sources by their required exclusive group.
        monkeypatch.setenv("COLUMNS", "200")  # one usage line, unwrapped
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"daycast: {message}\n{usage}")

    def test_a_refused_top_level_command_prints_the_top_level_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert run_cli(["bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("daycast: argument command: invalid choice: 'bogus'")
        assert err.endswith("\nusage: daycast [-h] [--version] "
                            "{synth,fit,forecast,compare,nexting-run,acf} ...\n")

    def test_synthetic_config_period_out_of_the_sine_range_is_one_error_line(self, tmp_path,
                                                                             capsys):
        cfg = tmp_path / "synthetic.json"
        cfg.write_text(json.dumps({"signal": "synthetic", "band": {"inner": 1, "outer": 3},
                                   "synthetic": {"amplitude": 1, "period": 1e-320, "count": 72},
                                   "methods": [{"name": "polynomial", "degree": 2}]}))
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: config.synthetic: period must lie in "
                                           "[1e-150, 1e150], got 1e-320\n")

    def test_unknown_flag_exits_1(self, capsys):
        rc = run_cli(["synth", "--period", "4", "--count", "4", "--bogus"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["acf", "--fixture", "wind48", "--max-lag", "0"], "--max-lag"),
        (["synth", "--period", "4", "--count", "0"], "--count"),
        (["synth", "--period", "-1", "--count", "3"], "--period"),
        (["synth", "--period", "0", "--count", "3"], "--period"),
        (["synth", "--period", "inf", "--count", "3"], "--period"),
        (["synth", "--period", "4", "--count", "3", "--amplitude", "nan"], "--amplitude"),
        (["synth", "--period", "4", "--count", "3", "--phase", "inf"], "--phase"),
        (["synth", "--period", "4", "--count", "3", "--amplitude", "1e200"], "--amplitude"),
    ])
    def test_out_of_range_flag_exits_1_naming_the_flag(self, capsys, argv, flag):
        assert run_cli(argv) == 1
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_max_lag_beyond_the_series_is_a_data_error(self, capsys):
        assert run_cli(["acf", "--fixture", "wind48", "--max-lag", "48"]) == 2
        assert "max_lag 48" in capsys.readouterr().err

    def test_invalid_config_schema_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial"}]}))
        rc = run_cli(["compare", "--config", str(bad)])
        assert rc == 1
        assert "degree" in capsys.readouterr().err

    def test_fit_prints_training_predictions(self, tmp_path, capsys):
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 6}]}))
        assert run_cli(["fit", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24
        assert float(lines[0].split(",")[0]) == 1.0

    def test_fit_prints_the_times_of_the_predicted_training_samples(self, tmp_path, capsys,
                                                                     wind):
        # A tree predicts only the last period of its window: t = 5..24 of 1..24.
        cfg = tmp_path / "tree.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "tree", "min_node_size": 10,
                                                "period": 20}]}))
        assert run_cli(["fit", "--config", str(cfg)]) == 0
        pairs = [line.split(",") for line in capsys.readouterr().out.split()]
        model = fit_periodic_ensemble(Series(wind.values[:24]), 20, GrowConfig(10))
        assert [int(t) for t, _ in pairs] == list(range(5, 25))
        assert [float(v) for _, v in pairs] == [model.predict(float(t)) for t, _ in pairs]

    def test_forecast_prints_holdout_predictions(self, tmp_path, capsys):
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 6}]}))
        assert run_cli(["forecast", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24
        t, v = lines[0].split(",")
        assert float(t) == 25.0
        assert float(v) == pytest.approx(2.0308248, abs=1e-3)

    def test_fit_with_arima_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "arima.json"
        cfg.write_text(json.dumps({
            "signal": "synthetic",
            "synthetic": {"amplitude": 1, "period": 24, "count": 96},
            "band": {"inner": 0.1, "outer": 0.3},
            "methods": [{"name": "arima", "p": 2, "d": 0, "q": 0, "P": 0, "D": 0,
                         "Q": 0, "s": 0, "train_periods": 2}],
        }))
        rc = run_cli(["fit", "--config", str(cfg)])
        assert rc == 2
        assert "training-interval" in capsys.readouterr().err

    def test_nexting_max_shift_must_lie_inside_the_training_window(self, tmp_path, capsys):
        cfg = tmp_path / "nexting.json"
        block = {"name": "nexting", "gamma": 0.0, "alpha": 0.3, "trace_lambda": 0.9,
                 "freeze_after": 24}
        for max_shift, code in ((23, 0), (24, 1)):
            cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                       "methods": [{**block, "max_shift": max_shift}]}))
            assert run_cli(["fit", "--config", str(cfg)]) == code
        assert ("methods[0] (nexting): max_shift 24 must be below the 24-sample training window"
                in capsys.readouterr().err)

    def test_nexting_run_streams_whole_dataset(self, capsys):
        cfg = builtin_config_path("nexting_multiperiod_irradiance")
        assert run_cli(["nexting-run", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 48               # full embedded fixture

    def test_nexting_run_streams_a_discounted_return_within_the_training_bounds(
            self, tmp_path, capsys):
        # At gamma 0.9 a prediction estimates a return in [0, 10] normalized
        # units; scaled by 1 - gamma it maps into [lo, hi] = [-5, 5].
        cfg = tmp_path / "td.json"
        cfg.write_text(json.dumps({
            "signal": "synthetic", "synthetic": {"amplitude": 5, "period": 24, "count": 480},
            "band": {"inner": 1, "outer": 2},
            "methods": [{"name": "nexting", "gamma": 0.9, "alpha": 0.1, "trace_lambda": 0.9,
                         "freeze_after": None}]}))
        assert run_cli(["nexting-run", "--config", str(cfg)]) == 0
        values = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()]
        assert len(values) == 480
        assert -5.0 <= min(values) and max(values) <= 5.0

    def test_acf_prints_lags(self, capsys):
        assert run_cli(["acf", "--fixture", "wind48", "--max-lag", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lag,acf,pacf"
        assert len(lines) == 8
        assert lines[1].startswith("0,1,")

    def test_acf_out_writes_what_stdout_gets(self, tmp_path, capsys):
        assert run_cli(["acf", "--fixture", "wind48", "--max-lag", "6"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "acf.csv"
        assert run_cli(["acf", "--fixture", "wind48", "--max-lag", "6", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == printed

    def test_acf_data_skips_blank_lines(self, tmp_path, capsys):
        rows = [f"{t},{v}" for t, v in enumerate([0.5, 0.7, 0.2, 0.1, 0.4, 0.9], 1)]
        plain, gaps = tmp_path / "plain.csv", tmp_path / "gaps.csv"
        plain.write_text("\n".join(rows) + "\n")
        gaps.write_text("\n" + "\n\n".join(rows) + "\n\n")
        assert run_cli(["acf", "--data", str(plain), "--max-lag", "2"]) == 0
        want = capsys.readouterr()
        assert run_cli(["acf", "--data", str(gaps), "--max-lag", "2"]) == 0
        assert capsys.readouterr() == want

    def test_acf_data_of_blank_lines_only_exits_2(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n\n")
        assert run_cli(["acf", "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", f"daycast: {path}: no data rows\n")

    def test_acf_of_squares_past_the_float_range_exits_2(self, tmp_path, capsys):
        # The data boundary refuses the first sample beyond +/-1e150, so no
        # square reaches the autocorrelations.
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"{t},{(-1) ** (t + 1) * 1e308}\n" for t in range(1, 11)))
        assert run_cli(["acf", "--data", str(path), "--max-lag", "3"]) == 2
        assert capsys.readouterr() == ("", "daycast: series value 1e+308 at index 0 (t = 1) is "
                                           "beyond +/-1e150\n")

    def test_a_synthetic_amplitude_past_the_bound_exits_1(self, tmp_path, capsys):
        # Every sample of a Series lies within +/-1e150, so the config refuses
        # an amplitude whose sine would leave that range.
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({
            "signal": "synthetic", "synthetic": {"amplitude": 1e200, "period": 24, "count": 48},
            "band": {"inner": 1.0, "outer": 2.0},
            "methods": [{"name": "tree", "min_node_size": 10, "period": 24}]}))
        assert run_cli(["compare", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", "daycast: config.synthetic: amplitude must lie in "
                                           "[-1e150, 1e150], got 1e+200\n")

    def test_a_kernel_block_without_a_bandwidth_exits_1(self, tmp_path, capsys):
        # The bandwidth is a scale on the time axis, in samples: no default
        # can come from the signal's values, whose unit is not time.
        config = tmp_path / "kernel.json"
        config.write_text(json.dumps({
            "signal": "wind", "band": {"inner": 1.0, "outer": 2.0},
            "methods": [{"name": "kernel"}]}))
        assert run_cli(["compare", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", "daycast: missing required key 'bandwidth' in "
                                           "methods[0] (kernel)\n")

    def test_an_empty_method_list_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "none.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": []}))
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: config: methods must be a nonempty list\n")

    def test_acf_requires_exactly_one_source(self, capsys):
        assert run_cli(["acf"]) == 1
        assert run_cli(["acf", "--fixture", "wind48", "--data", "x.csv"]) == 1
        capsys.readouterr()

    def test_acf_reads_two_column_data_file(self, tmp_path, capsys):
        assert run_cli(["synth", "--period", "12", "--count", "60",
                        "--out", str(tmp_path / "sine.csv")]) == 0
        assert run_cli(["acf", "--data", str(tmp_path / "sine.csv"),
                        "--max-lag", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # A periodic signal correlates strongly with itself one period later.
        lag12 = float(lines[13].split(",")[1])
        assert lag12 > 0.5

    @pytest.mark.parametrize("bad", ["3", "3,nan", "3,inf", "-inf,0.2", "3,calm",
                                     "4,0.2", "2,0.2", "3.5,0.2"])
    def test_acf_data_row_errors_name_path_and_line(self, tmp_path, capsys, bad):
        path = tmp_path / "series.csv"
        path.write_text(f"1,0.5\n2,0.7\n{bad}\n4,0.1\n5,0.4\n")
        assert run_cli(["acf", "--data", str(path), "--max-lag", "2"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 3" in err

    @pytest.mark.parametrize("command", ["compare", "fit", "forecast", "nexting-run"])
    @pytest.mark.parametrize("value", [["x"], "nope"])
    def test_bad_fixture_key_is_a_config_error(self, tmp_path, capsys, command, value):
        # A weather signal names its embedded fixture, so there is no fixture
        # signal and no fixture key: a config written with either exits 1.
        block = {"band": {"inner": 1, "outer": 3},
                 "methods": [{"name": "nexting", "gamma": 0.0, "alpha": 0.3,
                              "trace_lambda": 0.9, "freeze_after": 24}]}
        cfg = tmp_path / "fixture.json"
        for keys, message in (
                ({"signal": "fixture", "fixture": value}, "unknown key 'fixture' in config"),
                ({"signal": "fixture"}, "config: signal must be one of ('wind', 'temperature', "
                                        "'irradiance', 'synthetic'), got 'fixture'")):
            cfg.write_text(json.dumps({**keys, **block}))
            assert run_cli([command, "--config", str(cfg)]) == 1
            assert capsys.readouterr() == ("", f"daycast: {message}\n")

    def test_data_flag_overrides_config(self, tmp_path, capsys):
        path = write_tmy3(tmp_path / "wk.csv", tiny_rows(96))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": "temperature",
                                   "band": {"inner": 0.5, "outer": 1.5},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["forecast", "--config", str(cfg), "--data", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24

    @pytest.mark.parametrize("signal", [
        {"signal": "synthetic", "synthetic": {"amplitude": 1, "period": 24, "count": 72}},
        {"signal": "synthetic", "synthetic": {"amplitude": 1, "period": 24, "count": 72},
         "data": None, "day_offset": 0}])  # the weather keys at their defaults
    def test_data_flag_on_a_signal_that_reads_no_file_exits_1(self, tmp_path, capsys, signal):
        path = write_tmy3(tmp_path / "wk.csv", tiny_rows(96))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**signal, "band": {"inner": 0.5, "outer": 1.5},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["compare", "--config", str(cfg), "--data", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"daycast: a data file does not apply to signal {signal['signal']!r}\n")

    @pytest.mark.parametrize("keys, key", [
        ({"signal": "wind"}, "synthetic"),
        ({"signal": "synthetic", "data": "/nonexistent.csv", "day_offset": 5}, "data"),
    ])
    def test_a_key_the_signal_never_reads_exits_1(self, tmp_path, capsys, keys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**keys, "band": {"inner": 1, "outer": 3},
                                   "synthetic": {"amplitude": 1, "period": 24, "count": 72},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", f"daycast: config: key {key!r} does not apply to signal {keys['signal']!r}\n")

    def test_fit_with_two_methods_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 3},
                                               {"name": "spline", "smooth_lambda": 0.5}]}))
        assert run_cli(["fit", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: fit needs a config with exactly one "
                                           "method, found 2\n")

    def test_nexting_run_on_another_method_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["nexting-run", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: nexting-run needs a nexting method block\n")

    def test_a_day_offset_without_a_data_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "offset.json"
        cfg.write_text(json.dumps({"signal": "wind", "day_offset": 100,
                                   "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "daycast: day_offset 100 needs a TMY3 data file; "
                                           "the embedded wind fixture has no days to offset\n")

    def test_a_day_offset_past_the_tmy3_year_exits_2(self, tmp_path, capsys):
        path = write_tmy3(tmp_path / "year.csv", weather_year())
        cfg = tmp_path / "late.json"
        cfg.write_text(json.dumps({"signal": "wind", "data": str(path), "day_offset": 364,
                                   "band": {"inner": 1, "outer": 3},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["compare", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"daycast: window of 48 samples at day offset 364 "
                                           f"exceeds the 8760 samples in {path}\n")

    def test_cli_is_deterministic(self, capsys):
        argv = ["compare", "--config", str(builtin_config_path("table2_irradiance"))]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first

    def test_unwritable_out_path_is_a_data_error(self, capsys):
        rc = run_cli(["synth", "--period", "4", "--count", "4",
                      "--out", "/no/such/dir/out.csv"])
        assert rc == 2
        capsys.readouterr()


def fresh_python(*args, **env):
    """Run the interpreter with args in a new process that imports this copy of daycast."""
    src = str(Path(daycast.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


class TestProcessStart:
    def test_commands_without_an_arima_fit_load_no_scipy_solver(self):
        # A builtin compare fits every family but ARIMA, whose row stops at
        # the window check on the 48-hour fixtures.
        compares = [["compare", "--config", str(builtin_config_path(name))]
                    for name in builtin_config_names() if name.startswith("table2_")]
        code = f"""
import contextlib, io, sys
import daycast, daycast.cli
argvs = [["synth", "--period", "24", "--count", "3"], ["acf", "--fixture", "wind48"],
         ["nexting-run", "--config", {str(builtin_config_path("nexting_multiperiod_irradiance"))!r}],
         *{compares!r}]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [daycast.cli.run_cli(argv) for argv in argvs]
print(codes, [m for m in ("scipy.signal", "scipy.optimize", "scipy.stats", "scipy.linalg")
              if m in sys.modules])
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert len(compares) == 3
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"

    def test_an_arima_fit_loads_no_scipy_signal(self):
        # No ARIMA fit or forecast calls lfilter. So the wind fit and
        # forecast (24 differenced samples, an MA side), and the fits and
        # forecasts of acceptance criterion 1 and of the temperature order
        # on 120 samples (MA-free), load no scipy.signal.
        code = """
import sys
import numpy as np
from daycast.arima import ArimaOrder, css_estimate, forecast
from daycast.fixtures import wind48
from daycast.series import Series, make_sine
model = css_estimate(wind48(), ArimaOrder(0, 0, 3, 1, 1, 0, 24))
print(len(model.fit_trace) > 1, "scipy.signal" in sys.modules)
forecast(model, wind48(), 24)
print("scipy.signal" in sys.modules)
sine = make_sine(1, 100, 100, 0)
forecast(css_estimate(sine, ArimaOrder(2, 0, 0, 0, 0, 0, 0)), sine, 100)
print("scipy.signal" in sys.modules)
t = np.arange(120)
temperature = Series(15 + 5 * np.sin(2 * np.pi * t / 24) + 0.05 * t
                     + np.random.default_rng(0).normal(0, 0.3, 120), t0=1, period_hint=24)
forecast(css_estimate(temperature, ArimaOrder(2, 2, 0, 0, 1, 0, 24)), temperature, 24)
print("scipy.signal" in sys.modules)
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False", "False", "False", "False"]

    def test_every_command_and_an_ma_arima_fit_run_without_scipy(self):
        # scipy is a test dependency only. With its import refused, every
        # command runs on the builtin configs, and so do the MA-side ARIMA
        # orders of wind and irradiance, fitted and forecast on 72, 96 and
        # 168 samples (48 to 144 differenced, past their longest lags).
        compares = [["compare", "--config", str(builtin_config_path(name))]
                    for name in builtin_config_names()]
        code = f"""
import contextlib, io, sys
sys.modules["scipy"] = None
import numpy as np
import daycast.cli
from daycast.arima import ArimaOrder, css_estimate, forecast
from daycast.series import Series
argvs = [["synth", "--period", "24", "--count", "3"], ["acf", "--fixture", "wind48"],
         ["nexting-run", "--config", {str(builtin_config_path("nexting_multiperiod_irradiance"))!r}],
         *{compares!r}]
with contextlib.redirect_stdout(io.StringIO()):
    print(*[daycast.cli.run_cli(argv) for argv in argvs], file=sys.stderr)
rng = np.random.default_rng(0)
for n in (72, 96, 168):
    t = np.arange(n)
    y = Series(6 + 3 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n), t0=1, period_hint=24)
    for order in (ArimaOrder(0, 0, 3, 1, 1, 0, 24), ArimaOrder(0, 0, 1, 1, 1, 1, 24)):
        model = css_estimate(y, order)
        print(n, len(model.fit_trace) > 1, np.isfinite(forecast(model, y, 24).values).all())
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert len(compares) == 4
        assert proc.stderr == "0 0 0 0 0 0 0\n"
        assert proc.stdout.splitlines() == [f"{n} True True" for n in (72, 72, 96, 96, 168, 168)]

    def test_the_shared_parser_answers_each_call_as_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        bad_flag = ["synth", "--period", "-1", "--count", "3"]
        argvs = [bad_flag, ["compare", "--config", str(builtin_config_path("table2_wind"))],
                 ["--version"], bad_flag, ["acf"]]
        codes = []
        for argv in argvs:
            fresh = fresh_python("-m", "daycast.cli", *argv, COLUMNS="80")
            codes.append(run_cli(argv))
            captured = capsys.readouterr()
            assert (codes[-1], captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [1, 0, 0, 1, 1]


_SMALL_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 50),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.text(max_size=4), st.just([]), st.just({}))


@st.composite
def mutated_builtin_configs(draw):
    """A command and a builtin config with one to three values, at any depth,
    deleted or replaced by a small JSON value. The single-method commands get
    one of the config's method blocks; every integer stays <= 50, so no draw
    asks for a large sample.
    """
    command = draw(st.sampled_from(["compare", "fit", "forecast", "nexting-run"]))
    cfg = json.loads(builtin_config_path(draw(st.sampled_from(builtin_config_names())))
                     .read_text())
    if command != "compare":
        cfg["methods"] = [draw(st.sampled_from(cfg["methods"]))]
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, cfg
        while isinstance(node, (dict, list)) and node:
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else list(range(len(node)))))
            node = node[key]
            if not draw(st.booleans()):
                break
        if parent is None:
            break
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_SMALL_JSON)
    return command, cfg


@given(mutated_builtin_configs())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_code_is_0_1_or_2_for_mutated_configs(tmp_path, capsys, case):
    command, cfg = case
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(path)]) in (0, 1, 2)
    capsys.readouterr()
