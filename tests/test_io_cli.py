import copy
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import daycast
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

    def test_acf_prints_lags(self, capsys):
        assert run_cli(["acf", "--fixture", "wind48", "--max-lag", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lag,acf,pacf"
        assert len(lines) == 8
        assert lines[1].startswith("0,1,")

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
        cfg = tmp_path / "fixture.json"
        cfg.write_text(json.dumps({
            "signal": "fixture", "fixture": value, "band": {"inner": 1, "outer": 3},
            "methods": [{"name": "nexting", "gamma": 0.0, "alpha": 0.3,
                         "trace_lambda": 0.9, "freeze_after": 24}]}))
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert "fixture" in capsys.readouterr().err

    def test_data_flag_overrides_config(self, tmp_path, capsys):
        path = write_tmy3(tmp_path / "wk.csv", tiny_rows(96))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": "temperature",
                                   "band": {"inner": 0.5, "outer": 1.5},
                                   "methods": [{"name": "polynomial", "degree": 3}]}))
        assert run_cli(["forecast", "--config", str(cfg), "--data", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24

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
    def test_commands_without_arima_or_spline_fits_load_no_scipy_solver(self):
        code = f"""
import contextlib, io, sys
import daycast, daycast.cli
argvs = [["synth", "--period", "24", "--count", "3"], ["acf", "--fixture", "wind48"],
         ["nexting-run", "--config", {str(builtin_config_path("nexting_multiperiod_irradiance"))!r}]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [daycast.cli.run_cli(argv) for argv in argvs]
print(codes, [m for m in ("scipy.signal", "scipy.optimize", "scipy.stats", "scipy.linalg")
              if m in sys.modules])
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"

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
