"""Serialization of comparison reports and plain series data.

Reports export as CSV with the fixed header method,train_rmse,inner_run,
outer_run (missing values become empty cells) or as a JSON array with
the same field names (missing values become null). Series export as
bare two-column t,value lines for external plotting tools.
"""

import csv
import json
import math
import sys

from .evalharness import EvalReport
from .series import Series

REPORT_FIELDS = ("method", "train_rmse", "inner_run", "outer_run")


def report_rows(reports: list[EvalReport]) -> list[dict]:
    return [{"method": r.method, "train_rmse": r.train_rmse,
             "inner_run": r.inner_run, "outer_run": r.outer_run} for r in reports]


def export_report(reports: list[EvalReport], fmt: str, path) -> None:
    """Write rows to a file; fmt is "csv" or "json"."""
    if not reports:
        raise ValueError("no report rows to export")
    rows = report_rows(reports)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            for row in rows:
                writer.writerow(["" if row[f] is None else row[f] for f in REPORT_FIELDS])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}; use csv or json")


def export_series(series: Series, path, fmt: str = "csv") -> None:
    """Two-column t,value dump of a series (no header)."""
    with open(path, "w") as fh:
        write_series(series, fh, fmt)


def write_series(series: Series, fh=None, fmt: str = "csv") -> None:
    fh = fh or sys.stdout
    if fmt == "csv":
        # repr round-trips doubles exactly; the parse-export-reparse
        # cycle must be value identical.
        for t, v in zip(range(series.t0, series.t0 + len(series)), series.values):
            fh.write(f"{t},{float(v)!r}\n")
    elif fmt == "json":
        json.dump([[float(t), float(v)] for t, v in zip(series.times, series.values)], fh)
        fh.write("\n")
    else:
        raise ValueError(f"unknown series format {fmt!r}; use csv or json")


def read_series_csv(path) -> Series:
    """Read a two-column t,value file back into a series.

    Each t must be an integer exactly one above the previous line's.
    """
    ts, vs = [], []
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            try:
                t, v = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                t = v = math.nan
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"{path}: line {line} is not a finite t,value pair: {row}")
            if t != int(t) or ts and t != ts[-1] + 1:
                want = f"t = {int(ts[-1]) + 1}" if ts else "an integer t"
                raise ValueError(f"{path}: line {line} has t = {row[0]}, expected {want}")
            ts.append(t)
            vs.append(v)
    if not vs:
        raise ValueError(f"{path}: no data rows")
    return Series(vs, t0=int(ts[0]))


def format_report_table(reports: list[EvalReport], band=None) -> str:
    """Human-readable comparison table for terminal output."""
    header = f"{'method':<12} {'train_rmse':>12} {'inner_run':>10} {'outer_run':>10}"
    if band is not None:
        header += f"   bands: +/-{band.inner:g}, +/-{band.outer:g} {band.unit}"
    lines = [header]
    for r in reports:
        if r.error is not None:
            lines.append(f"{r.method:<12} {'-':>12} {'-':>10} {'-':>10}   FAILED: {r.error}")
            continue
        rmse_txt = "-" if r.train_rmse is None else f"{r.train_rmse:.4f}"
        lines.append(f"{r.method:<12} {rmse_txt:>12} {r.inner_run:>10} {r.outer_run:>10}")
    return "\n".join(lines)
