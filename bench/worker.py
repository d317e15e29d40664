"""One workload in one fresh interpreter: set-up, closed loop, checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
BLAS threads capped at one. Modes:

    cold     set up, run the first operation, report when it returned
    measure  cold, then warm-up operations, then a closed loop with one
             caller until the timed operations add up to --seconds, then
             the output checks
    trace    as measure, but alternate operations run with every daycast
             layer wrapped by tracing.Tracer; the untraced ones give the
             tracing overhead

The last line of stdout is one JSON object for run.py.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import tmy3gen
from tracing import Tracer, layer_metrics

import daycast
from daycast import cli, config, evalharness, nexting, reportio, tmy3
from daycast.series import Series

# Rows the paper's Table 2 pins for the wind fixture: (train_rmse to 4 places, inner, outer).
PINNED_WIND_ROWS = {"polynomial": (0.9337, 2, 7), "tree": (1.2096, 2, 7)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _failure(where: dict, method, params, dataset, cfg) -> dict:
    """Where, method, exception type and message of one failed report row.

    compare() keeps only the message, so the failing method is run once
    more through the public run_single, which lets the exception escape.
    """
    try:
        evalharness.run_single(dataset, params, train_samples=cfg["train_samples"],
                               forecast_samples=cfg["forecast_samples"])
    except Exception as exc:
        return dict(where, method=method, type=type(exc).__name__, message=str(exc))
    raise CheckFailed(f"{where} {method}: failed in compare but not when rerun")


class FixtureTable:
    """`daycast compare --format json` on the three embedded 48-hour fixture configs."""

    warmup = 6
    names = ("table2_wind", "table2_temperature", "table2_irradiance")

    def __init__(self, seed, tmp: Path):
        start = random.Random(seed).randrange(len(self.names))
        self.order = self.names[start:] + self.names[:start]
        self.paths = {n: str(config.builtin_config_path(n)) for n in self.names}
        self.out = tmp / "table.json"
        self.seen = {}
        self.rows = {}

    def describe(self):
        return {"configs": list(self.names), "samples_per_config": 48}

    def prepare(self, i):
        self.out.unlink(missing_ok=True)
        return self.order[i % len(self.order)]

    def run(self, name):
        return cli.run_cli(["compare", "--config", self.paths[name], "--out", str(self.out),
                            "--format", "json"])

    def record(self, name, rc):
        """Row counts of one finished operation; checks repeats are bit-identical."""
        _check(rc == 0, f"compare {name} exited {rc}")
        data = self.out.read_bytes()
        digest = self.seen.setdefault(name, _sha(data))
        _check(digest == _sha(data), f"compare {name}: repeated run changed the export")
        if name not in self.rows:
            self.rows[name] = json.loads(data)
        rows = self.rows[name]
        return len(rows), sum(r["inner_run"] is None for r in rows)

    def verify(self):
        failures, digest = [], hashlib.sha256()
        wind = {r["method"]: r for r in self.rows["table2_wind"]}
        for method, (rmse, inner, outer) in PINNED_WIND_ROWS.items():
            r = wind[method]
            got = (round(r["train_rmse"], 4), r["inner_run"], r["outer_run"])
            _check(got == (rmse, inner, outer), f"table2_wind {method} row {got}, pinned "
                                                f"{(rmse, inner, outer)}")
        for name in self.names:
            cfg = config.load_config(self.paths[name])
            dataset = config.load_dataset(cfg)
            reports = evalharness.compare(dataset, cfg["methods"],
                                          config.band_from_config(cfg),
                                          train_samples=cfg["train_samples"],
                                          forecast_samples=cfg["forecast_samples"])
            _check(reportio.report_rows(reports) == self.rows[name],
                   f"{name}: CLI export differs from library compare")
            failures += [_failure({"config": name}, r.method, p, dataset, cfg)
                         for r, p in zip(reports, cfg["methods"]) if not r.ok]
            self.run(name)
            data = self.out.read_bytes()
            _check(_sha(data) == self.seen[name], f"{name}: rerun changed the export")
            digest.update(data)
        return digest.hexdigest(), failures


class RollingYear:
    """Library compare of table2_wind on every three-day window of a generated year."""

    warmup = 5

    def __init__(self, seed, tmp: Path):
        self.path = tmp / "year.csv"
        tmy3gen.write_year(self.path, seed)
        self.wind = tmy3.parse_tmy3(self.path)[0]
        self.cfg = config.load_config(config.builtin_config_path("table2_wind"))
        self.band = config.band_from_config(self.cfg)
        self.needed = (max(m.get("train_periods", 1) for m in self.cfg["methods"])
                       * self.cfg["train_samples"] + self.cfg["forecast_samples"])
        self.days = list(range((len(self.wind) - self.needed) // 24 + 1))
        self.order = self.days[:]
        random.Random(seed).shuffle(self.order)
        self.results = {}
        self.failed = {}

    def describe(self):
        return {"year_rows": len(self.wind), "windows": len(self.days),
                "window_samples": self.needed}

    def window(self, day):
        # The cut load_dataset makes for day_offset=day, re-indexed to t = 1.
        start = 24 * day
        return Series(self.wind.values[start:start + self.needed], t0=1,
                      period_hint=self.wind.period_hint, unit=self.wind.unit)

    def prepare(self, i):
        return self.order[i % len(self.order)]

    def run(self, day):
        return evalharness.compare(self.window(day), self.cfg["methods"], self.band,
                                   train_samples=self.cfg["train_samples"],
                                   forecast_samples=self.cfg["forecast_samples"])

    def record(self, day, reports):
        _check([r.method for r in reports] == [m["name"] for m in self.cfg["methods"]],
               f"day {day}: report rows out of order")
        for r in reports:
            if r.ok:
                _check(r.train_rmse is None or math.isfinite(r.train_rmse),
                       f"day {day} {r.method}: non-finite training RMSE")
                _check(0 <= r.inner_run <= r.outer_run <= self.cfg["forecast_samples"],
                       f"day {day} {r.method}: band runs {r.inner_run}, {r.outer_run}")
            else:
                self.failed[(day, r.method)] = r
        rows = reportio.report_rows(reports)
        _check(self.results.setdefault(day, rows) == rows, f"day {day}: repeat changed rows")
        return len(rows), sum(not r.ok for r in reports)

    def verify(self):
        for k in (0, 1, len(self.days) // 2, self.days[-1]):
            cfg = dict(self.cfg, day_offset=k)
            ds = config.load_dataset(cfg, str(self.path))
            cut = self.window(k)
            _check(ds.t0 == cut.t0 and ds.values.tobytes() == cut.values.tobytes(),
                   f"day {k}: benchmark window differs from load_dataset")
        for k in (self.days[3], self.days[-3]):
            cfg_path = self.path.with_name("day.json")
            raw = json.loads(Path(config.builtin_config_path("table2_wind")).read_text())
            cfg_path.write_text(json.dumps(dict(raw, day_offset=k, data=str(self.path))))
            out = self.path.with_name("day-out.json")
            rc = cli.run_cli(["compare", "--config", str(cfg_path), "--out", str(out),
                              "--format", "json"])
            _check(rc == 0 and json.loads(out.read_text()) == reportio.report_rows(self.run(k)),
                   f"day {k}: CLI compare differs from the library compare on the cut window")
        digest = hashlib.sha256()
        for day in self.days[::22]:
            rows = reportio.report_rows(self.run(day))
            _check(self.results.setdefault(day, rows) == rows, f"day {day}: rerun changed rows")
            digest.update(json.dumps([day, rows]).encode())
        failures = [_failure({"day": day}, method, next(p for p in self.cfg["methods"]
                                               if p["name"] == method), self.window(day), self.cfg)
                    for (day, method) in sorted(self.failed)]
        return digest.hexdigest(), failures


class Tmy3Stream:
    """`daycast nexting-run` on a different generated TMY3 year per operation.

    Operation i reads generated year i // 365 of this seed, rotated to start
    i % 365 days in, so no file is read twice and every file costs the same
    to parse.
    """

    warmup = 3

    def __init__(self, seed, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.cfg_path = str(config.builtin_config_path("nexting_multiperiod_irradiance"))
        self.out = tmp / "stream.csv"
        self.data = tmp / "year.csv"
        self.years = {}
        self.seen = {}

    def describe(self):
        cfg = config.load_config(self.cfg_path)
        return {"year_rows": tmy3gen.HOURS, "stream_steps":
                cfg["methods"][0]["train_periods"] * cfg["train_samples"]
                + cfg["forecast_samples"]}

    def prepare(self, i):
        year, day = divmod(i, 365)
        if year not in self.years:
            self.years = {year: tmy3gen.year_records(self.seed, year)}
        records = self.years[year]
        self.out.unlink(missing_ok=True)
        with open(self.data, "w") as fh:
            fh.write(tmy3gen.HEADER)
            fh.writelines(records[24 * day:])
            fh.writelines(records[:24 * day])
        return i

    def run(self, i):
        return cli.run_cli(["nexting-run", "--config", self.cfg_path, "--data", str(self.data),
                            "--out", str(self.out)])

    def record(self, i, rc):
        _check(rc == 0, f"nexting-run on file {i} exited {rc}")
        self.seen[i] = _sha(self.out.read_bytes())
        return 0, 0

    def verify(self):
        cfg = config.load_config(self.cfg_path)
        m = cfg["methods"][0]
        digest = hashlib.sha256()
        for i in range(3):
            self.prepare(i)
            self.run(i)
            data = self.out.read_bytes()
            _check(self.seen.get(i, _sha(data)) == _sha(data), f"file {i}: rerun changed output")
            digest.update(data)
            got = reportio.read_series_csv(self.out)
            ds = config.load_dataset(cfg, str(self.data))
            run = nexting.run_online([ds], nexting.TileCoder(n_signals=1), gamma=m["gamma"],
                                     alpha=m["alpha"], trace_lambda=m["trace_lambda"],
                                     freeze_after=m["freeze_after"],
                                     norm_window=cfg["train_samples"])
            lo, hi = run.bounds[0]
            want = lo + run.predictions[0].values * (hi - lo)
            _check(got.t0 == 1 and got.values.tobytes() == want.tobytes(),
                   f"file {i}: nexting-run output differs from run_online")
        return digest.hexdigest(), []


WORKLOADS = {"fixture-table": FixtureTable, "rolling-year": RollingYear,
             "tmy3-stream": Tmy3Stream}


# Latencies are reported at the machine speed at which the probe takes PROBE_REF_S.
PROBE_REF_S = 450e-6
_PROBE_ARRAY = numpy.linspace(0.0, 1.0, 8192)
_PROBE_TEXT = "\n".join(f"01/{d:02d}/1988,{h:02d}:00,{h * 0.1:.1f},{15 + h * 0.2:.1f},{h * 10}"
                        for d in range(1, 9) for h in range(24))
_PROBE_LIST = [random.Random(0).random() for _ in range(3000)]


def _probe_work():
    # CSV parsing, dict and list work, small and mid-size numpy calls: the
    # mix daycast's operations are made of, so that the probe slows about
    # as much as they do while the machine is contended.
    rows = [(r[0], float(r[2]), float(r[3]), float(r[4]))
            for r in csv.reader(io.StringIO(_PROBE_TEXT))]
    index = {r[0] + str(i): r for i, r in enumerate(rows)}
    ordered = sorted(_PROBE_LIST)
    x = _PROBE_ARRAY[:256]
    for _ in range(20):
        x = numpy.sqrt(x * 0.5 + 0.25)
    return len(index) + ordered[0] + float(numpy.sort(_PROBE_ARRAY * x[0])[0])


def _probe() -> float:
    """Seconds taken by a fixed slice of interpreter and numpy work, caches warm."""
    _probe_work()
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def scaled_latencies(samples: list, last_probe: float) -> list:
    """Latencies rescaled to the machine speed at which the probe takes PROBE_REF_S.

    samples are (start, latency, probe) triples, the probe timed just
    before the operation; last_probe was timed after the last one. On a
    shared machine other tenants slow every process by up to half again,
    for seconds or minutes at a time. The probe slows with them, so each
    latency is divided by the slower of the probes just before and just
    after its operation. The probe runs no daycast code, so a program that
    gets slower shows in full.
    """
    after = [p for _, _, p in samples[1:]] + [last_probe]
    return [dt * PROBE_REF_S / max(before, later)
            for (_, dt, before), later in zip(samples, after)]


def _figures(latencies: list) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8]}


def steady_figures(samples: list, last_probe: float) -> dict:
    """Throughput and latency percentiles of the steady-state operations.

    The figures are at reference machine speed; "raw" holds them as timed.
    """
    raw = [dt for _, dt, _ in samples]
    return dict(_figures(scaled_latencies(samples, last_probe)), ops_timed=len(samples),
                raw=_figures(raw), probe_median_s=statistics.median(p for _, _, p in samples))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("cold", "measure", "trace"), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args()
    if Path(daycast.__file__).resolve().parent != (Path.cwd() / "src" / "daycast").resolve():
        sys.exit(f"daycast imported from {daycast.__file__}, not from ./src")

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.wrap_daycast()
        tracer.install()
    devnull = open(os.devnull, "w")
    result = {"attempted": 0, "failed": 0, "rows_attempted": 0, "rows_failed": 0}
    latencies = {False: [], True: []}
    try:
        with contextlib.redirect_stdout(devnull):
            workload = WORKLOADS[args.workload](args.seed, args.tmp)
            if tracer:
                tracer.uninstall()
            i = 0
            busy = 0.0
            deadline = time.monotonic() + 2 * args.seconds
            while True:
                arg = workload.prepare(i)
                probe = _probe() if i > workload.warmup else 0.0
                traced = tracer is not None and i > workload.warmup and i % 2 == 1
                if traced:
                    tracer.install()
                    close = tracer.root(i)
                t0 = time.perf_counter()
                try:
                    out = workload.run(arg)
                    ok = True
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                dt = time.perf_counter() - t0
                if traced:
                    close()
                    tracer.uninstall()
                if i == 0:
                    result["first_done"] = time.monotonic()
                result["attempted"] += 1
                if ok:
                    rows, rows_failed = workload.record(arg, out)
                    result["rows_attempted"] += rows
                    result["rows_failed"] += rows_failed
                else:
                    result["failed"] += 1
                if args.mode == "cold":
                    break
                if i > workload.warmup:
                    latencies[traced].append((t0, dt, probe))
                    busy += dt
                    if busy >= args.seconds or time.monotonic() > deadline:
                        break
                i += 1
            last_probe = _probe()
            if args.mode != "cold":
                result["digest"], result["row_failures"] = workload.verify()
        result["correct"] = True
    except CheckFailed as exc:
        result["correct"] = False
        result["check"] = str(exc)
    finally:
        devnull.close()

    import scipy  # after set-up, so the benchmark adds no import daycast might not need
    result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__}
    result["inputs"] = workload.describe() if "workload" in locals() else {}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if result["correct"] and args.mode == "measure":
        result.update(steady_figures(latencies[False], last_probe))
        result["samples"] = latencies[False]
    if result["correct"] and tracer:
        traced_ops = {s[4] for s in tracer.spans if s[0] == "bench.op"}
        result["layers"] = layer_metrics(tracer.spans, traced_ops)
        result["layers"]["trace.overhead_ms"] = 1e3 * (
            statistics.median(scaled_latencies(latencies[True], last_probe))
            - statistics.median(scaled_latencies(latencies[False], last_probe)))
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
