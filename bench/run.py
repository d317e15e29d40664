"""daycast benchmark: whole runs and per-layer times of three workloads.

Run from the root of a checkout (the directory holding src/daycast):

    python3 bench/run.py                      # every workload, end-to-end metrics
    python3 bench/run.py --workload rolling-year --seed 3 --seconds 15 --trace 0

Each run spawns fresh single-threaded interpreters (BLAS threads capped at
one) that import daycast from ./src. With --trace 0 it reports the
end-to-end metrics: set-up time as the median of several cold starts, and
steady-state throughput, latency and peak memory from one closed loop
with a single caller. With --trace 1 it reports the per-layer metrics of
a traced loop and the import times of fresh interpreters. The last line
of stdout is one JSON object; details (environment, input sizes, output
digest, every failed report row, spans) go to .bench_work/.
Exit status is 0 when every output check passed, 1 when one failed, and
2 when the run could not be made.
"""

import argparse
import compileall
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("fixture-table", "rolling-year", "tmy3-stream")
COLD_STARTS = 5      # set-up samples per run, the measuring interpreter included
IMPORT_STARTS = 3    # fresh interpreters timing the imports in a traced run
RUN_BUDGET_S = 170   # a run stops its workers after this long
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "1/op"
    if name.endswith((".share", "_frac")):
        return "fraction"
    return "count"


class Runner:
    """Spawns the worker interpreters of one benchmark invocation."""

    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.work = root / ".bench_work"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))
        self.spawned = 0

    def _run(self, argv, tmp=None):
        """Run one child to completion; returns (spawn time, stdout, stderr)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError(f"run budget of {RUN_BUDGET_S} s spent")
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"{argv[1:3]} did not finish within the run budget") from None
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            raise RunError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{err[-4000:]}")
        return spawned, out, err

    def worker(self, workload, seed, mode):
        self.spawned += 1
        tmp = self.work / f"tmp-{os.getpid()}-{self.spawned}"
        tmp.mkdir(parents=True)
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(self.seconds), "--mode", mode,
                "--tmp", str(tmp)]
        spawned, out, err = self._run(argv, tmp)
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["first_done"] - spawned
        if not result["correct"]:
            print(err, file=sys.stderr, end="")
        return result

    def import_times(self):
        """Cumulative import time of daycast and of daycast.arima, from -X importtime."""
        argv = [sys.executable, "-X", "importtime", "-c", "import daycast"]
        _, _, err = self._run(argv)
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        return cumulative["daycast"], cumulative["daycast.arima"]


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(runner: Runner, workload: str, seed: int, trace: bool) -> tuple:
    """One benchmark run; returns the result line and the details record."""
    colds = []
    if trace:
        imports = [runner.import_times() for _ in range(IMPORT_STARTS)]
        res = runner.worker(workload, seed, "trace")
    else:
        res = runner.worker(workload, seed, "measure")
        colds = [runner.worker(workload, seed, "cold") for _ in range(COLD_STARTS - 1)]
    check = next((r["check"] for r in [res] + colds if not r["correct"]), None)
    setups = [r["setup_s"] for r in [res] + colds]
    metrics = {}
    if check is None and trace:
        metrics = dict(res["layers"])
        metrics["import.daycast_s"] = statistics.median(t[0] for t in imports)
        metrics["import.arima_s"] = statistics.median(t[1] for t in imports)
        metrics["evalharness.rows_failed_frac"] = (
            res["rows_failed"] / res["rows_attempted"] if res["rows_attempted"] else 0.0)
    elif check is None:
        metrics = {name: res[name] for name in END_TO_END_UNITS if name != "setup_s"}
        metrics = dict(setup_s=statistics.median(setups), **metrics)
    units = END_TO_END_UNITS if not trace else {name: layer_unit(name) for name in metrics}
    line = {"correct": check is None, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    details = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": runner.seconds,
        "env": dict(res["env"], git_sha=git_sha(runner.root),
                    nproc=len(os.sched_getaffinity(0)), blas_threads=1),
        "inputs": res["inputs"], "ops_timed": res.get("ops_timed"), "raw": res.get("raw"),
        "probe_median_s": res.get("probe_median_s"), "samples": res.get("samples"),
        "setup_samples_s": setups, "digest": res.get("digest"), "check": check,
        "ops_failed_frac": res["failed"] / res["attempted"],
        "rows_failed_frac": (res["rows_failed"] / res["rows_attempted"]
                             if res["rows_attempted"] else None),
        "row_failures": res.get("row_failures", []), "result": line,
        "spans": res.get("spans"),
    }
    return line, details


def report(details: dict) -> None:
    """Human-readable lines: every metric by name with its unit, then the checks."""
    w = details["workload"]
    for name, m in details["result"]["metrics"].items():
        print(f"{w:14} {name:30} {m['value']:14.6g} {m['unit']}")
    print(f"{w:14} {'ops_timed':30} {details['ops_timed'] or 0:14d} count")
    print(f"{w:14} {'ops_failed_frac':30} {details['ops_failed_frac']:14.6g} fraction")
    if details["rows_failed_frac"] is not None:
        print(f"{w:14} {'rows_failed_frac':30} {details['rows_failed_frac']:14.6g} fraction")
    kinds = {}
    for f in details["row_failures"]:
        key = (f["method"], f["type"])
        kinds[key] = kinds.get(key, 0) + 1
    for (method, kind), n in sorted(kinds.items()):
        print(f"{w:14} failed rows: {method} {kind} x{n}")
    print(f"{w:14} output digest {details['digest']}")
    if details["check"]:
        print(f"{w:14} CHECK FAILED: {details['check']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "daycast" / "__init__.py").is_file():
        print(f"bench: no src/daycast under {root}; run from the root of a daycast checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src" / "daycast", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            runner = Runner(root, args.seconds)
            line, details = run_workload(runner, workload, args.seed, bool(args.trace))
            path = runner.work / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(details))
            report(details)
            lines[workload] = line
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        line = lines[workloads[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}.{name}": m for w, v in lines.items()
                            for name, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
