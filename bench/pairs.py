"""Repeated benchmark runs: the spread of one checkout, or a parent and a change in pairs.

    python3 bench/pairs.py --workload rolling-year --runs 10 .
    python3 bench/pairs.py --workload rolling-year --runs 10 ../parent .

Run i uses seed --first-seed + i. With two checkouts each pair runs both
on the same seed, alternating which goes first, with this copy of the
benchmark for both, so only the code under src/ differs. For each
end-to-end metric of BENCHMARK.json it prints the median and quartiles
of every side and the spread (q3 - q1) / median. With a parent and a
change it also prints how many pairs the change won, and flags a
regression when the change's median is worse than the parent's by more
than the metric's bound, or a gain when the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile distance. The last line of stdout is the whole summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in line["metrics"].items()}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkouts", nargs="+", type=Path, help="one checkout, or parent and change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("give one checkout, or a parent and a change")

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = [{name: [] for name in metrics} for _ in args.checkouts]
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(range(len(args.checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            values = run_once(args.checkouts[side], args.workload, seed, spec["run_seconds"])
            for name in metrics:
                sides[side][name].append(values[name])
            print(f"run {i} seed {seed} {args.checkouts[side]}: "
                  + " ".join(f"{n}={values[n]:.6g}" for n in metrics), file=sys.stderr)

    summary = {"workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
               "checkouts": [str(c) for c in args.checkouts], "metrics": {}}
    for name, m in metrics.items():
        stats = [spread(side[name]) for side in sides]
        entry = {"unit": m["unit"], "bound": m["bound"], "sides": stats}
        line = f"{name:14} " + "  ".join(
            f"median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}"
            for s in stats)
        if len(stats) == 2:
            parent, change = stats
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (change["median"] - parent["median"]) / parent["median"]
            wins = sum(sign * (c - p) < 0 for p, c in zip(sides[0][name], sides[1][name]))
            gain = (wins >= 0.9 * args.runs
                    and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"])
            entry.update(worse_by=worse, change_wins=wins, regression=worse > m["bound"],
                         gain=gain)
            line += (f"  change worse by {worse:+.4f} (bound {m['bound']}), wins {wins}/"
                     f"{args.runs}{'  REGRESSION' if worse > m['bound'] else ''}"
                     f"{'  GAIN' if gain else ''}")
        print(line)
        summary["metrics"][name] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
