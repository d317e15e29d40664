#!/usr/bin/env bash
# Runs daycast on numpy alone, the "Run on numpy alone" step of
# .github/workflows/tests.yml.
#
# Usage, from anywhere in a checkout:
#   bash ci/numpy_only.sh          CI mode: scipy must not be installed, the
#                                  installed `daycast` runs, and the files go
#                                  to $RUNNER_TEMP (the console smoke test
#                                  reads its wind*.json).
#   bash ci/numpy_only.sh --local  With scipy installed: `daycast` runs ./src
#                                  with scipy hidden (sys.modules["scipy"] is
#                                  None, so importing it fails), and the
#                                  files go to a temporary directory that is
#                                  removed at exit.
# The exit status is 0 when every check passes.
#
# scipy is a test dependency only: nothing installs it yet. Every
# builtin config still compares and writes nothing to stderr, and
# nexting-run and acf run too. Each builtin config's JSON export has
# the same bytes under two PYTHONHASHSEED values: the tier-1
# determinism test runs in one process, so it sees one hash seed.
# The 48-hour fixtures leave ARIMA too few training samples, so the
# table2_wind methods also run on 96- and 72-sample synthetic
# signals (kept for the smoke test), and their
# arima rows must fit: the simplex runs without scipy. At 72 samples
# the fit sees 24 differenced samples, as many as its longest lag, so
# no loop follows its unrolled MA shocks. Each also runs in
# km/h (amplitude 10.8): the simplex's stopping test scales with the
# objective, so a fit must not depend on the data's unit. A synthetic
# amplitude past the +/-1e150 bound of every sample is a config
# error: exit 1, one line. So is a wind day_offset with no data file,
# since the embedded fixture has no days to offset. A 480-sample
# nexting-run with gamma 0.9 and trace_lambda 0.9 runs the TD(lambda)
# trace branch: it must exit 0 and print one line per sample, each
# value inside the +/-5 training bounds. A 504-row TMY3 year (the 21
# days nexting_multiperiod_irradiance needs) streams the same bytes
# read by its path with LF line ends, with CRLF line ends and a quoted
# LF in the station cell (loadtxt skips three physical lines), and as
# text under a .csv.gz name (never decompressed) and from a pipe. A
# pipe holding a non-numeric wind cell exits 2 with one stderr line
# naming its row: the csv scan reads the text already read.
# A command whose output is captured runs as `out=$(...) || status=$?`,
# so that a failure names its config and exit status instead of ending
# the script under set -e with no message.
set -e
cd "$(dirname "$0")/.."
if [ "$#" -eq 1 ] && [ "$1" = --local ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
  mkdir "$RUNNER_TEMP/bin"
  printf '%s\n' '#!/bin/sh' \
    "exec python -c 'import sys; sys.modules[\"scipy\"] = None; sys.argv[0] = \"daycast\"; from daycast.cli import main; main()' \"\$@\"" \
    > "$RUNNER_TEMP/bin/daycast"
  chmod +x "$RUNNER_TEMP/bin/daycast"
  export PATH="$RUNNER_TEMP/bin:$PATH" PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}" \
    TMPDIR="$RUNNER_TEMP"
elif [ "$#" -eq 0 ]; then
  python -c 'import importlib.util; assert importlib.util.find_spec("scipy") is None'
else
  echo "usage: bash ci/numpy_only.sh [--local]" >&2
  exit 2
fi
python -c 'import json, sys
c = json.load(open("src/daycast/configs/table2_wind.json"))
for count in (96, 72):
    for unit, amplitude in (("", 3), ("kmh", 10.8)):
        c.update(signal="synthetic",
                 synthetic={"amplitude": amplitude, "period": 17, "count": count})
        json.dump(c, open(f"{sys.argv[1]}/wind{count}{unit}.json", "w"))' "$RUNNER_TEMP"
for config in src/daycast/configs/*.json "$RUNNER_TEMP"/wind*.json; do
  status=0
  err=$(daycast compare --config "$config" 2>&1 > /dev/null) || status=$?
  if [ "$status" -ne 0 ] || [ -n "$err" ]; then
    echo "$config: exit $status, stderr: $err"; exit 1
  fi
done
for config in src/daycast/configs/*.json; do
  for seed in 1 2; do
    PYTHONHASHSEED=$seed daycast compare --config "$config" --format json \
      --out "$RUNNER_TEMP/hash$seed.json" > /dev/null
  done
  cmp "$RUNNER_TEMP/hash1.json" "$RUNNER_TEMP/hash2.json"
done
for wind in wind96 wind72 wind96kmh wind72kmh; do
  status=0
  table=$(daycast compare --config "$RUNNER_TEMP/$wind.json") || status=$?
  row=$(printf '%s\n' "$table" | grep '^arima ') || true
  case "$row" in ""|*FAILED*) fitted=0;; *) fitted=1;; esac
  if [ "$status" -ne 0 ] || [ "$fitted" -ne 1 ]; then
    echo "$wind: exit $status, arima row: $row"; exit 1
  fi
done
daycast nexting-run --config src/daycast/configs/nexting_multiperiod_irradiance.json > /dev/null
daycast acf --fixture wind48 > /dev/null
python -c 'import math, sys
station = "724940,LOS ANGELES INTL ARPT,CA,-8.0,33.938,-118.389,30"
names = "Date (MM/DD/YYYY),Time (HH:MM),Wind Speed (m/s),Dry-bulb (C),DNI (W/m^2)"
rows = [f"01/{h // 24 + 1:02d}/1988,{h % 24 + 1:02d}:00,{3 + math.sin(h / 4):.1f},"
        f"{17 + 3 * math.sin(h / 5):.1f},{max(0, round(800 * math.sin((h % 24 - 6) / 3.8)))}"
        for h in range(504)]
for name, end, first in (("lf", "\n", station),
                         ("crlf", "\r\n", station.replace("LOS ANGELES", "\"LOS\nANGELES\""))):
    with open(f"{sys.argv[1]}/year-{name}.csv", "w", newline="") as fh:
        fh.write(end.join([first, names, *rows]) + end)' "$RUNNER_TEMP"
cp "$RUNNER_TEMP/year-lf.csv" "$RUNNER_TEMP/year-lf.csv.gz"
nx=src/daycast/configs/nexting_multiperiod_irradiance.json
for data in year-lf.csv year-crlf.csv year-lf.csv.gz; do
  daycast nexting-run --config "$nx" --data "$RUNNER_TEMP/$data" --out "$RUNNER_TEMP/$data.out"
  cmp "$RUNNER_TEMP/year-lf.csv.out" "$RUNNER_TEMP/$data.out"
done
daycast nexting-run --config "$nx" --data <(cat "$RUNNER_TEMP/year-lf.csv") --out "$RUNNER_TEMP/pipe.out"
cmp "$RUNNER_TEMP/year-lf.csv.out" "$RUNNER_TEMP/pipe.out"
sed '4s/^\([^,]*,[^,]*,\)[^,]*/\1gusty/' "$RUNNER_TEMP/year-lf.csv" > "$RUNNER_TEMP/gusty.csv"
status=0
err=$(daycast nexting-run --config "$nx" --data <(cat "$RUNNER_TEMP/gusty.csv") 2>&1 > /dev/null) || status=$?
case "$err" in *": non-numeric wind_speed value 'gusty' at row 4") named=1;; *) named=0;; esac
if [ "$status" -ne 2 ] || [ "$named" -ne 1 ] || [ "$(printf '%s' "$err" | grep -c '')" -ne 1 ]; then
  echo "gusty.csv through a pipe: exit $status, stderr: $err"; exit 1
fi
td=$(mktemp --suffix=.json)
echo '{"signal": "synthetic", "synthetic": {"amplitude": 5, "period": 24, "count": 480},
       "band": {"inner": 1, "outer": 2},
       "methods": [{"name": "nexting", "gamma": 0.9, "alpha": 0.1, "trace_lambda": 0.9,
                    "freeze_after": null}]}' > "$td"
status=0
stream=$(daycast nexting-run --config "$td") || status=$?
lines=$(printf '%s' "$stream" | grep -c '') || true
if [ "$status" -ne 0 ] || [ "$lines" -ne 480 ]; then
  echo "TD(lambda) nexting-run: exit $status, $lines lines"; exit 1
fi
outside=$(printf '%s\n' "$stream" | awk -F, '$2 < -5 || $2 > 5' | grep -c '') || true
if [ "$outside" -ne 0 ]; then echo "TD(lambda) nexting-run left [-5, 5] $outside times"; exit 1; fi
huge=$(mktemp --suffix=.json)
echo '{"signal": "synthetic", "synthetic": {"amplitude": 1e200, "period": 24, "count": 48},
       "band": {"inner": 1, "outer": 2},
       "methods": [{"name": "tree", "min_node_size": 10, "period": 24}]}' > "$huge"
offset=$(mktemp --suffix=.json)
echo '{"signal": "wind", "day_offset": 5, "band": {"inner": 1, "outer": 2},
       "methods": [{"name": "tree", "min_node_size": 10, "period": 24}]}' > "$offset"
for config in "$huge" "$offset"; do
  status=0
  err=$(daycast compare --config "$config" 2>&1 > /dev/null) || status=$?
  if [ "$status" -ne 1 ] || [ "$(printf '%s' "$err" | grep -c '')" -ne 1 ]; then
    echo "$(cat "$config"): exit $status, stderr: $err"; exit 1
  fi
done
