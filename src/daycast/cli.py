"""Command-line entry point.

Subcommands:
    synth        emit a sampled sine as two-column t,value data
    fit          fit one configured method, print its training-sample predictions
    forecast     fit one configured method, print holdout forecasts
    compare      run every configured method and print the comparison table
    nexting-run  stream the online learner over the whole dataset
    acf          print sample autocorrelation and partial autocorrelation

Exit status: 0 on success, 1 on usage or configuration errors (a flag
value out of its range among them), 2 on data or estimation errors.
"""

import argparse
import math
import sys

from . import __version__
from .arima import acf_pacf
from .config import band_from_config, load_config, load_dataset
from .errors import ConfigError, DaycastError
from .evalharness import NextingParams, compare, parse_method, run_single
from .fixtures import fixture
from .nexting import TileCoder, run_online
from .reportio import export_report, export_series, format_report_table, read_series_csv, write_series
from .series import Series, make_sine

USAGE_ERROR, DATA_ERROR = 1, 2


class _UsageError(Exception):
    """A refused command line; args are the message and the parser that refused it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _flag(kind, wants: str, ok):
    """An argparse type: text parsed by kind, accepted when ok(value) holds."""
    def parse(text):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wants}, got {text!r}")
    return parse


_FINITE = _flag(float, "a finite number", math.isfinite)
_COUNT = _flag(int, "an integer >= 1", lambda v: v >= 1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="daycast", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"daycast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="emit a sampled sine signal")
    synth.add_argument("--amplitude", type=_flag(float, "a number in [-1e150, 1e150]",
                                                  lambda v: abs(v) <= 1e150), default=1.0)
    synth.add_argument("--period", type=_flag(float, "a number in [1e-150, 1e150]",
                                               lambda v: 1e-150 <= v <= 1e150), required=True)
    synth.add_argument("--count", type=_COUNT, required=True)
    synth.add_argument("--phase", type=_FINITE, default=0.0)
    _io_flags(synth)

    one_method = "run config JSON (one method)"
    for name, help_text, config_help in (
            ("fit", "print training-sample predictions of one method", one_method),
            ("forecast", "print holdout forecasts of one method", one_method),
            ("compare", "full comparison over all configured methods", "run config JSON"),
            ("nexting-run", "stream the online learner", "run config JSON (one nexting method)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--data", help="TMY3 CSV overriding the config's data path")
        _io_flags(p)

    acf_p = sub.add_parser("acf", help="autocorrelation identification aid")
    source = acf_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="embedded signal name (wind48, temp48, dni48)")
    source.add_argument("--data", help="two-column t,value CSV")
    acf_p.add_argument("--max-lag", type=_COUNT, default=24)
    acf_p.add_argument("--out")
    return parser


def _io_flags(p):
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


_PARSER = _build_parser()


def _emit_series(series: Series, args) -> None:
    if args.out:
        export_series(series, args.out, args.format)
    else:
        write_series(series, sys.stdout, args.format)


def _load(args) -> tuple[dict, Series]:
    cfg = load_config(args.config)
    dataset = load_dataset(cfg, data_path=getattr(args, "data", None))
    return cfg, dataset


def _one_method(cfg: dict, command: str) -> dict:
    if len(cfg["methods"]) != 1:
        raise ConfigError(f"{command} needs a config with exactly one method, "
                          f"found {len(cfg['methods'])}")
    return cfg["methods"][0]


def _cmd_synth(args) -> int:
    _emit_series(make_sine(args.amplitude, args.period, args.count, args.phase), args)
    return 0


def _cmd_predict(args) -> int:
    cfg, dataset = _load(args)
    row = run_single(dataset, _one_method(cfg, args.command),
                     train_samples=cfg["train_samples"],
                     forecast_samples=cfg["forecast_samples"])
    series = row.fitted if args.command == "fit" else row.forecast
    if series is None:
        raise DaycastError(f"{row.method} provides no training-interval predictions; use forecast")
    _emit_series(series, args)
    return 0


def _cmd_compare(args) -> int:
    cfg, dataset = _load(args)
    band = band_from_config(cfg)
    reports = compare(dataset, cfg["methods"], band,
                      train_samples=cfg["train_samples"],
                      forecast_samples=cfg["forecast_samples"])
    print(format_report_table(reports, band))
    if args.out:
        export_report(reports, args.format, args.out)
    return 0


def _cmd_nexting_run(args) -> int:
    cfg, dataset = _load(args)
    nx = parse_method(_one_method(cfg, "nexting-run"))
    if not isinstance(nx, NextingParams):
        raise ConfigError("nexting-run needs a nexting method block")
    run = run_online([dataset], TileCoder(n_signals=1), gamma=nx.gamma, alpha=nx.alpha,
                     trace_lambda=nx.trace_lambda, freeze_after=nx.freeze_after,
                     norm_window=cfg["train_samples"])
    lo, hi = run.bounds[0]
    # A prediction estimates the discounted return of the normalized signal,
    # which lies in [0, 1 / (1 - gamma)]. Scaled by 1 - gamma it is a weighted
    # average of the coming samples, mapped into signal units through the
    # training bounds; at gamma = 0 it is the next sample, with the same bits.
    values = lo + run.predictions[0].values * (1 - nx.gamma) * (hi - lo)
    scaled = run.predictions[0].with_values(values)
    _emit_series(scaled, args)
    return 0


def _cmd_acf(args) -> int:
    series = fixture(args.fixture) if args.fixture else read_series_csv(args.data)
    acf, pacf = acf_pacf(series, args.max_lag)
    lines = [f"{lag},{a:.10g},{p:.10g}" for lag, (a, p) in enumerate(zip(acf, pacf))]
    text = "lag,acf,pacf\n" + "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_predict,
    "forecast": _cmd_predict,
    "compare": _cmd_compare,
    "nexting-run": _cmd_nexting_run,
    "acf": _cmd_acf,
}


def run_cli(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:  # raised by the parser, or subcommand parser, that refused
        message, parser = exc.args
        print(f"daycast: {message}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else USAGE_ERROR

    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"daycast: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DaycastError, ValueError, OSError, MemoryError) as exc:  # MemoryError: a huge count
        print(f"daycast: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
