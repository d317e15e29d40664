"""Run configuration: JSON schema, strict validation, and dataset assembly.

A run config selects a signal (a weather signal, read from a TMY3 column
or its embedded fixture, or a synthetic sine), a tolerance band, and a
list of method parameter blocks. Every block parses with
evalharness.parse_block, so validation is strict at every level, and each
method block is checked against its training window before any fit runs.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .evalharness import Band, at_least, parse_block, parse_method
from .fixtures import fixture
from .series import Series, make_sine
from .tmy3 import parse_tmy3

_SIGNALS = ("wind", "temperature", "irradiance", "synthetic")


@dataclass(frozen=True)
class _Synthetic:
    amplitude: float
    period: float
    count: int
    phase: float = 0.0

    def __post_init__(self):
        if not 1e-150 <= self.period <= 1e150:  # as series.make_sine
            raise ValueError(f"period must lie in [1e-150, 1e150], got {self.period}")
        if not abs(self.amplitude) <= 1e150:  # as every Series sample
            raise ValueError(f"amplitude must lie in [-1e150, 1e150], got {self.amplitude}")
        at_least(1, count=self.count)


@dataclass(frozen=True)
class _RunConfig:
    signal: str
    band: Band
    methods: list
    data: str | None = None
    day_offset: int = 0
    synthetic: _Synthetic | None = None
    train_samples: int = 24
    forecast_samples: int = 24

    def __post_init__(self):
        if self.signal not in _SIGNALS:
            raise ValueError(f"signal must be one of {_SIGNALS}, got {self.signal!r}")
        if self.signal == "synthetic" and self.synthetic is None:
            raise ValueError("missing required key 'synthetic' for signal 'synthetic'")
        at_least(0, day_offset=self.day_offset)
        reads = {"synthetic"} if self.signal == "synthetic" else {"data", "day_offset"}
        for key in ("synthetic", "data", "day_offset"):
            if key not in reads and getattr(self, key) not in (None, 0):  # the defaults
                raise ValueError(f"key {key!r} does not apply to signal {self.signal!r}")
        at_least(2, train_samples=self.train_samples)
        at_least(1, forecast_samples=self.forecast_samples)
        if not self.methods:
            raise ValueError("methods must be a nonempty list")


def validate_config(cfg: dict) -> dict:
    """Check a parsed run config and return it with defaults filled in."""
    try:
        run = parse_block(_RunConfig, cfg, "config")
        for i, block in enumerate(run.methods):
            method = parse_method(block, f"methods[{i}]")
            try:
                method.check_length(method.train_periods * run.train_samples)
            except ValueError as exc:
                raise ValueError(f"methods[{i}] ({block['name']}): {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return {**cfg, "train_samples": run.train_samples,
            "forecast_samples": run.forecast_samples, "day_offset": run.day_offset}


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise ConfigError(f"{path}: invalid JSON (nested too deeply)") from None
    return validate_config(raw)


def band_from_config(cfg: dict) -> Band:
    return parse_block(Band, cfg["band"], "config.band")


def load_dataset(cfg: dict, data_path=None) -> Series:
    """Assemble the series a run operates on.

    A synthetic signal is generated, and a data path is a ConfigError
    for it. A weather signal reads the named TMY3 column when a data path
    is given (config "data" or the explicit override) and falls back to
    the matching embedded fixture otherwise, where a day_offset above 0
    is a ConfigError: a fixture has no days to offset. TMY3 windows start at
    day_offset days into the file, sized to cover the longest training
    request plus the forecast window, and are re-indexed to t = 1;
    run_single indexes each method's own training window from t = 1
    again, so hour-index fits behave identically on every day.
    """
    signal = cfg["signal"]
    if signal == "synthetic":
        if data_path is not None:
            raise ConfigError("a data file does not apply to signal 'synthetic'")
        syn = cfg["synthetic"]
        return make_sine(syn["amplitude"], syn["period"], syn["count"],
                         syn.get("phase") or 0.0)

    path = data_path or cfg.get("data")
    offset = cfg.get("day_offset", 0)
    if path is None:
        if offset > 0:
            raise ConfigError(f"day_offset {offset} needs a TMY3 data file; "
                              f"the embedded {signal} fixture has no days to offset")
        return fixture(signal)
    wind, bulb, dni = parse_tmy3(path)
    series = {"wind": wind, "temperature": bulb, "irradiance": dni}[signal]
    start = offset * 24
    periods = max(parse_method(m).train_periods for m in cfg["methods"])
    needed = periods * cfg["train_samples"] + cfg["forecast_samples"]
    if start + needed > len(series):
        raise ValueError(
            f"window of {needed} samples at day offset {offset} "
            f"exceeds the {len(series)} samples in {path}"
        )
    return Series(series.values[start:start + needed], t0=1,
                  period_hint=series.period_hint, unit=series.unit)


def builtin_config_names() -> list[str]:
    root = resources.files("daycast").joinpath("configs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def builtin_config_path(name: str) -> Path:
    path = resources.files("daycast").joinpath("configs", f"{name}.json")
    if not path.is_file():
        raise ValueError(f"no builtin config {name!r}; choose from {builtin_config_names()}")
    return Path(str(path))
