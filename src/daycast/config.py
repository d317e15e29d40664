"""Run configuration: JSON schema, strict validation, and dataset assembly.

A run config selects a signal (an embedded fixture, a synthetic sine, or
a TMY3 column), a tolerance band, and a list of method parameter blocks.
Every block parses with evalharness.parse_block, so validation is strict
at every level, and each method block is checked against its training
window before any fit runs.
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

_SIGNALS = ("wind", "temperature", "irradiance", "fixture", "synthetic")


@dataclass(frozen=True)
class _Synthetic:
    amplitude: float
    period: float
    count: int
    phase: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        at_least(1, count=self.count)


@dataclass(frozen=True)
class _RunConfig:
    signal: str
    band: Band
    methods: list
    fixture: str | None = None
    data: str | None = None
    day_offset: int = 0
    synthetic: _Synthetic | None = None
    train_samples: int = 24
    forecast_samples: int = 24

    def __post_init__(self):
        if self.signal not in _SIGNALS:
            raise ValueError(f"signal must be one of {_SIGNALS}, got {self.signal!r}")
        for key in ("fixture", "synthetic"):
            if self.signal == key and getattr(self, key) is None:
                raise ValueError(f"missing required key {key!r} for signal {key!r}")
        if self.fixture is not None:
            fixture(self.fixture)
        at_least(0, day_offset=self.day_offset)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return validate_config(raw)


def band_from_config(cfg: dict) -> Band:
    return parse_block(Band, cfg["band"], "config.band")


def load_dataset(cfg: dict, data_path=None) -> Series:
    """Assemble the series a run operates on.

    Synthetic signals are generated; fixture signals come from the
    embedded constants; the weather signals read the named TMY3 column
    when a data path is given (config "data" or the explicit override)
    and fall back to the matching embedded fixture otherwise. TMY3
    windows start at day_offset days into the file, sized to cover the
    longest training request plus the forecast window, and are
    re-indexed to t = 1; run_single indexes each method's own training
    window from t = 1 again, so hour-index fits behave identically on
    every day.
    """
    signal = cfg["signal"]
    if signal == "synthetic":
        syn = cfg["synthetic"]
        return make_sine(syn["amplitude"], syn["period"], syn["count"],
                         syn.get("phase") or 0.0)
    if signal == "fixture":
        return fixture(cfg["fixture"])

    path = data_path or cfg.get("data")
    if path is None:
        return fixture(signal)
    wind, bulb, dni = parse_tmy3(path)
    series = {"wind": wind, "temperature": bulb, "irradiance": dni}[signal]
    start = cfg.get("day_offset", 0) * 24
    periods = max(parse_method(m).train_periods for m in cfg["methods"])
    needed = periods * cfg["train_samples"] + cfg["forecast_samples"]
    if start + needed > len(series):
        raise ValueError(
            f"window of {needed} samples at day offset {cfg.get('day_offset', 0)} "
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
