"""Uniformly sampled scalar time series and basic manipulations.

A Series is the common currency between all model modules: an immutable
1-d array of samples plus the integer time index of the first sample.
Index arithmetic is time arithmetic; sample i lives at time t0 + i.
"""

import math
from dataclasses import dataclass

import numpy as np


def first_outside(values) -> tuple[int, str] | None:
    """The index of the first value outside [-1e150, 1e150] and why, or None.

    This is the magnitude rule of every Series; weather values stay far
    inside it. Within it two samples differ by at most 2e150, whose square
    is 4e300, so sums of squares stay finite up to about 4e7 samples.
    """
    v = np.asarray(values, dtype=float)
    inside = np.abs(v) <= 1e150
    if inside.all():
        return None
    i = int(inside.argmin())
    return i, "beyond +/-1e150" if math.isfinite(v[i]) else "not finite"


@dataclass(frozen=True)
class Series:
    """Immutable uniformly sampled signal.

    Attributes:
        values: the samples, stored as a read-only float array; every
            sample must lie in [-1e150, 1e150] (first_outside).
        t0: time index of the first sample (defaults to 1, so a day of
            hourly data runs t = 1..24).
        period_hint: samples per season when the signal is periodic
            (24 for hourly weather data), or None.
        unit: free-text unit label, e.g. "m/s".
    """

    values: np.ndarray
    t0: int = 1
    period_hint: int | None = None
    unit: str = ""

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("series needs a nonempty 1-d value array")
        if bad := first_outside(v):
            i, why = bad
            raise ValueError(f"series value {v[i]} at index {i} (t = {self.t0 + i}) is {why}")
        if self.period_hint is not None and not self.period_hint >= 1:  # NaN fails too
            raise ValueError(f"period_hint must be positive, got {self.period_hint}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        """Time indices t0, t0+1, ... as a float array."""
        return np.arange(self.t0, self.t0 + len(self), dtype=float)

    def with_values(self, values, t0=None) -> "Series":
        """New series with the same metadata but different samples."""
        return Series(values, self.t0 if t0 is None else t0, self.period_hint, self.unit)


@dataclass(frozen=True)
class Split:
    """A series cut into a training head and a holdout tail."""

    train: Series
    holdout: Series


def make_sine(amplitude: float, period: float, count: int, phase: float = 0.0) -> Series:
    """Sample amplitude * sin(2*pi*t/period + phase) at t = 1..count."""
    if not 1e-150 <= period <= 1e150:  # as linmodels.Sinusoid: below, 2*pi*t / period overflows
        raise ValueError(f"period must lie in [1e-150, 1e150], got {period}")
    if not count >= 1:  # NaN fails too
        raise ValueError(f"count must be positive, got {count}")
    t = np.arange(1, count + 1, dtype=float)
    return Series(amplitude * np.sin(2.0 * np.pi * t / period + phase), t0=1)


def split(series: Series, d: int) -> Split:
    """First d samples train, the rest hold out; concatenation restores the input."""
    if not 1 <= d < len(series):
        raise ValueError(f"train length must satisfy 1 <= D < {len(series)}, got {d}")
    train = Series(series.values[:d], series.t0, series.period_hint, series.unit)
    holdout = Series(series.values[d:], series.t0 + d, series.period_hint, series.unit)
    return Split(train, holdout)


def normalize_unit(series: Series, lo: float, hi: float) -> Series:
    """Map values affinely so [lo, hi] lands on [0, 1], clamping the rest.

    Bounds normally come from training data only; later samples outside
    the training range saturate at 0 or 1, even those whose distance from
    the range overflows. The width hi - lo must be finite.
    """
    if not lo < hi:  # NaN included
        raise ValueError(f"need hi > lo, got lo={lo}, hi={hi}")
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"the normalizing range [{lo}, {hi}] is wider than the float range")
    with np.errstate(over="ignore"):
        scaled = np.clip((series.values - lo) / (hi - lo), 0.0, 1.0)
    return series.with_values(scaled)
