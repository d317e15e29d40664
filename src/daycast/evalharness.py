"""Comparison protocol: training RMSE and consecutive-in-band forecast runs.

Every method trains on the day(s) right before a shared forecast window
(one day by default; seasonal ARIMA asks for two), forecasts it, and is
scored by its training RMSE and by how many consecutive forecast hours
stay inside an inner and an outer tolerance band. A method that fails,
or whose window the dataset cannot supply, gets an error row; the others
are unaffected. Each method is one frozen parameter class in METHODS:
its fields are its config keys, __post_init__ checks their ranges,
check_length(window) its whole training window, and run() fits and forecasts.
run_single places a method's predictions on their times and returns its
unscored EvalReport row; compare scores that row.
"""

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import arima, linmodels, nexting, smoothers, tree
from .series import Series


def rmse(pred: Series, target: Series) -> float:
    """Root mean square error between two equal-length series."""
    if len(pred) != len(target):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(target)}")
    d = pred.values - target.values
    return float(np.sqrt(np.mean(d * d)))


def consecutive_within(pred: Series, target: Series, half_width: float) -> int:
    """Length of the initial run of samples with |error| <= half_width.

    The run starts at the first sample; the bound is inclusive; samples
    after the first violation do not restart the count.
    """
    if len(pred) != len(target):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(target)}")
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    inside = np.abs(pred.values - target.values) <= half_width
    out = np.flatnonzero(~inside)
    return int(out[0]) if out.size else len(pred)


@dataclass(frozen=True)
class Band:
    """Inner and outer half-widths of the tolerance intervals."""

    inner: float
    outer: float
    unit: str = ""

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ValueError(f"need outer > inner > 0, got {self.inner}, {self.outer}")


@dataclass(frozen=True)
class EvalReport:
    """One comparison row: a method's training error and band runs.

    A row from run_single also carries its windows and predictions: train
    and holdout as indexed for the method, fitted on the last training
    samples the method predicts (None if it predicts none) and forecast on
    the holdout times. They take no part in row equality or the exports.
    """

    method: str
    train_rmse: float | None
    inner_run: int | None
    outer_run: int | None
    settings: dict = field(default_factory=dict)
    error: str | None = None
    train: Series | None = field(default=None, compare=False, repr=False)
    holdout: Series | None = field(default=None, compare=False, repr=False)
    fitted: Series | None = field(default=None, compare=False, repr=False)
    forecast: Series | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
}


@functools.cache
def _fields(cls) -> dict:
    """key -> (default, null allowed, type) for each init field of a parameter class."""
    return {f.name: (f.default, type(None) in typing.get_args(f.type),
                     (typing.get_args(f.type) or (f.type,))[0]) for f in fields(cls) if f.init}


def parse_block(cls, block, where: str):
    """Build cls from one config block whose keys are its fields.

    Rejects unknown keys, missing required keys (fields without a default)
    and wrong types (a bool is not a number; numbers must be finite). Null on
    an optional key means its default; class-typed fields parse as blocks.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{where}: must be an object, got {block!r}")
    table = _fields(cls)
    if not block.keys() <= table.keys():
        raise ValueError(f"unknown key {min(block.keys() - table.keys())!r} in {where}")
    args = {}
    for key, (default, nullable, tp) in table.items():
        value = block.get(key)
        if value is None and default is not MISSING:
            continue
        if key not in block:
            raise ValueError(f"missing required key {key!r} in {where}")
        if tp not in _KINDS:
            value = parse_block(tp, value, f"{where}.{key}")
        elif not (value is None and nullable or _KINDS[tp][1](value)):
            raise ValueError(f"{where}: {key} must be {_KINDS[tp][0]}, got {value!r}")
        args[key] = value
    try:
        return cls(**args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def at_least(lo, **values):
    """Raise ValueError naming the first keyword argument below lo; None passes."""
    for key, value in values.items():
        if value is not None and value < lo:
            raise ValueError(f"{key} must be >= {lo}, got {value}")


class _Method:
    """Config keys as fields; run(train, holdout) returns the predictions of
    the last training samples (or None), the forecast and extra report settings.
    A class that is a module object lists it first and _Method last in its
    bases, so the object's own checks, check_length included, are the method's.
    """

    train_periods = 1  # a method trains on train_periods * train_samples samples

    def check_length(self, window: int):
        """Reject up front a training window of window samples."""


@dataclass(frozen=True)
class PolynomialParams(_Method):
    degree: int

    def __post_init__(self):
        at_least(0, degree=self.degree)

    def check_length(self, window):
        if self.degree + 1 > window:
            raise ValueError(f"degree {self.degree} needs {self.degree + 1} samples, have {window}")

    def run(self, train, holdout):
        fit = linmodels.fit_polynomial(train, self.degree)
        return fit.predict(train.times), fit.predict(holdout.times), {}


@dataclass(frozen=True)
class _Cosine(linmodels.Sinusoid):
    phase: float = field()  # no default: a required key in ridge's g1 block


@dataclass(frozen=True)
class RidgeParams(_Method):
    reg_lambda: float
    g1: _Cosine

    def __post_init__(self):
        at_least(0, reg_lambda=self.reg_lambda)

    def run(self, train, holdout):
        fit = linmodels.fit_basis(train, (linmodels.Constant(), self.g1),
                                  reg_lambda=self.reg_lambda)
        return fit.predict(train.times), fit.predict(holdout.times), {}


@dataclass(frozen=True)
class RbfParams(linmodels.RbfConfig, _Method):
    def check_length(self, window):
        if self.n_basis + self.include_bias > window:
            raise ValueError(f"{self.n_basis} basis functions need more than {window} samples")

    def run(self, train, holdout):
        fit = linmodels.fit_rbf(train, self)
        return fit.predict(train.times), fit.predict(holdout.times), {}


@dataclass(frozen=True)
class SplineParams(_Method):
    smooth_lambda: float

    def __post_init__(self):
        at_least(0, smooth_lambda=self.smooth_lambda)

    def check_length(self, window):
        if window < 4:
            raise ValueError("splines need at least 4 training samples")

    def run(self, train, holdout):
        fit = smoothers.fit_smoothing_spline(train, self.smooth_lambda)
        return fit.predict(train.times), fit.predict(holdout.times), {}


@dataclass(frozen=True)
class KernelParams(_Method):
    bandwidth: float | None = None  # None: the variance of the training targets

    def __post_init__(self):
        if self.bandwidth is not None:
            smoothers.KernelConfig(self.bandwidth)

    def run(self, train, holdout):
        bw = self.bandwidth or smoothers.default_bandwidth(train)
        config = smoothers.KernelConfig(bandwidth=bw)
        tr = np.array([smoothers.kernel_predict(train, config, x) for x in train.times])
        fc = np.array([smoothers.kernel_predict(train, config, x) for x in holdout.times])
        return tr, fc, {"bandwidth": bw}


@dataclass(frozen=True)
class ArimaParams(arima.ArimaOrder, _Method):
    train_periods: int = field()  # no default: a required key for arima

    def __post_init__(self):
        super().__post_init__()
        at_least(1, train_periods=self.train_periods)

    def run(self, train, holdout):
        model = arima.css_estimate(train, self)
        fc = arima.forecast(model, train, len(holdout))
        # No training-interval predictions: the difference equation only runs forward.
        return None, fc.values, {"warnings": list(model.warnings)}


@dataclass(frozen=True, kw_only=True)
class TreeParams(tree.GrowConfig, _Method):
    min_node_size: int = field()  # no default: a required key for tree
    period: int
    train_periods: int  # default from _Method

    def __post_init__(self):
        super().__post_init__()
        at_least(1, period=self.period, train_periods=self.train_periods)

    def check_length(self, window):
        if self.period > window:
            raise ValueError(f"period {self.period} is longer than the "
                             f"{window}-sample training window")

    def run(self, train, holdout):
        wrapper = tree.fit_periodic_ensemble(train, self.period, self)
        # Training error over the period closest to the forecast window.
        return wrapper.predict(train.times[-self.period:]), wrapper.predict(holdout.times), {}


@dataclass(frozen=True)
class NextingParams(_Method):
    gamma: float
    alpha: float
    trace_lambda: float
    freeze_after: int | None  # required; None: the weights never freeze
    max_shift: int = 2
    train_periods: int  # default from _Method

    def __post_init__(self):
        nexting.check_rates(self.gamma, self.alpha, self.trace_lambda)
        at_least(0, max_shift=self.max_shift)
        at_least(1, freeze_after=self.freeze_after, train_periods=self.train_periods)

    def check_length(self, window):
        if self.max_shift >= window:
            raise ValueError(f"max_shift {self.max_shift} must be below the "
                             f"{window}-sample training window")

    def run(self, train, holdout):
        full = train.with_values(np.concatenate([train.values, holdout.values]))
        run = nexting.run_online([full], nexting.TileCoder(n_signals=1), gamma=self.gamma,
                                 alpha=self.alpha, trace_lambda=self.trace_lambda,
                                 freeze_after=self.freeze_after, norm_window=len(train))
        preds, d = run.predictions[0].values, len(train)
        align = nexting.align_affine(Series(preds[:d], train.t0), train,
                                     max_shift=self.max_shift)
        # Apply the training-window transform to both windows; the final
        # `shift` positions reuse the last available prediction.
        n = len(preds)
        out = align.scale * preds[np.minimum(np.arange(n) + align.shift, n - 1)] + align.offset
        return out[:d], out[d:], {
            "align_scale": align.scale, "align_offset": align.offset,
            "align_shift": align.shift, "bounds": run.bounds[0],
        }


METHODS = {cls.__name__[:-6].lower(): cls for cls in _Method.__subclasses__()}


def parse_method(block, where: str = "method") -> _Method:
    """The parameter object of one method block, chosen by its "name" key."""
    if not isinstance(block, dict):
        raise ValueError(f"{where}: must be an object, got {block!r}")
    if "name" not in block:
        raise ValueError(f"missing required key 'name' in {where}")
    name = block["name"]
    cls = METHODS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"{where}: unknown method {name!r}; choose from {sorted(METHODS)}")
    params = {key: value for key, value in block.items() if key != "name"}
    return parse_block(cls, params, f"{where} ({name})")


def run_single(dataset: Series, params: dict, *, train_samples: int = 24,
               forecast_samples: int = 24) -> EvalReport:
    """Run one method block under the comparison protocol; failures propagate.

    Returns the unscored row. Whatever dataset.t0 is, the W-sample
    training window is indexed t = 1..W and the holdout t = W+1..W+F, so a
    method that regresses on the time index sees the same inputs whichever
    window another method asks for. The fitted series ends at t = W and
    the forecast series lies on the holdout times.
    """
    method = parse_method(params)
    boundary = len(dataset) - forecast_samples
    window = method.train_periods * train_samples
    if boundary < 0:
        raise ValueError(f"the {forecast_samples}-sample forecast window exceeds the "
                         f"{len(dataset)}-sample dataset")
    if boundary - window < 0:
        raise ValueError(f"{params['name']} needs {window} training samples before the forecast "
                         f"window but only {boundary} are available")
    method.check_length(window)
    holdout = Series(dataset.values[boundary:], window + 1, dataset.period_hint, dataset.unit)
    train = Series(dataset.values[boundary - window:boundary], 1, dataset.period_hint,
                   dataset.unit)
    fitted, forecast, extras = method.run(train, holdout)
    if fitted is not None:
        fitted = train.with_values(fitted, t0=window + 1 - len(fitted))
    return EvalReport(params["name"], None, None, None, {**params, **extras}, train=train,
                      holdout=holdout, fitted=fitted, forecast=holdout.with_values(forecast))


def compare(dataset: Series, methods: list, band: Band, *,
            train_samples: int = 24, forecast_samples: int = 24) -> list[EvalReport]:
    """Run every method against one shared forecast window.

    The holdout is the final forecast_samples of the dataset; a method
    trains on the train_periods * train_samples samples right before it
    (train_periods defaults to 1), indexed from t = 1 as in run_single.
    Per-method failures are captured in their report row rather than
    raised (a method not named by a string is reported as "?"), and rows
    come back in input order. Reruns are bit-identical.
    """
    if len(dataset) < train_samples + forecast_samples:
        raise ValueError(
            f"dataset of length {len(dataset)} cannot supply {train_samples} training "
            f"and {forecast_samples} forecast samples"
        )
    reports = []
    for params in methods:
        block = params if isinstance(params, dict) else {}
        name = block.get("name")
        name = name if isinstance(name, str) else "?"
        try:
            row = run_single(dataset, params, train_samples=train_samples,
                             forecast_samples=forecast_samples)
            train_rmse = None
            if row.fitted is not None:
                target = row.train.values[row.fitted.t0 - row.train.t0:]
                train_rmse = rmse(row.fitted, row.fitted.with_values(target))
            reports.append(replace(
                row, train_rmse=train_rmse,
                inner_run=consecutive_within(row.forecast, row.holdout, band.inner),
                outer_run=consecutive_within(row.forecast, row.holdout, band.outer)))
        except Exception as exc:  # isolation: one bad method must not kill the run
            reports.append(EvalReport(method=name, train_rmse=None, inner_run=None,
                                      outer_run=None, settings=dict(block),
                                      error=str(exc)))
    return reports
