import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from daycast import linmodels, nexting, smoothers, tree
from daycast.arima import ArimaModel, ArimaOrder, acf_pacf, css_estimate
from daycast.evalharness import (Band, RidgeParams, SplineParams, compare, consecutive_within,
                                 rmse, run_single)
from daycast.config import (band_from_config, builtin_config_names, builtin_config_path,
                            load_config, load_dataset)
from daycast.errors import ZeroVarianceError
from daycast.fixtures import fixture
from daycast.reportio import format_report_table
from daycast.series import Series, make_sine

WIND_BAND = Band(1.0, 3.0, "m/s")


def wind_methods():
    cfg = load_config(builtin_config_path("table2_wind"))
    return cfg["methods"]


class TestRmse:
    def test_identical_series(self, wind24):
        assert rmse(wind24, wind24) == 0.0

    def test_constant_offset(self):
        a = Series([1.0, 2.0, 3.0])
        b = Series([2.0, 3.0, 4.0])
        assert rmse(a, b) == pytest.approx(1.0)

    def test_symmetry_and_shift_invariance(self, wind24, temp24):
        assert rmse(wind24, temp24) == rmse(temp24, wind24)
        shifted_a = Series(wind24.values + 5.0)
        shifted_b = Series(temp24.values + 5.0)
        assert rmse(shifted_a, shifted_b) == pytest.approx(rmse(wind24, temp24))

    def test_length_mismatch(self, wind24, wind):
        with pytest.raises(ValueError):
            rmse(wind24, wind)

    def test_the_widest_bounded_difference_squares_without_overflow(self):
        # The suite makes a RuntimeWarning an error. Two samples within
        # +/-1e150 differ by at most 2e150, whose square 4e300 is finite.
        assert rmse(Series([1e150, -1e150]), Series([-1e150, 1e150])) == 2e150


class TestConsecutiveWithin:
    def test_run_stops_at_first_violation(self):
        target = Series([0.0, 0.0, 0.0, 0.0])
        pred = Series([0.5, 0.5, 2.0, 0.5])
        assert consecutive_within(pred, target, 1.0) == 2

    def test_immediate_violation(self):
        assert consecutive_within(Series([5.0, 0.0]), Series([0.0, 0.0]), 1.0) == 0

    def test_boundary_is_inclusive(self):
        assert consecutive_within(Series([1.0, 2.0]), Series([0.0, 1.0]), 1.0) == 2

    def test_all_inside(self):
        assert consecutive_within(Series([0.1] * 7), Series([0.0] * 7), 1.0) == 7

    def test_monotone_in_half_width(self, wind24, temp24):
        pred = Series(wind24.values)
        target = Series(wind24.values + np.linspace(0, 3, 24))
        runs = [consecutive_within(pred, target, hw) for hw in (0.5, 1.0, 2.0, 3.0, 5.0)]
        assert all(a <= b for a, b in zip(runs, runs[1:]))


class TestBand:
    def test_validation(self):
        with pytest.raises(ValueError):
            Band(3.0, 1.0)
        with pytest.raises(ValueError):
            Band(0.0, 1.0)


class TestCompare:
    def test_wind_table_reproduces_published_rows(self, wind):
        reports = compare(wind, wind_methods(), WIND_BAND)
        by_name = {r.method: r for r in reports}

        poly = by_name["polynomial"]
        assert poly.train_rmse == pytest.approx(0.9337, abs=1e-3)
        assert (poly.inner_run, poly.outer_run) == (2, 7)

        tree_row = by_name["tree"]
        assert tree_row.train_rmse == pytest.approx(1.2096, abs=1e-2)
        assert (tree_row.inner_run, tree_row.outer_run) == (2, 7)

        spline = by_name["spline"]
        assert spline.train_rmse == pytest.approx(0.9286, abs=5e-2)

        # Ridge, RBF and Nexting rows must at least produce healthy numbers.
        for name in ("ridge", "rbf", "nexting"):
            row = by_name[name]
            assert row.ok and row.train_rmse is not None
            assert 0 <= row.inner_run <= row.outer_run <= 24

    @pytest.mark.parametrize("name, row, shift", [
        ("table2_wind", (1.6706, 0, 2), 1),
        ("table2_temperature", (0.8961, 0, 10), 2),
        ("table2_irradiance", (191.9656, 0, 9), 2),
    ])
    def test_fixture_nexting_rows_are_pinned(self, name, row, shift):
        cfg = load_config(builtin_config_path(name))
        nexting = [m for m in cfg["methods"] if m["name"] == "nexting"]
        got, = compare(load_dataset(cfg), nexting, band_from_config(cfg),
                       train_samples=cfg["train_samples"],
                       forecast_samples=cfg["forecast_samples"])
        assert (round(got.train_rmse, 4), got.inner_run, got.outer_run) == row
        assert got.settings["align_shift"] == shift

    def test_seasonal_arima_needs_two_days_and_fails_cleanly_on_48(self, wind):
        reports = compare(wind, wind_methods(), WIND_BAND)
        arima_row = next(r for r in reports if r.method == "arima")
        assert not arima_row.ok
        assert arima_row.train_rmse is None
        assert "48 training samples" in arima_row.error

    def test_seasonal_arima_runs_on_72_samples(self, wind):
        # Three synthetic days: two to train on, one to forecast.
        rng = np.random.default_rng(3)
        day = wind.values[:24]
        data = np.concatenate([day + rng.normal(0, 0.2, 24) for _ in range(3)])
        dataset = Series(data, t0=1, period_hint=24, unit="m/s")
        params = {"name": "arima", "p": 0, "d": 0, "q": 1, "P": 1, "D": 1, "Q": 0,
                  "s": 24, "train_periods": 2}
        reports = compare(dataset, [params], WIND_BAND)
        row = reports[0]
        assert row.ok, row.error
        assert row.train_rmse is None          # no training-interval predictions
        assert 0 <= row.inner_run <= row.outer_run <= 24
        assert row.outer_run >= 10             # seasonal structure carries over

    def test_single_method_list(self, wind):
        reports = compare(wind, [{"name": "polynomial", "degree": 6}], WIND_BAND)
        assert len(reports) == 1 and reports[0].ok

    def test_failing_method_is_isolated(self, wind):
        methods = [
            {"name": "polynomial", "degree": 40},   # underdetermined on 24 samples
            {"name": "polynomial", "degree": 6},
        ]
        reports = compare(wind, methods, WIND_BAND)
        assert not reports[0].ok and reports[0].error
        assert reports[1].ok
        assert reports[1].train_rmse == pytest.approx(0.9337, abs=1e-3)

    def test_unknown_method_is_isolated(self, wind):
        reports = compare(wind, [{"name": "astrology"}], WIND_BAND)
        assert not reports[0].ok and "unknown method" in reports[0].error

    def test_entry_that_is_not_a_block_is_isolated(self, wind):
        reports = compare(wind, [5, {"name": "polynomial", "degree": 2}, {"name": ["x"]}],
                          Band(1, 3))
        assert not reports[0].ok and "must be an object" in reports[0].error
        assert reports[1].ok
        assert not reports[2].ok and "unknown method" in reports[2].error
        assert reports[0].method == reports[2].method == "?"
        assert format_report_table(reports).splitlines()[3].startswith("?  ")

    @pytest.mark.parametrize("name", ["table2_wind", "table2_temperature",
                                      "table2_irradiance"])
    def test_one_day_rows_do_not_depend_on_where_the_dataset_starts(self, name):
        # A 72-sample dataset (as a TMY3 cut for a two-day ARIMA window) and
        # its last 48 samples give every one-day method the same window.
        cfg = load_config(builtin_config_path(name))
        tail = fixture(cfg["signal"])
        longer = Series(np.concatenate([tail.values[24:], tail.values]), t0=1,
                        period_hint=24, unit=tail.unit)
        band = band_from_config(cfg)
        rows = compare(longer, cfg["methods"], band)
        expected = compare(tail, cfg["methods"], band)
        for block, row, want in zip(cfg["methods"], rows, expected):
            if block.get("train_periods", 1) == 1:
                assert row == want, block["name"]
                assert row.ok, row.error

    def test_tree_period_longer_than_the_window_is_an_error_row(self, wind):
        reports = compare(wind, [{"name": "tree", "min_node_size": 10, "period": 40}],
                          Band(1, 3))
        assert not reports[0].ok and reports[0].train_rmse is None
        assert reports[0].error == "period 40 is longer than the 24-sample training window"

    @pytest.mark.parametrize("block, error", [
        ({"name": "arima", "p": 0, "d": 2, "q": 0, "P": 0, "D": 0, "Q": 0, "s": 0,
          "train_periods": 1}, "arima forecast is beyond +/-1e150 at t = 28"),
        ({"name": "polynomial", "degree": 3}, "polynomial fit is beyond +/-1e150 at t = 19"),
        ({"name": "nexting", "gamma": 0.0, "alpha": 0.2, "trace_lambda": 0.9, "freeze_after": 24},
         "nexting fit is beyond +/-1e150 at t = 5")],
        ids=["arima", "polynomial", "nexting"])
    def test_a_row_past_the_float_range_names_its_cause(self, block, error):
        # Samples lie within +/-1e150, the range of every Series, and so must
        # a row's outputs. The suite makes a RuntimeWarning an error, so a
        # numpy warning would be the row's message, and so would the Series
        # check's, which names no method.
        row, = compare(make_sine(1e150, 24, 48, 0), [block], WIND_BAND)
        assert row.error == error

    def test_kernel_method_stays_callable_even_if_unsuited(self, wind):
        # The smoother is excluded from the published comparison but the
        # harness can still run it on request.
        reports = compare(wind, [{"name": "kernel", "bandwidth": 2.0}], WIND_BAND)
        row = reports[0]
        assert row.ok and row.train_rmse is not None
        assert 0 <= row.inner_run <= row.outer_run <= 24
        assert row.settings["bandwidth"] == 2.0

    def test_a_kernel_row_does_not_depend_on_the_unit(self, temp):
        # The bandwidth is in samples, so degC -> degF (x 1.8, bands alike)
        # scales the train RMSE and leaves the runs.
        block = {"name": "kernel", "bandwidth": 2.0}
        row, = compare(temp, [block], Band(1.0, 2.0))
        scaled, = compare(temp.with_values(temp.values * 1.8), [block], Band(1.8, 3.6))
        assert (scaled.inner_run, scaled.outer_run) == (row.inner_run, row.outer_run)
        assert scaled.train_rmse == pytest.approx(1.8 * row.train_rmse, rel=1e-12)

    def test_output_order_and_determinism(self, wind):
        methods = wind_methods()
        a = compare(wind, methods, WIND_BAND)
        b = compare(wind, methods, WIND_BAND)
        assert [r.method for r in a] == [m["name"] for m in methods]
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_dataset_too_short(self, wind24):
        with pytest.raises(ValueError):
            compare(wind24, [{"name": "polynomial", "degree": 2}], WIND_BAND)

    def test_ridge_fit_is_symmetric_about_its_peak(self, temp24):
        # The cosine-basis day fit must be mirror-symmetric around its argmax
        # hour, whatever phase convention produced it.
        run = run_single(
            Series(np.concatenate([temp24.values, temp24.values]), t0=1),
            {"name": "ridge", "reg_lambda": 0.1, "g1": {"period": 24, "phase": 0.0}},
        )
        curve = run.fitted.values
        peak = int(np.argmax(curve))
        for k in range(1, min(peak, 23 - peak) + 1):
            assert curve[peak - k] == pytest.approx(curve[peak + k], abs=1e-9)


class TestRunSingle:
    def test_polynomial_windows(self, wind):
        run = run_single(wind, {"name": "polynomial", "degree": 6})
        assert len(run.train) == 24 and len(run.holdout) == 24
        assert run.holdout.t0 == 25
        assert run.forecast.values.shape == (24,)
        assert run.forecast.values[0] == pytest.approx(2.0308248, abs=1e-3)

    def test_windows_are_indexed_from_one_whatever_the_dataset_start(self, wind):
        block = {"name": "polynomial", "degree": 6}
        late = run_single(Series(np.concatenate([wind.values[:24], wind.values]), t0=40),
                          block)
        assert late.train.t0 == 1 and late.holdout.t0 == 25
        assert late.forecast.values.tobytes() == run_single(wind, block).forecast.values.tobytes()

    def test_short_training_window_message_is_unchanged(self, wind):
        with pytest.raises(ValueError) as err:
            run_single(wind, {"name": "polynomial", "degree": 6}, train_samples=30)
        assert str(err.value) == ("polynomial needs 30 training samples before the forecast "
                                  "window but only 24 are available")

    def test_forecast_window_longer_than_the_dataset_is_named(self, wind):
        with pytest.raises(ValueError) as err:
            run_single(wind, {"name": "polynomial", "degree": 6}, forecast_samples=60)
        assert str(err.value) == "the 60-sample forecast window exceeds the 48-sample dataset"

    def test_one_sample_forecast_window(self, wind):
        blocks = [m for m in wind_methods() if m["name"] != "arima"]
        rows = compare(wind, blocks, WIND_BAND, forecast_samples=1)
        assert [row.error for row in rows] == [None] * len(blocks)
        assert all(row.forecast.values.shape == (1,) for row in rows)

    def test_a_forecast_that_is_not_finite_names_its_method_and_time(self, wind, monkeypatch):
        monkeypatch.setattr(smoothers, "kernel_predict",
                            lambda train, config, x: math.inf if x == 27 else 0.0)
        with pytest.raises(ValueError) as err:
            run_single(wind, {"name": "kernel", "bandwidth": 2.0})
        assert str(err.value) == "kernel forecast is not finite at t = 27"

    def test_nexting_settings_echo_alignment(self, wind):
        run = run_single(wind, {"name": "nexting", "gamma": 0.0, "alpha": 0.3,
                                "trace_lambda": 0.9, "freeze_after": 24})
        assert "align_scale" in run.settings and "align_shift" in run.settings

    def test_nexting_forecast_rejects_a_discounted_return(self, wind):
        block = {"name": "nexting", "gamma": 0.5, "alpha": 0.3, "trace_lambda": 0.9,
                 "freeze_after": 24}
        row, = compare(wind, [block], WIND_BAND)
        assert row.error == ("gamma 0.5 > 0 estimates a discounted return, not the next "
                             "sample, so it cannot be rolled out into a forecast")

    def test_nexting_with_a_subnormal_step_size_forecasts_the_training_mean(self, wind):
        # alpha = 1e-320 moves the predictions by subnormals, whose variance
        # underflows to 0: the alignment treats them as constant.
        run = run_single(wind, {"name": "nexting", "gamma": 0.0, "alpha": 1e-320,
                                "trace_lambda": 0.9, "freeze_after": 24})
        assert run.settings["align_scale"] == 0.0
        np.testing.assert_array_equal(run.forecast.values, np.mean(wind.values[:24]))

    def test_unknown_method_raises(self, wind):
        with pytest.raises(ValueError):
            run_single(wind, {"name": "nope"})


# Three days, so the two-day ARIMA blocks of the table2 configs fit.
THREE_DAYS = Series(make_sine(5.0, 24, 72).values + 10.0
                    + np.random.default_rng(7).normal(0.0, 0.5, 72), t0=1, period_hint=24)
TABLE2_BLOCKS = [m for signal in ("wind", "temperature", "irradiance")
                 for m in load_config(builtin_config_path(f"table2_{signal}"))["methods"]]
TABLE2_BLOCKS.append({"name": "kernel", "bandwidth": 2.0})


def forecast_and_train_rmse(dataset, block):
    row = compare(dataset, [block], WIND_BAND)[0]
    assert row.ok, row.error
    return row.forecast.values.tobytes(), row.train_rmse


@pytest.mark.parametrize("name", [
    "polynomial", "ridge", "rbf", "spline", "kernel", "arima", "tree", "nexting",
])
def test_no_row_reads_the_holdout(name):
    # Hypothesis runs inside a plain test, and does not shrink: for a failing
    # hypothesis item its pytest plugin imports libcst to write an example
    # patch, which the DeprecationWarning filter turns into an INTERNALERROR.
    @settings(max_examples=5, deadline=None, phases=(Phase.generate,))
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 100.0))
    def perturb_the_holdout(seed, scale):
        noise = np.random.default_rng(seed).standard_normal(24) * scale
        perturbed = THREE_DAYS.with_values(np.concatenate([THREE_DAYS.values[:48],
                                                           THREE_DAYS.values[48:] + noise]))
        for block in (b for b in TABLE2_BLOCKS if b["name"] == name):
            assert (forecast_and_train_rmse(perturbed, block)
                    == forecast_and_train_rmse(THREE_DAYS, block))

    perturb_the_holdout()


BOUND_SHAPES = {
    "sine": lambda n: 1e150 * np.sin(2 * np.pi * np.arange(1, n + 1) / 24),
    "alternating": lambda n: 1e150 * (-1.0) ** np.arange(n),
    "ramp": lambda n: np.linspace(-1e150, 1e150, n),
    "constant": lambda n: np.full(n, 1e150),
}
# What a row at the bound may fail with: each names its cause.
BOUND_ERRORS = [
    r"(?P<method>\w+) (fit|forecast) is beyond \+/-1e150 at t = \d+",
    r"(?P<method>\w+) needs \d+ training samples before the forecast window but only \d+ "
    r"are available",
    r"the \(d = \d+, D = \d+\) difference is beyond \+/-1e150 at t = \d+",
    r"CSS simplex did not converge within \d+ (objective evaluations|iterations) "
    r"\(final objective \S+\)",
    r"need hi > lo, got lo=\S+, hi=\S+",  # nexting on a constant series
]


@pytest.mark.parametrize("shape", sorted(BOUND_SHAPES))
def test_every_builtin_block_runs_at_the_bound(shape):
    # rmse, compare, kernel_predict's weighted sum and the autocorrelations
    # have no overflow guard: samples within +/-1e150 cannot overflow them.
    # The suite makes a RuntimeWarning an error, so an overflow in any of
    # them would be a row's error, or raise from acf_pacf.
    blocks = [m for name in builtin_config_names()
              for m in load_config(builtin_config_path(name))["methods"]]
    blocks.append({"name": "kernel", "bandwidth": 2.0})
    for sign, n in itertools.product((1.0, -1.0), (48, 72, 168)):
        series = Series(sign * BOUND_SHAPES[shape](n), t0=1, period_hint=24)
        for row in compare(series, blocks, WIND_BAND):
            if row.ok:  # its outputs keep the rule too, and JSON has no Infinity
                outputs = [row.forecast] + ([row.fitted] if row.fitted is not None else [])
                assert max(np.abs(out.values).max() for out in outputs) <= 1e150, row.method
                assert row.train_rmse is None or math.isfinite(row.train_rmse), row.method
                continue
            match = next(filter(None, (re.fullmatch(p, row.error) for p in BOUND_ERRORS)), None)
            assert match, (sign, n, row.method, row.error)
            assert match.groupdict().get("method", row.method) == row.method
        if shape == "constant":
            with pytest.raises(ZeroVarianceError):
                acf_pacf(series, 12)
        else:
            acf, pacf = acf_pacf(series, 12)
            assert np.isfinite(acf).all() and np.isfinite(pacf).all()



_WIND, _X = fixture("wind48"), np.ones((4, 1))
NAN_GUARDS = {  # a call given NaN for a bound, and the start of its refusal
    "solve_ridge": (lambda: linmodels.solve_ridge(_X, np.ones(4), math.nan),
                    "reg_lambda must be >= 0"),
    "fit_basis": (lambda: linmodels.fit_basis(_WIND, (linmodels.Constant(),),
                                              reg_lambda=math.nan), "reg_lambda must be >= 0"),
    "css_estimate": (lambda: css_estimate(make_sine(1, 100, 100), ArimaOrder(2, 0, 0, 0, 0, 0, 0),
                                          max_iterations=math.nan),
                     "max_iterations must be >= 1"),
    "consecutive_within": (lambda: consecutive_within(_WIND, _WIND, math.nan),
                           "half_width must be positive"),
    "KernelConfig": (lambda: smoothers.KernelConfig(math.nan), "bandwidth must be positive"),
    "RidgeParams": (lambda: RidgeParams(math.nan, linmodels.Sinusoid(24.0, 0.0)),
                    "reg_lambda must be >= 0"),
    "SplineParams": (lambda: SplineParams(math.nan), "smooth_lambda must be >= 0"),
    "fit_smoothing_spline": (lambda: smoothers.fit_smoothing_spline(_WIND, math.nan),
                             "smoothing parameter must be >= 0"),
    "prune": (lambda: tree.prune(tree.grow(_WIND, tree.GrowConfig(3)), math.nan),
              "alpha must be >= 0"),
    "run_online": (lambda: nexting.run_online([_WIND], nexting.TileCoder(n_signals=1), gamma=0.0,
                                              alpha=0.1, trace_lambda=0.0, freeze_after=math.nan),
                   "freeze_after must be >= 1"),
    "ArimaModel": (lambda: ArimaModel(ArimaOrder(0, 0, 0, 0, 0, 0, 0), [], [], [], [],
                                      sigma2=math.nan), "sigma2 must be >= 0"),
    "make_sine": (lambda: make_sine(1.0, 24.0, math.nan), "count must be positive"),
    "GrowConfig.min_node_size": (lambda: tree.GrowConfig(math.nan), "min_node_size must be >= 1"),
    "GrowConfig.max_leaves": (lambda: tree.GrowConfig(1, math.nan), "max_leaves must be >= 1"),
    "PeriodicWrapper": (lambda: tree.PeriodicWrapper(None, math.nan), "period must be >= 1"),
    "Monomial": (lambda: linmodels.Monomial(math.nan), "monomial degree must be >= 0"),
    "RbfConfig": (lambda: linmodels.RbfConfig(math.nan, 1.0), "n_basis must be >= 1"),
    **{f"TileCoder.{name}": (lambda name=name: nexting.TileCoder(**{name: math.nan}),
                             f"{name} must be >= 1")
       for name in ("n_tilings", "tiles_per_dim", "n_signals")},
}


@pytest.mark.parametrize("case", sorted(NAN_GUARDS))
def test_a_nan_bound_is_refused_naming_it(case):
    # Each range guard is a negated comparison, so NaN fails it: under
    # `x < lo` it would pass, and the call would run without the bound.
    call, message = NAN_GUARDS[case]
    with pytest.raises(ValueError, match=re.escape(f"{message}, got nan")):
        call()
