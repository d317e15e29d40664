import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, make_smoothing_spline

from daycast.config import band_from_config, builtin_config_path, load_config, load_dataset
from daycast.errors import NoSupportError, SingularSystemError
from daycast.evalharness import Band, compare
from daycast.linmodels import fit_polynomial
from daycast.series import Series, make_sine
from daycast.smoothers import (KernelConfig, _basis_matrix, _penalty_root, fit_smoothing_spline,
                               kernel_predict)

GENERIC_Y = [2.0, -1.0, 4.0, 3.5, 0.5, 1.0]


def loop_basis_matrix(knots, xs):
    """Reference: the truncated-cube basis built one column at a time."""
    n_knots = len(knots)
    last = knots[-1]

    def delta(d, x):
        return (np.maximum(x - knots[d], 0.0) ** 3
                - np.maximum(x - last, 0.0) ** 3) / (last - knots[d])

    cols = [np.ones_like(xs), xs]
    tail = delta(n_knots - 2, xs)
    for d in range(n_knots - 2):
        cols.append(delta(d, xs) - tail)
    return np.column_stack(cols)


def loop_penalty_matrix(knots):
    """Reference: the Simpson Gram matrix summed one knot pair at a time."""
    n_knots = len(knots)
    last = knots[-1]

    def d2_delta(d, x):
        return 6.0 * (np.maximum(x - knots[d], 0.0) - np.maximum(x - last, 0.0)) / (last - knots[d])

    def d2_basis(j, x):
        if j < 2:
            return np.zeros_like(x)
        return d2_delta(j - 2, x) - d2_delta(n_knots - 2, x)

    a, b = knots[:-1], knots[1:]
    mids = 0.5 * (a + b)
    ends_a = np.array([d2_basis(j, a) for j in range(n_knots)])
    ends_b = np.array([d2_basis(j, b) for j in range(n_knots)])
    mid = np.array([d2_basis(j, mids) for j in range(n_knots)])

    omega = np.zeros((n_knots, n_knots))
    w = (b - a) / 6.0
    for j in range(2, n_knots):
        for k in range(j, n_knots):
            val = np.sum(w * (ends_a[j] * ends_a[k] + 4.0 * mid[j] * mid[k] + ends_b[j] * ends_b[k]))
            omega[j, k] = omega[k, j] = val
    return omega


def exact_spline_train_rmse(knots, values, smooth_lambda):
    """Reference: the spline's train RMSE from an exact rational solve.

    Builds X and the Simpson penalty in Fractions (Simpson's rule is exact
    on the piecewise-quadratic integrands), solves the normal equations
    X'X c + lambda Omega c = X'y by Gaussian elimination with no rounding,
    and rounds only the final square root.
    """
    k = [Fraction(t) for t in knots]
    y = [Fraction(v) for v in values]
    lam = Fraction(smooth_lambda)
    n, last = len(k), k[-1]

    def basis(x):
        delta = [(max(x - kd, 0) ** 3 - max(x - last, 0) ** 3) / (last - kd) for kd in k[:-1]]
        return [Fraction(1), x] + [d - delta[-1] for d in delta[:-1]]

    def d2_basis(x):
        d2 = [6 * (max(x - kd, 0) - max(x - last, 0)) / (last - kd) for kd in k[:-1]]
        return [Fraction(0), Fraction(0)] + [d - d2[-1] for d in d2[:-1]]

    X = [basis(x) for x in k]
    M = [[sum(X[r][i] * X[r][j] for r in range(n)) for j in range(n)] for i in range(n)]
    for a, b in zip(k, k[1:]):
        ea, mid, eb = d2_basis(a), d2_basis((a + b) / 2), d2_basis(b)
        for i in range(2, n):
            for j in range(2, n):
                M[i][j] += lam * (b - a) / 6 * (ea[i] * ea[j] + 4 * mid[i] * mid[j] + eb[i] * eb[j])
    rhs = [sum(X[r][i] * y[r] for r in range(n)) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot], rhs[col], rhs[pivot] = M[pivot], M[col], rhs[pivot], rhs[col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            if f:
                M[r] = [mr - f * mc for mr, mc in zip(M[r], M[col])]
                rhs[r] -= f * rhs[col]
    c = [Fraction(0)] * n
    for i in reversed(range(n)):
        c[i] = (rhs[i] - sum(M[i][j] * c[j] for j in range(i + 1, n))) / M[i][i]
    sse = sum((y[r] - sum(X[r][j] * c[j] for j in range(n))) ** 2 for r in range(n))
    return math.sqrt(sse / n)


def random_knots(seed, spacing):
    """4 to 79 knots: hourly from a random start, or irregular and sorted."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    if spacing == "unit":
        return np.arange(1.0, n + 1.0) + float(rng.integers(0, 9000))
    gaps = rng.uniform(0.05, 5.0, n - 1)
    return float(rng.uniform(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(gaps)])


def fixture_spline_row(name):
    cfg = load_config(builtin_config_path(name))
    dataset = load_dataset(cfg)
    row, = compare(dataset, [m for m in cfg["methods"] if m["name"] == "spline"],
                   band_from_config(cfg), train_samples=cfg["train_samples"],
                   forecast_samples=cfg["forecast_samples"])
    end = len(dataset) - cfg["forecast_samples"]
    return row, dataset.values[end - cfg["train_samples"]:end], row.settings["smooth_lambda"]


class TestSplineMatricesMatchTheLoops:
    # The basis is compared byte for byte. The penalty is compared as
    # R'R, which sums the same Simpson terms in another order.
    @pytest.mark.parametrize("spacing", ["unit", "irregular"])
    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identical_on_random_knots(self, seed, spacing):
        knots = random_knots(seed, spacing)
        rng = np.random.default_rng(1000 + seed)
        span = knots[-1] - knots[0]
        xs = np.concatenate([knots, rng.uniform(knots[0] - span, knots[-1] + span, 40),
                             [knots[0] - 3.5, knots[-1] + 7.25]])
        root = _penalty_root(knots)
        np.testing.assert_allclose(root.T @ root, loop_penalty_matrix(knots), rtol=1e-13)
        basis = _basis_matrix(knots, xs)
        assert basis.tobytes() == loop_basis_matrix(knots, xs).tobytes()
        # The column-stacked reference is C-ordered; X @ c sums by layout.
        assert basis.flags.c_contiguous

    @pytest.mark.parametrize("n_knots", [4, 5, 79])
    def test_bit_identical_at_the_size_limits(self, n_knots):
        knots = np.arange(1.0, n_knots + 1.0)
        root = _penalty_root(knots)
        np.testing.assert_allclose(root.T @ root, loop_penalty_matrix(knots), rtol=1e-13)
        assert _basis_matrix(knots, knots).tobytes() == loop_basis_matrix(knots, knots).tobytes()

    @pytest.mark.parametrize("name, train_rmse", [
        ("table2_wind", 0.9285567461873756),
        ("table2_temperature", 0.14407288697720214),
        ("table2_irradiance", 25.81149048329875),
    ])
    def test_fixture_spline_rows_are_pinned(self, name, train_rmse):
        row, _, _ = fixture_spline_row(name)
        assert row.train_rmse == train_rmse

    @pytest.mark.parametrize("name", ["table2_wind", "table2_temperature", "table2_irradiance"])
    def test_fixture_spline_rows_match_an_exact_rational_solve(self, name):
        row, values, smooth_lambda = fixture_spline_row(name)
        exact = exact_spline_train_rmse(np.arange(1.0, len(values) + 1.0), values, smooth_lambda)
        assert row.train_rmse == pytest.approx(exact, rel=1e-12, abs=0)

    def test_penalty_memory_grows_with_the_square_of_the_knots(self):
        # 300 knots: R is 897 x 300, about 2 MB, and each of its temporaries
        # the same; one (n, n, n - 1) broadcast would need about 215 MB.
        knots = np.arange(1.0, 301.0)
        tracemalloc.start()
        try:
            _penalty_root(knots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSmoothingSpline:
    @pytest.mark.parametrize("lam", [0.0, 5.0, 1e5])
    def test_collinear_points_stay_on_the_line(self, lam):
        # Linear data incurs zero curvature penalty at any lambda.
        fit = fit_smoothing_spline(Series([1.0, 2.0, 3.0, 4.0]), lam)
        assert fit.predict(2.5) == pytest.approx(2.5, abs=1e-8)
        assert float(fit.predict(10.0)) == pytest.approx(10.0, abs=1e-6)

    def test_zero_lambda_interpolates(self):
        fit = fit_smoothing_spline(Series([3.0, -2.0, 5.0, 1.0, 4.0]), 0.0)
        at_knots = fit.predict(fit.knots)
        np.testing.assert_allclose(at_knots, [3.0, -2.0, 5.0, 1.0, 4.0], atol=1e-7)

    def test_zero_lambda_matches_independent_natural_interpolant(self):
        # The interpolation limit is the natural cubic interpolant; check it
        # off-knot against an independent construction.
        y = np.array(GENERIC_Y)
        fit = fit_smoothing_spline(Series(y), 0.0)
        oracle = CubicSpline(np.arange(1.0, 7.0), y, bc_type="natural")
        probes = np.array([1.3, 2.5, 3.7, 4.2, 5.9])
        np.testing.assert_allclose(fit.predict(probes), oracle(probes), atol=1e-6)

    def test_huge_lambda_collapses_to_least_squares_line(self):
        y = Series(GENERIC_Y)
        fit = fit_smoothing_spline(y, 1e9)
        line = fit_polynomial(y, 1)
        probes = np.array([1.0, 2.5, 4.0, 6.0])
        np.testing.assert_allclose(fit.predict(probes), line.predict(probes), atol=1e-4)

    def test_linear_extrapolation_beyond_last_knot(self):
        fit = fit_smoothing_spline(Series(GENERIC_Y), 0.3)
        last = fit.knots[-1]
        xs = np.array([last + 1.0, last + 2.0, last + 3.0])
        f = fit.predict(xs)
        second_divided_difference = f[0] - 2.0 * f[1] + f[2]
        assert abs(second_divided_difference) < 1e-6

    def test_temperature_day_training_error(self, temp24):
        fit = fit_smoothing_spline(temp24, 0.1)
        resid = fit.predict(temp24.times) - temp24.values
        rmse = float(np.sqrt(np.mean(resid**2)))
        assert rmse == pytest.approx(0.1441, abs=5e-2)

    def test_twice_continuously_differentiable_at_interior_knots(self, temp24):
        fit = fit_smoothing_spline(temp24, 0.1)
        # One-sided 4-point stencils are exact for cubics, so h only needs to
        # keep all probes inside the neighboring knot intervals; a large h
        # avoids rounding amplification by 1/h^2.
        h = 0.25
        for knot in fit.knots[1:-1]:
            left = (2 * fit.predict(knot) - 5 * fit.predict(knot - h)
                    + 4 * fit.predict(knot - 2 * h) - fit.predict(knot - 3 * h)) / h**2
            right = (2 * fit.predict(knot) - 5 * fit.predict(knot + h)
                     + 4 * fit.predict(knot + 2 * h) - fit.predict(knot + 3 * h)) / h**2
            scale = max(abs(left), abs(right), 1e-3)
            assert abs(left - right) / scale < 1e-5

    def test_training_error_monotone_in_lambda(self, temp24):
        def rmse(lam):
            fit = fit_smoothing_spline(temp24, lam)
            return float(np.sqrt(np.mean((fit.predict(temp24.times) - temp24.values) ** 2)))
        errs = [rmse(lam) for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(a <= b + 1e-10 for a, b in zip(errs, errs[1:]))

    def test_penalty_matrix_is_symmetric_psd(self, temp24):
        root = _penalty_root(temp24.times)
        omega = root.T @ root
        np.testing.assert_allclose(omega, omega.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(omega)
        assert eigs.min() > -1e-8 * max(eigs.max(), 1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_smoothing_spline(Series([1.0, 2.0, 3.0]), 0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_smoothing_spline(Series(GENERIC_Y), -1.0)

    @pytest.mark.parametrize("lam", [1e308, sys.float_info.max])
    def test_largest_lambdas_give_the_least_squares_line(self, wind, wind24, capfd, lam):
        y = Series(GENERIC_Y)
        probes = np.array([-3.0, 1.0, 2.5, 4.0, 6.0, 11.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_smoothing_spline(y, lam)
            row, = compare(wind, [{"name": "spline", "smooth_lambda": lam}], Band(1.0, 3.0))
        np.testing.assert_allclose(fit.predict(probes), fit_polynomial(y, 1).predict(probes),
                                   rtol=0, atol=1e-14)
        line = fit_polynomial(wind24, 1).predict(wind24.times)
        assert row.error is None
        assert row.train_rmse == pytest.approx(
            float(np.sqrt(np.mean((line - wind24.values) ** 2))), rel=1e-14)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("n_knots", [168, 400])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 9.0])
    def test_long_windows_match_scipys_b_spline_smoother(self, n_knots, lam):
        # make_smoothing_spline minimizes the same functional in a B-spline basis.
        t = np.arange(1.0, n_knots + 1.0)
        y = 4.0 * np.sin(2.0 * np.pi * t / 24.0) + np.random.default_rng(1).normal(0.0, 0.5, n_knots)
        probes = np.concatenate([t, t[:-1] + 0.5])
        fit = fit_smoothing_spline(Series(y), lam)
        oracle = make_smoothing_spline(t, y, lam=lam)
        np.testing.assert_allclose(fit.predict(probes), oracle(probes), rtol=0,
                                   atol=1e-7 if n_knots == 168 else 1e-5)

    def test_a_rank_refusal_names_the_knots_and_lambda(self):
        values = 4.0 * np.sin(2.0 * np.pi * np.arange(900) / 24.0)
        with pytest.raises(SingularSystemError) as err:
            fit_smoothing_spline(Series(values), 0.0)
        assert str(err.value).startswith("smoothing spline on 900 knots, smooth_lambda=0.0: "
                                         "rank-deficient system: 3597x900 design, ")

    def test_a_long_interpolating_window_interpolates(self):
        # 400 hourly knots at lambda = 0: X'X has condition number about 4e20,
        # which Cholesky refuses; the scaled stacked system does not square it.
        values = 4.0 * np.sin(2.0 * np.pi * np.arange(424) / 24.0)
        fit = fit_smoothing_spline(Series(values[:400]), 0.0)
        np.testing.assert_allclose(fit.predict(fit.knots), values[:400], rtol=0, atol=1e-7)
        row, = compare(Series(values), [{"name": "spline", "smooth_lambda": 0.0}],
                       Band(1.0, 3.0), train_samples=400)
        assert row.error is None
        assert row.train_rmse < 1e-7


class TestKernelRegression:
    def test_constant_targets_predict_the_constant(self):
        s = Series([4.2] * 6)
        cfg = KernelConfig(bandwidth=1.3)
        for x in (0.0, 3.5, 9.0):
            assert kernel_predict(s, cfg, x) == 4.2

    def test_antisymmetric_targets_cancel_at_center(self):
        # Points at times -1, 0, 1 with values -1, 0, 1: the weighted average
        # at 0 cancels exactly, at any bandwidth.
        trio = Series([-1.0, 0.0, 1.0], t0=-1)
        for lam in (0.3, 1.0, 5.0):
            assert kernel_predict(trio, KernelConfig(lam), 0.0) == pytest.approx(0.0, abs=1e-12)
        # Same cancellation for a pure pair, probed at its midpoint.
        pair = Series([-1.0, 1.0], t0=0)
        assert kernel_predict(pair, KernelConfig(0.7), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_huge_bandwidth_returns_global_mean(self, wind24):
        cfg = KernelConfig(bandwidth=1e6)
        mean = float(wind24.values.mean())
        for x in (1.0, 12.0, 24.0, 40.0):
            assert kernel_predict(wind24, cfg, x) == pytest.approx(mean, abs=1e-6)

    def test_prediction_is_convex_combination(self, temp24):
        cfg = KernelConfig(bandwidth=2.0)
        lo, hi = temp24.values.min(), temp24.values.max()
        for x in np.linspace(-5, 35, 41):
            p = kernel_predict(temp24, cfg, x)
            assert lo <= p <= hi

    def test_boundary_bias_exceeds_interior_bias(self):
        target = make_sine(1, 100, 100, 0)
        cfg = KernelConfig(bandwidth=4.0)
        err_edge = abs(kernel_predict(target, cfg, 100.0) - target.values[99])
        err_mid = abs(kernel_predict(target, cfg, 50.0) - target.values[49])
        assert err_edge > err_mid

    def test_no_support_far_away(self):
        s = Series([1.0, 2.0, 3.0])
        with pytest.raises(NoSupportError):
            kernel_predict(s, KernelConfig(bandwidth=0.5), 1e6)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [1e-320, 1e-300])
    def test_distances_past_the_float_range_fail_the_row_quietly(self, wind, capfd, bandwidth):
        row, = compare(wind, [{"name": "kernel", "bandwidth": bandwidth}], Band(1.0, 3.0))
        assert row.error == (f"no kernel support at x=25.0 (all weights underflowed; "
                             f"bandwidth={bandwidth})")
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("bandwidth", [2.0, 10.0, 100.0])
    def test_a_constant_series_at_the_bound_is_an_ok_row(self, bandwidth):
        # The weighted mean of 1e150s can round one ulp past 1e150, and so
        # past the rule of every Series; the estimate keeps to the data range.
        row, = compare(Series(np.full(48, 1e150)), [{"name": "kernel", "bandwidth": bandwidth}],
                       Band(1.0, 3.0))
        assert (row.error, row.train_rmse, row.inner_run, row.outer_run) == (None, 0.0, 24, 24)

