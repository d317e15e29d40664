import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from daycast.arima import (_UNIT_ROOT_TOL, ArimaModel, ArimaOrder, _center_of,
                           _min_root_magnitude, _operators, _yule_walker, acf_pacf,
                           css_estimate, difference, expand_polynomials, forecast)
from daycast.errors import DaycastError, ZeroVarianceError
from daycast.series import Series, make_sine


def model_of(order, phi=(), theta=(), sphi=(), stheta=(), **kw):
    return ArimaModel(order, np.array(phi, dtype=float), np.array(theta, dtype=float),
                      np.array(sphi, dtype=float), np.array(stheta, dtype=float), **kw)


class InstabilityError(DaycastError):
    """An autoregressive polynomial has roots on or inside the unit circle."""


def simulate(model: ArimaModel, n: int, seed: int) -> Series:
    """Draw a sample path; deterministic for a fixed seed.

    Shocks are i.i.d. Gaussian with variance sigma2, filtered through
    the model after a discarded burn-in. Stationary models (d = D = 0)
    must have all AR roots outside the unit circle.
    """
    order = model.order
    ar, ma = _operators(order, model.phi, model.theta, model.sphi, model.stheta)
    if order.d + order.D == 0 and _min_root_magnitude(ar) <= 1.0 + _UNIT_ROOT_TOL:
        raise InstabilityError(
            "AR root on or inside the unit circle; a stationary simulation would diverge"
        )
    burn = 100 + 10 * (len(ar) + len(ma))
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(n + burn) * np.sqrt(model.sigma2)
    z = lfilter(ma, ar, shocks)[burn:] + _center_of(model, ar)
    for _ in range(order.D):
        out = z.copy()
        for t in range(order.s, len(out)):
            out[t] += out[t - order.s]
        z = out
    for _ in range(order.d):
        z = np.cumsum(z)
    return Series(z, t0=1)


def sympy_expansion(phi, theta, sphi, stheta, d, D, s):
    """Independent oracle: multiply the operator polynomials symbolically."""
    B = sympy.symbols("B")
    ar = (1 - sum(sympy.Rational(str(c)) * B**i for i, c in enumerate(phi, 1))) \
        * (1 - sum(sympy.Rational(str(c)) * B**(i * s) for i, c in enumerate(sphi, 1))) \
        * (1 - B)**d * (1 - B**s)**D
    ma = (1 - sum(sympy.Rational(str(c)) * B**i for i, c in enumerate(theta, 1))) \
        * (1 - sum(sympy.Rational(str(c)) * B**(i * s) for i, c in enumerate(stheta, 1)))
    def coeffs(expr, degree):
        p = sympy.Poly(sympy.expand(expr), B)
        return np.array([-float(p.coeff_monomial(B**k)) for k in range(1, degree + 1)])
    ar_deg = len(phi) + s * len(sphi) + d + s * D
    ma_deg = len(theta) + s * len(stheta)
    return coeffs(ar, ar_deg), coeffs(ma, ma_deg)


class TestDifference:
    def test_first_difference(self):
        out = difference(Series([1.0, 4.0, 9.0]), 1)
        np.testing.assert_allclose(out.values, [3.0, 5.0])
        assert out.t0 == 2

    def test_seasonal_difference(self):
        out = difference(Series([1.0, 2.0, 3.0, 4.0]), 0, D=1, s=2)
        np.testing.assert_allclose(out.values, [2.0, 2.0])
        assert out.t0 == 3

    def test_identity(self):
        s = Series([5.0, 6.0])
        out = difference(s, 0)
        np.testing.assert_array_equal(out.values, s.values)

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference(Series([1.0, 2.0]), 2)

    @pytest.mark.parametrize("d, D, s", [(-1, 0, 0), (0, -1, 2), (0, 1, 0), (0, 1, 1)])
    def test_bad_orders_rejected(self, d, D, s):
        with pytest.raises(ValueError, match="need d, D >= 0 and s >= 2 when D > 0"):
            difference(Series([1.0, 2.0, 3.0, 4.0]), d, D, s)


class TestExpandPolynomials:
    def test_ar1_with_one_difference(self):
        a = 0.7
        model = model_of(ArimaOrder(1, 1, 0, 0, 0, 0, 0), phi=(a,))
        form = expand_polynomials(model)
        np.testing.assert_allclose(form.ar_full, [a + 1.0, -a])
        assert form.ma_full.size == 0

    def test_multiplicative_seasonal_product(self):
        a, b = 0.5, 0.3
        model = model_of(ArimaOrder(1, 0, 0, 1, 0, 0, 24),
                         phi=(a,), sphi=(b,))
        form = expand_polynomials(model)
        expected = np.zeros(25)
        expected[0], expected[23], expected[24] = a, b, -a * b
        np.testing.assert_allclose(form.ar_full, expected)

    def test_empty_model(self):
        form = expand_polynomials(model_of(ArimaOrder(0, 0, 0, 0, 0, 0, 0)))
        assert form.ar_full.size == 0 and form.ma_full.size == 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_symbolic_oracle(self, data):
        small = st.decimals(min_value=-1, max_value=1, places=2).map(float)
        phi = data.draw(st.lists(small, max_size=2))
        theta = data.draw(st.lists(small, max_size=2))
        sphi = data.draw(st.lists(small, max_size=1))
        stheta = data.draw(st.lists(small, max_size=1))
        d = data.draw(st.integers(0, 2))
        D = data.draw(st.integers(0, 1))
        s = data.draw(st.sampled_from([2, 4, 12]))
        model = model_of(ArimaOrder(len(phi), d, len(theta), len(sphi), D, len(stheta), s),
                         phi=phi, theta=theta, sphi=sphi, stheta=stheta)
        form = expand_polynomials(model)
        ar_oracle, ma_oracle = sympy_expansion(phi, theta, sphi, stheta, d, D, s)
        np.testing.assert_allclose(form.ar_full, ar_oracle, atol=1e-12)
        np.testing.assert_allclose(form.ma_full, ma_oracle, atol=1e-12)


class TestYuleWalker:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_toeplitz_system_matches_scipy_bit_for_bit(self, p, monkeypatch):
        solve = np.linalg.solve
        systems = []

        def spy(a, b):
            systems.append((a, b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        rng = np.random.default_rng(p)
        for _ in range(20):
            coeffs = _yule_walker(rng.standard_normal(60), p)
            a, r = systems.pop()
            reference = toeplitz(np.concatenate([[1.0], r[:-1]]))
            assert a.tobytes() == reference.tobytes()
            assert coeffs.tobytes() == solve(reference, r).tobytes()


class TestCssEstimate:
    def test_noiseless_ar1_identified(self):
        # Long series: the sample-mean centering bias shrinks with length.
        y = 0.5 ** np.arange(2000)
        model = css_estimate(Series(y), ArimaOrder(1, 0, 0, 0, 0, 0, 0))
        assert model.phi[0] == pytest.approx(0.5, abs=1e-6)

    def test_sine_ar2_matches_trig_recurrence(self):
        # sin(w t) = 2 cos(w) sin(w (t-1)) - sin(w (t-2)) exactly.
        model = css_estimate(make_sine(1, 100, 100, 0), ArimaOrder(2, 0, 0, 0, 0, 0, 0))
        assert model.phi[0] == pytest.approx(2 * np.cos(2 * np.pi / 100), abs=1e-4)
        assert model.phi[1] == pytest.approx(-1.0, abs=1e-4)
        assert any("unit circle" in w for w in model.warnings)

    def test_ma1_recovered_from_simulation(self):
        truth = model_of(ArimaOrder(0, 0, 1, 0, 0, 0, 0), theta=(0.4,), sigma2=1.0)
        sim = simulate(truth, 5000, seed=2024)
        model = css_estimate(sim, ArimaOrder(0, 0, 1, 0, 0, 0, 0))
        assert 0.33 <= model.theta[0] <= 0.47

    def test_objective_trace_is_monotone(self, wind):
        order = ArimaOrder(0, 0, 3, 1, 1, 0, 24)
        model = css_estimate(wind, order)
        trace = np.array(model.fit_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            css_estimate(Series([1.0, 2.0, 3.0]), ArimaOrder(2, 0, 2, 0, 0, 0, 0))

    def test_explicit_init_is_respected(self):
        y = make_sine(1, 100, 100, 0)
        model = css_estimate(y, ArimaOrder(2, 0, 0, 0, 0, 0, 0),
                             init=[2 * np.cos(2 * np.pi / 100), -1.0])
        assert model.phi[1] == pytest.approx(-1.0, abs=1e-6)

    def test_budget_exhaustion_carries_best_model(self):
        from daycast.errors import EstimationError
        y = make_sine(1, 100, 100, 0)
        with pytest.raises(EstimationError) as err:
            css_estimate(y, ArimaOrder(2, 0, 0, 0, 0, 0, 0), init=[0.0, 0.0], max_iterations=3)
        assert err.value.model is not None
        assert err.value.model.phi.shape == (2,)
        assert err.value.objective is not None and err.value.objective >= 0.0


class TestForecast:
    def test_ar1_geometric_decay(self):
        model = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(0.5,), mu=0.0)
        out = forecast(model, Series([1.0, 2.0, 4.0]), 3)
        np.testing.assert_allclose(out.values, [2.0, 1.0, 0.5])
        assert out.t0 == 4

    def test_random_walk_holds_last_value(self):
        model = model_of(ArimaOrder(0, 1, 0, 0, 0, 0, 0))
        out = forecast(model, Series([3.0, 5.0, 6.0, 7.0]), 5)
        np.testing.assert_allclose(out.values, np.full(5, 7.0))

    def test_sine_next_period_mse_below_1e10(self):
        train = make_sine(1, 100, 100, 0)
        model = css_estimate(train, ArimaOrder(2, 0, 0, 0, 0, 0, 0))
        out = forecast(model, train, 100)
        target = np.sin(2 * np.pi * np.arange(101, 201) / 100)
        mse = float(np.mean((out.values - target) ** 2))
        assert mse < 1e-10

    def test_lead_one_equals_hand_unrolled_difference_equation(self):
        # AR(2) with an MA(1) term: unroll one step by hand.
        model = model_of(ArimaOrder(2, 0, 1, 0, 0, 0, 0), phi=(0.6, -0.2), theta=(0.3,), mu=1.0)
        hist = Series([1.1, 0.6, 1.4, 0.8, 1.3, 0.9, 1.2, 1.05, 0.95, 1.0])
        z = hist.values - model.mu
        a = np.zeros(len(z))
        for t in range(len(z)):
            zm1 = z[t - 1] if t >= 1 else 0.0
            zm2 = z[t - 2] if t >= 2 else 0.0
            am1 = a[t - 1] if t >= 1 else 0.0
            a[t] = z[t] - 0.6 * zm1 + 0.2 * zm2 + 0.3 * am1
        by_hand = model.mu + 0.6 * z[-1] - 0.2 * z[-2] - 0.3 * a[-1]
        out = forecast(model, hist, 1)
        assert out.values[0] == pytest.approx(by_hand, abs=1e-12)

    def test_drift_model_continues_linear_trend(self):
        trend = Series(np.arange(1.0, 41.0) * 2.5 + 3.0)
        model = model_of(ArimaOrder(0, 1, 0, 0, 0, 0, 0), theta0=2.5)
        out = forecast(model, trend, 10)
        expected = trend.values[-1] + 2.5 * np.arange(1, 11)
        np.testing.assert_allclose(out.values, expected, atol=1e-8)

    def test_insufficient_history(self):
        model = model_of(ArimaOrder(0, 0, 0, 1, 0, 0, 24), sphi=(0.5,))
        with pytest.raises(ValueError):
            forecast(model, Series([1.0, 2.0, 3.0]), 2)


class TestAcfPacf:
    def test_lag_zero_is_one(self, wind):
        acf, pacf = acf_pacf(wind, 10)
        assert acf[0] == 1.0 and pacf[0] == 1.0

    def test_ar1_signature(self):
        truth = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(0.6,), sigma2=1.0)
        sim = simulate(truth, 20000, seed=99)
        acf, pacf = acf_pacf(sim, 5)
        assert 0.55 <= acf[1] <= 0.65          # theory: acf(1) = phi
        assert abs(pacf[2]) <= 0.05            # theory: pacf cuts off after lag 1

    def test_alternating_series(self):
        n = 100
        s = Series([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        acf, _ = acf_pacf(s, 1)
        assert acf[1] == pytest.approx(-1.0, abs=2.0 / n)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 120), walk=st.booleans(),
           data=st.data())
    def test_pacf_is_the_last_yule_walker_coefficient(self, seed, n, walk, data):
        x = np.random.default_rng(seed).standard_normal(n)
        max_lag = data.draw(st.integers(1, n - 1))
        acf, pacf = acf_pacf(Series(x.cumsum() if walk else x), max_lag)
        for k in range(1, max_lag + 1):
            phi = np.linalg.solve(toeplitz(acf[:k]), acf[1:k + 1])
            assert pacf[k] == pytest.approx(phi[-1], abs=1e-10)

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            acf_pacf(Series([2.0] * 10), 3)

    def test_max_lag_bounds(self):
        with pytest.raises(ValueError):
            acf_pacf(Series([1.0, 2.0, 3.0]), 3)


class TestSimulate:
    def test_degenerate_model_is_constant(self):
        model = model_of(ArimaOrder(0, 0, 0, 0, 0, 0, 0), sigma2=0.0, mu=3.25)
        out = simulate(model, 10, seed=1)
        np.testing.assert_allclose(out.values, np.full(10, 3.25))

    def test_deterministic_given_seed(self):
        model = model_of(ArimaOrder(1, 0, 1, 0, 0, 0, 0), phi=(0.5,), theta=(0.2,), sigma2=2.0)
        a = simulate(model, 200, seed=42)
        b = simulate(model, 200, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_ar1_variance_matches_theory(self):
        model = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(0.5,), sigma2=1.0)
        out = simulate(model, 10000, seed=7)
        assert 1.2 <= float(np.var(out.values)) <= 1.5   # theory: 1/(1-0.25) = 4/3

    def test_explosive_ar_rejected(self):
        model = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(1.5,), sigma2=1.0)
        with pytest.raises(InstabilityError):
            simulate(model, 100, seed=0)

    def test_noiseless_drift_integrates_to_linear_trend(self):
        model = model_of(ArimaOrder(0, 1, 0, 0, 0, 0, 0), sigma2=0.0, theta0=2.5)
        out = simulate(model, 8, seed=0)
        np.testing.assert_allclose(out.values, 2.5 * np.arange(1, 9))

    def test_seasonal_path_differences_back_to_its_stationary_draw(self):
        # (1 - B)(1 - B^24) undoes both integrations, so from index 25 on the
        # differenced (1,1,0)(0,1,0)24 path is the (1,0,0) draw of the same seed.
        seasonal = model_of(ArimaOrder(1, 1, 0, 0, 1, 0, 24), phi=(0.6,), sigma2=1.0)
        stationary = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(0.6,), sigma2=1.0)
        path = difference(simulate(seasonal, 200, seed=5), 1, D=1, s=24)
        draw = simulate(stationary, 200, seed=5)
        np.testing.assert_allclose(path.values, draw.values[25:], rtol=0, atol=1e-12)


class TestTableTwoSeasonalOrders:
    """End-to-end estimation and forecasting for each published seasonal order.

    Each order gets three days of synthetic data matching its model
    class (the double-differencing order carries a trend component);
    training uses two days, the third is forecast.
    """

    CASES = {
        "wind": (ArimaOrder(0, 0, 3, 1, 1, 0, 24), 0.0, 11),
        "temperature": (ArimaOrder(2, 2, 0, 0, 1, 0, 24), 0.08, 7),
        "irradiance": (ArimaOrder(0, 0, 1, 1, 1, 1, 24), 0.0, 11),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_fit_and_forecast_daily_pattern(self, label):
        order, slope, seed = self.CASES[label]
        rng = np.random.default_rng(seed)
        profile = 10.0 + 5.0 * np.sin(2 * np.pi * np.arange(24) / 24)
        noise = 0.05 if slope else 0.3
        data = slope * np.arange(72) + np.tile(profile, 3) + rng.normal(0, noise, 72)
        train = Series(data[:48], t0=1, period_hint=24)
        model = css_estimate(train, order)
        out = forecast(model, train, 24)
        assert np.all(np.isfinite(out.values))
        # The daily structure must carry into the forecast day.
        err = float(np.sqrt(np.mean((out.values - data[48:]) ** 2)))
        assert err < 1.0, f"{label}: forecast RMSE {err:.3f}"
