import json
import math
import re
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from daycast import arima
from daycast.arima import (_UNIT_ROOT_TOL, ArimaModel, ArimaOrder, _min_factor_root_magnitude,
                           _min_root_magnitude, _operators, _split_params, _yule_walker, acf_pacf,
                           css_estimate, difference, expand_polynomials, forecast)
from daycast.cli import run_cli
from daycast.config import validate_config
from daycast.errors import DaycastError, EstimationError, ZeroVarianceError
from daycast.evalharness import Band, compare
from daycast.series import Series, make_sine

# The training window of the ARIMA byte oracles: two days of hourly samples,
# the window of the builtin ARIMA configs. A three-day case adds one day.
TRAIN_SAMPLES = 48


def model_of(order, phi=(), theta=(), sphi=(), stheta=(), **kw):
    return ArimaModel(order, np.array(phi, dtype=float), np.array(theta, dtype=float),
                      np.array(sphi, dtype=float), np.array(stheta, dtype=float), **kw)


class InstabilityError(DaycastError):
    """An autoregressive polynomial has roots on or inside the unit circle."""


def simulate(model: ArimaModel, n: int, seed: int) -> Series:
    """Draw a sample path; deterministic for a fixed seed.

    Shocks are i.i.d. Gaussian with variance sigma2, filtered through
    the model after a discarded burn-in; the differenced path moves
    around model.mu. Stationary models (d = D = 0) must have all AR
    roots outside the unit circle.
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
    z = lfilter(ma, ar, shocks)[burn:] + model.mu
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


def convolve_operators(order, phi, theta, sphi, stheta):
    """Reference: both operator products multiplied out by np.convolve."""
    def op_poly(coeffs, s=1):
        out = np.zeros(len(coeffs) * s + 1)
        out[0] = 1.0
        out[s::s] = -np.asarray(coeffs, dtype=float)
        return out

    s = max(order.s, 1)
    return (np.convolve(op_poly(phi), op_poly(sphi, s)),
            np.convolve(op_poly(theta), op_poly(stheta, s)))


def random_operator_case(seed):
    """A random (p, 0, q)(P, 0, Q)s order, p and q on both sides of s, and its parameters.

    The parameters are drawn at one of the scales 1e-8, 1 and 1e3, and
    about a third of them are replaced by exact 0.0 or -0.0.
    """
    rng = np.random.default_rng(seed)
    s = int(rng.choice([0, 2, 3, 4, 7, 12, 24]))
    p, q = (int(rng.integers(0, max(s, 1) + 3)) for _ in range(2))
    P, Q = (int(rng.integers(0, 3)) if s else 0 for _ in range(2))
    order = ArimaOrder(p, 0, q, P, 0, Q, s)
    params = rng.standard_normal(order.n_params) * (1e-8, 1.0, 1e3)[seed % 3]
    zeros = rng.random(order.n_params) < 0.3
    params[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return order, params


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

    def test_a_difference_beyond_the_bound_names_the_differencing(self):
        # Samples within +/-1e150 can differ by 2e150; the Series check
        # would refuse that too, but name neither the orders nor the model.
        with pytest.raises(ValueError) as err:
            difference(Series([1e150, -1e150, 1e150, 0.0], t0=5), 1)
        assert str(err.value) == "the (d = 1, D = 0) difference is beyond +/-1e150 at t = 6"
        row, = compare(make_sine(1e150, 4, 48), [{"name": "arima", "p": 0, "d": 2, "q": 0,
                       "P": 0, "D": 0, "Q": 0, "s": 0, "train_periods": 1}], Band(1.0, 2.0))
        assert row.error == "the (d = 2, D = 0) difference is beyond +/-1e150 at t = 4"


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


class TestOperatorsMatchConvolve:
    """_operators equals np.convolve byte for byte, signed zeros included.

    _operators calls np.convolve itself, so these tests pin it to the
    reference: a term-by-term fast path would have to pass them again.
    Only finite parameters are covered: with NaN or infinite ones a
    term-by-term product and np.convolve may differ in the sign bit of a
    NaN, and in the inf * 0 cross terms that np.convolve adds up.
    """

    @staticmethod
    def assert_same_bytes(order, params):
        split = _split_params(params, order)
        for got, want in zip(_operators(order, *split), convolve_operators(order, *split)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(300))
    def test_random_orders_and_scales(self, seed):
        self.assert_same_bytes(*random_operator_case(seed))

    @pytest.mark.parametrize("order", [
        ArimaOrder(0, 0, 3, 1, 1, 0, 24), ArimaOrder(2, 2, 0, 0, 1, 0, 24),
        ArimaOrder(0, 0, 1, 1, 1, 1, 24), ArimaOrder(3, 0, 2, 2, 0, 1, 2),
        ArimaOrder(1, 0, 4, 1, 0, 2, 3), ArimaOrder(2, 0, 1, 0, 0, 0, 0),
    ], ids=str)
    @pytest.mark.parametrize("fill", ["+0", "-0", "mixed"])
    def test_exact_zero_parameters(self, order, fill):
        # The all-zero start of a moving-average fit: a bare -c would write -0.0.
        values = {"+0": [0.0], "-0": [-0.0], "mixed": [0.0, -0.0, 0.5, -0.0, 2.0]}[fill]
        params = np.resize(np.array(values), order.n_params)
        self.assert_same_bytes(order, params)

    def test_the_random_orders_reach_both_sides_of_s(self):
        sides = set()
        for seed in range(300):
            order, _ = random_operator_case(seed)
            sides.add((order.p < max(order.s, 1), order.q < max(order.s, 1), order.s == 0))
        assert len(sides) == 8


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

    def test_an_overflowing_sum_of_squares_is_inf_without_a_warning(self):
        # Every shock is finite and their squares overflow: the objective is
        # inf, as before, and numpy's overflow flag is not raised as a warning.
        train = TestSimplexMatchesScipy.series("temperature", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError) as err:
                css_estimate(train, ArimaOrder(2, 2, 0, 0, 1, 0, 24), init=[1e200, 1e200],
                             max_iterations=5)
        assert err.value.objective == math.inf
        assert err.value.model.fit_trace == (1e300, 1e300, 1e300)

    @pytest.mark.parametrize("order, want", [
        (ArimaOrder(3, 0, 1, 1, 0, 0, 2), ("AR polynomial is not finite", "MA polynomial has a "
                                           "root on or inside the unit circle (non-invertible)")),
        (ArimaOrder(1, 0, 3, 0, 0, 1, 2), ("AR polynomial has a root on or inside the unit "
                                           "circle (non-stationary)", "MA polynomial is not finite"))])
    def test_an_infinite_operator_product_is_a_model_warning(self, temp, order, want):
        # 1e200 * 1e200 overflows a coefficient of the np.convolve product.
        with pytest.raises(EstimationError) as err:
            css_estimate(temp, order, init=[1e200] * 5, max_iterations=3)
        assert err.value.model.warnings == want

    def test_a_zero_parameter_order_is_the_seasonal_naive_forecast(self):
        # (0,0,0)(0,1,0)24 has nothing to estimate: the objective is the sum of
        # squared seasonal differences, and each forecast repeats a day ago.
        order = ArimaOrder(0, 0, 0, 0, 1, 0, 24)
        rng = np.random.default_rng(3)
        series = Series(4.0 * np.sin(2 * np.pi * np.arange(72) / 24) + rng.normal(0, 0.5, 72))
        z = difference(series, 0, 1, 24).values
        model = css_estimate(series, order)
        assert model.fit_trace == (np.vdot(z, z),)
        assert model.sigma2 * 48 == model.fit_trace[0]
        ahead = forecast(model, series, 24)
        assert ahead.values.tobytes() == series.values[-24:].tobytes()
        block = {"name": "arima", "p": 0, "d": 0, "q": 0, "P": 0, "D": 1, "Q": 0, "s": 24,
                 "train_periods": 2}
        row, = compare(series, [block], Band(1.0, 3.0))
        assert row.ok, row.error

    @pytest.mark.parametrize("n", [TRAIN_SAMPLES, TRAIN_SAMPLES + 24])
    def test_a_fit_does_not_depend_on_the_unit(self, n):
        # The table2_wind order on one sine in m/s, km/h and mph: the simplex
        # stops on a tolerance that scales with the objective, so every unit
        # fits, to the same coefficients and to sigma2 scaled by k^2.
        order = ArimaOrder(0, 0, 3, 1, 1, 0, 24)
        fits = [(k, css_estimate(make_sine(3 * k, 17, n), order)) for k in (1, 3.6, 2.237)]
        _, base = fits[0]
        for k, model in fits[1:]:
            assert model.sigma2 / k**2 == pytest.approx(base.sigma2, rel=1e-12)
            for name in ("theta", "sphi"):
                np.testing.assert_allclose(getattr(model, name), getattr(base, name), atol=1e-6)

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_non_positive_budget_rejected(self, max_iterations):
        with pytest.raises(ValueError, match=f"max_iterations must be >= 1, got {max_iterations}"):
            css_estimate(make_sine(1, 100, 100, 0), ArimaOrder(2, 0, 0, 0, 0, 0, 0),
                         max_iterations=max_iterations)


class TestFitMatchesConvolveOperators:
    """css_estimate then forecast give the same bytes with the np.convolve operators.

    _operators reaches the model that css_estimate builds (its root checks)
    and forecast; the CSS objective computes its coefficients itself, and
    TestObjectiveMatchesLfilter checks it. _operators is the np.convolve
    product, so this pins any future fast path of it to the reference.
    """

    ORDER = ArimaOrder(0, 0, 3, 1, 1, 0, 24)  # table2_wind

    @classmethod
    def fit(cls, train, **kw):
        try:
            model, message = css_estimate(train, cls.ORDER, **kw), None
        except EstimationError as err:
            model, message = err.model, str(err)
        arrays = (model.phi, model.theta, model.sphi, model.stheta, np.array([model.sigma2]),
                  np.array(model.fit_trace))
        return model, ([a.tobytes() for a in arrays], model.warnings, message)

    @classmethod
    def fit_and_forecast(cls, train, **kw):
        model, fitted = cls.fit(train, **kw)
        return fitted, forecast(model, train, 24).values.tobytes()

    @staticmethod
    def series(seed):
        rng = np.random.default_rng(seed)
        profile = 6.0 + 3.0 * np.sin(2 * np.pi * (np.arange(24) + rng.uniform(0, 24)) / 24)
        noise = rng.normal(0, rng.uniform(0.2, 2.0), TRAIN_SAMPLES)
        return Series(np.tile(profile, TRAIN_SAMPLES // 24) + noise, t0=1, period_hint=24)

    @pytest.mark.parametrize("max_iterations", [None, 15])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bytes(self, seed, max_iterations, monkeypatch):
        train = self.series(seed)
        fast = self.fit_and_forecast(train, max_iterations=max_iterations)
        monkeypatch.setattr(arima, "_operators", convolve_operators)
        assert self.fit_and_forecast(train, max_iterations=max_iterations) == fast
        (_, _, message), _ = fast
        if max_iterations is not None:
            assert message.startswith("CSS simplex did not converge within 15 iterations")

    def test_non_finite_start_scores_1e300(self, monkeypatch):
        train, init = self.series(0), [1e20, 1e20, 1e20, 0.0]
        model, fast = self.fit(train, init=init, max_iterations=20)
        assert model.fit_trace[0] == 1e300
        monkeypatch.setattr(arima, "_operators", convolve_operators)
        assert self.fit(train, init=init, max_iterations=20)[1] == fast


class TestUnitRootsPerFactor:
    """The unit-root check reads each factor's roots, not the product's.

    c(B) C(B^s) has c's roots and the s-th roots of C's, so the smallest
    root magnitude of the product follows from two small companion
    matrices. The product's np.roots is the reference.
    """

    @staticmethod
    def warns(magnitude):
        return magnitude <= 1.0 + _UNIT_ROOT_TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_random_factors_match_the_product(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            c, C = (rng.uniform(-2.0, 2.0, rng.integers(0, 4)) for _ in range(2))
            s = int(rng.integers(2, 25))
            got = _min_factor_root_magnitude(c, C, s)
            want = _min_root_magnitude(arima._product(c, C, s))
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (c, C, s)
            assert self.warns(got) == self.warns(want), (c, C, s)

    @pytest.mark.parametrize("c, C, warns", [
        ([], [1.0], True), ([], [-1.0], True), ([0.5], [1.0], True), ([0.5], [-1.0], True),
        ([1.0], [], True), ([1.0], [0.3], True), ([], [0.0], False), ([0.5], [0.0], False),
        ([0.0], [0.0], False), ([], [], False)])
    @pytest.mark.parametrize("s", [2, 7, 24])
    def test_exact_unit_and_zero_coefficients(self, c, C, s, warns):
        # Phi = +/-1 and theta_1 = 1 put a root on the unit circle; a zero
        # coefficient adds none, so that factor has no root at all.
        got = _min_factor_root_magnitude(c, C, s)
        assert self.warns(got) == self.warns(_min_root_magnitude(arima._product(c, C, s))) == warns

    @pytest.mark.parametrize("order", [ArimaOrder(0, 0, 3, 1, 1, 0, 24),   # table2_wind
                                       ArimaOrder(0, 0, 1, 1, 1, 1, 24)])  # table2_irradiance
    def test_a_fit_never_roots_the_product(self, order, monkeypatch):
        # np.roots runs on a factor of degree 2 or more (wind's theta), never
        # on a product; a degree-1 root (all of irradiance's) is in closed form.
        sizes = []
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: sizes.append(len(p)) or roots(p))
        for seed in range(3):
            try:
                css_estimate(TestFitMatchesConvolveOperators.series(seed), order)
            except EstimationError:
                pass
        monkeypatch.undo()
        assert bool(sizes) == (max(order.p, order.q, order.P, order.Q) >= 2)
        assert max(sizes, default=0) <= max(order.p, order.q, order.P, order.Q) + 1


def trim_zeros_roots(poly):
    """Reference for arima._min_root_magnitude: np.trim_zeros, then np.roots at every degree."""
    trimmed = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    if len(trimmed) <= 1:
        return np.inf
    return float(np.min(np.abs(np.roots(trimmed[::-1]))))


def reversed_roots(poly):
    """Reference for an overflowing companion matrix: the reversed polynomial's
    roots are the reciprocals of poly's, and a zero constant is a root at 0."""
    trimmed = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    if trimmed[0] == 0:
        return 0.0
    with np.errstate(divide="ignore"):  # reciprocals that all underflowed: a root past the range
        return float(1.0 / np.max(np.abs(np.roots(trimmed))))


class TestRootHelperMatchesNpRoots:
    """_min_root_magnitude has the bits of np.trim_zeros and np.roots, with a closed-form degree 1.

    np.roots's root of a degree-1 polynomial is the eigenvalue of its 1x1
    companion matrix, and LAPACK returns that entry unchanged unless it has
    to scale it. Either way the unit-root warning, a comparison with
    1 + 1e-8, is the same. From degree 2 on, where np.roots's companion
    matrix would overflow, the helper roots the reversed polynomial.
    """

    VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308, 1e300, -1e300, 1.0, -1.0, 0.5, -3.0]

    @staticmethod
    def outcome(helper, poly):
        with np.errstate(all="ignore"):
            try:
                return np.float64(helper(poly)).tobytes()
            except np.linalg.LinAlgError:  # np.roots of a companion matrix that overflowed
                return "LinAlgError"

    @pytest.mark.parametrize("degree", range(4))
    def test_same_bits_as_trim_zeros_and_roots(self, degree):
        rng = np.random.default_rng(degree)
        overflowed = rescaled = reversed_ = 0
        for _ in range(3000):
            poly = np.where(rng.random(degree + 1) < 0.5, rng.choice(self.VALUES, degree + 1),
                            rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-5, 6))
            if rng.random() < 0.5:
                poly[0] = 1.0  # an operator factor 1 - c1 B - c2 B^2 - ...
            got = self.outcome(_min_root_magnitude, poly)
            want = self.outcome(trim_zeros_roots, poly)
            if want == "LinAlgError" and len(np.trim_zeros(poly, "b")) > 2:
                want = self.outcome(reversed_roots, poly)
                reversed_ += 1
            if got == want or len(np.trim_zeros(poly, "b")) != 2:
                assert got == want, poly
            elif want == "LinAlgError":
                # -poly[0] / poly[1] overflows: the root lies beyond the float range.
                assert got == np.float64(np.inf).tobytes(), poly
                overflowed += 1
            else:
                # LAPACK scales a matrix whose entries lie outside about
                # [6.7e-139, 1.5e138] and may round the last bit on the way back.
                g, w = np.frombuffer(got)[0], np.frombuffer(want)[0]
                assert not 1e-138 <= w <= 1e138 and abs(g - w) <= np.spacing(w), poly
                rescaled += 1
        assert (overflowed > 0 and rescaled > 0) or degree != 1
        assert reversed_ > 0 or degree < 2

    def test_an_overflowing_companion_matrix_roots_the_reversed_polynomial(self):
        # np.roots([-1e-320, -0.5, 1]) would divide 0.5 by 1e-320 and overflow.
        assert _min_root_magnitude(arima._op_poly([0.5, 1e-320])) == 2.0

    def test_a_tiny_last_ma_coefficient_stops_the_fit_by_name(self):
        # This fit used to warn of an overflow in np.roots, then raise
        # numpy's LinAlgError from the unit-root check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError) as err:
                css_estimate(make_sine(1, 24, 48), ArimaOrder(0, 0, 2, 0, 0, 0, 0),
                             init=[0.5, 1e-320], max_iterations=1)
        assert err.value.model.warnings == ()

    @pytest.mark.parametrize("c", [[], [0.0], [-0.0, 0.0], [0.0, 0.0, -0.0]])
    def test_a_factor_without_a_nonzero_coefficient_has_no_root(self, c):
        assert _min_root_magnitude(arima._op_poly(c)) == math.inf
        assert _min_root_magnitude(np.zeros(len(c) + 1)) == math.inf

    @pytest.mark.parametrize("c, root", [([0.5], 2.0), ([-4.0], 0.25), ([0.5, 0.0, -0.0], 2.0),
                                         ([1e300], 1e-300), ([5e-324], math.inf)])
    def test_a_degree_one_factor_has_its_root_in_closed_form(self, c, root, monkeypatch):
        monkeypatch.setattr(np, "roots", None)  # never called below degree 2
        assert _min_root_magnitude(arima._op_poly(c)) == root


def scipy_nelder_mead(f, x0, fatol, maxiter, maxfev, trace):
    """Reference for arima._nelder_mead: the scipy call css_estimate made before the port.

    fatol is absolute in both, so css_estimate's per-fit tolerance goes to
    scipy unchanged. f gets plain floats, as from the port.

    trace ends in the best value known before the start; each callback
    appends the lowest of it and every value f has returned. Each pass of
    scipy's loop that does not stop on convergence evaluates f before it
    calls back. Older scipy (before its loop lost a finally clause) also
    called back once after the converging test, with no evaluation since
    the last callback; that call is dropped, so the reference means the
    same under every scipy version.
    """
    from scipy.optimize import minimize
    evaluations = [0, 0]  # made so far, made by the last callback passed on
    best = [trace[-1]]

    def counted(x):
        evaluations[0] += 1
        value = f(x.tolist())
        if value < best[0]:
            best[0] = value
        return value

    def on_iteration(xk):
        if evaluations[0] > evaluations[1]:
            evaluations[1] = evaluations[0]
            trace.append(best[0])

    result = minimize(counted, np.array(x0), method="Nelder-Mead", callback=on_iteration,
                      options={"xatol": 1e-10, "fatol": fatol,
                               "maxiter": maxiter, "maxfev": maxfev})
    spent = {0: None, 1: (maxfev, "objective evaluations"), 2: (maxiter, "iterations")}
    return result.x, result.fun, spent[result.status]


def fit_outcome(train, order, **kw):
    """The bytes of a fit and its forecast.

    They are the coefficients, sigma2, fit_trace, warnings, message and
    objective, and the 24-step forecast from train (or the error that
    forecast raises).
    """
    try:
        model, message, objective = css_estimate(train, order, **kw), None, None
    except EstimationError as err:
        model, message, objective = err.model, str(err), np.float64(err.objective).tobytes()
    arrays = (model.phi, model.theta, model.sphi, model.stheta, np.float64(model.sigma2),
              np.array(model.fit_trace))
    try:
        ahead = forecast(model, train, 24).values.tobytes()
    except ValueError as err:
        ahead = str(err)
    return [a.tobytes() for a in arrays], model.warnings, message, objective, ahead


class TestSimplexMatchesScipy:
    """css_estimate gives the same bytes with scipy's Nelder-Mead as with _nelder_mead."""

    ORDERS = {
        "wind": ArimaOrder(0, 0, 3, 1, 1, 0, 24),
        "temperature": ArimaOrder(2, 2, 0, 0, 1, 0, 24),
        "irradiance": ArimaOrder(0, 0, 1, 1, 1, 1, 24),
        "arma": ArimaOrder(2, 0, 1, 0, 0, 0, 0),  # pure ARMA: the mean is removed
    }

    @staticmethod
    def series(label, seed):
        rng = np.random.default_rng(seed)
        profile = 6.0 + 3.0 * np.sin(2 * np.pi * (np.arange(24) + rng.uniform(0, 24)) / 24)
        trend = 0.08 * np.arange(TRAIN_SAMPLES) if label == "temperature" else 0.0
        noise = rng.normal(0, rng.uniform(0.05, 2.0), TRAIN_SAMPLES)
        return Series(np.tile(profile, TRAIN_SAMPLES // 24) + trend + noise, t0=1,
                      period_hint=24)

    @staticmethod
    def assert_same_as_scipy(monkeypatch, train, order, **kw):
        ported = fit_outcome(train, order, **kw)
        monkeypatch.setattr(arima, "_nelder_mead", scipy_nelder_mead)
        assert fit_outcome(train, order, **kw) == ported

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 7, 15, None])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("label", sorted(ORDERS))
    def test_same_bytes(self, label, seed, max_iterations, monkeypatch):
        self.assert_same_as_scipy(monkeypatch, self.series(label, seed), self.ORDERS[label],
                                  max_iterations=max_iterations)

    @pytest.mark.parametrize("max_iterations", [1, 2, 20, None])
    def test_start_scoring_1e300(self, max_iterations, monkeypatch):
        self.assert_same_as_scipy(monkeypatch, self.series("wind", 0), self.ORDERS["wind"],
                                  init=[1e20, 1e20, 1e20, 0.0], max_iterations=max_iterations)

    @pytest.mark.parametrize("max_iterations, budget", [(1, "2 objective evaluations"),
                                                        (15, "15 iterations")])
    def test_message_names_the_budget_that_ran_out(self, max_iterations, budget):
        _, _, message, _, _ = fit_outcome(self.series("wind", 0), self.ORDERS["wind"],
                                          max_iterations=max_iterations)
        assert message.startswith(f"CSS simplex did not converge within {budget} (")

    @staticmethod
    def run_both(objective, x0, maxiter):
        """Each minimizer's x, f(x), spent budget, trace and every evaluated point.

        The objective gets plain floats from both: scipy's float64 would
        round by numpy's rule (round(np.float64(30.549999999999997), 1) is
        30.6, where Python's round gives 30.5).
        """
        runs = []
        for minimizer in (arima._nelder_mead, scipy_nelder_mead):
            points, trace = [], [math.inf]

            def f(x):
                x = np.asarray(x, dtype=float)
                points.append(x.tobytes())
                return objective(x.tolist())

            x, fun, spent = minimizer(f, x0, 1e-14, maxiter, 2 * maxiter, trace)
            runs.append((np.asarray(x, dtype=float).tobytes(), float(fun), spent, trace, points))
        return runs

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("maxiter", [2, 3, 5, 10, 400])
    @pytest.mark.parametrize("digits", [0, 1])
    def test_tied_plateaus_match_scipy_directly(self, digits, maxiter, n):
        # Rounding the objective makes ties at every step, so the unstable
        # np.argsort order, the shrink and both budgets all matter. Every
        # evaluated point is compared, so a shrink cut short by the
        # evaluation budget must stop where scipy's stops. The vertex
        # arithmetic is compiled per dimension, so each n is its own code.
        def f(x):
            return round(sum((v - 0.3 * i) ** 2 for i, v in enumerate(x)), digits)

        x0 = [0.0, 1.0, -2.0, 0.0, 5.0, -0.5, 0.0, 3.0][:n]
        runs = self.run_both(f, x0, maxiter)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("objective", ["tie", "nan"])
    def test_both_orderings_match_scipy_directly(self, objective, monkeypatch):
        # After a step that does not shrink, the new worst value is placed by
        # bisect, unless it ties an inner vertex's value, when np.argsort
        # orders the simplex as in scipy. A NaN reaches the simplex only
        # through a shrink, which always sorts with np.argsort.
        def quadratic(x):
            return sum((v - 0.3 * i) ** 2 for i, v in enumerate(x))

        f = {"tie": lambda x: round(quadratic(x), 2),
             "nan": lambda x: math.nan if 0.5 < quadratic(x) < 0.6 else quadratic(x)}[objective]
        placed = []
        bisect_left = arima.bisect.bisect_left

        def spy(a, x, lo, hi):
            i = bisect_left(a, x, lo, hi)
            placed.append("tie" if i < hi and a[i] == x else "insert")
            return i

        monkeypatch.setattr(arima.bisect, "bisect_left", spy)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a: sorts.append(list(a)) or argsort(a))
        arima._nelder_mead(f, [0.0, 1.0, -2.0], 1e-14, 400, 800, [math.inf])
        monkeypatch.undo()
        assert "insert" in placed
        if objective == "tie":
            assert "tie" in placed
        else:
            assert any(math.isnan(v) for values in sorts for v in values)
        runs = self.run_both(f, [0.0, 1.0, -2.0], 400)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("max_iterations", [7, None])
    @pytest.mark.parametrize("seed", range(2))
    def test_six_parameters_on_three_days(self, seed, max_iterations, monkeypatch):
        rng = np.random.default_rng(seed)
        profile = 6.0 + 3.0 * np.sin(2 * np.pi * (np.arange(24) + rng.uniform(0, 24)) / 24)
        n = TRAIN_SAMPLES + 24
        train = Series(np.tile(profile, n // 24) + rng.normal(0, 1.0, n), t0=1, period_hint=24)
        self.assert_same_as_scipy(monkeypatch, train, ArimaOrder(2, 0, 2, 1, 0, 1, 24),
                                  max_iterations=max_iterations)


class TestFitTraceIsTheRunningMinimum:
    """fit_trace is the start objective, then after each iteration the lowest objective so far.

    Every value the objective returns is recorded, so this holds without
    reference to scipy: a budget stop included, even between a reflection
    and its expansion, when the lowest value never entered the simplex.
    A budget that stops the first simplex (1 or 2 iterations with 3 or
    more parameters) leaves the start alone: the trace grows only by
    iterations, where scipy calls back.
    """

    @staticmethod
    def fit_and_values(monkeypatch, train, order, **kw):
        values = []
        compiled = arima._css_objective

        def recording(order, zc):
            objective = compiled(order, zc)

            def recorded(params):
                values.append(objective(params))
                return values[-1]
            return recorded

        monkeypatch.setattr(arima, "_css_objective", recording)
        try:
            return css_estimate(train, order, **kw), None, values
        except EstimationError as err:
            return err.model, err.objective, values

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 7, 15, None])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("label", sorted(TestSimplexMatchesScipy.ORDERS))
    def test_each_entry_is_a_prefix_minimum(self, label, seed, max_iterations, monkeypatch):
        order = TestSimplexMatchesScipy.ORDERS[label]
        model, _, values = self.fit_and_values(
            monkeypatch, TestSimplexMatchesScipy.series(label, seed), order,
            max_iterations=max_iterations)
        trace = model.fit_trace
        prefix_minima = np.minimum.accumulate(np.minimum(values, 1e300)).tolist()
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert set(trace) <= set(prefix_minima)
        if len(trace) > 1:
            assert trace[-1] == prefix_minima[-1]
        else:  # the budget stopped the first simplex: no iteration ran, as in scipy
            assert trace == (prefix_minima[0],) and len(values) <= order.n_params + 2

    def test_a_best_value_outside_the_simplex_ends_the_trace(self, monkeypatch):
        # 3 iterations allow 6 evaluations: the first simplex takes 5, and
        # the reflection, a new best, the last, so the budget stops its
        # expansion and the reflection never enters the simplex.
        model, objective, values = self.fit_and_values(
            monkeypatch, TestSimplexMatchesScipy.series("wind", 0),
            TestSimplexMatchesScipy.ORDERS["wind"], max_iterations=3)
        assert model.fit_trace[-1] == min(values) < objective


class TestOrderCap:
    """An order above arima.MAX_PARAMS or arima.MAX_LAG is refused before anything compiles."""

    @staticmethod
    def block(order, train_periods):
        return {"name": "arima", **dict(zip("pdqPDQs", order)), "train_periods": train_periods}

    AR_LAG = "the AR lag p + d + s * (P + D) is 401, above the cap of 400"

    @pytest.mark.parametrize("order, train_periods, message", [
        ((5, 0, 4, 0, 0, 0, 0), 2, "p + q + P + Q is 9, above the cap of 8"),
        ((1, 0, 0, 1, 0, 0, 400), 17, AR_LAG),
        ((0, 1, 0, 0, 1, 0, 400), 17, AR_LAG),
        ((0, 0, 1, 0, 0, 1, 400), 17, "the MA lag q + s * Q is 401, above the cap of 400")])
    def test_one_above_the_cap_exits_1_at_validation(self, order, train_periods, message,
                                                     tmp_path, capsys):
        cfg = tmp_path / "above.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [self.block(order, train_periods)]}))
        caches = arima._vertex_ops.cache_info(), arima._shock_function.cache_info()
        assert run_cli(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"daycast: methods[0] (arima): {message}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            css_estimate(Series(np.zeros(24 * train_periods)), ArimaOrder(*order))
        assert (arima._vertex_ops.cache_info(), arima._shock_function.cache_info()) == caches

    @pytest.mark.parametrize("order, train_periods", [
        ((4, 0, 4, 0, 0, 0, 0), 2), ((0, 0, 0, 1, 0, 0, 400), 17), ((0, 1, 0, 0, 1, 0, 399), 17),
        ((0, 0, 1, 0, 0, 1, 399), 17), ((2, 0, 2, 2, 0, 2, 199), 17)])
    def test_an_order_at_the_cap_is_accepted(self, order, train_periods):
        # 8 parameters, or a lag of 400. Validation only: a fit at the cap on
        # a long window may take a minute.
        validate_config({"signal": "wind", "band": {"inner": 1, "outer": 3},
                         "methods": [self.block(order, train_periods)]})


class TestVertexOps:
    """The compiled vertex arithmetic has the bits of the list formulas it replaced."""

    SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e-320, 1.7e308]

    @staticmethod
    def bits(values):
        # Every NaN reads as one: CPython's generic and specialized float
        # additions keep different NaNs of two, so the same a + b gives -nan
        # until the interpreter specializes it and nan after.
        a = np.array(values, dtype=float)
        a[np.isnan(a)] = np.nan
        return a.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_bits_as_the_list_formulas(self, n):
        centroid, combine, shrink, converged = arima._vertex_ops(n)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal((n + 1, n)) * 10.0 ** rng.integers(-3, 4, (n + 1, n))
            special = rng.random((n + 1, n)) < 0.3
            values[special] = rng.choice(self.SPECIAL, int(special.sum()))
            sim = [tuple(row) for row in values.tolist()]
            fsim = rng.choice([0.0, 1e-15, 2.0, math.inf, math.nan], n + 1).tolist()

            xbar = list(sim[0])
            for x in sim[1:-1]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            assert self.bits(centroid(sim)) == self.bits(xbar)
            x_h = sim[-1]
            for (c1, c2), reference in (
                    ((2.0, 1.0), [2 * a - 1 * h for a, h in zip(xbar, x_h)]),
                    ((3.0, 2.0), [3 * a - 2 * h for a, h in zip(xbar, x_h)]),
                    ((1.5, 0.5), [1.5 * a - 0.5 * h for a, h in zip(xbar, x_h)]),
                    ((0.5, -0.5), [0.5 * a + 0.5 * h for a, h in zip(xbar, x_h)])):
                assert self.bits(combine(c1, c2, tuple(xbar), x_h)) == self.bits(reference)
            for v in sim[1:]:
                assert self.bits(shrink(sim[0], v)) == self.bits(
                    [a + 0.5 * (w - a) for a, w in zip(sim[0], v)])
            near = [tuple(a + 1e-11 * (j % 2) for a in sim[0]) for j in range(n + 1)]
            edge = [(1e-10 * (j % 2),) * n for j in range(n + 1)]  # differences of exactly 1e-10
            for vertices in (sim, near, edge):
                for f in (fsim, [1.0] * (n + 1), [0.0] + [1e-14] * n, [0.0] + [2.0] * n):
                    for fatol in (1e-14, 2.0, 0.0):
                        assert converged(vertices, f, fatol) == (
                            all(abs(v - a) <= 1e-10 for x in vertices[1:]
                                for v, a in zip(x, vertices[0]))
                            and all(abs(f[0] - fv) <= fatol for fv in f[1:]))


def lfilter_objective(order, zc):
    """Reference for arima._css_objective: the lfilter call and a @ a of css_estimate before.

    The overflow of a @ a is silenced here, as np.vdot is silent.
    """
    def objective(params):
        split = _split_params(np.asarray(params, dtype=float), order)
        a = lfilter(*convolve_operators(order, *split), zc)
        if math.isfinite(a[-1]):
            with np.errstate(over="ignore"):
                v = float(a @ a)
            if math.isfinite(v) or np.all(np.isfinite(a)):
                return v
        return 1e300
    return objective


class TestObjectiveMatchesLfilter:
    """css_estimate gives the same bytes with the lfilter objective as with _css_objective."""

    ORDERS = {**TestSimplexMatchesScipy.ORDERS,
              "p>=s": ArimaOrder(3, 0, 1, 1, 0, 0, 2),  # the AR coefficients come from _product
              "q>=s": ArimaOrder(1, 0, 3, 0, 0, 1, 2)}  # the MA coefficients come from _product

    @staticmethod
    def series(label, seed, n=TRAIN_SAMPLES, variant=None):
        rng = np.random.default_rng(seed)
        profile = 6.0 + 3.0 * np.sin(2 * np.pi * (np.arange(24) + rng.uniform(0, 24)) / 24)
        trend = 0.08 * np.arange(n) if label == "temperature" else 0.0
        values = np.tile(profile, n // 24) + trend + rng.normal(0, rng.uniform(0.05, 2.0), n)
        if variant == "zero runs":  # lag-24 differences of zero, and runs of zero shocks
            values[4:30] = 0.0
        elif variant == "signed zeros":
            values[::3] = -0.0
            values[1::3] = 0.0
        elif variant == "constant":
            values[:] = 0.0
        return Series(values, t0=1, period_hint=24)

    @staticmethod
    def assert_same_as_lfilter(monkeypatch, train, order, **kw):
        fast = fit_outcome(train, order, **kw)
        monkeypatch.setattr(arima, "_css_objective", lfilter_objective)
        assert fit_outcome(train, order, **kw) == fast

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 7, 15, None])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("label", sorted(TestSimplexMatchesScipy.ORDERS))
    def test_same_bytes(self, label, seed, max_iterations, monkeypatch):
        self.assert_same_as_lfilter(monkeypatch, self.series(label, seed), self.ORDERS[label],
                                    max_iterations=max_iterations)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("label", ["irradiance", "temperature", "wind"])
    def test_72_sample_windows_reach_the_seasonal_lags(self, label, seed, monkeypatch):
        # 48 differenced samples: irradiance then has AR and MA terms at lag 24.
        self.assert_same_as_lfilter(monkeypatch, self.series(label, seed, n=TRAIN_SAMPLES + 24),
                                    self.ORDERS[label])

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("label, n", [("wind", 96), ("wind", 192), ("temperature", 120)])
    def test_windows_above_the_unrolled_length(self, label, n, seed, monkeypatch):
        # 72 and 168 differenced samples of an MA order (the loop past the
        # longest lag, 24) and 94 of an MA-free one (np.convolve).
        order, train = self.ORDERS[label], self.series(label, seed, n=n)
        assert len(train) - order.d - order.s * order.D > 64
        self.assert_same_as_lfilter(monkeypatch, train, order)

    def test_acceptance_criterion_one_sine(self, monkeypatch):
        # 100 samples of an AR(2): np.convolve at any length.
        self.assert_same_as_lfilter(monkeypatch, make_sine(1, 100, 100, 0),
                                    ArimaOrder(2, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("max_iterations", [7, None])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("label", ["p>=s", "q>=s"])
    def test_products_through_np_convolve(self, label, seed, max_iterations, monkeypatch):
        self.assert_same_as_lfilter(monkeypatch, self.series(label, seed), self.ORDERS[label],
                                    max_iterations=max_iterations)

    @pytest.mark.parametrize("variant", ["zero runs", "signed zeros", "constant"])
    @pytest.mark.parametrize("label", sorted(ORDERS))
    def test_zero_samples(self, label, variant, monkeypatch):
        self.assert_same_as_lfilter(monkeypatch, self.series(label, 0, variant=variant),
                                    self.ORDERS[label])

    @pytest.mark.parametrize("start", [1e200, 1e20, 0.0])
    @pytest.mark.parametrize("label", sorted(ORDERS))
    def test_starts(self, label, start, monkeypatch):
        order = self.ORDERS[label]
        self.assert_same_as_lfilter(monkeypatch, self.series(label, 1), order,
                                    init=[start] * order.n_params, max_iterations=40)

    @pytest.mark.parametrize("seed", range(200))
    def test_objective_values_on_random_parameters(self, seed):
        # Random (p, 0, q)(P, 0, Q)s orders on both sides of s, 1 to 80
        # samples (past its longest lag an MA order's generated shocks
        # loop), samples with exact zeros, and parameters from 1e-8 to 1e200
        # with zeros.
        order, params = random_operator_case(seed)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 81))
        zc = rng.standard_normal(m) * rng.choice([1e-3, 1.0, 1e3, 1e150])
        zc[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
        fast, reference = arima._css_objective(order, zc), lfilter_objective(order, zc)
        for scale in (1.0, 3.0, 1e20, 1e200):
            for x in (params * scale, rng.standard_normal(order.n_params) * scale):
                want = np.float64(reference(x)).tobytes()
                assert np.float64(fast(x.tolist())).tobytes() == want


def lfilter_forecast(model, history, lead):
    """Reference for forecast: its recursion, in its order of operations, on lfilter's shocks."""
    order = model.order
    ar, ma = convolve_operators(order, model.phi, model.theta, model.sphi, model.stheta)
    form = expand_polynomials(model)
    z = difference(history, order.d, order.D, order.s).values
    ae = [0.0] * (order.d + order.s * order.D) + lfilter(ar, ma, z - model.mu).tolist()
    ye = history.values.tolist()
    for i in range(len(ye), len(ye) + lead):
        val = model.mu * float(ar.sum())
        for j, c in enumerate(form.ar_full.tolist(), 1):
            val += c * ye[i - j]
        for j, c in enumerate(form.ma_full.tolist(), 1):
            val -= c * (ae[i - j] if 0 <= i - j < len(ae) else 0.0)
        ye.append(val)
    return np.array(ye[len(history):])


class TestForecastReadsTheCompiledShocks:
    """forecast reads the shocks css_estimate minimized, and where they part from lfilter's.

    _shock_function leaves out lfilter's zero initial state and the
    coefficients that are structurally zero. That changes no value, only
    the sign of a zero shock at a -0.0 sample: squaring removes it from the
    CSS objective, and a forecast from a history holding -0.0 can carry it.
    """

    MA_ORDERS = [ArimaOrder(*o) for o in [(1, 1, 1, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0, 0),
                                          (1, 0, 2, 0, 0, 0, 0), (0, 0, 3, 1, 1, 0, 4),
                                          (0, 1, 1, 0, 1, 1, 4), (1, 0, 3, 0, 0, 1, 2)]]
    VALUES = [0.0, -0.0, 0.5, -0.5, 2.0, -2.0]

    @staticmethod
    def compiled_and_lfilter(order, params, zc):
        split = _split_params(np.asarray(params, dtype=float), order)
        compiled = arima._shock_function(order, len(zc))(zc)[0](params)
        return compiled, lfilter(*_operators(order, *split), zc)

    @pytest.mark.parametrize("order, phi, theta, history, want", [
        # The first shock: lfilter adds the sample to its zero state.
        ((1, 1, 1, 0, 0, 0, 0), [2.0], [0.5], [0.0, -0.0], [0.0, 0.0, 0.0]),
        # The last shock: lfilter adds a structurally zero MA term at lag 2.
        ((2, 0, 1, 0, 0, 0, 0), [2.0, -0.0], [-0.5],
         [0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
          -0.0, -0.0, 0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0])])
    def test_the_sign_of_a_zero_shock_reaches_the_forecast(self, order, phi, theta, history,
                                                            want):
        # lfilter's shocks forecast the other sign of zero at the first step.
        order = ArimaOrder(*order)
        out = forecast(model_of(order, phi, theta), Series(history), len(want))
        assert out.values.tobytes() == np.array(want).tobytes()
        zc = difference(Series(history), order.d).values
        compiled, reference = self.compiled_and_lfilter(order, phi + theta, zc)
        assert compiled.tobytes() != reference.tobytes()  # the compiled shocks flip a sign

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compiled_shocks_differ_only_in_zero_signs_at_negative_zero_samples(self, data):
        order = data.draw(st.sampled_from(self.MA_ORDERS))
        params = data.draw(st.lists(st.sampled_from(self.VALUES), min_size=order.n_params,
                                    max_size=order.n_params))
        zc = np.array(data.draw(st.lists(st.sampled_from(self.VALUES[:2] * 4 + self.VALUES),
                                         min_size=1, max_size=64)))
        compiled, reference = self.compiled_and_lfilter(order, params, zc)
        np.testing.assert_array_equal(compiled, reference)  # -0.0 == 0.0 here
        negative_zero = (zc == 0) & np.signbit(zc) & (reference == 0)
        assert compiled[~negative_zero].tobytes() == reference[~negative_zero].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_forecasts_equal_those_from_lfilters_shocks(self, data):
        # Random orders with an MA side; without -0.0 in the history the bytes match.
        s = data.draw(st.sampled_from([0, 2, 4]))
        P, D, Q = (data.draw(st.integers(0, 1)) if s else 0 for _ in range(3))
        q = data.draw(st.integers(0 if Q else 1, 3))
        order = ArimaOrder(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1)), q,
                           P, D, Q, s)
        value = st.one_of(st.sampled_from(self.VALUES), st.floats(-3.0, 3.0))
        params = data.draw(st.lists(value, min_size=order.n_params, max_size=order.n_params))
        model = model_of(order, *_split_params(np.array(params), order),
                         mu=data.draw(st.sampled_from([0.0, 0.5])))
        shortest = max(len(expand_polynomials(model).ar_full), order.d + s * D + 1)
        history = Series(data.draw(st.lists(st.sampled_from(self.VALUES[:2] * 2) | value,
                                            min_size=shortest, max_size=64)))

        want = lfilter_forecast(model, history, 24)
        try:
            got = forecast(model, history, 24).values
        except ValueError:  # a forecast beyond the +/-1e150 bound of every Series
            assert not (np.abs(want) <= 1e150).all()
            return
        np.testing.assert_array_equal(got, want)  # -0.0 == 0.0 here
        if not np.signbit(history.values[history.values == 0]).any():
            assert got.tobytes() == want.tobytes()

    def test_a_forecast_from_the_training_series_compiles_nothing(self, wind):
        # css_estimate compiles the shocks of the 24 differenced samples, and
        # forecast from the same train reads them from the cache.
        order = ArimaOrder(0, 0, 3, 1, 1, 0, 24)  # table2_wind
        arima._shock_function.cache_clear()
        model = css_estimate(wind, order)
        fitted = arima._shock_function.cache_info()
        forecast(model, wind, 24)
        after = arima._shock_function.cache_info()
        assert (after.hits - fitted.hits, after.misses - fitted.misses) == (1, 0)


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
        model = model_of(ArimaOrder(0, 1, 0, 0, 0, 0, 0), mu=2.5)
        out = forecast(model, trend, 10)
        expected = trend.values[-1] + 2.5 * np.arange(1, 11)
        np.testing.assert_allclose(out.values, expected, atol=1e-8)

    def test_insufficient_history(self):
        model = model_of(ArimaOrder(0, 0, 0, 1, 0, 0, 24), sphi=(0.5,))
        with pytest.raises(ValueError):
            forecast(model, Series([1.0, 2.0, 3.0]), 2)

    def test_a_nan_lead_is_refused(self):
        model = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(0.5,))
        with pytest.raises(ValueError) as err:
            forecast(model, Series([1.0, 2.0, 4.0]), math.nan)
        assert str(err.value) == "lead must be >= 1, got nan"

    def test_a_forecast_that_overflows_names_its_first_time(self):
        # A random walk twice integrated extrapolates the 1e150 sine's last
        # slope, which passes the bound of every Series at the fourth step.
        model = model_of(ArimaOrder(0, 2, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError) as err:
            forecast(model, make_sine(1e150, 24, 24, 0), 24)
        assert str(err.value) == "arima forecast is beyond +/-1e150 at t = 28"
        # An explosive AR coefficient overflows at the first step.
        model = model_of(ArimaOrder(1, 0, 0, 0, 0, 0, 0), phi=(1e200,))
        with pytest.raises(ValueError) as err:
            forecast(model, make_sine(1e150, 24, 24, 0), 3)
        assert str(err.value) == "arima forecast is not finite at t = 25"

    def test_the_level_is_the_mean_of_a_pure_arma_fit_and_zero_once_differenced(self):
        y = make_sine(2.0, 24, 72, 0).values + 5.0 + np.arange(72) * 0.1
        arma = css_estimate(Series(y), ArimaOrder(2, 0, 0, 0, 0, 0, 0))
        assert arma.mu == float(y.mean())
        for order in (ArimaOrder(0, 1, 0, 0, 0, 0, 0), ArimaOrder(2, 2, 0, 0, 1, 0, 24)):
            assert css_estimate(Series(y), order).mu == 0.0


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

    def test_a_nan_max_lag_is_refused(self, wind):
        with pytest.raises(ValueError) as err:
            acf_pacf(wind, math.nan)
        assert str(err.value) == "max_lag must be >= 1, got nan"

    def test_squares_past_the_float_range_are_refused_without_a_warning(self):
        # The suite makes a RuntimeWarning an error. Values whose squares
        # overflow never reach a Series; at the +/-1e150 bound the squared
        # deviations stay finite, so the autocorrelations and the fits that
        # start from them run.
        with pytest.raises(ValueError) as err:
            Series([1e308, -1e308] * 5)
        assert str(err.value) == "series value 1e+308 at index 0 (t = 1) is beyond +/-1e150"
        bound = Series([1e150, -1e150] * 5)
        acf, _ = acf_pacf(bound, 3)
        np.testing.assert_allclose(acf, [1.0, -0.9, 0.8, -0.7], rtol=1e-12)
        for order in (ArimaOrder(1, 0, 1, 0, 0, 0, 0), ArimaOrder(0, 0, 1, 0, 0, 0, 0)):
            model = css_estimate(bound, order)
            assert 1e298 < model.sigma2 < 1e300


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
        model = model_of(ArimaOrder(0, 1, 0, 0, 0, 0, 0), sigma2=0.0, mu=2.5)
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
        n = TRAIN_SAMPLES + 24
        data = slope * np.arange(n) + np.tile(profile, n // 24) + rng.normal(0, noise, n)
        train = Series(data[:TRAIN_SAMPLES], t0=1, period_hint=24)
        model = css_estimate(train, order)
        out = forecast(model, train, 24)
        assert np.all(np.isfinite(out.values))
        # The daily structure must carry into the forecast day.
        err = float(np.sqrt(np.mean((out.values - data[TRAIN_SAMPLES:]) ** 2)))
        assert err < 1.0, f"{label}: forecast RMSE {err:.3f}"
