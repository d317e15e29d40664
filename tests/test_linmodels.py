from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycast.errors import SingularSystemError, UnderdeterminedError
from daycast.linmodels import (Constant, GaussianBump, Monomial, RbfConfig, Sinusoid,
                               design_matrix, fit_basis, fit_polynomial, fit_rbf,
                               solve_ridge)
from daycast.series import Series, make_sine


def exact_normal_equations(X, y, lam, L):
    """Independent oracle: (X'X + lam^2 L'L) theta = X'y by exact rational
    Gaussian elimination. Returns None when the system is exactly singular."""
    X = [[Fraction(v) for v in row] for row in X]
    L = [[Fraction(v) for v in row] for row in L]
    y = [Fraction(v) for v in y]
    lam = Fraction(lam)
    k = len(X[0])
    A = [[sum(X[r][i] * X[r][j] for r in range(len(X)))
          + lam * lam * sum(L[r][i] * L[r][j] for r in range(len(L)))
          for j in range(k)] for i in range(k)]
    b = [sum(X[r][i] * y[r] for r in range(len(X))) for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(k):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
                b[r] = b[r] - f * b[col]
    return [float(b[i] / A[i][i]) for i in range(k)]


class TestSolveRidge:
    def test_column_of_ones_returns_mean(self):
        theta = solve_ridge(np.ones((2, 1)), np.array([1.0, 3.0]))
        np.testing.assert_allclose(theta, [2.0])

    def test_identity_with_unit_ridge_halves(self):
        theta = solve_ridge(np.eye(2), np.array([2.0, 4.0]), reg_lambda=1.0)
        np.testing.assert_allclose(theta, [1.0, 2.0])

    def test_exact_line(self):
        X = design_matrix((Monomial(0), Monomial(1)), [1.0, 2.0])
        theta = solve_ridge(X, np.array([2.0, 3.0]))
        np.testing.assert_allclose(theta, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_raises_with_context(self):
        X = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(SingularSystemError) as err:
            solve_ridge(X, np.zeros(4))
        assert "4x2" in str(err.value)

    def test_a_solve_lstsq_truncated_is_refused(self):
        # The smallest singular value passes the 1e-13 relative cutoff, but
        # at 1000 rows lstsq's own cutoff (eps * 1000) drops it to rank 4.
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.normal(size=(1000, 5)))[0]
        V = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        X = U @ np.diag([1.0, 0.5, 0.2, 0.1, 1.5e-13]) @ V.T
        assert np.linalg.lstsq(X, X.sum(axis=1), rcond=None)[2] == 4
        with pytest.raises(SingularSystemError) as err:
            solve_ridge(X, X.sum(axis=1))
        assert "1000x5" in str(err.value)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_ridge(np.ones((3, 1)), np.ones(2))

    def test_fewer_samples_than_coefficients_need_a_ridge(self):
        train = Series([1.0, 4.0, 2.0])
        basis = tuple(Monomial(d) for d in range(5))
        with pytest.raises(UnderdeterminedError) as err:
            fit_basis(train, basis)
        assert str(err.value) == "5 coefficients need at least 5 samples, have 3"
        assert np.all(np.isfinite(fit_basis(train, basis, reg_lambda=0.1).coeffs))

    def test_ridge_continuity_at_zero(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        near = solve_ridge(X, y, reg_lambda=1e-8)
        at_zero = solve_ridge(X, y)
        np.testing.assert_allclose(near, at_zero, atol=1e-6)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        norms = [np.linalg.norm(solve_ridge(X, y, reg_lambda=lam))
                 for lam in (0.0, 0.1, 1.0, 3.0, 10.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_residual_orthogonality(self, data):
        n = data.draw(st.integers(3, 8))
        k = data.draw(st.integers(1, 3))
        X = np.array(data.draw(st.lists(
            st.lists(st.floats(-5, 5, allow_nan=False), min_size=k, max_size=k),
            min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)))
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[0] == 0 or sv[-1] / sv[0] < 1e-6:
            return
        try:
            theta = solve_ridge(X, y)
        except SingularSystemError:
            # Refused only when the exact solution lies at the edge of the
            # float range. Scaling X by a power of two is exact, so the
            # scaled solve gives the magnitude without overflowing.
            exponent = -np.frexp(sv[0])[1]
            scaled = np.linalg.lstsq(np.ldexp(X, exponent), y, rcond=None)[0]
            assert np.log2(np.abs(scaled).max()) + exponent > 1000
            return
        resid = y - X @ theta
        assert np.linalg.norm(X.T @ resid) <= 1e-8 * max(np.linalg.norm(y), 1e-30)

    @pytest.mark.parametrize("column, y", [
        ([2.0 ** -1023, 5e-324, 2.0 ** -1023], [0.0, 0.0, 5.0]),
        ([0.0, 0.0, 2.0 ** -1023], [0.0, 0.0, 2.0]),
        ([2.0 ** -1022], [5.0]),
    ])
    def test_overflowing_solution_is_refused(self, column, y):
        with pytest.raises(SingularSystemError, match="overflows"):
            solve_ridge(np.array(column)[:, None], np.array(y))

    @pytest.mark.parametrize("where", [(2, 1), (0, 0), (1,)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_is_refused_before_lapack(self, capfd, where, bad):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        y = np.arange(4.0)
        name, target = ("X", X) if len(where) == 2 else ("y", y)
        target[where] = bad
        for reg_lambda in (0.0, 0.1):
            with pytest.raises(ValueError) as err:
                solve_ridge(X, y, reg_lambda)
            assert str(err.value) == f"{name}{list(where)} is {bad}, not finite"
        assert capfd.readouterr() == ("", "")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_normal_equation_oracle(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 6))
        ints = st.integers(-4, 4)
        X = np.array(data.draw(st.lists(
            st.lists(ints, min_size=k, max_size=k), min_size=n, max_size=n)), dtype=float)
        y = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
        lam = data.draw(st.sampled_from([0.0, 1.0, 2.0]))
        L = np.eye(k)
        expected = exact_normal_equations(X, y, lam, L)
        if expected is None:
            return
        # Near-singular systems legitimately lose digits in floating point;
        # hold the 1e-9 agreement on reasonably conditioned ones.
        stacked = X if lam == 0 else np.vstack([X, lam * L])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] < 1e-4 * sv[0]:
            return
        theta = solve_ridge(X, y, reg_lambda=lam)
        np.testing.assert_allclose(theta, expected, atol=1e-9, rtol=1e-9)


class TestFitPolynomial:
    def test_exact_line_through_three_points(self):
        fit = fit_polynomial(Series([2.0, 3.0, 4.0]), 1)
        np.testing.assert_allclose(fit.coeffs, [1.0, 1.0], atol=1e-10)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_polynomial(Series([1.0, 2.0]), 2)

    def test_cubic_blows_up_past_training_range(self):
        fit = fit_polynomial(make_sine(1, 100, 100, 0), 3)
        assert abs(fit.predict(150.0)) > 10.0

    def test_degree_seven_on_hours_is_still_solvable(self, temp24):
        # Near the conditioning limit: 24 hours, monomials up to x^7.
        fit = fit_polynomial(temp24, 7)
        assert np.all(np.isfinite(fit.coeffs))


class TestLinearPredict:
    def test_line_extrapolates(self):
        fit = fit_polynomial(Series([2.0, 3.0, 4.0]), 1)
        assert float(fit.predict(10.0)) == pytest.approx(11.0, abs=1e-9)

    def test_matched_sinusoid_is_exact(self):
        # Basis {1, cos matched in frequency and phase}: zero deviation anywhere.
        target = make_sine(1, 100, 200, 0)
        train = Series(target.values[:100], t0=1)
        basis = (Constant(), Sinusoid(period=100, phase=-np.pi / 2))
        fit = fit_basis(train, basis, reg_lambda=0.0)
        dev = np.abs(fit.predict(target.times) - target.values)
        assert dev.max() <= 1e-9


class TestFitRbf:
    def test_single_point_single_center(self):
        # One evenly placed center sits in the middle of t = 1..1.
        fit = fit_rbf(Series([5.0]), RbfConfig(n_basis=1, sigma=2.0, include_bias=False))
        assert fit.predict(1.0) == pytest.approx(5.0, abs=1e-12)

    def test_far_field_approaches_bias(self, wind24):
        config = RbfConfig(n_basis=4, sigma=6.3)
        fit = fit_rbf(wind24, config)
        bias = fit.coeffs[0]
        far = 24.0 + 20.0 * config.sigma
        assert fit.predict(far) == pytest.approx(bias, abs=1e-6)

    def test_far_field_without_bias_approaches_zero(self, wind24):
        fit = fit_rbf(wind24, RbfConfig(n_basis=4, sigma=6.3, include_bias=False))
        assert fit.predict(24.0 + 20.0 * 6.3) == pytest.approx(0.0, abs=1e-6)

    def test_more_centers_reduce_training_error(self):
        train = make_sine(1, 100, 100, 0)
        def train_rmse(n):
            fit = fit_rbf(train, RbfConfig(n_basis=n, sigma=10.0))
            return float(np.sqrt(np.mean((fit.predict(train.times) - train.values) ** 2)))
        assert train_rmse(8) < train_rmse(2)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_rbf(Series([1.0, 2.0]), RbfConfig(n_basis=2, sigma=1.0))

    def test_data_placement_uses_sample_points(self):
        fit = fit_rbf(Series([1.0, 2.0, 4.0, 3.0, 2.5]),
                      RbfConfig(n_basis=3, sigma=1.5, placement="data"))
        assert [g.center for g in fit.basis[1:]] == [1.0, 2.0, 3.0]


class TestBasisFunctions:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Monomial(-1)
        with pytest.raises(ValueError):
            Sinusoid(0)
        with pytest.raises(ValueError):
            GaussianBump(0, 0)

    @pytest.mark.parametrize("width", [1e300, 1.0000001e150, 9.999999e-151, 1e-320,
                                       -1.0, np.inf, np.nan])
    def test_bump_width_outside_its_range_is_refused(self, width):
        with pytest.raises(ValueError, match=r"must lie in \[1e-150, 1e150\]"):
            GaussianBump(0.0, width)

    @pytest.mark.parametrize("width", [1e150, 1e-150])
    def test_bump_width_at_the_ends_of_its_range_evaluates(self, width):
        values = GaussianBump(0.0, width)(np.arange(-48.0, 49.0))
        assert values[48] == 1.0 and np.all(np.isfinite(values))

    @pytest.mark.parametrize("period", [1e-320, 9.999999e-151, 1.0000001e150, 1e300, 0.0,
                                        -1.0, np.inf, np.nan])
    def test_sinusoid_period_outside_its_range_is_refused(self, period):
        with pytest.raises(ValueError, match=r"period must lie in \[1e-150, 1e150\]"):
            Sinusoid(period)

    @pytest.mark.parametrize("period", [1e150, 1e-150])
    def test_sinusoid_period_at_the_ends_of_its_range_evaluates(self, period):
        values = Sinusoid(period)(np.arange(0.0, 8761.0))
        assert values[0] == 1.0 and np.all(np.isfinite(values))

    def test_design_matrix_shape(self):
        X = design_matrix((Constant(), Monomial(1), Monomial(2)), [1.0, 2.0, 3.0, 4.0])
        assert X.shape == (4, 3)
        np.testing.assert_allclose(X[:, 0], 1.0)
