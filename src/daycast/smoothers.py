"""Natural cubic smoothing splines and Nadaraya-Watson kernel regression.

The spline minimizes squared error plus lambda times the integrated
squared second derivative. Its minimizer is a natural cubic spline with
a knot at every training point, expanded here in the truncated-cube
basis: N1 = 1, N2 = x, N_{d+2}(x) = delta_d(x) - delta_{D-1}(x) with

    delta_d(x) = ((x - k_d)_+^3 - (x - k_D)_+^3) / (k_D - k_d).

Second derivatives of this basis are piecewise linear and vanish outside
the knot range, so the penalty matrix integrates in closed form (Simpson's
rule is exact on every inter-knot interval) and evaluation beyond the
boundary knots extrapolates linearly for free. Both matrices are built
in whole-array passes: the basis in one broadcast, the penalty one row of
its upper triangle at a time, so its working memory grows as the square
of the knot count.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoSupportError, SingularSystemError, ZeroVarianceError
from .series import Series


def _basis_matrix(knots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Basis values at xs: one row per point, one column per basis function.

    Every delta_d comes from one broadcast over (points, knots). X is
    filled in place so that it stays C-contiguous: X.T @ y then sums in
    the same order as it would for column-stacked columns.
    """
    first, last = knots[:-1], knots[-1]
    x = xs[:, None]
    deltas = (np.maximum(x - first, 0.0) ** 3 - np.maximum(x - last, 0.0) ** 3) / (last - first)
    X = np.empty((len(xs), len(knots)))
    X[:, 0] = 1.0
    X[:, 1] = xs
    X[:, 2:] = deltas[:, :-1] - deltas[:, -1:]
    return X


def _penalty_matrix(knots: np.ndarray) -> np.ndarray:
    """Gram matrix of basis second derivatives, integrated exactly.

    Each second derivative is piecewise linear with breakpoints at the
    knots, so on every inter-knot interval the integrand is a quadratic
    and the three-point Simpson rule is exact.

    The second derivatives are sampled once, at every interval's start,
    midpoint and end, as three (n_knots, n_intervals) arrays. The upper
    triangle is then filled one row at a time: every entry is the same
    elementwise Simpson sum, taken along the same contiguous axis, as a
    sum per knot pair would be, so the matrix is the same bit for bit.
    Working memory is O(n_knots^2); one (n, n, n - 1) broadcast for the
    whole matrix would need O(n_knots^3).
    """
    n_knots = len(knots)
    first, last = knots[:-1, None], knots[-1]

    def d2_basis(x):
        d2_delta = 6.0 * (np.maximum(x - first, 0.0) - np.maximum(x - last, 0.0)) / (last - first)
        out = np.zeros((n_knots, len(x)))  # N1 = 1 and N2 = x have none
        out[2:] = d2_delta[:-1] - d2_delta[-1]
        return out

    a, b = knots[:-1], knots[1:]
    ends_a, mid, ends_b = d2_basis(a), d2_basis(0.5 * (a + b)), d2_basis(b)
    omega = np.zeros((n_knots, n_knots))
    w = (b - a) / 6.0
    for j in range(2, n_knots):
        omega[j, j:] = omega[j:, j] = np.sum(
            w * (ends_a[j] * ends_a[j:] + 4.0 * mid[j] * mid[j:] + ends_b[j] * ends_b[j:]), axis=1)
    return omega


@dataclass(frozen=True)
class SplineFit:
    """Natural cubic smoothing spline over the training knots."""

    knots: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        out = _basis_matrix(self.knots, np.atleast_1d(x)) @ self.coeffs
        return float(out[0]) if x.ndim == 0 else out


def fit_smoothing_spline(train: Series, smooth_lambda: float) -> SplineFit:
    """Penalized fit with every training point as a knot, by one Cholesky solve."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    if smooth_lambda < 0:
        raise ValueError(f"smoothing parameter must be >= 0, got {smooth_lambda}")
    if len(train) < 4:
        raise ValueError(f"need at least 4 points, have {len(train)}")
    knots = train.times
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing and distinct")

    X = _basis_matrix(knots, knots)
    with np.errstate(over="ignore"):
        A = X.T @ X + smooth_lambda * _penalty_matrix(knots)
    system = f"(D={len(train)}, lambda={smooth_lambda})"
    if not np.isfinite(A).all():
        raise SingularSystemError(f"penalized spline system overflows {system}")
    try:  # positive definite for distinct knots: only rounding (a long window) fails
        factor = cho_factor(A)
    except LinAlgError as exc:
        raise SingularSystemError(f"penalized spline system is singular {system}") from exc
    return SplineFit(knots, cho_solve(factor, X.T @ train.values))


@dataclass(frozen=True)
class KernelConfig:
    """Kernel smoother settings.

    Only the Gaussian kernel ships here; it satisfies the required
    axioms (nonnegative, zero first moment, finite positive second
    moment). The bandwidth is the kernel's scale parameter.
    """

    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def kernel_predict(train: Series, config: KernelConfig, x: float) -> float:
    """Nadaraya-Watson estimate: kernel-weighted average of training targets."""
    with np.errstate(over="ignore"):  # a distance past the float range weighs 0
        d = (float(x) - train.times) / config.bandwidth
        weights = np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi)
    denom = weights.sum()
    if denom <= 0.0 or not np.isfinite(denom):
        raise NoSupportError(
            f"no kernel support at x={x} (all weights underflowed; "
            f"bandwidth={config.bandwidth})"
        )
    return float(weights @ train.values / denom)


def default_bandwidth(train: Series) -> float:
    """Population variance of the targets, a simple default bandwidth."""
    if len(train) < 2:
        raise ValueError("need at least 2 samples for a bandwidth estimate")
    var = float(np.var(train.values))
    if var == 0.0:
        raise ZeroVarianceError("constant series has zero variance; choose a bandwidth explicitly")
    return var
