"""Natural cubic smoothing splines and Nadaraya-Watson kernel regression.

The spline minimizes squared error plus lambda times the integrated
squared second derivative. Its minimizer is a natural cubic spline with
a knot at every training point, expanded here in the truncated-cube
basis: N1 = 1, N2 = x, N_{d+2}(x) = delta_d(x) - delta_{D-1}(x) with

    delta_d(x) = ((x - k_d)_+^3 - (x - k_D)_+^3) / (k_D - k_d).

Second derivatives of this basis are piecewise linear and vanish outside
the knot range, so the penalty integrates in closed form (Simpson's rule
is exact on every inter-knot interval) and evaluation beyond the boundary
knots extrapolates linearly for free. The fit never forms the penalty
matrix: it stacks the basis matrix over a square root of the penalty and
solves that least-squares system orthogonally, with the solver the linear
fits use. Both matrices are built in one broadcast each, so working memory
grows as the square of the knot count.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoSupportError, SingularSystemError
from .linmodels import solve_ridge
from .series import Series


def _basis_matrix(knots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Basis values at xs: one row per point, one column per basis function.

    Every delta_d comes from one broadcast over (points, knots). X is
    filled in place so that it stays C-contiguous: X @ c then sums in
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


def _penalty_root(knots: np.ndarray) -> np.ndarray:
    """R with R.T @ R = Omega, the Gram matrix of basis second derivatives.

    Each second derivative is piecewise linear with breakpoints at the
    knots, so on every inter-knot interval the integrand is a quadratic
    and the three-point Simpson rule is exact. R has one row per Simpson
    point, at each interval's start, midpoint and end: the basis second
    derivatives there, times the square root of the Simpson weight,
    sqrt(h/6), 2 sqrt(h/6) and sqrt(h/6). Its working memory is
    O(n_knots^2).
    """
    a, b, last = knots[:-1], knots[1:], knots[-1]
    x = np.concatenate([a, 0.5 * (a + b), b])[:, None]
    root_w = np.sqrt((b - a) / 6.0)
    d2_delta = 6.0 * (np.maximum(x - a, 0.0) - np.maximum(x - last, 0.0)) / (last - a)
    R = np.zeros((len(x), len(knots)))  # N1 = 1 and N2 = x have none
    R[:, 2:] = d2_delta[:, :-1] - d2_delta[:, -1:]
    return R * np.concatenate([root_w, 2.0 * root_w, root_w])[:, None]


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
    """Penalized fit with every training point as a knot.

    Minimizes ||y - X c||^2 + lambda ||R c||^2 as the stacked least-squares
    problem [X; sqrt(lambda) R] c = [y; 0], solved orthogonally by
    solve_ridge. Each column is first scaled by its largest entry, so that
    the rank test compares like with like at any lambda: unscaled, a large
    lambda would swamp the line's two columns, which the penalty never sees.
    """
    if not smooth_lambda >= 0:
        raise ValueError(f"smoothing parameter must be >= 0, got {smooth_lambda}")
    if len(train) < 4:
        raise ValueError(f"need at least 4 points, have {len(train)}")
    knots = train.times
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing and distinct")

    A = np.vstack([_basis_matrix(knots, knots), np.sqrt(smooth_lambda) * _penalty_root(knots)])
    scale = np.abs(A).max(axis=0)
    y = np.concatenate([train.values, np.zeros(len(A) - len(train))])
    try:
        coeffs = solve_ridge(A / scale, y)
    except SingularSystemError as exc:
        raise SingularSystemError(f"smoothing spline on {len(knots)} knots, "
                                  f"smooth_lambda={smooth_lambda}: {exc}") from None
    return SplineFit(knots, coeffs / scale)


@dataclass(frozen=True)
class KernelConfig:
    """Kernel smoother settings.

    Only the Gaussian kernel ships here; it satisfies the required
    axioms (nonnegative, zero first moment, finite positive second
    moment). The bandwidth is the kernel's scale on the time axis, in
    samples (hours for hourly data).
    """

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
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
    # A weighted mean, which rounding can carry one ulp past the values.
    return float(np.clip(weights @ train.values / denom, train.values.min(), train.values.max()))
