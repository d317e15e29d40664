"""Design matrices and regularized least squares.

One linear machinery covers three predictors: plain polynomial fits,
ridge fits over arbitrary basis functions, and radial-basis-function
networks with fixed centers. A fitted model is a coefficient vector
over a basis set; prediction is a dot product.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, UnderdeterminedError
from .series import Series

# Relative singular-value cutoff below which a system is treated as rank
# deficient. Degree-7 monomials on t = 1..24 sit near 2.5e-11, so the
# cutoff must be well below that for high-degree day fits to stay legal.
SINGULAR_RTOL = 1e-13


@dataclass(frozen=True)
class Constant:
    """g(x) = 1."""

    def __call__(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Monomial:
    """g(x) = x**degree."""

    degree: int

    def __post_init__(self):
        if not self.degree >= 0:  # NaN fails too
            raise ValueError(f"monomial degree must be >= 0, got {self.degree}")

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.degree


@dataclass(frozen=True)
class Sinusoid:
    """g(x) = cos(2*pi*x/period + phase)."""

    period: float
    phase: float = 0.0

    def __post_init__(self):
        if not 1e-150 <= self.period <= 1e150:  # below, 2*pi*x / period overflows
            raise ValueError(f"sinusoid period must lie in [1e-150, 1e150], got {self.period}")

    def __call__(self, x):
        return np.cos(2.0 * np.pi * np.asarray(x, dtype=float) / self.period + self.phase)


@dataclass(frozen=True)
class GaussianBump:
    """g(x) = exp(-(x - center)^2 / (2 width^2))."""

    center: float
    width: float

    def __post_init__(self):
        if not 1e-150 <= self.width <= 1e150:  # beyond, width**2 or z*z / (2 width**2) overflows
            raise ValueError(f"bump width must lie in [1e-150, 1e150], got {self.width}")

    def __call__(self, x):
        z = np.asarray(x, dtype=float) - self.center
        return np.exp(-(z * z) / (2.0 * self.width**2))


def design_matrix(basis: tuple, xs) -> np.ndarray:
    """Rows are sample points, columns are basis functions evaluated there."""
    if not basis:
        raise ValueError("basis set must be nonempty")
    xs = np.asarray(xs, dtype=float)
    return np.column_stack([g(xs) for g in basis])


@dataclass(frozen=True)
class LinearFit:
    """Coefficients over a basis set."""

    basis: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if len(c) != len(self.basis):
            raise ValueError("coefficient count must match basis size")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def predict(self, x):
        """Evaluate the fitted function at scalar or array x."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # run_single refuses an inf or NaN
            out = sum(c * g(x) for c, g in zip(self.coeffs, self.basis))
        return float(out) if out.ndim == 0 else out


def solve_ridge(X: np.ndarray, y: np.ndarray, reg_lambda: float = 0.0) -> np.ndarray:
    """Minimize ||y - X theta||^2 + reg_lambda^2 ||theta||^2.

    Solved through an orthogonal factorization of the stacked system
    [X; reg_lambda * I] rather than the normal equations: monomial
    columns on raw hour indices are too ill-conditioned to square.
    With reg_lambda = 0 this is ordinary least squares: fewer rows than
    columns raise UnderdeterminedError, and a rank-deficient system raises
    SingularSystemError. So does a design too small against y for the
    solution to fit in a float, for example a column of subnormals.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y length {y.shape} does not match {X.shape[0]} rows of X")
    if not reg_lambda >= 0:
        raise ValueError(f"reg_lambda must be >= 0, got {reg_lambda}")
    m, k = X.shape
    for name, a in (("X", X), ("y", y)):  # LAPACK would print to the terminal, then fail
        if not np.isfinite(a).all():
            where = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"{name}{where.tolist()} is {a[tuple(where)]}, not finite")
    if reg_lambda == 0 and m < k:
        raise UnderdeterminedError(f"{k} coefficients need at least {k} samples, have {m}")

    if reg_lambda > 0:
        A = np.vstack([X, reg_lambda * np.eye(X.shape[1])])
        b = np.concatenate([y, np.zeros(X.shape[1])])
    else:
        A, b = X, y

    theta, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    # lstsq drops singular values below eps * max(m, n) relative, a cutoff
    # above SINGULAR_RTOL once a system has more than about 450 rows.
    if sv.size == 0 or rank < k or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularSystemError(
            f"rank-deficient system: {X.shape[0]}x{X.shape[1]} design, "
            f"reg_lambda={reg_lambda}, singular values span "
            f"[{sv[-1] if sv.size else 0:.3e}, {sv[0] if sv.size else 0:.3e}]"
        )
    if not np.all(np.isfinite(theta)):
        raise SingularSystemError(
            f"least-squares solution overflows: {X.shape[0]}x{X.shape[1]} design, "
            f"reg_lambda={reg_lambda}, largest singular value {sv[0]:.3e}"
        )
    return theta


def fit_basis(train: Series, basis: tuple, reg_lambda: float = 0.0) -> LinearFit:
    """Ridge fit of an arbitrary basis set against a series."""
    X = design_matrix(basis, train.times)
    return LinearFit(tuple(basis), solve_ridge(X, train.values, reg_lambda))


def fit_polynomial(train: Series, degree: int) -> LinearFit:
    """Least-squares polynomial of the given degree in the time index."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return fit_basis(train, tuple(Monomial(d) for d in range(degree + 1)))


@dataclass(frozen=True)
class RbfConfig:
    """Gaussian radial-basis network with fixed centers and shared width.

    Centers are spaced evenly over the training time range, endpoints
    included; placement="data" instead puts one center on each of the
    first n_basis sample points.
    """

    n_basis: int
    sigma: float
    include_bias: bool = True
    placement: str = "even"

    def __post_init__(self):
        if not self.n_basis >= 1:  # NaN fails too
            raise ValueError(f"n_basis must be >= 1, got {self.n_basis}")
        GaussianBump(0.0, self.sigma)  # the width rule
        if self.placement not in ("even", "data"):
            raise ValueError(f"placement must be 'even' or 'data', got {self.placement!r}")


def _rbf_centers(config: RbfConfig, times: np.ndarray) -> np.ndarray:
    if config.placement == "data":
        if len(times) < config.n_basis:
            raise UnderdeterminedError("fewer sample points than requested centers")
        return times[: config.n_basis].copy()
    if config.n_basis == 1:
        return np.array([0.5 * (times.min() + times.max())])
    return np.linspace(times.min(), times.max(), config.n_basis)


def fit_rbf(train: Series, config: RbfConfig) -> LinearFit:
    """Fit RBF weights (and optional bias) by unregularized least squares."""
    centers = _rbf_centers(config, train.times)
    basis: list = [Constant()] if config.include_bias else []
    basis += [GaussianBump(float(c), config.sigma) for c in centers]
    return fit_basis(train, tuple(basis))
