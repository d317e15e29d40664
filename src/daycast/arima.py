"""Seasonal ARIMA modeling on top of the lag-operator difference equation.

A model multiplies four operator polynomials in the backshift B:

    phi_p(B) * PHI_P(B^s) * (1 - B)^d * (1 - B^s)^D  on the AR side,
    theta_q(B) * THETA_Q(B^s)                        on the MA side,

each written with the sign convention 1 - c_1 B - c_2 B^2 - ... .
ArimaOrder holds the orders as (p, d, q)(P, D, Q)s, the keys of an arima
config block; s = 0 means there is no seasonal block. Expanding the
products gives a single difference equation

    y[t] = sum_j phi~_j y[t-j] + const + a[t] - sum_j theta~_j a[t-j]

used three ways: to reconstruct shocks a[t] from data (with pre-sample
shocks and pre-sample differenced values fixed to zero), to estimate
parameters by minimizing the conditional sum of squared shocks, and to
forecast by taking conditional expectations with future shocks zeroed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ZeroVarianceError
from .series import Series

_UNIT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class ArimaOrder:
    """The orders of a (p, d, q)(P, D, Q)s model; s = 0 means no seasonal block."""

    p: int
    d: int
    q: int
    P: int
    D: int
    Q: int
    s: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ValueError(f"orders must be >= 0, got {(self.p, self.d, self.q)}")
        if min(self.P, self.D, self.Q) < 0:
            raise ValueError(f"seasonal orders must be >= 0, got {(self.P, self.D, self.Q)}")
        if (self.P or self.D or self.Q or self.s) and self.s < 2:
            raise ValueError(f"seasonality must be >= 2, got {self.s}")

    @property
    def n_params(self) -> int:
        return self.p + self.q + self.P + self.Q

    def check_length(self, n: int) -> None:
        """Raise ValueError unless n samples leave 3 * (n_params + 1) after differencing."""
        m = n - self.d - self.s * self.D
        needed = 3 * (self.n_params + 1)
        if m < needed:
            raise ValueError(f"differencing leaves {m} samples, estimation needs {needed}")


@dataclass(frozen=True)
class ArimaModel:
    """Fitted or hand-built model coefficients.

    phi/theta are the non-seasonal AR/MA coefficients, sphi/stheta the
    seasonal ones. theta0 is the deterministic drift constant of the
    difference equation; mu is the mean of the differenced series (for
    pure ARMA fits this is the series mean removed before estimation).
    warnings flags non-stationary or non-invertible estimates; they are
    reported, not enforced, because unit-circle AR roots are legitimate
    for deterministic signals. fit_trace records the best objective seen
    at each optimizer iteration.
    """

    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    sphi: np.ndarray
    stheta: np.ndarray
    theta0: float = 0.0
    sigma2: float = 0.0
    mu: float = 0.0
    warnings: tuple[str, ...] = ()
    fit_trace: tuple[float, ...] = ()

    def __post_init__(self):
        for name, arr, want in (("phi", self.phi, self.order.p),
                                ("theta", self.theta, self.order.q),
                                ("sphi", self.sphi, self.order.P),
                                ("stheta", self.stheta, self.order.Q)):
            a = np.asarray(arr, dtype=float)
            if len(a) != want:
                raise ValueError(f"{name} must have length {want}, got {len(a)}")
            object.__setattr__(self, name, a)
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")


@dataclass(frozen=True)
class ExpandedForm:
    """Difference-equation coefficients after multiplying out all operators.

    ar_full[j-1] is the coefficient phi~_j on y[t-j] (lags 1..p+d+s*P+s*D);
    ma_full[j-1] is theta~_j on a[t-j] (lags 1..q+s*Q).
    """

    ar_full: np.ndarray
    ma_full: np.ndarray


def _op_poly(coeffs, s: int = 1) -> np.ndarray:
    """1 - c1 B^s - c2 B^2s - ... as an ascending coefficient array."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(len(coeffs) * s + 1)
    out[0] = 1.0
    out[s::s] = -coeffs
    return out


def _diff_poly(n: int, s: int = 1) -> np.ndarray:
    """(1 - B^s)^n as an ascending coefficient array."""
    base = np.zeros(s + 1)
    base[0], base[s] = 1.0, -1.0
    out = np.array([1.0])
    for _ in range(n):
        out = np.convolve(out, base)
    return out


def _operators(order: ArimaOrder, phi, theta, sphi, stheta) -> tuple[np.ndarray, np.ndarray]:
    """The stationary AR product phi(B) PHI(B^s) and the MA product theta(B) THETA(B^s)."""
    s = max(order.s, 1)  # s = 0 has P = Q = 0: the seasonal factors are 1 for any s
    return (np.convolve(_op_poly(phi), _op_poly(sphi, s)),
            np.convolve(_op_poly(theta), _op_poly(stheta, s)))


def _expand(order: ArimaOrder, ar: np.ndarray, ma: np.ndarray) -> ExpandedForm:
    """Flat lag coefficients of ar(B) (1 - B)^d (1 - B^s)^D and of ma(B)."""
    full = np.convolve(np.convolve(ar, _diff_poly(order.d)), _diff_poly(order.D, order.s))
    return ExpandedForm(ar_full=-full[1:], ma_full=-ma[1:])


def expand_polynomials(model: ArimaModel) -> ExpandedForm:
    """Multiply out both operator products into flat lag coefficients."""
    ar, ma = _operators(model.order, model.phi, model.theta, model.sphi, model.stheta)
    return _expand(model.order, ar, ma)


def difference(series: Series, d: int, D: int = 0, s: int = 0) -> Series:
    """Apply (1-B)^d then (1-B^s)^D (s >= 2 when D > 0); the output is d + s*D shorter."""
    if min(d, D) < 0 or D and s < 2:
        raise ValueError(f"need d, D >= 0 and s >= 2 when D > 0, got d = {d}, D = {D}, s = {s}")
    drop = d + s * D
    if len(series) <= drop:
        raise ValueError(f"series of length {len(series)} too short to difference by {drop}")
    v = series.values
    for _ in range(d):
        v = v[1:] - v[:-1]
    for _ in range(D):
        v = v[s:] - v[:-s]
    return series.with_values(v, t0=series.t0 + drop)


def _min_root_magnitude(poly: np.ndarray) -> float:
    trimmed = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    if len(trimmed) <= 1:
        return np.inf
    return float(np.min(np.abs(np.roots(trimmed[::-1]))))


def _autocorrelations(x: np.ndarray, max_lag: int) -> np.ndarray | None:
    """Sample autocorrelations of x at lags 1..max_lag, or None when x is constant."""
    xc = x - x.mean()
    c0 = float(xc @ xc) / len(xc)
    if c0 == 0.0:
        return None
    return np.array([float(xc[:-k] @ xc[k:]) / len(xc) / c0 for k in range(1, max_lag + 1)])


def _yule_walker(z: np.ndarray, p: int) -> np.ndarray:
    r = _autocorrelations(z, p) if p > 0 else None
    if r is None:
        return np.zeros(p)
    try:
        c = np.concatenate([[1.0], r[:-1]])
        return np.linalg.solve(c[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))], r)
    except np.linalg.LinAlgError:
        return np.zeros(p)


def _split_params(params: np.ndarray, order: ArimaOrder):
    p, q, P, Q = order.p, order.q, order.P, order.Q
    return (params[:p], params[p:p + q],
            params[p + q:p + q + P], params[p + q + P:p + q + P + Q])


def css_estimate(series: Series, order: ArimaOrder, init=None, *,
                 max_iterations: int | None = None) -> ArimaModel:
    """Estimate coefficients by conditional sum of squares.

    The differenced series is centered by its mean only for pure ARMA, so
    a differenced fit has no drift (theta0 = 0). Shocks are computed with
    zero pre-sample values, and sum(a^2) is minimized by Nelder-Mead from
    a Yule-Walker start for the AR side and zeros elsewhere. The budget
    defaults to 500 iterations per free parameter.

    Raises EstimationError (carrying the best model and objective so
    far) if the simplex exhausts its budget without converging.
    """
    from scipy.optimize import minimize
    from scipy.signal import lfilter

    order.check_length(len(series))
    z = difference(series, order.d, order.D, order.s).values
    m = len(z)
    mu_z = float(z.mean())
    zc = z - (mu_z if order.d + order.D == 0 else 0.0)  # lfilter is slower on read-only z

    def build(params, sigma2, trace):
        phi, theta, sphi, stheta = _split_params(np.asarray(params, dtype=float), order)
        ar, ma = _operators(order, phi, theta, sphi, stheta)
        warns = []
        if _min_root_magnitude(ar) <= 1.0 + _UNIT_ROOT_TOL:
            warns.append("AR polynomial has a root on or inside the unit circle (non-stationary)")
        if _min_root_magnitude(ma) <= 1.0 + _UNIT_ROOT_TOL:
            warns.append("MA polynomial has a root on or inside the unit circle (non-invertible)")
        return ArimaModel(order, phi, theta, sphi, stheta, sigma2=sigma2, mu=mu_z,
                          warnings=tuple(warns), fit_trace=tuple(trace))

    def objective(params):
        ar, ma = _operators(order, *_split_params(params, order))
        # a[t] = zc[t] - sum phi~ zc[t-i] + sum theta~ a[t-j]; lfilter's zero
        # initial state is exactly the zero pre-sample convention.
        a = lfilter(ar, ma, zc)
        if not np.all(np.isfinite(a)):
            return 1e300
        return float(a @ a)

    if order.n_params == 0:
        obj = objective(np.zeros(0))
        return build(np.zeros(0), obj / m, [obj])

    if init is not None:
        x0 = np.asarray(init, dtype=float)
        if len(x0) != order.n_params:
            raise ValueError(f"init must have length {order.n_params}, got {len(x0)}")
    else:
        x0 = np.zeros(order.n_params)
        x0[:order.p] = _yule_walker(zc, order.p)

    best = [min(objective(x0), 1e300)]
    trace = [best[0]]

    def tracked(params):
        val = objective(params)
        if val < best[0]:
            best[0] = val
        return val

    maxiter = max_iterations if max_iterations is not None else 500 * order.n_params
    result = minimize(
        tracked, x0, method="Nelder-Mead",
        callback=lambda xk: trace.append(best[0]),
        options={"xatol": 1e-10, "fatol": 1e-14,
                 "maxiter": maxiter, "maxfev": 2 * maxiter},
    )
    model = build(result.x, result.fun / m, trace)
    if not result.success:
        raise EstimationError(
            f"CSS simplex did not converge within {maxiter} iterations "
            f"(final objective {result.fun:.6g})",
            model=model, objective=float(result.fun),
        )
    return model


def _center_of(model: ArimaModel, ar: np.ndarray) -> float:
    """The level the differenced series moves around; ar is the stationary AR product."""
    if model.order.d + model.order.D == 0:
        return model.mu
    if model.theta0 == 0.0:
        return 0.0
    stat1 = float(ar.sum())
    return model.theta0 / stat1 if stat1 != 0.0 else 0.0


def forecast(model: ArimaModel, history: Series, lead: int) -> Series:
    """Minimum-MSE forecasts by iterating the expanded difference equation.

    Known samples and reconstructed in-sample shocks feed the recursion;
    future shocks are zero and intermediate future values are the
    previously computed conditional expectations.
    """
    from scipy.signal import lfilter

    if lead < 1:
        raise ValueError(f"lead must be >= 1, got {lead}")
    drop = model.order.d + model.order.s * model.order.D
    ar, ma = _operators(model.order, model.phi, model.theta, model.sphi, model.stheta)
    form = _expand(model.order, ar, ma)
    n = len(history)
    if n < max(len(form.ar_full), drop + 1):
        raise ValueError(
            f"history of length {n} too short for AR lags up to {len(form.ar_full)}"
        )

    center = _center_of(model, ar)
    theta0_eff = center * float(ar.sum())
    z = difference(history, model.order.d, model.order.D, model.order.s).values
    shocks = lfilter(ar, ma, z - center)

    phis, thetas = form.ar_full, form.ma_full
    ye = np.concatenate([history.values, np.zeros(lead)])
    # Pre-pad so MA lags reaching before the first sample read the
    # conventional zero pre-sample shocks instead of wrapping.
    pad = len(thetas)
    ae = np.concatenate([np.zeros(pad + drop), shocks, np.zeros(lead)])
    for i in range(n, n + lead):
        val = theta0_eff
        for j in range(1, len(phis) + 1):
            val += phis[j - 1] * ye[i - j]
        for j in range(1, len(thetas) + 1):
            val -= thetas[j - 1] * ae[pad + i - j]
        ye[i] = val
    return history.with_values(ye[n:], t0=history.t0 + n)


def acf_pacf(series: Series, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample autocorrelation and partial autocorrelation up to max_lag.

    Both arrays have length max_lag + 1 with index 0 fixed at 1. The
    PACF comes from the Durbin-Levinson recursion on the ACF.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag >= len(series):
        raise ValueError(f"max_lag {max_lag} must be below the series length {len(series)}")
    r = _autocorrelations(series.values, max_lag)
    if r is None:
        raise ZeroVarianceError("autocorrelation is undefined for a constant series")
    acf = np.concatenate([[1.0], r])

    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    prev = np.zeros(0)
    for k in range(1, max_lag + 1):
        num = acf[k] - float(prev @ acf[1:k][::-1])
        den = 1.0 - float(prev @ acf[1:k])
        phi_kk = num / den if den != 0.0 else 0.0
        cur = np.empty(k)
        cur[k - 1] = phi_kk
        cur[:k - 1] = prev - phi_kk * prev[::-1]
        pacf[k] = phi_kk
        prev = cur
    return acf, pacf

