"""Seasonal ARIMA modeling on top of the lag-operator difference equation.

A model multiplies four operator polynomials in the backshift B:

    phi_p(B) * PHI_P(B^s) * (1 - B)^d * (1 - B^s)^D  on the AR side,
    theta_q(B) * THETA_Q(B^s)                        on the MA side,

each written with the sign convention 1 - c_1 B - c_2 B^2 - ... .
ArimaOrder holds the orders as (p, d, q)(P, D, Q)s, the keys of an arima
config block; s = 0 means there is no seasonal block. Expanding the
products gives a single difference equation

    y[t] = sum_j phi~_j y[t-j] + const + a[t] - sum_j theta~_j a[t-j]

with const = mu * phi(1) PHI(1), where mu is the level the differenced
series moves around (ArimaModel.mu). It is used three ways: to
reconstruct shocks a[t] from data (with pre-sample shocks and pre-sample
differenced values fixed to zero), to estimate parameters by minimizing
the conditional sum of squared shocks, and to forecast by taking
conditional expectations with future shocks zeroed.
"""

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ZeroVarianceError
from .series import Series, first_outside

_UNIT_ROOT_TOL = 1e-8
# The caps of an accepted order: at both, a fit on 8760 samples spends its
# 8000-evaluation budget within about a minute (see README).
MAX_PARAMS, MAX_LAG = 8, 400


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
        """Raise ValueError unless n samples leave 3 * (n_params + 1) after differencing
        and the order is within MAX_PARAMS parameters and MAX_LAG lags on each side."""
        m = n - self.d - self.s * self.D
        needed = 3 * (self.n_params + 1)
        if m < needed:
            raise ValueError(f"differencing leaves {m} samples, estimation needs {needed}")
        ar_lag, ma_lag = self.p + self.d + self.s * (self.P + self.D), self.q + self.s * self.Q
        for keys, value, cap in (("p + q + P + Q", self.n_params, MAX_PARAMS),
                                 ("the AR lag p + d + s * (P + D)", ar_lag, MAX_LAG),
                                 ("the MA lag q + s * Q", ma_lag, MAX_LAG)):
            if value > cap:
                raise ValueError(f"{keys} is {value}, above the cap of {cap}")


@dataclass(frozen=True)
class ArimaModel:
    """Fitted or hand-built model coefficients.

    phi/theta are the non-seasonal AR/MA coefficients, sphi/stheta the
    seasonal ones. mu is the level the differenced series moves around:
    for a pure ARMA fit the series mean that estimation removes, for a
    differenced fit 0.0 (CSS estimates no drift), and for a hand-built
    differenced model its drift. warnings flags non-stationary or
    non-invertible estimates; they are reported, not enforced, because
    unit-circle AR roots are legitimate for deterministic signals.
    fit_trace records the best objective seen at each optimizer iteration.
    """

    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    sphi: np.ndarray
    stheta: np.ndarray
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
        if not self.sigma2 >= 0:  # NaN fails too
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


def _product(c, C, s: int) -> np.ndarray:
    """(1 - c1 B - c2 B^2 - ...) (1 - C1 B^s - C2 B^2s - ...) as an ascending array."""
    return np.convolve(_op_poly(c), _op_poly(C, s))


def _operators(order: ArimaOrder, phi, theta, sphi, stheta) -> tuple[np.ndarray, np.ndarray]:
    """The stationary AR product phi(B) PHI(B^s) and the MA product theta(B) THETA(B^s)."""
    s = max(order.s, 1)  # s = 0 has P = Q = 0: the seasonal factors are 1 for any s
    return _product(phi, sphi, s), _product(theta, stheta, s)


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
    if bad := first_outside(v):  # named here: the Series check would not name the differencing
        raise ValueError(f"the (d = {d}, D = {D}) difference is {bad[1]} at t = "
                         f"{series.t0 + drop + bad[0]}")
    return series.with_values(v, t0=series.t0 + drop)


def _min_root_magnitude(poly) -> float:
    """The smallest root magnitude of the ascending polynomial poly, inf if it has none.

    np.roots runs on poly without its trailing zeros from degree 2 on. A
    degree-1 root is -poly[0] / poly[1], np.roots's 1x1 companion matrix:
    its bits, but within an ulp outside about [1e-138, 1e138], where LAPACK
    scales it, and inf where np.roots refuses the overflowed division.
    From degree 2 on, where np.roots's companion matrix would overflow, it
    roots the reversed poly instead: its roots are poly's reciprocals, and
    it divides by poly[0], an operator's constant 1.
    """
    coeffs = np.asarray(poly, dtype=float).tolist()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 2:
        return abs(-coeffs[0] / coeffs[1]) if len(coeffs) == 2 else math.inf
    if max(map(abs, coeffs)) / abs(coeffs[-1]) < math.inf:
        return float(np.min(np.abs(np.roots(coeffs[::-1]))))
    if not coeffs[0]:
        return 0.0  # a zero constant is a root at 0
    largest = float(np.max(np.abs(np.roots(coeffs))))
    return 1.0 / largest if largest else math.inf


def _min_factor_root_magnitude(c, C, s: int) -> float:
    """_min_root_magnitude of _product(c, C, s), from the factors' roots.

    The roots of c(B) C(B^s) are c's and the s-th roots of C's, so two
    companion matrices of order len(c) and len(C) replace one of order
    len(c) + s * len(C).
    """
    return min(_min_root_magnitude(_op_poly(c)), _min_root_magnitude(_op_poly(C)) ** (1 / s))


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


def _lag_coefficients(name: str, c: list, C: list, s: int, reach) -> tuple[list, dict]:
    """Source lines naming the lag coefficients of _product(c, C, s), and {lag: name}.

    c and C are the names of the parameters. With no seasonal term, or
    fewer non-seasonal terms than s, every lag has one term, written as
    0.0 - c or 0.0 + c * C: np.convolve starts each lag's sum at +0.0, so
    a zero parameter then gives +0.0, as in _product, where a bare -c would
    give -0.0; only the lags below reach get a line. Otherwise the
    coefficients come from _product itself. Lags with no term are left out.
    """
    if len(c) >= s and C:
        names = [f"{name}{k}" for k in range(len(c) + s * len(C) + 1)]
        line = f"{', '.join(names)}, = _product([{', '.join(c)}], [{', '.join(C)}], {s}).tolist()"
        return [line], {k: names[k] for k in range(1, len(names))}
    terms = {i: f"0.0 - {ci}" for i, ci in enumerate(c, 1)}
    for k, Ck in enumerate(C, 1):
        terms[k * s] = f"0.0 - {Ck}"
        terms.update({k * s + i: f"0.0 + {ci} * {Ck}" for i, ci in enumerate(c, 1)})
    return ([f"{name}{k} = {v}" for k, v in terms.items() if k < reach],
            {k: f"{name}{k}" for k in terms})


@functools.lru_cache(maxsize=32)
def _shock_function(order: ArimaOrder, m: int):
    """Compile bind(zc) -> (shocks, objective) for the m CSS shocks of zc as lfilter(ar, ma, zc).

    shocks(params) returns the shocks; objective(params) is the objective
    of css_estimate, their sum of squares as one np.vdot (the bits of the
    a @ a it replaced, without numpy's overflow warning), or 1e300 when a
    shock is not finite. Both run one generated body on params, plain
    floats; the coefficients are plain floats, from _lag_coefficients. Without an
    MA side lfilter calls np.convolve(ar, zc), whose sums are BLAS's (fused
    on some CPUs), so shocks makes that call, at any m. With an MA side
    lfilter runs a transposed direct form: each shock adds the lags from
    the longest to the shortest, the AR term (x[t-k] * b[k], b = ar) before
    the MA term (y[t-k] * a[k], a = ma) at one lag, then x[t]. shocks makes
    those operations in that order on plain floats (bind takes x from
    zc.tolist(), and np.fromiter makes the shocks an array): unrolled for
    the first min(m, L) shocks, L the longest lag with a term, then, when
    the window ends past L, in one loop over t, where every shock has every
    term. It leaves out the lags no sample reaches (k > t), with their
    coefficients, and the coefficients that are structurally zero: such
    a term can only change the sign of a zero shock, which changes no
    value, or turn into NaN a shock that is not finite anyway.
    """
    p, q, P, Q = order.p, order.q, order.P, order.Q
    params = ([f"phi{i}" for i in range(1, p + 1)] + [f"theta{i}" for i in range(1, q + 1)]
              + [f"Phi{i}" for i in range(1, P + 1)] + [f"Theta{i}" for i in range(1, Q + 1)])
    phi, theta, sphi, stheta = _split_params(params, order)
    s = max(order.s, 1)
    reach = m if q + Q else math.inf  # np.convolve reads every AR coefficient
    ar_lines, ar = _lag_coefficients("b", phi, sphi, s, reach)
    ma_lines, ma = _lag_coefficients("a", theta, stheta, s, reach)

    bind = []
    body = [f"{', '.join(params)}, = params"] if params else []
    body += ar_lines + ma_lines
    if not ma:  # the coefficient array, 0.0 at the lags with no term
        names = ["1.0"] + [ar.get(k, "0.0") for k in range(1, p + s * P + 1)]
        body.append(f"a = _convolve(_array([{', '.join(names)}]), zc)[:{m}]")
    else:
        lags = sorted(ar.keys() | ma.keys(), reverse=True)

        def shock(t, x, y):  # the sum for sample t; x(k) and y(k) name lag k's sample and shock
            expr = ""
            for k in (k for k in lags if k <= t):
                if k in ar:
                    expr += f" + {x(k)} * {ar[k]}"
                if k in ma:
                    expr += f" - {y(k)} * {ma[k]}"
            expr += f" + {x(0)}"  # Python adds left to right, as lfilter does
            # Drop the leading " + ", or write a leading " - " as a unary minus.
            return expr[3:] if expr[1] == "+" else "-" + expr[3:]

        u = min(m, lags[0])
        x_names, y_names = (", ".join(f"{v}{t}" for t in range(u)) for v in "xy")
        for t in range(u):
            body.append(f"y{t} = {shock(t, lambda k: f'x{t - k}', lambda k: f'y{t - k}')}")
        bind += ["xs = zc.tolist()", f"{x_names}, = xs[:{u}]"]
        body.append(f"y = [{y_names}]")
        if u < m:  # past the longest lag every shock has every term, so one loop makes them
            loop = shock(u, lambda k: f"xs[t - {k}]" if k else "xs[t]", lambda k: f"y[t - {k}]")
            body += [f"for t in range({u}, {m}):", f"    y.append({loop})"]
        body.append(f"a = _fromiter(y, float, {m})")
    source = "def bind(zc):\n" + "".join(f"    {line}\n" for line in bind)
    for name, tail in (("shocks", ["return a"]),
                       ("objective", ["v = float(_vdot(a, a))",
                                      "return v if _isfinite(v) or _finite(a).all() else 1e300"])):
        source += f"    def {name}(params):\n" + "".join(f"        {ln}\n" for ln in body + tail)
    namespace = {"_product": _product, "_convolve": np.convolve, "_array": np.array,
                 "_fromiter": np.fromiter, "_vdot": np.vdot, "_isfinite": math.isfinite,
                 "_finite": np.isfinite}
    exec(source + "    return shocks, objective\n", namespace)
    return namespace["bind"]


def _css_objective(order: ArimaOrder, zc: np.ndarray):
    """The objective of css_estimate: params -> the sum of squared CSS shocks of zc.

    It is _shock_function's compiled objective: its shocks are lfilter(ar,
    ma, zc)'s, bit for bit but for the sign of a zero shock at a -0.0
    sample, which squaring removes (and the NaN or inf of a shock that is
    not finite). forecast reads the same shocks.
    """
    return _shock_function(order, len(zc))(zc)[1]


class _BudgetSpent(Exception):
    """The simplex asked for one objective evaluation more than its budget allows."""


@functools.lru_cache(maxsize=32)
def _vertex_ops(n: int):
    """Compile the simplex arithmetic of _nelder_mead on n-tuples of plain floats, n >= 1.

    Returns (centroid, combine, shrink, converged), each written out
    coordinate by coordinate, so no step builds an intermediate list:
    centroid(sim) adds the first n vertices left to right (as np.add.reduce
    over axis 0) and divides by n; combine(c1, c2, a, h) is c1*a - c2*h;
    shrink(a, v) is a + 0.5*(v - a); converged(sim, fsim, fatol) makes
    scipy's tests, the given fatol first and xatol 1e-10 only when that
    passes, with <=, so a NaN difference is not converged.
    """
    x = [[f"x{i}_{k}" for k in range(n)] for i in range(n + 1)]
    a, h, v = ([f"{name}{k}" for k in range(n)] for name in "ahv")

    def tup(names):
        return "(" + ", ".join(names) + ",)"

    vertices = ", ".join(map(tup, x))
    sums = [" + ".join(x[i][k] for i in range(n)) for k in range(n)]
    x_tests = " and ".join(f"abs({x[j][k]} - {x[0][k]}) <= 1e-10"
                           for j in range(1, n + 1) for k in range(n))
    f_tests = " and ".join(f"abs(f0 - f{j}) <= fatol" for j in range(1, n + 1))
    source = (
        f"def centroid(sim):\n    {', '.join(map(tup, x[:-1]))}, _ = sim\n"
        f"    return {tup(f'({s}) / {n}' for s in sums)}\n"
        f"def combine(c1, c2, a, h):\n    {tup(a)} = a\n    {tup(h)} = h\n"
        f"    return {tup(f'c1 * {ak} - c2 * {hk}' for ak, hk in zip(a, h))}\n"
        f"def shrink(a, v):\n    {tup(a)} = a\n    {tup(v)} = v\n"
        f"    return {tup(f'{ak} + 0.5 * ({vk} - {ak})' for ak, vk in zip(a, v))}\n"
        f"def converged(sim, fsim, fatol):\n    {tup(f'f{j}' for j in range(n + 1))} = fsim\n"
        f"    if not ({f_tests}):\n        return False\n"
        f"    {vertices}, = sim\n    return {x_tests}\n")
    namespace = {}
    exec(source, namespace)
    return tuple(namespace[name] for name in ("centroid", "combine", "shrink", "converged"))


def _nelder_mead(f, x0: list, fatol: float, maxiter: int, maxfev: int, trace: list):
    """Minimize f from x0 (at least one float) with the Nelder-Mead simplex, on tuples.

    This is scipy.optimize.minimize(method="Nelder-Mead") with its default
    coefficients (adaptive=False, no bounds), xatol 1e-10 and the given
    absolute fatol, written to make the same floating-point operations in
    the same order, so it returns the same bits (checked against scipy
    1.17); scipy spends as long on the bookkeeping of its few small arrays
    as a CSS objective takes. The vertices are tuples, and the centroid,
    the four steps, the shrink and the convergence test are _vertex_ops's,
    compiled once per dimension. As in scipy, the evaluation count is checked before every
    call to f, and a stop in mid-iteration (a shrink included) keeps the
    partly updated simplex, does not count the iteration, and still sorts.

    trace ends in the best value known before the start. After each pass
    of the loop, where scipy calls back, the lowest of it and every value
    f has returned is appended, even one the budget kept out of the
    simplex. Stopping on convergence appends no more, as in scipy 1.17
    (older scipy called back once more from a finally clause).

    The vertices are ordered by np.argsort, as in scipy. A step that does
    not shrink replaces only the worst vertex, with a value that passed a
    < or <= test and so is not NaN. When the others were in strictly
    increasing order and the new value ties none of theirs, the order is
    unique, and bisect finds its place in it. Any other iteration, or one
    stopped by the budget, sorts again.

    Returns (x, f(x), spent), where x is a list, and spent is None on
    convergence, else the budget that ran out with its name: (maxfev,
    "objective evaluations") or (maxiter, "iterations") (scipy's status 1
    and 2).
    """
    n = len(x0)
    centroid, combine, shrink, converged = _vertex_ops(n)
    # Vertex k + 1 moves coordinate k by 5 %, or to 0.00025 from zero.
    sim = [tuple(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(tuple(y))
    fsim = [math.inf] * (n + 1)
    nfev, best = 0, trace[-1]

    def call(x):
        nonlocal nfev, best
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        v = f(x)
        if v < best:
            best = v
        return v

    def by_value():
        # np.argsort's permutation, as scipy sorts: it is not stable, so only
        # it puts tied vertices (a wind fit ties at its first sort) in scipy's
        # order. Given an array, it skips its fallback for a list.
        # Returns whether the order is strict.
        ind = np.argsort(np.array(fsim)).tolist()
        strict = all(fsim[i] < fsim[j] for i, j in zip(ind, ind[1:]))
        return [sim[i] for i in ind], [fsim[i] for i in ind], strict

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim, strict = by_value()

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        resort = True
        try:
            if converged(sim, fsim, fatol):
                break

            # The steps keep scipy's coefficients; the inside contraction
            # 0.5*a - (-0.5)*h has the bits of scipy's 0.5*a + 0.5*h.
            xbar, x_h = centroid(sim), sim[-1]
            xr = combine(2.0, 1.0, xbar, x_h)
            fxr = call(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = combine(3.0, 2.0, xbar, x_h)
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = combine(1.5, 0.5, xbar, x_h)
                fxc = call(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = combine(0.5, -0.5, xbar, x_h)
                fxcc = call(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                x_0 = sim[0]
                for j in range(1, n + 1):
                    sim[j] = shrink(x_0, sim[j])
                    fsim[j] = call(sim[j])
            iterations += 1
            if strict and not doshrink:
                fnew = fsim[-1]
                i = bisect.bisect_left(fsim, fnew, 0, n)
                resort = i < n and fsim[i] == fnew
        except _BudgetSpent:
            pass
        if resort:
            sim, fsim, strict = by_value()
        else:
            sim.insert(i, sim.pop())
            fsim.insert(i, fsim.pop())
        trace.append(best)

    spent = ((maxfev, "objective evaluations") if nfev >= maxfev
             else (maxiter, "iterations") if iterations >= maxiter else None)
    return list(sim[0]), fsim[0], spent


def css_estimate(series: Series, order: ArimaOrder, init=None, *,
                 max_iterations: int | None = None) -> ArimaModel:
    """Estimate coefficients by conditional sum of squares.

    The fit runs on the differenced series less the model's level mu: the
    series mean for pure ARMA, 0.0 for a differenced fit, which has no
    drift. Shocks are computed with zero pre-sample values, and sum(a^2) is
    minimized by the Nelder-Mead simplex of _nelder_mead (scipy's, ported
    to tuples of plain floats with the same arithmetic, compiled once per
    number of parameters) from a Yule-Walker start for the AR side and
    zeros elsewhere. It stops when every vertex lies within 1e-10 of the
    best one in each coordinate and within fatol = 1e-14 * f(x0) of its
    objective: scipy's absolute 1e-14 at a start that scores 1, and in
    any other unit the same share of the objective, so whether a fit
    converges does not depend on the data's unit. A start that scores the
    1e300 sentinel gives fatol 1e286, so once no vertex scores the
    sentinel, only the coordinate test stops the fit. The
    objective, _css_objective, is one compiled call per evaluation on plain
    floats and gives the bits of the lfilter shocks and a @ a it replaces.
    The simplex keeps the lowest value it has seen for fit_trace. The
    budget defaults to 500 iterations per free parameter, with twice as
    many objective evaluations.

    Raises EstimationError (carrying the best model and objective so
    far) if the simplex exhausts its budget without converging.
    """
    if max_iterations is not None and not max_iterations >= 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    order.check_length(len(series))
    z = difference(series, order.d, order.D, order.s).values
    m = len(z)
    mu = float(z.mean()) if order.d + order.D == 0 else 0.0
    zc = z - mu
    objective = _css_objective(order, zc)

    def build(params, sigma2, trace):
        phi, theta, sphi, stheta = _split_params(np.asarray(params, dtype=float), order)
        ar, ma = _operators(order, phi, theta, sphi, stheta)
        warns = []
        for side, poly, c, C, flaw in (("AR", ar, phi, sphi, "non-stationary"),
                                       ("MA", ma, theta, stheta, "non-invertible")):
            if not np.isfinite(poly).all():  # np.roots would raise on it
                warns.append(f"{side} polynomial is not finite")
            elif _min_factor_root_magnitude(c, C, max(order.s, 1)) <= 1.0 + _UNIT_ROOT_TOL:
                warns.append(f"{side} polynomial has a root on or inside the unit circle ({flaw})")
        return ArimaModel(order, phi, theta, sphi, stheta, sigma2=sigma2, mu=mu,
                          warnings=tuple(warns), fit_trace=tuple(trace))

    if order.n_params == 0:
        obj = objective([])
        return build(np.zeros(0), obj / m, [obj])

    if init is not None:
        x0 = np.asarray(init, dtype=float)
        if len(x0) != order.n_params:
            raise ValueError(f"init must have length {order.n_params}, got {len(x0)}")
    else:
        x0 = np.zeros(order.n_params)
        x0[:order.p] = _yule_walker(zc, order.p)

    trace = [min(objective(x0.tolist()), 1e300)]
    maxiter = max_iterations if max_iterations is not None else 500 * order.n_params
    x, fun, spent = _nelder_mead(objective, x0.tolist(), 1e-14 * trace[0], maxiter, 2 * maxiter,
                                 trace)
    model = build(x, fun / m, trace)
    if spent is not None:
        raise EstimationError(
            f"CSS simplex did not converge within {spent[0]} {spent[1]} "
            f"(final objective {fun:.6g})",
            model=model, objective=float(fun),
        )
    return model


def forecast(model: ArimaModel, history: Series, lead: int) -> Series:
    """Minimum-MSE forecasts by iterating the expanded difference equation.

    Known samples and reconstructed in-sample shocks feed the recursion;
    future shocks are zero and intermediate future values are the
    previously computed conditional expectations. The shocks are the ones
    css_estimate minimized, from the same cached _shock_function, so a
    forecast from the training series compiles nothing. They equal
    lfilter's; a zero shock at a -0.0 sample may have the other sign, and
    so may a zero forecast. Only a model with an MA side reads shocks, so
    only it computes them. The level model.mu is taken off the differenced
    history before the shocks and enters every step as mu * phi(1) PHI(1).
    A forecast beyond +/-1e150 raises ValueError naming its first such time.
    """
    if not lead >= 1:  # NaN fails too
        raise ValueError(f"lead must be >= 1, got {lead}")
    drop = model.order.d + model.order.s * model.order.D
    ar, ma = _operators(model.order, model.phi, model.theta, model.sphi, model.stheta)
    form = _expand(model.order, ar, ma)
    n = len(history)
    if n < max(len(form.ar_full), drop + 1):
        raise ValueError(
            f"history of length {n} too short for AR lags up to {len(form.ar_full)}"
        )

    const = model.mu * float(ar.sum())
    # The recursion runs on plain floats: numpy scalar indexing costs more
    # than the arithmetic, and float arithmetic gives the same bits.
    phis, thetas = form.ar_full.tolist(), form.ma_full.tolist()
    ye = history.values.tolist() + [0.0] * lead
    pad = len(thetas)
    if thetas:  # an MA-free recursion reads no shock
        z = difference(history, model.order.d, model.order.D, model.order.s).values
        params = np.concatenate([model.phi, model.theta, model.sphi, model.stheta]).tolist()
        shocks = _shock_function(model.order, len(z))(z - model.mu)[0](params).tolist()
        # Pre-pad so MA lags reaching before the first sample read the
        # conventional zero pre-sample shocks instead of wrapping.
        ae = [0.0] * (pad + drop) + shocks + [0.0] * lead
    for i in range(n, n + lead):
        val = const
        for j in range(1, len(phis) + 1):
            val += phis[j - 1] * ye[i - j]
        for j in range(1, len(thetas) + 1):
            val -= thetas[j - 1] * ae[pad + i - j]
        ye[i] = val
    if bad := first_outside(ye[n:]):  # named here: the Series check would not name the method
        raise ValueError(f"arima forecast is {bad[1]} at t = {history.t0 + n + bad[0]}")
    return history.with_values(ye[n:], t0=history.t0 + n)


def acf_pacf(series: Series, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample autocorrelation and partial autocorrelation up to max_lag.

    Both arrays have length max_lag + 1 with index 0 fixed at 1. The
    PACF comes from the Durbin-Levinson recursion on the ACF.
    """
    if not max_lag >= 1:  # NaN fails too
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

