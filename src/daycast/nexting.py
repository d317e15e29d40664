"""Online multi-timescale prediction with tile-coded features and TD(lambda).

Each of P signals gets its own weight and eligibility vector over one
shared sparse binary feature vector. At every step the learner emits
its current estimate of the discounted return of each signal, then
nudges the weights toward the one-step bootstrapped target. All signal
values must be normalized into [0, 1] before coding.

tile_indices is the only encoder. NextingLearner.step and .predict take
one normalized sample at a time and encode it with the learner's own
coder; run_online encodes a whole stream at once and runs the same
update on the precomputed indices.
"""

from dataclasses import dataclass

import numpy as np

from .series import Series, normalize_unit


@dataclass(frozen=True)
class TileCoder:
    """Several uniformly offset grids over [0, 1] per signal.

    Tiling m is shifted by m / (n_tilings * tiles_per_dim), so each
    tiling contributes exactly one active tile per signal and the
    active-feature count is constant: n_tilings * n_signals, plus one
    when the always-on bias feature is included.
    """

    n_tilings: int = 8
    tiles_per_dim: int = 8
    n_signals: int = 1
    include_bias: bool = True

    def __post_init__(self):
        if min(self.n_tilings, self.tiles_per_dim, self.n_signals) < 1:
            raise ValueError("tilings, tiles and signals must all be >= 1")

    @property
    def n_features(self) -> int:
        return self.n_tilings * self.tiles_per_dim * self.n_signals + (
            1 if self.include_bias else 0)

    @property
    def n_active(self) -> int:
        return self.n_tilings * self.n_signals + (1 if self.include_bias else 0)


def tile_indices(values, coder: TileCoder) -> np.ndarray:
    """Sorted active-feature indices for a batch of normalized samples.

    values has shape (n, n_signals), one row per sample; the result has
    shape (n, n_active). Deterministic; every row is encoded alike.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != coder.n_signals:
        raise ValueError(f"expected {coder.n_signals} signal values per sample, "
                         f"got shape {vals.shape}")
    if np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9):
        raise ValueError(f"inputs must lie in [0, 1], got {vals}")
    vals = np.clip(vals, 0.0, 1.0)
    m_grid, k = coder.n_tilings, coder.tiles_per_dim
    offsets = np.array([m / (m_grid * k) for m in range(m_grid)])
    # tiles[i, p, m]: tile of sample i, signal p in tiling m.
    tiles = np.minimum(((vals[:, :, None] + offsets) * k).astype(int), k - 1)
    # Signal blocks, then tilings within a block, so each row is sorted.
    base = (np.arange(coder.n_signals)[:, None] * m_grid + np.arange(m_grid)) * k
    active = (tiles + base).reshape(len(vals), -1)
    if coder.include_bias:
        bias = np.full((len(vals), 1), m_grid * k * coder.n_signals)
        active = np.hstack([active, bias])
    return active


@dataclass(frozen=True)
class ReturnEstimate:
    """Truncated discounted return plus its truncation-error bound."""

    value: float
    truncation_bound: float


def ideal_return(series: Series, t: int, gamma: float, horizon: int) -> ReturnEstimate:
    """Direct discounted sum of the next `horizon` samples after time t.

    Serves as the ground-truth target that online predictions are
    compared against; the bound gamma^horizon * max|y| / (1 - gamma)
    caps what the dropped tail could contribute.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    i0 = t - series.t0
    if i0 < -1 or i0 + horizon >= len(series):
        raise ValueError(
            f"need samples at times {t + 1}..{t + horizon}, series covers "
            f"{series.t0}..{series.t0 + len(series) - 1}"
        )
    future = series.values[i0 + 1:i0 + 1 + horizon]
    value = float(np.dot(gamma ** np.arange(horizon), future))
    bound = gamma**horizon * float(np.max(np.abs(series.values))) / (1.0 - gamma)
    return ReturnEstimate(value, bound)


class NextingLearner:
    """Per-signal TD(lambda) weights over a shared tile-coded feature space.

    Single-writer mutable state: one owner advances it step by step.
    Freezing stops all weight and trace updates while predictions keep
    flowing. The step size is alpha divided by the active-feature count
    (the usual tile-coding convention, making alpha a fraction of the
    one-step error corrected per update).
    """

    def __init__(self, coder: TileCoder, gamma, alpha: float, trace_lambda: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= trace_lambda <= 1.0:
            raise ValueError(f"trace_lambda must lie in [0, 1], got {trace_lambda}")
        g = np.atleast_1d(np.asarray(gamma, dtype=float))
        if len(g) == 1:
            g = np.repeat(g, coder.n_signals)
        if len(g) != coder.n_signals:
            raise ValueError(f"need one gamma per signal ({coder.n_signals}), got {len(g)}")
        if np.any(g < 0) or np.any(g >= 1):
            raise ValueError(f"gamma must lie in [0, 1), got {g}")
        self.coder = coder
        self.gamma = g
        self.alpha = alpha
        self.trace_lambda = trace_lambda
        self.theta = np.zeros((coder.n_signals, coder.n_features))
        self.e = np.zeros((coder.n_signals, coder.n_features))
        self.frozen = False

    def _encode(self, values) -> np.ndarray:
        return tile_indices(np.atleast_1d(values)[None], self.coder)[0]

    def predict(self, values) -> np.ndarray:
        """Current estimates at one normalized sample (one value per signal)."""
        return self.theta[:, self._encode(values)].sum(axis=1)

    def step(self, values, values_next, y_next) -> np.ndarray:
        """One online update; returns the pre-update predictions at values.

        values and values_next are consecutive normalized samples and
        y_next holds one target per signal. The eligibility traces decay
        and accumulate the features of values first, then the weights move
        along them by the step size times the TD error
        y[t+1] + gamma * theta.phi[t+1] - theta.phi[t].
        """
        y_next = np.atleast_1d(np.asarray(y_next, dtype=float))
        if len(y_next) != self.coder.n_signals:
            raise ValueError(f"expected {self.coder.n_signals} targets, got {len(y_next)}")
        return self._update(self._encode(values), self._encode(values_next), y_next)

    def freeze(self):
        self.frozen = True

    def _update(self, active: np.ndarray, active_next: np.ndarray,
                y_next: np.ndarray) -> np.ndarray:
        """One TD(lambda) step on active-feature indices; returns the
        pre-update predictions at `active`."""
        theta, e = self.theta, self.e
        preds = theta[:, active].sum(axis=1)
        if self.frozen:
            return preds
        e *= (self.gamma * self.trace_lambda)[:, None]
        e[:, active] += 1.0
        delta = y_next + self.gamma * theta[:, active_next].sum(axis=1) - preds
        theta += self.alpha / len(active) * delta[:, None] * e
        return preds


@dataclass(frozen=True)
class NextingRun:
    """Streamed predictions (in normalized units) plus the run's state."""

    predictions: list
    bounds: list
    learner: NextingLearner


def run_online(signals: list, coder: TileCoder, *, gamma, alpha: float,
               trace_lambda: float, freeze_after: int | None = None,
               norm_bounds: list | None = None, norm_window: int | None = None) -> NextingRun:
    """Stream all signals through one learner, emitting a prediction per step.

    Signals are normalized to [0, 1] with bounds taken from the first
    norm_window samples (default: one period if the signal carries a
    period hint, else the whole series), clamping afterwards; pass
    norm_bounds to pin them explicitly. With freeze_after = k the
    weights stop changing once the first k samples have been consumed.
    The whole run is a pure function of its inputs.
    """
    if len(signals) != coder.n_signals:
        raise ValueError(f"coder expects {coder.n_signals} signals, got {len(signals)}")
    n = len(signals[0])
    if any(len(s) != n for s in signals):
        raise ValueError("all signals must have equal length")
    if freeze_after is not None and freeze_after < 1:
        raise ValueError(f"freeze_after must be >= 1, got {freeze_after}")

    bounds = []
    normed = []
    for i, sig in enumerate(signals):
        if norm_bounds is not None:
            lo, hi = norm_bounds[i]
        else:
            window = norm_window or sig.period_hint or n
            head = sig.values[:min(window, n)]
            lo, hi = float(head.min()), float(head.max())
        bounds.append((lo, hi))
        normed.append(normalize_unit(sig, lo, hi).values)
    Y = np.array(normed)

    learner = NextingLearner(coder, gamma, alpha, trace_lambda)
    active = tile_indices(Y.T, coder)
    # Steps 0..n_learn-1 update the weights; the rest only predict.
    n_learn = n - 1 if freeze_after is None else min(freeze_after - 1, n - 1)
    preds = np.zeros((coder.n_signals, n))
    for t in range(n_learn):
        preds[:, t] = learner._update(active[t], active[t + 1], Y[:, t + 1])
    if n_learn < n - 1:
        learner.freeze()
    # The same fancy index as predict, so every sum adds in the same order
    # (ndarray.take, for one, changes it when there are several signals).
    preds[:, n_learn:] = learner.theta[:, active[n_learn:]].sum(axis=2)

    out = [signals[i].with_values(preds[i]) for i in range(coder.n_signals)]
    return NextingRun(out, bounds, learner)


@dataclass(frozen=True)
class AlignResult:
    scale: float
    offset: float
    shift: int
    rmse: float


def align_affine(pred: Series, target: Series, max_shift: int = 0) -> AlignResult:
    """Best least-squares scale/offset of the prediction onto the target,
    searched over integer time advances 0..max_shift.

    Advancing by s compares pred[s:] against target[:n-s]. A constant
    prediction gets scale 0 and the target mean as offset. Ties in the
    residual prefer the smaller shift.
    """
    n = len(pred)
    if len(target) != n:
        raise ValueError(f"length mismatch: {n} predictions vs {len(target)} targets")
    if not 0 <= max_shift < n:
        raise ValueError(f"max_shift must lie in [0, {n - 1}], got {max_shift}")
    best: AlignResult | None = None
    for s in range(max_shift + 1):
        p = pred.values[s:]
        tg = target.values[:n - s]
        # max == min is the exact constancy test; np.var of a constant
        # array can round away from zero.
        if p.max() == p.min():
            scale, offset = 0.0, float(tg.mean())
        else:
            var = float(np.var(p))
            scale = float(np.mean((p - p.mean()) * (tg - tg.mean())) / var)
            offset = float(tg.mean() - scale * p.mean())
        resid = scale * p + offset - tg
        r = float(np.sqrt(np.mean(resid**2)))
        if best is None or r < best.rmse:
            best = AlignResult(scale, offset, s, r)
    return best
