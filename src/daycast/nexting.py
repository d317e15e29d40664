"""Online multi-timescale prediction with tile-coded features and TD(lambda).

Each of P signals gets its own weight vector over one shared sparse
binary feature vector, and an eligibility trace only if its trace decay
gamma * trace_lambda is above 0; with no decay the step is TD(0), which
moves the active weights alone. At every step the learner emits
its current estimate of the discounted return of each signal, then
nudges the weights toward the one-step bootstrapped target. All signal
values must be normalized into [0, 1] before coding.

run_online codes a whole stream as one array (tile_indices), and
NextingLearner._stream makes every TD step and streamed prediction: signal
after signal, all of one signal's steps in one loop on plain floats, each
weight sum left to right. NextingLearner.rollout, a forecast's closed
loop, codes one value at a time with _tiles, the same indices.
"""

import math
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
        for name in ("n_tilings", "tiles_per_dim", "n_signals"):
            if not getattr(self, name) >= 1:  # NaN fails too
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

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
    if not np.all((vals >= -1e-9) & (vals <= 1.0 + 1e-9)):  # NaN fails too
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


def _tiles(v: float, m_grid: int, k: int) -> list:
    """tile_indices' active tiles of one value v in [0, 1], on plain floats."""
    return [m * k + min(int((v + m / (m_grid * k)) * k), k - 1) for m in range(m_grid)]


def check_rates(gamma, alpha: float, trace_lambda: float) -> None:
    """Raise ValueError unless gamma (a number, or one per signal) lies in
    [0, 1), alpha is positive and trace_lambda lies in [0, 1]; NaN fails
    every test."""
    if not all(0 <= g < 1 for g in np.ravel(gamma)):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 <= trace_lambda <= 1:
        raise ValueError(f"trace_lambda must lie in [0, 1], got {trace_lambda}")


class NextingLearner:
    """Per-signal TD(lambda) weights over a shared tile-coded feature space.

    Single-writer mutable state. run_online streams the training window
    through _stream once; rollout then reads the weights without moving
    them. The step size is alpha divided by the active-feature count (the
    usual tile-coding convention, making alpha a fraction of the one-step
    error corrected per update). The weights live in Python lists; theta
    returns them as an (n_signals, n_features) array copy.
    """

    def __init__(self, coder: TileCoder, gamma, alpha: float, trace_lambda: float):
        check_rates(gamma, alpha, trace_lambda)
        g = [float(v) for v in np.ravel(gamma)]
        if len(g) == 1:  # one gamma stands for every signal
            g *= coder.n_signals
        if len(g) != coder.n_signals:
            raise ValueError(f"need one gamma per signal ({coder.n_signals}), got {len(g)}")
        self.coder = coder
        self.alpha = alpha
        self._theta = [[0.0] * coder.n_features for _ in g]
        self._gamma = g
        self._decay = [gp * trace_lambda for gp in g]
        self._e = [[0.0] * coder.n_features if d else None for d in self._decay]

    @property
    def theta(self) -> np.ndarray:
        return np.array(self._theta)

    def rollout(self, value: float, steps: int) -> list:
        """steps estimates of a one-signal learner run in closed loop from the
        normalized value: each input is the previous estimate (value first),
        clamped to [0, 1], coded by _tiles and its weights added left to
        right from -0.0, as _stream adds them; nothing moves.
        """
        if len(self._theta) != 1:
            raise ValueError(f"rollout needs a one-signal learner, got {len(self._theta)}")
        m_grid, k = self.coder.n_tilings, self.coder.tiles_per_dim
        bias = [m_grid * k] if self.coder.include_bias else []
        row, out = self._theta[0], []
        for _ in range(steps):
            v = min(max(value, 0.0), 1.0)
            if v != v:  # NaN, the one value the clamp passes through
                raise ValueError(f"inputs must lie in [0, 1], got {[v]}")
            value = -0.0
            for a in _tiles(v, m_grid, k) + bias:
                value += row[a]
            out.append(value)
        return out

    def _stream(self, rows, targets, n_learn: int) -> list:
        """Each signal's predictions at the active-index lists `rows`: n_learn
        TD(lambda) steps on the learner's own weights and traces, each
        predicting before it moves, then the rest.

        Step t decays the trace, adds rows[t] and moves the weights along it
        by alpha / n_active times the TD error, targets[i][t] + gamma *
        theta.phi(rows[t + 1]) - theta.phi(rows[t]). With no decay no trace
        is kept and only rows[t] moves: the rest would add 0.0 to weights
        that are never -0.0. Each float is the one an array update makes,
        each sum added left to right from -0.0 (builtin sum compensates from
        Python 3.12). Signals share only the rows and run one after another,
        each up to the earliest non-finite move found so far, so the error
        names the earliest step, and on a tie the first signal.
        """
        c = self.alpha / len(rows[0])
        out, failed = [], None
        for row, trace, g, decay, ys in zip(self._theta, self._e, self._gamma, self._decay,
                                            targets):
            preds = []
            for t in range(n_learn if failed is None else failed[0]):
                active = rows[t]
                pred = -0.0
                for a in active:
                    pred += row[a]
                nxt = -0.0
                for a in rows[t + 1]:
                    nxt += row[a]
                move = c * (ys[t] + g * nxt - pred)
                if not math.isfinite(move):
                    failed = t, move
                    break
                preds.append(pred)
                if trace is None:
                    for a in active:
                        row[a] += move
                    continue
                trace[:] = [x * decay for x in trace]
                for a in active:
                    trace[a] += 1.0
                row[:] = [w + move * x for w, x in zip(row, trace)]
            for active in rows[n_learn:]:
                pred = -0.0
                for a in active:
                    pred += row[a]
                preds.append(pred)
            out.append(preds)
        if failed:
            raise ValueError(f"the TD update at step {failed[0]} is {failed[1]}, "
                             f"not finite: the weights diverge with alpha = {self.alpha}")
        return out


@dataclass(frozen=True)
class NextingRun:
    """Streamed predictions (in normalized units) plus the run's state."""

    predictions: list
    bounds: list
    learner: NextingLearner


def run_online(signals: list, coder: TileCoder, *, gamma, alpha: float,
               trace_lambda: float, freeze_after: int | None = None,
               norm_window: int | None = None) -> NextingRun:
    """Stream all signals through one learner, emitting a prediction per step.

    Signals are normalized to [0, 1] with bounds taken from the first
    norm_window samples (default: one period if the signal carries a
    period hint, else the whole series), clamping afterwards; norm_window
    must be at least 1. With freeze_after = k the weights stop changing
    once the first k samples have been consumed: the steps after that only
    predict. The whole run is a pure function of its inputs.
    """
    if len(signals) != coder.n_signals:
        raise ValueError(f"coder expects {coder.n_signals} signals, got {len(signals)}")
    n = len(signals[0])
    if any(len(s) != n for s in signals):
        raise ValueError("all signals must have equal length")
    for key, value in (("freeze_after", freeze_after), ("norm_window", norm_window)):
        if value is not None and not value >= 1:
            raise ValueError(f"{key} must be >= 1, got {value}")

    bounds = []
    for sig in signals:
        head = sig.values[:min(norm_window or sig.period_hint or n, n)]
        bounds.append((float(head.min()), float(head.max())))
    Y = np.array([normalize_unit(sig, *b).values for sig, b in zip(signals, bounds)])

    learner = NextingLearner(coder, gamma, alpha, trace_lambda)
    # Steps 0..n_learn-1 update the weights; the rest only predict.
    n_learn = n - 1 if freeze_after is None else min(freeze_after - 1, n - 1)
    preds = learner._stream(tile_indices(Y.T, coder).tolist(), Y[:, 1:].tolist(), n_learn)
    out = [sig.with_values(p) for sig, p in zip(signals, preds)]
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
    prediction (or one whose variance underflows to 0) gets scale 0 and
    the target mean as offset. Ties in the residual prefer the smaller shift.
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
        pm, tm = p.mean(), tg.mean()
        dp = p - pm
        # np.var(p) in its own ufunc steps, so the same bits. max == min is the
        # exact constancy test; the variance of a constant array can round
        # away from zero, and of a tiny spread underflow to it.
        var = float(np.mean(dp * dp))
        if p.max() == p.min() or var == 0.0:
            scale, offset = 0.0, float(tm)
        else:
            scale = float(np.mean(dp * (tg - tm)) / var)
            offset = float(tm - scale * pm)
        resid = scale * p + offset - tg
        r = float(np.sqrt(np.mean(resid**2)))
        if best is None or r < best.rmse:
            best = AlignResult(scale, offset, s, r)
    return best
