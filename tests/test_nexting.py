import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycast.cli import run_cli
from daycast.evalharness import Band, compare
from daycast.nexting import (AlignResult, NextingLearner, TileCoder, _tiles, align_affine,
                             run_online, tile_indices)
from daycast.series import Series, make_sine


def numpy_update(theta, e, gamma, alpha, trace_lambda, active, active_next, y_next):
    """One TD(lambda) step on (n_signals, n_features) arrays, in place.

    The array form the learner ran before its update moved to lists, kept
    as the byte oracle for run_online. Each weight sum is
    np.add.accumulate's last column: left to right by definition, whatever
    numpy's own reduction order.
    """
    preds = np.add.accumulate(theta[:, active], axis=1)[:, -1]
    e *= (gamma * trace_lambda)[:, None]
    e[:, active] += 1.0
    delta = y_next + gamma * np.add.accumulate(theta[:, active_next], axis=1)[:, -1] - preds
    theta += alpha / len(active) * delta[:, None] * e
    return preds


def numpy_run(Y, coder, gamma, alpha, trace_lambda, freeze_after):
    """run_online's recursion on arrays over already normalized rows Y."""
    n = Y.shape[1]
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (coder.n_signals,))
    theta = np.zeros((coder.n_signals, coder.n_features))
    e = np.zeros_like(theta)
    active = tile_indices(Y.T, coder)
    n_learn = n - 1 if freeze_after is None else min(freeze_after - 1, n - 1)
    preds = np.zeros((coder.n_signals, n))
    for t in range(n_learn):
        preds[:, t] = numpy_update(theta, e, gamma, alpha, trace_lambda,
                                   active[t], active[t + 1], Y[:, t + 1])
    preds[:, n_learn:] = np.add.accumulate(theta[:, active[n_learn:]], axis=2)[..., -1]
    return preds, theta


class TestTileCoder:
    def test_constant_active_count_with_bias(self):
        coder = TileCoder(n_tilings=4, tiles_per_dim=8, n_signals=1, include_bias=True)
        assert tile_indices([[0.0]], coder).shape == (1, 5)

    def test_active_count_constant_across_inputs(self):
        coder = TileCoder()
        active = tile_indices(np.linspace(0, 1, 101)[:, None], coder)
        assert {len(set(row)) for row in active} == {coder.n_active}

    def test_deterministic(self):
        coder = TileCoder(n_signals=2)
        a = tile_indices([[0.3, 0.8]], coder)
        b = tile_indices([[0.3, 0.8]], coder)
        np.testing.assert_array_equal(a, b)

    def test_extremes_use_disjoint_tiles(self):
        coder = TileCoder(n_tilings=8, tiles_per_dim=8, include_bias=False)
        lo, hi = tile_indices([[0.0], [1.0]], coder)
        assert not set(lo) & set(hi)

    def test_out_of_range_rejected(self):
        coder = TileCoder()
        with pytest.raises(ValueError):
            tile_indices([[1.2]], coder)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            tile_indices([[0.5], [float("nan")]], coder)
        # A hair outside is forgiven (clipped).
        tile_indices([[1.0 + 1e-10]], coder)

    def test_indices_stay_in_bounds(self):
        coder = TileCoder(n_tilings=8, tiles_per_dim=8, n_signals=3)
        assert tile_indices([[0.0, 0.5, 1.0]], coder).max() < coder.n_features

    def test_batch_rows_match_single_samples(self):
        coder = TileCoder(n_tilings=5, tiles_per_dim=7, n_signals=2)
        samples = np.random.default_rng(3).uniform(0, 1, (40, 2))
        batch = tile_indices(samples, coder)
        assert batch.shape == (40, coder.n_active)
        for row, sample in zip(batch, samples):
            np.testing.assert_array_equal(row, tile_indices(sample[None], coder)[0])


class TestTdStep:
    def test_first_update_spreads_error_over_active_features(self):
        # Two samples, one learning step: from 0 toward the target 1.
        coder = TileCoder(n_tilings=4, tiles_per_dim=4, include_bias=False)
        run = run_online([Series([0.0, 1.0])], coder, gamma=0.0, alpha=0.4, trace_lambda=0.9)
        assert run.predictions[0].values[0] == 0.0
        active = tile_indices([[0.0]], coder)[0]
        np.testing.assert_allclose(run.learner.theta[0, active], 0.4 * 1.0 / len(active))
        others = np.setdiff1d(np.arange(coder.n_features), active)
        np.testing.assert_array_equal(run.learner.theta[0, others], 0.0)

    def test_rollout_keeps_weights_bit_identical(self, wind):
        run = run_online([wind], TileCoder(), gamma=0.5, alpha=0.1, trace_lambda=0.9)
        snapshot = run.learner.theta
        first, *_ = run.learner.rollout(0.4, 5)
        assert run.learner.theta.tobytes() == snapshot.tobytes()
        active = tile_indices([[0.4]], run.learner.coder)[0]
        assert first == np.add.accumulate(snapshot[0, active])[-1]

    def test_gamma_zero_makes_trace_decay_irrelevant(self):
        # With gamma = 0 the trace collapses to phi[t], so any trace decay
        # parameter produces the same weight trajectory.
        coder = TileCoder(n_tilings=4, tiles_per_dim=8)
        stream = Series(np.random.default_rng(5).uniform(0, 1, 50))
        runs = [run_online([stream], coder, gamma=0.0, alpha=0.2, trace_lambda=lam)
                for lam in (0.0, 0.9)]
        assert runs[0].predictions[0].values.tobytes() == runs[1].predictions[0].values.tobytes()
        assert runs[0].learner.theta.tobytes() == runs[1].learner.theta.tobytes()

    def test_a_nan_alpha_is_refused(self):
        with pytest.raises(ValueError) as err:
            NextingLearner(TileCoder(), 0.0, float("nan"), 0.5)
        assert str(err.value) == "alpha must be positive, got nan"

    @pytest.mark.parametrize("n_signals, gamma, message", [
        (1, 1.5, "gamma must lie in [0, 1), got 1.5"),
        (2, [0.0, 1.0], "gamma must lie in [0, 1), got [0.0, 1.0]"),
        (2, [0.0, 0.5, 0.5], "need one gamma per signal (2), got 3"),
    ])
    def test_gamma_errors_quote_the_value_given(self, n_signals, gamma, message):
        with pytest.raises(ValueError) as err:
            NextingLearner(TileCoder(n_signals=n_signals), gamma, alpha=0.1, trace_lambda=0.9)
        assert str(err.value) == message


class TestRunOnline:
    def test_constant_signal_converges_to_fixed_point(self):
        signal = Series([0.0, 1.0] + [0.5] * 1998)  # the bounds are 0 and 1
        run = run_online([signal], TileCoder(), gamma=0.0, alpha=0.1, trace_lambda=0.9)
        assert run.bounds == [(0.0, 1.0)]
        assert run.predictions[0].values[-1] == pytest.approx(0.5, abs=1e-2)

    def test_freeze_after_pins_weights(self, wind):
        coder = TileCoder()
        frozen = run_online([wind], coder, gamma=0.0, alpha=0.3, trace_lambda=0.9,
                            freeze_after=24)
        # Rerun the first 24 samples only: weights must match the frozen run's.
        head = Series(wind.values[:24], t0=1, period_hint=24)
        partial = run_online([head], coder, gamma=0.0, alpha=0.3, trace_lambda=0.9)
        assert partial.bounds == frozen.bounds  # both normalize by the first period
        np.testing.assert_array_equal(frozen.learner.theta, partial.learner.theta)

    @pytest.mark.parametrize("norm_window", [0, -3])
    def test_norm_window_must_be_positive(self, norm_window):
        ramp = Series(np.linspace(0.0, 300.0, 23))
        with pytest.raises(ValueError) as err:
            run_online([ramp], TileCoder(), gamma=0.0, alpha=0.1, trace_lambda=0.9,
                       norm_window=norm_window)
        assert str(err.value) == f"norm_window must be >= 1, got {norm_window}"

    def test_sine_improves_from_first_to_last_period(self):
        target = make_sine(1, 100, 1000, 0)
        run = run_online([target], TileCoder(), gamma=0.0, alpha=0.1,
                         trace_lambda=0.9, norm_window=100)
        lo, hi = run.bounds[0]
        normalized = np.clip((target.values - lo) / (hi - lo), 0, 1)
        pred = run.predictions[0].values
        # pred[t] estimates the normalized next sample.
        first = np.sqrt(np.mean((pred[:99] - normalized[1:100]) ** 2))
        last = np.sqrt(np.mean((pred[900:999] - normalized[901:1000]) ** 2))
        assert last < first

    def test_bounded_predictions_on_unit_signals(self, temp):
        run = run_online([temp], TileCoder(), gamma=0.0, alpha=0.3, trace_lambda=0.9)
        assert run.predictions[0].values.min() >= -0.1
        assert run.predictions[0].values.max() <= 1.1

    def test_two_signals_share_features(self, wind, temp):
        coder = TileCoder(n_signals=2)
        run = run_online([wind, temp], coder, gamma=[0.0, 0.5], alpha=0.2,
                         trace_lambda=0.9)
        assert len(run.predictions) == 2
        assert len(run.predictions[0]) == len(wind)

    def test_length_mismatch_rejected(self, wind):
        short = Series(wind.values[:20])
        with pytest.raises(ValueError):
            run_online([wind, short], TileCoder(n_signals=2), gamma=0.0, alpha=0.1,
                       trace_lambda=0.9)

    def test_long_timescale_converges_to_discounted_return(self):
        # On a constant normalized signal the return's fixed point is
        # y / (1 - gamma); the trace-decay path must find it.
        gamma = 0.9375
        signal = Series([0.0, 1.0] + [0.5] * 3998)  # the bounds are 0 and 1
        run = run_online([signal], TileCoder(), gamma=gamma, alpha=0.1, trace_lambda=0.9)
        assert run.bounds == [(0.0, 1.0)]
        assert run.predictions[0].values[-1] == pytest.approx(0.5 / (1 - gamma), abs=1e-2)

    def test_pure_function_of_inputs(self, dni):
        kwargs = dict(gamma=0.0, alpha=0.2, trace_lambda=0.9, freeze_after=24)
        a = run_online([dni], TileCoder(), **kwargs)
        b = run_online([dni], TileCoder(), **kwargs)
        np.testing.assert_array_equal(a.predictions[0].values, b.predictions[0].values)
        np.testing.assert_array_equal(a.learner.theta, b.learner.theta)
        assert a.bounds == b.bounds


class TestRunOnlineMatchesNumpyRun:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_shapes(self, data):
        n_signals = data.draw(st.integers(1, 3))
        coder = TileCoder(n_tilings=data.draw(st.sampled_from([1, 3, 4, 7, 8])),
                          tiles_per_dim=data.draw(st.sampled_from([2, 5, 8, 10])),
                          n_signals=n_signals, include_bias=data.draw(st.booleans()))
        n = data.draw(st.integers(25, 80))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        signals = [Series(rng.normal(size=n).cumsum(), t0=1, period_hint=24)
                   for _ in range(n_signals)]
        gamma = data.draw(st.one_of(
            st.floats(0.0, 0.95),
            st.lists(st.floats(0.0, 0.95), min_size=n_signals, max_size=n_signals)))
        alpha = data.draw(st.floats(0.01, 1.0))
        trace_lambda = data.draw(st.floats(0.0, 1.0))
        freeze_after = data.draw(st.sampled_from([None, 1, n - 1, n, n + 3]))

        run = run_online(signals, coder, gamma=gamma, alpha=alpha, trace_lambda=trace_lambda,
                         freeze_after=freeze_after)
        # Each signal normalized by its first period, the period hint.
        Y = np.array([np.clip((s.values - s.values[:24].min())
                              / (s.values[:24].max() - s.values[:24].min()), 0.0, 1.0)
                      for s in signals])
        preds, theta = numpy_run(Y, coder, gamma, alpha, trace_lambda, freeze_after)
        for i in range(n_signals):
            assert run.predictions[i].values.tobytes() == preds[i].tobytes()
        assert run.learner.theta.tobytes() == theta.tobytes()


# n_active = n_tilings * n_signals + bias: below 8, 8 to 15, 16 and above,
# and past 128, the bounds of numpy's pairwise reduction of one row, which
# the learner's left-to-right sums must not follow.
CODER_SHAPES = [(1, 4, True), (1, 7, False), (1, 8, False), (1, 8, True), (1, 15, True),
                (1, 20, True), (1, 130, True), (2, 3, False), (2, 4, True), (2, 8, True),
                (3, 2, True), (3, 4, True), (3, 8, True)]


class TestMatchesNumpyReference:
    @pytest.mark.parametrize("n_signals, n_tilings, include_bias", CODER_SHAPES)
    @pytest.mark.parametrize("gamma, trace_lambda", [
        (0.0, 0.9),          # gamma * trace_lambda == 0: the sparse update
        (0.7, 0.0),
        (0.5, 0.9),          # the dense trace update
        ([0.0, 0.5, 0.8], 0.9),   # mixed, per signal
    ])
    def test_run_online_bytes(self, n_signals, n_tilings, include_bias, gamma, trace_lambda):
        coder = TileCoder(n_tilings=n_tilings, tiles_per_dim=8, n_signals=n_signals,
                          include_bias=include_bias)
        if isinstance(gamma, list):
            gamma = gamma[:n_signals]
        n = 40
        rng = np.random.default_rng(n_signals * 1000 + n_tilings)
        Y = rng.uniform(0.0, 1.0, (n_signals, n))
        Y[:, :2] = 0.0, 1.0  # bounds 0 and 1: normalizing leaves every sample as it is
        signals = [Series(row, t0=1) for row in Y]
        for freeze_after in (None, 1, 2, n // 2, n - 1, n, n + 3):
            run = run_online(signals, coder, gamma=gamma, alpha=0.7, trace_lambda=trace_lambda,
                             freeze_after=freeze_after)
            assert run.bounds == [(0.0, 1.0)] * n_signals
            preds, theta = numpy_run(Y, coder, gamma, 0.7, trace_lambda, freeze_after)
            got = np.array([s.values for s in run.predictions])
            assert got.tobytes() == preds.tobytes(), freeze_after
            assert run.learner.theta.tobytes() == theta.tobytes(), freeze_after


class TestTiles:
    @pytest.mark.parametrize("n_signals, n_tilings, include_bias", CODER_SHAPES)
    def test_equals_tile_indices_rows(self, n_signals, n_tilings, include_bias):
        # rollout codes with _tiles and run_online with tile_indices: the
        # same indices, signal block after signal block, then the bias.
        coder = TileCoder(n_tilings=n_tilings, tiles_per_dim=7, n_signals=n_signals,
                          include_bias=include_bias)
        rng = np.random.default_rng(n_tilings)
        # Tile edges, the ends, a hair outside them, and random points.
        edges = [m / (n_tilings * 7) + j / 7 for m in range(n_tilings) for j in range(7)]
        points = [0.0, -0.0, 1.0, -1e-10, 1.0 + 1e-10, *edges, *rng.uniform(0, 1, 50)]
        samples = np.array([rng.choice(points, n_signals) for _ in range(200)])
        block = n_tilings * 7
        bias = [block * n_signals] if include_bias else []
        for row, sample in zip(tile_indices(samples, coder), samples):
            got = [p * block + a for p, v in enumerate(sample.tolist())
                   for a in _tiles(min(max(v, 0.0), 1.0), n_tilings, 7)]
            assert got + bias == row.tolist()


class TestSumsLeftToRight:
    def test_one_signal_rollout_is_not_pairwise(self):
        # Pairwise (eight partial sums) gives 1e16 + (1 + 1) = 1.0000000000000002e16;
        # left to right each 1 rounds away against 1e16.
        coder = TileCoder(n_tilings=8, n_signals=1, include_bias=True)
        learner = NextingLearner(coder, gamma=0.0, alpha=0.1, trace_lambda=0.9)
        active = tile_indices([[0.3]], coder)[0]
        assert len(active) == 9
        for a, w in zip(active, [1e16, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]):
            learner._theta[0][a] = w
        assert learner.rollout(0.3, 1) == [1e16]


def numpy_rollout(learner, value, steps):
    """rollout's closed loop on arrays: clamp the last estimate to [0, 1], code
    it with tile_indices and add its weights left to right."""
    theta, out = learner.theta, []
    for _ in range(steps):
        active = tile_indices([[min(max(value, 0.0), 1.0)]], learner.coder)[0]
        with np.errstate(invalid="ignore"):  # -inf + inf is NaN, as in rollout's sum
            value = float(np.add.accumulate(theta[0, active])[-1])
        out.append(value)
    return out


def rollout_outcome(run, *args):
    try:
        return np.array(run(*args)).tobytes()
    except ValueError as exc:
        return str(exc)


class TestRollout:
    @pytest.mark.parametrize("n_tilings, tiles_per_dim, include_bias",
                             [(8, 8, True), (1, 2, False), (3, 5, True), (7, 13, False)])
    def test_equals_numpy_rollout(self, n_tilings, tiles_per_dim, include_bias):
        coder = TileCoder(n_tilings=n_tilings, tiles_per_dim=tiles_per_dim,
                          include_bias=include_bias)
        rng = np.random.default_rng(n_tilings * 100 + tiles_per_dim)
        below = above = 0
        for _ in range(50):
            learner = NextingLearner(coder, gamma=0.0, alpha=0.1, trace_lambda=0.9)
            # Estimates spread around 0.5 by about 0.6, so many leave [0, 1].
            learner._theta[0] = rng.normal(0.5 / coder.n_active, 0.6 / coder.n_active ** 0.5,
                                           coder.n_features).tolist()
            start = float(rng.uniform(-0.5, 1.5))
            got = learner.rollout(start, 30)
            assert np.array(got).tobytes() == np.array(
                numpy_rollout(learner, start, 30)).tobytes()
            below += sum(v < 0 for v in got[:-1])
            above += sum(v > 1 for v in got[:-1])
        assert below and above  # the clamp acted at both ends

    def test_clamps_at_both_ends(self):
        # One tiling of two tiles: below 0.5 the estimate is 1.5, from 0.5 on it is -0.5.
        learner = NextingLearner(TileCoder(n_tilings=1, tiles_per_dim=2, include_bias=False),
                                 gamma=0.0, alpha=0.1, trace_lambda=0.9)
        learner._theta[0] = [1.5, -0.5]
        assert learner.rollout(0.2, 5) == [1.5, -0.5, 1.5, -0.5, 1.5]
        assert learner.rollout(7.0, 2) == [-0.5, 1.5]
        assert learner.rollout(-3.0, 2) == [1.5, -0.5]
        assert learner.rollout(0.2, 0) == []

    def test_trained_learner_equals_numpy_rollout(self, wind):
        run = run_online([wind], TileCoder(), gamma=0.0, alpha=0.3, trace_lambda=0.9,
                         freeze_after=24, norm_window=24)
        last = float(run.predictions[0].values[-1])
        assert np.array(run.learner.rollout(last, 26)).tobytes() == np.array(
            numpy_rollout(run.learner, last, 26)).tobytes()

    def test_a_nan_estimate_raises_where_numpy_rollout_does(self):
        # Below 0.5 the estimate is 0 + inf; clamped to 1 it reads -inf + inf, NaN.
        coder = TileCoder(n_tilings=1, tiles_per_dim=2, include_bias=True)
        learner = NextingLearner(coder, gamma=0.0, alpha=0.1, trace_lambda=0.9)
        learner._theta[0] = [0.0, -math.inf, math.inf]
        message = "inputs must lie in [0, 1], got [nan]"
        for value, steps in ((0.2, 5), (0.2, 2), (math.nan, 1), (0.7, 2)):
            expected = rollout_outcome(numpy_rollout, learner, value, steps)
            if isinstance(expected, str):  # tile_indices quotes its 2-D input
                assert expected == "inputs must lie in [0, 1], got [[nan]]"
                expected = message
            assert rollout_outcome(learner.rollout, value, steps) == expected
        assert rollout_outcome(learner.rollout, 0.2, 5) == message
        assert rollout_outcome(learner.rollout, math.nan, 1) == message

    @pytest.mark.parametrize("value, clamped", [
        (1.2, 1.0), (-1e-8, 0.0), (math.inf, 1.0), (-math.inf, 0.0)])
    def test_clamps_what_tile_indices_refuses(self, wind, value, clamped):
        run = run_online([wind], TileCoder(), gamma=0.0, alpha=0.3, trace_lambda=0.9)
        with pytest.raises(ValueError, match=r"inputs must lie in \[0, 1\]"):
            tile_indices([[value]], run.learner.coder)
        assert np.array(run.learner.rollout(value, 5)).tobytes() == np.array(
            run.learner.rollout(clamped, 5)).tobytes()

    @pytest.mark.parametrize("n_tilings, include_bias",
                             [(m, b) for s, m, b in CODER_SHAPES if s == 1])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_continues_the_frozen_stream(self, n_tilings, include_bias, gamma):
        # Once frozen the weights stay, so each streamed prediction is the
        # one-step rollout from that step's normalized input, bit for bit.
        coder = TileCoder(n_tilings=n_tilings, tiles_per_dim=8, include_bias=include_bias)
        y = np.random.default_rng(n_tilings).uniform(0.0, 1.0, 40)
        y[:2] = 0.0, 1.0  # bounds 0 and 1: normalizing leaves every sample as it is
        run = run_online([Series(y)], coder, gamma=gamma, alpha=0.7, trace_lambda=0.9,
                         freeze_after=20)
        preds = run.predictions[0].values
        assert run.learner.theta.any()
        for t in range(19, 40):  # steps 0..18 learn
            assert np.array(run.learner.rollout(float(y[t]), 1)).tobytes() == (
                preds[t:t + 1].tobytes()), t

    def test_needs_one_signal(self):
        learner = NextingLearner(TileCoder(n_signals=2), gamma=0.0, alpha=0.1, trace_lambda=0.9)
        with pytest.raises(ValueError, match="rollout needs a one-signal learner, got 2"):
            learner.rollout(0.5, 3)


DIVERGING = {"name": "nexting", "gamma": 0.0, "alpha": 1e300, "trace_lambda": 0.9,
             "freeze_after": 24}
DIVERGED = ("the TD update at step 1 is -inf, not finite: "
            "the weights diverge with alpha = 1e+300")


class TestNonFiniteTdError:
    def test_run_online_names_the_step_and_alpha(self, wind):
        with pytest.raises(ValueError) as err:
            run_online([wind], TileCoder(), gamma=0.0, alpha=1e300, trace_lambda=0.9)
        assert str(err.value) == DIVERGED

    # Two signals at alpha 1e300, normalized over the whole stream. Once a
    # signal's weights have moved, its next move overflows: to -inf at gamma
    # 0, and to +inf at gamma 0.9, where the bootstrapped next sum outweighs
    # the current one. So the sign tells which signal the error names.
    @staticmethod
    def diverge(first, second, gamma):
        with pytest.raises(ValueError) as err:
            run_online([Series(first), Series(second)], TileCoder(n_signals=2), gamma=gamma,
                       alpha=1e300, trace_lambda=0.9, norm_window=len(first))
        return str(err.value)

    def test_a_later_signal_that_diverges_first_is_named(self):
        # Signal 0 targets 0 until sample 4, so its weights stay 0 until then
        # and it diverges at step 4; signal 1 diverges at step 1.
        first, second = [0.0, 0, 0, 0, 1, 0, 1, 0], [0.0, 1, 0, 1, 0, 1, 0, 1]
        assert self.diverge(first, [0.0] * 7 + [1.0], 0.0).startswith(
            "the TD update at step 4 is -inf,")
        assert self.diverge(first, second, [0.0, 0.9]) == (
            "the TD update at step 1 is inf, not finite: the weights diverge with alpha = 1e+300")

    @pytest.mark.parametrize("gamma, move", [([0.0, 0.9], "-inf"), ([0.9, 0.0], "inf")])
    def test_a_tie_names_the_lower_signal(self, gamma, move):
        wave = [0.0, 1.0, 0.0, 1.0]
        assert self.diverge(wave, wave, gamma) == (
            f"the TD update at step 1 is {move}, not finite: the weights diverge with "
            "alpha = 1e+300")

    def test_a_signal_with_a_trace_is_named(self):
        # gamma * trace_lambda is 0 for signal 0, so it keeps no trace; it
        # targets 0 and never moves. Signal 1 keeps one, and diverges.
        assert self.diverge([0.0, 0, 0, 1], [0.0, 1, 0, 1], [0.0, 0.5]) == (
            "the TD update at step 1 is -inf, not finite: the weights diverge with "
            "alpha = 1e+300")

    def test_finite_moves_of_one_signal_do_not_hide_another(self):
        # Signal 0 targets 0 and keeps finite moves, but its trace changes
        # on every step; signal 1 moves at step 1 and overflows at step 2.
        assert self.diverge([0.0, 0, 0, 0, 1], [0.0, 0, 1, 0, 1], [0.9, 0.9]) == (
            "the TD update at step 2 is inf, not finite: the weights diverge with "
            "alpha = 1e+300")

    def test_compare_row_fails_with_the_message(self, wind):
        row, = compare(wind, [DIVERGING], Band(1.0, 3.0))
        assert row.error == DIVERGED

    def test_nexting_run_exits_without_runtime_warnings(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.json"
        cfg.write_text(json.dumps({"signal": "wind", "band": {"inner": 1, "outer": 3},
                                   "methods": [DIVERGING]}))
        assert run_cli(["nexting-run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"daycast: {DIVERGED}\n"


def align_reference(pred, target, max_shift):
    """align_affine as it was before it reused each shift's means, with np.var: the byte oracle."""
    n = len(pred)
    best = None
    for s in range(max_shift + 1):
        p = pred.values[s:]
        tg = target.values[:n - s]
        var = float(np.var(p))
        if p.max() == p.min() or var == 0.0:
            scale, offset = 0.0, float(tg.mean())
        else:
            scale = float(np.mean((p - p.mean()) * (tg - tg.mean())) / var)
            offset = float(tg.mean() - scale * p.mean())
        resid = scale * p + offset - tg
        r = float(np.sqrt(np.mean(resid**2)))
        if best is None or r < best.rmse:
            best = AlignResult(scale, offset, s, r)
    return best


def align_outcome(align, pred, target, max_shift):
    """The result's bits, or the exception's type and message."""
    try:
        r = align(Series(pred), Series(target), max_shift)
    except Exception as exc:
        return type(exc), str(exc)
    return np.array([r.scale, r.offset, r.rmse]).tobytes(), r.shift


EDGE_ALIGNMENTS = {
    "constant": ([0.1] * 10, np.linspace(0, 1, 10)),
    "constant after a shift": ([5.0, 0.3, 0.3, 0.3, 0.3], [1.0, 2.0, 3.0, 4.0, 5.0]),
    "subnormal spread": ([0.0, 5e-324, 0.0, 5e-324], [1.0, 2.0, 3.0, 6.0]),
    "subnormal ramp": ([k * 1e-310 for k in range(8)], range(8)),
    "tiny normals": ([k * 1e-300 for k in (1, 3, 2, 5)], [4.0, 1.0, 2.0, 3.0]),
    "near +/-1e150": ([1e150, -1e150, 9.9e149, -9.7e149, 1e150], [1.0, 2.0, 0.0, 3.0, 1.0]),
    "targets near +/-1e150": ([1.0, 2.0, 0.5, 3.0], [1e150, -1e150, 9e149, -1e150]),
    "both near 1e150": ([1e150, 9.999e149, 1e150, 9.998e149], [-1e150, -9.9e149, -1e150, 0.0]),
}


class TestAlignAffineMatchesNpVar:
    def test_random_inputs(self):
        rng = np.random.default_rng(2014)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-300, 140)
            pred = rng.normal(rng.normal(), 1.0, n) * scale
            target = rng.normal(rng.normal(), rng.uniform(0.1, 10.0), n)
            if rng.random() < 0.3:
                pred = np.round(pred / scale, 1) * scale  # ties and repeats
            max_shift = int(rng.integers(0, n))
            assert align_outcome(align_affine, pred, target, max_shift) == align_outcome(
                align_reference, pred, target, max_shift)

    @pytest.mark.parametrize("pred, target", EDGE_ALIGNMENTS.values(),
                             ids=EDGE_ALIGNMENTS.keys())
    def test_edge_inputs(self, pred, target):
        for max_shift in range(len(pred)):
            assert align_outcome(align_affine, pred, target, max_shift) == align_outcome(
                align_reference, pred, target, max_shift)


class TestAlignAffine:
    def test_exact_affine_inverse(self, wind24):
        pred = Series(2.0 * wind24.values + 1.0, t0=1)
        out = align_affine(pred, wind24, max_shift=0)
        assert out.scale == pytest.approx(0.5, abs=1e-12)
        assert out.offset == pytest.approx(-0.5, abs=1e-12)
        assert out.rmse == pytest.approx(0.0, abs=1e-12)

    def test_recovers_unit_delay(self, temp24):
        delayed = np.concatenate([[temp24.values[0]], temp24.values[:-1]])
        out = align_affine(Series(delayed, t0=1), temp24, max_shift=2)
        assert out.shift == 1
        assert out.rmse == pytest.approx(0.0, abs=1e-12)

    def test_constant_prediction_degenerates_to_target_mean(self, wind24):
        out = align_affine(Series(np.full(24, 3.3), t0=1), wind24, max_shift=0)
        assert out.scale == 0.0
        assert out.offset == pytest.approx(float(wind24.values.mean()))
        assert out.rmse == pytest.approx(float(wind24.values.std()))

    def test_variance_underflowing_to_zero_counts_as_constant(self):
        target = Series([1.0, 2.0, 3.0, 6.0], t0=1)
        out = align_affine(Series([0.0, 5e-324, 0.0, 5e-324], t0=1), target, max_shift=0)
        assert out.scale == 0.0
        assert out.offset == 3.0

    def test_result_type(self, wind24):
        assert isinstance(align_affine(wind24, wind24, 0), AlignResult)

    def test_length_mismatch(self, wind24, wind):
        with pytest.raises(ValueError):
            align_affine(wind24, wind, 0)
