import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycast.nexting import (AlignResult, NextingLearner, TileCoder, align_affine,
                             ideal_return, run_online, tile_indices)
from daycast.series import Series, make_sine


def reference_run(signals, coder, gamma, alpha, trace_lambda, freeze_after):
    """Step-by-step oracle: one learner.step (or predict) per sample."""
    Y = np.array([np.clip((s.values - s.values[:24].min())
                          / (s.values[:24].max() - s.values[:24].min()), 0.0, 1.0)
                  for s in signals])
    n = Y.shape[1]
    learner = NextingLearner(coder, gamma, alpha, trace_lambda)
    preds = np.zeros((coder.n_signals, n))
    for t in range(n):
        if t + 1 == n:
            preds[:, t] = learner.predict(Y[:, t])
            break
        if freeze_after is not None and t + 1 >= freeze_after:
            learner.freeze()
        preds[:, t] = learner.step(Y[:, t], Y[:, t + 1], Y[:, t + 1])
    return preds, learner


def direct_return(values, i0, gamma, horizon):
    """Plain loop oracle for the truncated discounted sum."""
    total = 0.0
    for k in range(horizon):
        total += gamma**k * values[i0 + 1 + k]
    return total


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


class TestIdealReturn:
    def test_gamma_zero_is_next_sample(self, wind):
        est = ideal_return(wind, t=10, gamma=0.0, horizon=1)
        assert est.value == wind.values[10]  # t0=1: time 11 is index 10
        assert est.truncation_bound == 0.0

    def test_constant_signal_geometric_sum(self):
        s = Series([3.0] * 100)
        est = ideal_return(s, t=1, gamma=0.5, horizon=60)
        assert est.value == pytest.approx(6.0, rel=1e-15)

    def test_long_horizon_matches_one_over_one_minus_gamma(self):
        s = Series([1.0] * 400)
        gamma = 0.9375
        est = ideal_return(s, t=1, gamma=gamma, horizon=350)
        assert est.value == pytest.approx(1.0 / (1.0 - gamma), abs=1e-6)

    def test_matches_direct_summation(self, temp):
        for t, gamma, horizon in ((1, 0.9, 20), (5, 0.5, 30), (10, 0.0, 1)):
            est = ideal_return(temp, t=t, gamma=gamma, horizon=horizon)
            oracle = direct_return(temp.values, t - temp.t0, gamma, horizon)
            assert est.value == pytest.approx(oracle, abs=1e-12)

    def test_insufficient_future(self, wind):
        with pytest.raises(ValueError):
            ideal_return(wind, t=40, gamma=0.5, horizon=20)


class TestTdStep:
    def test_first_update_spreads_error_over_active_features(self):
        coder = TileCoder(n_tilings=4, tiles_per_dim=4, include_bias=False)
        learner = NextingLearner(coder, gamma=0.0, alpha=0.4, trace_lambda=0.9)
        preds = learner.step([0.1], [0.9], [2.0])
        assert preds[0] == 0.0
        active = tile_indices([[0.1]], coder)[0]
        expected = 0.4 * 2.0 / len(active)
        np.testing.assert_allclose(learner.theta[0, active], expected)
        others = np.setdiff1d(np.arange(coder.n_features), active)
        np.testing.assert_array_equal(learner.theta[0, others], 0.0)

    def test_frozen_learner_keeps_weights_bit_identical(self):
        coder = TileCoder()
        learner = NextingLearner(coder, gamma=0.5, alpha=0.1, trace_lambda=0.9)
        learner.step([0.4], [0.4], [1.0])
        snapshot = learner.theta.copy()
        learner.freeze()
        preds = learner.step([0.4], [0.4], [5.0])
        np.testing.assert_array_equal(learner.theta, snapshot)
        assert preds[0] == snapshot[0, tile_indices([[0.4]], coder)[0]].sum()

    def test_gamma_zero_makes_trace_decay_irrelevant(self):
        # With gamma = 0 the trace collapses to phi[t], so any trace decay
        # parameter produces the same weight trajectory.
        coder = TileCoder(n_tilings=4, tiles_per_dim=8)
        rng = np.random.default_rng(5)
        stream = rng.uniform(0, 1, 50)
        thetas = []
        for lam in (0.0, 0.9):
            learner = NextingLearner(coder, gamma=0.0, alpha=0.2, trace_lambda=lam)
            for t in range(len(stream) - 1):
                learner.step([stream[t]], [stream[t + 1]], [stream[t + 1]])
            thetas.append(learner.theta.copy())
        np.testing.assert_array_equal(thetas[0], thetas[1])

    def test_bad_input_rejected(self):
        learner = NextingLearner(TileCoder(n_signals=2), gamma=0.0, alpha=0.1,
                                 trace_lambda=0.9)
        with pytest.raises(ValueError, match="expected 2 targets, got 1"):
            learner.step([0.5, 0.5], [0.5, 0.5], [1.0])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            learner.step([0.5, 0.5], [0.5, 1.2], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            learner.predict([-0.1, 0.5])
        np.testing.assert_array_equal(learner.theta, 0.0)


class TestRunOnline:
    def test_constant_signal_converges_to_fixed_point(self):
        signal = Series([0.5] * 2000)
        run = run_online([signal], TileCoder(), gamma=0.0, alpha=0.1,
                         trace_lambda=0.9, norm_bounds=[(0.0, 1.0)])
        assert run.predictions[0].values[-1] == pytest.approx(0.5, abs=1e-2)

    def test_freeze_after_pins_weights(self, wind):
        coder = TileCoder()
        frozen = run_online([wind], coder, gamma=0.0, alpha=0.3, trace_lambda=0.9,
                            freeze_after=24)
        # Rerun the first 24 samples only: weights must match the frozen run's.
        head = Series(wind.values[:24], t0=1, period_hint=24)
        partial = run_online([head], coder, gamma=0.0, alpha=0.3, trace_lambda=0.9,
                             norm_bounds=[frozen.bounds[0]])
        np.testing.assert_array_equal(frozen.learner.theta, partial.learner.theta)
        assert frozen.learner.frozen

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
        signal = Series([0.5] * 4000)
        run = run_online([signal], TileCoder(), gamma=gamma, alpha=0.1,
                         trace_lambda=0.9, norm_bounds=[(0.0, 1.0)])
        assert run.predictions[0].values[-1] == pytest.approx(0.5 / (1 - gamma), abs=1e-2)

    def test_pure_function_of_inputs(self, dni):
        kwargs = dict(gamma=0.0, alpha=0.2, trace_lambda=0.9, freeze_after=24)
        a = run_online([dni], TileCoder(), **kwargs)
        b = run_online([dni], TileCoder(), **kwargs)
        np.testing.assert_array_equal(a.predictions[0].values, b.predictions[0].values)
        np.testing.assert_array_equal(a.learner.theta, b.learner.theta)
        assert a.bounds == b.bounds


class TestRunOnlineMatchesStepLoop:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_learner_step(self, data):
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
        preds, learner = reference_run(signals, coder, gamma, alpha, trace_lambda,
                                       freeze_after)
        for i in range(n_signals):
            assert run.predictions[i].values.tobytes() == preds[i].tobytes()
        assert run.learner.theta.tobytes() == learner.theta.tobytes()
        assert run.learner.e.tobytes() == learner.e.tobytes()
        assert run.learner.frozen == learner.frozen


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

    def test_result_type(self, wind24):
        assert isinstance(align_affine(wind24, wind24, 0), AlignResult)

    def test_length_mismatch(self, wind24, wind):
        with pytest.raises(ValueError):
            align_affine(wind24, wind, 0)
