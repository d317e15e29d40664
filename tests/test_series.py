import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycast.fixtures import dni48, fixture, temp48, wind48
from daycast.series import Series, make_sine, normalize_unit, split


class TestSeries:
    def test_values_are_read_only(self):
        s = Series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series([])

    def test_times_start_at_t0(self):
        s = Series([5.0, 6.0, 7.0], t0=4)
        assert list(s.times) == [4.0, 5.0, 6.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_with_index_and_time(self, bad):
        with pytest.raises(ValueError, match=r"index 2 \(t = 6\) is not finite"):
            Series([1.0, 2.0, bad, bad], t0=4)

    def test_a_value_beyond_the_bound_is_rejected_with_index_and_time(self):
        with pytest.raises(ValueError) as err:
            Series([0.0, 1e151])
        assert str(err.value) == "series value 1e+151 at index 1 (t = 2) is beyond +/-1e150"
        with pytest.raises(ValueError, match=r"^series value -1\.0000000000000002e\+150 at "
                                             r"index 0 \(t = 7\) is beyond"):
            Series([np.nextafter(-1e150, -np.inf)], t0=7)
        assert Series([1e150, -1e150]).values.tolist() == [1e150, -1e150]

    def test_a_nan_period_hint_is_refused(self):
        with pytest.raises(ValueError) as err:
            Series([1.0, 2.0], period_hint=math.nan)
        assert str(err.value) == "period_hint must be positive, got nan"


class TestMakeSine:
    def test_quarter_period_peaks(self):
        s = make_sine(1, 100, 100, 0)
        assert s.values[24] == pytest.approx(1.0, abs=1e-12)

    def test_half_period_crosses_zero(self):
        s = make_sine(1, 100, 100, 0)
        assert abs(s.values[49]) < 1e-12

    def test_direct_evaluation_short_period(self):
        # amplitude 2, period 4 at t = 1..4: 2 sin(pi/2), 2 sin(pi), ...
        s = make_sine(2, 4, 4, 0)
        np.testing.assert_allclose(s.values, [2.0, 0.0, -2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("period,count", [(0, 10), (-1, 10), (5, 0), (5, -3)])
    def test_invalid_arguments(self, period, count):
        with pytest.raises(ValueError):
            make_sine(1, period, count, 0)

    def test_full_turn_phase_matches_zero_phase(self):
        a = make_sine(1.5, 33, 80, 0.0)
        b = make_sine(1.5, 33, 80, 2 * math.pi)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestSplit:
    def test_one_day_split_of_wind(self):
        cut = split(wind48(), 24)
        assert len(cut.train) == 24 and len(cut.holdout) == 24
        assert cut.train.t0 == 1 and cut.holdout.t0 == 25

    def test_minimal_split(self):
        cut = split(Series([3.0, 7.0]), 1)
        assert list(cut.train.values) == [3.0]
        assert list(cut.holdout.values) == [7.0]

    def test_empty_holdout_forbidden(self):
        s = make_sine(1, 100, 100, 0)
        with pytest.raises(ValueError):
            split(s, 100)
        with pytest.raises(ValueError):
            split(s, 0)

    @given(st.integers(min_value=2, max_value=40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_split_then_concatenate_is_identity(self, n, data):
        values = data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))
        d = data.draw(st.integers(min_value=1, max_value=n - 1))
        s = Series(values, t0=data.draw(st.integers(-5, 5)))
        cut = split(s, d)
        rejoined = np.concatenate([cut.train.values, cut.holdout.values])
        np.testing.assert_array_equal(rejoined, s.values)
        assert cut.train.t0 == s.t0
        assert cut.holdout.t0 == s.t0 + d


class TestNormalizeUnit:
    def test_linear_map(self):
        out = normalize_unit(Series([0.0, 5.0, 10.0]), 0, 10)
        np.testing.assert_allclose(out.values, [0.0, 0.5, 1.0])

    def test_clamping(self):
        out = normalize_unit(Series([-1.0, 11.0]), 0, 10)
        np.testing.assert_allclose(out.values, [0.0, 1.0])

    def test_training_bounds_cover_training_data(self):
        train = temp48().values[:24]
        out = normalize_unit(Series(train), float(train.min()), float(train.max()))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            normalize_unit(Series([1.0]), 2.0, 2.0)

    @pytest.mark.parametrize("lo, hi, message", [
        (-1e308, 1e308, "the normalizing range [-1e+308, 1e+308] is wider than the float range"),
        (-math.inf, 0.0, "the normalizing range [-inf, 0.0] is wider than the float range"),
        (0.0, math.nan, "need hi > lo, got lo=0.0, hi=nan")], ids=["wide", "inf", "nan"])
    def test_a_range_whose_width_is_not_finite_is_refused_and_named(self, lo, hi, message):
        with pytest.raises(ValueError) as err:
            normalize_unit(Series([0.0]), lo, hi)
        assert str(err.value) == message

    def test_a_distance_past_the_float_range_clamps_without_a_warning(self):
        # The suite makes a RuntimeWarning an error. Samples stay within
        # +/-1e150, but divided by a width of 2**-600 they overflow.
        lo, hi = 0.0, 2.0**-600
        out = normalize_unit(Series([-1e150, 2.0**-601, 1e150]), lo, hi)
        np.testing.assert_array_equal(out.values, [0.0, 0.5, 1.0])

    def test_idempotent_on_unit_interval(self):
        s = Series([0.0, 0.25, 0.7, 1.0])
        once = normalize_unit(s, 0, 1)
        twice = normalize_unit(once, 0, 1)
        np.testing.assert_array_equal(once.values, twice.values)


class TestFixtures:
    def test_shapes_and_metadata(self):
        for s, unit in ((wind48(), "m/s"), (temp48(), "degC"), (dni48(), "Wh/m^2")):
            assert len(s) == 48
            assert s.t0 == 1
            assert s.period_hint == 24
            assert s.unit == unit

    def test_spot_values(self):
        assert wind48().values[15] == 8.8      # hour 16, the windy afternoon peak
        assert temp48().values[36] == 20.0     # hour 37, second-day maximum
        assert dni48().values[12] == 832.0     # hour 13, solar noon
        assert dni48().values[0] == 0.0

    def test_lookup_and_aliases(self):
        assert list(fixture("wind").values) == list(fixture("wind48").values)
        assert list(fixture("temperature").values) == list(temp48().values)
        with pytest.raises(ValueError):
            fixture("nonsense")
