import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycast.evalharness import run_single
from daycast.series import Series
from daycast.tree import (BagEnsemble, GrowConfig, Node, PeriodicWrapper, Tree, best_split,
                          fit_periodic_ensemble, grow, prune)


def naive_best_split(X, y):
    """Independent oracle: recompute every candidate's cost from scratch."""
    n, p = X.shape
    best = None
    for j in range(p):
        distinct = sorted(set(X[:, j]))
        for lo, hi in zip(distinct, distinct[1:]):
            s = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if X[i, j] <= s]
            right = [y[i] for i in range(n) if X[i, j] > s]
            cost = (sum((v - np.mean(left)) ** 2 for v in left)
                    + sum((v - np.mean(right)) ** 2 for v in right))
            if best is None or cost < best[0] - 1e-12:
                best = (cost, j, s)
    parent = sum((v - np.mean(y)) ** 2 for v in y)
    if best is None or best[0] >= parent - 1e-12 * max(1.0, parent):
        return None
    return best


def all_pruned_subtrees(node):
    """Every way of collapsing internal nodes, as (leaf_sse, n_leaves) pairs."""
    if node.is_leaf:
        return [(node.sse, 1)]
    collapsed = [(node.sse, 1)]
    for lsse, ln in all_pruned_subtrees(node.left):
        for rsse, rn in all_pruned_subtrees(node.right):
            collapsed.append((lsse + rsse, ln + rn))
    return collapsed


class TestBestSplit:
    def test_clean_step(self):
        bs = best_split([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 10.0, 10.0])
        assert bs.point == 2.5
        assert bs.left_cost == 0.0 and bs.right_cost == 0.0

    def test_constant_targets_yield_none(self):
        assert best_split(np.arange(1.0, 6.0), np.full(5, 4.0)) is None

    def test_a_constant_target_whose_costs_round_below_zero_yields_none(self):
        # cum2 - cum**2 / k leaves rounding noise of either sign; with a
        # parent SSE of 0 the tie tolerance is 1e-12, and a cost of -3.6e-10
        # once split this at 112.5.
        assert best_split(np.arange(1000.0), np.full(1000, 3.3)) is None
        assert best_split(np.arange(14000.0), np.full(14000, 1e150)) is None

    def test_identical_inputs_yield_none(self):
        assert best_split([[1.0], [1.0], [1.0]], [0.0, 5.0, 9.0]) is None

    def test_prefers_zero_cost_split(self):
        bs = best_split([1.0, 2.0, 3.0], [0.0, 0.0, 9.0])
        assert bs.point == 2.5
        assert bs.left_cost + bs.right_cost == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_split([], [])

    def test_exact_tie_keeps_lowest_threshold(self):
        # Both thresholds cost 103/6 in exact arithmetic; rounding favours 1.5.
        bs = best_split([0.0, 1.0, 0.0, 2.0, 2.0], [0.0, 2.0, 3.0, 0.0, 5.0])
        assert bs.point == 0.5
        assert naive_best_split(np.array([[0.0], [1.0], [0.0], [2.0], [2.0]]),
                                np.array([0.0, 2.0, 3.0, 0.0, 5.0]))[2] == 0.5

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_oracle(self, data):
        n = data.draw(st.integers(2, 12))
        p = data.draw(st.integers(1, 2))
        grid = st.integers(0, 6).map(float)
        X = np.array(data.draw(st.lists(
            st.lists(grid, min_size=p, max_size=p), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)))
        expected = naive_best_split(X, y)
        got = best_split(X, y)
        if expected is None:
            assert got is None
        else:
            cost, j, s = expected
            assert got.var == j and got.point == pytest.approx(s)
            assert got.left_cost + got.right_cost == pytest.approx(cost, abs=1e-9)


class TestGrow:
    def test_constant_targets_single_leaf(self):
        t = grow(Series([5.0] * 8))
        assert t.root.is_leaf and t.root.mean == 5.0

    def test_a_constant_target_grows_one_leaf_at_any_node_size(self):
        t = grow(Series(np.full(1000, 3.3)), GrowConfig(min_node_size=2))
        assert t.n_leaves == 1 and t.root.mean == pytest.approx(3.3)

    def test_two_leaf_step(self):
        t = grow(Series([0.0, 0.0, 10.0, 10.0]), GrowConfig(max_leaves=2))
        assert t.n_leaves == 2
        assert t.predict(1.0) == 0.0 and t.predict(4.0) == 10.0

    def test_targets_near_the_float_range_grow_without_a_warning(self):
        # Their sums of squares overflow; the suite makes a RuntimeWarning an
        # error. A Series holds no sample beyond 1e150, but grow also takes a
        # raw (X, y) table.
        times = np.arange(1.0, 25.0)
        t = grow((times, 1e308 * np.sin(2 * np.pi * times / 24)), GrowConfig(min_node_size=10))
        assert t.root.is_leaf and t.root.sse == np.inf and np.isfinite(t.root.mean)

    def test_leaf_constants_are_leaf_means(self, wind24):
        t = grow(wind24, GrowConfig(min_node_size=10))
        # Reconstruct membership by routing every training point.
        groups = {}
        for x, y in zip(wind24.times, wind24.values):
            groups.setdefault(t.predict(float(x)), []).append(y)
        for mean, members in groups.items():
            assert mean == pytest.approx(float(np.mean(members)), abs=1e-12)

    def test_training_sse_monotone_in_max_leaves(self, wind24):
        sses = []
        for leaves in (1, 2, 3, 4, 5, 6, 8):
            t = grow(wind24, GrowConfig(max_leaves=leaves))
            pred = t.predict(wind24.times)
            sses.append(float(np.sum((pred - wind24.values) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_min_split_size_ten_reproduces_published_day_profiles(self, wind24, temp24, dni24):
        # Growth that refuses to split nodes under 10 samples lands exactly on
        # the published training errors for all three signals.
        for series, expected in ((wind24, 1.2096), (temp24, 0.6020), (dni24, 132.4193)):
            t = grow(series, GrowConfig(min_node_size=10))
            pred = t.predict(series.times)
            rmse = float(np.sqrt(np.mean((pred - series.values) ** 2)))
            assert rmse == pytest.approx(expected, abs=1e-2)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grow((np.zeros((0, 1)), np.zeros(0)))

    def test_multivariate_batch_routes_each_row(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 4, (30, 2))
        y = np.where(X[:, 0] <= 2.0, 1.0, 5.0) + np.where(X[:, 1] <= 1.0, 0.0, 2.0)
        t = grow((X, y))
        assert t.n_vars == 2
        batch = t.predict(X)
        assert batch.shape == (30,)
        np.testing.assert_array_equal(batch, [t.predict(row) for row in X])
        np.testing.assert_array_equal(batch, y)


class TestPrune:
    def test_alpha_zero_keeps_tree(self, wind24):
        t = grow(wind24, GrowConfig(min_node_size=10))
        assert prune(t, 0.0).n_leaves == t.n_leaves

    def test_huge_alpha_collapses_to_root(self, wind24):
        t = grow(wind24)
        pruned = prune(t, 1e12)
        assert pruned.root.is_leaf
        assert pruned.root.mean == pytest.approx(float(wind24.values.mean()))

    def test_matches_brute_force_on_three_leaves(self):
        y = Series([0.0, 1.0, 0.5, 10.0, 11.0, 10.5, 20.0, 21.0])
        t = grow(y, GrowConfig(max_leaves=3))
        for alpha in (0.0, 0.3, 0.8, 2.0, 50.0, 1e6):
            pruned = prune(t, alpha)
            cost = pruned.leaf_sse() + alpha * pruned.n_leaves
            options = all_pruned_subtrees(t.root)
            best_cost = min(sse + alpha * k for sse, k in options)
            assert cost == pytest.approx(best_cost, abs=1e-9)
            # Unique minimizer: no strictly smaller subtree ties the cost.
            min_size = min(k for sse, k in options
                           if sse + alpha * k <= best_cost + 1e-9)
            assert pruned.n_leaves == min_size

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_trees(self, data):
        n = data.draw(st.integers(4, 14))
        y = np.array(data.draw(st.lists(
            st.integers(0, 9).map(float), min_size=n, max_size=n)))
        t = grow((np.arange(n, dtype=float)[:, None], y), GrowConfig(max_leaves=7))
        alpha = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 4.0, 25.0]))
        pruned = prune(t, alpha)
        options = all_pruned_subtrees(t.root)
        best_cost = min(sse + alpha * k for sse, k in options)
        assert pruned.leaf_sse() + alpha * pruned.n_leaves == pytest.approx(best_cost, abs=1e-9)

    def test_leaf_sse_adds_left_to_right_in_preorder(self):
        # 1e16 + 1 rounds back to 1e16, so a compensated sum (builtin sum from
        # Python 3.12) would give 1e16 + 2.
        def leaf(sse):
            return Node(n=1, mean=0.0, sse=sse)

        inner = Node(n=2, mean=0.0, sse=0.0, split_var=0, split_point=1.0,
                     left=leaf(1.0), right=leaf(1.0))
        root = Node(n=3, mean=0.0, sse=0.0, split_var=0, split_point=0.0,
                    left=leaf(1e16), right=inner)
        assert Tree(root).leaf_sse() == 1e16

    def test_leaf_count_monotone_and_nested_in_alpha(self, wind24):
        t = grow(wind24)
        alphas = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 1e3]
        pruned = [prune(t, a) for a in alphas]
        sizes = [p.n_leaves for p in pruned]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        # Nested subtrees: every split surviving a larger alpha also survives
        # the smaller one (identify splits by (var, point) paths).
        def split_set(tree):
            out = set()
            def walk(node, path):
                if node.is_leaf:
                    return
                out.add((path, node.split_var, node.split_point))
                walk(node.left, path + "L")
                walk(node.right, path + "R")
            walk(tree.root, "")
            return out
        sets = [split_set(p) for p in pruned]
        for small, large in zip(sets, sets[1:]):
            assert large <= small


class TestPeriodicWrapper:
    def test_worked_example_hour_26_maps_to_2(self, temp24):
        t = grow(temp24, GrowConfig(min_node_size=10))
        wrapper = PeriodicWrapper(t, 24, t0=1)
        assert float(wrapper.predict(26)) == t.predict(2.0)
        assert wrapper.base_time(26) == 2

    def test_identity_within_first_period(self, temp24):
        wrapper = PeriodicWrapper(grow(temp24), 24, t0=1)
        for t_query in range(1, 25):
            assert wrapper.base_time(t_query) == t_query

    def test_wraparound_to_period_start(self, temp24):
        wrapper = PeriodicWrapper(grow(temp24), 24, t0=1)
        assert wrapper.base_time(49) == 1

    def test_multi_period_ensemble_averages_days(self, wind):
        wrapper = fit_periodic_ensemble(wind, 24, GrowConfig(min_node_size=10))
        assert isinstance(wrapper.inner, BagEnsemble)
        assert len(wrapper.inner.trees) == 2
        day1 = wrapper.inner.trees[0].predict(5.0)
        day2 = wrapper.inner.trees[1].predict(5.0)
        assert wrapper.predict(29.0) == pytest.approx((day1 + day2) / 2.0)

    def test_full_periods_end_at_the_last_sample(self, wind24):
        # period 20 on 24 samples: the one full period is t = 5..24.
        wrapper = fit_periodic_ensemble(wind24, 20, GrowConfig(min_node_size=10))
        assert wrapper.t0 == 5
        oracle = grow((np.arange(5.0, 25.0), wind24.values[4:]), GrowConfig(min_node_size=10))
        probes = np.arange(5.0, 49.0)
        np.testing.assert_array_equal(wrapper.predict(probes),
                                      oracle.predict(wrapper.base_time(probes)))

    def test_a_dividing_period_keeps_the_trees_oldest_first(self, wind):
        wrapper = fit_periodic_ensemble(wind, 24, GrowConfig(min_node_size=10))
        days = [grow((np.arange(1.0, 25.0), wind.values[k * 24:(k + 1) * 24]),
                     GrowConfig(min_node_size=10)) for k in range(2)]
        probes = np.arange(1.0, 25.0)
        assert wrapper.t0 == 1
        for member, day in zip(wrapper.inner.trees, days):
            np.testing.assert_array_equal(member.predict(probes), day.predict(probes))

    def test_tree_row_trains_on_the_samples_before_the_forecast(self, wind):
        # The tree row scores t = 5..24; changing t = 21..24 must change what it learns.
        block = {"name": "tree", "min_node_size": 10, "period": 20}
        spiked = wind.values.copy()
        spiked[20:24] = 99.0
        before = run_single(wind, block)
        after = run_single(wind.with_values(spiked), block)
        assert not np.array_equal(before.forecast.values, after.forecast.values)
