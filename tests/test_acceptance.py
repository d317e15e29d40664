"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every numeric tolerance is pinned here, none are calibrated at
runtime.
"""

import csv
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from daycast.config import band_from_config, builtin_config_path, load_config, load_dataset
from daycast.arima import ArimaOrder, css_estimate, expand_polynomials, forecast
from daycast.evalharness import compare, consecutive_within
from daycast.fixtures import wind48
from daycast.linmodels import (Constant, RbfConfig, Sinusoid, fit_basis, fit_polynomial,
                               fit_rbf, solve_ridge)
from daycast.nexting import TileCoder, align_affine, run_online
from daycast.reportio import export_report
from daycast.series import Series, make_sine, split
from daycast.smoothers import fit_smoothing_spline
from daycast.tree import GrowConfig, PeriodicWrapper, grow, prune
from test_linmodels import exact_normal_equations
from test_tree import all_pruned_subtrees, naive_best_split


@contextmanager
def criterion(num, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"[acceptance] criterion {num} ({label}): {status} [{elapsed:.3f}s "
          f"< {budget_seconds:g}s]")
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"


def train_error(predict, series):
    return float(np.sqrt(np.mean((predict(series.times) - series.values) ** 2)))


def test_criterion_1_sine_arima_exactness():
    with criterion(1, "sine ARIMA(2,0,0) forecast MSE < 1e-10", 1.0):
        train = make_sine(1, 100, 100, 0)
        model = css_estimate(train, ArimaOrder(2, 0, 0, 0, 0, 0, 0))
        out = forecast(model, train, 100)
        target = np.sin(2 * np.pi * np.arange(101, 201) / 100)
        mse = float(np.mean((out.values - target) ** 2))
        assert mse < 1e-10, f"forecast MSE {mse:.3e}"


def test_criterion_2_ridge_exactness_on_matched_sine():
    with criterion(2, "matched-sinusoid ridge deviates <= 1e-9", 0.1):
        target = make_sine(1, 100, 200, 0)
        train = Series(target.values[:100], t0=1)
        fit = fit_basis(train, (Constant(), Sinusoid(100, -np.pi / 2)), reg_lambda=0.0)
        dev = np.abs(fit.predict(target.times) - target.values)
        assert dev.max() <= 1e-9, f"max deviation {dev.max():.3e}"


def test_criterion_3_polynomial_wind_row():
    with criterion(3, "wind polynomial: RMSE 0.9337, runs (2,7), t=25 value", 0.1):
        cut = split(wind48(), 24)
        fit = fit_polynomial(cut.train, 6)
        assert train_error(fit.predict, cut.train) == pytest.approx(0.9337, abs=1e-3)
        fc = Series(fit.predict(cut.holdout.times), t0=25)
        assert consecutive_within(fc, cut.holdout, 1.0) == 2
        assert consecutive_within(fc, cut.holdout, 3.0) == 7
        assert fit.predict(25.0) == pytest.approx(2.03082483877674, abs=1e-3)


def test_criterion_4_tree_wind_row_with_node_count_readings():
    with criterion(4, "wind tree: RMSE 1.2096, runs (2,7); node-count readings", 0.1):
        cut = split(wind48(), 24)

        def evaluate(config):
            t = grow(cut.train, config)
            wrapper = PeriodicWrapper(t, 24, t0=1)
            fc = Series(wrapper.predict(cut.holdout.times), t0=25)
            return (t.n_leaves, train_error(t.predict, cut.train),
                    consecutive_within(fc, cut.holdout, 1.0),
                    consecutive_within(fc, cut.holdout, 3.0))

        # The published row: greedy growth that refuses to split nodes under
        # 10 samples reproduces both the RMSE and the band runs.
        leaves, err, inner, outer = evaluate(GrowConfig(min_node_size=10))
        assert err == pytest.approx(1.2096, abs=1e-2)
        assert (inner, outer) == (2, 7)

        # Both readings of "5 nodes" are exercised; neither reproduces the
        # published RMSE, which is the documented discrepancy.
        five_leaves = evaluate(GrowConfig(max_leaves=5))
        assert (five_leaves[2], five_leaves[3]) == (2, 7)     # runs do match
        three_leaves = evaluate(GrowConfig(max_leaves=3))     # 5 nodes in total
        print(f"[acceptance]   5-leaf reading: RMSE {five_leaves[1]:.4f}; "
              f"5-total-node reading: RMSE {three_leaves[1]:.4f}; "
              f"min-split-10 tree ({leaves} leaves): RMSE {err:.4f} <- published 1.2096")
        assert abs(five_leaves[1] - 1.2096) > 1e-2
        assert abs(three_leaves[1] - 1.2096) > 1e-2


def test_criterion_5_modulo_prototype_contract():
    with criterion(5, "periodic prototype: t=26 evaluates the tree at t=2", 0.1):
        cut = split(wind48(), 24)
        t = grow(cut.train, GrowConfig(min_node_size=10))
        wrapper = PeriodicWrapper(t, 24, t0=1)
        assert float(wrapper.predict(26)) == t.predict(2.0)


def test_criterion_6_nexting_convergence_trend():
    with criterion(6, "nexting: sine improves over 10 periods; constant converges", 2.0):
        target = make_sine(1, 100, 1000, 0)
        run = run_online([target], TileCoder(), gamma=0.0, alpha=0.1,
                         trace_lambda=0.9, norm_window=100)
        lo, hi = run.bounds[0]
        normalized = np.clip((target.values - lo) / (hi - lo), 0, 1)
        pred = run.predictions[0].values
        first = float(np.sqrt(np.mean((pred[:99] - normalized[1:100]) ** 2)))
        last = float(np.sqrt(np.mean((pred[900:999] - normalized[901:1000]) ** 2)))
        assert last < first, f"first {first:.4f} vs last {last:.4f}"

        constant = Series([0.5] * 2000)
        run2 = run_online([constant], TileCoder(), gamma=0.0, alpha=0.1,
                          trace_lambda=0.9, norm_bounds=[(0.0, 1.0)])
        assert run2.predictions[0].values[-1] == pytest.approx(0.5, abs=1e-2)


def test_criterion_7_property_substituted_table_rows(tmp_path):
    with criterion(7, "table generation + property checks for unpinned rows", 30.0):
        # Report generation succeeds for every published settings column.
        for name in ("table2_wind", "table2_temperature", "table2_irradiance"):
            cfg = load_config(builtin_config_path(name))
            dataset = load_dataset(cfg)
            reports = compare(dataset, cfg["methods"], band_from_config(cfg))
            assert len(reports) == len(cfg["methods"])
            by_name = {r.method: r for r in reports}
            for method in ("polynomial", "ridge", "rbf", "spline", "tree", "nexting"):
                assert by_name[method].ok, f"{name}/{method}: {by_name[method].error}"
            # ARIMA rows never carry a training RMSE (the "-" cells), here
            # additionally flagged: two training days do not fit in the
            # 48-sample embedded fixtures.
            assert by_name["arima"].train_rmse is None

        # The CSV export renders the ARIMA "-" cell as an empty field.
        cfg = load_config(builtin_config_path("table2_wind"))
        reports = compare(load_dataset(cfg), cfg["methods"], band_from_config(cfg))
        out = tmp_path / "wind.csv"
        export_report(reports, "csv", out)
        rows = csv.reader(out.read_text().splitlines())
        arima_row = next(r for r in rows if r and r[0] == "arima")
        assert arima_row[1] == ""

        # RBF far field approaches the bias weight.
        wind_train = split(wind48(), 24).train
        rbf = fit_rbf(wind_train, RbfConfig(n_basis=4, sigma=6.3))
        assert rbf.predict(24 + 20 * 6.3) == pytest.approx(rbf.coeffs[0], abs=1e-6)

        # Spline training error is monotone in the smoothing parameter.
        errs = [train_error(fit_smoothing_spline(wind_train, lam).predict, wind_train)
                for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(a <= b + 1e-10 for a, b in zip(errs, errs[1:]))

        # Inclusive band counting is monotone in the half width.
        cut = split(wind48(), 24)
        fit = fit_polynomial(cut.train, 6)
        fc = Series(fit.predict(cut.holdout.times), t0=25)
        runs = [consecutive_within(fc, cut.holdout, hw) for hw in (0.5, 1, 2, 3, 6)]
        assert all(a <= b for a, b in zip(runs, runs[1:]))

        # Alignment recovers exact affine and shift distortions with zero error.
        base = split(wind48(), 24).train
        affine = Series(3.0 * base.values - 2.0, t0=1)
        got = align_affine(affine, base, max_shift=0)
        assert got.rmse == pytest.approx(0.0, abs=1e-12)
        assert got.scale == pytest.approx(1.0 / 3.0, abs=1e-12)
        delayed = Series(np.concatenate([[base.values[0]], base.values[:-1]]), t0=1)
        got = align_affine(delayed, base, max_shift=3)
        assert got.shift == 1 and got.rmse == pytest.approx(0.0, abs=1e-12)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "randomized oracle equivalence across solvers", 30.0):
        rng = np.random.default_rng(20240817)

        # Ridge solver vs exact rational normal-equation elimination, on
        # reasonably conditioned systems (near-singular ones lose digits).
        for _ in range(25):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 7))
            X = rng.integers(-4, 5, size=(n, k)).astype(float)
            y = rng.integers(-4, 5, size=n).astype(float)
            lam = float(rng.choice([0.0, 1.0, 2.0]))
            expected = exact_normal_equations(X, y, lam, np.eye(k))
            if expected is None:
                continue
            stacked = X if lam == 0 else np.vstack([X, lam * np.eye(k)])
            sv = np.linalg.svd(stacked, compute_uv=False)
            if sv[-1] < 1e-4 * sv[0]:
                continue
            theta = solve_ridge(X, y, reg_lambda=lam)
            np.testing.assert_allclose(theta, expected, atol=1e-9, rtol=1e-9)

        # Split search vs naive exhaustive enumeration.
        from daycast.tree import best_split
        for _ in range(40):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, 3))
            X = rng.integers(0, 7, size=(n, p)).astype(float)
            y = rng.integers(0, 7, size=n).astype(float)
            expected = naive_best_split(X, y)
            got = best_split(X, y)
            if expected is None:
                assert got is None
            else:
                assert got.var == expected[1]
                assert got.point == pytest.approx(expected[2])

        # Operator expansion vs plain nested-loop convolution.
        def loop_convolve(a, b):
            out = [0.0] * (len(a) + len(b) - 1)
            for i, av in enumerate(a):
                for j, bv in enumerate(b):
                    out[i + j] += av * bv
            return out

        from daycast.arima import ArimaModel
        for _ in range(30):
            p, q = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            P, Q, D = int(rng.integers(0, 2)), int(rng.integers(0, 2)), int(rng.integers(0, 2))
            d, s = int(rng.integers(0, 3)), int(rng.choice([2, 4, 12]))
            phi = rng.uniform(-1, 1, p)
            theta = rng.uniform(-1, 1, q)
            sphi = rng.uniform(-1, 1, P)
            stheta = rng.uniform(-1, 1, Q)
            model = ArimaModel(ArimaOrder(p, d, q, P, D, Q, s), phi, theta, sphi, stheta)
            form = expand_polynomials(model)
            ar = [1.0] + [0.0] * (p)
            for i, c in enumerate(phi, 1):
                ar[i] = -c
            sar = [0.0] * (s * P + 1)
            sar[0] = 1.0
            for i, c in enumerate(sphi, 1):
                sar[i * s] = -c
            full = loop_convolve(ar, sar)
            for _ in range(d):
                full = loop_convolve(full, [1.0, -1.0])
            for _ in range(D):
                full = loop_convolve(full, [1.0] + [0.0] * (s - 1) + [-1.0])
            np.testing.assert_allclose(form.ar_full, [-c for c in full[1:]], atol=1e-12)

        # Pruning vs brute-force subtree enumeration.
        for _ in range(20):
            n = int(rng.integers(4, 15))
            y = rng.integers(0, 10, size=n).astype(float)
            t = grow((np.arange(n, dtype=float)[:, None], y), GrowConfig(max_leaves=7))
            alpha = float(rng.choice([0.0, 0.2, 1.0, 5.0, 40.0]))
            pruned = prune(t, alpha)
            best_cost = min(sse + alpha * k for sse, k in all_pruned_subtrees(t.root))
            got_cost = pruned.leaf_sse() + alpha * pruned.n_leaves
            assert got_cost == pytest.approx(best_cost, abs=1e-9)


TMY3_PATH = os.environ.get("DAYCAST_TMY3")


@pytest.mark.tmy3
@pytest.mark.skipif(not TMY3_PATH, reason="set DAYCAST_TMY3 to the LA TMY3 CSV")
def test_optional_multi_period_numbers_from_full_tmy3():
    """Multi-period prototype improvements need the full LA weather file.

    Locates the embedded wind day inside the file, then checks that
    training on 6 periods improves the single-day prototype error the
    way the published comparison reports (1.2096 -> 1.1893).
    """
    from daycast.tmy3 import parse_tmy3
    from daycast.tree import fit_periodic_ensemble
    wind, _, _ = parse_tmy3(TMY3_PATH)
    target_day = wind48().values[:24]
    best_off, best_err = None, np.inf
    for off in range(0, len(wind) - 48, 24):
        window = wind.values[off:off + 24]
        err = float(np.sqrt(np.mean((window - target_day) ** 2)))
        if err < best_err:
            best_off, best_err = off, err
    if best_err > 0.3:
        pytest.skip(f"embedded wind day not found in file (best RMSE {best_err:.3f})")
    start = best_off - 5 * 24
    if start < 0:
        pytest.skip("not enough history before the matched day for 6 periods")
    six = Series(wind.values[start:best_off + 24], t0=1, period_hint=24)
    wrapper = fit_periodic_ensemble(six, 24, GrowConfig(min_node_size=10))
    day = Series(wind.values[best_off:best_off + 24], t0=1)
    base_day_times = np.arange(1 + 5 * 24, 1 + 6 * 24, dtype=float)
    multi_rmse = float(np.sqrt(np.mean((wrapper.predict(base_day_times) - day.values) ** 2)))
    single = grow(day, GrowConfig(min_node_size=10))
    single_rmse = float(np.sqrt(np.mean((single.predict(day.times) - day.values) ** 2)))
    print(f"[optional tmy3] single-day RMSE {single_rmse:.4f}, "
          f"6-period RMSE {multi_rmse:.4f} (published: 1.2096 -> 1.1893)")
    assert multi_rmse == pytest.approx(1.1893, abs=0.1)
