"""Moving-average filters against brute-force window oracles."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from tdafault.movavg import HULL_MODES, FilteredSeries, MaConfig, ema, hema, hma, wma


def brute_wma(x, n):
    """Definition-level weighted moving average: weights 1..n, newest heaviest.

    Warm-up indices use the same linear weighting over the partial window
    seen so far (weights 1..t+1), matching the library's documented rule.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for t in range(x.size):
        m = min(t + 1, n)
        weights = np.arange(1, m + 1, dtype=float)
        out[t] = np.dot(x[t - m + 1: t + 1], weights) / (m * (m + 1) / 2.0)
    return out


def brute_ema(x, alpha):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.size):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def hull_windows(n, mode):
    if mode == "hull_standard":
        return -(-n // 2), n, int(round(np.sqrt(n)))
    return -(-n // 2), -(-n // 2), n


def brute_hull(x, cfg, stage):
    """Staged Hull construction with the stage filter applied by brute force."""
    w_half, w_full, w_out = hull_windows(cfg.window, cfg.hull_mode)
    first = stage(x, w_half)
    second = stage(x, w_full)
    return stage(2.0 * first - second, w_out)


def series_bank(count=50, length=100, seed=2024):
    rng = np.random.default_rng(seed)
    bank = []
    for _ in range(count):
        trend = rng.uniform(-0.05, 0.05) * np.arange(length)
        wave = rng.uniform(0.1, 3.0) * np.sin(
            2 * np.pi * rng.uniform(0.01, 0.2) * np.arange(length) + rng.uniform(0, 2 * np.pi)
        )
        bank.append(trend + wave + rng.normal(0, rng.uniform(0.01, 1.0), length))
    return bank


class TestWma:
    def test_matches_brute_force_bank(self):
        for x in series_bank():
            np.testing.assert_allclose(wma(x, 16).values, brute_wma(x, 16), atol=1e-12)

    def test_hand_computed_value(self):
        # wma([1,2,3], 3) at t=2: (1*1 + 2*2 + 3*3) / 6
        assert wma([1.0, 2.0, 3.0], 3).values[2] == pytest.approx(14.0 / 6.0, abs=1e-15)

    def test_valid_from(self):
        f = wma(np.arange(30.0), 7)
        assert f.valid_from == 6
        assert f.valid_values.size == 24

    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=40)
        np.testing.assert_allclose(wma(x, 1).values, x, atol=0)

    @given(st.integers(2, 12), st.floats(-5, 5, allow_nan=False))
    def test_constant_series_passthrough(self, n, c):
        out = wma(np.full(30, c), n)
        np.testing.assert_allclose(out.values, c, atol=1e-12)

    def test_linear_ramp_lag(self):
        # On x[t] = t, the steady-state lag of the weight profile is (n-1)/3.
        n = 16
        x = np.arange(100.0)
        out = wma(x, n).values
        lag = x[50] - out[50]
        assert lag == pytest.approx((n - 1) / 3.0, abs=1e-10)


class TestEma:
    def test_matches_brute_force_bank(self):
        for x in series_bank():
            np.testing.assert_allclose(ema(x, 0.3).values, brute_ema(x, 0.3), atol=1e-12)

    def test_seeded_with_first_sample(self):
        x = np.array([5.0, 0.0, 0.0])
        out = ema(x, 0.5).values
        assert out[0] == 5.0
        assert out[1] == 2.5
        assert out[2] == 1.25

    def test_alpha_one_is_identity(self):
        x = np.random.default_rng(1).normal(size=25)
        np.testing.assert_allclose(ema(x, 1.0).values, x, atol=0)

    def test_alpha_bounds(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ema([1.0, 2.0], bad)

    @given(st.floats(0.05, 1.0), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_output_within_input_range(self, alpha, seed):
        x = np.random.default_rng(seed).uniform(-2, 3, size=50)
        out = ema(x, alpha).values
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    @pytest.mark.parametrize("alpha", [0.05, 2.0 / 17.0, 0.5, 1.0])
    def test_rows_of_2d_input_equal_1d_calls(self, alpha):
        rows = np.stack(series_bank(count=12))
        out = ema(rows, alpha)
        assert out.values.shape == rows.shape and out.valid_from == 0
        for row, filtered in zip(rows, out.values):
            np.testing.assert_array_equal(filtered, ema(row, alpha).values)

    @pytest.mark.parametrize("alpha", [0.4, 0.99, 1.0])
    def test_rows_spanning_several_blocks_equal_1d_calls(self, alpha):
        # 4096-sample rows cross several scan blocks at these alphas.
        rows = np.random.default_rng(5).normal(3.0, 2.0, size=(6, 4096))
        out = ema(rows, alpha).values
        assert not np.shares_memory(out, rows)
        for row, filtered in zip(rows, out):
            np.testing.assert_array_equal(filtered, ema(row, alpha).values)
            np.testing.assert_allclose(filtered, brute_ema(row, alpha), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("magnitude", [1e300, 1e-300])
    @pytest.mark.parametrize("alpha", [2.0 / 17.0, 0.4, 0.99])
    def test_extreme_magnitudes_match_brute_force(self, magnitude, alpha):
        # Near the ends of the float range the scan's growing weights must
        # neither overflow nor lose the small values.
        rng = np.random.default_rng(6)
        signs = rng.choice([-1.0, 1.0], 3)[:, None]
        rows = magnitude * rng.uniform(0.5, 1.7, size=(3, 3000)) * signs
        out = ema(rows, alpha).values
        for row, filtered in zip(rows, out):
            expect = brute_ema(row, alpha)
            assert np.all(np.isfinite(filtered))
            np.testing.assert_allclose(filtered, expect, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(filtered, ema(row, alpha).values)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            ema(np.ones((2, 3, 4)), 0.5)

    def test_window_to_alpha_rule(self):
        cfg = MaConfig(window=9)
        assert cfg.alpha_for(9) == pytest.approx(2.0 / 10.0, abs=0)
        fixed = MaConfig(window=9, ema_alpha=0.42)
        assert fixed.alpha_for(9) == 0.42


class TestHullConstructions:
    @pytest.mark.parametrize("mode", HULL_MODES)
    def test_hma_matches_brute_force(self, mode):
        cfg = MaConfig(window=16, hull_mode=mode)
        for x in series_bank(count=10):
            expect = brute_hull(x, cfg, lambda s, w: brute_wma(s, w))
            np.testing.assert_allclose(hma(x, cfg).values, expect, atol=1e-12)

    @pytest.mark.parametrize("mode", HULL_MODES)
    def test_hema_matches_brute_force(self, mode):
        cfg = MaConfig(window=16, hull_mode=mode)

        def stage(s, w):
            return brute_ema(s, cfg.alpha_for(w))

        for x in series_bank(count=10):
            np.testing.assert_allclose(hema(x, cfg).values, brute_hull(x, cfg, stage), atol=1e-12)

    @pytest.mark.parametrize("mode", HULL_MODES)
    @pytest.mark.parametrize("alpha", [None, 0.3])
    def test_hema_rows_of_2d_input_equal_1d_calls(self, mode, alpha):
        cfg = MaConfig(window=16, ema_alpha=alpha, hull_mode=mode)
        # Overlapping windows of one series, as featurize passes them.
        rows = sliding_window_view(np.concatenate(series_bank(count=4)), 100)[::37]
        out = hema(rows, cfg)
        assert out.values.shape == rows.shape
        for row, filtered, valid in zip(rows, out.values, out.valid_values):
            single = hema(row, cfg)
            assert out.valid_from == single.valid_from
            np.testing.assert_array_equal(filtered, single.values)
            np.testing.assert_array_equal(valid, single.valid_values)

    def test_literal_mode_collapses_to_double_smoothing(self):
        # With both intermediates at ceil(n/2), 2*first - second == first,
        # so the construction degenerates to smoothing twice.
        cfg = MaConfig(window=16, hull_mode="paper_literal")
        for x in series_bank(count=10):
            w_half = 8
            double_wma = brute_wma(brute_wma(x, w_half), 16)
            np.testing.assert_allclose(hma(x, cfg).values, double_wma, atol=1e-12)
            alpha_half = cfg.alpha_for(w_half)
            alpha_full = cfg.alpha_for(16)
            double_ema = brute_ema(brute_ema(x, alpha_half), alpha_full)
            np.testing.assert_allclose(hema(x, cfg).values, double_ema, atol=1e-12)

    def test_hull_reduces_lag_below_stages(self):
        # On a ramp, the standard Hull lag sits far below its slowest stage.
        x = np.arange(200.0)
        cfg = MaConfig(window=16)
        hull_lag = x[150] - hma(x, cfg).values[150]
        wma_lag = x[150] - wma(x, 16).values[150]
        assert hull_lag < wma_lag
        assert hull_lag == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_lag_ordering_across_family(self):
        # Ramp lags: HMA < HEMA < WMA(16) < EMA's equivalent-window WMA.
        x = np.arange(400.0)
        t = 300
        cfg = MaConfig(window=16)
        lag_hma = x[t] - hma(x, cfg).values[t]
        lag_hema = x[t] - hema(x, cfg).values[t]
        lag_wma = x[t] - wma(x, 16).values[t]
        # EMA from window 16 has ramp lag (n-1)/2 = 7.5; the WMA with the
        # same center of mass needs window ceil(3*(n-1)/2)+1 = 24 (lag 23/3).
        lag_ema = x[t] - ema(x, cfg.alpha_for(16)).values[t]
        lag_wma_equiv = x[t] - wma(x, 24).values[t]
        assert lag_hma < lag_hema < lag_wma
        assert lag_ema == pytest.approx(7.5, abs=1e-6)
        assert lag_ema <= lag_wma_equiv + 1e-9

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MaConfig(window=16, hull_mode="bogus")
        with pytest.raises(ValueError):
            MaConfig(window=0)


class TestFilteredSeries:
    def test_valid_values_view(self):
        f = FilteredSeries(values=np.arange(10.0), valid_from=4)
        np.testing.assert_array_equal(f.valid_values, np.arange(4.0, 10.0))

    def test_short_series_is_all_warmup(self):
        f = wma(np.ones(3), 5)
        assert f.valid_from == 4
        assert f.valid_values.size == 0

    def test_empty_series_errors(self):
        with pytest.raises(ValueError):
            wma(np.array([]), 5)
