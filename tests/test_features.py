"""Window featurization against a from-scratch reference implementation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tdafault import features as features_module
from tdafault.data import FAULT_CLASSES, SynthConfig, gen_recording, gen_synthetic
from tdafault.decompose import TimeSeries, decompose_additive, estimate_period
from tdafault.features import (
    CHANNEL_MAP,
    FEATURE_NAMES,
    Standardizer,
    WindowSpec,
    featurize,
    kurtosis_excess,
    rms,
    skewness,
)
from tdafault.movavg import MaConfig, hema


def brute_token(res, tr, se, ma):
    """Recompute one window's 9 features from their definitions."""
    filt = hema(res, ma)
    valid = filt.valid_values
    hema_mean = valid.mean() if valid.size else filt.values.mean()

    def moments(x):
        c = x - x.mean()
        return (c**2).mean(), (c**3).mean(), (c**4).mean()

    m2, m3, m4 = moments(res)
    skew = 0.0 if m2 < 1e-24 else m3 / m2**1.5
    kurt = 0.0 if m2 < 1e-24 else m4 / m2**2 - 3.0

    t = np.arange(tr.size) - (tr.size - 1) / 2.0
    slope = float(t @ (tr - tr.mean()) / (t @ t))

    se_c = se - se.mean()
    denom = float(se_c @ se_c)
    lag1 = 0.0 if denom < 1e-24 else float(se_c[:-1] @ se_c[1:]) / denom

    return np.array(
        [
            filt.values[-1],
            hema_mean,
            skew,
            kurt,
            np.sqrt((res**2).mean()),
            tr.mean(),
            slope,
            np.sqrt((se**2).mean()),
            lag1,
        ]
    )


# (window length, HEMA config): the default, both other alpha and Hull rules,
# the shortest Hull window, and a warm-up (44 samples) longer than the window.
HEMA_CASES = [
    (128, MaConfig(window=16)),
    (128, MaConfig(hull_mode="paper_literal")),
    (128, MaConfig(ema_alpha=0.3)),
    (128, MaConfig(window=2)),
    (32, MaConfig(window=40)),
]
HEMA_IDS = ["default", "paper-literal", "alpha-0.3", "window-2", "warm-up-past-window"]


class TestHemaWeights:
    @pytest.mark.parametrize("length, ma", HEMA_CASES, ids=HEMA_IDS)
    def test_weights_equal_hema_of_identity_rows(self, length, ma):
        last, mean = features_module._hema_weights(length, ma)
        want_last, want_mean = np.empty(length), np.empty(length)
        for j, row in enumerate(np.eye(length)):
            filt = hema(row, ma)
            settled = filt.valid_values if filt.valid_from < length else filt.values
            want_last[j], want_mean[j] = filt.values[-1], settled.mean()
        np.testing.assert_allclose(last, want_last, rtol=0, atol=1e-15)
        np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-15)

    def test_weights_are_cached_and_read_only(self):
        weights = features_module._hema_weights(64, MaConfig())
        assert features_module._hema_weights(64, MaConfig()) is weights
        for w in weights:
            assert not w.flags.writeable


class TestScalarStats:
    def test_skewness_known_value(self):
        # [0,0,0,1]: m2 = 3/16, m3 = 3/32 -> m3/m2^1.5 = 2/sqrt(3)
        assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_kurtosis_known_value(self):
        # +/-1 alternation: m4/m2^2 = 1 -> excess -2
        assert kurtosis_excess([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(-2.0, abs=1e-12)

    def test_gaussian_limits(self):
        x = np.random.default_rng(0).normal(size=200_000)
        assert abs(skewness(x)) < 0.02
        assert abs(kurtosis_excess(x)) < 0.05

    def test_degenerate_windows_are_zero(self):
        assert skewness(np.full(16, 3.7)) == 0.0
        assert kurtosis_excess(np.full(16, -2.2)) == 0.0

    def test_rms(self):
        assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)
        assert rms(np.zeros(5)) == 0.0

    def test_minimum_lengths(self):
        with pytest.raises(ValueError):
            skewness([1.0, 2.0])
        with pytest.raises(ValueError):
            kurtosis_excess([1.0, 2.0, 3.0])

    @given(st.integers(0, 5000), st.floats(0.1, 50.0), st.floats(-10, 10))
    @settings(max_examples=30)
    def test_scale_and_shift_invariance(self, seed, scale, shift):
        x = np.random.default_rng(seed).normal(size=64)
        assert skewness(scale * x + shift) == pytest.approx(skewness(x), abs=1e-7)
        assert kurtosis_excess(scale * x + shift) == pytest.approx(
            kurtosis_excess(x), abs=1e-7
        )


class TestWindowSpec:
    def test_window_count_formula(self):
        spec = WindowSpec(length=256, stride=128)
        assert spec.count(256) == 1
        assert spec.count(512) == 3
        assert spec.count(511) == 2
        # T = floor((N - W) / S) + 1
        for n in (256, 300, 1000, 4096):
            assert spec.count(n) == (n - 256) // 128 + 1

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            WindowSpec(length=64, stride=32).count(63)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(length=4, stride=2)
        with pytest.raises(ValueError):
            WindowSpec(length=64, stride=0)


class TestFeaturize:
    @pytest.fixture()
    def decomp(self):
        rng = np.random.default_rng(11)
        n = 1200
        x = (
            0.01 * np.arange(n)
            + np.sin(2 * np.pi * np.arange(n) / 16)
            + rng.normal(0, 0.5, n)
        )
        return decompose_additive(TimeSeries(x, 100.0, label="demo"), 16)

    @pytest.mark.parametrize("length, ma", HEMA_CASES, ids=HEMA_IDS)
    def test_matches_brute_force_reference(self, decomp, length, ma):
        stride = length // 2
        seq = featurize(decomp, WindowSpec(length=length, stride=stride), ma=ma, label="demo")
        n = decomp.trend.size
        expected_t = (n - length) // stride + 1
        assert seq.tokens.shape == (expected_t, 9)
        seasonal = decomp.seasonal
        for w in range(expected_t):
            sl = slice(w * stride, w * stride + length)
            want = brute_token(decomp.residual[sl], decomp.trend[sl], seasonal[sl], ma)
            np.testing.assert_allclose(seq.tokens[w], want, rtol=1e-12, atol=1e-12)

    def test_overflow_is_one_value_error_without_warnings(self):
        rng = np.random.default_rng(11)
        x = 1e150 * (np.sin(2 * np.pi * np.arange(1200) / 16) + rng.normal(0, 0.5, 1200))
        d = decompose_additive(TimeSeries(x, 100.0), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                featurize(d, WindowSpec(length=128, stride=64))

    @pytest.mark.parametrize(
        "fs, duration, length, stride",
        [(48000.0, 0.25, 2048, 1024), (4096.0, 2.0, 256, 128)],
    )
    def test_synthetic_recordings_match_brute_force(self, fs, duration, length, stride):
        cfg = SynthConfig(sample_rate_hz=fs, duration_s=duration, recordings_per_class=1, seed=3)
        spec = WindowSpec(length=length, stride=stride)
        ma = MaConfig(window=16)
        for ts in gen_synthetic(cfg):
            decomp = decompose_additive(ts, estimate_period(ts))
            seq = featurize(decomp, spec, ma=ma)
            assert seq.tokens.shape == (spec.count(len(ts)), 9)
            seasonal = decomp.seasonal
            for w, token in enumerate(seq.tokens):
                sl = slice(w * stride, w * stride + length)
                want = brute_token(decomp.residual[sl], decomp.trend[sl], seasonal[sl], ma)
                np.testing.assert_allclose(token, want, rtol=1e-12, atol=1e-12)

    def test_channel_map_partitions_features(self, decomp):
        seq = featurize(decomp, WindowSpec(length=128, stride=64))
        spans = sorted(CHANNEL_MAP.values())
        assert spans[0][0] == 0
        assert spans[-1][1] == seq.tokens.shape[1] == len(FEATURE_NAMES)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo

    def test_trivial_components_token(self):
        # Zero residual & seasonal with constant trend c -> [0]*5 + [c,0,0,0]
        n = 256
        c = 4.2
        d = decompose_additive(TimeSeries(np.full(n, c), 10.0), 8)
        seq = featurize(d, WindowSpec(length=64, stride=64))
        for tok in seq.tokens:
            np.testing.assert_allclose(tok, [0, 0, 0, 0, 0, c, 0, 0, 0], atol=1e-12)

    def test_tokens_are_finite_and_labelled(self, decomp):
        seq = featurize(decomp, WindowSpec(length=256, stride=128), label="demo")
        assert np.isfinite(seq.tokens).all()
        assert seq.label == "demo"
        assert len(seq) == seq.tokens.shape[0]

    @pytest.fixture(scope="class")
    def fullrate(self):
        """One 48 kHz, 10 s recording, decomposed at its shaft period (1625 samples)."""
        cfg = SynthConfig(sample_rate_hz=48000.0, duration_s=10.0, seed=3)
        ts = gen_recording(FAULT_CLASSES[4], cfg, 0)
        return decompose_additive(ts, estimate_period(ts, cfg.shaft_hz))

    @pytest.mark.parametrize("block_samples",
                             [features_module.BLOCK_SAMPLES, 1 << 17, 64 * 256, 1])
    def test_blocked_tokens_equal_unblocked(self, fullrate, monkeypatch, block_samples):
        # A desk recording's 255 windows take two blocks at the default,
        # one at 1 << 17 samples, four at 64 * 256, and at 1 sample every
        # window is its own block; all must equal one block holding the
        # whole recording.
        desk = SynthConfig(seed=3, recordings_per_class=1)
        cases = [(fullrate, WindowSpec(length=2048, stride=1024))] + [
            (decompose_additive(ts, estimate_period(ts, desk.shaft_hz)), WindowSpec())
            for ts in gen_synthetic(desk)
        ]
        monkeypatch.setattr(features_module, "BLOCK_SAMPLES", block_samples)
        blocked = [featurize(d, spec).tokens for d, spec in cases]
        assert len(blocked[0]) > 7 * block_samples // 2048
        monkeypatch.setattr(features_module, "BLOCK_SAMPLES", 10 ** 9)
        for (d, spec), tokens in zip(cases, blocked):
            np.testing.assert_array_equal(tokens, featurize(d, spec).tokens)

    @pytest.mark.parametrize("period", [2, 3, 139, 3310])
    @pytest.mark.parametrize("block_windows", [1, 5])
    def test_residual_blocks_starting_mid_period_keep_every_bit(self, monkeypatch, period,
                                                                 block_windows):
        # Each block derives its residual over its own span, from the phase
        # its first window starts at; an odd stride starts blocks mid-period.
        ts = gen_recording(FAULT_CLASSES[4], SynthConfig(seed=3), 0)
        d = decompose_additive(ts, period)
        spec = WindowSpec(length=256, stride=101)
        starts = range(0, spec.count(len(ts)) * spec.stride, block_windows * spec.stride)
        assert sum(start % period != 0 for start in starts) >= len(starts) // 2
        monkeypatch.setattr(features_module, "BLOCK_SAMPLES", block_windows * spec.length)
        blocked = featurize(d, spec).tokens
        monkeypatch.setattr(features_module, "BLOCK_SAMPLES", 10 ** 9)
        whole = featurize(d, spec).tokens
        np.testing.assert_array_equal(blocked.view(np.uint64), whole.view(np.uint64))

    def test_memory_is_bounded(self, fullrate):
        # The (windows, length) matrices of the whole recording would take
        # 7.3 MB each; block by block the peak stays a few MB.
        spec = WindowSpec(length=2048, stride=1024)
        tracemalloc.start()
        try:
            featurize(fullrate, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_peak_memory_does_not_grow_with_the_recording(self):
        # 48 kHz recordings of 1 s (45 windows) and 4 s (184 windows): past
        # the extra tokens, a longer recording needs no more memory.
        spec = WindowSpec(length=2048, stride=1024)
        peaks = {}
        for duration in (1.0, 4.0):
            cfg = SynthConfig(sample_rate_hz=48000.0, duration_s=duration, seed=3)
            ts = gen_recording(FAULT_CLASSES[4], cfg, 0)
            d = decompose_additive(ts, estimate_period(ts, cfg.shaft_hz))
            featurize(d, spec)  # caches the HEMA weights
            tracemalloc.start()
            try:
                featurize(d, spec)
                peaks[duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra_tokens = (spec.count(4 * 48000) - spec.count(48000)) * len(FEATURE_NAMES) * 8
        assert peaks[4.0] - peaks[1.0] < extra_tokens + 64 * 1024, peaks

    def test_window_longer_than_series_errors(self, decomp):
        with pytest.raises(ValueError):
            featurize(decomp, WindowSpec(length=4096, stride=128))


def tiled_season_features(seasonal, spec):
    """The seasonal columns computed over every window of the n-long seasonal part."""
    se = sliding_window_view(seasonal, spec.length)[::spec.stride]
    row_dot = features_module._row_dot
    out = np.empty((se.shape[0], 2))
    out[:, 0] = np.sqrt(row_dot(se, se) / spec.length)
    centred = se - se.mean(axis=1, keepdims=True)
    energy = row_dot(centred, centred)
    lag1 = row_dot(centred[:, :-1], centred[:, 1:])
    flat = energy < 1e-24
    energy[flat] = 1.0
    out[:, 1] = np.where(flat, 0.0, lag1 / energy)
    return out


def assert_season_columns_match(decomp, spec):
    seasonal = np.tile(decomp.pattern, -(-decomp.residual.size // decomp.period))
    seasonal = seasonal[:decomp.residual.size]
    got = featurize(decomp, spec).tokens[:, 7:]
    want = tiled_season_features(seasonal, spec)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSeasonalFeaturesPerOffset:
    """Seasonal features computed once per phase offset keep every bit."""

    @pytest.fixture(scope="class")
    def desk(self):
        """One desk recording (4096 Hz, 8 s, 32768 samples)."""
        return gen_recording(FAULT_CLASSES[4], SynthConfig(seed=3), 0)

    @pytest.mark.parametrize("period, length, stride", [
        (64, 256, 128),     # P < stride, P | stride: one offset
        (100, 256, 300),    # P < stride, P does not divide it
        (128, 256, 128),    # P = stride: one offset
        (139, 256, 128),    # P does not divide the stride: every offset of P
        (16384, 2048, 1024),
        (3, 8, 1),
    ])
    def test_matches_windows_of_the_tiled_seasonal_part(self, desk, period, length, stride):
        assert_season_columns_match(decompose_additive(desk, period),
                                    WindowSpec(length=length, stride=stride))

    def test_every_offset_distinct(self):
        # count * stride < P: no two windows share an offset.
        x = np.random.default_rng(8).normal(size=1000)
        decomp = decompose_additive(TimeSeries(x, 100.0), 500)
        spec = WindowSpec(length=600, stride=90)
        count = spec.count(x.size)
        assert count * spec.stride < decomp.period
        assert_season_columns_match(decomp, spec)

    @given(st.integers(2, 200), st.integers(8, 1500), st.integers(8, 2000),
           st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_random_geometry(self, period, extra, length, stride, seed):
        n = 2 * period + extra
        length = min(length, n)
        x = np.random.default_rng(seed).normal(size=n)
        assert_season_columns_match(decompose_additive(TimeSeries(x, 100.0), period),
                                    WindowSpec(length=length, stride=stride))


class TestStandardizer:
    def test_fit_transform_normalizes(self):
        rng = np.random.default_rng(5)
        tokens = rng.normal(3.0, 2.5, size=(500, 9))
        s = Standardizer.fit(tokens)
        z = s.transform(tokens)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-6)
        assert not s.constant_mask.any()

    def test_constant_feature_flagged_not_scaled(self):
        tokens = np.random.default_rng(0).normal(size=(100, 3))
        tokens[:, 1] = 7.0
        s = Standardizer.fit(tokens)
        assert list(s.constant_mask) == [False, True, False]
        z = s.transform(tokens)
        np.testing.assert_allclose(z[:, 1], 0.0, atol=1e-12)  # centred, std 1 used

    def test_reuses_training_statistics(self):
        train = np.random.default_rng(1).normal(0, 1, size=(50, 4))
        test = np.random.default_rng(2).normal(10, 5, size=(50, 4))
        s = Standardizer.fit(train)
        z = s.transform(test)
        # test data keeps its shift relative to the training statistics
        assert z.mean() > 5.0

    def test_dict_round_trip(self):
        s = Standardizer.fit(np.random.default_rng(3).normal(size=(40, 9)))
        s2 = Standardizer.from_dict(s.to_dict())
        np.testing.assert_array_equal(s.mean, s2.mean)
        np.testing.assert_array_equal(s.std, s2.std)
        np.testing.assert_array_equal(s.constant_mask, s2.constant_mask)
