"""Additive decomposition: exactness, seasonal capture, period estimation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdafault import decompose as decompose_module
from tdafault.data import FAULT_CLASSES, SynthConfig, gen_recording, gen_synthetic
from tdafault.decompose import (
    _DIRECT_MAX_TAPS,
    Decomposition,
    TimeSeries,
    decompose_additive,
    estimate_period,
)


def make_series(samples, fs=100.0):
    return TimeSeries(samples=np.asarray(samples, dtype=float), sample_rate_hz=fs)


def direct_period(samples):
    """The direct O(n^2) search: ``np.correlate`` argmax over lags [2, n//4]."""
    centred = samples - samples.mean()
    n = centred.size
    full = np.correlate(centred, centred, mode="full")[n - 1:]
    return 2 + int(np.argmax(full[2:n // 4 + 1]))


@st.composite
def period_search_inputs(draw):
    """Series of every shape the period search must agree on."""
    n = draw(st.one_of(st.just(16), st.integers(16, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # "ties" is drawn twice as often: exact ties are what the FFT alone gets wrong.
    kind = draw(st.sampled_from(["random", "periodic", "ties", "ties", "near_constant", "zero"]))
    t = np.arange(n)
    if kind == "random":
        return rng.normal(size=n) * 10.0 ** draw(st.integers(-6, 6))
    if kind == "periodic":
        period = draw(st.integers(2, n // 4))
        noise = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
        phase = rng.uniform(0, 2 * np.pi)
        return np.sin(2 * np.pi * t / period + phase) + noise * rng.normal(size=n)
    if kind == "ties":
        # Small integers with an exactly zero mean: every lag's sum is an
        # exact integer, so equal lags tie exactly and the smallest must win.
        half = rng.integers(-2, 3, size=n // 2) * (rng.random(n // 2) < draw(st.floats(0.02, 0.3)))
        return np.r_[half, -half, np.zeros(n % 2)].astype(np.float64)
    if kind == "near_constant":
        level = draw(st.floats(-1e3, 1e3, allow_nan=False))
        jitter = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6]))
        return level + jitter * abs(level) * rng.normal(size=n)
    return np.zeros(n)


def brute_decompose(x, period):
    """Loop-level reference: centered MA trend, per-phase means, remainder."""
    n = x.size
    if period % 2 == 0:
        half = period // 2
        kernel = np.r_[0.5, np.ones(period - 1), 0.5] / period
    else:
        half = (period - 1) // 2
        kernel = np.ones(period) / period
    trend = np.empty(n)
    for t in range(n):
        if half <= t < n - half:
            trend[t] = np.dot(x[t - half: t + half + 1], kernel)
    trend[:half] = trend[half]
    trend[n - half:] = trend[n - half - 1]
    valid = slice(half, n - half)

    detrended = x - trend
    phase_means = np.zeros(period)
    for p in range(period):
        vals = [detrended[t] for t in range(valid.start, valid.stop) if t % period == p]
        phase_means[p] = np.mean(vals)
    phase_means -= phase_means.mean()
    seasonal = phase_means[np.arange(n) % period]
    return trend, seasonal, x - trend - seasonal, (half, n - half)


class TestDecomposeAdditive:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for period in (4, 7, 12):
            x = (
                0.03 * np.arange(300)
                + np.sin(2 * np.pi * np.arange(300) / period)
                + rng.normal(0, 0.3, 300)
            )
            d = decompose_additive(make_series(x), period)
            trend, seasonal, residual, valid = brute_decompose(x, period)
            np.testing.assert_allclose(d.trend, trend, atol=1e-12)
            np.testing.assert_allclose(d.seasonal, seasonal, atol=1e-12)
            np.testing.assert_allclose(d.residual, residual, atol=1e-12)
            assert d.valid_range == valid

    @given(st.integers(2, 15), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_additivity_is_exact(self, period, seed):
        x = np.random.default_rng(seed).normal(0, 2.0, 40 * 8)
        d = decompose_additive(make_series(x), period)
        np.testing.assert_allclose(d.reconstruct(), x, atol=1e-12)

    def test_seasonal_zero_mean(self):
        x = np.random.default_rng(3).normal(5.0, 1.0, 200)
        d = decompose_additive(make_series(x), 10)
        assert abs(d.seasonal[:10].mean()) < 1e-12

    def test_pure_sine_lands_in_seasonal(self):
        # Sine with an integer period: the trend is exactly 0 (every full
        # window averages a whole cycle) and the residual vanishes.
        period = 25
        n = 1000
        x = 1.7 * np.sin(2 * np.pi * np.arange(n) / period + 0.4)
        d = decompose_additive(make_series(x), period)
        lo, hi = d.valid_range
        assert np.abs(d.residual[lo:hi]).max() < 1e-8
        assert np.abs(d.trend[lo:hi]).max() < 1e-10

    def test_linear_trend_recovered(self):
        n = 400
        x = 0.5 + 0.02 * np.arange(n)
        d = decompose_additive(make_series(x), 8)
        lo, hi = d.valid_range
        np.testing.assert_allclose(d.trend[lo:hi], x[lo:hi], atol=1e-10)
        np.testing.assert_allclose(d.seasonal, 0.0, atol=1e-10)

    def test_idempotent_on_period_clean_signals(self):
        # Decomposing trend+seasonal of a period-clean signal reproduces both.
        period = 20
        n = 40 * period
        for x in (
            np.full(n, 3.25),
            np.sin(2 * np.pi * np.arange(n) / period),
            2.0 + 0.8 * np.sin(2 * np.pi * np.arange(n) / period + 1.1),
        ):
            first = decompose_additive(make_series(x), period)
            again = decompose_additive(
                make_series(first.trend + first.seasonal), period
            )
            lo, hi = first.valid_range
            scale = max(1.0, np.abs(x).max())
            assert np.abs(again.trend[lo:hi] - first.trend[lo:hi]).max() < 1e-9 * scale
            assert np.abs(again.seasonal - first.seasonal).max() < 1e-9 * scale

    def test_even_period_kernel_is_centered(self):
        # Even periods average period+1 points with half weights at the ends;
        # a pureric alternation at the Nyquist of the period cancels exactly.
        x = np.tile([1.0, -1.0], 100)
        d = decompose_additive(make_series(x), 2)
        lo, hi = d.valid_range
        np.testing.assert_allclose(d.trend[lo:hi], 0.0, atol=1e-12)

    def test_edge_replication(self):
        x = np.random.default_rng(9).normal(size=100)
        d = decompose_additive(make_series(x), 11)
        lo, hi = d.valid_range
        assert np.all(d.trend[:lo] == d.trend[lo])
        assert np.all(d.trend[hi:] == d.trend[hi - 1])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            decompose_additive(make_series(np.ones(10)), 1)
        with pytest.raises(ValueError):
            decompose_additive(make_series(np.ones(10)), 6)  # n < 2 * period


def direct_decompose(x, period):
    """The O(n*P) formulas: direct convolution, ``np.add.at``, ``arange % period``."""
    n = x.size
    if period % 2 == 0:
        kernel = np.full(period + 1, 1.0 / period)
        kernel[0] = kernel[-1] = 0.5 / period
        half = period // 2
    else:
        kernel = np.full(period, 1.0 / period)
        half = (period - 1) // 2
    core = np.convolve(x, kernel, mode="valid")
    trend = np.empty_like(x)
    trend[half:n - half] = core
    trend[:half] = core[0]
    trend[n - half:] = core[-1]
    detrended = x - trend
    phases = np.arange(half, n - half) % period
    phase_means = np.zeros(period)
    np.add.at(phase_means, phases, detrended[half:n - half])
    phase_means /= np.bincount(phases, minlength=period)
    phase_means -= phase_means.mean()
    seasonal = phase_means[np.arange(n) % period]
    return trend, seasonal, x - trend - seasonal


def vibration_like(n, period, seed):
    """A DC offset, a drifting baseline, a cycle of ``period`` samples, noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (3.0 + 0.01 * np.cumsum(rng.normal(size=n))
            + np.sin(2 * np.pi * t / period) + 0.5 * rng.normal(size=n))


@pytest.fixture
def overlap_add_calls(monkeypatch):
    """Kernel lengths of the overlap-add convolutions made while the test runs."""
    calls = []
    real = decompose_module._overlap_add

    def counting(x, kernel):
        calls.append(kernel.size)
        return real(x, kernel)

    monkeypatch.setattr(decompose_module, "_overlap_add", counting)
    return calls


class TestTrendFilterPaths:
    """Short kernels convolve directly; longer ones use overlap-add."""

    @pytest.mark.parametrize("period", [2, 3, 4, 7, 12, 69, 138, 139])
    def test_short_periods_match_direct_formulas_bitwise(self, period, overlap_add_calls):
        x = vibration_like(32768, period, seed=period)
        d = decompose_additive(make_series(x, fs=4096.0), period)
        trend, seasonal, residual = direct_decompose(x, period)
        np.testing.assert_array_equal(d.trend, trend)
        np.testing.assert_array_equal(d.seasonal, seasonal)
        np.testing.assert_array_equal(d.residual, residual)
        assert overlap_add_calls == []

    @pytest.mark.parametrize("n, period", [
        (96_000, 695), (96_000, 1625), (96_000, 3310), (96_000, 3311), (480_000, 8125),
    ])
    def test_long_periods_match_direct_convolution(self, n, period, overlap_add_calls):
        x = vibration_like(n, period, seed=period)
        d = decompose_additive(make_series(x, fs=48000.0), period)
        trend, seasonal, residual = direct_decompose(x, period)
        scale = np.abs(x).max()
        assert np.abs(d.trend - trend).max() <= 1e-12 * scale
        assert np.abs(d.seasonal - seasonal).max() <= 1e-12 * scale
        assert np.abs(d.residual - residual).max() <= 1e-12 * scale
        assert np.abs(d.reconstruct() - x).max() <= 1e-12
        assert d.valid_range == (period // 2, n - period // 2)
        assert overlap_add_calls == [period + 1 - period % 2]

    def test_crossover(self, overlap_add_calls):
        # Kernels have an odd number of taps, so the longest direct kernel
        # (odd period) and the next one (even period, one tap more than the
        # period) are two taps apart.
        assert _DIRECT_MAX_TAPS % 2 == 1
        x = vibration_like(96_000, _DIRECT_MAX_TAPS, seed=0)
        at = decompose_additive(make_series(x), _DIRECT_MAX_TAPS)
        np.testing.assert_array_equal(at.trend, direct_decompose(x, _DIRECT_MAX_TAPS)[0])
        assert overlap_add_calls == []

        past = decompose_additive(make_series(x), _DIRECT_MAX_TAPS + 1)
        trend = direct_decompose(x, _DIRECT_MAX_TAPS + 1)[0]
        assert np.abs(past.trend - trend).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(past.reconstruct() - x).max() <= 1e-12
        assert overlap_add_calls == [_DIRECT_MAX_TAPS + 2]


def tiled_decompose(x, period):
    """The n-long formulas: a copied valid trend, a weighted ``bincount`` over
    tiled phases, the seasonal part as the tiled phase means, and the
    residual as ``detrended - seasonal``."""
    n = x.size
    if period % 2 == 0:
        kernel = np.full(period + 1, 1.0 / period)
        kernel[0] = kernel[-1] = 0.5 / period
        half = period // 2
    else:
        kernel = np.full(period, 1.0 / period)
        half = (period - 1) // 2
    if kernel.size <= _DIRECT_MAX_TAPS:
        core = np.convolve(x, kernel, mode="valid")
    else:
        core = decompose_module._overlap_add(x, kernel)[kernel.size - 1:n]
    trend = np.empty_like(x)
    trend[half:n - half] = core
    trend[:half] = core[0]
    trend[n - half:] = core[-1]
    start, stop = half, n - half
    detrended = x - trend
    phases = np.tile(np.arange(period), -(-stop // period))[start:stop]
    phase_means = np.bincount(phases, weights=detrended[start:stop], minlength=period)
    phase_means /= np.bincount(phases, minlength=period)
    phase_means -= phase_means.mean()
    seasonal = np.tile(phase_means, -(-n // period))[:n]
    return trend, seasonal, detrended - seasonal


def assert_same_bits(a, b):
    """Equal shapes and equal bit patterns (``-0.0`` differs from ``0.0``)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_matches_tiled_formulas(x, period):
    d = decompose_additive(make_series(x), period)
    trend, seasonal, residual = tiled_decompose(x, period)
    assert d.pattern.shape == (period,)
    assert_same_bits(d.pattern, seasonal[:period])
    for got, want in ((d.trend, trend), (d.seasonal, seasonal), (d.residual, residual)):
        assert_same_bits(got, want)


@pytest.fixture(scope="module")
def recordings():
    """A desk (4096 Hz, 8 s) and a 48 kHz (2 s) recording of one faulty class."""
    return {
        fs: gen_recording(FAULT_CLASSES[4], SynthConfig(sample_rate_hz=fs, duration_s=dur, seed=3), 0)
        for fs, dur in ((4096.0, 8.0), (48000.0, 2.0))
    }


class TestOnePeriodPattern:
    """The seasonal part is kept as one period, with the n-long formulas' bits."""

    @pytest.mark.parametrize("fs", [4096.0, 48000.0])
    @pytest.mark.parametrize("period", [2, 3, 139, 1625, 3310, "half"])
    def test_matches_tiled_formulas_bitwise(self, recordings, fs, period):
        x = recordings[fs].samples
        assert_matches_tiled_formulas(x, x.size // 2 if period == "half" else period)

    @given(st.integers(2, 300), st.integers(0, 700), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1.0, 1e6]))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_random_lengths_and_periods_match_bitwise(self, period, extra, seed, offset):
        x = offset + np.random.default_rng(seed).normal(size=2 * period + extra)
        assert_matches_tiled_formulas(x, period)

    def test_signed_zeros_match_bitwise(self):
        # Phases whose every value is a zero must keep the sign the
        # bincount formulas give them.
        for period in (2, 3, 5):
            x = -np.zeros(20 * period)
            x[::3] = 1.0
            assert_matches_tiled_formulas(x, period)

    def test_seasonal_is_a_fresh_repeat_of_the_pattern(self):
        x = np.random.default_rng(4).normal(size=103)
        d = decompose_additive(make_series(x), 10)
        first = d.seasonal
        assert first.shape == (103,)
        assert_same_bits(first, np.tile(d.pattern, 11)[:103])
        first[:] = 0.0
        assert d.seasonal is not first
        assert_same_bits(d.seasonal, np.tile(d.pattern, 11)[:103])
        with pytest.raises(AttributeError):
            d.seasonal = first

    @pytest.mark.parametrize("period", [139, 1625])
    def test_peak_memory_is_the_outputs_and_one_padded_buffer(self, recordings, period):
        # 48 kHz x 2 s: each recording-sized array is 768 kB.  Both trend
        # filter paths are covered (direct up to 255 taps, overlap-add past).
        ts = recordings[48000.0]
        decompose_additive(ts, period)  # first-call set-up
        tracemalloc.start()
        try:
            d = decompose_additive(ts, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(ts)
        outputs = d.trend.nbytes + d.residual.nbytes + d.pattern.nbytes
        padded = -(-(n - period // 2) // period) * period * 8
        assert peak <= outputs + padded + 64 * 1024, (peak, outputs, padded)


class TestDecompositionChecks:
    """A ``Decomposition`` rejects inconsistent parts, naming the field."""

    N, PERIOD = 40, 4

    def parts(self, **changes):
        n, period = self.N, self.PERIOD
        fields = dict(trend=np.zeros(n), pattern=np.zeros(period), residual=np.zeros(n),
                      period=period, valid_range=(2, n - 2))
        fields.update(changes)
        return fields

    def test_consistent_parts_are_accepted(self):
        d = Decomposition(**self.parts())
        assert d.seasonal.shape == (self.N,)

    @pytest.mark.parametrize("field", ["trend", "residual"])
    @pytest.mark.parametrize("value", [np.zeros((2, 20)), np.float64(0.0), [0.0] * 40])
    def test_trend_and_residual_are_1d_arrays(self, field, value):
        with pytest.raises(ValueError, match=field):
            Decomposition(**self.parts(**{field: value}))

    def test_trend_and_residual_have_one_length(self):
        with pytest.raises(ValueError, match="residual"):
            Decomposition(**self.parts(residual=np.zeros(self.N + 1)))

    @pytest.mark.parametrize("period", [1, 0, -4, 4.0, True, "4"])
    def test_period_is_an_int_of_at_least_two(self, period):
        with pytest.raises(ValueError, match="period"):
            Decomposition(**self.parts(period=period))

    def test_series_holds_two_periods(self):
        with pytest.raises(ValueError, match="period"):
            Decomposition(**self.parts(period=21, pattern=np.zeros(21)))

    @pytest.mark.parametrize("pattern", [np.zeros(3), np.zeros(40), np.zeros((1, 4)), [0.0] * 4])
    def test_pattern_is_one_period(self, pattern):
        with pytest.raises(ValueError, match="pattern"):
            Decomposition(**self.parts(pattern=pattern))

    @pytest.mark.parametrize("valid_range", [(-1, 10), (10, 9), (0, 41)])
    def test_valid_range_lies_in_the_series(self, valid_range):
        with pytest.raises(ValueError, match="valid_range"):
            Decomposition(**self.parts(valid_range=valid_range))


class TestEstimatePeriod:
    def test_recovers_sine_period(self):
        # The tapered-autocorrelation argmax needs enough cycles in view to
        # dominate the trivial small-lag similarity: length >> period**3/79.
        for period in (12, 25, 32, 40):
            x = np.sin(2 * np.pi * np.arange(2000) / period)
            assert estimate_period(make_series(x)) == period

    def test_noisy_sine(self):
        rng = np.random.default_rng(17)
        x = np.sin(2 * np.pi * np.arange(1000) / 30) + rng.normal(0, 0.2, 1000)
        assert estimate_period(make_series(x)) == 30

    def test_hint_overrides_search(self):
        x = np.random.default_rng(0).normal(size=200)
        assert estimate_period(make_series(x, fs=1000.0), hint_hz=40.0) == 25

    def test_hint_rounding(self):
        x = np.zeros(100)
        assert estimate_period(make_series(x, fs=1000.0), hint_hz=301.0) == 3

    def test_hint_must_be_below_nyquist(self):
        x = np.zeros(100)
        with pytest.raises(ValueError):
            estimate_period(make_series(x, fs=100.0), hint_hz=50.0)
        with pytest.raises(ValueError):
            estimate_period(make_series(x, fs=100.0), hint_hz=-1.0)

    @pytest.mark.parametrize("hint", [float("nan"), float("inf"), 1e-320])
    def test_hint_must_give_a_finite_period(self, hint):
        with pytest.raises(ValueError, match="hint_hz must be finite and give a finite period"):
            estimate_period(make_series(np.zeros(100), fs=100.0), hint_hz=hint)

    def test_tie_breaks_to_smallest_lag(self):
        # A period-6 square alternation peaks equally at lags 6, 12, 18...
        x = np.tile(np.r_[np.ones(3), -np.ones(3)], 50)
        assert estimate_period(make_series(x)) == 6

    def test_short_series_errors(self):
        with pytest.raises(ValueError):
            estimate_period(make_series(np.ones(8)))

    @given(period_search_inputs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_matches_direct_search(self, x):
        assert estimate_period(make_series(x)) == direct_period(x)

    def test_exact_ties_go_to_the_smallest_lag(self):
        # Zero-mean unit impulses: lags 10, 20, 30, 50, 51 and 101 each sum
        # to exactly 1, and no lag sums to more.
        x = np.zeros(500)
        x[[0, 10, 30]] = 1.0
        x[[100, 150, 201]] = -1.0
        full = np.correlate(x, x, mode="full")[x.size - 1:]
        assert np.flatnonzero(full[2:126] == 1.0).tolist() == [8, 18, 28, 48, 49, 99]
        assert full[2:126].max() == 1.0
        assert estimate_period(make_series(x)) == 10 == direct_period(x)

    @pytest.mark.parametrize("fs, duration", [(48000.0, 0.25), (4096.0, 2.0)])
    def test_synthetic_recordings_match_direct_search(self, fs, duration):
        cfg = SynthConfig(sample_rate_hz=fs, duration_s=duration, recordings_per_class=1, seed=7)
        for ts in gen_synthetic(cfg):
            assert estimate_period(ts) == direct_period(ts.samples), ts.label

    @pytest.mark.parametrize("n", [16, 257, 4096])
    def test_dot_rescoring_reproduces_correlate_bitwise(self, n):
        x = np.random.default_rng(n).normal(size=n)
        centred = x - x.mean()
        full = np.correlate(centred, centred, mode="full")[n - 1:]
        lags = range(2, n // 4 + 1)
        exact = np.array([np.dot(centred[:n - k], centred[k:]) for k in lags])
        np.testing.assert_array_equal(exact, full[2:n // 4 + 1])


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(samples=np.array([1.0, np.nan]), sample_rate_hz=10.0)
        with pytest.raises(ValueError):
            TimeSeries(samples=np.array([]), sample_rate_hz=10.0)
        for rate in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sample_rate_hz"):
                TimeSeries(samples=np.ones(4), sample_rate_hz=rate)

    def test_len_and_label(self):
        ts = TimeSeries(samples=np.ones(7), sample_rate_hz=10.0, label="x")
        assert len(ts) == 7
        assert ts.label == "x"

    def test_reconstruct_roundtrip(self):
        x = np.random.default_rng(5).normal(size=64)
        d = decompose_additive(make_series(x), 4)
        assert isinstance(d, Decomposition)
        np.testing.assert_allclose(d.reconstruct(), x, atol=1e-12)
