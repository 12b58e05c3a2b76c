"""Additive decomposition: exactness, seasonal capture, period estimation."""

import math
import tracemalloc
import warnings

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
def running_average_calls(monkeypatch):
    """Periods of the running-sum trends taken while the test runs."""
    calls = []
    real = decompose_module._running_average

    def counting(x, period):
        calls.append(period)
        return real(x, period)

    monkeypatch.setattr(decompose_module, "_running_average", counting)
    return calls


def fsum_trend(x, period, t):
    """The centered moving average at ``t``, from ``math.fsum`` of its window.

    The window is scaled by a power of two first (exact), so the sum cannot
    overflow; the result is the exact weighted mean, rounded twice.
    """
    half = period // 2
    e = math.frexp(np.abs(x).max())[1]
    w = np.ldexp(x[t - half:t + half + 1], -e)
    if period % 2 == 0:
        w[0] *= 0.5
        w[-1] *= 0.5
    return math.ldexp(math.fsum(w) / period, e)


def adversarial(kind, n, period):
    """Inputs that stress a running sum: offsets, growth and the float64 limit."""
    rng = np.random.default_rng([n, period])
    t = np.arange(n, dtype=float)
    return {
        "noise": lambda: rng.normal(size=n),
        "dc": lambda: 1e6 + np.sin(2 * np.pi * t / period),
        "ramp": lambda: t,
        "ramp_1e290": lambda: t * 1e290,
        "huge_noise": lambda: rng.normal(size=n) * 1e300,
        "impulses": lambda: rng.normal(size=n) + 1e9 * (rng.random(n) < 1e-3),
        "limit": lambda: 1.7e308 * rng.choice([-1.0, 1.0], size=n),
        "limit_dc": lambda: np.full(n, 1.7e308),
    }[kind]()


class TestTrendFilterPaths:
    """Short kernels convolve directly; longer ones take running window sums."""

    @pytest.mark.parametrize("period", [2, 3, 4, 7, 10, 11])
    def test_short_periods_match_direct_formulas_bitwise(self, period, running_average_calls):
        x = vibration_like(32768, period, seed=period)
        d = decompose_additive(make_series(x, fs=4096.0), period)
        trend, seasonal, residual = direct_decompose(x, period)
        np.testing.assert_array_equal(d.trend, trend)
        np.testing.assert_array_equal(d.seasonal, seasonal)
        np.testing.assert_array_equal(d.residual, residual)
        assert running_average_calls == []

    @pytest.mark.parametrize("n, period", [
        (32768, 12), (32768, 69), (32768, 138), (32768, 139),
        (96_000, 695), (96_000, 1625), (96_000, 3310), (96_000, 3311), (480_000, 8125),
    ])
    def test_long_periods_match_direct_convolution(self, n, period, running_average_calls):
        x = vibration_like(n, period, seed=period)
        d = decompose_additive(make_series(x, fs=48000.0), period)
        trend, seasonal, residual = direct_decompose(x, period)
        scale = np.abs(x).max()
        assert np.abs(d.trend - trend).max() <= 1e-12 * scale
        assert np.abs(d.seasonal - seasonal).max() <= 1e-12 * scale
        assert np.abs(d.residual - residual).max() <= 1e-12 * scale
        assert np.abs(d.reconstruct() - x).max() <= 1e-12
        assert d.valid_range == (period // 2, n - period // 2)
        assert running_average_calls == [period]

    @pytest.mark.parametrize("kind", ["noise", "dc", "ramp", "ramp_1e290", "huge_noise",
                                      "impulses", "limit", "limit_dc"])
    @pytest.mark.parametrize("n, period", [
        (96_000, 12), (96_000, 13), (96_000, 1625), (480_000, 1625), (480_000, 8125),
    ])
    def test_running_sums_match_fsum(self, kind, n, period, running_average_calls):
        x = adversarial(kind, n, period)
        trend, half = decompose_module._centered_trend(x, period)
        assert running_average_calls == [period]
        assert np.isfinite(trend).all()
        scale = np.abs(x).max()
        rng = np.random.default_rng(period)
        for t in [half, n - half - 1, *rng.integers(half, n - half, 150)]:
            assert abs(trend[t] - fsum_trend(x, period, t)) <= 1e-12 * scale, t
        assert (trend[:half] == trend[half]).all()
        assert (trend[n - half:] == trend[n - half - 1]).all()

    def test_crossover(self, running_average_calls):
        # Kernels have an odd number of taps, so the longest direct kernel
        # (odd period) and the next one (even period, one tap more than the
        # period) are two taps apart.
        assert _DIRECT_MAX_TAPS % 2 == 1
        x = vibration_like(96_000, _DIRECT_MAX_TAPS, seed=0)
        at = decompose_additive(make_series(x), _DIRECT_MAX_TAPS)
        np.testing.assert_array_equal(at.trend, direct_decompose(x, _DIRECT_MAX_TAPS)[0])
        assert running_average_calls == []

        past = decompose_additive(make_series(x), _DIRECT_MAX_TAPS + 1)
        trend = direct_decompose(x, _DIRECT_MAX_TAPS + 1)[0]
        assert np.abs(past.trend - trend).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(past.reconstruct() - x).max() <= 1e-12
        assert running_average_calls == [_DIRECT_MAX_TAPS + 1]


def tiled_decompose(x, period):
    """The n-long formulas on the module's own trend: a weighted ``bincount``
    over tiled phases, the seasonal part as the tiled phase means, and the
    residual as ``detrended - seasonal``."""
    n = x.size
    trend, half = decompose_module._centered_trend(x, period)
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

    @pytest.mark.parametrize("period", [2, 139, 1625])
    def test_peak_memory_is_the_outputs_and_one_padded_buffer(self, recordings, period):
        # 48 kHz x 2 s: each recording-sized array is 768 kB.  Both trend
        # filter paths are covered (direct for P = 2, running sums past).
        # No residual is built: the decomposition refers to the samples.
        ts = recordings[48000.0]
        decompose_additive(ts, period)  # first-call set-up
        tracemalloc.start()
        try:
            d = decompose_additive(ts, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(ts)
        outputs = d.trend.nbytes + d.pattern.nbytes
        padded = -(-(n - period // 2) // period) * period * 8
        assert peak <= outputs + padded + 64 * 1024, (peak, outputs, padded)

    def test_held_decompositions_keep_only_trend_and_pattern(self):
        # As fullrate_ingest holds them: ten 48 kHz x 2 s recordings, each
        # decomposed at its estimated period and kept with its samples.  The
        # trend is a view of the trend filter's output, a few periods longer.
        cfg = SynthConfig(sample_rate_hz=48000.0, duration_s=2.0, recordings_per_class=1, seed=3)
        recordings = list(gen_synthetic(cfg))
        periods = [estimate_period(ts) for ts in recordings]
        assert len(recordings) == 10
        decompose_additive(recordings[0], periods[0])  # first-call set-up
        tracemalloc.start()
        try:
            held = [decompose_additive(ts, p) for ts, p in zip(recordings, periods)]
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for d, ts in zip(held, recordings):
            assert d.samples is ts.samples
        parts = sum(d.trend.base.nbytes + d.pattern.nbytes for d in held)
        assert current <= parts + 64 * 1024, (current, parts)
        assert parts <= 10 * (len(recordings[0]) + 3 * max(periods)) * 8


class TestResidualFromSamples:
    """The residual is derived from the samples, whole or by span, with its bits."""

    @pytest.mark.parametrize("fs", [4096.0, 48000.0])
    @pytest.mark.parametrize("period", [2, 3, 139, 3310])
    def test_residual_and_every_span_match_the_remainder_bitwise(self, recordings, fs, period):
        ts = recordings[fs]
        d = decompose_additive(ts, period)
        want = (ts.samples - d.trend) - d.seasonal
        assert_same_bits(d.residual, want)
        n = len(ts)
        spans = [(0, n), (0, 0), (n, n), (1, n), (period - 1, 3 * period + 1),
                 (period // 2, n - period // 2), (period + 1, period + 2), (5, 2 * period + 5),
                 (n - period - 1, n)]
        rng = np.random.default_rng(period)
        spans += [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(20)]
        for lo, hi in spans:
            assert_same_bits(d.residual_between(lo, hi), want[lo:hi])

    def test_samples_are_the_callers_array(self, recordings):
        ts = recordings[4096.0]
        d = decompose_additive(ts, 139)
        assert d.samples is ts.samples
        assert np.shares_memory(d.samples, ts.samples)

    def test_residual_is_a_fresh_read_only_property(self, recordings):
        d = decompose_additive(recordings[4096.0], 139)
        first = d.residual
        first[:] = 0.0
        assert not np.array_equal(d.residual, first)
        assert not np.shares_memory(d.residual_between(0, 10), d.samples)
        with pytest.raises(AttributeError):
            d.residual = first

    @pytest.mark.parametrize("lo, hi", [(-1, 5), (5, 4), (0, 10 ** 6)])
    def test_span_outside_the_series_is_rejected(self, recordings, lo, hi):
        d = decompose_additive(recordings[4096.0], 139)
        with pytest.raises(ValueError, match="span"):
            d.residual_between(lo, hi)

    def test_reconstruct_sums_the_three_parts(self, recordings):
        # Never the samples themselves: reconstruction checks must test the parts.
        ts = recordings[48000.0]
        d = decompose_additive(ts, 139)
        rebuilt = d.reconstruct()
        assert not np.shares_memory(rebuilt, ts.samples)
        assert_same_bits(rebuilt, d.trend + d.seasonal + d.residual)
        assert np.abs(rebuilt - ts.samples).max() <= 1e-12


class TestDecompositionChecks:
    """A ``Decomposition`` rejects inconsistent parts, naming the field."""

    N, PERIOD = 40, 4

    def parts(self, **changes):
        n, period = self.N, self.PERIOD
        fields = dict(trend=np.zeros(n), pattern=np.zeros(period), samples=np.zeros(n),
                      period=period, valid_range=(2, n - 2))
        fields.update(changes)
        return fields

    def test_consistent_parts_are_accepted(self):
        d = Decomposition(**self.parts())
        assert d.seasonal.shape == d.residual.shape == (self.N,)

    @pytest.mark.parametrize("field", ["trend", "samples"])
    @pytest.mark.parametrize("value", [np.zeros((2, 20)), np.float64(0.0), [0.0] * 40])
    def test_trend_and_samples_are_1d_arrays(self, field, value):
        with pytest.raises(ValueError, match=field):
            Decomposition(**self.parts(**{field: value}))

    def test_trend_and_samples_have_one_length(self):
        with pytest.raises(ValueError, match="samples"):
            Decomposition(**self.parts(samples=np.zeros(self.N + 1)))

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

    @pytest.mark.parametrize("field", ["trend", "pattern", "samples"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_parts_are_finite(self, field, bad):
        value = self.parts()[field].copy()
        value[1] = bad
        with pytest.raises(ValueError, match=f"{field} contains NaN or Inf"):
            Decomposition(**self.parts(**{field: value}))

    @pytest.mark.parametrize("where", [1, 39])
    def test_overflowing_residual_is_rejected_without_warnings(self, where):
        # Finite samples and trend whose difference overflows.
        samples, trend = np.zeros(self.N), np.zeros(self.N)
        samples[where], trend[where] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="residual contains NaN or Inf"):
                Decomposition(**self.parts(samples=samples, trend=trend))

    def test_residual_near_the_limit_is_accepted(self):
        # The bound overflows but every residual is finite, so the span
        # check runs and passes.
        samples, trend = np.zeros(self.N), np.zeros(self.N)
        samples[1], trend[2] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = Decomposition(**self.parts(samples=samples, trend=trend))
        assert np.isfinite(d.residual).all()

    @pytest.mark.parametrize("period", [2, 68])
    def test_overflowing_decomposition_is_rejected_without_warnings(self, period):
        # Phase sums of samples near the float64 limit overflow.
        x = 1.7e308 * np.resize([1.0, -1.0, 1.0, 0.25], 40 * period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="contains NaN or Inf"):
                decompose_additive(make_series(x), period)

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

    @pytest.mark.parametrize("k", [-600, -300, 300, 500, 1000])
    def test_period_does_not_depend_on_magnitude(self, recordings, k):
        # x * 2**k is exact, and so is every sum of the search scaled by it.
        desk = gen_synthetic(SynthConfig(sample_rate_hz=4096.0, duration_s=2.0,
                                         recordings_per_class=1, seed=3))
        for ts in [*desk, *recordings.values()]:
            scaled = TimeSeries(np.ldexp(ts.samples, k), ts.sample_rate_hz)
            assert estimate_period(scaled) == estimate_period(ts), ts.label

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
