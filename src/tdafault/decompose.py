"""Additive seasonal-trend decomposition of vibration records.

The classical recipe: a centered moving average of one period estimates the
trend, per-phase means of the detrended series give a zero-mean periodic
seasonal component, and everything left over is the residual.  Fault
signatures that are not phase-locked to the period survive in the residual,
which is what the downstream feature extraction consumes.  Past a few
samples per period the moving average is taken from running sums restarted
at every period, so it costs O(n) whatever the period.

The seasonal component is exactly periodic, so a :class:`Decomposition`
keeps one period of it, and the residual is what the samples, trend and
pattern leave, so it keeps a reference to the samples instead of a residual
array.  :func:`decompose_additive` subtracts the trend from the valid samples
straight into the buffer whose column sums (whole periods) are the phase
sums; the residual is derived on demand, whole or for any span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeries", "Decomposition", "decompose_additive", "estimate_period"]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal with its sample rate.

    ``label`` optionally carries a class identifier for supervised runs.
    """

    samples: np.ndarray
    sample_rate_hz: float
    label: str | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"samples must be a non-empty 1-D sequence, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain NaN or Inf")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample_rate_hz must lie in (0, inf), got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Decomposition:
    """Aligned trend/seasonal/residual components of one series.

    ``samples`` is the decomposed series itself (the caller's array, not a
    copy) and ``trend`` its trend, both of one length.  The seasonal component
    is exactly ``period``-periodic, so only one period of it is kept, as
    ``pattern``; ``seasonal`` builds the full-length component from it on each
    access.  The residual is the remainder ``(samples - trend) - seasonal``,
    built on each access by ``residual`` (whole) or :meth:`residual_between`
    (any span), so ``trend + seasonal + residual`` reconstructs the samples
    everywhere.  ``valid_range`` is the half-open index interval where the
    trend estimate has a full averaging window; outside it the trend is
    edge-replicated.
    """

    trend: np.ndarray
    pattern: np.ndarray
    samples: np.ndarray
    period: int
    valid_range: tuple[int, int]

    def __post_init__(self) -> None:
        trend, samples = self.trend, self.samples
        for name, part in (("trend", trend), ("samples", samples)):
            if not isinstance(part, np.ndarray) or part.ndim != 1:
                raise ValueError(f"{name} must be a 1-D numpy array, got "
                                 f"{type(part).__name__} of shape {np.shape(part)}")
        n = trend.size
        if samples.size != n:
            raise ValueError(f"samples has {samples.size} values, trend has {n}")
        period = self.period
        if not isinstance(period, (int, np.integer)) or isinstance(period, bool) or period < 2:
            raise ValueError(f"period must be an int >= 2, got {period!r}")
        if n < 2 * period:
            raise ValueError(f"period {period} needs at least {2 * period} samples, got {n}")
        if not isinstance(self.pattern, np.ndarray) or self.pattern.shape != (period,):
            raise ValueError(f"pattern must be a numpy array of shape ({period},), got "
                             f"{type(self.pattern).__name__} of shape {np.shape(self.pattern)}")
        # max and min propagate NaN, so a part's peak |value| is finite iff the
        # part is.  Rounding is monotone, so no residual exceeds the sum of the
        # peaks; only when that sum overflows are the residuals checked.
        bound = 0.0
        for name, part in (("samples", samples), ("trend", trend), ("pattern", self.pattern)):
            peak = max(float(part.max()), -float(part.min()))
            if not math.isfinite(peak):
                raise ValueError(f"{name} contains NaN or Inf")
            bound += peak
        if not math.isfinite(bound):
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, n, _BLOCK_SAMPLES):
                    span = self.residual_between(lo, min(lo + _BLOCK_SAMPLES, n))
                    if not np.isfinite(span).all():
                        raise ValueError("residual contains NaN or Inf")
        start, stop = self.valid_range
        if not 0 <= start <= stop <= n:
            raise ValueError(f"valid_range must satisfy 0 <= start <= stop <= {n}, "
                             f"got {self.valid_range}")

    @property
    def seasonal(self) -> np.ndarray:
        """The seasonal component, ``pattern`` repeated to the series length (a new array)."""
        n = self.trend.size
        return np.tile(self.pattern, -(-n // self.period))[:n]

    @property
    def residual(self) -> np.ndarray:
        """The residual ``(samples - trend) - seasonal`` over the whole series (a new array)."""
        return self.residual_between(0, self.trend.size)

    def residual_between(self, lo: int, hi: int) -> np.ndarray:
        """``residual[lo:hi]`` as a new array, built from that span alone.

        Each value is ``(samples[t] - trend[t]) - pattern[t % period]``, the
        same two subtractions in the same order whatever the span, so every
        span carries the bits of the whole residual.
        """
        if not 0 <= lo <= hi <= self.trend.size:
            raise ValueError(f"span must satisfy 0 <= lo <= hi <= {self.trend.size}, "
                             f"got ({lo}, {hi})")
        out = self.samples[lo:hi] - self.trend[lo:hi]
        # The pattern from phase lo on, repeated to at least 4096 samples, so
        # short periods are subtracted along long rows.
        phase = lo % self.period
        cycle = np.tile(np.concatenate((self.pattern[phase:], self.pattern[:phase])),
                        max(1, 4096 // self.period))
        whole = out.size - out.size % cycle.size
        body = out[:whole].reshape(-1, cycle.size)
        body -= cycle
        out[whole:] -= cycle[:out.size - whole]
        return out

    def reconstruct(self) -> np.ndarray:
        return self.trend + self.seasonal + self.residual


# Samples per block of the running sums' head sums, and per residual span the
# Decomposition constructor checks when its bound overflows (256 KiB of
# float64).  On a 2-vCPU Xeon, head sums in blocks of 2**13 to 2**17 samples
# time alike at 96k samples; one block of a whole 480k-sample recording is
# about a third slower.
_BLOCK_SAMPLES = 1 << 15


# Longest kernel the trend filter convolves directly.  Direct convolution
# costs O(n*P), the running sums O(n).  CPU ms per trend, direct/running sums
# (one core, median of 41 calls, 15 at 480k samples), by kernel taps:
#   taps          3          11         13         17         21         63        255
#   32768    0.11/0.68  0.21/0.49  0.75/0.53  0.63/0.54  0.44/0.37  0.64/0.32  1.19/0.31
#   96000    0.28/1.64  0.55/1.29  1.45/1.13  1.11/1.23  1.25/1.04  2.26/1.17  4.03/1.12
#   480000   1.90/8.74  2.70/6.57  8.01/7.37  5.80/7.31  7.70/7.33 10.71/6.68 19.71/6.52
# np.convolve leads up to 11 taps (3-6x at 3 taps, so P = 2 stays direct),
# falls behind at 13-15 and is level at 17-19; from 21 the running sums lead.
_DIRECT_MAX_TAPS = 11


def _fast_len(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= n``, a length the FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _running_average(x: np.ndarray, period: int) -> np.ndarray:
    """The full convolution of ``x`` with the trend kernel, from running sums.

    The window from phase q of period r is the rest of period r plus the
    first q samples of period r + 1, each a running sum of ``x / period``
    restarted every period: no sum spans more than one period, so the
    rounding stays that of a direct sum and every sum is finite.
    """
    n, offset = x.size, 2 * (period // 2)
    full = np.zeros(offset + (n // period + 1) * period)
    np.multiply(x, 1.0 / period, out=full[offset:offset + n])
    y = full[offset:].reshape(-1, period)
    # A block of rows at a time, in order: block [a, b) reads row b before
    # the next block overwrites it, and no head sums longer than a block are held.
    step = max(1, _BLOCK_SAMPLES // period)
    for a in range(0, y.shape[0] - 1, step):
        b = min(a + step, y.shape[0] - 1)
        head = np.cumsum(y[a + 1:b + 1, :-1], axis=1)  # head[r, q - 1]: period r + 1 up to q
        rest = y[a:b, ::-1]
        np.cumsum(rest, axis=1, out=rest)  # y[r, q]: period r from phase q on
        y[a:b, 1:] += head
    if period % 2 == 0:  # the 2xP average is the mean of the P-sums from s and s + 1
        full[period:n + 1] *= 0.5
        full[period:n] += full[period + 1:n + 1]
    return full


def _centered_trend(x: np.ndarray, period: int) -> tuple[np.ndarray, int]:
    """Centered moving average of one period; returns (trend, half-width).

    Even periods use the standard 2xP average (half weights on the two
    endpoints) so the window stays centered; both variants weight every
    phase of the cycle equally.  Kernels longer than ``_DIRECT_MAX_TAPS``
    take :func:`_running_average`, O(n) for any period and within about
    1e-13 of max|x| of the exact sum.  The trend is a view of the full
    convolution, whose ``half`` samples past each end are overwritten by
    edge replication, so the valid part is not copied.
    """
    half = period // 2
    if 2 * half + 1 <= _DIRECT_MAX_TAPS:
        kernel = np.full(2 * half + 1, 1.0 / period)
        if period % 2 == 0:
            kernel[0] = kernel[-1] = 0.5 / period
        full = np.convolve(x, kernel)
    else:
        full = _running_average(x, period)
    n = x.size
    trend = full[half:half + n]
    trend[:half] = trend[half]
    trend[n - half:] = trend[n - half - 1]
    return trend, half


# Samples near the float64 limit can overflow the detrended samples or the
# phase sums; Decomposition then rejects the non-finite part, with no numpy
# warning.
@np.errstate(over="ignore", invalid="ignore")
def decompose_additive(x: TimeSeries, period: int) -> Decomposition:
    """Split a series into trend + seasonal + residual at a known period.

    Parameters
    ----------
    x : TimeSeries
        Input signal, at least ``2 * period`` samples long.
    period : int
        Cycle length ``P`` in samples, ``P >= 2``.

    Returns
    -------
    Decomposition
        The trend, of the same length as the input, one period of the
        seasonal component, and a reference to ``x.samples``, from which the
        residual is derived.  The seasonal component is exactly P-periodic
        and sums to ~0 over one period; the residual closes the additive
        identity everywhere, including the edge-replicated trend region.
        Besides the trend and pattern the call holds one zero-padded copy of
        the valid detrended samples, whole periods long.
    """
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    samples = x.samples
    n = samples.size
    if n < 2 * period:
        raise ValueError(f"series of length {n} is shorter than 2*period = {2 * period}")

    trend, half = _centered_trend(samples, period)
    start, stop = half, n - half

    # Phase p sums the valid detrended samples t = p (mod P) in index order,
    # as a bincount over tiled phases would: the column sums of whole
    # periods, zero outside [start, stop).
    rows = -(-stop // period)
    padded = np.zeros(rows * period)
    np.subtract(samples[start:stop], trend[start:stop], out=padded[start:stop])
    pattern = padded.reshape(rows, period).sum(axis=0)
    del padded
    phase = np.arange(period)
    pattern /= (stop - 1 - phase) // period - (start - 1 - phase) // period
    pattern -= pattern.mean()
    return Decomposition(trend, pattern, samples, period, (start, stop))


def estimate_period(x: TimeSeries, hint_hz: float | None = None) -> int:
    """Estimate the dominant cycle length in samples.

    With ``hint_hz`` the period is simply ``round(sample_rate / hint)``.
    Without it, the lag maximising the (mean-removed) autocorrelation over
    lags ``[2, len(x)//4]`` wins, ties broken toward the smallest lag.  The
    winner is scored by exact dot products, so it is the lag the direct
    ``np.correlate`` search picks, found in O(n log n) time.  A series that
    is exactly zero after mean removal ties at every lag and gets 2.  The
    search runs on the samples scaled by a power of two, which is exact, so
    ``x * 2**k`` gets the lag of ``x`` at any magnitude.
    """
    n = len(x)
    if n < 16:
        raise ValueError(f"need at least 16 samples to estimate a period, got {n}")
    if hint_hz is not None:
        if hint_hz <= 0:
            raise ValueError(f"hint_hz must be positive, got {hint_hz}")
        period = x.sample_rate_hz / hint_hz
        if not (np.isfinite(hint_hz) and np.isfinite(period)):
            raise ValueError(f"hint_hz must be finite and give a finite period, got {hint_hz}")
        if hint_hz >= x.sample_rate_hz / 2:
            raise ValueError(
                f"hint {hint_hz} Hz implies a period under 2 samples at "
                f"{x.sample_rate_hz} Hz"
            )
        return round(period)

    # With max|x| scaled into [0.5, 1) the energy neither overflows nor
    # underflows; wherever no sample is subnormal, every sum below is the
    # unscaled one times the same power of two, so the lag is unchanged.
    samples = x.samples
    centred = np.ldexp(samples, -np.frexp(max(samples.max(), -samples.min()))[1])
    centred -= centred.mean()
    max_lag = n // 4
    # Biased autocorrelation; the taper toward long lags breaks period
    # multiples in favour of the fundamental.  Lag k is the exact dot product
    # of the series with itself shifted by k; it is found in O(n log n) by a
    # zero-padded FFT (Wiener-Khinchin) and confirmed by exact dot products.
    energy = float(np.dot(centred, centred))
    if energy == 0.0:
        return 2
    # Padding to n + max_lag keeps the circular wrap-around off lags <= max_lag.
    nfft = _fast_len(n + max_lag)
    spectrum = np.fft.rfft(centred, nfft)
    re, im = spectrum.real, spectrum.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    im[:] = 0.0
    approx = np.fft.irfft(spectrum, nfft)[2:max_lag + 1]
    del spectrum
    # Rounding bound: a dot product of length <= n errs by at most n*u*energy
    # (u = eps/2; Higham's gamma_n bound with Cauchy-Schwarz), and an FFT
    # value by far less than 1024*u*energy (measured with numpy.fft: at most
    # 6.7e-16*energy, about 6*u, over 548 lags of each of twenty 480k-sample
    # recordings, against dot products in extended precision).  A lag's lead
    # can shrink by both errors on two lags, so every lag that could be the
    # exact argmax lies within this band of the FFT maximum.
    band = (n + 1024) * np.finfo(np.float64).eps * energy
    candidates = 2 + np.flatnonzero(approx >= approx.max() - band)
    exact = [np.dot(centred[:n - k], centred[k:]) for k in candidates]
    return int(candidates[int(np.argmax(exact))])
