"""Additive seasonal-trend decomposition of vibration records.

The classical recipe: a centered moving average of one period estimates the
trend, per-phase means of the detrended series give a zero-mean periodic
seasonal component, and everything left over is the residual.  Fault
signatures that are not phase-locked to the period survive in the residual,
which is what the downstream feature extraction consumes.

The seasonal component is exactly periodic, so a :class:`Decomposition`
keeps one period of it.  :func:`decompose_additive` forms the residual once
and works in place: the phase means are the column sums of whole periods,
and the pattern is subtracted from the residual period by period.
"""

from __future__ import annotations

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

    ``trend + seasonal + residual`` reconstructs the input everywhere (the
    residual is defined as the remainder).  The seasonal component is exactly
    ``period``-periodic, so only one period of it is kept, as ``pattern``;
    ``seasonal`` builds the full-length component from it on each access.
    ``valid_range`` is the half-open index interval where the trend estimate
    has a full averaging window; outside it the trend is edge-replicated.
    """

    trend: np.ndarray
    pattern: np.ndarray
    residual: np.ndarray
    period: int
    valid_range: tuple[int, int]

    def __post_init__(self) -> None:
        trend, residual = self.trend, self.residual
        for name, part in (("trend", trend), ("residual", residual)):
            if not isinstance(part, np.ndarray) or part.ndim != 1:
                raise ValueError(f"{name} must be a 1-D numpy array, got "
                                 f"{type(part).__name__} of shape {np.shape(part)}")
        n = trend.size
        if residual.size != n:
            raise ValueError(f"residual has {residual.size} samples, trend has {n}")
        period = self.period
        if not isinstance(period, (int, np.integer)) or isinstance(period, bool) or period < 2:
            raise ValueError(f"period must be an int >= 2, got {period!r}")
        if n < 2 * period:
            raise ValueError(f"period {period} needs at least {2 * period} samples, got {n}")
        if not isinstance(self.pattern, np.ndarray) or self.pattern.shape != (period,):
            raise ValueError(f"pattern must be a numpy array of shape ({period},), got "
                             f"{type(self.pattern).__name__} of shape {np.shape(self.pattern)}")
        start, stop = self.valid_range
        if not 0 <= start <= stop <= n:
            raise ValueError(f"valid_range must satisfy 0 <= start <= stop <= {n}, "
                             f"got {self.valid_range}")

    @property
    def seasonal(self) -> np.ndarray:
        """The seasonal component, ``pattern`` repeated to the series length (a new array)."""
        n = self.trend.size
        return np.tile(self.pattern, -(-n // self.period))[:n]

    def reconstruct(self) -> np.ndarray:
        return self.trend + self.seasonal + self.residual


# Longest kernel the trend filter convolves directly.  Direct convolution
# costs O(n*P) and overlap-add O(n log P).  Measured against _overlap_add on
# one core (median of 31): at 96k samples direct takes 2.9/4.2/4.2/5.1/5.4 ms
# at 151/201/231/255/301 taps and overlap-add 4.7/4.2/4.4/2.7/3.5 ms; at 480k
# samples 16.8/22.9/26.1/35.6/32.4 ms against 26.7/17.6/24.7/14.5/23.7 ms.
# Direct leads at 151 taps, the two are level from 201 to 231 and overlap-add
# leads from 255; at 3 taps it is several hundred times slower.  Kernels
# always have an odd number of taps, so 255 is the last direct one.
_DIRECT_MAX_TAPS = 255
# Overlap-add FFT length in kernel lengths.  Against 4 and 16 it was as fast
# or faster from 151 to 8125 taps, at 96k and 480k samples.
_OA_FFT_TAPS = 8


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


def _overlap_add(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``np.convolve(x, kernel)`` (the full convolution) by FFT overlap-add.

    Each block of ``x`` is convolved in one zero-padded FFT and added into
    the full convolution, so memory stays O(n) whatever the kernel length.
    """
    taps = kernel.size
    nfft = min(_fast_len(_OA_FFT_TAPS * taps), _fast_len(x.size + taps - 1))
    step = nfft - taps + 1
    response = np.fft.rfft(kernel, nfft)
    full = np.zeros(x.size + taps - 1)
    for lo in range(0, x.size, step):
        block = x[lo:lo + step]
        span = block.size + taps - 1
        full[lo:lo + span] += np.fft.irfft(np.fft.rfft(block, nfft) * response, nfft)[:span]
    return full


def _centered_trend(x: np.ndarray, period: int) -> tuple[np.ndarray, int]:
    """Centered moving average of one period; returns (trend, half-width).

    Even periods use the standard 2xP average (half weights on the two
    endpoints) so the window stays centered; both variants weight every
    phase of the cycle equally.  Kernels longer than ``_DIRECT_MAX_TAPS``
    are applied by overlap-add FFT convolution, which agrees with the direct
    sum to within about 1e-15 of max|x|.  The trend is a view of the full
    convolution, whose ``half`` samples past each end are overwritten by
    edge replication, so the valid part is not copied.
    """
    if period % 2 == 0:
        kernel = np.full(period + 1, 1.0 / period)
        kernel[0] = kernel[-1] = 0.5 / period
        half = period // 2
    else:
        kernel = np.full(period, 1.0 / period)
        half = (period - 1) // 2
    if kernel.size <= _DIRECT_MAX_TAPS:
        full = np.convolve(x, kernel)
    else:
        full = _overlap_add(x, kernel)
    n = x.size
    trend = full[half:half + n]
    trend[:half] = trend[half]
    trend[n - half:] = trend[n - half - 1]
    return trend, half


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
        Trend and residual of the same length as the input, and one period
        of the seasonal component.  The seasonal component is exactly
        P-periodic and sums to ~0 over one period; the residual closes the
        additive identity everywhere, including the edge-replicated trend
        region.  Besides these outputs the call holds one zero-padded copy
        of the valid residual, whole periods long.
    """
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    samples = x.samples
    n = samples.size
    if n < 2 * period:
        raise ValueError(f"series of length {n} is shorter than 2*period = {2 * period}")

    trend, half = _centered_trend(samples, period)
    start, stop = half, n - half
    residual = samples - trend

    # Phase p sums the valid samples t = p (mod P) in index order, as a
    # bincount over tiled phases would: the column sums of whole periods,
    # zero outside [start, stop).
    rows = -(-stop // period)
    padded = np.zeros(rows * period)
    padded[start:stop] = residual[start:stop]
    pattern = padded.reshape(rows, period).sum(axis=0)
    del padded
    phase = np.arange(period)
    pattern /= (stop - 1 - phase) // period - (start - 1 - phase) // period
    pattern -= pattern.mean()

    whole = n - n % period
    body = residual[:whole].reshape(-1, period)
    body -= pattern
    residual[whole:] -= pattern[:n - whole]
    return Decomposition(trend, pattern, residual, period, (start, stop))


def estimate_period(x: TimeSeries, hint_hz: float | None = None) -> int:
    """Estimate the dominant cycle length in samples.

    With ``hint_hz`` the period is simply ``round(sample_rate / hint)``.
    Without it, the lag maximising the (mean-removed) autocorrelation over
    lags ``[2, len(x)//4]`` wins, ties broken toward the smallest lag.  The
    winner is scored by exact dot products, so it is the lag the direct
    ``np.correlate`` search picks, found in O(n log n) time.  A series that
    is exactly zero after mean removal ties at every lag and gets 2.
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

    centred = x.samples - x.samples.mean()
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
