"""Moving-average filters: WMA, EMA, and the Hull-style staged constructions.

All filters return a :class:`FilteredSeries` whose ``values`` align 1:1 with
the input samples.  Outputs before ``valid_from`` come from a documented
warm-up rule (partial windows for the WMA, first-sample seeding for the EMA)
and should be excluded from downstream statistics.  Every filter takes one 1-D
series.

The Hull construction exists in two modes.  ``hull_standard`` is the
published recipe: ``Diff = 2*MA(ceil(n/2)) - MA(n)`` re-smoothed with window
``round(sqrt(n))``.  ``paper_literal`` gives both intermediate filters the
half window and re-smooths with window ``n``; the Diff then collapses
algebraically to the first filter, so the result equals a plain
double-smoothing.  Both are kept because the collapse itself is a useful
regression check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MaConfig", "FilteredSeries", "wma", "ema", "hma", "hema"]

HULL_MODES = ("hull_standard", "paper_literal")


@dataclass(frozen=True)
class MaConfig:
    """Configuration shared by the staged Hull filters.

    Parameters
    ----------
    window : int
        Base window length ``n`` in samples (default 16, the residual
        smoother of the feature pipeline).
    ema_alpha : float or None
        Fixed smoothing factor in ``(0, 1]`` for every EMA stage, or ``None``
        to derive each stage's alpha from its window as ``2 / (w + 1)``.
    hull_mode : str
        ``"hull_standard"`` (default) or ``"paper_literal"``.
    """

    window: int = 16
    ema_alpha: float | None = None
    hull_mode: str = "hull_standard"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.ema_alpha is not None and not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must lie in (0, 1], got {self.ema_alpha}")
        if self.hull_mode not in HULL_MODES:
            raise ValueError(f"hull_mode must be one of {HULL_MODES}, got {self.hull_mode!r}")

    def alpha_for(self, window: int) -> float:
        """Smoothing factor for one EMA stage of the given window."""
        if self.ema_alpha is not None:
            return self.ema_alpha
        return 2.0 / (window + 1.0)


@dataclass(frozen=True)
class FilteredSeries:
    """Filter output aligned with its input.

    ``values[t]`` for ``t < valid_from`` are warm-up samples (partial window
    or spin-up region) and are flagged rather than silently mixed into
    statistics; ``valid_from`` may equal or exceed the series length when the
    series is shorter than the warm-up span.
    """

    values: np.ndarray
    valid_from: int

    @property
    def valid_values(self) -> np.ndarray:
        """The samples with a full window of history behind them."""
        return self.values[self.valid_from:]


def _as_series(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("input series is empty")
    return arr


def wma(x, n: int) -> FilteredSeries:
    """Weighted moving average with linearly increasing weights.

    At each index with a full window, ``out[t]`` is the weighted mean of the
    last ``n`` samples with weight ``n`` on the newest and weight 1 on the
    oldest, normalised by ``n*(n+1)/2``.  The warm-up region ``t < n-1``
    holds the same weighting applied to the partial window seen so far.

    Parameters
    ----------
    x : sequence of float
    n : int
        Window length, ``n >= 1``.
    """
    arr = _as_series(x)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    out = np.empty_like(arr)
    if arr.size >= n:
        kernel = np.arange(n, 0, -1, dtype=np.float64)
        out[n - 1:] = np.convolve(arr, kernel, mode="valid") / (n * (n + 1) / 2.0)
    head = min(n - 1, arr.size)
    if head:
        idx = np.arange(1, head + 1, dtype=np.float64)
        out[:head] = np.cumsum(idx * arr[:head]) / (idx * (idx + 1) / 2.0)
    return FilteredSeries(out, valid_from=n - 1)


def ema(x, alpha: float) -> FilteredSeries:
    """Exponential moving average ``out[t] = alpha*x[t] + (1-alpha)*out[t-1]``.

    Seeded with ``out[0] = x[0]``; every output is defined, so
    ``valid_from`` is 0.  The recursion runs sample by sample in Python
    floats, so it gives the definition's own bits at any magnitude, at the
    cost of an interpreted step per sample.

    Parameters
    ----------
    x : sequence of float
    alpha : float
        Smoothing factor in ``(0, 1]``.
    """
    arr = _as_series(x)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    beta = 1.0 - alpha
    out = itertools.accumulate(arr.tolist(), lambda prev, v: alpha * v + beta * prev)
    return FilteredSeries(np.fromiter(out, np.float64, arr.size), valid_from=0)


def _hull_windows(n: int, mode: str) -> tuple[int, int, int]:
    """Windows (first, second, final) of the staged Hull construction."""
    half = math.ceil(n / 2)
    if mode == "paper_literal":
        return half, half, n
    return half, n, max(1, round(math.sqrt(n)))


def _staged_hull(x, cfg: MaConfig, stage) -> FilteredSeries:
    if cfg.window < 2:
        raise ValueError(f"Hull construction needs window >= 2, got {cfg.window}")
    w1, w2, w3 = _hull_windows(cfg.window, cfg.hull_mode)
    out = stage(2.0 * stage(x, w1).values - stage(x, w2).values, w3)
    # Warm-up accounting is by window even for the EMA stages: the final
    # stage needs w3 settled samples on top of the slower intermediate.
    valid_from = (max(w1, w2) - 1) + (w3 - 1)
    return FilteredSeries(out.values, valid_from=valid_from)


def hma(x, cfg: MaConfig) -> FilteredSeries:
    """Hull moving average: difference of two WMAs, re-smoothed by a WMA.

    ``hull_standard``: ``WMA(round(sqrt(n)))`` applied to
    ``2*WMA(ceil(n/2)) - WMA(n)``.  ``paper_literal``: ``WMA(n)`` applied to
    ``2*WMA(ceil(n/2)) - WMA(ceil(n/2))``, which collapses to
    ``WMA(n, WMA(ceil(n/2), x))``.
    """
    return _staged_hull(x, cfg, lambda s, w: wma(s, w))


def hema(x, cfg: MaConfig) -> FilteredSeries:
    """Hull construction with EMA stages in place of WMAs.

    Stage alphas follow ``cfg.alpha_for`` on the same windows :func:`hma`
    uses, so with the default window-derived rule the ``hull_standard`` mode
    keeps the low-lag character while ``paper_literal`` collapses to a
    double EMA.
    """
    return _staged_hull(x, cfg, lambda s, w: ema(s, cfg.alpha_for(w)))
