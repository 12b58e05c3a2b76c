"""Window featurization of decomposed signals.

Each analysis window yields one 9-dimensional token: five residual-channel
features (Hull-EMA endpoint and mean, skewness, excess kurtosis, RMS), two
trend-channel features (mean, least-squares slope) and two seasonal-channel
features (RMS, lag-1 autocorrelation).  Tokens from consecutive windows form
the sequences the classifier consumes.

Moment conventions are population central moments; degenerate (constant)
windows yield 0 rather than NaN for the moment ratios and the
autocorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .movavg import MaConfig, hema

__all__ = [
    "WindowSpec",
    "TokenSequence",
    "Standardizer",
    "CHANNEL_MAP",
    "FEATURE_NAMES",
    "skewness",
    "kurtosis_excess",
    "rms",
    "featurize",
]

# Desk-scale default (synthetic runs); 48 kHz recordings use 2048/1024.
DESK_WINDOW_LEN = 256
DESK_WINDOW_STRIDE = 128

_VAR_FLOOR = 1e-24
# Samples per window matrix in one featurize pass (1 MiB of float64): 64
# windows of 2048 samples, or a whole desk recording of 256-sample windows.
BLOCK_SAMPLES = 1 << 17

FEATURE_NAMES = (
    "res_hema_last",
    "res_hema_mean",
    "res_skewness",
    "res_kurtosis",
    "res_rms",
    "trend_mean",
    "trend_slope",
    "season_rms",
    "season_lag1_corr",
)

CHANNEL_MAP: dict[str, tuple[int, int]] = {
    "residual_feats": (0, 5),
    "trend_feats": (5, 7),
    "seasonal_feats": (7, 9),
}


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: length and stride in samples."""

    length: int = DESK_WINDOW_LEN
    stride: int = DESK_WINDOW_STRIDE

    def __post_init__(self) -> None:
        if self.length < 8:
            raise ValueError(f"window length must be >= 8, got {self.length}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def count(self, n_samples: int) -> int:
        """Number of full windows available in a series of given length."""
        if n_samples < self.length:
            raise ValueError(
                f"series of length {n_samples} is shorter than the window ({self.length})"
            )
        return (n_samples - self.length) // self.stride + 1


@dataclass
class Standardizer:
    """Per-feature mean/std fitted on the training split and reused verbatim.

    Features whose training std collapses below the floor are flagged
    constant and passed through centred but unscaled.
    """

    mean: np.ndarray
    std: np.ndarray
    constant_mask: np.ndarray

    @classmethod
    def fit(cls, tokens: np.ndarray) -> "Standardizer":
        tokens = np.asarray(tokens, dtype=np.float64)
        mean = tokens.mean(axis=0)
        std = tokens.std(axis=0)
        constant = std < 1e-12
        safe = np.where(constant, 1.0, std)
        return cls(mean=mean, std=safe, constant_mask=constant)

    def transform(self, tokens: np.ndarray) -> np.ndarray:
        return (np.asarray(tokens, dtype=np.float64) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant_mask": self.constant_mask.astype(bool).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            constant_mask=np.asarray(d["constant_mask"], dtype=bool),
        )


@dataclass
class TokenSequence:
    """T x F token matrix for one recording, with its label."""

    tokens: np.ndarray
    label: str | None = None

    def __len__(self) -> int:
        return self.tokens.shape[0]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row, bit for bit, without a product matrix."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _moment_ratios(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise population skewness and excess kurtosis of a 2-D array.

    Rows whose second moment falls below the floor (constant windows) get 0
    for both.
    """
    centred = rows - rows.mean(axis=1, keepdims=True)
    power = centred * centred
    m2 = power.mean(axis=1)
    m3 = _row_dot(power, centred) / rows.shape[1]
    del centred
    power *= power
    m4 = power.mean(axis=1)
    del power
    flat = m2 < _VAR_FLOOR
    m2[flat] = 1.0
    skew = np.where(flat, 0.0, m3 / m2**1.5)
    kurt = np.where(flat, 0.0, m4 / m2**2 - 3.0)
    return skew, kurt


def _rms_rows(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dot(rows, rows) / rows.shape[1])


def skewness(x) -> float:
    """Population skewness ``m3 / m2**1.5``; 0 for constant windows."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 3:
        raise ValueError(f"skewness needs at least 3 samples, got {arr.size}")
    return float(_moment_ratios(arr.reshape(1, -1))[0][0])


def kurtosis_excess(x) -> float:
    """Population excess kurtosis ``m4 / m2**2 - 3``; 0 for constant windows."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 4:
        raise ValueError(f"kurtosis needs at least 4 samples, got {arr.size}")
    return float(_moment_ratios(arr.reshape(1, -1))[1][0])


def rms(x) -> float:
    arr = np.asarray(x, dtype=np.float64)
    return float(_rms_rows(arr.reshape(1, -1))[0])


def _window_tokens(res: np.ndarray, tr: np.ndarray, se: np.ndarray, ma: MaConfig,
                   out: np.ndarray) -> None:
    """Write the tokens of a block of windows (the rows of each component) into ``out``.

    Every feature is computed row by row, so a window's token does not
    depend on which other windows share its block.
    """
    length = res.shape[1]
    filtered = hema(res, ma)
    out[:, 0] = filtered.values[:, -1]
    valid = filtered.valid_values if filtered.valid_from < length else filtered.values
    out[:, 1] = valid.mean(axis=1)
    del filtered, valid
    out[:, 2], out[:, 3] = _moment_ratios(res)
    out[:, 4] = _rms_rows(res)

    out[:, 5] = tr.mean(axis=1)
    # Least-squares slope against time centred on the window; sum(t) is 0.
    t = np.arange(length) - (length - 1) / 2.0
    centred = tr - out[:, 5:6]
    out[:, 6] = _row_dot(centred, np.broadcast_to(t, centred.shape)) / (t @ t)

    out[:, 7] = _rms_rows(se)
    centred = se - se.mean(axis=1, keepdims=True)
    energy = _row_dot(centred, centred)
    lag1 = _row_dot(centred[:, :-1], centred[:, 1:])
    del centred
    flat = energy < _VAR_FLOOR
    energy[flat] = 1.0
    out[:, 8] = np.where(flat, 0.0, lag1 / energy)


def featurize(decomp, spec: WindowSpec, ma: MaConfig | None = None, label: str | None = None) -> TokenSequence:
    """Slice a decomposition into windows and compute one token per window.

    The Hull-EMA features are computed from each window's residual samples
    alone, so tokens depend only on their own window.  Windows are processed
    in blocks of ``BLOCK_SAMPLES // spec.length`` (at least one), as the rows
    of one window matrix per component, so memory stays bounded however long
    the recording is.

    Parameters
    ----------
    decomp : Decomposition
        Aligned trend/seasonal/residual components.
    spec : WindowSpec
        Window length and stride.
    ma : MaConfig, optional
        Hull-EMA configuration; defaults to ``MaConfig()``.
    label : str, optional
        Class identifier attached to the sequence (falls back to nothing).
    """
    if ma is None:
        ma = MaConfig()
    count = spec.count(decomp.residual.size)
    # (count, length) views of the three components; nothing is copied here.
    res, tr, se = (
        sliding_window_view(part, spec.length)[::spec.stride]
        for part in (decomp.residual, decomp.trend, decomp.seasonal)
    )
    tokens = np.empty((count, len(FEATURE_NAMES)))
    block = max(1, BLOCK_SAMPLES // spec.length)
    for lo in range(0, count, block):
        rows = slice(lo, lo + block)
        _window_tokens(res[rows], tr[rows], se[rows], ma, tokens[rows])
    if not np.all(np.isfinite(tokens)):
        raise ValueError("featurization produced non-finite values")
    return TokenSequence(tokens=tokens, label=label)
