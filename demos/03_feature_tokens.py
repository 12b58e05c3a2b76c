"""What the nine window features see in each fault class.

Each analysis window becomes one token: five residual statistics (smoothed
level via the low-lag hull filter, mean, skewness, excess kurtosis, RMS),
two trend features (mean, slope), and two seasonal features (RMS, lag-1
autocorrelation).  This script averages standardized tokens per class to
show which features carry the class information.
"""

import numpy as np

from tdafault.data import SplitConfig, SynthConfig, build_dataset, gen_synthetic
from tdafault.features import FEATURE_NAMES

cfg = SynthConfig(sample_rate_hz=2048.0, duration_s=4.0, recordings_per_class=1,
                  noise_sigma=0.05, seed=2)
dataset = build_dataset(
    gen_synthetic(cfg),
    split=SplitConfig(segment_len=4),
    period_hint_hz=cfg.shaft_hz,
)

print("per-class mean of standardized features (training split)\n")
SHORT = {"res_hema_last": "hema", "res_hema_mean": "mean", "res_skewness": "skew",
         "res_kurtosis": "kurt", "res_rms": "rms", "trend_mean": "t.mean",
         "trend_slope": "t.slope", "season_rms": "s.rms",
         "season_lag1_corr": "s.lag1"}
print(f"{'class':<12}" + "".join(f"{SHORT[name]:>9}" for name in FEATURE_NAMES))

sums = {i: np.zeros(len(FEATURE_NAMES)) for i in range(len(dataset.labels))}
counts = {i: 0 for i in range(len(dataset.labels))}
for tokens, label in zip(dataset.train.tokens, dataset.train.labels):
    sums[label] += tokens.mean(axis=0)
    counts[label] += 1

for i, name in enumerate(dataset.labels):
    mean = sums[i] / counts[i]
    print(f"{name:<12}" + "".join(f"{v:>9.2f}" for v in mean))

print(
    "\nRead the columns: residual RMS (rms) ranks the severities within a\n"
    "location, residual skewness (skew) separates the locations because\n"
    "each excites its resonance with a different phase, and the healthy\n"
    "class sits lowest on the impact-sensitive residual features."
)
