"""Bearing fault detection from vibration signals.

The pipeline: Hull-family moving-average smoothing, additive seasonal-trend
decomposition, windowed statistical tokens, and a small Transformer encoder
whose attention splits over the trend and seasonal components with learned
per-position biases.  Training runs on a self-contained reverse-mode
autodiff engine; everything is seeded and reproducible bit-for-bit.

Set ``TDA_FAULT_THREADS`` (default 1) before launching to control BLAS
threading; single-threaded math keeps results identical across machines.
"""

import os as _os

_threads = _os.environ.get("TDA_FAULT_THREADS", "1")
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, _threads)
del _os, _var, _threads

from .attention import attention_standard, attention_tda, attention_weights
from .autodiff import NumericsError, Tensor, grad_check, op_catalog
from .data import (
    CLASS_ORDER,
    FAULT_CLASSES,
    DatasetSplits,
    Examples,
    FaultClass,
    SplitConfig,
    SynthConfig,
    build_dataset,
    gen_recording,
    gen_synthetic,
    load_recording_csv,
    load_recordings,
    load_recordings_mat,
    save_recordings,
)
from .decompose import Decomposition, TimeSeries, decompose_additive, estimate_period
from .features import (
    CHANNEL_MAP,
    FEATURE_NAMES,
    Standardizer,
    TokenSequence,
    WindowSpec,
    featurize,
    kurtosis_excess,
    rms,
    skewness,
)
from .matio import MatArray, MatFormatError, parse_mat, read_mat, write_mat
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    confusion_matrix,
    evaluate_predictions,
)
from .model import ModelConfig, TdaEncoder
from .movavg import HULL_MODES, FilteredSeries, MaConfig, ema, hema, hma, wma
from .train import Adam, TrainConfig, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # smoothing
    "MaConfig", "FilteredSeries", "wma", "ema", "hma", "hema", "HULL_MODES",
    # decomposition
    "TimeSeries", "Decomposition", "decompose_additive", "estimate_period",
    # features
    "WindowSpec", "Standardizer", "TokenSequence", "featurize",
    "FEATURE_NAMES", "CHANNEL_MAP", "skewness", "kurtosis_excess", "rms",
    # autodiff
    "Tensor", "NumericsError", "grad_check", "op_catalog",
    # attention / model
    "attention_weights", "attention_standard", "attention_tda",
    "ModelConfig", "TdaEncoder",
    # training / metrics
    "TrainConfig", "TrainResult", "Adam", "train", "evaluate",
    "ConfusionMatrix", "EvalReport", "confusion_matrix", "evaluate_predictions",
    # data
    "FaultClass", "FAULT_CLASSES", "CLASS_ORDER", "SynthConfig", "SplitConfig",
    "Examples", "DatasetSplits", "gen_recording", "gen_synthetic", "build_dataset",
    "save_recordings", "load_recordings", "load_recording_csv", "load_recordings_mat",
    # file formats
    "MatArray", "MatFormatError", "parse_mat", "read_mat", "write_mat",
]
