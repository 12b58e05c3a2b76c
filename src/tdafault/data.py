"""Bearing vibration data: class taxonomy, synthesis, storage, and splits.

The canonical label set covers three defect locations (inner race, outer
race, rolling element) at three severities each, plus the healthy baseline.
Synthetic recordings follow the standard vibration model: a shaft-rate
sinusoid, plus — for faulty classes — repetitive impulse bursts at the
location's characteristic defect frequency, each burst an exponentially
decaying resonance tone, all in Gaussian noise.

The shaft frequency is snapped to an integer number of samples per
revolution so that the seasonal component of a clean healthy recording is
exactly periodic; severities scale burst amplitude linearly.

``build_dataset`` turns recordings into standardized token segments with a
deterministic contiguous train/validation/test split: within each class,
segments are kept in time order and the earliest go to training, the latest
to test, so evaluation always happens on later data than the model saw.

The store functions stream: ``gen_synthetic`` and ``load_recordings`` yield
one recording at a time, and ``save_recordings``, ``save_components`` and
``build_dataset`` take any iterable in one pass, so a store verb holds one
recording in memory whatever the size of the store; both decomposing verbs
share one per-recording step.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .decompose import TimeSeries, decompose_additive, estimate_period
from .features import (
    CHANNEL_MAP,
    FEATURE_NAMES,
    Standardizer,
    WindowSpec,
    featurize,
)
from .matio import read_mat
from .movavg import MaConfig

__all__ = [
    "FaultClass",
    "FAULT_CLASSES",
    "CLASS_ORDER",
    "SynthConfig",
    "SplitConfig",
    "Examples",
    "DatasetSplits",
    "gen_recording",
    "gen_synthetic",
    "save_recordings",
    "save_components",
    "load_recordings",
    "load_recording_csv",
    "load_recordings_mat",
    "build_dataset",
    "save_features",
    "load_features",
]

STORE_FORMAT = "tdafault-recordings-v1"
COMPONENTS_FORMAT = "tdafault-components-v1"
FEATURES_FORMAT = "tdafault-features-v1"
_KEY = "rec_{:05d}"  # a recording's file stem in store and components directories
SPLITS = ("train", "val", "test")

SHAFT_RPM = 1772.0
# Most samples one synthetic recording may hold (16 GiB of float64).
MAX_SAMPLES = 2**31

# Characteristic defect frequencies as multiples of the shaft rotation rate.
DEFECT_RATE_PER_REV = {"inner": 5.4, "outer": 3.6, "ball": 4.7}

# Each location rings its own structural resonance, with its own burst
# polarity (phase) and relative strength; severity scales amplitude on top.
RESONANCE_HZ = {"inner": 1100.0, "outer": 700.0, "ball": 900.0}
BURST_PHASE = {"inner": 0.5 * np.pi, "outer": -0.5 * np.pi, "ball": 0.0}
LOCATION_AMPLITUDE = {"inner": 1.0, "outer": 1.15, "ball": 0.85}


@dataclass(frozen=True)
class FaultClass:
    """One diagnosis label: defect location and severity (inches)."""

    name: str
    location: str  # "inner" | "outer" | "ball" | "none"
    severity_inch: float


FAULT_CLASSES = (
    FaultClass("IR_007_1", "inner", 0.007),
    FaultClass("IR_014_1", "inner", 0.014),
    FaultClass("IR_021_1", "inner", 0.021),
    FaultClass("OR_007_6_1", "outer", 0.007),
    FaultClass("OR_014_6_1", "outer", 0.014),
    FaultClass("OR_021_6_1", "outer", 0.021),
    FaultClass("Ball_007_1", "ball", 0.007),
    FaultClass("Ball_014_1", "ball", 0.014),
    FaultClass("Ball_021_1", "ball", 0.021),
    FaultClass("Normal_1", "none", 0.0),
)
CLASS_ORDER = tuple(fc.name for fc in FAULT_CLASSES)
_CLASS_BY_NAME = {fc.name: fc for fc in FAULT_CLASSES}
_SEVERITY_UNIT = 0.007  # smallest defect size; amplitudes scale from here


def shaft_period_samples(sample_rate_hz: float, rpm: float = SHAFT_RPM) -> int:
    """Samples per shaft revolution, rounded to the nearest integer."""
    period = int(round(sample_rate_hz * 60.0 / rpm))
    if period < 2:
        raise ValueError(
            f"sample_rate_hz {sample_rate_hz} too low for shaft_rpm {rpm} (period {period})"
        )
    return period


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic recording parameters (desk-scale defaults)."""

    sample_rate_hz: float = 4096.0
    duration_s: float = 8.0
    recordings_per_class: int = 4
    noise_sigma: float = 0.1
    shaft_rpm: float = SHAFT_RPM
    shaft_amplitude: float = 1.0
    burst_amplitude: float = 1.2
    burst_decay_s: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sample_rate_hz", "duration_s", "shaft_rpm", "burst_decay_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must lie in (0, inf), got {getattr(self, name)}")
        for name in ("noise_sigma", "shaft_amplitude", "burst_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.recordings_per_class < 1:
            raise ValueError(f"recordings_per_class must be >= 1, got {self.recordings_per_class}")
        n = self.sample_rate_hz * self.duration_s
        if not (math.isfinite(n) and 1 <= round(n) <= MAX_SAMPLES):
            raise ValueError(f"sample_rate_hz * duration_s must give 1 to {MAX_SAMPLES} samples "
                             f"per recording, got {n}")
        shaft_period_samples(self.sample_rate_hz, self.shaft_rpm)

    @property
    def shaft_hz(self) -> float:
        """Shaft rate after snapping to a whole number of samples."""
        return self.sample_rate_hz / shaft_period_samples(self.sample_rate_hz, self.shaft_rpm)


def _burst_prototype(cfg: SynthConfig, location: str) -> np.ndarray:
    fs = cfg.sample_rate_hz
    length = max(4, int(round(6.0 * cfg.burst_decay_s * fs)))
    t = np.arange(length) / fs
    return np.exp(-t / cfg.burst_decay_s) * np.sin(
        2.0 * np.pi * RESONANCE_HZ[location] * t + BURST_PHASE[location]
    )


def gen_recording(fault: FaultClass, cfg: SynthConfig, rec_idx: int) -> TimeSeries:
    """Synthesize one labelled recording, reproducible from (seed, class, rec)."""
    class_idx = CLASS_ORDER.index(fault.name)
    rng = np.random.default_rng([cfg.seed, class_idx, rec_idx])
    fs = cfg.sample_rate_hz
    n = int(round(fs * cfg.duration_s))
    t = np.arange(n) / fs

    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = cfg.shaft_amplitude * np.sin(2.0 * np.pi * cfg.shaft_hz * t + phase)

    if fault.location != "none":
        rate_hz = DEFECT_RATE_PER_REV[fault.location] * cfg.shaft_hz
        spacing = fs / rate_hz  # samples between impacts (fractional)
        offset = rng.uniform(0.0, spacing)
        proto = _burst_prototype(cfg, fault.location)
        amp = (
            cfg.burst_amplitude
            * LOCATION_AMPLITUDE[fault.location]
            * (fault.severity_inch / _SEVERITY_UNIT)
        )
        starts = np.round(offset + spacing * np.arange(int(n / spacing) + 1)).astype(int)
        starts = starts[starts < n]
        idx = starts[:, None] + np.arange(proto.size)[None, :]
        keep = idx < n
        np.add.at(x, idx[keep], amp * np.broadcast_to(proto, idx.shape)[keep])

    if cfg.noise_sigma > 0:
        x = x + rng.normal(0.0, cfg.noise_sigma, n)
    return TimeSeries(samples=x, sample_rate_hz=fs, label=fault.name)


def gen_synthetic(cfg: SynthConfig) -> Iterator[TimeSeries]:
    """All classes x recordings in canonical order (class-major), one at a time."""
    for fault in FAULT_CLASSES:
        for rec_idx in range(cfg.recordings_per_class):
            yield gen_recording(fault, cfg, rec_idx)


# ---- recording store and features directory ---------------------------------


def _dump_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json_object(path, what: str) -> dict:
    """Parse a JSON file whose top level must be an object.

    Anything else (a list, a number, a string) raises ``ValueError`` naming
    ``what`` and the path, so callers can index the result as a dict.
    """
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _load_npy(path: Path, what: str) -> np.ndarray:
    """``np.load``; a cut-short or foreign file is a ``ValueError`` naming ``what``."""
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _write_streamed(dirpath, recordings: Iterable[TimeSeries], header: dict, row) -> dict:
    """Stream ``recordings`` into a directory: ``rec_<i><suffix>.npy`` files, then the manifest.

    ``row(i, ts)`` gives recording ``i``'s ``{suffix: array}`` files, written as
    it arrives, and its manifest fields beyond key, label, rate and length.  A
    stale manifest is dropped at the first recording and the new one, ``header``
    plus the entries, is written last, so a failed run leaves no manifest; an
    empty input raises before the directory is made.  Returns the manifest dict.
    """
    dirpath = Path(dirpath)
    entries = []
    for i, ts in enumerate(recordings):
        arrays, extra = row(i, ts)
        if i == 0:
            dirpath.mkdir(parents=True, exist_ok=True)
            (dirpath / "manifest.json").unlink(missing_ok=True)
        key = _KEY.format(i)
        for suffix, array in arrays.items():
            np.save(dirpath / f"{key}{suffix}.npy", array)
        entries.append({"key": key, "label": ts.label, "sample_rate_hz": float(ts.sample_rate_hz),
                        "n_samples": int(len(ts)), **extra})
    if not entries:
        raise ValueError("no recordings to save")
    manifest = {**header, "recordings": entries}
    _dump_json(dirpath / "manifest.json", manifest)
    return manifest


def _decomposed(i: int, ts: TimeSeries, period: int | None, period_hint_hz: float | None):
    """Recording ``i``'s period (``period``, or else estimated) and its decomposition.

    A ``ValueError`` is prefixed with the recording's store key.
    """
    try:
        period = period if period is not None else estimate_period(ts, period_hint_hz)
        return period, decompose_additive(ts, period)
    except ValueError as exc:
        raise ValueError(f"recording {_KEY.format(i)!r}: {exc}") from None


def save_recordings(
    dirpath, recordings: Iterable[TimeSeries], *, meta: dict | None = None,
    created: str | None = None
) -> dict:
    """Write recordings to a directory store (one .npy each plus a manifest), streamed.

    The manifest carries only input-derived fields (``created`` stays null
    unless supplied), so identical inputs produce byte-identical stores.
    """
    header = {"format": STORE_FORMAT, "created": created, "meta": meta or {}}
    return _write_streamed(dirpath, recordings, header,
                           lambda i, ts: ({"": np.asarray(ts.samples, dtype=np.float64)}, {}))


def save_components(
    dirpath, recordings: Iterable[TimeSeries], *, period: int | None = None,
    period_hint_hz: float | None = None, created: str | None = None
) -> dict:
    """Decompose each recording and write ``rec_<i>.{trend,seasonal,residual}.npy``, streamed.

    Each recording's entry adds its ``period`` (``period``, or else estimated
    with ``period_hint_hz``) and ``valid_range``.  Returns the manifest dict.
    """
    def row(i, ts):
        used, decomp = _decomposed(i, ts, period, period_hint_hz)
        return ({f".{part}": getattr(decomp, part) for part in ("trend", "seasonal", "residual")},
                {"period": int(used), "valid_range": list(decomp.valid_range)})

    return _write_streamed(dirpath, recordings, {"format": COMPONENTS_FORMAT, "created": created},
                           row)


def load_recordings(dirpath) -> Iterator[TimeSeries]:
    """Read a directory store written by :func:`save_recordings`, one recording at a time.

    ``recordings`` must be a non-empty list of entries, each with a bare
    file name ``key``, a string or null ``label``, a ``sample_rate_hz`` in
    (0, inf) and an int ``n_samples`` >= 1.  Every entry is checked before
    this returns; the iterator then reads each ``.npy`` when its recording
    is reached, which must be a finite 1-D float64 array of its
    ``n_samples``.  Anything else raises ``ValueError`` naming the entry.
    """
    dirpath = Path(dirpath)
    manifest_path = dirpath / "manifest.json"
    manifest = _load_json_object(manifest_path, "store manifest")
    if manifest.get("format") != STORE_FORMAT:
        raise ValueError(f"unrecognized store format {manifest.get('format')!r}")
    entries = manifest.get("recordings")
    if not (isinstance(entries, list) and entries):
        raise ValueError(f"{manifest_path}: 'recordings' must be a non-empty list, got {entries!r}")
    checked = []
    for i, entry in enumerate(entries):
        key = entry.get("key") if isinstance(entry, dict) else None
        where = f"{manifest_path} recordings[{i}] (key {key!r})"
        if not (isinstance(key, str) and key and "/" not in key and ".." not in key
                and isinstance(entry.get("label", 0), (str, type(None)))
                and type(entry.get("sample_rate_hz")) in (int, float)
                and type(entry.get("n_samples")) is int):
            raise ValueError(f"{where} needs a bare file name 'key', a string or null 'label', "
                             f"a number 'sample_rate_hz' and an int 'n_samples', got {entry!r}")
        if not 0 < entry["sample_rate_hz"] < math.inf:
            raise ValueError(f"{where}: sample_rate_hz must lie in (0, inf), "
                             f"got {entry['sample_rate_hz']}")
        if entry["n_samples"] < 1:
            raise ValueError(f"{where}: n_samples must be >= 1, got {entry['n_samples']}")
        checked.append((where, key, entry))
    return _read_recordings(dirpath, checked)


def _read_recordings(dirpath: Path, checked: list) -> Iterator[TimeSeries]:
    """Each checked entry's ``.npy`` as a ``TimeSeries``, read when it is reached."""
    for where, key, entry in checked:
        samples = _load_npy(dirpath / f"{key}.npy", f"recording {key!r}")
        expected = (entry["n_samples"],)
        if samples.dtype != np.float64 or samples.shape != expected:
            raise ValueError(
                f"recording {key!r}: expected float64 samples of shape {expected}, "
                f"got {samples.dtype} of shape {samples.shape}"
            )
        try:
            ts = TimeSeries(samples, entry["sample_rate_hz"], entry["label"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        yield ts


def save_features(dirpath, dataset: DatasetSplits) -> None:
    """Write ``X_<split>.npy``, ``y_<split>.npy``, the standardizer and, last, the manifest.

    A stale manifest is dropped first, so one that exists describes one run.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "manifest.json").unlink(missing_ok=True)
    for which in SPLITS:
        np.save(dirpath / f"X_{which}.npy", dataset.split(which).tokens)
        np.save(dirpath / f"y_{which}.npy", dataset.split(which).labels)
    _dump_json(dirpath / "standardizer.json", dataset.standardizer.to_dict())
    _dump_json(dirpath / "manifest.json", dataset.manifest)


def load_features(dirpath) -> DatasetSplits:
    """Read :func:`save_features` output; a bad split's ``ValueError`` names its file(s)."""
    dirpath = Path(dirpath)
    manifest_path = dirpath / "manifest.json"
    manifest = _load_json_object(manifest_path, "features manifest")
    if manifest.get("format") != FEATURES_FORMAT:
        raise ValueError(f"unrecognized features format {manifest.get('format')!r}")
    for key in ("labels", "feature_names"):
        names = manifest.get(key)
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise ValueError(f"{manifest_path}: {key!r} must be a non-empty list of strings, "
                             f"got {names!r}")
    labels = tuple(manifest["labels"])
    n_features = len(manifest["feature_names"])
    splits = {}
    for which in SPLITS:
        x_path, y_path = dirpath / f"X_{which}.npy", dirpath / f"y_{which}.npy"
        x, y = _load_npy(x_path, str(x_path)), _load_npy(y_path, str(y_path))
        try:
            splits[which] = Examples(x, y)
        except ValueError as exc:
            blamed = {"tokens": x_path, "labels": y_path}.get(
                str(exc).split(" ", 1)[0], f"{x_path} and {y_path}")
            raise ValueError(f"{blamed}: {exc}") from None
        if x.shape[2] != n_features:
            raise ValueError(f"{x_path}: tokens have {x.shape[2]} features, the manifest names "
                             f"{n_features}")
        if not (0 <= y.min() and y.max() < len(labels)):
            raise ValueError(f"{y_path}: labels must lie in [0, {len(labels)})")
    standardizer = _load_json_object(dirpath / "standardizer.json", "standardizer")
    return DatasetSplits(**splits, labels=labels, manifest=manifest,
                         standardizer=Standardizer.from_dict(standardizer))


def load_recording_csv(path, sample_rate_hz: float, label: str | None = None) -> TimeSeries:
    """One recording from a CSV of samples (first column if multi-column)."""
    arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return TimeSeries(samples=arr[:, 0], sample_rate_hz=sample_rate_hz, label=label)


def load_recordings_mat(
    path, sample_rate_hz: float, label: str | None = None, var_names=None
) -> list[TimeSeries]:
    """Recordings from numeric MAT variables (column-major flattening).

    ``var_names`` selects and orders the variables; by default all decoded
    variables are used in name order.
    """
    arrays = read_mat(path)
    names = list(var_names) if var_names is not None else sorted(arrays)
    out = []
    for name in names:
        if name not in arrays:
            raise KeyError(f"variable {name!r} not found in {path}")
        samples = np.asarray(arrays[name].data, dtype=np.float64).ravel(order="F")
        out.append(TimeSeries(samples=samples, sample_rate_hz=sample_rate_hz, label=label))
    return out


# ---- tokens, segments, splits ----------------------------------------------


@dataclass(frozen=True)
class SplitConfig:
    """Segment geometry and contiguous split fractions."""

    segment_len: int = 16
    train_fraction: float = 0.7
    val_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.segment_len < 1:
            raise ValueError(f"segment_len must be >= 1, got {self.segment_len}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.train_fraction + self.val_fraction >= 1.0:
            raise ValueError("train_fraction + val_fraction must leave room for test")


def segment_tokens(tokens: np.ndarray, segment_len: int) -> list[np.ndarray]:
    """Non-overlapping (segment_len, F) blocks in time order; tail dropped."""
    n_full = tokens.shape[0] // segment_len
    return [tokens[i * segment_len:(i + 1) * segment_len] for i in range(n_full)]


def split_counts(n: int, cfg: SplitConfig) -> tuple[int, int, int]:
    """(train, val, test) sizes: round-half-up, then repair so none is empty."""
    if n < 3:
        raise ValueError(f"need at least 3 segments per class to split, got {n}")
    n_tr = int(n * cfg.train_fraction + 0.5)
    n_va = int(n * cfg.val_fraction + 0.5)
    counts = [n_tr, n_va, n - n_tr - n_va]
    while min(counts) < 1:
        counts[counts.index(max(counts))] -= 1
        counts[counts.index(min(counts))] += 1
    return counts[0], counts[1], counts[2]


def class_labels_for(labels) -> tuple[str, ...]:
    """The distinct ``labels``, in canonical order when they all belong to it."""
    present = set(labels)
    if present <= _CLASS_BY_NAME.keys():
        return tuple(name for name in CLASS_ORDER if name in present)
    return tuple(sorted(present))


@dataclass(frozen=True, eq=False)
class Examples:
    """One split: ``(N, T, F)`` float64 tokens and their ``(N,)`` class indices.

    The one place the invariants are checked; an error that blames one array
    starts with its field name.
    """

    tokens: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        tokens, labels = self.tokens, self.labels
        if tokens.ndim != 3 or tokens.dtype != np.float64 or not np.isfinite(tokens).all():
            raise ValueError(f"tokens must be finite 3-D float64 ({tokens.ndim}-D {tokens.dtype})")
        if labels.ndim != 1 or labels.dtype.kind not in "iu":  # not bool, not timedelta
            raise ValueError(f"labels must be 1-D integers ({labels.ndim}-D {labels.dtype})")
        if not len(labels) == len(tokens) > 0:
            raise ValueError(f"need one label per sequence and at least one sequence, "
                             f"got {len(tokens)} sequences and {len(labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class DatasetSplits:
    """Standardized train/validation/test examples plus fit metadata."""

    train: Examples
    val: Examples
    test: Examples
    labels: tuple[str, ...]
    standardizer: Standardizer
    manifest: dict

    def split(self, name: str) -> Examples:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def build_dataset(
    recordings,
    *,
    window: WindowSpec | None = None,
    ma: MaConfig | None = None,
    split: SplitConfig | None = None,
    period_hint_hz: float | None = None,
) -> DatasetSplits:
    """Decompose, featurize, segment, split, and standardize recordings.

    ``recordings`` is any iterable, read in one pass; only each recording's
    tokens are kept, and the class labels are those the pass saw.  Within
    each class, segments stay in time order (recording-major) and are split
    contiguously: earliest to train, then validation, latest to test.  The
    standardizer is fitted on training tokens only and applied to all three
    splits.
    """
    window = window or WindowSpec()
    ma = ma or MaConfig()
    split = split or SplitConfig()

    per_class_segments: dict[str, list[np.ndarray]] = {}
    recording_entries = []
    for i, ts in enumerate(recordings):
        if ts.label is None:
            raise ValueError("all recordings need a label to build a dataset")
        period, decomp = _decomposed(i, ts, None, period_hint_hz)
        seq = featurize(decomp, window, ma=ma, label=ts.label)
        segments = segment_tokens(seq.tokens, split.segment_len)
        per_class_segments.setdefault(ts.label, []).extend(segments)
        recording_entries.append(
            {
                "label": ts.label,
                "n_samples": int(len(ts)),
                "period": int(period),
                "n_tokens": int(len(seq)),
                "n_segments": len(segments),
            }
        )

    labels = class_labels_for(per_class_segments)
    per_split: dict[str, list[np.ndarray]] = {which: [] for which in SPLITS}
    split_table = {}
    for name in labels:
        segments = per_class_segments[name]
        n_tr, n_va, n_te = split_counts(len(segments), split)
        per_split["train"] += segments[:n_tr]
        per_split["val"] += segments[n_tr:n_tr + n_va]
        per_split["test"] += segments[n_tr + n_va:]
        split_table[name] = {"train": n_tr, "val": n_va, "test": n_te}

    standardizer = Standardizer.fit(np.vstack(per_split["train"]))
    splits = {
        which: Examples(
            standardizer.transform(np.stack(segments)),
            np.repeat(np.arange(len(labels), dtype=np.int64),
                      [split_table[name][which] for name in labels]),
        )
        for which, segments in per_split.items()
    }

    manifest = {
        "format": FEATURES_FORMAT,
        "created": None,
        "labels": list(labels),
        "feature_names": list(FEATURE_NAMES),
        "channel_map": {k: list(v) for k, v in CHANNEL_MAP.items()},
        "window": {"length": window.length, "stride": window.stride},
        "ma": asdict(ma),
        "split": asdict(split),
        "period_hint_hz": period_hint_hz,
        "recordings": recording_entries,
        "split_counts": split_table,
    }
    return DatasetSplits(**splits, labels=labels, standardizer=standardizer, manifest=manifest)
