"""Command-line pipeline driver.

Verbs mirror the processing stages:

* ``synth``      generate a labelled synthetic recording store
* ``ingest``     load CSV / MAT recordings into the same store layout
* ``decompose``  write trend/seasonal/residual components per recording
* ``featurize``  build standardized token segments with a train/val/test split
* ``train``      fit the encoder classifier, write checkpoint and history
* ``eval``       score a checkpoint on a split, write report files
* ``report``     render a previously written report (plus training history)

``synth``, ``featurize`` and ``train`` take ``--config``: one path
(``_settings``) reads its stage sections, rejects an unknown section, key or
value type, and lets the flags given win.  Only ``synth`` and ``train`` take ``--seed``.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.  All outputs are plain .npy/.json/.csv files whose bytes depend
only on the inputs and seeds; manifests carry ``"created": null`` unless
``--stamp`` is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from .autodiff import NumericsError
from .data import (
    FAULT_CLASSES,
    SPLITS,
    SplitConfig,
    SynthConfig,
    _dump_json,
    _load_json_object,
    build_dataset,
    gen_synthetic,
    load_features,
    load_recording_csv,
    load_recordings,
    load_recordings_mat,
    save_components,
    save_features,
    save_recordings,
)
from .features import WindowSpec
from .matio import MatFormatError
from .metrics import ConfusionMatrix, EvalReport
from .model import ATTENTION_MODES, ModelConfig, TdaEncoder, check_value_types
from .movavg import MaConfig
from .train import TrainConfig, evaluate
from .train import train as fit

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _stamp(args) -> str | None:
    if getattr(args, "stamp", False):
        return datetime.now(timezone.utc).isoformat()
    return None


def _defaults(cls, *set_by_verb: str) -> dict:
    """``cls``'s settings and defaults, less those the verb itself sets."""
    return {f.name: f.default for f in fields(cls) if f.name not in set_by_verb}


# Each ``--config`` section's settings and their defaults; a flag stores its value under
# the setting's name.  ``seed`` (from ``--seed``) and ``n_classes`` (from the features'
# labels) are not settings, so a config key naming them is unknown.
_SECTIONS = {
    "synth": _defaults(SynthConfig, "seed"),
    "features": {"window_len": WindowSpec.length, "stride": WindowSpec.stride,
                 "ma_window": MaConfig.window, **_defaults(SplitConfig)},
    "model": _defaults(ModelConfig, "n_classes", "seed"),
    "train": _defaults(TrainConfig, "seed"),
}


def _settings(args, *names: str) -> list[dict]:
    """The settings given for each named section: the ``--config`` file's, then the flags'.

    The file is read once.  A section not in ``_SECTIONS``, a key its section
    lacks, or a value whose type is not the default's is a ``ValueError`` (an
    int may stand for a float; a bool is never a number).  Explicit flags win.
    """
    config = _load_json_object(args.config, "config file") if args.config else {}
    unknown = sorted(set(config) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"unknown config sections: {unknown}")
    out = []
    for name in names:
        section = config.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
        check_value_types(section, _SECTIONS[name], "config")
        flags = {key: getattr(args, key) for key in _SECTIONS[name]
                 if getattr(args, key, None) is not None}
        out.append({**section, **flags})
    return out


# ---- verbs -------------------------------------------------------------------


def _cmd_synth(args) -> int:
    [settings] = _settings(args, "synth")
    cfg = SynthConfig(**settings, seed=args.seed)
    manifest = save_recordings(
        args.out, gen_synthetic(cfg), meta={"synth_config": asdict(cfg)}, created=_stamp(args)
    )
    print(
        f"wrote {len(manifest['recordings'])} recordings "
        f"({len(FAULT_CLASSES)} classes x {cfg.recordings_per_class}) to {args.out}"
    )
    return EXIT_OK


def _ingested(sources: list[dict], fs: float, var_names):
    """The recordings of each source file in turn, read when they are reached."""
    for source in sources:
        label, path = source["label"], source["path"]
        if Path(path).suffix.lower() == ".mat":
            yield from load_recordings_mat(path, fs, label=label, var_names=var_names)
        else:
            yield load_recording_csv(path, fs, label=label)


def _cmd_ingest(args) -> int:
    sources = []
    for spec in args.input:
        label, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--input must look like LABEL=PATH, got {spec!r}")
        suffix = Path(path).suffix.lower()
        if suffix not in (".mat", ".csv"):
            raise ValueError(f"unsupported recording format {suffix!r} for {path}")
        sources.append({"label": label, "path": path})
    manifest = save_recordings(
        args.out,
        _ingested(sources, args.fs, args.var or None),
        meta={"sample_rate_hz": args.fs, "sources": sources},
        created=_stamp(args),
    )
    print(f"ingested {len(manifest['recordings'])} recordings from {len(sources)} files "
          f"to {args.out}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    manifest = save_components(args.out, load_recordings(args.store), period=args.period,
                               period_hint_hz=args.period_hint_hz, created=_stamp(args))
    print(f"decomposed {len(manifest['recordings'])} recordings to {args.out}")
    return EXIT_OK


def _cmd_featurize(args) -> int:
    [given] = _settings(args, "features")
    kwargs = dict(_SECTIONS["features"], **given)
    window = WindowSpec(length=kwargs.pop("window_len"), stride=kwargs.pop("stride"))
    ma = MaConfig(window=kwargs.pop("ma_window"))
    split = SplitConfig(**kwargs)
    dataset = build_dataset(load_recordings(args.store), window=window, ma=ma, split=split,
                            period_hint_hz=args.period_hint_hz)
    dataset.manifest["created"] = _stamp(args)
    save_features(args.out, dataset)
    print(
        f"featurized {len(dataset.manifest['recordings'])} recordings -> "
        f"{len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} train/val/test segments "
        f"of {split.segment_len} tokens in {args.out}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = load_features(args.features)
    model_kwargs, train_kwargs = _settings(args, "model", "train")
    longest = max(split.tokens.shape[1] for split in (dataset.train, dataset.val, dataset.test))
    model_kwargs.setdefault("t_max", max(ModelConfig.t_max, longest))
    model_cfg = ModelConfig(**model_kwargs, n_classes=len(dataset.labels), seed=args.seed)
    train_cfg = TrainConfig(**train_kwargs, seed=args.seed)

    model = TdaEncoder(model_cfg)
    result = fit(model, dataset.train, dataset.val, train_cfg)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "checkpoint.json", dict(model.to_dict(), labels=list(dataset.labels)))
    _dump_json(outdir / "history.json", asdict(result))
    _dump_json(
        outdir / "train_manifest.json",
        {
            "created": _stamp(args),
            "labels": list(dataset.labels),
            "model_config": asdict(model_cfg),
            "train_config": asdict(train_cfg),
            "result": asdict(result),
        },
    )
    print(
        f"trained {model_cfg.attention} model for {result.epochs_run} epochs "
        f"(best epoch {result.best_epoch}, val loss {result.best_val_loss:.6f}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = load_features(args.features)
    checkpoint = _load_json_object(args.checkpoint, "checkpoint")
    try:
        model = TdaEncoder.from_dict(checkpoint)
    except ValueError as exc:
        raise ValueError(f"checkpoint {args.checkpoint}: {exc}") from None
    labels = list(dataset.labels)
    if checkpoint.get("labels", labels) != labels or model.cfg.n_classes != len(labels):
        raise ValueError(f"checkpoint {args.checkpoint} ({model.cfg.n_classes} classes, labels "
                         f"{checkpoint.get('labels')}) does not fit {args.features} ({labels})")
    report, mean_loss = evaluate(model, dataset.split(args.split), labels)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = dict(report.to_dict(), split=args.split, mean_loss=mean_loss)
    payload["created"] = _stamp(args)
    _dump_json(outdir / "report.json", payload)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "report.txt").write_text(report.to_text() + "\n")
    print(report.to_text())
    return EXIT_OK


# The keys `report` reads, each with a value of its JSON type (an int may stand for a float)
_REPORT_KEYS = {"labels": [], "confusion_matrix": [], "split": "", "mean_loss": 0.0}
_HISTORY_KEYS = {"epochs_run": 0, "best_epoch": 0, "best_val_loss": 0.0, "stopped_early": False}
# What every `eval` and `train` run writes, as (key, rule, test of the object), checked in order
_REPORT_RULES = [
    ("labels", "hold strings", lambda r: all(type(label) is str for label in r["labels"])),
    ("labels", "hold distinct names", lambda r: len(set(r["labels"])) == len(r["labels"])),
    ("mean_loss", "be >= 0", lambda r: r["mean_loss"] >= 0),
]
_HISTORY_RULES = [
    ("epochs_run", "be >= 1", lambda h: h["epochs_run"] >= 1),
    ("best_epoch", "lie in [0, epochs_run)", lambda h: 0 <= h["best_epoch"] < h["epochs_run"]),
    ("best_val_loss", "be >= 0", lambda h: h["best_val_loss"] >= 0),
]


def _load_typed(path, what: str, keys: dict, optional: tuple, rules: list) -> dict:
    """A JSON object holding every key of ``keys`` but the ``optional`` ones, each of its type.

    Each present key must also pass its ``rules``.  Anything else is a
    ``ValueError`` that names ``what``, the file and the key.
    """
    obj = _load_json_object(path, what)
    missing = [key for key in keys if key not in obj and key not in optional]
    if missing:
        raise ValueError(f"{what} {path} has no {missing}")
    check_value_types({key: obj[key] for key in keys if key in obj}, keys, f"{what} {path}")
    for key, rule, holds in rules:
        if key in obj and not holds(obj):
            raise ValueError(f"{what} {path} {key!r} must {rule}, got {obj[key]!r}")
    return obj


def _cmd_report(args) -> int:
    payload = _load_typed(args.input, "report", _REPORT_KEYS, ("split", "mean_loss"),
                          _REPORT_RULES)
    try:
        matrix = ConfusionMatrix(counts=payload["confusion_matrix"],
                                 labels=tuple(payload["labels"]))
    except ValueError as exc:
        raise ValueError(f"report {args.input} 'confusion_matrix': {exc}") from None
    lines = [EvalReport.from_matrix(matrix).to_text()]
    if "split" in payload:
        lines.append(f"split: {payload['split']}")
    if "mean_loss" in payload:
        lines.append(f"mean loss: {payload['mean_loss']:.6f}")
    if args.history:
        history = _load_typed(args.history, "history", _HISTORY_KEYS, ("stopped_early",),
                              _HISTORY_RULES)
        lines.append(
            f"training: {history['epochs_run']} epochs, "
            f"best epoch {history['best_epoch']} "
            f"(val loss {history['best_val_loss']:.6f})"
            + (", stopped early" if history.get("stopped_early") else "")
        )
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


# ---- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdafault", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def common(p, out_help: str, seed=False, config=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        if config:
            p.add_argument("--config", help="JSON config file with per-stage sections")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument(
            "--stamp",
            action="store_true",
            help="record the current UTC time in manifests (off by default)",
        )

    def setting(p, section: str, flag: str, key: str, what: str, **kw):
        """A flag that sets ``key`` of the config ``section``, typed like its default."""
        default = _SECTIONS[section][key]
        p.add_argument(flag, type=type(default), dest=key, help=f"{what} (default {default})", **kw)

    p = sub.add_parser("synth", help="generate a synthetic recording store")
    common(p, "output store directory", seed=True, config=True)
    setting(p, "synth", "--fs", "sample_rate_hz", "sample rate in Hz")
    setting(p, "synth", "--duration", "duration_s", "seconds per recording")
    setting(p, "synth", "--recordings", "recordings_per_class", "recordings per class")
    setting(p, "synth", "--noise-sigma", "noise_sigma", "Gaussian noise level")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="load CSV/MAT recordings into a store")
    common(p, "output store directory")
    p.add_argument("--fs", type=float, required=True, help="sample rate of the recordings")
    p.add_argument(
        "--input",
        action="append",
        required=True,
        metavar="LABEL=PATH",
        help="labelled recording file (.csv or .mat); repeatable",
    )
    p.add_argument(
        "--var", action="append", help="MAT variable name(s) to read; repeatable"
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("decompose", help="write trend/seasonal/residual components")
    common(p, "output components directory")
    p.add_argument("--store", required=True, help="input recording store")
    period = p.add_mutually_exclusive_group()
    period.add_argument("--period", type=int, help="fixed cycle length in samples")
    period.add_argument("--period-hint-hz", type=float, help="known cycle frequency in Hz")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("featurize", help="build standardized, split token segments")
    common(p, "output features directory", config=True)
    p.add_argument("--store", required=True, help="input recording store")
    setting(p, "features", "--window-len", "window_len", "window length in samples")
    setting(p, "features", "--stride", "stride", "window stride in samples")
    setting(p, "features", "--ma-window", "ma_window", "residual smoother window")
    setting(p, "features", "--segment-len", "segment_len", "tokens per training segment")
    setting(p, "features", "--train-frac", "train_fraction", "training fraction")
    setting(p, "features", "--val-frac", "val_fraction", "validation fraction")
    p.add_argument("--period-hint-hz", type=float, help="known cycle frequency in Hz")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="fit the encoder classifier")
    common(p, "output model directory", seed=True, config=True)
    p.add_argument("--features", required=True, help="features directory")
    setting(p, "model", "--attention", "attention", "attention variant", choices=ATTENTION_MODES)
    setting(p, "model", "--d-model", "d_model", "model width")
    setting(p, "model", "--heads", "heads", "attention heads")
    setting(p, "model", "--layers", "layers", "encoder layers")
    setting(p, "model", "--dropout", "dropout_rate", "dropout rate")
    setting(p, "train", "--lr", "learning_rate", "learning rate")
    setting(p, "train", "--batch-size", "batch_size", "batch size")
    setting(p, "train", "--epochs", "max_epochs", "epoch cap")
    setting(p, "train", "--patience", "patience", "early-stop patience")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on one split")
    common(p, "output report directory")
    p.add_argument("--features", required=True, help="features directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    p.add_argument("--split", choices=SPLITS, default="test", help="split to score")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="render a written report")
    p.add_argument("--input", required=True, help="report.json from eval")
    p.add_argument("--history", help="history.json from train (optional)")
    p.add_argument("--out", help="also write the rendered text here")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"tdafault: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MatFormatError as exc:
        print(f"tdafault: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"tdafault: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
