"""Command-line pipeline driver.

Verbs mirror the processing stages:

* ``synth``      generate a labelled synthetic recording store
* ``ingest``     load CSV / MAT recordings into the same store layout
* ``decompose``  write trend/seasonal/residual components per recording
* ``featurize``  build standardized token segments with a train/val/test split
* ``train``      fit the encoder classifier, write checkpoint and history
* ``eval``       score a checkpoint on a split, write report files
* ``report``     render a previously written report (plus training history)

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

import numpy as np

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
    save_features,
    save_recordings,
)
from .decompose import decompose_additive, estimate_period
from .features import WindowSpec
from .matio import MatFormatError
from .metrics import ConfusionMatrix, EvalReport
from .model import ModelConfig, TdaEncoder, check_value_types
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


def _load_config(args) -> dict:
    """The ``--config`` file's sections, or ``{}`` without one."""
    return _load_json_object(args.config, "config file") if args.config else {}


def _config_section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    return dict(section)


def _defaults(cls, *set_by_verb: str) -> dict:
    """``cls``'s settings and defaults, less those the verb itself sets.

    A config key that names a setting left out here is reported as unknown.
    """
    return {f.name: f.default for f in fields(cls) if f.name not in set_by_verb}


def _merged(section: dict, defaults: dict, **flag_overrides) -> dict:
    """Config-file values overridden by the flags that were given.

    Every key must name a setting in ``defaults``, and every value must have
    its default's type, except that an int is accepted for a float.  A bool
    is never accepted for a number.
    """
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    out = dict(section)
    out.update({k: v for k, v in flag_overrides.items() if v is not None})
    check_value_types(out, defaults, "config key")
    return out


# ---- verbs -------------------------------------------------------------------


def _cmd_synth(args) -> int:
    kwargs = _merged(
        _config_section(_load_config(args), "synth"),
        _defaults(SynthConfig, "seed"),
        sample_rate_hz=args.fs,
        duration_s=args.duration,
        recordings_per_class=args.recordings,
        noise_sigma=args.noise_sigma,
    )
    kwargs["seed"] = args.seed
    cfg = SynthConfig(**kwargs)
    recordings = gen_synthetic(cfg)
    save_recordings(
        args.out, recordings, meta={"synth_config": asdict(cfg)}, created=_stamp(args)
    )
    print(
        f"wrote {len(recordings)} recordings "
        f"({len(FAULT_CLASSES)} classes x {cfg.recordings_per_class}) to {args.out}"
    )
    return EXIT_OK


def _cmd_ingest(args) -> int:
    recordings = []
    sources = []
    for spec in args.input:
        label, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--input must look like LABEL=PATH, got {spec!r}")
        suffix = Path(path).suffix.lower()
        if suffix == ".mat":
            recordings.extend(
                load_recordings_mat(path, args.fs, label=label, var_names=args.var or None)
            )
        elif suffix == ".csv":
            recordings.append(load_recording_csv(path, args.fs, label=label))
        else:
            raise ValueError(f"unsupported recording format {suffix!r} for {path}")
        sources.append({"label": label, "path": path})
    save_recordings(
        args.out,
        recordings,
        meta={"sample_rate_hz": args.fs, "sources": sources},
        created=_stamp(args),
    )
    print(f"ingested {len(recordings)} recordings from {len(sources)} files to {args.out}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    recordings = load_recordings(args.store)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, ts in enumerate(recordings):
        if args.period is not None:
            period = args.period
        else:
            period = estimate_period(ts, args.period_hint_hz)
        decomp = decompose_additive(ts, period)
        key = f"rec_{i:05d}"
        for part in ("trend", "seasonal", "residual"):
            np.save(outdir / f"{key}.{part}.npy", getattr(decomp, part))
        entries.append(
            {
                "key": key,
                "label": ts.label,
                "sample_rate_hz": float(ts.sample_rate_hz),
                "n_samples": int(len(ts)),
                "period": int(period),
                "valid_range": list(decomp.valid_range),
            }
        )
    _dump_json(
        outdir / "manifest.json",
        {"format": "tdafault-components-v1", "created": _stamp(args), "recordings": entries},
    )
    print(f"decomposed {len(entries)} recordings to {args.out}")
    return EXIT_OK


def _cmd_featurize(args) -> int:
    kwargs = _merged(
        _config_section(_load_config(args), "features"),
        {"window_len": WindowSpec.length, "stride": WindowSpec.stride,
         "ma_window": MaConfig.window, **_defaults(SplitConfig)},
        window_len=args.window_len,
        stride=args.stride,
        ma_window=args.ma_window,
        segment_len=args.segment_len,
        train_fraction=args.train_frac,
        val_fraction=args.val_frac,
    )
    window = WindowSpec(
        length=kwargs.pop("window_len", WindowSpec.length),
        stride=kwargs.pop("stride", WindowSpec.stride),
    )
    ma = MaConfig(window=kwargs.pop("ma_window", MaConfig.window))
    split = SplitConfig(**kwargs)
    recordings = load_recordings(args.store)
    dataset = build_dataset(
        recordings,
        window=window,
        ma=ma,
        split=split,
        period_hint_hz=args.period_hint_hz,
    )
    dataset.manifest["created"] = _stamp(args)
    save_features(args.out, dataset)
    print(
        f"featurized {len(recordings)} recordings -> "
        f"{len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} train/val/test segments "
        f"of {split.segment_len} tokens in {args.out}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = load_features(args.features)
    config = _load_config(args)

    model_kwargs = _merged(
        _config_section(config, "model"),
        _defaults(ModelConfig, "n_classes", "seed"),
        d_model=args.d_model,
        heads=args.heads,
        layers=args.layers,
        dropout_rate=args.dropout,
        attention=args.attention,
    )
    segment_len = dataset.manifest["split"]["segment_len"]
    model_kwargs.setdefault("t_max", max(ModelConfig.t_max, segment_len))
    model_kwargs["n_classes"] = len(dataset.labels)
    model_kwargs["seed"] = args.seed
    model_cfg = ModelConfig(**model_kwargs)

    train_kwargs = _merged(
        _config_section(config, "train"),
        _defaults(TrainConfig, "seed"),
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
    )
    train_kwargs["seed"] = args.seed
    train_cfg = TrainConfig(**train_kwargs)

    model = TdaEncoder(model_cfg)
    result = fit(model, dataset.train, dataset.val, train_cfg)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "checkpoint.json", dict(model.to_dict(), labels=list(dataset.labels)))
    _dump_json(outdir / "history.json", result.to_dict())
    _dump_json(
        outdir / "train_manifest.json",
        {
            "created": _stamp(args),
            "labels": list(dataset.labels),
            "model_config": asdict(model_cfg),
            "train_config": asdict(train_cfg),
            "result": result.to_dict(),
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


def _report_from_dict(payload: dict) -> EvalReport:
    matrix = ConfusionMatrix(
        counts=np.asarray(payload["confusion_matrix"], dtype=np.int64),
        labels=tuple(payload["labels"]),
    )
    return EvalReport.from_matrix(matrix)


def _cmd_report(args) -> int:
    payload = _load_json_object(args.input, "report")
    report = _report_from_dict(payload)
    lines = [report.to_text()]
    if "split" in payload:
        lines.append(f"split: {payload['split']}")
    if "mean_loss" in payload:
        lines.append(f"mean loss: {payload['mean_loss']:.6f}")
    if args.history:
        history = _load_json_object(args.history, "history")
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

    def common(p, out_help: str):
        p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        p.add_argument("--config", help="JSON config file with per-stage sections")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument(
            "--stamp",
            action="store_true",
            help="record the current UTC time in manifests (off by default)",
        )

    p = sub.add_parser("synth", help="generate a synthetic recording store")
    common(p, "output store directory")
    p.add_argument("--fs", type=float, help="sample rate in Hz (default 4096)")
    p.add_argument("--duration", type=float, help="seconds per recording (default 8)")
    p.add_argument("--recordings", type=int, help="recordings per class (default 4)")
    p.add_argument("--noise-sigma", type=float, help="Gaussian noise level (default 0.1)")
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
    common(p, "output features directory")
    p.add_argument("--store", required=True, help="input recording store")
    p.add_argument("--window-len", type=int, help="window length in samples (default 256)")
    p.add_argument("--stride", type=int, help="window stride in samples (default 128)")
    p.add_argument("--ma-window", type=int, help="residual smoother window (default 16)")
    p.add_argument("--segment-len", type=int, help="tokens per training segment (default 16)")
    p.add_argument("--train-frac", type=float, help="training fraction (default 0.7)")
    p.add_argument("--val-frac", type=float, help="validation fraction (default 0.15)")
    p.add_argument("--period-hint-hz", type=float, help="known cycle frequency in Hz")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="fit the encoder classifier")
    common(p, "output model directory")
    p.add_argument("--features", required=True, help="features directory")
    p.add_argument(
        "--attention",
        choices=("tda", "standard"),
        help="attention variant (default tda)",
    )
    p.add_argument("--d-model", type=int, help="model width (default 32)")
    p.add_argument("--heads", type=int, help="attention heads (default 2)")
    p.add_argument("--layers", type=int, help="encoder layers (default 2)")
    p.add_argument("--dropout", type=float, help="dropout rate (default 0.1)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--batch-size", type=int, help="batch size (default 32)")
    p.add_argument("--epochs", type=int, help="epoch cap (default 100)")
    p.add_argument("--patience", type=int, help="early-stop patience (default 10)")
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
