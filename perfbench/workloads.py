"""The benchmark workloads: set-up, timed part and output checks.

Each workload drives tdafault only through its public API or the
in-process CLI (``tdafault.cli.main``).  Every input is generated from the
run seed, so the same seed gives the same inputs.  ``Scale`` holds the
sizes; ``SMOKE`` shrinks them so the whole harness can be exercised in
seconds.

Why these workloads:

* ``desk_chain`` is the README's batch chain at desk scale.  Training is
  about 70% of it, so this is where a faster model engine shows; its
  front end runs with the period hint, so a faster period search does not.
* ``fullrate_ingest`` is the front end at 48 kHz with no period hint.  The
  O(n^2) autocorrelation in ``estimate_period`` dominates it; it never
  touches the model, so a model change should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tdafault as T
from tdafault import cli


@dataclass(frozen=True)
class Scale:
    # desk_chain
    desk_recordings: int = 4
    desk_duration_s: float = 8.0
    desk_epochs: int = 6
    # fullrate_ingest
    fullrate_hz: float = 48000.0
    fullrate_duration_s: float = 2.0


FULL = Scale()
SMOKE = Scale(
    desk_recordings=1,
    desk_duration_s=2.0,
    desk_epochs=1,
    fullrate_duration_s=0.25,
)

ACCURACY_FLOOR = 0.90  # acceptance criterion 5
RECONSTRUCT_TOL = 1e-12
FULLRATE_WINDOW = T.WindowSpec(length=2048, stride=1024)


def _start_another(jobs_s: list, elapsed: float, seconds: float) -> bool:
    """Batch loops run whole jobs: at least one, then more while they fit.

    A job that would end past ``seconds``, at the last job's duration, is not
    started, so a run stops near ``seconds`` without cutting a job short.
    """
    return not jobs_s or elapsed + jobs_s[-1] <= seconds


class NullTracer:
    """Stands in for :class:`tracer.Tracer` in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


@dataclass
class Result:
    """What one timed part produced.

    ``jobs_s`` holds the wall time of each whole job and ``rates`` each
    job's throughput in items per second; the run reports the median of
    each, so one job slowed by the host does not move the result.
    """

    jobs_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    items: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def merge(self, other: "Result") -> "Result":
        return Result(
            jobs_s=self.jobs_s + other.jobs_s,
            rates=self.rates + other.rates,
            items=self.items + other.items,
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            notes={**self.notes, **other.notes},
        )


# ---- desk_chain ----------------------------------------------------------------


class DeskChain:
    """synth -> featurize -> train -> eval through the in-process CLI."""

    name = "desk_chain"
    item = "train segment-epochs"

    def __init__(self, scale: Scale, seed: int, root: Path):
        self.scale = scale
        self.seed = seed
        self.root = root

    def setup(self, workdir: Path, tracer) -> dict:
        # What every CLI invocation pays before its verb runs: a fresh
        # interpreter importing the package.  Measured in a child process
        # because this process has imported it already.
        subprocess.run(
            [sys.executable, "-c", "import tdafault.cli"],
            cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(self.root / "src")},
            check=True,
            timeout=120,
        )
        return {}

    def run(self, state: dict, workdir: Path, seconds: float, tracer) -> Result:
        sc = self.scale
        synth = T.SynthConfig(seed=self.seed)
        res = Result()
        chains = 0
        t_start = perf_counter()
        while _start_another(res.jobs_s, perf_counter() - t_start, seconds):
            d = workdir / f"chain{chains}"
            store, feats, model, report = (str(d / s) for s in ("store", "feats", "model", "report"))
            verbs = [
                ["synth", "--out", store, "--seed", str(self.seed),
                 "--recordings", str(sc.desk_recordings), "--duration", repr(sc.desk_duration_s)],
                ["featurize", "--store", store, "--out", feats,
                 "--period-hint-hz", repr(synth.shaft_hz)],
                # patience above the epoch count: early stopping cannot cut the work
                ["train", "--features", feats, "--out", model, "--seed", str(self.seed),
                 "--epochs", str(sc.desk_epochs), "--patience", str(sc.desk_epochs + 1)],
                ["eval", "--features", feats, "--checkpoint", f"{model}/checkpoint.json",
                 "--out", report],
            ]
            verb_s = {}
            t_chain = perf_counter()
            for argv in verbs:
                t0 = perf_counter()
                with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                verb_s[argv[0]] = perf_counter() - t0
                res.attempted += 1
                res.failed += code != 0
                if code != 0:
                    break
            chain_s = perf_counter() - t_chain
            chains += 1
            res.jobs_s.append(chain_s)

            # output check: the criterion-5 accuracy floor on the test split
            res.attempted += 1
            report_path = Path(report) / "report.json"
            if not report_path.exists():
                res.failed += 1
                continue
            accuracy = json.loads(report_path.read_text())["overall_accuracy"]
            res.notes.setdefault("test_accuracy", []).append(accuracy)
            res.failed += accuracy < ACCURACY_FLOOR
            tracer.count("cli.checkpoint_bytes", (Path(model) / "checkpoint.json").stat().st_size)

            manifest = json.loads((Path(feats) / "manifest.json").read_text())
            history = json.loads((Path(model) / "history.json").read_text())
            n_train = sum(c["train"] for c in manifest["split_counts"].values())
            items = n_train * history["epochs_run"]
            res.items += items
            res.rates.append(items / verb_s["train"])
            res.notes["train_segments"] = n_train
        return res


# ---- fullrate_ingest -----------------------------------------------------------


class FullrateIngest:
    """MAT files -> period (no hint) -> decomposition -> tokens -> standardized."""

    name = "fullrate_ingest"
    item = "samples"

    def __init__(self, scale: Scale, seed: int, root: Path):
        self.scale = scale
        self.seed = seed

    def setup(self, workdir: Path, tracer) -> dict:
        sc = self.scale
        cfg = T.SynthConfig(
            sample_rate_hz=sc.fullrate_hz,
            duration_s=sc.fullrate_duration_s,
            recordings_per_class=1,
            seed=self.seed,
        )
        files = []
        for i, ts in enumerate(T.gen_synthetic(cfg)):
            path = workdir / f"rec{i:02d}.mat"
            T.write_mat(path, {"x": ts.samples}, compress=True)
            files.append((path, ts.label, ts.samples))
        return {"files": files}

    def run(self, state: dict, workdir: Path, seconds: float, tracer) -> Result:
        res = Result()
        periods = []
        t_start = perf_counter()
        while _start_another(res.jobs_s, perf_counter() - t_start, seconds):
            self._one_pass(state["files"], res, periods)
        res.notes["estimated_periods"] = sorted(set(periods))
        return res

    def _one_pass(self, files, res: Result, periods: list) -> None:
        """One timed pass over the store, then its output checks.

        A pass keeps its outputs only in locals, so none of them is alive
        during the next pass and peak memory does not grow with the number
        of passes a run fits in.
        """
        ma = T.MaConfig(window=16)
        loaded = []
        t0 = perf_counter()
        for path, label, _ in files:
            try:
                ts = T.load_recordings_mat(path, self.scale.fullrate_hz, label=label)[0]
                period = T.estimate_period(ts)
                decomp = T.decompose_additive(ts, period)
                seq = T.featurize(decomp, FULLRATE_WINDOW, ma=ma, label=label)
            except (ValueError, KeyError, OSError, T.MatFormatError) as exc:
                print(f"perfbench: {path.name}: {exc}", file=sys.stderr)
                loaded.append(None)
                continue
            loaded.append((ts, decomp, seq))
        good = [x for x in loaded if x is not None]
        standardized = []
        if good:
            standardizer = T.Standardizer.fit(np.vstack([seq.tokens for _, _, seq in good]))
            standardized = [standardizer.transform(seq.tokens) for _, _, seq in good]
        elapsed = perf_counter() - t0

        res.jobs_s.append(elapsed)
        res.rates.append(sum(len(ts) for ts, _, _ in good) / elapsed)
        res.attempted += len(loaded) + 1
        res.failed += len(loaded) - len(good)
        # output checks, outside the timed region
        for (_, _, original), item in zip(files, loaded):
            if item is None:
                continue
            ts, decomp, seq = item
            periods.append(decomp.period)
            res.items += len(ts)
            ok = (
                np.array_equal(ts.samples, original)
                and np.max(np.abs(decomp.reconstruct() - ts.samples)) <= RECONSTRUCT_TOL
                and len(seq) == FULLRATE_WINDOW.count(len(ts))
            )
            res.failed += not ok
        res.failed += not standardized or not all(np.all(np.isfinite(z)) for z in standardized)


WORKLOADS = {cls.name: cls for cls in (DeskChain, FullrateIngest)}
