"""tdafault benchmark: one workload per process, metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk_chain --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload fullrate_ingest --seed 1 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The metric names printed in the final JSON line are the ones
``BENCHMARK.json`` registers; the lines before it hold the run's
environment and a readable table of everything measured.  ``--smoke``
runs every workload at tiny sizes in both modes and checks that every
registered metric appears with its unit.

The package is imported from ``src/`` next to this directory, never from
an installed copy, and BLAS is pinned to one thread.  Scratch files go to
a temporary directory under ``.perfbench_tmp/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
CLI_VERBS = ("synth", "featurize", "train", "eval")


def _pin_threads() -> None:
    # Must run before numpy is imported anywhere in this process.
    os.environ["TDA_FAULT_THREADS"] = "1"
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _import_package():
    """Import tdafault from ./src; None when the checkout has no package."""
    if not (SRC / "tdafault" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import tdafault

    if Path(tdafault.__file__).resolve().parent != SRC / "tdafault":
        return None
    return tdafault


# ---- environment record ---------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tdafault").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("TDA_FAULT_THREADS",) + BLAS_VARS},
    }


# ---- one workload ---------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, workdir: Path, seconds: float):
    """Uninstrumented run; returns (metrics, result, readable notes)."""
    from workloads import NullTracer

    null = NullTracer()
    setup_times = []
    for k in range(SETUP_REPS):
        state = None  # let the previous set-up's objects go
        d = workdir / f"setup{k}"
        d.mkdir()
        t0 = perf_counter()
        state = wl.setup(d, null)
        setup_times.append(perf_counter() - t0)
    gc.collect()
    res = wl.run(state, workdir / "run", seconds, null)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(res.jobs_s), "s"),
        "items_per_s": (statistics.median(res.rates) if res.rates else 0.0, "items/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    info = {
        "setup_runs_s": setup_times,
        "jobs_s": res.jobs_s,
        "items": res.items,
        "item": wl.item,
        "error_rate": res.failed / max(res.attempted, 1),
        **res.notes,
    }
    return metrics, res, info


def per_layer(wl, workdir: Path, seconds: float):
    """Traced run: set-up and timed part traced, plus an untraced timed part.

    The untraced and the traced timed parts get half of ``seconds`` each, so
    a traced run takes about as long as an untraced one.
    """
    from tracer import TARGETS, Tracer
    from workloads import NullTracer

    tracer = Tracer()
    (workdir / "setup").mkdir()
    with tracer.installed():
        state = wl.setup(workdir / "setup", tracer)
    gc.collect()
    untraced = wl.run(state, workdir / "untraced", seconds / 2, NullTracer())
    tracer.phase = "timed"
    gc.collect()
    with tracer.installed():
        traced = wl.run(state, workdir / "traced", seconds / 2, tracer)

    spans = sorted({name for _, _, name, _ in TARGETS} | {f"cli.{v}" for v in CLI_VERBS})
    metrics = {}
    for name in spans:
        metrics[f"{name}.s"] = (tracer.total(name, 2), "s")
        metrics[f"{name}.calls"] = (tracer.total(name, 0), "count")
    c = tracer.counters
    n_periods = tracer.total("decompose.estimate_period", 0)
    n_forward = tracer.total("model.forward", 0)
    metrics.update(
        {
            "decompose.estimate_period.samples": (c["decompose.estimate_period.samples"], "count"),
            "decompose.period_match_frac": (
                c["decompose.period_match"] / n_periods if n_periods else 0.0, "frac"),
            "features.featurize.windows": (c["features.featurize.windows"], "count"),
            "matio.read_mat.bytes": (c["matio.read_mat.bytes"], "bytes"),
            "cli.checkpoint_bytes": (c["cli.checkpoint_bytes"], "bytes"),
            "autodiff.ops_per_forward": (
                c["autodiff.ops_in_forward"] / n_forward if n_forward else 0.0, "count"),
            "trace.untraced_job_s": (statistics.median(untraced.jobs_s), "s"),
            "trace.traced_job_s": (statistics.median(traced.jobs_s), "s"),
        }
    )
    lines = _trace_table(tracer, spans, metrics)
    return metrics, untraced.merge(traced), lines


def _trace_table(tracer, spans, metrics) -> list[str]:
    lines = [f"{'span':40s} {'setup self s':>13s} {'timed self s':>13s} {'incl s':>10s} {'calls':>9s}"]
    for name in spans:
        calls = tracer.total(name, 0)
        if not calls:
            continue
        setup_self = tracer.stats[("setup", name)][2] if ("setup", name) in tracer.stats else 0.0
        timed_self = tracer.stats[("timed", name)][2] if ("timed", name) in tracer.stats else 0.0
        lines.append(
            f"{name:40s} {setup_self:13.4f} {timed_self:13.4f} "
            f"{tracer.total(name, 1):10.4f} {calls:9d}"
        )
    untraced = metrics["trace.untraced_job_s"][0]
    traced = metrics["trace.traced_job_s"][0]
    lines.append(
        f"tracing overhead per job: {traced - untraced:+.3f} s "
        f"({(traced / untraced - 1) * 100:+.1f}% of {untraced:.3f} s untraced)"
    )
    train_s = tracer.total("train.train", 1)
    if train_s > 0:
        shares = {
            part: tracer.in_training[span] / train_s
            for part, span in (("forward", "model.forward"), ("backward", "autodiff.backward"),
                               ("adam", "train.adam_step"))
        }
        shares["other"] = 1.0 - sum(shares.values())
        lines.append(
            f"training split of {train_s:.3f} s in train.train: "
            + ", ".join(f"{k} {v * 100:.1f}%" for k, v in shares.items())
        )
    return lines


def run_one(args, scale, spec) -> tuple[dict, object, list[str]]:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](scale, args.seed, ROOT)
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent))
    try:
        if args.trace:
            computed, res, lines = per_layer(wl, workdir, args.seconds)
            wanted = spec["per_layer"]
        else:
            computed, res, info = end_to_end(wl, workdir, args.seconds)
            lines = [f"{k}: {v}" for k, v in info.items()]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines.append(f"{'metric':40s} {'value':>16s}  unit")
    lines += [f"{k:40s} {v:16.6f}  {u}" for k, (v, u) in sorted(computed.items())]
    metrics = {}
    for entry in wanted:
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit!r}, registered {entry['unit']!r}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": res.failed == 0,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": metrics,
    }
    return result, res, lines


def smoke(spec) -> int:
    from workloads import SMOKE, WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.5, trace=trace)
            result, _, _ = run_one(args, SMOKE, spec)
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
            good = not missing and not bad and result["attempted"] >= 1
            ok &= good
            print(
                f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'} "
                f"({len(result['metrics'])} metrics, attempted {result['attempted']}, "
                f"failed {result['failed']}; missing {missing}, non-finite {bad})"
            )
    print("smoke:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("desk_chain", "fullrate_ingest"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and mode")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _pin_threads()
    if _import_package() is None:
        print(f"perfbench: no tdafault package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)

    from workloads import FULL

    print("env " + json.dumps(environment(args), sort_keys=True))
    result, _, lines = run_one(args, FULL, spec)
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
