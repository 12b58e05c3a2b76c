"""Spans around tdafault's public callables, installed from outside the package.

The benchmark measures the package as shipped, so it cannot add timers
inside it.  Instead :class:`Tracer` replaces each traced callable with a
timing wrapper for the length of a ``with tracer.installed():`` block and
puts the originals back afterwards.  A callable is replaced everywhere it is
bound: in its own module, in every ``tdafault`` module that imported it by
name (``data`` imports ``estimate_period``, ``cli`` imports ``train`` as
``fit``) and in the package namespace, so nested calls are seen too.

Each span records calls, inclusive time and self time (inclusive minus the
time of the spans it directly encloses).  Spans are keyed by the run phase
(``setup`` or ``timed``) so set-up work can be told apart from the timed
part.  Everything stays in memory until the run prints it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from tdafault.autodiff import op_catalog
from tdafault.data import shaft_period_samples

PHASES = ("setup", "timed")


def _period_hook(tracer, args, result):
    ts = args[0]
    tracer.count("decompose.estimate_period.samples", len(ts))
    # Every recording in this benchmark comes from the generator at its
    # default shaft rate, so the true period is known.
    if result == shaft_period_samples(ts.sample_rate_hz):
        tracer.count("decompose.period_match")


def _windows_hook(tracer, args, result):
    tracer.count("features.featurize.windows", len(result))


def _mat_bytes_hook(tracer, args, result):
    tracer.count("matio.read_mat.bytes", os.path.getsize(args[0]))


def _op_hook(tracer, args, result):
    if tracer.is_open("model.forward"):
        tracer.count("autodiff.ops_in_forward")


# (module, attribute path, span name, hook run after each call)
TARGETS = [
    ("data", "gen_synthetic", "data.gen_synthetic", None),
    ("data", "save_recordings", "data.save_recordings", None),
    ("data", "load_recordings", "data.load_recordings", None),
    ("data", "load_recordings_mat", "data.load_recordings_mat", None),
    ("data", "build_dataset", "data.build_dataset", None),
    ("decompose", "estimate_period", "decompose.estimate_period", _period_hook),
    ("decompose", "decompose_additive", "decompose.decompose_additive", None),
    ("features", "featurize", "features.featurize", _windows_hook),
    ("features", "Standardizer.fit", "features.standardize", None),
    ("features", "Standardizer.transform", "features.standardize", None),
    ("matio", "read_mat", "matio.read_mat", _mat_bytes_hook),
    ("matio", "write_mat", "matio.write_mat", None),
    ("model", "TdaEncoder.forward", "model.forward", None),
    ("autodiff", "Tensor.backward", "autodiff.backward", None),
    ("train", "Adam.step", "train.adam_step", None),
    ("train", "train", "train.train", None),
    ("train", "evaluate", "train.evaluate", None),
    ("metrics", "evaluate_predictions", "metrics.evaluate_predictions", None),
] + [("autodiff", op, f"autodiff.op.{op}", _op_hook) for op in op_catalog()]


class Tracer:
    """Span and counter store; active only inside :meth:`installed`."""

    def __init__(self):
        self.phase = "setup"
        # (phase, span) -> [calls, inclusive s, self s]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # span -> inclusive s spent inside train.train, for the training split
        self.in_training: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()

    # ---- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def _enter(self, name: str) -> list[float]:
        frame = [0.0]  # time of directly enclosed spans
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, name: str, frame: list[float], elapsed: float) -> None:
        self._stack.pop()
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][0] += elapsed
        st = self.stats[(self.phase, name)]
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[0]
        if self._open["train.train"] and name != "train.train":
            self.in_training[name] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, perf_counter() - t0)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, perf_counter() - t0)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # ---- installing -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced callable while the block runs."""
        undo = []
        try:
            for module_name, path, name, hook in TARGETS:
                module = importlib.import_module(f"tdafault.{module_name}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        new = self._wrap(name, raw, hook)
                    setattr(owner, attr, new)
                    undo.append((owner, attr, raw))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "tdafault" and not mod_name.startswith("tdafault."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # ---- reading ----------------------------------------------------------

    def total(self, name: str, field: int) -> float:
        """Sum of one stats field (0 calls, 1 inclusive s, 2 self s) over phases."""
        return sum(self.stats[(p, name)][field] for p in PHASES if (p, name) in self.stats)
