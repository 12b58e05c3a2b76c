"""Deterministic training loop for the encoder classifier.

Optimization is Adam with bias correction.  Each minibatch is one graph
with one backward pass: the sum of its per-sample losses scaled by 1/batch.
Datasets are :class:`~tdafault.data.Examples`, whose stacked ``(N, T, F)``
tokens are sliced directly into batches.  Epochs shuffle with a generator
seeded from the run seed, and early stopping tracks validation loss (scored
by :func:`evaluate`) with a patience window; the parameters that scored the
best validation loss are restored at the end.  Given the same seed, data,
and configs, two runs produce bit-identical histories and parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import EvalReport, evaluate_predictions
from .model import TdaEncoder

__all__ = ["TrainConfig", "TrainResult", "Adam", "train", "evaluate"]

EVAL_CHUNK = 32  # sequences per forward pass in evaluate


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must lie in [0, inf), got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must lie in (0, inf), got {self.eps}")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class Adam:
    """Adam with bias-corrected first/second moments over named tensors."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        """One update, ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``."""
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += g * (1.0 - cfg.beta1)
            v *= cfg.beta2
            v += g * (1.0 - cfg.beta2) * g
            p.data -= m / bc1 * cfg.learning_rate / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    stopped_early: bool = False


def _backward_batch(model: TdaEncoder, tokens: np.ndarray, labels: np.ndarray) -> float:
    """Back-propagate one minibatch as a single graph; returns its summed loss.

    The graph is freed on return, before the next batch builds its own.
    """
    loss = model.loss(tokens, labels, training=True)
    ad.scale(loss, 1.0 / len(labels)).backward()
    return loss.item()


def train(model: TdaEncoder, train_data, val_data, cfg: TrainConfig) -> TrainResult:
    """Fit ``model`` in place; returns the per-epoch history and best epoch."""
    params = model.parameters()
    opt = Adam(params, cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    result = TrainResult()
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    bad_epochs = 0

    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(train_data))
        running = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            ad.zero_grad(params.values())
            running += _backward_batch(model, train_data.tokens[batch],
                                       train_data.labels[batch])
            opt.step()

        report, val_loss = evaluate(model, val_data, range(model.cfg.n_classes))
        result.history.append(
            {
                "epoch": epoch,
                "train_loss": running / len(train_data),
                "val_loss": val_loss,
                "val_accuracy": report.overall_accuracy,
            }
        )
        result.epochs_run = epoch + 1

        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                result.stopped_early = True
                break

    for name, p in params.items():
        p.data = best_snapshot[name]
    return result


def evaluate(model: TdaEncoder, data, labels) -> tuple[EvalReport, float]:
    """Score a dataset; returns the metric report and the mean loss.

    Sequences run through the batched forward in chunks of ``EVAL_CHUNK``
    under :func:`~tdafault.autodiff.no_grad`: no graph is built and
    parameter gradients are left as they are.
    """
    tokens, y_true = data.tokens, data.labels
    y_pred = np.empty(len(y_true), dtype=np.int64)
    total = 0.0
    with ad.no_grad():
        for start in range(0, len(y_true), EVAL_CHUNK):
            chunk = slice(start, start + EVAL_CHUNK)
            logits = model.forward(tokens[chunk])
            total += ad.cross_entropy_logits(logits, y_true[chunk]).item()
            y_pred[chunk] = np.argmax(logits.data, axis=1)
    return evaluate_predictions(y_true, y_pred, labels), total / len(y_true)
