"""Transformer encoder classifier with temporal-decomposition attention.

The encoder embeds the residual-channel features of each token (plus
sinusoidal positions) into the main stream that queries and keys are drawn
from, and embeds the trend and seasonal channels into two static value
sources.  Every layer/head then attends with the biased two-branch rule from
:mod:`tdafault.attention`, built out of the autodiff primitives so the whole
model trains by reverse mode.

Each attention parameter is one whole matrix: head ``h`` owns column block
``h`` of ``w_q``/``w_k``/``w_vt``/``w_vs``, row block ``h`` of ``w_o`` and row
``h`` of the ``(heads, t_max)`` raw bias tables ``a``, used as
``alpha = exp(a)`` for positivity.  The biases start at zero, so a fresh
model is exactly equivalent to one running standard attention over the sum
of the two value sources.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import CHANNEL_MAP

__all__ = ["ModelConfig", "TdaEncoder", "check_value_types"]

ATTENTION_MODES = ("tda", "standard")
CHECKPOINT_VERSION = 2
# Format 1 stored attention tensors per head (``<name>.<h>``), joined along these axes.
_V1_HEAD_AXIS = {"w_q": 1, "w_k": 1, "w_vt": 1, "w_vs": 1, "a_trend": 0, "a_season": 0, "w_o": 0}


@dataclass(frozen=True)
class ModelConfig:
    """Encoder hyperparameters (desk-scale defaults)."""

    d_model: int = 32
    d_k: int = 16
    d_v: int = 16
    heads: int = 2
    layers: int = 2
    n_classes: int = 10
    t_max: int = 64
    dropout_rate: float = 0.1
    seed: int = 0
    attention: str = "tda"
    ffn_mult: int = 2

    def __post_init__(self) -> None:
        if self.heads < 1 or self.layers < 1:
            raise ValueError("heads and layers must be >= 1")
        for name in ("d_model", "d_k", "d_v"):
            val = getattr(self, name)
            if val % self.heads != 0:
                raise ValueError(f"{name}={val} not divisible by heads={self.heads}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, got {self.attention!r}")
        if self.ffn_mult < 1:
            raise ValueError(f"ffn_mult must be >= 1, got {self.ffn_mult}")


def check_value_types(values: dict, defaults: dict, what: str) -> None:
    """Reject a value whose type is not its default's.

    An int may stand for a float; a bool is never a number.  ``what`` names
    the keys in the error.
    """
    for key, value in values.items():
        want = type(defaults[key])
        if type(value) is not want and not (want is float and type(value) is int):
            raise ValueError(f"{what} {key!r} must be {want.__name__}, got {value!r}")


def sinusoidal_positions(t_max: int, d_model: int) -> np.ndarray:
    """Standard sin/cos positional table, (t_max, d_model)."""
    pos = np.arange(t_max, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    table = np.empty((t_max, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _param(rng: np.random.Generator, fan_in: int, fan_out: int, blocks=1, axis=1) -> Tensor:
    """Glorot-normal ``(fan_in, fan_out)`` blocks, drawn in turn and joined along ``axis``."""
    std = np.sqrt(2.0 / (fan_in + fan_out))
    draws = [rng.normal(0.0, std, size=(fan_in, fan_out)) for _ in range(blocks)]
    return Tensor(np.concatenate(draws, axis=axis), requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class TdaEncoder:
    """Trainable encoder; one instance owns its parameters and dropout RNG."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.channel_map = dict(CHANNEL_MAP)
        widths = {name: hi - lo for name, (lo, hi) in self.channel_map.items()}
        self.n_features = sum(widths.values())

        rng = np.random.default_rng(cfg.seed)
        heads, dk_head, dv_head = cfg.heads, cfg.d_k // cfg.heads, cfg.d_v // cfg.heads
        hidden = cfg.ffn_mult * cfg.d_model

        # Parameter dicts are keyed by checkpoint name (a layer's without ``layers.<i>.``).
        self.embed: dict[str, Tensor] = {}
        for name in ("residual", "trend", "seasonal"):
            self.embed[f"embed.{name}.w"] = _param(rng, widths[f"{name}_feats"], cfg.d_model)
            self.embed[f"embed.{name}.b"] = _zeros(cfg.d_model)
        self.layers: list[dict[str, Tensor]] = [
            {
                "attn.w_q": _param(rng, cfg.d_model, dk_head, heads),
                "attn.w_k": _param(rng, cfg.d_model, dk_head, heads),
                "attn.w_vt": _param(rng, cfg.d_model, dv_head, heads),
                "attn.w_vs": _param(rng, cfg.d_model, dv_head, heads),
                "attn.a_trend": _zeros(heads, cfg.t_max),
                "attn.a_season": _zeros(heads, cfg.t_max),
                "attn.w_o": _param(rng, dv_head, cfg.d_model, heads, axis=0),
                "ffn.w1": _param(rng, cfg.d_model, hidden),
                "ffn.b1": _zeros(hidden),
                "ffn.w2": _param(rng, hidden, cfg.d_model),
                "ffn.b2": _zeros(cfg.d_model),
            }
            for _ in range(cfg.layers)
        ]
        self.head_w = _param(rng, cfg.d_model, cfg.n_classes)
        self.head_b = _zeros(cfg.n_classes)
        self.pe = sinusoidal_positions(cfg.t_max, cfg.d_model)
        self._dropout_rng = np.random.default_rng([cfg.seed, 0xD0])

    # ---- parameter bookkeeping -------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in a stable order (drives the optimizer)."""
        out = dict(self.embed)
        for i, layer in enumerate(self.layers):
            out.update({f"layers.{i}.{name}": t for name, t in layer.items()})
        return dict(out, **{"head.w": self.head_w, "head.b": self.head_b})

    # ---- forward ----------------------------------------------------------

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Validate one (T, F) sequence or a (B, T, F) batch; returns the batch."""
        tokens = np.asarray(tokens, dtype=np.float64)
        batch = tokens[None] if tokens.ndim == 2 else tokens
        if batch.ndim != 3 or batch.shape[0] < 1 or batch.shape[2] != self.n_features:
            raise ValueError(
                f"tokens must be (T, {self.n_features}) or (B, T, {self.n_features}), "
                f"got shape {tokens.shape}"
            )
        if not 1 <= batch.shape[1] <= self.cfg.t_max:
            raise ValueError(
                f"sequence length {batch.shape[1]} outside [1, t_max={self.cfg.t_max}]"
            )
        return batch

    def _embed_channel(self, tokens: np.ndarray, name: str) -> Tensor:
        lo, hi = self.channel_map[f"{name}_feats"]
        w, b = self.embed[f"embed.{name}.w"], self.embed[f"embed.{name}.b"]
        return ad.matmul(Tensor(tokens[..., lo:hi]), w, bias=b)

    def dropout_masks(self, n_batch: int, t_len: int) -> list[np.ndarray]:
        """Scaled dropout keep-masks for a training batch of ``n_batch`` x ``t_len`` tokens.

        One ``(t_len, d_model)`` mask per sequence for each site: per layer, the
        attention output and then the FFN output.  The batch takes one draw
        of shape ``(n_batch, sites, t_len, d_model)``, so it consumes the
        dropout stream sequence by sequence and then site by site, exactly as
        running its sequences one at a time does.  Returns one C-contiguous
        ``(n_batch, t_len, d_model)`` mask per site, or an empty list when the
        dropout rate is 0.
        """
        rate = self.cfg.dropout_rate
        if rate == 0.0:
            return []
        shape = (n_batch, 2 * self.cfg.layers, t_len, self.cfg.d_model)
        draw = self._dropout_rng.random(out=ad.empty(shape))
        keep = np.divide(np.greater_equal(draw, rate, out=ad.empty(shape, np.bool_)), 1.0 - rate,
                         out=draw)
        masks = ad.empty((shape[1], n_batch) + shape[2:])
        masks[...] = keep.swapaxes(0, 1)
        return list(masks)

    @staticmethod
    def _dropout(t: Tensor, drop: list, site: int) -> Tensor:
        return ad.multiply(t, Tensor(drop[site])) if drop else t

    def _attend(self, layer: dict, x: Tensor, x_tr: Tensor, x_se: Tensor) -> Tensor:
        """One layer's attention, all heads in one pass as ``(B*heads, T, .)`` stacks."""
        heads = self.cfg.heads
        q, k, v_trend, v_season = (
            ad.split_heads(ad.matmul(src, layer[f"attn.{name}"]), heads)
            for src, name in ((x, "w_q"), (x, "w_k"), (x_tr, "w_vt"), (x_se, "w_vs"))
        )
        scores = ad.matmul(q, ad.transpose(k))
        inv_sqrt = 1.0 / np.sqrt(self.cfg.d_k // heads)
        if self.cfg.attention == "standard":
            out = ad.matmul(ad.softmax_rows(scores, inv_sqrt), ad.add(v_trend, v_season))
        else:
            out = None
            for a_raw, values in ((layer["attn.a_trend"], v_trend),
                                  (layer["attn.a_season"], v_season)):
                # exp(a)[h, :T] scales score column j, the key at position j
                biased = ad.mul_rowvec(scores, ad.exp(a_raw))
                weights = ad.softmax_rows(biased, inv_sqrt)
                branch = ad.matmul(weights, values)
                out = branch if out is None else ad.add(out, branch)
        return ad.matmul(ad.merge_heads(out, heads), layer["attn.w_o"])

    def forward(self, tokens: np.ndarray, training: bool = False) -> Tensor:
        """Run the encoder; returns the (B, n_classes) logits as a Tensor.

        ``tokens`` is a (B, T, F) batch of equal-length sequences, or one
        (T, F) sequence, which is the batch B = 1.  In training mode the
        batch draws its dropout masks with :meth:`dropout_masks`.
        """
        tokens = self._check_tokens(tokens)
        n_batch, t_len = tokens.shape[:2]
        drop = self.dropout_masks(n_batch, t_len) if training else []

        x = self._embed_channel(tokens, "residual")
        x = ad.add(x, Tensor(np.broadcast_to(self.pe[:t_len], x.shape)))
        x_tr = self._embed_channel(tokens, "trend")
        x_se = self._embed_channel(tokens, "seasonal")

        for i, layer in enumerate(self.layers):
            attn = self._attend(layer, x, x_tr, x_se)
            x = ad.layer_norm(ad.add(x, self._dropout(attn, drop, 2 * i)))
            hidden = ad.gelu(ad.matmul(x, layer["ffn.w1"], bias=layer["ffn.b1"]))
            ff = ad.matmul(hidden, layer["ffn.w2"], bias=layer["ffn.b2"])
            x = ad.layer_norm(ad.add(x, self._dropout(ff, drop, 2 * i + 1)))

        pooled = ad.mean_rows(x)
        return ad.matmul(pooled, self.head_w, bias=self.head_b)

    def loss(self, tokens: np.ndarray, target, training: bool = False) -> Tensor:
        """Summed cross-entropy: an int target for one sequence, an array for a batch."""
        return ad.cross_entropy_logits(self.forward(tokens, training=training), target)

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Class logits for one (T, F) sequence, as a plain (n_classes,) array.

        Runs under :func:`~tdafault.autodiff.no_grad`, so no graph is built.
        """
        with ad.no_grad():
            return self.forward(tokens).data[0].copy()

    def predict(self, tokens: np.ndarray) -> int:
        """Class index; ties resolve to the lowest index via argmax."""
        return int(np.argmax(self.logits(tokens)))

    # ---- checkpointing ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "params": {name: t.data.tolist() for name, t in self.parameters().items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TdaEncoder":
        version = d.get("format_version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint format_version {version!r}")
        config, stored = d["config"], d["params"]
        if not isinstance(config, dict) or not isinstance(stored, dict):
            raise ValueError("checkpoint config and params must be JSON objects")
        defaults = {name: f.default for name, f in ModelConfig.__dataclass_fields__.items()}
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise ValueError(f"unknown checkpoint config keys: {unknown}")
        check_value_types(config, defaults, "config key")
        model = cls(ModelConfig(**config))
        params = model.parameters()
        if version == 1:  # join each layer's per-head tensors into whole matrices
            stored = dict(stored)
            for i, (name, axis) in product(range(model.cfg.layers), _V1_HEAD_AXIS.items()):
                per_head = [f"layers.{i}.attn.{name}.{h}" for h in range(model.cfg.heads)]
                absent = [key for key in per_head if key not in stored]
                if absent:
                    raise ValueError(f"checkpoint is missing parameters: {absent}")
                stored[f"layers.{i}.attn.{name}"] = np.concatenate(
                    [stored.pop(key) for key in per_head], axis=axis)
        missing = set(params) ^ set(stored)
        if missing:
            raise ValueError(f"checkpoint parameter names do not match model: {sorted(missing)}")
        for name, tensor in params.items():
            try:
                arr = np.asarray(stored[name], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"checkpoint parameter {name} is not numeric: {exc}") from None
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {name}: {arr.shape} vs {tensor.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint parameter {name} holds non-finite values")
            tensor.data = arr
        return model
