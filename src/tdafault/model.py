"""Transformer encoder classifier with temporal-decomposition attention.

The encoder embeds the residual-channel features of each token (plus
sinusoidal positions) into the main stream that queries and keys are drawn
from, and embeds the trend and seasonal channels into two static value
sources.  Every layer/head then attends with the biased two-branch rule from
:mod:`tdafault.attention`, built out of the autodiff primitives so the whole
model trains by reverse mode.

Per-head temporal biases are raw vectors ``a`` of length ``t_max`` used as
``alpha = exp(a)``, guaranteeing positivity; they start at zero so a fresh
model is exactly equivalent to one running standard attention over the sum
of the two value sources.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import CHANNEL_MAP

__all__ = ["ModelConfig", "TdaLayerParams", "TdaEncoder"]

ATTENTION_MODES = ("tda", "standard")
CHECKPOINT_VERSION = 1


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


@dataclass
class TdaLayerParams:
    """One encoder layer: per-head projections, temporal biases, FFN.

    Projections are stored per head (``w_q[h]`` is d_model x d_k/heads and
    ``w_o[h]`` is d_v/heads x d_model, the head's block of the output
    projection); ``a_trend[h]`` / ``a_season[h]`` are the raw (1, t_max)
    bias rows.
    """

    w_q: list
    w_k: list
    w_vt: list
    w_vs: list
    a_trend: list
    a_season: list
    w_o: list
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    heads: int = 2
    dk_head: int = 8
    dv_head: int = 8


def sinusoidal_positions(t_max: int, d_model: int) -> np.ndarray:
    """Standard sin/cos positional table, (t_max, d_model)."""
    pos = np.arange(t_max, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    table = np.empty((t_max, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _param(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, size=(fan_in, fan_out)), requires_grad=True)


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
        dk_head = cfg.d_k // cfg.heads
        dv_head = cfg.d_v // cfg.heads

        self.embed = {
            "residual": (_param(rng, widths["residual_feats"], cfg.d_model), _zeros(cfg.d_model)),
            "trend": (_param(rng, widths["trend_feats"], cfg.d_model), _zeros(cfg.d_model)),
            "seasonal": (_param(rng, widths["seasonal_feats"], cfg.d_model), _zeros(cfg.d_model)),
        }
        self.layers: list[TdaLayerParams] = []
        for _ in range(cfg.layers):
            self.layers.append(
                TdaLayerParams(
                    w_q=[_param(rng, cfg.d_model, dk_head) for _ in range(cfg.heads)],
                    w_k=[_param(rng, cfg.d_model, dk_head) for _ in range(cfg.heads)],
                    w_vt=[_param(rng, cfg.d_model, dv_head) for _ in range(cfg.heads)],
                    w_vs=[_param(rng, cfg.d_model, dv_head) for _ in range(cfg.heads)],
                    a_trend=[_zeros(1, cfg.t_max) for _ in range(cfg.heads)],
                    a_season=[_zeros(1, cfg.t_max) for _ in range(cfg.heads)],
                    w_o=[_param(rng, dv_head, cfg.d_model) for _ in range(cfg.heads)],
                    ffn_w1=_param(rng, cfg.d_model, cfg.ffn_mult * cfg.d_model),
                    ffn_b1=_zeros(cfg.ffn_mult * cfg.d_model),
                    ffn_w2=_param(rng, cfg.ffn_mult * cfg.d_model, cfg.d_model),
                    ffn_b2=_zeros(cfg.d_model),
                    heads=cfg.heads,
                    dk_head=dk_head,
                    dv_head=dv_head,
                )
            )
        self.head_w = _param(rng, cfg.d_model, cfg.n_classes)
        self.head_b = _zeros(cfg.n_classes)
        self.pe = sinusoidal_positions(cfg.t_max, cfg.d_model)
        self._dropout_rng = np.random.default_rng([cfg.seed, 0xD0])

    # ---- parameter bookkeeping -------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in a stable order (drives the optimizer)."""
        out: dict[str, Tensor] = {}
        for name, (w, b) in self.embed.items():
            out[f"embed.{name}.w"] = w
            out[f"embed.{name}.b"] = b
        for i, layer in enumerate(self.layers):
            for h in range(layer.heads):
                out[f"layers.{i}.attn.w_q.{h}"] = layer.w_q[h]
                out[f"layers.{i}.attn.w_k.{h}"] = layer.w_k[h]
                out[f"layers.{i}.attn.w_vt.{h}"] = layer.w_vt[h]
                out[f"layers.{i}.attn.w_vs.{h}"] = layer.w_vs[h]
                out[f"layers.{i}.attn.a_trend.{h}"] = layer.a_trend[h]
                out[f"layers.{i}.attn.a_season.{h}"] = layer.a_season[h]
                out[f"layers.{i}.attn.w_o.{h}"] = layer.w_o[h]
            out[f"layers.{i}.ffn.w1"] = layer.ffn_w1
            out[f"layers.{i}.ffn.b1"] = layer.ffn_b1
            out[f"layers.{i}.ffn.w2"] = layer.ffn_w2
            out[f"layers.{i}.ffn.b2"] = layer.ffn_b2
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def attention_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if ".attn." in k}

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

    def _embed_channel(self, tokens: np.ndarray, name: str, key: str) -> Tensor:
        lo, hi = self.channel_map[key]
        w, b = self.embed[name]
        return ad.add_rowvec(ad.matmul(Tensor(tokens[..., lo:hi]), w), b)

    def dropout_masks(self, lengths) -> list[list[np.ndarray]]:
        """Scaled keep-masks for a training batch, one list per sequence.

        Each sequence of length ``T`` gets a ``(T, d_model)`` mask per layer
        for the attention output, then one for the FFN output.  They are
        drawn sequence by sequence in batch order, so a batch consumes the
        dropout stream exactly as running its sequences one at a time does.
        The lists are empty when the dropout rate is 0.
        """
        rate = self.cfg.dropout_rate
        sites = 2 * self.cfg.layers if rate > 0.0 else 0
        return [
            [
                (self._dropout_rng.random((t_len, self.cfg.d_model)) >= rate) / (1.0 - rate)
                for _ in range(sites)
            ]
            for t_len in lengths
        ]

    @staticmethod
    def _dropout(t: Tensor, drop: list, site: int) -> Tensor:
        return ad.multiply(t, Tensor(drop[site])) if drop else t

    def _attend(self, layer: TdaLayerParams, h: int, x: Tensor, x_tr: Tensor,
                x_se: Tensor) -> Tensor:
        q = ad.matmul(x, layer.w_q[h])
        k = ad.matmul(x, layer.w_k[h])
        v_trend = ad.matmul(x_tr, layer.w_vt[h])
        v_season = ad.matmul(x_se, layer.w_vs[h])
        scores = ad.matmul(q, ad.transpose(k))
        inv_sqrt = 1.0 / np.sqrt(layer.dk_head)
        if self.cfg.attention == "standard":
            weights = ad.softmax_rows(ad.scale(scores, inv_sqrt))
            return ad.matmul(weights, ad.add(v_trend, v_season))
        out = None
        for a_raw, values in ((layer.a_trend[h], v_trend), (layer.a_season[h], v_season)):
            # exp(a)[:T] scales score column j, the key at position j
            biased = ad.mul_rowvec(scores, ad.exp(a_raw))
            weights = ad.softmax_rows(ad.scale(biased, inv_sqrt))
            branch = ad.matmul(weights, values)
            out = branch if out is None else ad.add(out, branch)
        return out

    def forward(self, tokens: np.ndarray, training: bool = False, masks=None) -> Tensor:
        """Run the encoder; returns the (B, n_classes) logits as a Tensor.

        ``tokens`` is a (B, T, F) batch of equal-length sequences, or one
        (T, F) sequence, which is the batch B = 1.  In training mode dropout
        uses ``masks`` from :meth:`dropout_masks` when given (a batch cut out
        of a larger one) and otherwise draws this batch's own.
        """
        tokens = self._check_tokens(tokens)
        n_batch, t_len = tokens.shape[:2]
        drop = []
        if training:
            if masks is None:
                masks = self.dropout_masks([t_len] * n_batch)
            drop = [np.stack(site) for site in zip(*masks)]

        x = self._embed_channel(tokens, "residual", "residual_feats")
        x = ad.add(x, Tensor(np.broadcast_to(self.pe[:t_len], x.shape)))
        x_tr = self._embed_channel(tokens, "trend", "trend_feats")
        x_se = self._embed_channel(tokens, "seasonal", "seasonal_feats")

        for i, layer in enumerate(self.layers):
            attn = None
            for h in range(layer.heads):
                proj = ad.matmul(self._attend(layer, h, x, x_tr, x_se), layer.w_o[h])
                attn = proj if attn is None else ad.add(attn, proj)
            x = ad.layer_norm(ad.add(x, self._dropout(attn, drop, 2 * i)))
            hidden = ad.gelu(ad.add_rowvec(ad.matmul(x, layer.ffn_w1), layer.ffn_b1))
            ff = ad.add_rowvec(ad.matmul(hidden, layer.ffn_w2), layer.ffn_b2)
            x = ad.layer_norm(ad.add(x, self._dropout(ff, drop, 2 * i + 1)))

        pooled = ad.mean_rows(x)
        return ad.add_rowvec(ad.matmul(pooled, self.head_w), self.head_b)

    def loss(self, tokens: np.ndarray, target, training: bool = False) -> Tensor:
        """Summed cross-entropy: an int target for one sequence, an array for a batch."""
        return ad.cross_entropy_logits(self.forward(tokens, training=training), target)

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Class logits for one (T, F) sequence, as a plain (n_classes,) array."""
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
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint format_version {version!r}")
        config = d["config"]
        if not isinstance(config, dict):
            raise ValueError("checkpoint config must be a JSON object")
        unknown = sorted(set(config) - set(ModelConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown checkpoint config keys: {unknown}")
        model = cls(ModelConfig(**config))
        params = model.parameters()
        stored = d["params"]
        missing = set(params) ^ set(stored)
        if missing:
            raise ValueError(f"checkpoint parameter names do not match model: {sorted(missing)}")
        for name, tensor in params.items():
            arr = np.asarray(stored[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {name}: {arr.shape} vs {tensor.data.shape}"
                )
            tensor.data = arr
        return model

