"""Encoder classifier: equivalences, checkpointing, and graph gradients."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import tdafault.autodiff as ad
from tdafault.autodiff import grad_check
from tdafault.model import ModelConfig, TdaEncoder, sinusoidal_positions

TINY = dict(d_model=8, d_k=4, d_v=4, heads=2, layers=1, n_classes=3, t_max=6, dropout_rate=0.0)

# A format-1 checkpoint (per-head tensors named ``<name>.<h>``) written by the
# format-1 writer, with three token sequences and the logits that writer's
# model gave them.  Its model is the fresh seed-3 model of its config with the
# bias rows then set to random values, so every other tensor is the fresh one.
V1_FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_v1.json"
# The axis along which format 1's per-head tensors join into whole matrices.
V1_AXES = {"w_q": 1, "w_k": 1, "w_vt": 1, "w_vs": 1, "a_trend": 0, "a_season": 0, "w_o": 0}


def tokens_for(t_len, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(t_len, 9))


class TestModelConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.heads, cfg.layers) == (32, 2, 2)
        assert (cfg.d_k, cfg.d_v, cfg.t_max, cfg.n_classes) == (16, 16, 64, 10)
        assert cfg.dropout_rate == pytest.approx(0.1)
        assert cfg.attention == "tda"

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(d_k=10, heads=4)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(attention="fancy")
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            ModelConfig(n_classes=1)


class TestForward:
    def test_logit_shape_and_determinism(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=3))
        toks = tokens_for(5)
        out1 = model.logits(toks)
        out2 = model.logits(toks)
        assert out1.shape == (3,)
        assert np.array_equal(out1, out2)

    def test_same_seed_same_model(self):
        a = TdaEncoder(ModelConfig(**TINY, seed=9))
        b = TdaEncoder(ModelConfig(**TINY, seed=9))
        toks = tokens_for(4, seed=1)
        assert np.array_equal(a.logits(toks), b.logits(toks))

    def test_different_seed_different_model(self):
        a = TdaEncoder(ModelConfig(**TINY, seed=1))
        b = TdaEncoder(ModelConfig(**TINY, seed=2))
        toks = tokens_for(4, seed=1)
        assert not np.array_equal(a.logits(toks), b.logits(toks))

    def test_fresh_model_equals_standard_attention_twin(self):
        # Biases start at exp(0) = 1, so a fresh two-branch model must match
        # plain attention over the summed value streams to float precision.
        for seed in (0, 1, 2):
            tda = TdaEncoder(ModelConfig(**TINY, seed=seed, attention="tda"))
            std = TdaEncoder(ModelConfig(**TINY, seed=seed, attention="standard"))
            toks = tokens_for(6, seed=seed, scale=2.0)
            np.testing.assert_allclose(tda.logits(toks), std.logits(toks), atol=1e-10)

    def test_variable_sequence_lengths(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        for t_len in (1, 3, 6):
            assert model.logits(tokens_for(t_len)).shape == (3,)

    def test_batch_matches_single_sequences(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=3))
        batch = np.stack([tokens_for(5, seed=s) for s in range(4)])
        logits = model.forward(batch).data
        assert logits.shape == (4, 3)
        assert model.forward(batch[0]).shape == (1, 3)
        for i in range(4):
            np.testing.assert_allclose(logits[i], model.logits(batch[i]), rtol=1e-14, atol=1e-15)

    def test_logits_and_predict_reject_a_batch(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=3))
        batch = np.stack([tokens_for(5, seed=s) for s in range(2)])
        for method in (model.logits, model.predict):
            with pytest.raises(ValueError, match="batch of 2"):
                method(batch)
        np.testing.assert_array_equal(model.logits(batch[:1]), model.logits(batch[0]))

    def test_token_validation(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 8)))  # wrong feature width
        with pytest.raises(ValueError):
            model.forward(np.zeros((7, 9)))  # longer than t_max
        with pytest.raises(ValueError):
            model.forward(np.zeros((0, 9)))
        with pytest.raises(ValueError):
            model.forward(np.zeros((0, 4, 9)))  # empty batch
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 4, 8)))

    def test_positions_matter(self):
        # Permuting the positional table changes the logits: the encoder
        # actually uses order, not just the bag of tokens.
        cfg = ModelConfig(**TINY, seed=4)
        base = TdaEncoder(cfg)
        shuffled = TdaEncoder(cfg)
        perm = np.random.default_rng(0).permutation(cfg.t_max)
        shuffled.pe = shuffled.pe[perm]
        toks = tokens_for(6, seed=2)
        assert not np.allclose(base.logits(toks), shuffled.logits(toks))

    def test_positional_table_properties(self):
        pe = sinusoidal_positions(32, 16)
        assert pe.shape == (32, 16)
        assert np.abs(pe).max() <= 1.0
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)  # cos(0)

    def test_predict_tie_breaks_low_index(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        assert model.predict(tokens_for(3)) == 0


class TestDropout:
    def test_training_mode_uses_dropout(self):
        cfg = ModelConfig(**dict(TINY, dropout_rate=0.5), seed=5)
        model = TdaEncoder(cfg)
        toks = tokens_for(5)
        eval_out = model.forward(toks).data
        train_out = model.forward(toks, training=True).data
        assert not np.allclose(eval_out, train_out)

    def test_dropout_stream_is_seeded(self):
        cfg = ModelConfig(**dict(TINY, dropout_rate=0.3), seed=6)
        a, b = TdaEncoder(cfg), TdaEncoder(cfg)
        toks = tokens_for(5)
        for _ in range(3):
            np.testing.assert_array_equal(
                a.forward(toks, training=True).data, b.forward(toks, training=True).data
            )

    def test_batch_draws_the_per_sequence_stream(self):
        # A batch consumes the dropout stream sequence by sequence, so it
        # sees exactly the masks that one-at-a-time training would.
        cfg = ModelConfig(**dict(TINY, dropout_rate=0.3), seed=6)
        batched, single = TdaEncoder(cfg), TdaEncoder(cfg)
        batch = np.stack([tokens_for(5, seed=s) for s in range(3)])
        out = batched.forward(batch, training=True).data
        for i in range(3):
            np.testing.assert_allclose(
                out[i], single.forward(batch[i], training=True).data[0], rtol=1e-14, atol=1e-15)

    def test_one_draw_equals_per_sequence_draws(self):
        # The batch's masks come from one draw; they must be the masks that
        # drawing (T, d_model) per sequence and site, in that order, gives.
        cfg = ModelConfig(**dict(TINY, layers=2, t_max=16, dropout_rate=0.3), seed=8)
        n_batch, t_len = 3, 12
        masks = TdaEncoder(cfg).dropout_masks(n_batch, t_len)
        rng = np.random.default_rng([cfg.seed, 0xD0])
        assert len(masks) == 2 * cfg.layers
        for mask in masks:
            assert mask.shape == (n_batch, t_len, cfg.d_model)
            assert mask.flags.c_contiguous
        for b in range(n_batch):
            for mask in masks:
                want = (rng.random((t_len, cfg.d_model)) >= 0.3) / 0.7
                assert mask[b].tobytes() == want.tobytes()

    def test_zero_rate_draws_nothing(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=7))
        state = model._dropout_rng.bit_generator.state
        assert model.dropout_masks(2, 4) == []
        assert model._dropout_rng.bit_generator.state == state

    def test_zero_rate_is_noop_in_training(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=7))
        toks = tokens_for(4)
        np.testing.assert_array_equal(
            model.forward(toks).data, model.forward(toks, training=True).data
        )


class TestParameters:
    def test_catalogued_names_and_count(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        params = model.parameters()
        # 3 embeds (w+b) + per layer: 7 whole attn matrices + 4 ffn + head w/b
        assert len(params) == 6 + 1 * (7 + 4) + 2
        assert "embed.residual.w" in params
        assert "head.b" in params
        d, dk, dv, t_max = TINY["d_model"], TINY["d_k"], TINY["d_v"], TINY["t_max"]
        shapes = {"w_q": (d, dk), "w_k": (d, dk), "w_vt": (d, dv), "w_vs": (d, dv),
                  "w_o": (dv, d), "a_trend": (2, t_max), "a_season": (2, t_max)}
        for name, shape in shapes.items():
            assert params[f"layers.0.attn.{name}"].shape == shape, name
        for name, tensor in params.items():
            assert tensor.requires_grad, name

    def test_bias_rows_start_at_zero(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        for layer in model.layers:
            for a in (layer["attn.a_trend"], layer["attn.a_season"]):
                assert a.shape == (TINY["heads"], TINY["t_max"])
                np.testing.assert_array_equal(a.data, 0.0)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=8))
        toks = tokens_for(5, seed=3)
        model.forward(toks)  # exercise, then snapshot
        clone = TdaEncoder.from_dict(model.to_dict())
        assert np.array_equal(model.logits(toks), clone.logits(toks))
        for (na, ta), (nb, tb) in zip(
            model.parameters().items(), clone.parameters().items()
        ):
            assert na == nb
            assert np.array_equal(ta.data, tb.data), na

    def test_rejects_bad_version_and_shapes(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=0))
        d = model.to_dict()
        with pytest.raises(ValueError):
            TdaEncoder.from_dict(dict(d, format_version=99))
        bad = dict(d, params=dict(d["params"], **{"head.b": [[1.0, 2.0]]}))
        with pytest.raises(ValueError):
            TdaEncoder.from_dict(bad)
        missing = dict(d, params={k: v for k, v in d["params"].items() if k != "head.b"})
        with pytest.raises(ValueError):
            TdaEncoder.from_dict(missing)
        with pytest.raises(ValueError):
            TdaEncoder.from_dict(dict(d, params=[1.0, 2.0]))

    def test_writes_format_2_whole_matrices(self):
        d = TdaEncoder(ModelConfig(**TINY, seed=2)).to_dict()
        assert d["format_version"] == 2
        assert np.shape(d["params"]["layers.0.attn.w_q"]) == (TINY["d_model"], TINY["d_k"])
        assert np.shape(d["params"]["layers.0.attn.a_season"]) == (TINY["heads"], TINY["t_max"])
        assert not any(name.split(".")[-1].isdigit() for name in d["params"])

    def test_reads_format_1(self):
        fixture = json.loads(V1_FIXTURE.read_text())
        assert fixture["checkpoint"]["format_version"] == 1
        model = TdaEncoder.from_dict(fixture["checkpoint"])
        for tokens, want in zip(np.array(fixture["tokens"]), np.array(fixture["logits"])):
            got = model.logits(tokens)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert np.argmax(got) == np.argmax(want)
        clone = TdaEncoder.from_dict(json.loads(json.dumps(model.to_dict())))
        for name, tensor in model.parameters().items():
            assert np.array_equal(tensor.data, clone.parameters()[name].data), name

    def test_fresh_model_equals_format_1_blocks(self):
        # Drawing each whole matrix head block by head block keeps the
        # random stream of per-head storage: a fresh model is the same model.
        checkpoint = json.loads(V1_FIXTURE.read_text())["checkpoint"]
        model = TdaEncoder(ModelConfig(**checkpoint["config"]))
        params, stored = model.parameters(), checkpoint["params"]
        cfg = model.cfg
        for name, tensor in params.items():
            role = name.split(".")[-1]
            if ".attn." not in name:
                assert np.array_equal(tensor.data, stored[name]), name
                continue
            for h, block in enumerate(np.split(tensor.data, cfg.heads, axis=V1_AXES[role])):
                if role.startswith("a_"):
                    np.testing.assert_array_equal(block, 0.0)  # the fixture's were set
                    assert np.shape(stored[f"{name}.{h}"]) == block.shape
                else:
                    assert np.array_equal(block, stored[f"{name}.{h}"]), (name, h)

    @pytest.mark.parametrize("edit", ["missing", "extra", "version"])
    def test_rejects_bad_format_1(self, edit):
        checkpoint = json.loads(V1_FIXTURE.read_text())["checkpoint"]
        if edit == "missing":
            del checkpoint["params"]["layers.1.attn.w_o.0"]
        elif edit == "extra":
            checkpoint["params"]["layers.0.attn.w_q.2"] = checkpoint["params"]["layers.0.attn.w_q.1"]
        else:
            checkpoint["format_version"] = 3
        with pytest.raises(ValueError):
            TdaEncoder.from_dict(checkpoint)

    def test_json_serializable(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=1))
        blob = json.dumps(model.to_dict(), sort_keys=True)
        clone = TdaEncoder.from_dict(json.loads(blob))
        toks = tokens_for(4, seed=9)
        assert np.array_equal(model.logits(toks), clone.logits(toks))


class TestModelGradients:
    def test_whole_model_gradient_check(self):
        # End-to-end reverse mode through attention, norms, FFN, and pooling.
        model = TdaEncoder(ModelConfig(**TINY, seed=11))
        toks = tokens_for(4, seed=5)
        params = list(model.parameters().values())
        err = grad_check(lambda: model.loss(toks, 1), params, h=1e-5)
        assert err < 1e-6

    def test_bias_gradients_flow(self):
        model = TdaEncoder(ModelConfig(**TINY, seed=12))
        loss = model.loss(tokens_for(6, seed=6, scale=2.0), 0)
        loss.backward()
        flowing = [
            layer["attn.a_trend"].grad is not None
            and np.abs(layer["attn.a_trend"].grad[h]).max() > 0
            for layer in model.layers
            for h in range(2)
        ]
        assert all(flowing)
        # positions beyond the sequence length get zero gradient
        g = model.layers[0]["attn.a_trend"].grad
        np.testing.assert_array_equal(g[:, 6:], 0.0)


class TestInference:
    def test_logits_build_no_graph_and_match_graph_logits(self):
        model = TdaEncoder(ModelConfig(seed=4))
        tokens = tokens_for(16, seed=2)
        graph = model.forward(tokens)
        assert graph.requires_grad
        plain = model.logits(tokens)
        assert plain.tobytes() == graph.data[0].tobytes()
        assert model.predict(tokens) == int(np.argmax(graph.data[0]))
        with ad.no_grad():
            out = model.forward(tokens)
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.data.tobytes() == graph.data.tobytes()


class TestGraphLifetime:
    def test_graph_is_freed_without_the_cycle_collector(self):
        # Desk-size model and segment: once the root of a trained graph is
        # dropped, reference counting alone must free every interior node.
        model = TdaEncoder(ModelConfig(seed=0))
        tokens = tokens_for(16, seed=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss = model.loss(tokens, 3, training=True)
            loss.backward()
            interior = weakref.ref(loss._parents[0])
            del loss
            assert interior() is None
        finally:
            if was_enabled:
                gc.enable()
