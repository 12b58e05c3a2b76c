"""Optimizer math, deterministic training, early stopping, evaluation."""

import numpy as np
import pytest

import tdafault.autodiff as ad
from tdafault.autodiff import Tensor, zero_grad
from tdafault.data import Examples
from tdafault.model import ModelConfig, TdaEncoder
from tdafault.train import Adam, TrainConfig, evaluate, train

TINY = dict(d_model=8, d_k=4, d_v=4, heads=2, layers=1,
            n_classes=3, t_max=6, dropout_rate=0.0)


def separable(labels, t_len, seed):
    """One sequence per label: noise, with feature ``label`` lifted by 3."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    tokens = np.empty((len(labels), t_len, 9))
    for i, c in enumerate(labels):
        tokens[i] = rng.normal(0.0, 0.3, (t_len, 9))
        tokens[i, :, c] += 3.0
    return Examples(tokens, labels)


def toy_dataset(n_per_class=6, t_len=6, n_classes=3, seed=0):
    """Linearly separable examples, class-major: class c lifts feature c by 3."""
    return separable(np.repeat(np.arange(n_classes), n_per_class), t_len, seed)


def cycled_dataset(n=10, t_len=5, n_classes=3, seed=0):
    """``n`` separable sequences; class ``i % n_classes`` for the i-th."""
    return separable(np.arange(n) % n_classes, t_len, seed)


def subset(examples, idx):
    return Examples(examples.tokens[idx], examples.labels[idx])


EMPTY = (np.empty((0, 6, 9)), np.empty(0, dtype=np.int64))


def per_sample_reference(model, train_data, val_data, cfg):
    """One graph and one backward per sample: the loop batching must reproduce.

    Same shuffling, Adam and best-epoch restore as ``train``; no early stop.
    """
    params = model.parameters()
    opt = Adam(params, cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    history, best, snapshot = [], float("inf"), None
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(train_data))
        running = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            zero_grad(params.values())
            for j in batch:
                tokens, label = train_data.tokens[j], train_data.labels[j]
                loss = model.loss(tokens, label, training=True)
                ad.scale(loss, 1.0 / len(batch)).backward()
                running += loss.item()
            opt.step()
        val_total, hits = 0.0, 0
        for tokens, label in zip(val_data.tokens, val_data.labels):
            logits = model.forward(tokens)
            val_total += ad.cross_entropy_logits(logits, label).item()
            hits += int(np.argmax(logits.data[0]) == label)
        val_loss = val_total / len(val_data)
        history.append({"epoch": epoch, "train_loss": running / len(train_data),
                        "val_loss": val_loss, "val_accuracy": hits / len(val_data)})
        if val_loss < best:
            best = val_loss
            snapshot = {k: p.data.copy() for k, p in params.items()}
    for name, p in params.items():
        p.data = snapshot[name]
    return history


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.beta1, cfg.beta2) == (1e-3, 0.9, 0.999)
        assert (cfg.batch_size, cfg.max_epochs, cfg.patience) == (32, 100, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        w0 = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.5, -1.0, 0.0]])
        p = Tensor(w0.copy(), requires_grad=True)
        p.grad = g.copy()
        cfg = TrainConfig(learning_rate=0.1)
        Adam({"w": p}, cfg).step()

        m = (1.0 - cfg.beta1) * g
        v = (1.0 - cfg.beta2) * g * g
        mhat = m / (1.0 - cfg.beta1)
        vhat = v / (1.0 - cfg.beta2)
        want = w0 - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)
        np.testing.assert_array_equal(p.data, want)

    def test_two_steps_accumulate_moments(self):
        g = np.array([[2.0, -0.25]])
        p = Tensor(np.zeros((1, 2)), requires_grad=True)
        cfg = TrainConfig(learning_rate=0.05)
        opt = Adam({"w": p}, cfg)

        ref = np.zeros((1, 2))
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in (1, 2):
            p.grad = g.copy()
            opt.step()
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            ref = ref - cfg.learning_rate * (m / (1.0 - cfg.beta1 ** t)) / (
                np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.eps)
        np.testing.assert_allclose(p.data, ref, atol=1e-15)

    def test_in_place_step_is_bit_identical_to_the_formula(self):
        # each update is the formula's float operations in its order, on parameters of
        # several shapes
        rng = np.random.default_rng(12)
        shapes = {"w": (4, 5), "b": (3,), "e": (2, 3, 2)}
        w0 = {k: rng.normal(size=s) for k, s in shapes.items()}
        params = {k: Tensor(w.copy(), requires_grad=True) for k, w in w0.items()}
        cfg = TrainConfig(learning_rate=0.003)
        opt = Adam(params, cfg)
        ref = {k: w.copy() for k, w in w0.items()}
        m = {k: np.zeros_like(w) for k, w in w0.items()}
        v = {k: np.zeros_like(w) for k, w in w0.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step()
            for k, g in grads.items():
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
                ref[k] -= cfg.learning_rate * (m[k] / (1.0 - cfg.beta1 ** t)) / (
                    np.sqrt(v[k] / (1.0 - cfg.beta2 ** t)) + cfg.eps)
                assert params[k].data.tobytes() == ref[k].tobytes()

    def test_missing_gradient_leaves_parameter_alone(self):
        live = Tensor(np.ones((1, 1)), requires_grad=True)
        live.grad = np.ones((1, 1))
        frozen = Tensor(np.full((1, 1), 7.0), requires_grad=True)
        Adam({"a": live, "b": frozen}, TrainConfig()).step()
        assert live.data[0, 0] != 1.0
        assert frozen.data[0, 0] == 7.0


class TestTrainLoop:
    def split_data(self, seed=0):
        data = toy_dataset(seed=seed)
        order = np.arange(len(data))
        return subset(data, order[::2]), subset(data, order[1::2])  # interleaved train/val

    def test_zero_learning_rate_changes_nothing_and_stops_early(self):
        model = TdaEncoder(ModelConfig(seed=1, **TINY))
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        tr, va = self.split_data()
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=50, patience=3)
        result = train(model, tr, va, cfg)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])
        # epoch 0 sets the best; each later epoch ties, so patience runs out
        assert result.stopped_early
        assert result.best_epoch == 0
        assert result.epochs_run == 1 + cfg.patience

    def test_same_seed_is_bit_identical(self):
        tr, va = self.split_data()
        cfg = TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=4, patience=4, seed=9)
        runs = []
        for _ in range(2):
            model = TdaEncoder(ModelConfig(seed=2, **dict(TINY, dropout_rate=0.1)))
            result = train(model, tr, va, cfg)
            runs.append((result.history, {k: p.data.copy()
                                          for k, p in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_loss_decreases_and_fits_separable_data(self):
        model = TdaEncoder(ModelConfig(seed=0, **TINY))
        tr, va = self.split_data()
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=15, patience=15)
        result = train(model, tr, va, cfg)
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
        assert result.best_val_loss < result.history[0]["val_loss"]
        assert max(h["val_accuracy"] for h in result.history) >= 0.9

    def test_best_parameters_are_restored(self):
        model = TdaEncoder(ModelConfig(seed=3, **TINY))
        tr, va = self.split_data(seed=4)
        cfg = TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=8, patience=8)
        result = train(model, tr, va, cfg)
        # Re-scoring the restored parameters must reproduce the recorded best
        # validation loss exactly; any other epoch's parameters would not.
        _, mean_loss = evaluate(model, va, ("a", "b", "c"))
        assert mean_loss == result.best_val_loss
        assert result.best_epoch == min(
            range(len(result.history)), key=lambda i: result.history[i]["val_loss"])

    def test_ragged_final_batch(self):
        model = TdaEncoder(ModelConfig(seed=0, **TINY))
        data = toy_dataset(n_per_class=2)  # 6 examples
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=2)  # batches of 4 + 2
        result = train(model, data, data, cfg)
        assert result.epochs_run == 2
        assert len(result.history) == 2

    def test_batched_matches_per_sample_loop(self):
        # Batches of 4 over 10 sequences, so the last batch is ragged (2);
        # dropout must see the masks that one sequence at a time would.
        train_data, val_data = cycled_dataset(seed=1), cycled_dataset(n=7, seed=2)
        model_cfg = ModelConfig(seed=4, **dict(TINY, dropout_rate=0.1))
        cfg = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=4, patience=4, seed=3)
        batched, reference = TdaEncoder(model_cfg), TdaEncoder(model_cfg)
        result = train(batched, train_data, val_data, cfg)
        want = per_sample_reference(reference, train_data, val_data, cfg)
        assert len(result.history) == len(want)
        for got, ref in zip(result.history, want):
            assert got.keys() == ref.keys()
            for key in ref:
                assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12), key
        ref_params = reference.parameters()
        for name, p in batched.parameters().items():
            np.testing.assert_allclose(p.data, ref_params[name].data, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_empty_sets_rejected(self):
        # an empty set cannot be built, so it never reaches ``train``
        model = TdaEncoder(ModelConfig(seed=0, **TINY))
        data = toy_dataset(n_per_class=1)
        with pytest.raises(ValueError, match="at least one sequence"):
            train(model, Examples(*EMPTY), data, TrainConfig())
        with pytest.raises(ValueError, match="at least one sequence"):
            train(model, data, Examples(*EMPTY), TrainConfig())


class TestEvaluate:
    def test_report_matches_direct_predictions(self):
        model = TdaEncoder(ModelConfig(seed=5, **TINY))
        data = toy_dataset(n_per_class=3, seed=6)
        report, mean_loss = evaluate(model, data, ("a", "b", "c"))
        y_true = data.labels
        y_pred = [model.predict(tokens) for tokens in data.tokens]
        assert report.n_samples == len(data)
        assert report.overall_accuracy == np.mean(y_true == np.array(y_pred))
        np.testing.assert_array_equal(
            report.matrix.counts,
            np.histogram2d(y_true, y_pred, bins=(3, 3),
                           range=((0, 3), (0, 3)))[0].astype(np.int64),
        )
        assert mean_loss > 0.0

    def test_empty_rejected(self):
        model = TdaEncoder(ModelConfig(seed=0, **TINY))
        with pytest.raises(ValueError, match="at least one sequence"):
            evaluate(model, Examples(*EMPTY), ("a", "b", "c"))

    def test_leaves_parameter_gradients_untouched(self):
        model = TdaEncoder(ModelConfig(seed=5, **TINY))
        data = cycled_dataset(seed=7)
        params = model.parameters()
        model.loss(data.tokens[0], data.labels[0]).backward()
        before = {k: p.grad.copy() for k, p in params.items()}
        evaluate(model, data, ("a", "b", "c"))
        for k, p in params.items():
            assert p.grad.tobytes() == before[k].tobytes(), k
