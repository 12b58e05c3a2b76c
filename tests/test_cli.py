"""Command-line verbs: artifacts, exit codes, config handling, determinism."""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tdafault
from tdafault.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from tdafault.data import CLASS_ORDER, SynthConfig, gen_synthetic, save_recordings
from tdafault.matio import write_mat

HINT = repr(SynthConfig(sample_rate_hz=2048.0).shaft_hz)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full synth -> featurize -> train -> eval -> report run."""
    root = tmp_path_factory.mktemp("chain")
    store, feats = root / "store", root / "feats"
    model, report = root / "model", root / "report"

    assert main(["synth", "--out", str(store), "--fs", "2048", "--duration", "4",
                 "--recordings", "1", "--noise-sigma", "0.05", "--seed", "3"]) == EXIT_OK
    assert main(["featurize", "--store", str(store), "--out", str(feats),
                 "--period-hint-hz", HINT]) == EXIT_OK
    assert main(["train", "--features", str(feats), "--out", str(model),
                 "--lr", "0.005", "--epochs", "2", "--patience", "2"]) == EXIT_OK
    assert main(["eval", "--features", str(feats), "--checkpoint",
                 str(model / "checkpoint.json"), "--split", "test",
                 "--out", str(report)]) == EXIT_OK
    return {"store": store, "feats": feats, "model": model, "report": report}


class TestChainArtifacts:
    def test_synth_store(self, chain):
        manifest = json.loads((chain["store"] / "manifest.json").read_text())
        assert manifest["format"] == "tdafault-recordings-v1"
        assert manifest["created"] is None
        assert len(manifest["recordings"]) == 10
        assert [e["label"] for e in manifest["recordings"]] == list(CLASS_ORDER)
        assert all(e["n_samples"] == 8192 for e in manifest["recordings"])

    def test_featurize_artifacts(self, chain):
        x = np.load(chain["feats"] / "X_train.npy")
        y = np.load(chain["feats"] / "y_train.npy")
        assert x.shape == (10, 16, 9) and x.dtype == np.float64
        assert y.dtype == np.int64 and sorted(y.tolist()) == list(range(10))
        manifest = json.loads((chain["feats"] / "manifest.json").read_text())
        assert manifest["labels"] == list(CLASS_ORDER)
        assert (chain["feats"] / "standardizer.json").exists()

    def test_train_artifacts(self, chain):
        ckpt = json.loads((chain["model"] / "checkpoint.json").read_text())
        assert ckpt["labels"] == list(CLASS_ORDER)
        assert ckpt["config"]["n_classes"] == 10
        history = json.loads((chain["model"] / "history.json").read_text())
        assert history["epochs_run"] == 2
        assert len(history["history"]) == 2
        tm = json.loads((chain["model"] / "train_manifest.json").read_text())
        assert tm["model_config"]["attention"] == "tda"
        assert tm["train_config"]["max_epochs"] == 2

    def test_eval_artifacts(self, chain, capsys):
        payload = json.loads((chain["report"] / "report.json").read_text())
        assert payload["split"] == "test"
        assert np.asarray(payload["confusion_matrix"]).shape == (10, 10)
        assert isinstance(payload["mean_loss"], float)
        assert (chain["report"] / "report.csv").exists()
        assert "overall accuracy" in (chain["report"] / "report.txt").read_text()

    def test_report_verb(self, chain, tmp_path, capsys):
        out = tmp_path / "rendered.txt"
        code = main(["report", "--input", str(chain["report"] / "report.json"),
                     "--history", str(chain["model"] / "history.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "split: test" in text
        assert "training: 2 epochs" in text
        assert out.read_text().rstrip("\n") in text

    def test_decompose_verb(self, chain, tmp_path):
        out = tmp_path / "parts"
        code = main(["decompose", "--store", str(chain["store"]),
                     "--out", str(out), "--period", "69"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(e["period"] == 69 for e in manifest["recordings"])
        trend = np.load(out / "rec_00000.trend.npy")
        seasonal = np.load(out / "rec_00000.seasonal.npy")
        residual = np.load(out / "rec_00000.residual.npy")
        samples = np.load(chain["store"] / "rec_00000.npy")
        np.testing.assert_allclose(trend + seasonal + residual, samples, atol=1e-9)


class TestDeterminism:
    ARGS = ["--fs", "1024", "--duration", "4", "--recordings", "1",
            "--noise-sigma", "0.05", "--seed", "5"]

    def run_once(self, root):
        store, feats = root / "store", root / "feats"
        assert main(["synth", "--out", str(store)] + self.ARGS) == EXIT_OK
        assert main(["featurize", "--store", str(store), "--out", str(feats),
                     "--segment-len", "8"]) == EXIT_OK
        return store, feats

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        s1, f1 = self.run_once(tmp_path / "a")
        s2, f2 = self.run_once(tmp_path / "b")
        for name in ("manifest.json", "rec_00000.npy", "rec_00009.npy"):
            assert (s1 / name).read_bytes() == (s2 / name).read_bytes()
        for name in ("manifest.json", "standardizer.json", "X_train.npy",
                     "X_val.npy", "X_test.npy", "y_train.npy"):
            assert (f1 / name).read_bytes() == (f2 / name).read_bytes()

    def test_stamp_flag_records_time(self, tmp_path):
        store = tmp_path / "stamped"
        assert main(["synth", "--out", str(store), "--stamp", "--fs", "1024",
                     "--duration", "0.1", "--recordings", "1"]) == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        assert isinstance(manifest["created"], str)
        assert manifest["created"].startswith("20")


class TestStoreVerbsStream:
    """``synth``, ``decompose`` and ``featurize`` hold one recording at a time."""

    FS, DURATION = 48000.0, 1.0
    RECORDING_BYTES = int(FS * DURATION) * 8

    @staticmethod
    def traced_peak(argv) -> int:
        """Peak bytes traced by tracemalloc while the verb runs in-process."""
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        """Stores of 4 and 16 recordings (48 kHz x 1 s), keyed by size."""
        root = tmp_path_factory.mktemp("stream")
        cfg = SynthConfig(sample_rate_hz=self.FS, duration_s=self.DURATION,
                          recordings_per_class=2, seed=3)
        for n in (4, 16):
            save_recordings(root / f"store{n}", itertools.islice(gen_synthetic(cfg), n))
        return {n: root / f"store{n}" for n in (4, 16)}

    @pytest.mark.parametrize("verb", ["synth", "decompose", "featurize"])
    def test_peak_memory_does_not_grow_with_the_store(self, stores, tmp_path, capsys, verb):
        hint = repr(SynthConfig(sample_rate_hz=self.FS).shaft_hz)

        def argv(n, out):
            if verb == "synth":  # ten classes per recording index: 10 and 40 recordings
                return ["synth", "--out", str(out), "--fs", repr(self.FS),
                        "--duration", repr(self.DURATION), "--recordings", str(n // 4)]
            extra = (["--period-hint-hz", hint] if verb == "decompose" else
                     ["--period-hint-hz", hint, "--window-len", "2048", "--stride", "1024"])
            return [verb, "--store", str(stores[n]), "--out", str(out), *extra]

        self.traced_peak(argv(4, tmp_path / "warm-up"))  # imports and caches
        small = self.traced_peak(argv(4, tmp_path / "small"))
        large = self.traced_peak(argv(16, tmp_path / "large"))
        assert abs(large - small) < 2 * self.RECORDING_BYTES, (small, large)


class TestIngest:
    def test_csv_and_mat_inputs(self, tmp_path):
        csv_path = tmp_path / "n.csv"
        csv_path.write_text("\n".join(str(v) for v in np.linspace(-1, 1, 64)) + "\n")
        mat_path = tmp_path / "f.mat"
        write_mat(mat_path, {"DE_time": np.sin(np.arange(64) / 3.0),
                             "FE_time": np.cos(np.arange(64) / 3.0)})
        store = tmp_path / "store"
        code = main(["ingest", "--out", str(store), "--fs", "64",
                     "--input", f"Normal_1={csv_path}",
                     "--input", f"IR_007_1={mat_path}"])
        assert code == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        assert [e["label"] for e in manifest["recordings"]] == [
            "Normal_1", "IR_007_1", "IR_007_1"]
        assert manifest["meta"]["sample_rate_hz"] == 64.0

    def test_mat_var_selection(self, tmp_path):
        mat_path = tmp_path / "f.mat"
        write_mat(mat_path, {"a": np.zeros(32), "b": np.ones(32)})
        store = tmp_path / "store"
        code = main(["ingest", "--out", str(store), "--fs", "32",
                     "--input", f"x={mat_path}", "--var", "b"])
        assert code == EXIT_OK
        np.testing.assert_array_equal(np.load(store / "rec_00000.npy"), np.ones(32))

    def test_infinite_sample_rate_is_data_error(self, tmp_path, capsys):
        # a store that load_recordings would reject is never written
        np.savetxt(tmp_path / "a.csv", np.sin(np.arange(64) / 5.0), delimiter=",")
        code = main(["ingest", "--input", f"a={tmp_path / 'a.csv'}", "--fs", "inf",
                     "--out", str(tmp_path / "store")])
        assert code == EXIT_DATA
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_unsupported_suffix(self, tmp_path, capsys):
        bad = tmp_path / "x.wav"
        bad.write_bytes(b"RIFF")
        code = main(["ingest", "--out", str(tmp_path / "s"), "--fs", "10",
                     "--input", f"x={bad}"])
        assert code == EXIT_DATA
        assert "unsupported" in capsys.readouterr().err

    def test_corrupt_mat_reports_data_error(self, tmp_path, capsys):
        bad = tmp_path / "x.mat"
        bad.write_bytes(b"not a mat file at all")
        code = main(["ingest", "--out", str(tmp_path / "s"), "--fs", "10",
                     "--input", f"x={bad}"])
        assert code == EXIT_DATA
        assert "byte offset" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --out is required
        assert exc.value.code == EXIT_USAGE

    def test_missing_store_is_data_error(self, tmp_path, capsys):
        code = main(["decompose", "--store", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_malformed_manifest_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text("{ not json")
        code = main(["featurize", "--store", str(store), "--out", str(tmp_path / "f")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("verb", ["featurize", "decompose"])
    @pytest.mark.parametrize("edit", [
        lambda m: m.update(recordings=5),
        lambda m: m.update(recordings=[]),
        lambda m: m.update(recordings=["rec_00000"]),
        lambda m: m["recordings"][0].update(sample_rate_hz="4096"),
        lambda m: m["recordings"][0].update(sample_rate_hz=None),
        lambda m: m["recordings"][0].update(label=3),
        lambda m: m["recordings"][0].update(key="../../x"),
    ], ids=["int-recordings", "empty-recordings", "string-entry", "string-rate", "null-rate",
            "int-label", "parent-key"])
    def test_malformed_store_manifest_is_data_error(self, chain, tmp_path, capsys, verb, edit):
        store = tmp_path / "store"
        store.mkdir()
        manifest = json.loads((chain["store"] / "manifest.json").read_text())
        manifest["recordings"] = manifest["recordings"][:1]
        shutil.copy(chain["store"] / "rec_00000.npy", store)
        edit(manifest)
        (store / "manifest.json").write_text(json.dumps(manifest))
        code = main([verb, "--store", str(store), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert str(store / "manifest.json") in err and "recordings" in err

    @pytest.mark.parametrize("segment_len", ["16", 10**6, None], ids=["string", "huge", "absent"])
    def test_train_sizes_positions_from_the_tokens(self, chain, tmp_path, segment_len):
        # the manifest's split block is a record only; train reads the token arrays
        feats = tmp_path / "feats"
        shutil.copytree(chain["feats"], feats)
        manifest = json.loads((feats / "manifest.json").read_text())
        if segment_len is None:
            del manifest["split"]
        else:
            manifest["split"]["segment_len"] = segment_len
        (feats / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--features", str(feats), "--out", str(tmp_path / "m"),
                     "--lr", "0.005", "--epochs", "2", "--patience", "2"])
        assert code == EXIT_OK
        assert ((tmp_path / "m" / "checkpoint.json").read_bytes()
                == (chain["model"] / "checkpoint.json").read_bytes())

    @pytest.mark.parametrize("flag", [["--heads", "0"], ["--dropout", "1.0"]])
    def test_invalid_model_flag_is_data_error(self, chain, tmp_path, capsys, flag):
        code = main(["train", "--features", str(chain["feats"]),
                     "--out", str(tmp_path / "m"), *flag])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err

    def test_unknown_checkpoint_config_key_is_data_error(self, chain, tmp_path, capsys):
        checkpoint = json.loads((chain["model"] / "checkpoint.json").read_text())
        checkpoint["config"]["colour"] = 1
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(checkpoint))
        code = main(["eval", "--features", str(chain["feats"]), "--checkpoint", str(path),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "colour" in err

    def test_unknown_features_format_is_data_error(self, chain, tmp_path, capsys):
        feats = tmp_path / "feats"
        shutil.copytree(chain["feats"], feats)
        manifest = json.loads((feats / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (feats / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--features", str(feats), "--out", str(tmp_path / "m"),
                     "--epochs", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "something-else" in err

    def test_format_1_checkpoint_missing_a_head_is_data_error(self, chain, tmp_path, capsys):
        fixture = Path(__file__).parent / "fixtures" / "checkpoint_v1.json"
        checkpoint = json.loads(fixture.read_text())["checkpoint"]
        del checkpoint["params"]["layers.0.attn.w_k.1"]
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(checkpoint))
        code = main(["eval", "--features", str(chain["feats"]), "--checkpoint", str(path),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "layers.0.attn.w_k.1" in err

    @pytest.mark.parametrize("verb, target", [
        ("featurize", "store/manifest.json"),
        ("train", "feats/manifest.json"),
        ("train", "feats/standardizer.json"),
        ("eval", "checkpoint.json"),
        ("report", "report.json"),
        ("report", "history.json"),
    ])
    def test_json_file_that_is_not_an_object_is_data_error(self, chain, tmp_path, capsys,
                                                          verb, target):
        shutil.copytree(chain["store"], tmp_path / "store")
        shutil.copytree(chain["feats"], tmp_path / "feats")
        for name, src in [("checkpoint.json", chain["model"] / "checkpoint.json"),
                          ("report.json", chain["report"] / "report.json"),
                          ("history.json", chain["model"] / "history.json")]:
            shutil.copy(src, tmp_path / name)
        (tmp_path / target).write_text("[1, 2]")
        out = ["--out", str(tmp_path / "o")]
        args = {
            "featurize": ["--store", str(tmp_path / "store"), *out],
            "train": ["--features", str(tmp_path / "feats"), *out],
            "eval": ["--features", str(tmp_path / "feats"),
                     "--checkpoint", str(tmp_path / "checkpoint.json"), *out],
            "report": ["--input", str(tmp_path / "report.json"),
                       "--history", str(tmp_path / "history.json")],
        }[verb]
        code = main([verb, *args])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "must hold a JSON object" in err and target.split("/")[-1] in err

    @pytest.mark.parametrize("target, fields, message", [
        ("report.json", {"labels": 5}, "'labels' must be list"),
        ("report.json", {"labels": [1, 2]}, "'labels' must hold strings"),
        ("report.json", {"mean_loss": [1]}, "'mean_loss' must be float"),
        ("report.json", {"split": None}, "'split' must be str"),
        ("history.json", {"best_val_loss": [0.5]}, "'best_val_loss' must be float"),
        ("report.json", {"labels": ["a", "b"], "confusion_matrix": [[-1, 0], [0, 1]]},
         "must not be negative"),
        ("report.json", {"labels": ["a"] * 10}, "'labels' must hold distinct names"),
        ("report.json", {"mean_loss": -1.0}, "'mean_loss' must be >= 0"),
        ("history.json", {"epochs_run": -3}, "'epochs_run' must be >= 1"),
        ("history.json", {"best_epoch": 99}, "'best_epoch' must lie in [0, epochs_run)"),
        ("history.json", {"best_val_loss": -0.5}, "'best_val_loss' must be >= 0"),
    ], ids=["int-labels", "int-label-entries", "list-mean-loss", "null-split",
            "list-best-val-loss", "negative-counts", "repeated-labels", "negative-mean-loss",
            "no-epochs-run", "best-epoch-past-the-run", "negative-best-val-loss"])
    def test_malformed_report_field_is_data_error(self, chain, tmp_path, capsys,
                                                  target, fields, message):
        paths = {"report.json": chain["report"] / "report.json",
                 "history.json": chain["model"] / "history.json"}
        payload = dict(json.loads(paths[target].read_text()), **fields)
        paths[target] = tmp_path / target
        paths[target].write_text(json.dumps(payload))
        code = main(["report", "--input", str(paths["report.json"]),
                     "--history", str(paths["history.json"])])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert message in err and str(paths[target]) in err

    @pytest.mark.parametrize("period", ["0", "1"])
    def test_decompose_period_below_two_is_data_error(self, chain, tmp_path, capsys, period):
        code = main(["decompose", "--store", str(chain["store"]),
                     "--out", str(tmp_path / "d"), "--period", period])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "period must be >= 2" in err

    def test_decompose_period_with_hint_is_usage_error(self, chain, tmp_path, capsys):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--store", str(chain["store"]), "--out", str(out),
                  "--period", "70", "--period-hint-hz", HINT])
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["featurize", "decompose"])
    @pytest.mark.parametrize("hint", ["nan", "inf", "-inf", "1e-320"])
    def test_period_hint_without_a_finite_period_is_data_error(self, chain, tmp_path, capsys,
                                                               verb, hint):
        code = main([verb, "--store", str(chain["store"]), "--out", str(tmp_path / "o"),
                     f"--period-hint-hz={hint}"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "hint_hz" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--window-len", "0", "window length must be >= 8"),
        ("--ma-window", "1", "Hull construction needs window >= 2"),
        ("--ma-window", "0", "window must be >= 1"),
    ], ids=["window-len-0", "ma-window-1", "ma-window-0"])
    def test_invalid_featurize_flag_is_data_error(self, chain, tmp_path, capsys,
                                                  flag, value, message):
        code = main(["featurize", "--store", str(chain["store"]),
                     "--out", str(tmp_path / "f"), flag, value])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert message in err

    # overflow inside matmul is the expected route to the NumericsError
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("verb, name, fault", [
        ("eval", "y_test.npy", lambda x, y: (x, y[:-3])),
        ("train", "y_train.npy", lambda x, y: (x, y + 0.5)),
        ("train", "y_train.npy", lambda x, y: (x, y[:, None])),
        ("train", "y_val.npy", lambda x, y: (x, y + 10)),
        ("train", "y_val.npy", lambda x, y: (x, y - 1)),
        ("eval", "X_test.npy", lambda x, y: (x[0], y)),
        ("train", "X_train.npy", lambda x, y: (x.astype(np.float32), y)),
        ("train", "X_val.npy", lambda x, y: (np.where(x > 1.0, np.nan, x), y)),
        ("train", "X_train.npy", lambda x, y: (np.ascontiguousarray(x[..., :8]), y)),
    ], ids=["short-labels", "float-labels", "2d-labels", "label-too-big", "negative-label",
            "2d-tokens", "float32-tokens", "nan-tokens", "8-feature-tokens"])
    def test_malformed_features_array_is_data_error(self, chain, tmp_path, capsys,
                                                    verb, name, fault):
        feats = tmp_path / "feats"
        shutil.copytree(chain["feats"], feats)
        split = name[2:-4]
        x, y = fault(np.load(feats / f"X_{split}.npy"), np.load(feats / f"y_{split}.npy"))
        np.save(feats / f"X_{split}.npy", x)
        np.save(feats / f"y_{split}.npy", y)
        extra = {"train": ["--epochs", "1"],
                 "eval": ["--checkpoint", str(chain["model"] / "checkpoint.json")]}[verb]
        code = main([verb, "--features", str(feats), "--out", str(tmp_path / "o"), *extra])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert name in err

    @pytest.mark.parametrize("key, value", [
        ("labels", 5), ("labels", None), ("labels", []), ("labels", [0, 1]),
        ("feature_names", "res_rms"), ("feature_names", None),
    ], ids=["int-labels", "no-labels", "empty-labels", "int-label-names", "string-feature-names",
            "no-feature-names"])
    def test_malformed_features_manifest_is_data_error(self, chain, tmp_path, capsys, key, value):
        feats = tmp_path / "feats"
        shutil.copytree(chain["feats"], feats)
        manifest = json.loads((feats / "manifest.json").read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        (feats / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--features", str(feats), "--out", str(tmp_path / "o"),
                     "--epochs", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "manifest.json" in err and repr(key) in err

    @pytest.mark.parametrize("section, key, value", [
        ("config", "heads", "2"), ("config", "d_model", 32.0), ("config", "dropout_rate", [0.1]),
        ("config", "seed", True), ("params", "head.b", "nan"), ("params", "head.b", {}),
    ], ids=["string-heads", "float-d_model", "list-dropout_rate", "bool-seed", "nan-parameter",
            "object-parameter"])
    def test_malformed_checkpoint_is_data_error(self, chain, tmp_path, capsys, section, key,
                                                value):
        checkpoint = json.loads((chain["model"] / "checkpoint.json").read_text())
        if value == "nan":
            checkpoint[section][key][3] = float("nan")  # written as the JSON extension NaN
        else:
            checkpoint[section][key] = value
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(checkpoint))
        code = main(["eval", "--features", str(chain["feats"]), "--checkpoint", str(path),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert str(path) in err and key in err
        assert not (tmp_path / "r").exists()

    def test_eval_against_other_labels_is_data_error(self, chain, tmp_path, capsys):
        # a checkpoint trained on labels a/b, scored against features labelled
        # b/c or against features with another number of classes
        rng = np.random.default_rng(0)
        t = np.arange(2048) / 1024.0
        for label in "abc":
            noise = rng.normal(0.0, 0.2 + 0.1 * "abc".index(label), t.size)
            x = np.sin(2 * np.pi * 8.0 * t) + noise
            np.savetxt(tmp_path / f"{label}.csv", x, delimiter=",")
        for labels in ("ab", "bc"):
            assert main(["ingest", "--out", str(tmp_path / f"store_{labels}"), "--fs", "1024",
                         *(f"--input={c}={tmp_path / f'{c}.csv'}" for c in labels)]) == EXIT_OK
            assert main(["featurize", "--store", str(tmp_path / f"store_{labels}"),
                         "--out", str(tmp_path / f"feats_{labels}"), "--segment-len", "4",
                         "--period-hint-hz", "8"]) == EXIT_OK
        assert main(["train", "--features", str(tmp_path / "feats_ab"),
                     "--out", str(tmp_path / "model"), "--epochs", "1"]) == EXIT_OK
        # a checkpoint without labels must still score as many classes
        unnamed = tmp_path / "unnamed.json"
        unnamed.write_text(json.dumps({k: v for k, v in json.loads(
            (chain["model"] / "checkpoint.json").read_text()).items() if k != "labels"}))
        capsys.readouterr()
        for ckpt, feats in ((tmp_path / "model" / "checkpoint.json", "feats_bc"),
                            (unnamed, "feats_ab")):
            code = main(["eval", "--features", str(tmp_path / feats), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "report")])
            assert code == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("tdafault: ") and err.count("\n") == 1, err
            assert str(ckpt) in err and str(tmp_path / feats) in err
        assert not (tmp_path / "report").exists()

    def test_huge_learning_rate_is_numeric_error(self, chain, tmp_path, capsys):
        code = main(["train", "--features", str(chain["feats"]),
                     "--out", str(tmp_path / "m"), "--lr", "1e300",
                     "--epochs", "2", "--patience", "2"])
        assert code == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config, key", [
        (["--fs", "inf"], None, "sample_rate_hz"),
        (["--fs", "1e300", "--duration", "1e300"], None, "duration_s"),
        ([], {"synth": {"shaft_rpm": 0}}, "shaft_rpm"),
        (["--noise-sigma", "nan"], None, "noise_sigma"),
        (["--fs", "nan"], None, "sample_rate_hz"),
    ], ids=["infinite-fs", "overflowing-length", "zero-rpm", "nan-noise", "nan-fs"])
    def test_out_of_range_synth_setting_is_data_error(self, tmp_path, capsys, flags, config,
                                                      key):
        argv = ["synth", "--out", str(tmp_path / "store"), *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert key in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("flags, config, key", [
        (["--d-model", "0"], None, "d_model"),
        ([], {"model": {"d_k": 0}}, "d_k"),
        ([], {"model": {"d_v": 0}}, "d_v"),
        (["--lr", "nan"], None, "learning_rate"),
        (["--lr", "inf"], None, "learning_rate"),
        ([], {"train": {"eps": float("nan")}}, "eps"),  # written as the JSON extension NaN
    ], ids=["zero-d_model", "zero-d_k", "zero-d_v", "nan-lr", "infinite-lr", "nan-eps"])
    def test_out_of_range_model_or_train_setting_is_data_error(self, chain, tmp_path, capsys,
                                                               monkeypatch, flags, config, key):
        monkeypatch.setattr("tdafault.cli.fit", lambda *a, **k: pytest.fail("training started"))
        argv = ["train", "--features", str(chain["feats"]), "--out", str(tmp_path / "m"), *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert key in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("verb", ["featurize", "decompose"])
    def test_bad_recording_mid_store_leaves_no_manifest(self, chain, tmp_path, capsys, verb):
        # the store verbs stream, so a bad second recording is found after the
        # first one's outputs may be written; the manifest never is
        store = tmp_path / "store"
        shutil.copytree(chain["store"], store)
        path = store / "rec_00001.npy"
        path.write_bytes(path.read_bytes()[:-8])
        out = tmp_path / "o"
        assert main([verb, "--store", str(store), "--out", str(out),
                     "--period-hint-hz", HINT]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "rec_00001" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("verb, period", [
        ("decompose", ["--period", "68"]), ("decompose", []), ("featurize", []),
    ], ids=["period-68", "estimated", "featurize"])
    def test_overflowing_decomposition_is_data_error(self, tmp_path, capsys, verb, period):
        # At shaft amplitude 1e307 the phase sums overflow; the period search
        # itself works at any magnitude.  Both verbs decompose by one step,
        # which names the recording.
        cfg, store, out = tmp_path / "cfg.json", tmp_path / "store", tmp_path / "d"
        cfg.write_text(json.dumps({"synth": {"shaft_amplitude": 1e307}}))
        assert main(["synth", "--out", str(store), "--fs", "2048", "--duration", "4",
                     "--recordings", "1", "--seed", "3", "--config", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([verb, "--store", str(store), "--out", str(out), *period])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "rec_00000" in err and "contains NaN or Inf" in err
        assert not (out / "manifest.json").exists()
        assert not out.exists()  # made at the first recording's write, which never came

    @pytest.mark.parametrize("verb, flag, value, field", [
        ("synth", "--recordings", "0", "recordings_per_class"),
        ("featurize", "--segment-len", "0", "segment_len"),
        ("featurize", "--train-frac", "1.0", "train_fraction"),
        ("featurize", "--val-frac", "1.5", "val_fraction"),
        ("train", "--heads", "0", "heads"),
        ("train", "--layers", "0", "layers"),
        ("train", "--batch-size", "0", "batch_size"),
        ("train", "--epochs", "0", "max_epochs"),
        ("train", "--patience", "0", "patience"),
    ])
    def test_out_of_range_setting_names_its_field_and_value(self, chain, tmp_path, capsys,
                                                            verb, flag, value, field):
        source = {"synth": [], "featurize": ["--store", str(chain["store"])],
                  "train": ["--features", str(chain["feats"])]}[verb]
        assert main([verb, *source, "--out", str(tmp_path / "o"), flag, value]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"tdafault: {field} must ") and err.count("\n") == 1, err
        assert f"got {value}" in err, err


class TestConfigFile:
    def test_config_sections_apply(self, tmp_path):
        # one file holds every stage's section; each verb reads its own
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"sample_rate_hz": 1024.0, "duration_s": 2.0,
                      "recordings_per_class": 1, "noise_sigma": 0.05},
            "features": {"segment_len": 4},
            "model": {"d_model": 8, "d_k": 4, "d_v": 4},
            "train": {"max_epochs": 1},
        }))
        store, feats, model = tmp_path / "store", tmp_path / "feats", tmp_path / "model"
        assert main(["synth", "--config", str(cfg), "--out", str(store)]) == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        assert all(e["n_samples"] == 2048 for e in manifest["recordings"])
        assert main(["featurize", "--config", str(cfg), "--store", str(store),
                     "--out", str(feats)]) == EXIT_OK
        fmanifest = json.loads((feats / "manifest.json").read_text())
        assert fmanifest["split"]["segment_len"] == 4
        assert main(["train", "--config", str(cfg), "--features", str(feats),
                     "--out", str(model)]) == EXIT_OK
        tmanifest = json.loads((model / "train_manifest.json").read_text())
        assert tmanifest["model_config"]["d_model"] == 8
        assert tmanifest["train_config"]["max_epochs"] == 1

    @pytest.mark.parametrize("verb, config", [
        ("synth", {"synht": {"duration_s": 2.0}}),
        ("train", {"modle": {"d_model": 8}}),
    ], ids=["synth", "train"])
    def test_unknown_config_section_is_data_error(self, chain, tmp_path, capsys, verb, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        source = {"synth": [], "train": ["--features", str(chain["feats"])]}[verb]
        out = tmp_path / "o"
        code = main([verb, "--config", str(cfg), *source, "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        (section,) = config
        assert "unknown config sections" in err and repr(section) in err
        assert not out.exists()

    @pytest.mark.parametrize("verb, flag", [
        ("featurize", "--seed"), ("eval", "--seed"), ("ingest", "--seed"),
        ("decompose", "--config"), ("eval", "--config"),
    ])
    def test_flag_the_verb_does_not_read_is_usage_error(self, chain, tmp_path, capsys,
                                                        verb, flag):
        # only synth and train use a seed; only synth, featurize and train read a config
        out = tmp_path / "o"
        source = {
            "featurize": ["--store", str(chain["store"])],
            "decompose": ["--store", str(chain["store"])],
            "ingest": ["--fs", "1024", f"--input=a={tmp_path / 'a.csv'}"],
            "eval": ["--features", str(chain["feats"]),
                     "--checkpoint", str(chain["model"] / "checkpoint.json")],
        }[verb]
        value = {"--seed": "1", "--config": str(tmp_path / "cfg.json")}[flag]
        with pytest.raises(SystemExit) as exc:
            main([verb, *source, "--out", str(out), flag, value])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"duration_s": 2.0,
                                             "recordings_per_class": 1}}))
        store = tmp_path / "store"
        assert main(["synth", "--config", str(cfg), "--out", str(store),
                     "--fs", "1024", "--duration", "1"]) == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        assert all(e["n_samples"] == 1024 for e in manifest["recordings"])

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"sample_rate": 1024.0}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == EXIT_DATA
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, section, key", [
        ("synth", "synth", "seed"),
        ("train", "model", "seed"),
        ("train", "model", "n_classes"),
        ("train", "train", "seed"),
    ])
    def test_config_key_the_verb_sets_is_unknown(self, chain, tmp_path, capsys,
                                                 verb, section, key):
        # --seed and the features' label count set these; a config value
        # would be silently overwritten
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 3}}))
        source = {"synth": [], "train": ["--features", str(chain["feats"])]}[verb]
        code = main([verb, "--config", str(cfg), *source, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "unknown config keys" in err and repr(key) in err

    def test_train_reads_the_config_file_once(self, chain, tmp_path, monkeypatch):
        load, reads = tdafault.cli._load_json_object, []
        monkeypatch.setattr(tdafault.cli, "_load_json_object",
                            lambda path, what: reads.append(what) or load(path, what))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"d_model": 8, "d_k": 4, "d_v": 4},
                                   "train": {"max_epochs": 1}}))
        assert main(["train", "--config", str(cfg), "--features", str(chain["feats"]),
                     "--out", str(tmp_path / "m")]) == EXIT_OK
        assert reads.count("config file") == 1
        manifest = json.loads((tmp_path / "m" / "train_manifest.json").read_text())
        assert manifest["model_config"]["d_model"] == 8
        assert manifest["train_config"]["max_epochs"] == 1

    def test_unknown_featurize_config_key_is_data_error(self, chain, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": {"window_length": 64}}))
        code = main(["featurize", "--config", str(cfg), "--store", str(chain["store"]),
                     "--out", str(tmp_path / "f")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "unknown config keys" in err and "window_length" in err

    def test_featurize_config_keys_apply(self, chain, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": {
            "window_len": 128, "stride": 64, "ma_window": 8, "segment_len": 8,
            "train_fraction": 0.6, "val_fraction": 0.2}}))
        feats = tmp_path / "f"
        assert main(["featurize", "--config", str(cfg), "--store", str(chain["store"]),
                     "--out", str(feats), "--stride", "128",
                     "--period-hint-hz", HINT]) == EXIT_OK
        manifest = json.loads((feats / "manifest.json").read_text())
        assert manifest["window"] == {"length": 128, "stride": 128}
        assert manifest["ma"]["window"] == 8
        assert manifest["split"] == {"segment_len": 8, "train_fraction": 0.6,
                                     "val_fraction": 0.2}

    @pytest.mark.parametrize("verb, section", [
        ("synth", {"synth": {"duration_s": "2"}}),
        ("featurize", {"features": {"window_len": "64"}}),
        ("train", {"train": {"batch_size": 2.5}}),
        ("train", {"model": {"heads": True}}),
        ("synth", {"synth": {"noise_sigma": False}}),
    ])
    def test_config_value_of_wrong_type_is_data_error(self, chain, tmp_path, capsys,
                                                      verb, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        source = {"synth": [], "featurize": ["--store", str(chain["store"])],
                  "train": ["--features", str(chain["feats"])]}[verb]
        code = main([verb, "--config", str(cfg), *source, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        (key,) = next(iter(section.values()))
        assert repr(key) in err

    def test_int_config_value_stands_for_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"duration_s": 1, "sample_rate_hz": 1024,
                                             "recordings_per_class": 1}}))
        store = tmp_path / "store"
        assert main(["synth", "--config", str(cfg), "--out", str(store)]) == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        assert all(e["n_samples"] == 1024 for e in manifest["recordings"])

    def test_non_object_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("tdafault: ") and err.count("\n") == 1, err
        assert "must hold a JSON object" in err


def _checkout_env():
    """Environment whose PYTHONPATH puts this checkout's ``src`` first."""
    src = Path(tdafault.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy():
    # Every verb pays this import at start-up; no tdafault module imports scipy.
    env = _checkout_env()
    code = ("import sys, tdafault.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout


# Runs ``tdafault.cli.main(argv)`` with every scipy import made to fail, then
# checks that the verb succeeded and left no scipy module loaded.
_WITHOUT_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)


sys.meta_path.insert(0, BlockScipy())
from tdafault.cli import main

code = main(sys.argv[1:])
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
sys.exit(code)
"""


@pytest.mark.parametrize("verb, extra", [
    ("decompose", []),
    ("decompose", ["--period", "69"]),
    ("decompose", ["--period", "300"]),  # past the direct-convolution limit
    ("featurize", []),
    ("featurize", ["--period-hint-hz", HINT]),
], ids=["decompose", "decompose-period-69", "decompose-period-300", "featurize",
        "featurize-hint"])
def test_front_end_runs_without_scipy(chain, tmp_path, verb, extra):
    # Smoothing, decomposition and the period search need numpy alone.
    argv = [verb, "--store", str(chain["store"]), "--out", str(tmp_path / "out"), *extra]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv], capture_output=True,
                          text=True, env=_checkout_env())
    assert proc.returncode == EXIT_OK, proc.stderr


def test_train_and_eval_run_without_scipy(chain, tmp_path):
    # The model engine needs numpy alone: GELU's erf is computed in autodiff.
    model = tmp_path / "model"
    for argv in (["train", "--features", str(chain["feats"]), "--out", str(model),
                  "--epochs", "1"],
                 ["eval", "--features", str(chain["feats"]), "--checkpoint",
                  str(model / "checkpoint.json"), "--out", str(tmp_path / "report")]):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv],
                              capture_output=True, text=True, env=_checkout_env())
        assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "report" / "report.json").exists()


def _declared_scripts(pyproject: Path) -> dict:
    """The ``[project.scripts]`` table; read as text where ``tomllib`` is absent."""
    text = pyproject.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
                scripts[key] = value
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def _entry_point():
    """Command and environment that run the packaged entry point in a child process.

    The installed ``tdafault`` script when it is on PATH; otherwise
    ``python -m tdafault`` from the checkout, after checking that the script an
    install would create calls the same ``main``.
    """
    script = shutil.which("tdafault")
    if script is not None:
        return [script], None
    root = Path(tdafault.__file__).resolve().parents[2]
    assert _declared_scripts(root / "pyproject.toml") == {"tdafault": "tdafault.cli:main"}
    return [sys.executable, "-m", "tdafault"], _checkout_env()


def test_console_entry_point(tmp_path):
    cmd, env = _entry_point()

    def run(*args):
        return subprocess.run([*cmd, *args], capture_output=True, text=True, env=env)

    proc = run("--help")
    assert proc.returncode == EXIT_OK
    for verb in ("synth", "ingest", "decompose", "featurize", "train", "eval", "report"):
        assert verb in proc.stdout
    assert run("nosuchverb").returncode == EXIT_USAGE
    # A code that main returns, rather than one argparse exits with, must
    # reach the process exit status too.
    assert run("report", "--input", str(tmp_path / "missing.json")).returncode == EXIT_DATA
