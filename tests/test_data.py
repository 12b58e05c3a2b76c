"""Synthetic generator, recording stores, loaders, and dataset splits."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tdafault.data import (
    CLASS_ORDER,
    DEFECT_RATE_PER_REV,
    FAULT_CLASSES,
    LOCATION_AMPLITUDE,
    RESONANCE_HZ,
    SPLITS,
    STORE_FORMAT,
    Examples,
    SplitConfig,
    SynthConfig,
    build_dataset,
    class_labels_for,
    gen_recording,
    gen_synthetic,
    load_features,
    load_recording_csv,
    load_recordings,
    load_recordings_mat,
    save_features,
    save_recordings,
    segment_tokens,
    shaft_period_samples,
    split_counts,
)
from tdafault.decompose import decompose_additive
from tdafault.features import MaConfig, WindowSpec, featurize
from tdafault.matio import write_mat


def fault_named(name):
    return FAULT_CLASSES[CLASS_ORDER.index(name)]


def burst_component(name, cfg, rec_idx=0):
    """Generated signal minus its exactly reconstructed shaft sine."""
    ts = gen_recording(fault_named(name), cfg, rec_idx)
    rng = np.random.default_rng([cfg.seed, CLASS_ORDER.index(name), rec_idx])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(len(ts)) / cfg.sample_rate_hz
    sine = cfg.shaft_amplitude * np.sin(2.0 * np.pi * cfg.shaft_hz * t + phase)
    return ts.samples - sine


class TestTaxonomy:
    def test_class_order(self):
        assert CLASS_ORDER == (
            "IR_007_1", "IR_014_1", "IR_021_1",
            "OR_007_6_1", "OR_014_6_1", "OR_021_6_1",
            "Ball_007_1", "Ball_014_1", "Ball_021_1",
            "Normal_1",
        )

    def test_fault_class_fields(self):
        by_name = {fc.name: fc for fc in FAULT_CLASSES}
        assert by_name["IR_014_1"].location == "inner"
        assert by_name["OR_021_6_1"].location == "outer"
        assert by_name["Ball_007_1"].location == "ball"
        assert by_name["Normal_1"].location == "none"
        assert by_name["Normal_1"].severity_inch == 0.0
        assert by_name["IR_021_1"].severity_inch == pytest.approx(0.021)
        assert by_name["Ball_014_1"].severity_inch == pytest.approx(0.014)

    def test_physical_constant_tables(self):
        assert DEFECT_RATE_PER_REV == {"inner": 5.4, "outer": 3.6, "ball": 4.7}
        assert set(RESONANCE_HZ) == set(LOCATION_AMPLITUDE) == {"inner", "outer", "ball"}

    def test_shaft_period_snapping(self):
        assert shaft_period_samples(4096.0) == 139  # round(4096*60/1772)
        assert shaft_period_samples(2048.0) == 69
        with pytest.raises(ValueError):
            shaft_period_samples(20.0)  # under two samples per revolution


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert cfg.sample_rate_hz == 4096.0
        assert cfg.duration_s == 8.0
        assert cfg.recordings_per_class == 4
        assert cfg.noise_sigma == 0.1

    def test_shaft_hz_is_snapped(self):
        cfg = SynthConfig(sample_rate_hz=4096.0)
        assert cfg.shaft_hz == 4096.0 / 139

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(recordings_per_class=0)


class TestGenRecording:
    CFG = SynthConfig(sample_rate_hz=2048.0, duration_s=1.0, noise_sigma=0.1, seed=3)

    def test_reproducible_and_distinct(self):
        a = gen_recording(fault_named("IR_007_1"), self.CFG, 0)
        b = gen_recording(fault_named("IR_007_1"), self.CFG, 0)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = gen_recording(fault_named("IR_007_1"), self.CFG, 1)
        other_seed = SynthConfig(sample_rate_hz=2048.0, duration_s=1.0, seed=4)
        d = gen_recording(fault_named("IR_007_1"), other_seed, 0)
        assert not np.array_equal(a.samples, c.samples)
        assert not np.array_equal(a.samples, d.samples)

    def test_length_label_and_rate(self):
        ts = gen_recording(fault_named("Ball_014_1"), self.CFG, 0)
        assert len(ts) == 2048
        assert ts.label == "Ball_014_1"
        assert ts.sample_rate_hz == 2048.0

    def test_noiseless_normal_is_a_pure_shaft_tone(self):
        cfg = SynthConfig(sample_rate_hz=2048.0, duration_s=1.0, noise_sigma=0.0)
        assert np.max(np.abs(burst_component("Normal_1", cfg))) < 1e-12
        # and the tone sits exactly on the snapped period, so the seasonal
        # channel absorbs it completely
        ts = gen_recording(fault_named("Normal_1"), cfg, 0)
        decomp = decompose_additive(ts, shaft_period_samples(2048.0))
        lo, hi = decomp.valid_range
        assert np.max(np.abs(decomp.residual[lo:hi])) < 1e-6

    @pytest.mark.parametrize("prefix,location", [("IR", "inner"), ("Ball", "ball")])
    def test_burst_amplitude_linear_in_severity(self, prefix, location):
        cfg = SynthConfig(sample_rate_hz=4096.0, duration_s=1.0, noise_sigma=0.0)
        suffix = "_1" if prefix in ("IR", "Ball") else "_6_1"
        small = np.max(np.abs(burst_component(f"{prefix}_007{suffix}", cfg)))
        double = np.max(np.abs(burst_component(f"{prefix}_014{suffix}", cfg)))
        triple = np.max(np.abs(burst_component(f"{prefix}_021{suffix}", cfg)))
        assert double / small == pytest.approx(2.0, rel=0.02)
        assert triple / small == pytest.approx(3.0, rel=0.02)

    def test_gen_synthetic_is_class_major(self):
        cfg = SynthConfig(sample_rate_hz=1024.0, duration_s=0.25, recordings_per_class=2)
        recs = gen_synthetic(cfg)
        assert [ts.label for ts in recs] == [
            name for name in CLASS_ORDER for _ in range(2)
        ]


def _store_with_entries(store, entries):
    """Replace the ``recordings`` of the store manifest in ``store``."""
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["recordings"] = entries
    path.write_text(json.dumps(manifest))


class TestStore:
    @pytest.fixture()
    def recordings(self):
        cfg = SynthConfig(sample_rate_hz=1024.0, duration_s=0.5, recordings_per_class=1)
        return [gen_recording(fault_named(n), cfg, 0) for n in ("IR_007_1", "Normal_1")]

    def test_round_trip(self, tmp_path, recordings):
        manifest = save_recordings(tmp_path / "store", recordings)
        assert manifest["format"] == STORE_FORMAT
        assert manifest["created"] is None
        loaded = list(load_recordings(tmp_path / "store"))
        assert len(loaded) == 2
        for orig, back in zip(recordings, loaded):
            np.testing.assert_array_equal(orig.samples, back.samples)
            assert back.label == orig.label
            assert back.sample_rate_hz == orig.sample_rate_hz

    def test_created_stamp_passthrough(self, tmp_path, recordings):
        save_recordings(tmp_path / "s", recordings, created="2024-05-01T00:00:00Z")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["created"] == "2024-05-01T00:00:00Z"

    def test_two_saves_are_byte_identical(self, tmp_path, recordings):
        save_recordings(tmp_path / "a", recordings)
        save_recordings(tmp_path / "b", recordings)
        for name in ("manifest.json", "rec_00000.npy", "rec_00001.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_format_rejected(self, tmp_path, recordings):
        save_recordings(tmp_path / "s", recordings)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_recordings(tmp_path / "s")

    def test_truncated_recording_rejected(self, tmp_path, recordings):
        save_recordings(tmp_path / "s", recordings)
        np.save(tmp_path / "s" / "rec_00001.npy", recordings[1].samples[:-1])
        with pytest.raises(ValueError, match="rec_00001"):
            list(load_recordings(tmp_path / "s"))

    @pytest.mark.parametrize("keep", [0, 40, -8])
    def test_cut_short_file_rejected(self, tmp_path, recordings, keep):
        save_recordings(tmp_path / "s", recordings)
        path = tmp_path / "s" / "rec_00000.npy"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="rec_00000"):
            list(load_recordings(tmp_path / "s"))

    @pytest.mark.parametrize(
        "samples", [np.zeros((256, 2)), np.zeros(512, dtype=np.float32)], ids=["2d", "float32"]
    )
    def test_wrong_shape_or_dtype_rejected(self, tmp_path, recordings, samples):
        save_recordings(tmp_path / "s", recordings)
        np.save(tmp_path / "s" / "rec_00000.npy", samples)
        with pytest.raises(ValueError, match="rec_00000"):
            list(load_recordings(tmp_path / "s"))

    def test_bad_recording_raises_when_it_is_reached(self, tmp_path, recordings):
        save_recordings(tmp_path / "s", recordings)
        np.save(tmp_path / "s" / "rec_00001.npy", np.full(len(recordings[1]), np.nan))
        loaded = load_recordings(tmp_path / "s")  # every entry checked, no .npy read yet
        np.testing.assert_array_equal(next(loaded).samples, recordings[0].samples)
        with pytest.raises(ValueError, match=r"recordings\[1\] \(key 'rec_00001'\).*NaN"):
            next(loaded)

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_recordings(tmp_path / "s", [])

    def test_empty_generator_save_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no recordings to save"):
            save_recordings(tmp_path / "s", (ts for ts in []))
        assert not (tmp_path / "s").exists()

    def test_failed_save_leaves_no_manifest(self, tmp_path, recordings):
        # an earlier store's manifest no longer describes files the failed run overwrote
        save_recordings(tmp_path / "s", recordings)

        def failing():
            yield recordings[1]
            raise ValueError("bad second recording")

        with pytest.raises(ValueError, match="bad second recording"):
            save_recordings(tmp_path / "s", failing())
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_generator_round_trip(self, tmp_path):
        cfg = SynthConfig(sample_rate_hz=1024.0, duration_s=0.25, recordings_per_class=1)
        generated = gen_synthetic(cfg)
        assert iter(generated) is generated  # streamed, not a list
        manifest = save_recordings(tmp_path / "s", generated)
        assert len(manifest["recordings"]) == len(CLASS_ORDER)
        loaded = load_recordings(tmp_path / "s")
        assert iter(loaded) is loaded
        for orig, back in zip(gen_synthetic(cfg), loaded, strict=True):
            np.testing.assert_array_equal(orig.samples, back.samples)
            assert (back.label, back.sample_rate_hz) == (orig.label, orig.sample_rate_hz)

    @pytest.mark.parametrize("value", [5, [], None, {"key": "rec_00000"}],
                             ids=["int", "empty-list", "null", "object"])
    def test_recordings_not_a_non_empty_list_rejected(self, tmp_path, recordings, value):
        store = tmp_path / "s"
        save_recordings(store, recordings)
        _store_with_entries(store, value)
        with pytest.raises(ValueError, match=r"manifest\.json: 'recordings' must be a non-empty"):
            load_recordings(store)

    @pytest.mark.parametrize("field, value", [
        ("key", "../../x"), ("key", "sub/rec_00000"), ("key", ""), ("key", 7),
        ("label", 3), ("label", ["IR_007_1"]),
        ("sample_rate_hz", "4096"), ("sample_rate_hz", None), ("sample_rate_hz", True),
        ("sample_rate_hz", 0), ("sample_rate_hz", float("inf")), ("n_samples", 512.0),
        ("n_samples", "512"),
    ], ids=["parent-key", "nested-key", "empty-key", "int-key", "int-label", "list-label",
            "string-rate", "null-rate", "bool-rate", "zero-rate", "infinite-rate", "float-n",
            "string-n"])
    def test_malformed_entry_field_rejected(self, tmp_path, recordings, field, value):
        store = tmp_path / "s"
        entry = save_recordings(store, recordings[:1])["recordings"][0]
        entry[field] = value
        _store_with_entries(store, [entry])
        with pytest.raises(ValueError, match=rf"recordings\[0\] \(key .*\).*{field}"):
            load_recordings(store)

    @pytest.mark.parametrize("field", ["key", "label", "sample_rate_hz", "n_samples"])
    def test_entry_missing_a_field_rejected(self, tmp_path, recordings, field):
        store = tmp_path / "s"
        entry = save_recordings(store, recordings[:1])["recordings"][0]
        del entry[field]
        _store_with_entries(store, [entry])
        with pytest.raises(ValueError, match=r"recordings\[0\] \(key .*\) needs a bare file name"):
            load_recordings(store)

    def test_entry_that_is_not_an_object_rejected(self, tmp_path, recordings):
        store = tmp_path / "s"
        save_recordings(store, recordings)
        _store_with_entries(store, ["rec_00000"])
        with pytest.raises(ValueError, match=r"recordings\[0\] \(key None\) needs"):
            load_recordings(store)

    def test_key_outside_the_store_is_not_read(self, tmp_path, recordings):
        # a valid recording one level up must not be reachable through the key
        store = tmp_path / "s"
        entry = save_recordings(store, recordings[:1])["recordings"][0]
        np.save(tmp_path / "outside.npy", recordings[0].samples)
        _store_with_entries(store, [dict(entry, key="../outside")])
        with pytest.raises(ValueError, match=r"recordings\[0\] \(key '\.\./outside'\) needs"):
            load_recordings(store)


class TestExternalLoaders:
    def test_csv_single_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("0.5\n-1.25\n3.0\n")
        ts = load_recording_csv(path, 100.0, label="lab")
        np.testing.assert_array_equal(ts.samples, [0.5, -1.25, 3.0])
        assert ts.sample_rate_hz == 100.0 and ts.label == "lab"

    def test_csv_takes_first_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,9.0\n2.0,9.0\n")
        ts = load_recording_csv(path, 10.0)
        np.testing.assert_array_equal(ts.samples, [1.0, 2.0])

    def test_mat_default_name_order_and_flattening(self, tmp_path):
        path = tmp_path / "sig.mat"
        write_mat(path, {
            "zz": np.array([[1.0, 3.0], [2.0, 4.0]]),  # flattens column-major
            "aa": np.arange(5, dtype=np.float64),
        })
        out = load_recordings_mat(path, 50.0, label="x")
        assert len(out) == 2  # sorted: aa first
        np.testing.assert_array_equal(out[0].samples, np.arange(5.0))
        np.testing.assert_array_equal(out[1].samples, [1.0, 2.0, 3.0, 4.0])
        assert all(ts.label == "x" and ts.sample_rate_hz == 50.0 for ts in out)

    def test_mat_var_selection(self, tmp_path):
        path = tmp_path / "sig.mat"
        write_mat(path, {"a": np.zeros(4), "b": np.ones(4)})
        out = load_recordings_mat(path, 10.0, var_names=["b"])
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].samples, np.ones(4))
        with pytest.raises(KeyError, match="missing"):
            load_recordings_mat(path, 10.0, var_names=["missing"])


class TestSplitMechanics:
    def test_segment_tokens_blocks(self):
        tokens = np.arange(22 * 3, dtype=float).reshape(22, 3)
        segs = segment_tokens(tokens, 5)
        assert len(segs) == 4  # tail of 2 rows dropped
        np.testing.assert_array_equal(segs[0], tokens[0:5])
        np.testing.assert_array_equal(segs[3], tokens[15:20])

    def test_split_counts_examples(self):
        cfg = SplitConfig()
        assert split_counts(20, cfg) == (14, 3, 3)
        assert split_counts(7, cfg) == (5, 1, 1)
        assert split_counts(3, cfg) == (1, 1, 1)  # repaired so no split is empty

    def test_split_counts_properties(self):
        for n in range(3, 60):
            for tr, va in [(0.7, 0.15), (0.5, 0.25), (0.8, 0.1), (0.34, 0.33)]:
                counts = split_counts(n, SplitConfig(train_fraction=tr, val_fraction=va))
                assert sum(counts) == n
                assert min(counts) >= 1

    def test_split_counts_minimum(self):
        with pytest.raises(ValueError):
            split_counts(2, SplitConfig())

    def test_split_config_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=0.9, val_fraction=0.2)
        with pytest.raises(ValueError):
            SplitConfig(segment_len=0)

    def test_class_labels_canonical_order(self):
        cfg = SynthConfig(sample_rate_hz=1024.0, duration_s=0.1)
        recs = [gen_recording(fault_named(n), cfg, 0)
                for n in ("Normal_1", "IR_007_1", "Ball_021_1")]
        labels = (ts.label for ts in recs)
        assert class_labels_for(labels) == ("IR_007_1", "Ball_021_1", "Normal_1")

    def test_class_labels_unknown_names_sorted(self):
        class Stub:
            def __init__(self, label):
                self.label = label

        assert class_labels_for(["zeta", "alpha"]) == ("alpha", "zeta")
        with pytest.raises(ValueError, match="need a label"):
            build_dataset([Stub(None)])


DATASET_NAMES = ("IR_007_1", "OR_007_6_1", "Normal_1")


@pytest.fixture(scope="module")
def splits():
    cfg = SynthConfig(sample_rate_hz=2048.0, duration_s=4.0, noise_sigma=0.05, seed=7)
    recs = [gen_recording(fault_named(n), cfg, 0) for n in DATASET_NAMES]
    return cfg, recs, build_dataset(recs, period_hint_hz=cfg.shaft_hz)


class TestBuildDataset:
    NAMES = DATASET_NAMES

    def test_shapes_and_labels(self, splits):
        _, _, ds = splits
        assert ds.labels == self.NAMES  # canonical order
        # 8192 samples -> 63 tokens -> 3 segments per class -> 1/1/1 split
        assert (len(ds.train), len(ds.val), len(ds.test)) == (3, 3, 3)
        for which in SPLITS:
            examples = ds.split(which)
            assert examples.tokens.shape == (3, 16, 9)
            assert examples.tokens.dtype == np.float64
            # one segment per class, class-major
            assert examples.labels.dtype == np.int64
            np.testing.assert_array_equal(examples.labels, [0, 1, 2])

    def test_standardized_on_train_only(self, splits):
        _, _, ds = splits
        rows = ds.train.tokens.reshape(-1, 9)
        live = ~ds.standardizer.constant_mask
        assert np.max(np.abs(rows.mean(axis=0)[live])) < 1e-9
        np.testing.assert_allclose(rows.std(axis=0)[live], 1.0, atol=1e-6)

    def test_split_is_contiguous_in_time(self, splits):
        cfg, recs, ds = splits
        # Redo the pipeline for the first class by hand; its three segments
        # must appear, in order, as that class's train, val, and test example.
        decomp = decompose_additive(recs[0], 69)
        seq = featurize(decomp, WindowSpec(), ma=MaConfig(window=16))
        segs = segment_tokens(seq.tokens, 16)
        # standardizing a split's stacked array is elementwise: the same bits
        # as standardizing each segment on its own
        for examples, seg in zip((ds.train, ds.val, ds.test), segs):
            np.testing.assert_array_equal(examples.tokens[0], ds.standardizer.transform(seg))

    def test_manifest_contents(self, splits):
        cfg, _, ds = splits
        m = ds.manifest
        assert m["format"] == "tdafault-features-v1"
        assert m["created"] is None
        assert m["labels"] == list(self.NAMES)
        assert m["period_hint_hz"] == cfg.shaft_hz
        assert all(e["period"] == 69 for e in m["recordings"])
        for name in self.NAMES:
            assert sum(m["split_counts"][name].values()) == 3

    def test_split_accessor(self, splits):
        _, _, ds = splits
        assert ds.split("val") is ds.val
        with pytest.raises(KeyError):
            ds.split("holdout")


class TestExamples:
    def test_fields_and_length(self):
        tokens, labels = np.zeros((4, 3, 2)), np.array([0, 1, 1, 0])
        examples = Examples(tokens, labels)
        assert len(examples) == 4
        assert examples.tokens is tokens and examples.labels is labels

    @pytest.mark.parametrize("tokens, labels, match", [
        (np.zeros((3, 2)), np.zeros(3, dtype=np.int64), "tokens must be"),
        (np.full((3, 2, 2), np.nan), np.zeros(3, dtype=np.int64), "tokens must be"),
        (np.full((3, 2, 2), np.inf), np.zeros(3, dtype=np.int64), "tokens must be"),
        (np.zeros((3, 2, 2), dtype=np.float32), np.zeros(3, dtype=np.int64), "tokens must be"),
        (np.zeros((3, 2, 2)), np.zeros(3), "labels must be"),
        (np.zeros((3, 2, 2)), np.zeros(3, dtype=bool), "labels must be"),
        (np.zeros((3, 2, 2)), np.zeros((3, 1), dtype=np.int64), "labels must be"),
        (np.zeros((3, 2, 2)), np.zeros(2, dtype=np.int64), "3 sequences and 2 labels"),
        (np.zeros((0, 2, 2)), np.zeros(0, dtype=np.int64), "at least one sequence"),
    ], ids=["2d-tokens", "nan-tokens", "inf-tokens", "float32-tokens", "float-labels",
            "bool-labels", "2d-labels", "count-mismatch", "empty"])
    def test_invariants_rejected(self, tokens, labels, match):
        with pytest.raises(ValueError, match=match):
            Examples(tokens, labels)


@pytest.fixture(scope="module")
def features_dir(splits, tmp_path_factory):
    root = tmp_path_factory.mktemp("feats")
    save_features(root, splits[2])
    return root


def _mutations():
    """One ``X_``/``y_`` file of one split, and how to change its array.

    The array is replaced by an arbitrary one, cast to an arbitrary dtype,
    or has one entry set to a non-finite token or an arbitrary label.
    """
    anything = hnp.arrays(
        st.one_of(hnp.scalar_dtypes(), st.just(np.dtype(np.float64)),
                  st.just(np.dtype(np.int64))),
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
    )
    split = st.sampled_from(SPLITS)
    return st.one_of(
        st.tuples(st.sampled_from("Xy"), split, anything.map(lambda a: ("set", a))),
        st.tuples(st.sampled_from("Xy"), split, st.tuples(st.just("cast"), hnp.scalar_dtypes())),
        st.tuples(st.just("X"), split, st.tuples(
            st.just("poke"), st.sampled_from([np.nan, np.inf, -np.inf]))),
        st.tuples(st.just("y"), split, st.tuples(
            st.just("poke"), st.integers(-(2 ** 63), 2 ** 63 - 1))),
    )


class TestFeaturesDirectory:
    def test_round_trip(self, splits, features_dir):
        ds, back = splits[2], load_features(features_dir)
        for which in SPLITS:
            np.testing.assert_array_equal(back.split(which).tokens, ds.split(which).tokens)
            np.testing.assert_array_equal(back.split(which).labels, ds.split(which).labels)
        assert back.labels == ds.labels
        assert back.manifest == json.loads(json.dumps(ds.manifest))
        np.testing.assert_array_equal(back.standardizer.mean, ds.standardizer.mean)

    def test_failed_rewrite_leaves_no_manifest(self, splits, features_dir, tmp_path,
                                               monkeypatch):
        # a run that fails after its first array must not leave the old
        # manifest describing a mix of old and new files
        root = tmp_path / "feats"
        shutil.copytree(features_dir, root)
        saved, real_save = [], np.save

        def save(path, array):
            if saved:
                raise OSError("disk full")
            real_save(path, array)
            saved.append(path)

        monkeypatch.setattr(np, "save", save)
        with pytest.raises(OSError, match="disk full"):
            save_features(root, splits[2])
        monkeypatch.undo()
        assert saved and not (root / "manifest.json").exists()
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_features(root)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutation=_mutations(), index=st.integers(0, 10 ** 6))
    def test_malformed_array_names_its_file(self, features_dir, mutation, index):
        kind, which, (how, value) = mutation
        name = f"{kind}_{which}.npy"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "feats"
            shutil.copytree(features_dir, root)
            array = np.load(root / name)
            if how == "set":
                array = value
            elif how == "cast":
                try:
                    array = array.astype(value)
                except (TypeError, ValueError):
                    reject()
            else:
                array.flat[index % array.size] = value
            np.save(root / name, array)
            try:
                loaded = load_features(root)
            except ValueError as exc:
                assert name in str(exc)
                return
        # accepted: the file held a valid array, and it loaded unchanged
        examples = loaded.split(which)
        np.testing.assert_array_equal(examples.tokens if kind == "X" else examples.labels, array)
        assert examples.tokens.ndim == 3 and examples.tokens.dtype == np.float64
        assert examples.tokens.shape[2] == len(loaded.manifest["feature_names"])
        assert np.isfinite(examples.tokens).all()
        assert examples.labels.ndim == 1 and examples.labels.dtype.kind in "iu"
        assert len(examples.labels) == len(examples.tokens) > 0
        assert 0 <= examples.labels.min() and examples.labels.max() < len(loaded.labels)
