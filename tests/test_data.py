import csv
import json
import math
import re
import shutil
import struct
import warnings

import numpy as np
import pytest

import facegraph.data as data_module
from facegraph import (
    DatasetError,
    DimensionMismatchError,
    InvalidInputError,
    ManifestParseError,
    MissingFileError,
    SampleRecord,
    SyntheticSpec,
    UsageError,
    build_graph,
    dataset_graphs,
    edge_count,
    export_embeddings,
    generate_synthetic,
    generate_synthetic_imageset,
    init_model,
    load_dataset,
    predict,
    read_feature_blob,
    save_dataset,
    split_indices,
    write_feature_blob,
    write_graph_dot,
    write_graph_json,
    write_pgm,
)
from facegraph.gcn import GcnConfig
from facegraph.metrics import MAX_CLASSES

from oracles import nearest_prototype_accuracy

SMALL = SyntheticSpec(num_classes=3, samples_per_class=5, landmark_count=6,
                      feature_dim=8, seed=77)
IMAGES = SyntheticSpec(num_classes=2, samples_per_class=2, landmark_count=5,
                       feature_dim=8, seed=5)


def prototypes_for(spec):
    clean = SyntheticSpec(num_classes=spec.num_classes,
                          samples_per_class=1,
                          landmark_count=spec.landmark_count,
                          feature_dim=spec.feature_dim,
                          geometry_displacement_scale=spec.geometry_displacement_scale,
                          feature_noise_scale=0.0,
                          seed=spec.seed)
    dataset = generate_synthetic(clean)
    return np.stack([np.asarray(s.features, dtype=float) for s in dataset.samples])


class TestFeatureBlob:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "x.fgf"
        write_feature_blob(path, array)
        assert np.array_equal(read_feature_blob(path), array)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fgf"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(DatasetError):
            read_feature_blob(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.fgf"
        write_feature_blob(path, np.zeros((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DatasetError):
            read_feature_blob(path)


    @pytest.mark.parametrize("rows, dim", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 31, 2 ** 31),
                                           (1, 1), (5, 3)])
    def test_header_larger_than_file_is_truncated(self, tmp_path, rows, dim):
        # the header's size is never handed to read: 4 * rows * dim bytes of
        # the first two would not fit a read's size argument
        path = tmp_path / "huge.fgf"
        path.write_bytes(b"FGF1" + struct.pack("<III", 1, rows, dim))
        with pytest.raises(DatasetError, match="feature blob truncated"):
            read_feature_blob(path)

    def test_write_needs_a_matrix(self, tmp_path):
        with pytest.raises(InvalidInputError, match="2-D"):
            write_feature_blob(tmp_path / "x.fgf", np.zeros(3))

    def test_trailing_bytes_accepted(self, tmp_path):
        array = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "long.fgf"
        write_feature_blob(path, array)
        path.write_bytes(path.read_bytes() + bytes(8))
        assert np.array_equal(read_feature_blob(path), array)

    @pytest.mark.parametrize("version", [0, 2, 2 ** 32 - 1])
    def test_unsupported_version(self, tmp_path, version):
        path = tmp_path / "v.fgf"
        path.write_bytes(b"FGF1" + struct.pack("<III", version, 1, 1) + bytes(4))
        with pytest.raises(DatasetError, match=f"unsupported feature blob version {version}"):
            read_feature_blob(path)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.sample_id == sb.sample_id
            assert np.array_equal(sa.landmarks, sb.landmarks)
            assert np.array_equal(sa.features, sb.features)

    def test_zero_noise_collapses_classes(self):
        spec = SyntheticSpec(num_classes=2, samples_per_class=4, landmark_count=5,
                             feature_dim=6, geometry_displacement_scale=0.0,
                             feature_noise_scale=0.0, seed=3)
        dataset = generate_synthetic(spec)
        by_label = {}
        for sample in dataset.samples:
            by_label.setdefault(sample.label, []).append(sample)
        for group in by_label.values():
            first = group[0]
            for other in group[1:]:
                assert np.array_equal(first.landmarks, other.landmarks)
                assert np.array_equal(first.features, other.features)

    def test_separable_at_default_noise(self):
        dataset = generate_synthetic(SMALL)
        accuracy = nearest_prototype_accuracy(dataset, prototypes_for(SMALL))
        assert accuracy >= 0.99

    def test_oracle_accuracy_nonincreasing_in_noise(self):
        accuracies = []
        for noise in (0.25, 2.0, 8.0):
            spec = SyntheticSpec(num_classes=4, samples_per_class=12,
                                 landmark_count=6, feature_dim=8,
                                 feature_noise_scale=noise, seed=11)
            dataset = generate_synthetic(spec)
            accuracies.append(nearest_prototype_accuracy(dataset, prototypes_for(spec)))
        assert all(a >= b for a, b in zip(accuracies, accuracies[1:]))
        assert accuracies[0] > accuracies[-1]

    def test_counts_and_ids(self):
        dataset = generate_synthetic(SMALL)
        assert len(dataset.samples) == 15
        assert dataset.samples[0].sample_id == "s000_c0"
        assert dataset.num_classes == 3

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(samples_per_class=0)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(feature_noise_scale=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 2.5), ("landmark_count", 4.0), ("seed", 1.5),
        ("samples_per_class", True), ("feature_dim", "8"), ("seed", None),
    ], ids=["classes_fraction", "landmarks_float", "seed_fraction", "per_class_bool",
            "feature_dim_text", "seed_none"])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be an int, got {value!r}$"):
            SyntheticSpec(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        spec = SyntheticSpec(num_classes=np.int64(3), samples_per_class=np.int32(5),
                             landmark_count=np.int64(6), feature_dim=np.int64(8),
                             seed=np.int64(77))
        got, want = generate_synthetic(spec), generate_synthetic(SMALL)
        assert [s.sample_id for s in got.samples] == [s.sample_id for s in want.samples]
        for a, b in zip(got.samples, want.samples):
            assert np.array_equal(a.landmarks, b.landmarks)
            assert np.array_equal(a.features, b.features)

    def test_generic_names_past_the_expression_names(self):
        spec = SyntheticSpec(num_classes=8, samples_per_class=1, landmark_count=2,
                             feature_dim=2)
        assert generate_synthetic(spec).class_names == [f"class_{c}" for c in range(8)]

    def test_blob_off_the_image_leaves_the_background(self):
        spec = SyntheticSpec(num_classes=2, samples_per_class=2, landmark_count=3,
                             geometry_displacement_scale=1e4, seed=5)
        for sample in generate_synthetic_imageset(spec).samples:
            assert np.all(np.abs(sample.landmarks - 112.0).max(axis=1) > 130.0)
            assert np.all(sample.image == 30)

    @pytest.mark.parametrize("generate, sample_bytes", [
        (generate_synthetic, lambda spec: 8 * spec.landmark_count * (2 + spec.feature_dim)),
        (generate_synthetic_imageset,
         lambda spec: 16 * spec.landmark_count + data_module.IMAGE_SIZE ** 2),
    ], ids=["features", "images"])
    def test_budget_counts_every_sample_byte(self, monkeypatch, generate, sample_bytes):
        size = 15 * sample_bytes(SMALL)
        monkeypatch.setattr(data_module, "MAX_SYNTHETIC_BYTES", size)
        assert len(generate(SMALL).samples) == 15
        monkeypatch.setattr(data_module, "MAX_SYNTHETIC_BYTES", size - 1)
        with pytest.raises(UsageError, match=f"{size} bytes, above the budget of {size - 1}$"):
            generate(SMALL)

    @pytest.mark.parametrize("generate, field", [
        (generate_synthetic, "num_classes"), (generate_synthetic, "landmark_count"),
        (generate_synthetic, "feature_dim"), (generate_synthetic_imageset, "num_classes"),
        (generate_synthetic_imageset, "landmark_count"),
    ], ids=["classes", "landmarks", "feature_dim", "images_classes", "images_landmarks"])
    def test_huge_size_refused(self, generate, field):
        with pytest.raises(UsageError, match="above the budget"):
            generate(SyntheticSpec(**{field: 10 ** 9}))

    def test_imageset_renders_per_sample(self):
        spec = SyntheticSpec(num_classes=2, samples_per_class=3, landmark_count=5,
                             feature_dim=8, seed=5)
        dataset = generate_synthetic_imageset(spec)
        assert len(dataset.samples) == 6
        for sample in dataset.samples:
            assert sample.features is None
            assert sample.image.shape == (224, 224)
            assert sample.image.dtype == np.uint8
        assert not np.array_equal(dataset.samples[0].image, dataset.samples[1].image)


class TestSaveLoad:
    def test_round_trip_blob_bitwise(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        manifest = save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert loaded.class_names == dataset.class_names
        for a, b in zip(dataset.samples, loaded.samples):
            assert a.sample_id == b.sample_id and a.label == b.label
            assert np.array_equal(a.landmarks, b.landmarks)
            assert np.array_equal(a.features, b.features)

    def test_round_trip_inline_bitwise(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        manifest = save_dataset(dataset, tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        for sample_doc, sample in zip(doc["samples"], dataset.samples):
            sample_doc["features"] = sample.features.astype(np.float32).tolist()
        shutil.rmtree(tmp_path / "ds" / "features")
        manifest.write_text(json.dumps(doc))
        loaded = load_dataset(manifest)
        for a, b in zip(dataset.samples, loaded.samples):
            assert np.array_equal(a.features, b.features)

    def test_round_trip_images(self, tmp_path):
        dataset = generate_synthetic_imageset(IMAGES)
        manifest = save_dataset(dataset, tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        loaded = load_dataset(manifest)
        for a, b, sample_doc in zip(dataset.samples, loaded.samples, doc["samples"]):
            assert b.features is None
            assert sample_doc["image"] == f"images/{a.sample_id}.pgm"
            assert b.image.dtype == np.uint8
            assert np.array_equal(a.image, b.image)

    def test_resaved_image_dataset_loads(self, tmp_path):
        first = load_dataset(save_dataset(generate_synthetic_imageset(IMAGES),
                                          tmp_path / "ds"))
        second = load_dataset(save_dataset(first, tmp_path / "copy"))
        for a, b in zip(first.samples, second.samples):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.image, b.image)
        graphs = [dataset_graphs(d, 0.5, patch_size=(15, 15)) for d in (first, second)]
        for a, b in zip(*graphs):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.adjacency, b.adjacency)

    def test_images_load_beside_features(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        manifest = save_dataset(dataset, tmp_path / "ds")
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        (tmp_path / "ds" / "images").mkdir()
        write_pgm(tmp_path / "ds" / "images" / "s000_c0.pgm", image)
        doc = json.loads(manifest.read_text())
        doc["samples"][0]["image"] = "images/s000_c0.pgm"
        manifest.write_text(json.dumps(doc))
        loaded = load_dataset(manifest)
        assert np.array_equal(loaded.samples[0].image, image)
        assert np.array_equal(loaded.samples[0].features, dataset.samples[0].features)
        assert loaded.samples[1].image is None

    def test_empty_dataset_ok(self, tmp_path):
        from facegraph import Dataset
        manifest = save_dataset(Dataset(["a", "b"], 4, 6, []), tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert loaded.samples == []

    def test_load_accepts_directory(self, tmp_path):
        save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded.samples) == 15

    def test_label_out_of_range_names_sample(self, tmp_path):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        doc["samples"][3]["label"] = 9
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=doc["samples"][3]["sample_id"]):
            load_dataset(manifest)

    def test_missing_feature_file(self, tmp_path):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        (tmp_path / "ds" / "features" / "s000_c0.fgf").unlink()
        with pytest.raises(MissingFileError, match="s000_c0"):
            load_dataset(manifest)

    def test_missing_image_file(self, tmp_path):
        manifest = save_dataset(generate_synthetic_imageset(IMAGES), tmp_path / "ds")
        (tmp_path / "ds" / "images" / "s001_c1.pgm").unlink()
        with pytest.raises(MissingFileError, match="s001_c1"):
            load_dataset(manifest)

    def test_landmark_shape_mismatch(self, tmp_path):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        doc["samples"][0]["landmarks"] = [[0.0, 0.0]]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatchError, match="s000_c0"):
            load_dataset(manifest)

    @pytest.mark.parametrize("edit, named", [
        (lambda s, root: s[1].update(sample_id="../../escaped"), "../../escaped"),
        (lambda s, root: s[1].update(sample_id=".hidden"), ".hidden"),
        (lambda s, root: s[1].update(sample_id=s[0]["sample_id"]), "s000_c0"),
        (lambda s, root: s[1].pop("sample_id"), "sample 1"),
        (lambda s, root: s[1].update(sample_id=7), "sample 1"),
        (lambda s, root: s[1].update(features="../ds/" + s[1]["features"]), "s001_c0"),
        (lambda s, root: s[1].update(features=f"{root}/{s[1]['features']}"), "s001_c0"),
        (lambda s, root: s[1].update(image="../ds/" + s[1]["features"]), "s001_c0"),
    ], ids=["escaping_id", "dot_id", "duplicate_id", "missing_id", "int_id",
            "feature_dotdot", "feature_absolute", "image_dotdot"])
    def test_sample_ids_and_paths_restricted(self, tmp_path, edit, named):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        edit(doc["samples"], manifest.parent)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=re.escape(named)):
            load_dataset(manifest)

    @pytest.mark.parametrize("samples", [5, None, "s000_c0", {"sample_id": "s"}])
    def test_samples_must_be_a_list(self, tmp_path, samples):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        doc["samples"] = samples
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestParseError, match="samples"):
            load_dataset(manifest)

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(class_names=",".join(d["class_names"])), "class_names"),
        (lambda d: d.update(class_names=[0, 1, 2]), "class_names"),
        (lambda d: d.update(feature_dim=8.9), "feature_dim"),
        (lambda d: d.update(feature_dim=True), "feature_dim"),
        (lambda d: d.update(landmark_count="6"), "landmark_count"),
        (lambda d: d["samples"][2].update(label=1.9), "s002_c0"),
        (lambda d: d["samples"][2].update(label=True), "s002_c0"),
        (lambda d: d["samples"][2].update(label="0"), "s002_c0"),
    ], ids=["class_names_text", "class_names_ints", "feature_dim_float",
            "feature_dim_bool", "landmark_count_text", "label_float", "label_bool",
            "label_text"])
    def test_fields_are_not_coerced(self, tmp_path, edit, named):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestParseError, match=named):
            load_dataset(manifest)

    def test_symlinked_side_directory_loads(self, tmp_path):
        save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        (tmp_path / "ds" / "features").rename(tmp_path / "elsewhere")
        (tmp_path / "ds" / "features").symlink_to(tmp_path / "elsewhere")
        assert len(load_dataset(tmp_path / "ds").samples) == 15

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(format="something-else"), "not a facegraph-dataset manifest"),
        (lambda d: d.pop("format"), "not a facegraph-dataset manifest"),
        (lambda d: d.update(version=2), "unsupported version 2"),
        (lambda d: d.update(version="1"), "unsupported version 1"),
        (lambda d: d.pop("samples"), "missing fields ['samples']"),
        (lambda d: [d.pop(k) for k in ("feature_dim", "class_names")],
         "missing fields ['class_names', 'feature_dim']"),
        (lambda d: d.update(version=True), "unsupported version True"),
        (lambda d: d.update(version=1.0), "unsupported version 1.0"),
    ], ids=["wrong_format", "no_format", "version_2", "version_text", "no_samples",
            "two_fields", "version_bool", "version_float"])
    def test_manifest_header_checked(self, tmp_path, edit, message):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestParseError, match=re.escape(message)):
            load_dataset(manifest)

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(ManifestParseError, match="not a facegraph-dataset manifest"):
            load_dataset(path)

    def test_unparseable_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{oops")
        with pytest.raises(ManifestParseError):
            load_dataset(path)

    @pytest.mark.parametrize("content", [
        b'{"format": "\xff"}',
        b'{"format": "facegraph-dataset", "version": 1' + b"0" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not_utf8", "too_many_digits", "nested_too_deep"])
    def test_undecodable_manifest(self, tmp_path, content):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        with pytest.raises(ManifestParseError, match="invalid JSON"):
            load_dataset(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nowhere")

    @pytest.mark.parametrize("edit, error, message", [
        (lambda s: s.pop("landmarks"), ManifestParseError, "malformed landmarks"),
        (lambda s: s.update(landmarks="0,0"), ManifestParseError, "malformed landmarks"),
        (lambda s: s.update(landmarks=[[0.0, 1.0], [2.0]]), ManifestParseError,
         "malformed landmarks"),
        (lambda s: s["landmarks"][0].__setitem__(0, 10 ** 400), ManifestParseError,
         "malformed landmarks"),
        (lambda s: s["landmarks"][0].__setitem__(0, float("inf")), DatasetError,
         "non-finite landmark coordinates"),
        (lambda s: s["landmarks"][5].__setitem__(1, float("nan")), DatasetError,
         "non-finite landmark coordinates"),
        (lambda s: s.update(features=None, image=None), DatasetError,
         "needs features or an image"),
        (lambda s: s.pop("features"), DatasetError, "needs features or an image"),
        (lambda s: s.update(features=[["a"] * 8] * 6), ManifestParseError,
         "malformed inline features"),
        (lambda s: s.update(features=[[0.0] * 8] * 5 + [[0.0] * 7]), ManifestParseError,
         "malformed inline features"),
        (lambda s: s.update(features=[[10 ** 400] * 8] * 6), ManifestParseError,
         "malformed inline features"),
        (lambda s: s.update(features=[[0.0] * 8] * 5), DimensionMismatchError,
         "features shape (5, 8)"),
    ], ids=["landmarks_missing", "landmarks_text", "landmarks_ragged",
            "landmarks_huge_int", "landmark_inf", "landmark_nan", "neither_side",
            "features_missing", "features_text", "features_ragged",
            "features_huge_int", "features_short"])
    def test_bad_sample_entry_names_the_sample(self, tmp_path, edit, error, message):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        edit(doc["samples"][1])
        manifest.write_text(json.dumps(doc))
        with pytest.raises(error, match=f"^sample 's001_c0': .*{re.escape(message)}"):
            load_dataset(manifest)

    @pytest.mark.parametrize("value, inline", [
        (1e39, True), (-1e39, True), (float("nan"), True), (float("inf"), True),
        (float("nan"), False), (float("-inf"), False),
    ], ids=["inline_above_float32", "inline_below_float32", "inline_nan", "inline_inf",
            "blob_nan", "blob_negative_inf"])
    def test_non_finite_features_refused(self, tmp_path, value, inline):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        features = np.zeros((6, 8))
        features[2, 3] = value
        if inline:
            doc["samples"][1]["features"] = features.tolist()
            manifest.write_text(json.dumps(doc))
        else:
            write_feature_blob(tmp_path / "ds" / doc["samples"][1]["features"], features)
        with pytest.raises(DatasetError, match="^sample 's001_c0': non-finite features"):
            load_dataset(manifest)

    def test_float32_extremes_load(self, tmp_path):
        manifest = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        edge = float(np.finfo(np.float32).max)
        doc["samples"][1]["features"] = [[edge, -edge, 1e-45, 0.0] * 2] * 6
        manifest.write_text(json.dumps(doc))
        features = load_dataset(manifest).samples[1].features
        assert features.dtype == np.float32
        assert features[0, 0] == np.finfo(np.float32).max and features[0, 2] > 0

    @pytest.mark.parametrize("sample_id", ["../escaped", ".hidden", "a/b", "", 7, None],
                             ids=["parent", "dot", "separator", "empty", "int", "none"])
    def test_save_refuses_an_id_load_refuses(self, tmp_path, sample_id):
        dataset = generate_synthetic(SMALL)
        dataset.samples[3].sample_id = sample_id
        with pytest.raises(InvalidInputError, match="sample_id"):
            save_dataset(dataset, tmp_path / "ds" / "nested")
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_before_writing_any_sample(self, tmp_path):
        dataset = generate_synthetic_imageset(IMAGES)
        dataset.samples[-1].sample_id = "../escaped"
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(InvalidInputError):
            save_dataset(dataset, out)
        assert list(tmp_path.rglob("*")) == [out]

    @pytest.mark.parametrize("edit", [
        lambda s: setattr(s[3], "sample_id", s[1].sample_id),
        lambda s: setattr(s[3], "label", 1.7),
        lambda s: setattr(s[3], "label", 5),
        lambda s: setattr(s[3], "label", -1),
        lambda s: setattr(s[3], "label", float("nan")),
        lambda s: setattr(s[3], "label", None),
        lambda s: s[3].landmarks.__setitem__((2, 0), np.nan),
        lambda s: s[3].landmarks.__setitem__((0, 1), -np.inf),
        lambda s: s[3].features.__setitem__((1, 1), np.inf),
        lambda s: setattr(s[3], "features", np.full((6, 8), 1e39)),
    ], ids=["duplicate_id", "fractional_label", "label_past_classes", "negative_label",
            "nan_label", "none_label", "nan_landmark", "infinite_landmark",
            "infinite_feature", "feature_above_float32"])
    def test_save_refuses_a_sample_load_refuses(self, tmp_path, edit):
        dataset = generate_synthetic(SMALL)
        edit(dataset.samples)
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"sample {dataset.samples[3].sample_id!r}")):
            save_dataset(dataset, tmp_path / "ds" / "nested")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, named", [
        (lambda d: setattr(d.samples[3], "features", d.samples[3].features[:, :7]),
         "sample 's003_c0': features shape (6, 7)"),
        (lambda d: setattr(d.samples[3], "landmarks", d.samples[3].landmarks[:5]),
         "sample 's003_c0': landmarks shape (5, 2)"),
        (lambda d: setattr(d, "feature_dim", 9), "sample 's000_c0': features shape (6, 8)"),
        (lambda d: setattr(d.samples[3], "features", None),
         "sample 's003_c0': needs features or an image"),
        (lambda d: setattr(d, "class_names", [1, 2, 3]), "class_names"),
    ], ids=["features_short", "landmarks_short", "feature_dim_off", "neither_side",
            "class_names_ints"])
    def test_save_refuses_a_dataset_load_refuses(self, tmp_path, edit, named):
        dataset = generate_synthetic(SMALL)
        edit(dataset)
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            save_dataset(dataset, tmp_path / "ds" / "nested")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pixel", [300.0, -1, 0.5, np.nan],
                             ids=["above_255", "negative", "fractional", "nan"])
    def test_save_checks_every_image_before_writing(self, tmp_path, pixel):
        dataset = generate_synthetic_imageset(IMAGES)
        image = dataset.samples[-1].image.astype(float)
        image[4, 7] = pixel
        dataset.samples[-1].image = image
        with pytest.raises(InvalidInputError, match=r"^sample 's001_c1': .*pixels"):
            save_dataset(dataset, tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_whole_number_labels_save(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        dataset.samples[3].label = np.int64(2)
        dataset.samples[4].label = 1.0
        loaded = load_dataset(save_dataset(dataset, tmp_path / "ds"))
        assert [s.label for s in loaded.samples[3:5]] == [2, 1]
        assert all(type(s.label) is int for s in loaded.samples)

    @pytest.mark.parametrize("names", [None, "abc", 3, {"a": 0, "b": 1, "c": 2}],
                             ids=["none", "string", "int", "dict"])
    def test_save_refuses_class_names_not_a_list(self, tmp_path, names):
        dataset = generate_synthetic(SMALL)
        dataset.class_names = names
        with pytest.raises(InvalidInputError, match="class_names must be a list of strings"):
            save_dataset(dataset, tmp_path / "ds" / "nested")
        assert list(tmp_path.iterdir()) == []

    def test_tuple_class_names_save_as_a_list(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        names = list(dataset.class_names)
        dataset.class_names = tuple(names)
        assert load_dataset(save_dataset(dataset, tmp_path / "ds")).class_names == names


class TestDatasetGraphs:
    def test_feature_backed(self):
        dataset = generate_synthetic(SMALL)
        graphs = dataset_graphs(dataset, 0.3)
        assert len(graphs) == 15
        assert all(g.num_nodes == 6 for g in graphs)

    @pytest.mark.parametrize("with_images", [False, True])
    def test_graph_k_is_built_from_sample_k(self, with_images):
        dataset = (generate_synthetic_imageset(IMAGES) if with_images
                   else generate_synthetic(SMALL))
        assert all((s.features is None) == with_images for s in dataset.samples)
        graphs = dataset_graphs(dataset, 0.3, patch_size=(15, 15))
        assert len(graphs) == len(dataset.samples)
        for sample, graph in zip(dataset.samples, graphs):
            assert graph.label == sample.label
            assert np.array_equal(graph.landmarks, sample.landmarks)

    def test_sample_needs_features_or_an_image(self):
        dataset = generate_synthetic(SMALL)
        dataset.samples[1] = SampleRecord("bare", 0, dataset.samples[1].landmarks, None)
        with pytest.raises(DatasetError, match="'bare': no features and no image"):
            dataset_graphs(dataset, 0.3)

    def test_features_take_precedence_over_image(self):
        dataset = generate_synthetic(SMALL)
        plain = dataset_graphs(dataset, 0.3)
        # an image beside stored features is never encoded
        dataset.samples[0].image = np.full((224, 224), 200, dtype=np.uint8)
        graphs = dataset_graphs(dataset, 0.3)
        assert np.array_equal(graphs[0].features, plain[0].features)

    def test_image_backed_encoding(self, tmp_path):
        manifest = save_dataset(generate_synthetic_imageset(IMAGES), tmp_path / "ds")
        loaded = load_dataset(manifest)
        graphs = dataset_graphs(loaded, 0.3, patch_size=(15, 15))
        assert all(g.features.shape == (5, 64) for g in graphs)

    def test_unsaved_imageset_matches_saved(self, tmp_path):
        dataset = generate_synthetic_imageset(IMAGES)
        loaded = load_dataset(save_dataset(dataset, tmp_path / "ds"))
        fresh = dataset_graphs(dataset, 0.5, patch_size=(15, 15))
        saved = dataset_graphs(loaded, 0.5, patch_size=(15, 15))
        assert ([s.sample_id for s in dataset.samples]
                == [s.sample_id for s in loaded.samples])
        for a, b in zip(fresh, saved, strict=True):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.adjacency, b.adjacency)


class TestSplits:
    def test_random_split_disjoint_and_complete(self):
        dataset = generate_synthetic(SMALL)
        train_idx, test_idx = split_indices(dataset, 0.25, 1000)
        assert not set(train_idx) & set(test_idx)
        assert sorted(train_idx + test_idx) == list(range(15))
        assert len(test_idx) == 3  # one per class at fraction 0.25 of 5

    def test_two_per_class_puts_one_on_each_side(self):
        # round(0.25 * 2) is 0; the split still keeps one test and one train
        # sample of every class
        dataset = generate_synthetic(SyntheticSpec(num_classes=3, samples_per_class=2,
                                                   landmark_count=6, feature_dim=8))
        train_idx, test_idx = split_indices(dataset, 0.25, 1000)
        for indices in (train_idx, test_idx):
            assert sorted(dataset.samples[i].label for i in indices) == [0, 1, 2]

    def test_random_split_deterministic(self):
        dataset = generate_synthetic(SMALL)
        assert split_indices(dataset, 0.3, 7) == split_indices(dataset, 0.3, 7)

    def test_zero_fraction(self):
        dataset = generate_synthetic(SMALL)
        train_idx, test_idx = split_indices(dataset, 0.0, 1)
        assert test_idx == [] and len(train_idx) == 15

    def test_subject_split_keeps_subjects_together(self):
        dataset = generate_synthetic(SMALL)
        train_idx, test_idx = split_indices(dataset, 0.4, 1000, mode="subject")
        test_subjects = {dataset.samples[i].sample_id.split("_")[0] for i in test_idx}
        train_subjects = {dataset.samples[i].sample_id.split("_")[0] for i in train_idx}
        assert not test_subjects & train_subjects

    def test_bad_args(self):
        dataset = generate_synthetic(SMALL)
        with pytest.raises(InvalidInputError):
            split_indices(dataset, 1.5, 0)
        with pytest.raises(InvalidInputError):
            split_indices(dataset, 0.2, 0, mode="chronological")


class TestExports:
    def test_embeddings_rows_and_dims(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        graphs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        path = tmp_path / "emb.csv"
        export_embeddings(model, dataset, graphs, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 16  # header + 15 samples
        assert lines[0].split(",")[:3] == ["sample_id", "label", "prediction"]
        assert len(lines[1].split(",")) == 3 + 10

    def test_embeddings_deterministic_bytes(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        graphs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        export_embeddings(model, dataset, graphs, tmp_path / "a.csv")
        export_embeddings(model, dataset, graphs, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_embeddings_rows_are_predict_outputs(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        graphs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        export_embeddings(model, dataset, graphs, tmp_path / "emb.csv")
        predictions, _, embeddings = predict(model, graphs)
        with open(tmp_path / "emb.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert ([(r[0], int(r[1])) for r in rows]
                == [(s.sample_id, g.label) for s, g in zip(dataset.samples, graphs)])
        assert [int(r[2]) for r in rows] == predictions.tolist()
        written = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.array_equal(written.view(np.int64), embeddings.view(np.int64))

    def test_embeddings_need_one_graph_per_sample(self, tmp_path, monkeypatch):
        dataset = generate_synthetic(SMALL)
        graphs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        monkeypatch.setattr("facegraph.data.predict", None)  # must not be reached
        with pytest.raises(InvalidInputError, match="14 graphs for 15 samples"):
            export_embeddings(model, dataset, graphs[:-1], tmp_path / "emb.csv")
        assert not (tmp_path / "emb.csv").exists()

    def test_graph_json_empty_adjacency(self, tmp_path):
        graph = build_graph(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 0.0]]),
                            0.0, 0)
        path = tmp_path / "g.json"
        write_graph_json(graph, path)
        doc = json.loads(path.read_text())
        assert doc["edges"] == [] and len(doc["nodes"]) == 2

    def test_graph_exports_count_edges_once(self, tmp_path):
        from facegraph import GraphSample
        adjacency = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        graph = GraphSample(landmarks=np.arange(6, dtype=float).reshape(3, 2),
                            features=np.eye(3), adjacency=adjacency, label=1)
        write_graph_json(graph, tmp_path / "g.json")
        write_graph_dot(graph, tmp_path / "g.dot")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["edges"] == [[0, 1], [1, 2]]
        assert doc["num_edges"] == edge_count(adjacency) == 2
        dot = (tmp_path / "g.dot").read_text()
        assert dot.count(" -- ") == 2
        assert "n0" in dot and 'pos="0.0,1.0!"' in dot


class TestSettingBounds:
    """Synthetic counts are >= 1 and seeds >= 0, both stored as Python ints;
    noise scales are finite; a split's seed is a nonnegative int."""

    @pytest.mark.parametrize("field, value, low", [
        ("seed", -1, 0), ("num_classes", 0, 1), ("samples_per_class", -3, 1),
        ("landmark_count", 0, 1), ("feature_dim", np.int64(0), 1),
    ], ids=["seed", "classes", "per_class", "landmarks", "numpy_feature_dim"])
    def test_spec_below_its_bound(self, field, value, low):
        with pytest.raises(UsageError, match=f"^{field} must be >= {low}, got {value}$"):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("generate, sizes", [
        (generate_synthetic, {"num_classes": np.int64(2 ** 40),
                              "samples_per_class": np.int64(2 ** 40),
                              "landmark_count": 1, "feature_dim": 1}),
        (generate_synthetic_imageset, {"num_classes": np.int64(2 ** 40),
                                       "samples_per_class": np.int64(2 ** 40),
                                       "landmark_count": 1}),
        (generate_synthetic, {"landmark_count": np.int64(2 ** 32),
                              "feature_dim": np.int64(2 ** 32)}),
    ], ids=["classes_by_samples", "images_classes_by_samples", "landmarks_by_feature_dim"])
    def test_numpy_integer_sizes_do_not_wrap_the_budget(self, generate, sizes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="above the budget"):
                generate(SyntheticSpec(**sizes))

    def test_numpy_integers_stored_as_ints(self):
        spec = SyntheticSpec(num_classes=np.int64(3), samples_per_class=np.int32(5),
                             landmark_count=np.uint16(6), feature_dim=np.int64(8),
                             seed=np.int64(77))
        fields = (spec.num_classes, spec.samples_per_class, spec.landmark_count,
                  spec.feature_dim, spec.seed)
        assert [type(v) for v in fields] == [int] * 5
        assert spec == SMALL

    @pytest.mark.parametrize("field", ["geometry_displacement_scale",
                                       "feature_noise_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_noise_scales_are_finite(self, field, value):
        with pytest.raises(UsageError):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "1", np.int64(-1)],
                             ids=["negative", "fraction", "bool", "none", "text",
                                  "numpy_negative"])
    def test_split_seed_is_a_nonnegative_int(self, seed):
        with pytest.raises(UsageError, match="seed"):
            split_indices(generate_synthetic(SMALL), 0.25, seed)

    def test_split_takes_a_numpy_integer_seed(self):
        dataset = generate_synthetic(SMALL)
        assert split_indices(dataset, 0.25, np.int64(7)) == split_indices(dataset, 0.25, 7)

    @pytest.mark.parametrize("field", ["geometry_displacement_scale",
                                       "feature_noise_scale"])
    @pytest.mark.parametrize("value", ["0.1", None, True],
                             ids=["text", "none", "bool"])
    def test_noise_scales_are_real_numbers(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be a "):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field", ["geometry_displacement_scale",
                                       "feature_noise_scale"])
    def test_int_beyond_floats_is_an_infinite_noise_scale(self, field):
        with pytest.raises(UsageError, match="^synthetic noise scales must be finite"):
            SyntheticSpec(**{field: 10 ** 400})

    def test_noise_scales_stored_as_floats(self):
        spec = SyntheticSpec(geometry_displacement_scale=np.float32(12.0),
                             feature_noise_scale=np.int64(0))
        assert [type(v) for v in (spec.geometry_displacement_scale,
                                  spec.feature_noise_scale)] == [float, float]

    @pytest.mark.parametrize("fraction", ["0.25", None, False],
                             ids=["text", "none", "bool"])
    def test_split_fraction_is_a_real_number(self, fraction):
        with pytest.raises(UsageError, match="test_fraction"):
            split_indices(generate_synthetic(SMALL), fraction, 7)


def class_manifest(root, class_count, features):
    """A one-sample manifest declaring ``class_count`` classes; the sample's
    features are ``features``, inline values or a side-file path."""
    root.mkdir(parents=True, exist_ok=True)
    doc = {"format": "facegraph-dataset", "version": 1,
           "class_names": [f"c{k}" for k in range(class_count)],
           "feature_dim": 2, "landmark_count": 3,
           "samples": [{"sample_id": "a", "label": class_count - 1,
                        "landmarks": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                        "features": features, "image": None}]}
    (root / "manifest.json").write_text(json.dumps(doc))
    return root


class TestClassBudget:
    """No dataset declares more than MAX_CLASSES classes."""

    def test_manifest_at_the_budget_loads(self, tmp_path):
        root = class_manifest(tmp_path, MAX_CLASSES, [[1.0, 0.0]] * 3)
        assert load_dataset(root).num_classes == MAX_CLASSES

    def test_manifest_past_the_budget_is_refused_before_side_files(self, tmp_path):
        # at the budget the missing side file is what fails; past it, the count
        with pytest.raises(MissingFileError):
            load_dataset(class_manifest(tmp_path / "at", MAX_CLASSES, "missing.fgf"))
        root = class_manifest(tmp_path / "past", MAX_CLASSES + 1, "missing.fgf")
        with pytest.raises(DatasetError, match=f"{MAX_CLASSES + 1} classes, above the "
                                               f"budget of {MAX_CLASSES}$"):
            load_dataset(root)

    @pytest.mark.parametrize("generate, sizes", [
        (generate_synthetic, {"landmark_count": 2, "feature_dim": 1}),
        (generate_synthetic_imageset, {"landmark_count": 1}),
    ], ids=["features", "images"])
    def test_synthetic_at_and_past_the_budget(self, generate, sizes):
        spec = SyntheticSpec(num_classes=MAX_CLASSES, samples_per_class=1, **sizes)
        if generate is generate_synthetic:  # 1,024 images take 51 MB
            assert generate(spec).num_classes == MAX_CLASSES
        with pytest.raises(UsageError, match=f"^a synthetic dataset of {MAX_CLASSES + 1} "
                                             f"classes, above the budget of {MAX_CLASSES}$"):
            generate(SyntheticSpec(num_classes=MAX_CLASSES + 1, samples_per_class=1,
                                   **sizes))
