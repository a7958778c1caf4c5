import csv
import json
import re
import shutil

import numpy as np
import pytest

from facegraph import (
    DatasetError,
    DimensionMismatchError,
    InvalidInputError,
    ManifestParseError,
    MissingFileError,
    SyntheticSpec,
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
        for (sid_a, a), (sid_b, b) in zip(*graphs):
            assert sid_a == sid_b
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

    def test_unparseable_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{oops")
        with pytest.raises(ManifestParseError):
            load_dataset(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nowhere")


class TestDatasetGraphs:
    def test_feature_backed(self):
        dataset = generate_synthetic(SMALL)
        pairs = dataset_graphs(dataset, 0.3)
        assert len(pairs) == 15
        assert all(g.num_nodes == 6 for _, g in pairs)

    def test_features_take_precedence_over_image(self):
        dataset = generate_synthetic(SMALL)
        plain = dataset_graphs(dataset, 0.3)
        # an image beside stored features is never encoded
        dataset.samples[0].image = np.full((224, 224), 200, dtype=np.uint8)
        pairs = dataset_graphs(dataset, 0.3)
        assert pairs[0][0] == "s000_c0"
        assert np.array_equal(pairs[0][1].features, plain[0][1].features)

    def test_image_backed_encoding(self, tmp_path):
        manifest = save_dataset(generate_synthetic_imageset(IMAGES), tmp_path / "ds")
        loaded = load_dataset(manifest)
        pairs = dataset_graphs(loaded, 0.3, patch_size=(15, 15))
        assert all(g.features.shape == (5, 64) for _, g in pairs)

    def test_unsaved_imageset_matches_saved(self, tmp_path):
        dataset = generate_synthetic_imageset(IMAGES)
        loaded = load_dataset(save_dataset(dataset, tmp_path / "ds"))
        fresh = dataset_graphs(dataset, 0.5, patch_size=(15, 15))
        saved = dataset_graphs(loaded, 0.5, patch_size=(15, 15))
        for (sid_a, a), (sid_b, b) in zip(fresh, saved, strict=True):
            assert sid_a == sid_b
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.adjacency, b.adjacency)


class TestSplits:
    def test_random_split_disjoint_and_complete(self):
        dataset = generate_synthetic(SMALL)
        train_idx, test_idx = split_indices(dataset, 0.25, 1000)
        assert not set(train_idx) & set(test_idx)
        assert sorted(train_idx + test_idx) == list(range(15))
        assert len(test_idx) == 3  # one per class at fraction 0.25 of 5

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
        pairs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        path = tmp_path / "emb.csv"
        export_embeddings(model, pairs, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 16  # header + 15 samples
        assert lines[0].split(",")[:3] == ["sample_id", "label", "prediction"]
        assert len(lines[1].split(",")) == 3 + 10

    def test_embeddings_deterministic_bytes(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        pairs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        export_embeddings(model, pairs, tmp_path / "a.csv")
        export_embeddings(model, pairs, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_embeddings_rows_are_predict_outputs(self, tmp_path):
        dataset = generate_synthetic(SMALL)
        pairs = dataset_graphs(dataset, 0.3)
        model = init_model(GcnConfig(in_dim=8, num_classes=3, hidden_dim=10), 0)
        export_embeddings(model, pairs, tmp_path / "emb.csv")
        predictions, _, embeddings = predict(model, [g for _, g in pairs])
        with open(tmp_path / "emb.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert [(r[0], int(r[1])) for r in rows] == [(sid, g.label) for sid, g in pairs]
        assert [int(r[2]) for r in rows] == predictions.tolist()
        written = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.array_equal(written.view(np.int64), embeddings.view(np.int64))

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
