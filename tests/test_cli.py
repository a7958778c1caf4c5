import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import facegraph
from facegraph import cli
from facegraph.cli import main

TINY = ["--classes", "2", "--per-class", "6", "--landmarks", "6",
        "--feature-dim", "8", "--feature-noise", "0.05"]


def synth(tmp_path, name="ds", extra=()):
    out = tmp_path / name
    assert main(["synth", "--out-dir", str(out), *TINY, *extra]) == 0
    return out


def quick_train(tmp_path, dataset, name="run", epochs="4", extra=()):
    out = tmp_path / name
    code = main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                 "--epochs", epochs, "--batch-size", "4", "--hidden", "16",
                 *extra])
    assert code == 0
    return out


def test_cli_import_needs_numpy_only():
    code = ("import sys, facegraph.cli; "
            "leaked = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not leaked, leaked")
    env = {**os.environ, "PYTHONPATH": str(Path(facegraph.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestSynth:
    def test_sample_count(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(out), "--classes", "6",
                     "--per-class", "20", "--landmarks", "6",
                     "--feature-dim", "8", "--seed", "1000"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["samples"]) == 120

    def test_deterministic_directories(self, tmp_path):
        a = synth(tmp_path, "a")
        b = synth(tmp_path, "b")
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        blob = "features/s000_c0.fgf"
        assert (a / blob).read_bytes() == (b / blob).read_bytes()

    def test_per_class_zero_is_usage_error(self, tmp_path):
        code = main(["synth", "--out-dir", str(tmp_path / "x"),
                     "--per-class", "0"])
        assert code == 1

    def test_with_images(self, tmp_path):
        out = synth(tmp_path, "imgds", extra=["--with-images"])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["samples"][0]["features"] is None
        assert (out / doc["samples"][0]["image"]).exists()

    def test_config_echoed(self, tmp_path):
        out = synth(tmp_path)
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 1000
        assert config["classes"] == 2


class TestTrain:
    def test_zero_epochs(self, tmp_path):
        dataset = synth(tmp_path)
        out = quick_train(tmp_path, dataset, epochs="0")
        assert (out / "checkpoint.json").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history == ["epoch,lr,loss,accuracy"]
        assert (out / "metrics.json").exists()

    def test_rerun_identical_outputs(self, tmp_path):
        dataset = synth(tmp_path)
        a = quick_train(tmp_path, dataset, "run_a")
        b = quick_train(tmp_path, dataset, "run_b")
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_learns_separable_dataset(self, tmp_path):
        dataset = synth(tmp_path)
        out = quick_train(tmp_path, dataset, epochs="150")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] >= 0.9

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["train", "--out-dir", str(tmp_path / "o"),
                     "--dataset", str(tmp_path / "absent"), "--epochs", "1"])
        assert code == 2

    def test_fractional_label_is_data_error(self, tmp_path, capsys):
        dataset = synth(tmp_path)
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["samples"][0]["label"] = 1.9
        (dataset / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", "--out-dir", str(tmp_path / "o"),
                     "--dataset", str(dataset), "--epochs", "1"]) == 2
        assert "s000_c0" in capsys.readouterr().err

    def test_huge_lr_is_numeric_failure(self, tmp_path):
        dataset = synth(tmp_path)
        with np.errstate(all="ignore"):
            code = main(["train", "--out-dir", str(tmp_path / "o"),
                         "--dataset", str(dataset), "--epochs", "3",
                         "--hidden", "8", "--lr", "1e200",
                         "--lr-min", "1e199"])
        assert code == 3

    def test_config_file_and_flag_precedence(self, tmp_path):
        dataset = synth(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"epochs": 2, "hidden": 16,
                                           "batch_size": 4}))
        out = tmp_path / "cfg_run"
        assert main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                     "--config", str(config_path), "--epochs", "1"]) == 0
        history = (out / "history.csv").read_text().strip().split("\n")
        assert len(history) == 2  # header + exactly one epoch: flag wins
        effective = json.loads((out / "config.json").read_text())
        assert effective["epochs"] == 1 and effective["hidden"] == 16

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        dataset = synth(tmp_path)
        config_path = tmp_path / "bad.json"
        # "threads" names the removed --threads flag
        for doc in ({"learning_rate": 0.1}, {"threads": 2}):
            config_path.write_text(json.dumps(doc))
            code = main(["train", "--out-dir", str(tmp_path / "o"),
                         "--dataset", str(dataset), "--config", str(config_path)])
            assert code == 1

    def test_wrongly_typed_config_value_is_usage_error(self, tmp_path):
        dataset = synth(tmp_path)
        config_path = tmp_path / "bad.json"
        for doc in ({"epochs": "ten"}, {"hidden": 8.5}, {"seed": True},
                    {"dropout": "0.1"}, {"with_images": 1}, {"dataset": 5},
                    [{"epochs": 1}]):
            config_path.write_text(json.dumps(doc))
            code = main(["train", "--out-dir", str(tmp_path / "o"),
                         "--dataset", str(dataset), "--config", str(config_path)])
            assert code == 1, doc

    def test_int_config_value_accepted_for_float_key(self, tmp_path):
        dataset = synth(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"tau": 1, "lr": 1, "epochs": 1,
                                           "hidden": 8}))
        out = tmp_path / "int_floats"
        assert main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                     "--config", str(config_path)]) == 0

    def test_config_file_can_supply_dataset_path(self, tmp_path):
        dataset = synth(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"dataset": str(dataset), "epochs": 1,
                                           "hidden": 8, "batch_size": 4}))
        out = tmp_path / "from_config"
        assert main(["train", "--out-dir", str(out),
                     "--config", str(config_path)]) == 0
        assert (out / "checkpoint.json").exists()

    def test_missing_dataset_flag_is_usage_error(self, tmp_path):
        code = main(["train", "--out-dir", str(tmp_path / "o"), "--epochs", "1"])
        assert code == 1


class TestEval:
    def test_reload_matches_training_eval(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="6",
                          extra=["--test-fraction", "0"])
        out = tmp_path / "ev"
        assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                     "--checkpoint", str(run / "checkpoint.json")]) == 0
        trained = json.loads((run / "metrics.json").read_text())
        reloaded = json.loads((out / "metrics.json").read_text())
        assert trained == reloaded  # test split was the whole set

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        dataset = synth(tmp_path)
        code = main(["eval", "--out-dir", str(tmp_path / "o"),
                     "--dataset", str(dataset),
                     "--checkpoint", str(tmp_path / "none.json")])
        assert code == 2

    def test_eval_reuses_checkpoint_graph_settings(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="6",
                          extra=["--tau", "0.2", "--test-fraction", "0"])
        checkpoint = str(run / "checkpoint.json")
        plain = tmp_path / "plain"
        pinned = tmp_path / "pinned"
        overridden = tmp_path / "overridden"
        base = ["--dataset", str(dataset), "--checkpoint", checkpoint]
        assert main(["eval", "--out-dir", str(plain), *base]) == 0
        assert main(["eval", "--out-dir", str(pinned), *base, "--tau", "0.2"]) == 0
        assert main(["eval", "--out-dir", str(overridden), *base, "--tau", "0.9"]) == 0
        plain_doc = (plain / "metrics.json").read_text()
        assert plain_doc == (pinned / "metrics.json").read_text()
        assert (run / "metrics.json").read_text() == plain_doc
        # an explicit tau is honored instead of the checkpoint's
        assert json.loads((overridden / "config.json").read_text())["tau"] == 0.9


def with_optimizer_block(doc):
    """The optimizer block older versions could write beside the weights."""
    params = [*doc["layer_weights"], doc["readout_weight"], doc["readout_bias"]]
    moments = [{"shape": p["shape"], "data": [0.5] * len(p["data"])} for p in params]
    return {**doc, "optimizer": {"step": 7, "beta1": 0.9, "beta2": 0.999,
                                 "eps": 1e-8, "first_moment": moments,
                                 "second_moment": moments}}


class TestOlderCheckpoint:
    def test_optimizer_block_is_ignored(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="2", extra=["--hidden", "8"])
        doc = json.loads((run / "checkpoint.json").read_text())
        older = tmp_path / "older.json"
        with open(older, "w", encoding="utf-8") as handle:
            json.dump(with_optimizer_block(doc), handle, sort_keys=True,
                      separators=(",", ":"))
        outputs = []
        for name, checkpoint in (("now", run / "checkpoint.json"), ("older", older)):
            out = tmp_path / name
            assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                         "--checkpoint", str(checkpoint)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestBadCheckpoint:
    """Hand-edited checkpoints end in a data error (exit 2), not a traceback."""

    @pytest.mark.parametrize("edit", [
        # hidden 8: layer 1 is 8x8; 4x16 holds the same 64 numbers
        lambda d: d["layer_weights"][1].update(shape=[4, 16]),
        lambda d: d["readout_bias"].update(shape=[3], data=[0.0, 0.0, 0.0]),
        lambda d: d["layer_weights"].pop(),
        lambda d: d["preprocess"].update(tau="abc"),
        lambda d: d["preprocess"].update(tau=None),
        lambda d: d["preprocess"].update(tau=True),
        lambda d: d["preprocess"].update(tau=float("inf")),
        lambda d: d.update(preprocess={"patch_h": 30}),
        lambda d: d["preprocess"].update(patch_w=0),
        lambda d: d["preprocess"].update(encoder_dim=2.5),
        lambda d: d["preprocess"].update(encoder_seed="7"),
        lambda d: d.update(preprocess=5),
        lambda d: d["layer_weights"][0]["data"].__setitem__(0, None),
        # written unquoted below: 1e400 parses to inf
        lambda d: d["readout_bias"]["data"].__setitem__(0, "1e400"),
        lambda d: d["readout_bias"]["data"].__setitem__(0, 10 ** 400),
        lambda d: d["config"].update(num_layers=2.0),
        lambda d: d["config"].update(hidden_dim=8.0),
    ], ids=["layer_shape", "bias_length", "layer_count",
            "tau_text", "tau_null", "tau_bool", "tau_inf", "patch_h_alone",
            "patch_w_zero", "encoder_dim_float", "encoder_seed_text",
            "preprocess_not_object", "weight_null", "bias_overflow",
            "bias_huge_int", "num_layers_float", "hidden_dim_float"])
    def test_edited_checkpoint(self, tmp_path, edit):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="1", extra=["--hidden", "8"])
        doc = json.loads((run / "checkpoint.json").read_text())
        edit(doc)
        checkpoint = tmp_path / "edited.json"
        checkpoint.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        code = main(["eval", "--out-dir", str(tmp_path / "ev"),
                     "--dataset", str(dataset), "--checkpoint", str(checkpoint)])
        assert code == 2

    @pytest.mark.parametrize("content", [b"[]", b"\xff\xfe{}"],
                             ids=["not_an_object", "not_utf8"])
    def test_not_a_json_object(self, tmp_path, content):
        dataset = synth(tmp_path)
        checkpoint = tmp_path / "junk.json"
        checkpoint.write_bytes(content)
        code = main(["eval", "--out-dir", str(tmp_path / "ev"),
                     "--dataset", str(dataset), "--checkpoint", str(checkpoint)])
        assert code == 2


def empty_dataset(tmp_path):
    """A dataset with no samples, and a checkpoint trained before it was emptied."""
    dataset = synth(tmp_path)
    run = quick_train(tmp_path, dataset, epochs="1", extra=["--hidden", "8"])
    manifest = dataset / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "samples": []}))
    return dataset, run / "checkpoint.json"


class TestUnusableDataset:
    @pytest.mark.parametrize("command", ["build-graph", "train", "eval", "export-graph",
                                         "export-embeddings"])
    def test_empty_dataset_is_data_error(self, tmp_path, capsys, command):
        dataset, checkpoint = empty_dataset(tmp_path)
        argv = [command, "--out-dir", str(tmp_path / "o"), "--dataset", str(dataset)]
        if command in ("eval", "export-embeddings"):
            argv += ["--checkpoint", str(checkpoint)]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{dataset}: no samples" in capsys.readouterr().err

    def test_empty_dataset_is_sweep_error_row(self, tmp_path):
        dataset, _ = empty_dataset(tmp_path)
        out = tmp_path / "esweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--grid", "0.3,0.5", "--epochs", "1"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == ["0.3", "0.5"]
        assert all(row[-1].startswith("error: ") and "no samples" in row[-1]
                   for row in rows[1:])

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_class_count_mismatch_is_data_error(self, tmp_path, capsys, command):
        three = synth(tmp_path, "three", extra=["--classes", "3"])
        run = quick_train(tmp_path, three, epochs="1", extra=["--hidden", "8"])
        two = synth(tmp_path)
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, "--out-dir", str(out), "--dataset", str(two),
                     "--checkpoint", str(run / "checkpoint.json")]) == 2
        captured = capsys.readouterr()
        assert "3 classes, the dataset 2" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]


class TestBuildGraphAndExports:
    def test_build_graph_outputs(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "graphs"
        assert main(["build-graph", "--out-dir", str(out),
                     "--dataset", str(dataset), "--tau", "0.3"]) == 0
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 13  # header + 12 samples
        assert (out / "graphs" / "s000_c0.json").exists()

    def test_escaping_sample_id_is_data_error(self, tmp_path):
        dataset = synth(tmp_path)
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["samples"][0]["sample_id"] = "../../escaped"
        (dataset / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "esc" / "run" / "out"
        assert main(["build-graph", "--out-dir", str(out),
                     "--dataset", str(dataset)]) == 2
        assert not (tmp_path / "esc" / "run" / "escaped.json").exists()

    def test_huge_landmark_on_image_is_clamped(self, tmp_path):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["samples"][0]["landmarks"][0] = [1e300, 5.0]
        doc["samples"][1]["landmarks"][2] = [5.0, -1e300]
        (dataset / "manifest.json").write_text(json.dumps(doc))
        assert main(["build-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset)]) == 0

    def test_landmarks_too_far_apart_for_exp(self, tmp_path):
        # pair distances past 709.78 overflow math.exp; such pairs weigh 0
        dataset = synth(tmp_path, extra=["--displacement", "1e3"])
        out = tmp_path / "far"
        assert main(["build-graph", "--out-dir", str(out),
                     "--dataset", str(dataset)]) == 0
        assert (out / "summary.csv").exists()

    def test_export_graph_files_and_edge_count(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "g"
        assert main(["export-graph", "--out-dir", str(out),
                     "--dataset", str(dataset), "--tau", "0.3",
                     "--sample-id", "s001_c1"]) == 0
        doc = json.loads((out / "graph_s001_c1.json").read_text())
        assert len(doc["edges"]) == doc["num_edges"]
        assert (out / "graph_s001_c1.dot").exists()

    def test_export_graph_unknown_sample(self, tmp_path):
        dataset = synth(tmp_path)
        code = main(["export-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset), "--sample-id", "nope"])
        assert code == 2

    def test_export_embeddings_row_count(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset)
        out = tmp_path / "emb"
        assert main(["export-embeddings", "--out-dir", str(out),
                     "--dataset", str(dataset),
                     "--checkpoint", str(run / "checkpoint.json")]) == 0
        lines = (out / "embeddings.csv").read_text().strip().split("\n")
        assert len(lines) == 13  # header + 12 samples
        assert len(lines[1].split(",")) == 3 + 16


class TestSweep:
    def test_default_tau_grid_has_nine_rows(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--epochs", "2", "--batch-size", "4",
                     "--hidden", "8"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 10
        header = lines[0].split(",")
        assert header[:6] == ["tau", "Acc", "F1-Score", "WAR", "UAR", "loss"]
        edges = [float(line.split(",")[6]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(edges, edges[1:]))
        assert all(line.split(",")[-1] == "ok" for line in lines[1:])

    def test_patch_sweep_on_images(self, tmp_path):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        out = tmp_path / "psweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "patch", "--grid", "10,30", "--epochs", "2",
                     "--batch-size", "4", "--hidden", "8",
                     "--encoder-dim", "16"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert (out / "point_patch_10" / "checkpoint.json").exists()

    def test_failed_point_recorded_and_run_continues(self, tmp_path):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        out = tmp_path / "fsweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "patch", "--grid", "0,10", "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8",
                     "--encoder-dim", "16"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[1].startswith("0,") and "error" in lines[1]
        assert lines[2].split(",")[-1] == "ok"

    def test_error_message_with_comma_stays_one_field(self, tmp_path):
        # the dataset path, and so the error message, contains a comma
        dataset = synth(tmp_path, "img,ds", extra=["--with-images", "--per-class", "2",
                                                   "--landmarks", "12"])
        broken = sorted((dataset / "images").glob("*.pgm"))[0]
        broken.write_bytes(broken.read_bytes()[:100])
        out = tmp_path / "csweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "patch", "--grid", "10,20", "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8",
                     "--encoder-dim", "16"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [row[0] for row in rows[1:]] == ["10", "20"]
        assert all(row[-1].startswith("error: ") and "img,ds" in row[-1]
                   for row in rows[1:])

    def test_non_finite_tau_token_is_error_row(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "nansweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--grid", "nan,inf,0.5", "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == ["nan", "inf", "0.5"]
        assert all(row[-1].startswith("error: ") for row in rows[1:3])
        assert rows[3][-1] == "ok"
        assert not (out / "point_tau_nan").exists()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        out = tmp_path / "nosweep"
        code = main(["sweep", "--out-dir", str(out), "--param", "tau",
                     "--grid", "0.2,0.5"])
        assert code == 1
        assert not (out / "sweep.csv").exists()


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def run_every_command(tmp_path):
    """Run every command on a feature and an image dataset; returns (command, out_dir)."""
    small = ["--epochs", "2", "--batch-size", "4", "--hidden", "8",
             "--encoder-dim", "16"]
    runs = []
    for name, extra, param, grid in (("feat", [], "tau", "0.3,0.6"),
                                     ("img", ["--with-images"], "patch", "10,20")):
        dataset = synth(tmp_path, name, extra=extra)
        runs.append(("synth", dataset))
        data = ["--dataset", str(dataset)]
        run = tmp_path / f"{name}_train"
        checkpoint = ["--checkpoint", str(run / "checkpoint.json")]
        for command, flags in (
                ("build-graph", data),
                ("train", data + small + ["--tau", "0.3", "--patch", "20"]),
                ("eval", data + checkpoint),
                ("sweep", data + small + ["--param", param, "--grid", grid]),
                ("export-graph", data),
                ("export-embeddings", data + checkpoint)):
            out = run if command == "train" else tmp_path / f"{name}_{command}"
            assert main([command, "--out-dir", str(out), *flags]) == 0, command
            runs.append((command, out))
    return runs


def file_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestReadBack:
    def test_every_json_written_is_strict(self, tmp_path):
        """Every JSON file the commands write parses without NaN or Infinity."""
        run_every_command(tmp_path)
        written = sorted(tmp_path.rglob("*.json"))
        assert len(written) > 50
        for path in written:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)

    def test_every_csv_written_is_rectangular(self, tmp_path):
        """Every CSV file the commands write parses into rows as wide as its header."""
        run_every_command(tmp_path)
        written = sorted(tmp_path.rglob("*.csv"))
        assert {p.name for p in written} == {"summary.csv", "history.csv",
                                             "sweep.csv", "embeddings.csv"}
        for path in written:
            with open(path, newline="", encoding="utf-8") as handle:
                header, *rows = csv.reader(handle)
            assert rows, path
            assert all(len(row) == len(header) for row in rows), path

    def test_echoed_config_reruns_the_command(self, tmp_path):
        """A command rerun from its config.json alone writes the same files."""
        for command, out in run_every_command(tmp_path / "first"):
            again = tmp_path / "again" / out.name
            assert main([command, "--config", str(out / "config.json"),
                         "--out-dir", str(again)]) == 0, command
            first = file_tree(out)
            assert "config.json" in {str(p) for p in first}
            assert file_tree(again) == first, command

    def test_config_holds_checkpoint_settings(self, tmp_path):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        run = quick_train(tmp_path, dataset, epochs="1",
                          extra=["--tau", "0.3", "--patch", "20", "--encoder-dim", "16"])
        for command in ("eval", "export-embeddings"):
            out = tmp_path / command
            assert main([command, "--out-dir", str(out), "--dataset", str(dataset),
                         "--checkpoint", str(run / "checkpoint.json")]) == 0
            echoed = json.loads((out / "config.json").read_text())
            assert (echoed["tau"], echoed["patch"], echoed["encoder_dim"]) == \
                (0.3, "20x20", 16), command
            assert not {"command", "out_dir"} & set(echoed)


def usage_args(tmp_path, command, flags, config):
    """Arguments for ``command`` with ``flags``, plus ``config`` as a config file."""
    args = [command, "--out-dir", str(tmp_path / "o")]
    if command != "synth":
        args += ["--dataset", str(synth(tmp_path)), "--epochs", "1", "--hidden", "8"]
    args += flags
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "run.json")]
    return args


class TestUsage:
    def test_every_setting_is_a_flag_typed_like_its_default(self, tmp_path):
        def value(key):  # a path key has no default; --param needs a choice
            return cli.DEFAULTS.get(key, cli.CHOICES.get(key, [""])[0])

        for name, (_, _, keys) in cli._COMMANDS.items():
            out = tmp_path / name
            argv = [name, "--out-dir", str(out), "--seed", str(value("seed"))]
            for key in keys:
                flag = "--" + key.replace("_", "-")
                argv += [flag] if value(key) is False else [flag, str(value(key))]
            main(argv)  # config.json is echoed before the command runs
            echoed = json.loads((out / "config.json").read_text())
            for key in ("seed", *keys):
                want = True if value(key) is False else value(key)
                assert type(echoed[key]) is type(want) and echoed[key] == want, key
        flagged = {"seed"}.union(*(keys for _, _, keys in cli._COMMANDS.values()))
        assert flagged == set(cli.DEFAULTS) | set(cli._PATH_KEYS)

    @pytest.mark.parametrize("command, flags, config", [
        ("synth", ["--seed", "-1"], None),
        ("synth", [], {"seed": -1}),
        ("train", ["--seed", "-1"], None),
        ("train", ["--encoder-seed", "-1"], None),
        ("train", [], {"encoder_seed": -1}),
        ("sweep", ["--param", "tau", "--grid", "0.5", "--seed", "-1"], None),
        ("sweep", ["--param", "tau", "--grid", "0.5"], {"encoder_seed": -1}),
    ], ids=["synth_flag", "synth_config", "train_flag", "train_encoder_flag",
            "train_encoder_config", "sweep_flag", "sweep_encoder_config"])
    def test_negative_seed_is_usage_error(self, tmp_path, command, flags, config):
        assert main(usage_args(tmp_path, command, flags, config)) == 1

    @pytest.mark.parametrize("command, flags, config", [
        ("train", ["--tau", "nan"], None),
        ("train", ["--lr", "nan"], None),
        ("train", ["--weight-decay", "inf"], None),
        ("train", [], {"test_fraction": float("nan")}),
        ("train", [], {"lr": 10 ** 400, "lr_min": 10 ** 399}),
        ("synth", ["--feature-noise", "inf"], None),
        ("train", ["--hidden", "0"], None),
        ("train", ["--batch-size", "0"], None),
        ("train", ["--dropout", "1.0"], None),
        ("train", ["--lr", "1e-3", "--lr-min", "1e-2"], None),
        ("train", ["--test-fraction", "2"], None),
        ("train", ["--encoder-dim", "0"], None),
        ("sweep", ["--param", "tau", "--grid", "0.5", "--hidden", "0"], None),
        ("train", [], {"split": "bogus"}),
        ("sweep", ["--grid", "0.5"], {"param": "bogus"}),
    ], ids=["tau_nan", "lr_nan", "weight_decay_inf", "test_fraction_nan_config",
            "lr_huge_int_config", "synth_noise_inf", "hidden_zero",
            "batch_size_zero", "dropout_one", "lr_min_above_lr",
            "test_fraction_two", "encoder_dim_zero", "sweep_hidden_zero",
            "split_config_choice", "param_config_choice"])
    def test_bad_setting_is_usage_error(self, tmp_path, command, flags, config):
        assert main(usage_args(tmp_path, command, flags, config)) == 1
        assert not (tmp_path / "o" / "checkpoint.json").exists()
        assert not (tmp_path / "o" / "manifest.json").exists()
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path / "x"),
                     "--frobnicate"]) == 1

    def test_bad_patch_spec(self, tmp_path):
        dataset = synth(tmp_path)
        code = main(["build-graph", "--out-dir", str(tmp_path / "o"),
                     "--dataset", str(dataset), "--patch", "tiny"])
        assert code == 1
