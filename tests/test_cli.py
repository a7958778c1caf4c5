import base64
import csv
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import facegraph
from facegraph import cli
from facegraph.cli import main
from facegraph.metrics import MAX_CLASSES, MetricsReport

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


def base64_doubles(values):
    """A version-2 checkpoint's ``data``: base64 of little-endian doubles."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def version_1(doc):
    """A version-2 checkpoint document turned into version 1, in place: each
    matrix's data becomes its values as JSON numbers."""
    for entry in (*doc["layer_weights"], doc["readout_weight"], doc["readout_bias"]):
        raw = base64.b64decode(entry["data"], validate=True)
        entry["data"] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    doc["version"] = 1
    return doc


def test_cli_import_needs_numpy_only():
    code = ("import sys, facegraph.cli; "
            "leaked = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not leaked, leaked")
    env = {**os.environ, "PYTHONPATH": str(Path(facegraph.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_module_exit_codes_reach_the_os(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(facegraph.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "facegraph.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120).returncode

    assert run("synth", "--out-dir", "ds", *TINY) == 0
    assert run("train", "--out-dir", "run") == 1
    assert run("eval", "--out-dir", "ev", "--dataset", "ds",
               "--checkpoint", "missing.json") == 2


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
        code = main(["train", "--out-dir", str(tmp_path / "o"),
                     "--dataset", str(dataset), "--epochs", "3",
                     "--hidden", "8", "--lr", "1e200", "--lr-min", "1e199"])
        assert code == 3

    def test_diverging_train_prints_only_the_failure(self, tmp_path, capsys):
        # the CLI trains in float32, which cannot hold 1e200: the first batch fails
        dataset = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(dataset)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--out-dir", str(tmp_path / "o"),
                         "--dataset", str(dataset), "--hidden", "8",
                         "--lr", "1e200", "--lr-min", "1e199"])
        assert code == 3
        assert (capsys.readouterr().err
                == "numeric failure: non-finite parameters at epoch 0, batch 0\n")

    def test_weights_beyond_float32_fail_in_the_second_batch(self, tmp_path, capsys):
        # 1e30 is a float32 learning rate, but the weights it makes overflow float32
        dataset = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(dataset)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--out-dir", str(tmp_path / "o"),
                         "--dataset", str(dataset), "--hidden", "8",
                         "--lr", "1e30", "--lr-min", "1e30"])
        assert code == 3
        assert (capsys.readouterr().err
                == "numeric failure: non-finite parameters at epoch 0, batch 1\n")

    def test_config_file_reals_are_stored_as_floats(self, tmp_path):
        # the library stores a float setting as a float, so an int in a config
        # file is written back as one: dropout 0 is 0.0 in the checkpoint
        dataset = synth(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"dropout": 0, "lr": 1, "lr_min": 1}))
        out = tmp_path / "o"
        assert main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                     "--config", str(config_path), "--epochs", "1", "--hidden", "8"]) == 0
        checkpoint = (out / "checkpoint.json").read_text()
        assert '"dropout_rate":0.0' in checkpoint.replace(" ", "")
        with open(out / "history.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][1] == "1.0"

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

    def test_checkpoint_without_preprocess_uses_defaults(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="2", extra=["--test-fraction", "0"])
        model, preprocess = facegraph.load_checkpoint(run / "checkpoint.json")
        assert preprocess is not None
        bare = tmp_path / "bare.json"
        facegraph.save_checkpoint(bare, model)
        assert "preprocess" not in json.loads(bare.read_text())
        out = tmp_path / "ev"
        assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                     "--checkpoint", str(bare)]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            **cli.DEFAULTS, "dataset": str(dataset), "checkpoint": str(bare)}
        # trained at the defaults, so the metrics are those of the full checkpoint
        assert (out / "metrics.json").read_bytes() == (run / "metrics.json").read_bytes()

    def test_every_graph_setting_goes_through_the_checkpoint(self, tmp_path):
        """Each graph setting but the dataset is stored in the checkpoint's
        ``preprocess`` block, the patch as ``patch_h`` and ``patch_w``, and
        comes back into the settings ``eval`` runs with."""
        given = {"tau": 0.3, "patch": "20x10", "encoder_dim": 16, "encoder_seed": 5}
        assert set(given) == set(cli._GRAPH) - {"dataset"}
        assert all(value != cli.DEFAULTS[key] for key, value in given.items())
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        flags = [arg for key, value in given.items()
                 for arg in (f"--{key.replace('_', '-')}", str(value))]
        run = quick_train(tmp_path, dataset, epochs="1", extra=flags)
        stored = json.loads((run / "checkpoint.json").read_text())["preprocess"]
        assert stored == {**{k: v for k, v in given.items() if k != "patch"},
                          "patch_h": 20, "patch_w": 10}
        out = tmp_path / "ev"
        assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                     "--checkpoint", str(run / "checkpoint.json")]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert {key: echoed[key] for key in given} == given

    @pytest.fixture(scope="class")
    def tau_run(self, tmp_path_factory):
        """A dataset and a checkpoint trained at tau 0.2 and encoder_dim 16."""
        tmp_path = tmp_path_factory.mktemp("tau_run")
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="1",
                          extra=["--tau", "0.2", "--encoder-dim", "16"])
        return dataset, run / "checkpoint.json"

    @pytest.mark.parametrize("flags, config, tau", [
        (["--tau", "0.5"], None, 0.5),
        ([], {"tau": 0.9}, 0.9),
        (["--tau", "0.3"], {"tau": 0.9}, 0.3),
    ], ids=["default_given_as_flag", "config_file", "flag_over_config_file"])
    def test_setting_precedence_over_checkpoint(self, tmp_path, tau_run,
                                                flags, config, tau):
        """Flags > config file > checkpoint preprocess > defaults, where a value
        given explicitly wins even when it equals the default."""
        dataset, checkpoint = tau_run
        args = ["eval", "--out-dir", str(tmp_path / "ev"), "--dataset", str(dataset),
                "--checkpoint", str(checkpoint), *flags]
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "run.json")]
        assert main(args) == 0
        echoed = json.loads((tmp_path / "ev" / "config.json").read_text())
        # neither sets encoder_dim, so the checkpoint's applies
        assert (echoed["tau"], echoed["encoder_dim"]) == (tau, 16)

    def test_overflowing_logits_are_numeric_failure(self, tmp_path, capsys):
        dataset = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(dataset)]) == 0  # 6 classes
        run = tmp_path / "run"
        assert main(["train", "--out-dir", str(run), "--dataset", str(dataset),
                     "--epochs", "1"]) == 0
        doc = json.loads((run / "checkpoint.json").read_text())
        for entry in (doc["readout_weight"], doc["readout_bias"]):
            entry["data"] = base64_doubles([1e308] * math.prod(entry["shape"]))
        checkpoint = tmp_path / "huge.json"
        checkpoint.write_text(json.dumps(doc))
        out = tmp_path / "ev"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                         "--checkpoint", str(checkpoint)])
        assert code == 3
        assert re.search(r"numeric failure: sample \d+: non-finite logits",
                         capsys.readouterr().err)
        assert not (out / "metrics.json").exists()


def with_optimizer_block(doc):
    """The optimizer block older versions could write beside the weights."""
    params = [*doc["layer_weights"], doc["readout_weight"], doc["readout_bias"]]
    moments = [{"shape": p["shape"], "data": [0.5] * len(p["data"])} for p in params]
    return {**doc, "optimizer": {"step": 7, "beta1": 0.9, "beta2": 0.999,
                                 "eps": 1e-8, "first_moment": moments,
                                 "second_moment": moments}}


class TestOlderCheckpoint:
    def test_optimizer_block_is_ignored(self, tmp_path):
        # a version-1 file with and without the optimizer block, and its
        # version-2 twin, give the same metrics.json
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="2", extra=["--hidden", "8"])
        doc = version_1(json.loads((run / "checkpoint.json").read_text()))
        plain, older = tmp_path / "v1.json", tmp_path / "older.json"
        for path, content in ((plain, doc), (older, with_optimizer_block(doc))):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle, sort_keys=True, separators=(",", ":"))
        outputs = []
        for name, checkpoint in (("now", run / "checkpoint.json"), ("v1", plain),
                                 ("older", older)):
            out = tmp_path / name
            assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                         "--checkpoint", str(checkpoint)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestInferencePrecision:
    """Inference runs in float32 on a checkpoint whose every weight is a
    float32 value, as CLI training writes them, and in float64 otherwise."""

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_cli_checkpoint_runs_forward_in_float32(self, tmp_path, monkeypatch, command):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset)
        dtypes = []

        def spy(model, *args, **kwargs):
            dtypes.append(model.params[0].dtype)
            return forward(model, *args, **kwargs)

        forward = facegraph.gcn.forward
        monkeypatch.setattr(facegraph.gcn, "forward", spy)
        assert main([command, "--out-dir", str(tmp_path / "out"), "--dataset", str(dataset),
                     "--checkpoint", str(run / "checkpoint.json")]) == 0
        assert dtypes == [np.float32] * 12

    def test_train_reports_on_float32_weights_and_saves_float64(self, tmp_path, monkeypatch):
        dataset = synth(tmp_path)
        dtypes = []

        def spy(model, samples):
            dtypes.extend(p.dtype for p in model.params)
            return evaluate(model, samples)

        evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", spy)
        run = quick_train(tmp_path, dataset)
        assert dtypes == [np.float32] * 4
        model, _ = facegraph.load_checkpoint(run / "checkpoint.json")
        assert all(p.dtype == np.float64 for p in model.params)

    def test_float64_checkpoint_evaluates_as_float64(self, tmp_path):
        """``eval`` of a checkpoint trained by the library in float64 writes
        the bytes of float64 ``evaluate`` on its weights."""
        dataset = synth(tmp_path)
        graphs = facegraph.dataset_graphs(facegraph.load_dataset(dataset), 0.5)
        config = facegraph.GcnConfig(in_dim=8, num_classes=2, hidden_dim=16)
        model, _ = facegraph.train(graphs, config, facegraph.TrainConfig(epochs=3))
        assert not all(np.array_equal(p.astype(np.float32), p) for p in model.params)
        checkpoint = tmp_path / "float64.json"
        facegraph.save_checkpoint(checkpoint, model)
        want = tmp_path / "want.json"
        facegraph.data.write_json(want, dataclasses.asdict(facegraph.evaluate(model, graphs)))
        out = tmp_path / "ev"
        assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                     "--checkpoint", str(checkpoint)]) == 0
        assert (out / "metrics.json").read_bytes() == want.read_bytes()

    def test_two_evals_write_identical_files(self, tmp_path):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset)
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["eval", "--out-dir", str(out), "--dataset", str(dataset),
                         "--checkpoint", str(run / "checkpoint.json")]) == 0
            trees.append(file_tree(out))
        assert trees[0] == trees[1] and set(trees[0]) == {Path("config.json"),
                                                          Path("metrics.json")}


class TestClassBudget:
    """A dataset or checkpoint of more than MAX_CLASSES classes is a data error,
    and a synthetic one a usage error, before anything C-sized exists."""

    def test_manifest_of_200000_classes_exits_2(self, tmp_path, capsys):
        # 2 MB of class names; training would allocate 149 GiB of one-hot labels
        root = tmp_path / "wide"
        root.mkdir()
        samples = [{"sample_id": f"s{k}", "label": k, "landmarks": [[0, 0], [5, 0], [0, 5]],
                    "features": [[1, 0], [0, 1], [1, 1]], "image": None} for k in range(8)]
        (root / "manifest.json").write_text(json.dumps({
            "format": "facegraph-dataset", "version": 1, "feature_dim": 2,
            "landmark_count": 3, "class_names": [f"c{k}" for k in range(200_000)],
            "samples": samples}))
        out = tmp_path / "run"
        assert main(["train", "--out-dir", str(out), "--dataset", str(root),
                     "--epochs", "1", "--hidden", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith(
            f"200000 classes, above the budget of {MAX_CLASSES}\n")
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]

    def test_synth_past_the_budget_exits_1(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(out), "--classes", str(MAX_CLASSES + 1)]) == 1
        assert capsys.readouterr().err == (f"usage error: a synthetic dataset of "
                                           f"{MAX_CLASSES + 1} classes, above the budget "
                                           f"of {MAX_CLASSES}\n")
        assert not (out / "manifest.json").exists()

    def test_report_at_the_budget_is_bounded(self, tmp_path, capsys):
        dataset = synth(tmp_path, extra=["--classes", str(MAX_CLASSES), "--per-class", "2",
                                         "--landmarks", "4", "--feature-dim", "2"])
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                     "--epochs", "1", "--hidden", "1"]) == 0
        printed = capsys.readouterr().out
        assert len(printed.encode()) < 100_000
        assert printed.endswith("see metrics.json\n")
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == sorted(f.name for f in dataclasses.fields(MetricsReport))
        assert np.array(metrics["confusion"]).shape == (MAX_CLASSES, MAX_CLASSES)

    def test_checkpoint_past_the_budget_exits_2(self, tmp_path, capsys):
        dataset = synth(tmp_path)
        checkpoint = quick_train(tmp_path, dataset) / "checkpoint.json"
        doc = json.loads(checkpoint.read_text())
        doc["config"]["num_classes"] = MAX_CLASSES + 1
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--out-dir", str(tmp_path / "ev"), "--dataset", str(dataset),
                     "--checkpoint", str(checkpoint)]) == 2
        assert f"above the budget of {MAX_CLASSES}" in capsys.readouterr().err


class TestBadCheckpoint:
    """Hand-edited checkpoints end in a data error (exit 2), not a traceback."""

    @pytest.mark.parametrize("edit", [
        # hidden 8: layer 1 is 8x8; 4x16 holds the same 64 numbers
        lambda d: d["layer_weights"][1].update(shape=[4, 16]),
        lambda d: d["readout_bias"].update(shape=[3], data=base64_doubles([0.0] * 3)),
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
        lambda d: version_1(d)["layer_weights"][0]["data"].__setitem__(0, None),
        # written unquoted below: 1e400 parses to inf
        lambda d: version_1(d)["readout_bias"]["data"].__setitem__(0, "1e400"),
        lambda d: version_1(d)["readout_bias"]["data"].__setitem__(0, 10 ** 400),
        lambda d: d["config"].update(num_layers=2.0),
        lambda d: d["config"].update(hidden_dim=8.0),
        # two classes: the readout bias holds 2 doubles
        lambda d: d["readout_bias"].update(data=base64_doubles([0.0, math.nan])),
        lambda d: d["readout_bias"].update(data=base64_doubles([math.inf, 0.0])),
        # 16 bytes once the "*" outside the alphabet is dropped
        lambda d: d["readout_bias"].update(data="AAAAAAAAAAA*AAAAAAAAAAA=="),
        lambda d: d["readout_bias"].update(data=base64.b64encode(bytes(12)).decode()),
        lambda d: d["readout_bias"].update(shape=[-1]),  # reshape alone would accept it
        lambda d: d["readout_bias"].update(data=[0.0, 0.0]),
        lambda d: d.update(version=1),
        lambda d: d.update(version=3),
        lambda d: d["preprocess"].update(encoder_dim=10 ** 9),
        lambda d: d["preprocess"].update(patch_h=10 ** 6, patch_w=10 ** 6),
    ], ids=["layer_shape", "bias_length", "layer_count",
            "tau_text", "tau_null", "tau_bool", "tau_inf", "patch_h_alone",
            "patch_w_zero", "encoder_dim_float", "encoder_seed_text",
            "preprocess_not_object", "weight_null", "bias_overflow",
            "bias_huge_int", "num_layers_float", "hidden_dim_float",
            "v2_nan_bytes", "v2_inf_bytes", "v2_not_base64", "v2_bytes_off_shape",
            "v2_shape_wildcard", "v2_list", "v1_string", "version_3",
            "encoder_dim_over_budget", "patch_over_budget"])
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

    @pytest.mark.parametrize("content", [
        b"[]", b"\xff\xfe{}", b'{"version": 1' + b"0" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not_an_object", "not_utf8", "too_many_digits", "nested_too_deep"])
    def test_not_a_json_object(self, tmp_path, content):
        dataset = synth(tmp_path)
        checkpoint = tmp_path / "junk.json"
        checkpoint.write_bytes(content)
        code = main(["eval", "--out-dir", str(tmp_path / "ev"),
                     "--dataset", str(dataset), "--checkpoint", str(checkpoint)])
        assert code == 2


class TestBadHeaders:
    """A file whose header asks for more than it holds ends in a data error
    (exit 2) that names the problem, not a traceback."""

    @pytest.mark.parametrize("num_layers", [3, 10 ** 20])
    def test_checkpoint_layer_count(self, tmp_path, capsys, num_layers):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="1", extra=["--hidden", "8"])
        doc = json.loads((run / "checkpoint.json").read_text())
        doc["config"]["num_layers"] = num_layers
        checkpoint = tmp_path / "edited.json"
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--out-dir", str(tmp_path / "ev"), "--dataset", str(dataset),
                     "--checkpoint", str(checkpoint)]) == 2
        assert f"'layer_weights' must list {num_layers} matrices" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda d: d["config"].pop("num_classes"),
        lambda d: d["config"].update(activation="bogus"),
        lambda d: d.update(config="hidden 8"),
    ], ids=["missing_key", "bad_activation", "not_an_object"])
    def test_malformed_checkpoint_config(self, tmp_path, capsys, edit):
        dataset = synth(tmp_path)
        run = quick_train(tmp_path, dataset, epochs="1", extra=["--hidden", "8"])
        doc = json.loads((run / "checkpoint.json").read_text())
        edit(doc)
        checkpoint = tmp_path / "edited.json"
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--out-dir", str(tmp_path / "ev"), "--dataset", str(dataset),
                     "--checkpoint", str(checkpoint)]) == 2
        assert "malformed config section" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, dim", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 31, 2 ** 31)])
    def test_feature_blob_size(self, tmp_path, capsys, rows, dim):
        dataset = synth(tmp_path)
        blob = dataset / "features" / "s000_c0.fgf"
        blob.write_bytes(b"FGF1" + struct.pack("<III", 1, rows, dim))
        capsys.readouterr()
        assert main(["build-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset)]) == 2
        assert f"{blob}: feature blob truncated" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [[], ["--with-images"]], ids=["features", "images"])
    def test_landmark_count_over_graph_budget(self, tmp_path, capsys, extra):
        # 2049 x 2049 passes the budget of 2**22 adjacency entries
        dataset = tmp_path / "wide"
        assert main(["synth", "--out-dir", str(dataset), "--classes", "1",
                     "--per-class", "1", "--landmarks", "2049", "--feature-dim", "1",
                     *extra]) == 0
        capsys.readouterr()
        assert main(["build-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset)]) == 2
        assert "a graph of 2049 nodes" in capsys.readouterr().err


    def test_image_landmarks_over_render_budget(self, tmp_path, capsys):
        landmarks = str(facegraph.data.MAX_IMAGE_LANDMARKS + 1)
        assert main(["synth", "--out-dir", str(tmp_path / "ds"), "--classes", "1",
                     "--per-class", "1", "--landmarks", landmarks, "--with-images"]) == 1
        assert "above the budget of MAX_IMAGE_LANDMARKS" in capsys.readouterr().err
        assert not (tmp_path / "ds" / "manifest.json").exists()


class TestConfigFile:
    def test_missing_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["synth", "--out-dir", str(tmp_path / "o"), "--config", str(path)]) == 2
        assert f"config file not found: {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        "{oops", "", '{"seed": 1,}', '{"seed": 1' + "0" * 5000 + "}",
        "[" * 100000 + "]" * 100000,
    ], ids=["unclosed", "empty", "trailing_comma", "too_many_digits", "nested_too_deep"])
    def test_invalid_json_config_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        assert main(["synth", "--out-dir", str(tmp_path / "o"), "--config", str(path)]) == 2
        assert f"{path}: invalid JSON config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["synth", "--out-dir", str(tmp_path / "o"), "--config", str(path)]) == 2
        assert f"{path}: invalid JSON config" in capsys.readouterr().err


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

    def test_summary_reports_threshold_and_isolated_nodes(self, tmp_path):
        dataset = synth(tmp_path, extra=["--landmarks", "30"])
        out = tmp_path / "graphs"
        assert main(["build-graph", "--out-dir", str(out),
                     "--dataset", str(dataset), "--tau", "0.3"]) == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        samples = facegraph.load_dataset(dataset).samples
        assert [row["sample_id"] for row in rows] == [s.sample_id for s in samples]
        isolated = []
        for row, sample in zip(rows, samples):
            raw = facegraph.raw_adjacency(facegraph.l2_normalize_rows(sample.features),
                                          sample.landmarks)
            stats = facegraph.threshold_stats(raw, 0.3)
            adjacency = facegraph.binarize(raw, stats.threshold)
            assert [row[k] for k in ("threshold_mean", "threshold_std", "threshold")] \
                == [repr(stats.mean), repr(stats.std), repr(stats.threshold)]
            assert int(row["edges"]) == adjacency.sum() // 2
            isolated.append(int(row["isolated_nodes"]))
            assert isolated[-1] == sum(not r.any() for r in adjacency)
        assert 0 < min(isolated) < max(isolated) < 30

    def test_escaping_sample_id_is_data_error(self, tmp_path):
        dataset = synth(tmp_path)
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["samples"][0]["sample_id"] = "../../escaped"
        (dataset / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "esc" / "run" / "out"
        assert main(["build-graph", "--out-dir", str(out),
                     "--dataset", str(dataset)]) == 2
        assert not (tmp_path / "esc" / "run" / "escaped.json").exists()

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_manifest_version_must_be_an_int(self, tmp_path, capsys, version):
        dataset = synth(tmp_path)
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["version"] = version
        (dataset / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["build-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset)]) == 2
        assert f"unsupported version {version}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e39, float("nan")], ids=["above_float32", "nan"])
    def test_non_finite_inline_features_name_the_sample(self, tmp_path, capsys, value):
        dataset = synth(tmp_path)
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["samples"][2]["features"] = [[value] * 8] * 6
        (dataset / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["build-graph", "--out-dir", str(tmp_path / "g"),
                     "--dataset", str(dataset)]) == 2
        # one line: no numpy warning before it
        assert capsys.readouterr().err == (
            "data error: sample 's002_c0': non-finite features\n")

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
        for sample_id in ("nope", ""):  # "" is given, so it does not mean the first
            code = main(["export-graph", "--out-dir", str(tmp_path / "g"),
                         "--dataset", str(dataset), "--sample-id", sample_id])
            assert code == 2
        assert not list((tmp_path / "g").glob("graph_*"))

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

    def test_patch_sweep_on_stored_features_is_error_rows(self, tmp_path):
        # stored features take precedence over patches: every point would
        # train the same graphs
        dataset = synth(tmp_path)
        out = tmp_path / "psweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "patch", "--grid", "10,20", "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert [(row[0], row[-1]) for row in rows] == [
            (size, "error: every sample has stored features, so the patch size "
                   "changes nothing") for size in ("10", "20")]
        assert not list(out.rglob("checkpoint.json"))

    def test_patch_sweep_on_a_mixed_dataset(self, tmp_path):
        # one sample holds stored features, the others only images
        dataset = facegraph.load_dataset(synth(tmp_path, "imgds", extra=["--with-images"]))
        dataset.samples[0].features = np.ones((6, 8), dtype=np.float32)
        facegraph.save_dataset(dataset, tmp_path / "mixed")
        out = tmp_path / "msweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(tmp_path / "mixed"),
                     "--param", "patch", "--grid", "10,20", "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8", "--encoder-dim", "8"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert [(row[0], row[-1]) for row in rows] == [("10", "ok"), ("20", "ok")]

    def test_diverging_point_is_an_error_row_without_warnings(self, tmp_path):
        # in float32, the CLI's training precision, 1e200 is inf: the first batch fails
        dataset = tmp_path / "ds"
        assert main(["synth", "--out-dir", str(dataset)]) == 0
        out = tmp_path / "dsweep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                         "--param", "tau", "--grid", "0.3,0.5", "--hidden", "8",
                         "--lr", "1e200", "--lr-min", "1e199"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [(row[0], row[-1]) for row in rows[1:]] == [
            (tau, "error: non-finite parameters at epoch 0, batch 0")
            for tau in ("0.3", "0.5")]

    @pytest.mark.parametrize("grid, repeated", [("0.5,0.5", "0.5"),
                                                ("0.3, 0.5,0.3 ", "0.3")])
    def test_repeated_point_is_usage_error(self, tmp_path, capsys, grid, repeated):
        # both points would write the same point directory
        dataset = synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "rsweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--grid", grid, "--epochs", "1",
                     "--hidden", "8"]) == 1
        assert f"'{repeated}'" in capsys.readouterr().err
        assert not list(out.glob("point_*")) and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", [",", " , ,"])
    def test_grid_of_no_tokens_is_usage_error(self, tmp_path, capsys, grid):
        dataset = synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "esweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--grid", grid, "--epochs", "1"]) == 1
        assert "usage error: --grid is empty" in capsys.readouterr().err
        assert not list(out.glob("point_*")) and not (out / "sweep.csv").exists()

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

    def test_tau_points_match_separate_trains(self, tmp_path, monkeypatch):
        # one load and one graph build per sample serve every point
        dataset = synth(tmp_path, extra=["--landmarks", "30"])
        flags = ["--dataset", str(dataset), "--epochs", "2", "--batch-size", "4",
                 "--hidden", "8", "--seed", "7"]
        calls = {"load": 0, "build": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_dataset", counted("load", cli.load_dataset))
        monkeypatch.setattr(facegraph.data, "build_graph",
                            counted("build", facegraph.data.build_graph))
        grid = ["0.3", "0.5", "0.7"]
        out = tmp_path / "sweep"
        assert main(["sweep", "--out-dir", str(out), "--param", "tau",
                     "--grid", ",".join(grid), *flags]) == 0
        assert calls == {"load": 1, "build": 12}
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert len({row[6] for row in rows}) == 3  # the points' graphs differ
        for tau in grid:
            single = tmp_path / f"train_{tau}"
            assert main(["train", "--out-dir", str(single), "--tau", tau, *flags]) == 0
            for name in ("checkpoint.json", "history.csv", "metrics.json"):
                assert ((out / f"point_tau_{tau}" / name).read_bytes()
                        == (single / name).read_bytes()), (tau, name)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: blob.write_bytes(blob.read_bytes()[:40]), "truncated"),
        (lambda blob: facegraph.write_feature_blob(blob, np.full((6, 8), np.nan)),
         "non-finite"),
    ], ids=["truncated_blob", "nan_features"])
    def test_shared_data_error_is_one_row_per_point(self, tmp_path, corrupt, message):
        # loading fails for both cases, a truncated and a non-finite feature blob;
        # either way each point retries and records the same error
        dataset = synth(tmp_path)
        corrupt(dataset / "features" / "s002_c1.fgf")
        out = tmp_path / "dsweep"
        grid = ["0.3", "0.5", "0.7"]
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", "tau", "--grid", ",".join(grid), "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert [row[0] for row in rows] == grid
        assert len({tuple(row[1:]) for row in rows}) == 1
        assert rows[0][-1].startswith("error: ") and message in rows[0][-1]
        points = [f"point_tau_{t}" for t in grid]
        assert sorted(p.name for p in out.iterdir()) == ["config.json", *points,
                                                          "sweep.csv"]
        assert not any(p for t in points for p in (out / t).iterdir())

    def test_program_defect_is_not_an_error_row(self, tmp_path, monkeypatch):
        # only the errors main maps to exit codes become rows; a defect escapes
        dataset = synth(tmp_path)

        def broken(*args, **kwargs):
            raise TypeError("defect inside a point")

        monkeypatch.setattr(cli, "_train_and_eval", broken)
        out = tmp_path / "tsweep"
        with pytest.raises(TypeError, match="defect inside a point"):
            main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                  "--param", "tau", "--grid", "0.3,0.5"])
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param, grid", [("tau", "0.5x,0.5"), ("patch", "ten,10"),
                                             ("patch", "1000000,10")])
    def test_unparsable_token_is_error_row(self, tmp_path, param, grid):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        out = tmp_path / "usweep"
        assert main(["sweep", "--out-dir", str(out), "--dataset", str(dataset),
                     "--param", param, "--grid", grid, "--epochs", "1",
                     "--batch-size", "4", "--hidden", "8", "--encoder-dim", "16"]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        bad, good = grid.split(",")
        assert [row[0] for row in rows[1:]] == [bad, good]
        assert rows[1][-1].startswith("error: ") and bad in rows[1][-1]
        assert rows[2][-1] == "ok"

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
        ("sweep", ["--param", "tau", "--grid", "0.3,0.5", "--hidden", "0"], None),
        ("sweep", ["--param", "tau", "--grid", "0.3,0.5", "--encoder-dim", "0"], None),
        ("train", [], {"split": "bogus"}),
        ("sweep", ["--grid", "0.5"], {"param": "bogus"}),
        ("train", ["--hidden", str(10 ** 18)], None),
        ("train", ["--layers", str(10 ** 20)], None),
        ("train", ["--hidden", str(10 ** 11)], None),
        ("train", ["--hidden", "65536", "--layers", "10"], None),
        ("train", [], {"layers": 10 ** 20}),
        ("sweep", ["--param", "tau", "--grid", "0.3,0.5", "--hidden", str(10 ** 11)],
         None),
        ("train", ["--epochs", "-1"], None),
        ("synth", ["--feature-dim", "1000000000"], None),
        ("synth", ["--classes", "1000000000"], None),
        ("synth", ["--landmarks", "1000000000"], None),
        ("synth", [], {"landmarks": 10 ** 9}),
        ("synth", ["--per-class", "100000000", "--with-images"], None),
        ("train", ["--encoder-dim", "1000000000"], None),
        ("train", ["--patch", "1000000x1000000"], None),
        ("sweep", ["--param", "tau", "--grid", "0.3,0.5"], {"patch": "129x128"}),
    ], ids=["tau_nan", "lr_nan", "weight_decay_inf", "test_fraction_nan_config",
            "lr_huge_int_config", "synth_noise_inf", "hidden_zero",
            "batch_size_zero", "dropout_one", "lr_min_above_lr",
            "test_fraction_two", "encoder_dim_zero", "sweep_hidden_zero",
            "sweep_grid_hidden_zero", "sweep_grid_encoder_dim_zero",
            "split_config_choice", "param_config_choice", "hidden_huge",
            "layers_huge", "hidden_1e11", "wide_and_deep", "layers_huge_config",
            "sweep_hidden_1e11", "epochs_negative", "synth_feature_dim_huge",
            "synth_classes_huge", "synth_landmarks_huge", "synth_landmarks_huge_config",
            "synth_images_huge", "encoder_dim_huge", "patch_huge",
            "sweep_patch_over_budget_config"])
    def test_bad_setting_is_usage_error(self, tmp_path, command, flags, config):
        assert main(usage_args(tmp_path, command, flags, config)) == 1
        assert not (tmp_path / "o" / "checkpoint.json").exists()
        assert not (tmp_path / "o" / "manifest.json").exists()
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--encoder-dim", "1000000000"], None),
        ([], {"encoder_dim": 10 ** 9}),
        (["--patch", "1000000x1000000"], None),
        ([], {"patch": "1000000x1000000"}),
    ], ids=["encoder_dim_flag", "encoder_dim_config", "patch_flag", "patch_config"])
    def test_over_budget_on_images_is_usage_error(self, tmp_path, capsys, flags, config):
        dataset = synth(tmp_path, "imgds", extra=["--with-images"])
        args = ["train", "--out-dir", str(tmp_path / "o"), "--dataset", str(dataset),
                "--epochs", "1", *flags]
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "run.json")]
        capsys.readouterr()
        assert main(args) == 1
        assert "above the budget of" in capsys.readouterr().err

    @pytest.fixture
    def added_settings(self, monkeypatch):
        """The keys main adds flags for, in order."""
        added = []

        def counted(parser, key, _add=cli._add_setting):
            added.append(key)
            _add(parser, key)
        monkeypatch.setattr(cli, "_add_setting", counted)
        return added

    def test_only_the_named_command_gets_its_flags(self, tmp_path, added_settings):
        assert main(["eval", "--out-dir", str(tmp_path / "o")]) == 1  # no dataset
        assert sorted(added_settings) == sorted(["seed", *cli._COMMANDS["eval"][2]])

    @pytest.mark.parametrize("argv", [[], ["evaluate", "--out-dir", "o"],
                                      ["--out-dir", "o", "eval"]],
                             ids=["empty", "invalid_choice", "flag_first"])
    def test_no_command_first_builds_every_command(self, argv, added_settings):
        assert main(argv) == 1
        every = [key for _, _, keys in cli._COMMANDS.values() for key in keys]
        assert sorted(added_settings) == sorted(["seed", *every])

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_is_that_of_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as full:
            cli._build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == full.value.code == 0
        assert capsys.readouterr() == want

    def test_unrecognized_argument_of_the_named_command(self, tmp_path, capsys):
        assert main(["eval", "--out-dir", str(tmp_path / "o"), "--epochs", "3"]) == 1
        assert "unrecognized arguments: --epochs 3" in capsys.readouterr().err

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

    def test_bad_patch_writes_nothing(self, tmp_path, capsys):
        dataset = synth(tmp_path)
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", "--out-dir", str(out), "--dataset", str(dataset),
                     "--patch", "0x3"]) == 1
        assert capsys.readouterr().err == \
            "usage error: patch size must be positive, got '0x3'\n"
        assert not out.exists()

    def test_bad_patch_in_config_file_of_any_command(self, tmp_path):
        (tmp_path / "run.json").write_text(json.dumps({"patch": "bogus"}))
        out = tmp_path / "o"
        assert main(["synth", "--out-dir", str(out),
                     "--config", str(tmp_path / "run.json")]) == 1
        assert not out.exists()
