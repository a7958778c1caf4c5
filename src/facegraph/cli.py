"""Command line harness: dataset synthesis, graph building, training,
evaluation, threshold / patch-size sweeps and exports.

Config precedence is flags > config file (JSON mirroring the flag names with
underscores) > built-in defaults; the settings that ran are echoed to
``<out-dir>/config.json``, a valid config file. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    SyntheticSpec,
    dataset_graphs,
    export_embeddings,
    generate_synthetic,
    generate_synthetic_imageset,
    load_dataset,
    save_dataset,
    split_indices,
    write_csv,
    write_graph_dot,
    write_graph_json,
    write_json,
)
from .errors import (
    CheckpointError,
    DatasetError,
    InvalidInputError,
    NumericError,
    UsageError,
)
from .features import EncoderConfig
from .gcn import (
    ACTIVATIONS,
    GcnConfig,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .graphs import edge_count
from .metrics import format_report, report_row

TAU_GRID = ["0.20", "0.25", "0.30", "0.35", "0.40", "0.45", "0.50", "0.70", "0.90"]
PATCH_GRID = ["10", "20", "30", "50", "70", "90"]

# config key -> the library field it sets, which also declares its default
_LIBRARY = {
    "seed": (TrainConfig, "seed"),
    "encoder_dim": (EncoderConfig, "out_dim"),
    "encoder_seed": (EncoderConfig, "projection_seed"),
    "hidden": (GcnConfig, "hidden_dim"),
    "layers": (GcnConfig, "num_layers"),
    "activation": (GcnConfig, "activation"),
    "dropout": (GcnConfig, "dropout_rate"),
    "lr": (TrainConfig, "lr_init"),
    "lr_min": (TrainConfig, "lr_min"),
    "weight_decay": (TrainConfig, "weight_decay"),
    "batch_size": (TrainConfig, "batch_size"),
    "classes": (SyntheticSpec, "num_classes"),
    "per_class": (SyntheticSpec, "samples_per_class"),
    "landmarks": (SyntheticSpec, "landmark_count"),
    "feature_dim": (SyntheticSpec, "feature_dim"),
    "displacement": (SyntheticSpec, "geometry_displacement_scale"),
    "feature_noise": (SyntheticSpec, "feature_noise_scale"),
}
DEFAULTS = {
    "tau": 0.5,
    "patch": "30x30",
    "epochs": 100,
    "test_fraction": 0.25,
    "split": "random",
    "with_images": False,
    **{key: {f.name: f.default for f in dataclasses.fields(cls)}[name]
       for key, (cls, name) in _LIBRARY.items()},
}
_PATH_KEYS = ("dataset", "checkpoint", "param", "grid", "sample_id")
CHOICES = {
    "activation": list(ACTIVATIONS),
    "split": ["random", "subject"],
    "param": ["tau", "patch"],
}
_HELP = {"grid": "comma separated values; defaults per parameter"}

# Settings shared by several subcommands; _COMMANDS says which take which.
_GRAPH = ("dataset", "tau", "patch", "encoder_dim", "encoder_seed")
_MODEL = ("hidden", "layers", "activation", "dropout", "lr", "lr_min",
          "weight_decay", "epochs", "batch_size", "test_fraction", "split")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_patch(text) -> tuple[int, int]:
    parts = str(text).lower().split("x")
    try:
        if len(parts) == 1:
            h = w = int(parts[0])
        elif len(parts) == 2:
            h, w = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"--patch expects SIZE or HxW, got {text!r}")
    if h < 1 or w < 1:
        raise UsageError(f"patch size must be positive, got {text!r}")
    return h, w


def _add_setting(parser: argparse.ArgumentParser, key: str) -> None:
    """The flag for one config key, typed like its default (path keys are strings)."""
    flag = "--" + key.replace("_", "-")
    default = DEFAULTS.get(key, "")
    if isinstance(default, bool):
        parser.add_argument(flag, action="store_true", default=None)
    else:
        parser.add_argument(flag, type=type(default), choices=CHOICES.get(key),
                            help=_HELP.get(key))


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    _add_setting(common, "seed")
    common.add_argument("--out-dir", required=True)

    parser = _Parser(prog="facegraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for key in keys:
            _add_setting(p, key)
    return parser


def _type_ok(value, default) -> bool:
    """A config value must match its default's type; an int fits a float key."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_types(values: dict) -> None:
    """Each value has its default's type and, for a key in CHOICES, is a choice."""
    for key, value in values.items():
        default = DEFAULTS.get(key, "")  # path keys hold strings
        if not _type_ok(value, default):
            raise UsageError(f"config key {key!r} must be a "
                             f"{type(default).__name__}, got {value!r}")
        if key in CHOICES and value not in CHOICES[key]:
            raise UsageError(f"config key {key!r} must be one of "
                             f"{CHOICES[key]}, got {value!r}")


def _check_values(values: dict) -> None:
    """Seeds are >= 0 and float settings finite, for whichever of them are given."""
    for key in ("seed", "encoder_seed"):
        if values.get(key, 0) < 0:
            raise UsageError(f"{key} must be >= 0, got {values[key]}")
    for key, value in values.items():
        # false for nan, +-inf and ints beyond the float range
        if isinstance(DEFAULTS.get(key), float) and not abs(value) <= sys.float_info.max:
            raise UsageError(f"{key} must be a finite number, got {value!r}")


def _effective_config(args) -> dict:
    """Merge defaults, config file and flags (flags win).

    Keys the user actually set (file or flag) are recorded under "_explicit"
    so later stages can tell an explicit value from a default; the marker is
    stripped before the config is echoed.
    """
    config = dict(DEFAULTS)
    explicit = set()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DatasetError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON config ({exc})") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS) - set(_PATH_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        _check_types(loaded)
        config.update(loaded)
        explicit |= set(loaded)
    for key in (*DEFAULTS, *_PATH_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
            explicit.add(key)
    _check_values(config)
    config["_explicit"] = explicit
    return config


def _require(config: dict, key: str) -> None:
    if not config.get(key):
        raise UsageError(f"--{key.replace('_', '-')} is required")


def _echo_config(config: dict, out_dir: Path) -> None:
    write_json(out_dir / "config.json",
               {k: v for k, v in config.items() if k != "_explicit"})


def _build(cls, config: dict, **given):
    """A ``cls`` from the config keys _LIBRARY maps to its fields, plus ``given``."""
    for key, (owner, name) in _LIBRARY.items():
        if owner is cls:
            given[name] = config[key]
    return cls(**given)


def cmd_synth(config: dict, out_dir: Path) -> int:
    spec = _build(SyntheticSpec, config, seed=config["seed"])
    generate = generate_synthetic_imageset if config["with_images"] else generate_synthetic
    dataset = generate(spec)
    save_dataset(dataset, out_dir)
    print(f"wrote {len(dataset.samples)} samples "
          f"({dataset.num_classes} classes) to {out_dir}")
    return 0


def _load_graphs(config: dict):
    _require(config, "dataset")
    dataset = load_dataset(config["dataset"])
    if not dataset.samples:
        raise DatasetError(f"{config['dataset']}: no samples in the dataset")
    patch = _parse_patch(config["patch"])
    pairs = dataset_graphs(dataset, config["tau"], patch_size=patch,
                           encoder=_build(EncoderConfig, config))
    return dataset, pairs


def _merge_preprocess(config: dict, preprocess) -> dict:
    """Checkpoint graph-construction settings apply unless the user set them.

    The stored block passes the config-file checks; a block that fails them
    is a bad checkpoint, not a usage error.
    """
    if preprocess is None:
        return config
    try:
        if not isinstance(preprocess, dict):
            raise UsageError("must be a JSON object")
        pre = {k: preprocess[k] for k in ("tau", "encoder_dim", "encoder_seed")
               if k in preprocess}
        if "patch_h" in preprocess or "patch_w" in preprocess:
            h, w = preprocess.get("patch_h"), preprocess.get("patch_w")
            if not (_type_ok(h, 1) and _type_ok(w, 1)):
                raise UsageError(f"needs int patch_h and patch_w, got {h!r}, {w!r}")
            pre["patch"] = f"{h}x{w}"
            _parse_patch(pre["patch"])
        _check_types(pre)
        _check_values(pre)
        _build(EncoderConfig, {**DEFAULTS, **pre})
    except UsageError as exc:
        raise CheckpointError(f"{config['checkpoint']}: preprocess {exc}") from exc
    explicit = config["_explicit"]
    return {**config, **{k: v for k, v in pre.items() if k not in explicit}}


def _checkpoint_graphs(config: dict, out_dir: Path):
    """The checkpoint's model and graphs; config.json is echoed with its settings."""
    _require(config, "checkpoint")
    model, preprocess = load_checkpoint(config["checkpoint"])
    config = _merge_preprocess(config, preprocess)
    _echo_config(config, out_dir)
    dataset, pairs = _load_graphs(config)
    if dataset.num_classes != model.config.num_classes:
        raise DatasetError(f"{config['checkpoint']}: {model.config.num_classes} "
                           f"classes, the dataset {dataset.num_classes}")
    return model, dataset, pairs


def cmd_build_graph(config: dict, out_dir: Path) -> int:
    dataset, pairs = _load_graphs(config)
    graph_dir = out_dir / "graphs"
    graph_dir.mkdir(exist_ok=True)
    for sid, graph in pairs:
        write_graph_json(graph, graph_dir / f"{sid}.json")
    write_csv(out_dir / "summary.csv", ["sample_id", "nodes", "edges"],
              ([sid, graph.num_nodes, edge_count(graph.adjacency)] for sid, graph in pairs))
    print(f"wrote {len(pairs)} graphs to {graph_dir}")
    return 0


def _report_json(report, path) -> None:
    write_json(path, {
        "loss": report.loss,
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "war": report.war,
        "uar": report.uar,
        "per_class_recall": [float(r) for r in report.per_class_recall],
        "confusion": report.confusion.tolist(),
    })


def _train_and_eval(config: dict, out_dir: Path):
    """Shared train pipeline; returns (report, mean_edges, class_names)."""
    dataset, pairs = _load_graphs(config)
    graphs = [g for _, g in pairs]
    train_idx, test_idx = split_indices(dataset, config["test_fraction"],
                                        config["seed"], config["split"])
    train_set = [graphs[i] for i in train_idx]
    test_set = [graphs[i] for i in test_idx] or train_set
    model_config = _build(GcnConfig, config, in_dim=graphs[0].features.shape[1],
                          num_classes=dataset.num_classes)
    train_config = _build(TrainConfig, config, epochs=config["epochs"])
    model, history = train(train_set, model_config, train_config)
    patch = _parse_patch(config["patch"])
    preprocess = {"tau": config["tau"], "patch_h": patch[0], "patch_w": patch[1],
                  "encoder_dim": config["encoder_dim"],
                  "encoder_seed": config["encoder_seed"]}
    save_checkpoint(out_dir / "checkpoint.json", model, preprocess=preprocess)
    columns = ["epoch", "lr", "loss", "accuracy"]
    write_csv(out_dir / "history.csv", columns, ([r[c] for c in columns] for r in history))
    report = evaluate(model, test_set)
    _report_json(report, out_dir / "metrics.json")
    mean_edges = float(np.mean([edge_count(g.adjacency) for g in graphs]))
    return report, mean_edges, dataset.class_names


def cmd_train(config: dict, out_dir: Path) -> int:
    report, _, class_names = _train_and_eval(config, out_dir)
    print(format_report(report, class_names))
    return 0


def cmd_eval(config: dict, out_dir: Path) -> int:
    model, dataset, pairs = _checkpoint_graphs(config, out_dir)
    report = evaluate(model, [g for _, g in pairs])
    _report_json(report, out_dir / "metrics.json")
    print(format_report(report, dataset.class_names))
    return 0


def _point_config(config: dict, param: str, token: str) -> dict:
    """The config of one sweep point; a token that fails to parse or check raises."""
    if param == "tau":
        point = {**config, "tau": float(token)}
        _check_values(point)
    else:
        size = int(token)
        point = {**config, "patch": f"{size}x{size}"}
        _parse_patch(point["patch"])
    return point


def cmd_sweep(config: dict, out_dir: Path) -> int:
    _require(config, "param")
    _require(config, "dataset")
    param = config["param"]
    grid_text = config.get("grid")
    tokens = ([t.strip() for t in str(grid_text).split(",") if t.strip()]
              if grid_text else (TAU_GRID if param == "tau" else PATCH_GRID))
    if not tokens:
        raise UsageError("--grid is empty")

    columns = [param, "Acc", "F1-Score", "WAR", "UAR", "loss", "mean_edges", "status"]
    rows = []
    for token in tokens:
        point_config = None
        try:
            point_config = _point_config(config, param, token)
            point_dir = out_dir / f"point_{param}_{token}"
            point_dir.mkdir(parents=True, exist_ok=True)
            report, mean_edges, _ = _train_and_eval(point_config, point_dir)
            rows.append({param: token, **report_row(report),
                         "mean_edges": repr(mean_edges), "status": "ok"})
        except Exception as exc:  # failures are table rows, not aborts,
            if isinstance(exc, UsageError) and point_config is not None:
                raise  # unless a setting every point shares is bad
            rows.append({param: token, "status": f"error: {exc}"})

    write_csv(out_dir / "sweep.csv", columns,
              ([row.get(c, "") for c in columns] for row in rows))
    print(f"wrote {len(tokens)} sweep rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_export_embeddings(config: dict, out_dir: Path) -> int:
    model, _, pairs = _checkpoint_graphs(config, out_dir)
    target = out_dir / "embeddings.csv"
    export_embeddings(model, pairs, target)
    print(f"wrote {len(pairs)} embeddings to {target}")
    return 0


def cmd_export_graph(config: dict, out_dir: Path) -> int:
    dataset, pairs = _load_graphs(config)
    wanted = config.get("sample_id")
    if wanted is None:
        sid, graph = pairs[0]
    else:
        matches = [(s, g) for s, g in pairs if s == wanted]
        if not matches:
            raise DatasetError(f"sample {wanted!r} not found in dataset")
        sid, graph = matches[0]
    write_graph_json(graph, out_dir / f"graph_{sid}.json")
    write_graph_dot(graph, out_dir / f"graph_{sid}.dot")
    print(f"wrote graph_{sid}.json and graph_{sid}.dot to {out_dir}")
    return 0


# name -> (handler, help text, the settings its flags set)
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic dataset",
              ("classes", "per_class", "landmarks", "feature_dim", "displacement",
               "feature_noise", "with_images")),
    "build-graph": (cmd_build_graph, "build and export graphs for every sample", _GRAPH),
    "train": (cmd_train, "train a model", _GRAPH + _MODEL),
    "eval": (cmd_eval, "evaluate a checkpoint", _GRAPH + ("checkpoint",)),
    "sweep": (cmd_sweep, "train/eval per grid point of tau or patch size",
              _GRAPH + _MODEL + ("param", "grid")),
    "export-embeddings": (cmd_export_embeddings,
                          "write readout embeddings for external plotting",
                          _GRAPH + ("checkpoint",)),
    "export-graph": (cmd_export_graph, "write one sample's graph as JSON and DOT",
                     _GRAPH + ("sample_id",)),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(config, out_dir)
        handler, _, _ = _COMMANDS[args.command]
        return handler(config, out_dir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, InvalidInputError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
