"""Command line harness: dataset synthesis, graph building, training,
evaluation, threshold / patch-size sweeps and exports.

Config precedence is flags > config file (JSON mirroring the flag names with
underscores) > a checkpoint's ``preprocess`` block (``eval``,
``export-embeddings``) > built-in defaults; the settings that ran are echoed to
``<out-dir>/config.json``, a valid config file. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import ChainMap
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
from .features import EncoderConfig, _check_patch
from .gcn import (
    ACTIVATIONS,
    GcnConfig,
    GcnModel,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .graphs import edge_count, rethreshold
from .metrics import format_report, report_row

# what main maps to exit code 2 and 3; UsageError (exit 1) is an InvalidInputError
_DATA_ERRORS = (DatasetError, InvalidInputError, CheckpointError, OSError)
_NUMERIC_ERRORS = (NumericError, FloatingPointError)

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
# A checkpoint's preprocess block records these, and the patch as patch_h, patch_w.
_PREPROCESS = tuple(key for key in _GRAPH if key not in ("dataset", "patch"))
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
    return _check_patch(h, w)


def _add_setting(parser: argparse.ArgumentParser, key: str) -> None:
    """The flag for one config key, typed like its default (path keys are strings)."""
    flag = "--" + key.replace("_", "-")
    default = DEFAULTS.get(key, "")
    if isinstance(default, bool):
        parser.add_argument(flag, action="store_true", default=None)
    else:
        parser.add_argument(flag, type=type(default), choices=CHOICES.get(key),
                            help=_HELP.get(key))


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given a ``command``, only that one's
    settings get flags, since argparse hands the rest of the line to it alone."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    _add_setting(common, "seed")
    common.add_argument("--out-dir", required=True)

    parser = _Parser(prog="facegraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if command in (None, name):
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


def _check(values) -> None:
    """Each value has its default's type and, for a key in CHOICES, is a choice;
    seeds are >= 0, float settings finite and a patch parses."""
    for key, value in values.items():
        default = DEFAULTS.get(key, "")  # path keys hold strings
        if not _type_ok(value, default):
            raise UsageError(f"config key {key!r} must be a "
                             f"{type(default).__name__}, got {value!r}")
        if key in CHOICES and value not in CHOICES[key]:
            raise UsageError(f"config key {key!r} must be one of "
                             f"{CHOICES[key]}, got {value!r}")
        if key in ("seed", "encoder_seed") and value < 0:
            raise UsageError(f"{key} must be >= 0, got {value}")
        # false for nan, +-inf and ints beyond the float range
        if isinstance(default, float) and not abs(value) <= sys.float_info.max:
            raise UsageError(f"{key} must be a finite number, got {value!r}")
        if key == "patch":
            _parse_patch(value)


def _effective_config(args) -> ChainMap:
    """The checked settings the config file and flags give (flags win), over
    the defaults: ``ChainMap(given, DEFAULTS)``, so ``maps[0]`` holds exactly
    what the user set, and a value given explicitly wins even where it equals
    its default."""
    given = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DatasetError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
            raise DatasetError(f"{path}: invalid JSON config ({exc})") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS) - set(_PATH_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        _check(loaded)
        given.update(loaded)
    for key in (*DEFAULTS, *_PATH_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    _check(given)
    return ChainMap(given, DEFAULTS)


def _require(config: ChainMap, key: str) -> None:
    if not config.get(key):
        raise UsageError(f"--{key.replace('_', '-')} is required")


def _build(cls, config: ChainMap, **given):
    """A ``cls`` from the config keys _LIBRARY maps to its fields, plus ``given``."""
    for key, (owner, name) in _LIBRARY.items():
        if owner is cls:
            given[name] = config[key]
    return cls(**given)


def cmd_synth(config: ChainMap, out_dir: Path) -> int:
    spec = _build(SyntheticSpec, config, seed=config["seed"])
    generate = generate_synthetic_imageset if config["with_images"] else generate_synthetic
    dataset = generate(spec)
    save_dataset(dataset, out_dir)
    print(f"wrote {len(dataset.samples)} samples "
          f"({dataset.num_classes} classes) to {out_dir}")
    return 0


def _load(config: ChainMap):
    _require(config, "dataset")
    dataset = load_dataset(config["dataset"])
    if not dataset.samples:
        raise DatasetError(f"{config['dataset']}: no samples in the dataset")
    return dataset


def _graphs(config: ChainMap, dataset):
    patch = _parse_patch(config["patch"])
    return dataset_graphs(dataset, config["tau"], patch_size=patch,
                          encoder=_build(EncoderConfig, config))


def _load_graphs(config: ChainMap):
    dataset = _load(config)
    return dataset, _graphs(config, dataset)


def _merge_preprocess(config: ChainMap, preprocess) -> ChainMap:
    """``ChainMap(given, pre, DEFAULTS)``: the checkpoint's graph-construction
    settings ``pre`` apply under those the user gave (``config.maps[0]``).

    The stored block passes the config-file checks; a block that fails them
    is a bad checkpoint, not a usage error.
    """
    if preprocess is None:
        return config
    try:
        if not isinstance(preprocess, dict):
            raise UsageError("must be a JSON object")
        pre = {k: preprocess[k] for k in _PREPROCESS if k in preprocess}
        if "patch_h" in preprocess or "patch_w" in preprocess:
            h, w = preprocess.get("patch_h"), preprocess.get("patch_w")
            if not (_type_ok(h, 1) and _type_ok(w, 1)):
                raise UsageError(f"needs int patch_h and patch_w, got {h!r}, {w!r}")
            pre["patch"] = f"{h}x{w}"
        _check(pre)
        _build(EncoderConfig, ChainMap(pre, DEFAULTS))
    except UsageError as exc:
        raise CheckpointError(f"{config['checkpoint']}: preprocess {exc}") from exc
    return ChainMap(config.maps[0], pre, DEFAULTS)


def _inference_model(model: GcnModel) -> GcnModel:
    """``model`` with float32 weights if every weight is a float32 value, as
    in every checkpoint CLI training writes, so that inference runs in
    float32; otherwise ``model`` itself, whose inference runs in float64."""
    with np.errstate(over="ignore"):  # a weight beyond float32's range is not one
        rounded = [p.astype(np.float32) for p in model.params]
    if all(np.array_equal(r, p) for r, p in zip(rounded, model.params)):
        return dataclasses.replace(model, params=rounded)
    return model


def _checkpoint_graphs(config: ChainMap, out_dir: Path):
    """The checkpoint's model, for inference, and graphs; config.json is
    echoed with its settings."""
    _require(config, "checkpoint")
    model, preprocess = load_checkpoint(config["checkpoint"])
    model = _inference_model(model)
    config = _merge_preprocess(config, preprocess)
    write_json(out_dir / "config.json", dict(config))
    dataset, graphs = _load_graphs(config)
    if dataset.num_classes != model.config.num_classes:
        raise DatasetError(f"{config['checkpoint']}: {model.config.num_classes} "
                           f"classes, the dataset {dataset.num_classes}")
    return model, dataset, graphs


def cmd_build_graph(config: ChainMap, out_dir: Path) -> int:
    dataset, graphs = _load_graphs(config)
    graph_dir = out_dir / "graphs"
    graph_dir.mkdir(exist_ok=True)
    for sample, graph in zip(dataset.samples, graphs):
        write_graph_json(graph, graph_dir / f"{sample.sample_id}.json")
    write_csv(out_dir / "summary.csv",
              ["sample_id", "nodes", "edges", "threshold_mean", "threshold_std",
               "threshold", "isolated_nodes"],
              ([sample.sample_id, graph.num_nodes, edge_count(graph.adjacency),
                graph.stats.mean, graph.stats.std, graph.stats.threshold,
                int(np.count_nonzero(graph.adjacency.sum(axis=1) == 0))]
               for sample, graph in zip(dataset.samples, graphs)))
    print(f"wrote {len(graphs)} graphs to {graph_dir}")
    return 0


def _train_and_eval(config: ChainMap, out_dir: Path, dataset, graphs):
    """Shared train pipeline; returns the test set's report."""
    train_idx, test_idx = split_indices(dataset, config["test_fraction"],
                                        config["seed"], config["split"])
    train_set = [graphs[i] for i in train_idx]
    test_set = [graphs[i] for i in test_idx] or train_set
    model_config = _build(GcnConfig, config, in_dim=graphs[0].features.shape[1],
                          num_classes=dataset.num_classes)
    # float32 steps take ~40% less time; the checkpoint stores the weights exactly
    train_config = _build(TrainConfig, config, epochs=config["epochs"], precision="float32")
    model, history = train(train_set, model_config, train_config)
    preprocess = {key: config[key] for key in _PREPROCESS}
    preprocess["patch_h"], preprocess["patch_w"] = _parse_patch(config["patch"])
    save_checkpoint(out_dir / "checkpoint.json", model, preprocess=preprocess)
    columns = ["epoch", "lr", "loss", "accuracy"]
    write_csv(out_dir / "history.csv", columns, ([r[c] for c in columns] for r in history))
    report = evaluate(model, test_set)
    write_json(out_dir / "metrics.json", dataclasses.asdict(report))
    return report


def cmd_train(config: ChainMap, out_dir: Path) -> int:
    dataset, graphs = _load_graphs(config)
    report = _train_and_eval(config, out_dir, dataset, graphs)
    print(format_report(report, dataset.class_names))
    return 0


def cmd_eval(config: ChainMap, out_dir: Path) -> int:
    model, dataset, graphs = _checkpoint_graphs(config, out_dir)
    report = evaluate(model, graphs)
    write_json(out_dir / "metrics.json", dataclasses.asdict(report))
    print(format_report(report, dataset.class_names))
    return 0


def _point_config(config: ChainMap, param: str, token: str) -> ChainMap:
    """The config of one sweep point, ``config.new_child({param: value})``; a
    token that fails to parse or check raises :class:`UsageError`."""
    try:
        value = float(token) if param == "tau" else int(token)
    except ValueError as exc:
        raise UsageError(f"grid token {token!r}: {exc}") from exc
    point = {param: value if param == "tau" else f"{value}x{value}"}
    _check(point)
    return config.new_child(point)


def cmd_sweep(config: ChainMap, out_dir: Path) -> int:
    _require(config, "param")
    _require(config, "dataset")
    param = config["param"]
    grid_text = config.get("grid")
    tokens = ([t.strip() for t in str(grid_text).split(",") if t.strip()]
              if grid_text else (TAU_GRID if param == "tau" else PATCH_GRID))
    if not tokens:
        raise UsageError("--grid is empty")
    repeated = sorted({t for t in tokens if tokens.count(t) > 1})
    if repeated:  # the points would share, and overwrite, one directory
        raise UsageError(f"--grid repeats {', '.join(map(repr, repeated))}")

    columns = [param, "Acc", "F1-Score", "WAR", "UAR", "loss", "mean_edges", "status"]
    rows = []
    # Shared by the points. A failure leaves them unset, and the next point retries.
    dataset = graphs = None
    for token in tokens:
        point_config = None
        try:
            point_config = _point_config(config, param, token)
            point_dir = out_dir / f"point_{param}_{token}"
            point_dir.mkdir(parents=True, exist_ok=True)
            if dataset is None:
                dataset = _load(point_config)
            if param == "patch" and all(s.features is not None for s in dataset.samples):
                raise DatasetError("every sample has stored features, "
                                   "so the patch size changes nothing")
            if param == "tau" and graphs is not None:
                # in place, so that one point's adjacencies are alive at a time
                for i, graph in enumerate(graphs):
                    graphs[i] = rethreshold(graph, point_config["tau"])
            else:
                graphs = None  # the last patch size's graphs go first
                graphs = _graphs(point_config, dataset)
                if param == "tau":  # later points need only the labels and ids
                    for sample in dataset.samples:
                        sample.features = sample.image = None
            report = _train_and_eval(point_config, point_dir, dataset, graphs)
            mean_edges = float(np.mean([edge_count(g.adjacency) for g in graphs]))
            rows.append({param: token, **report_row(report),
                         "mean_edges": repr(mean_edges), "status": "ok"})
        except (*_DATA_ERRORS, *_NUMERIC_ERRORS) as exc:  # rows, not aborts,
            if isinstance(exc, UsageError) and point_config is not None:
                raise  # unless a setting every point shares is bad
            rows.append({param: token, "status": f"error: {exc}"})

    write_csv(out_dir / "sweep.csv", columns,
              ([row.get(c, "") for c in columns] for row in rows))
    print(f"wrote {len(tokens)} sweep rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_export_embeddings(config: ChainMap, out_dir: Path) -> int:
    model, dataset, graphs = _checkpoint_graphs(config, out_dir)
    target = out_dir / "embeddings.csv"
    export_embeddings(model, dataset, graphs, target)
    print(f"wrote {len(graphs)} embeddings to {target}")
    return 0


def cmd_export_graph(config: ChainMap, out_dir: Path) -> int:
    dataset, graphs = _load_graphs(config)
    ids = [sample.sample_id for sample in dataset.samples]
    sid = config.get("sample_id", ids[0])
    if sid not in ids:
        raise DatasetError(f"sample {sid!r} not found in dataset")
    graph = graphs[ids.index(sid)]
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "config.json", dict(config))
        handler, _, _ = _COMMANDS[args.command]
        return handler(config, out_dir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
