"""A seeded fuzzer of the CLI's settings boundary.

Each case mutates one or two settings of a command, each given either as a
flag or in a config file, and may also mutate a sweep's grid tokens or the
``preprocess`` block of the checkpoint that ``eval`` and ``export-embeddings``
read. It then runs ``main`` in-process on a tiny dataset. Whatever the
inputs, the command must end in a documented exit code (0 success, 1 usage,
2 data, 3 numeric), no exception may escape, and nothing may be written
outside ``--out-dir``.

Size settings are drawn from small values and from huge ones, which the
budgets refuse before any allocation: the model budget bounds ``hidden`` and
``layers``, the synthetic dataset budget the ``synth`` sizes, and the encoder
and patch budgets ``encoder_dim`` and ``patch``; nothing allocated grows with
``batch_size``. ``epochs`` is drawn only from the small values, since no budget
bounds it and training time grows with it. At most one size is mutated per
case, so that two moderate sizes do not multiply into a long run.
"""

import json
import math
import random

import pytest

from facegraph import cli
from facegraph.cli import main

CASES = 200

SIZE_KEYS = {"hidden", "layers", "landmarks", "classes", "per_class", "feature_dim",
             "encoder_dim", "epochs", "batch_size"}
SIZES = [-1, 0, 1, 2, 3, 64]
HUGE = [10 ** 9, 2 ** 63, 10 ** 30]
# values of the wrong type for most keys; none parses as a large int
JUNK = ["", "abc", "nan", "1e3", "0x3", "-0", "1.5", None, True, [], {}, 1.5]
FLOATS = [0, -1, 0.5, 1, 1e-300, 1e300, -1e300, 10 ** 400,
          math.nan, math.inf, -math.inf]
SEEDS = [-1, 0, 7, 2 ** 63, 2 ** 70]
STRINGS = {
    "patch": ["1", "2x3", "64x64", "0x3", "3x-1", "x", "65536x0", "1x2x3",
              "1000000x1000000", "129x128"],
    "split": ["random", "subject", "bogus"],
    "activation": [*cli.CHOICES["activation"], "bogus"],
    "param": ["tau", "patch", "bogus"],
    "grid": ["0.5", "10,20", ",", "0.5,0.5", "1_0"],
    "sample_id": ["s000_c0", "../escape", "/abs", "nope"],
}
TAU_TOKENS = ["0", "0.5", "-1", "1e308", "1e309", "nan", "inf", "1_0", "x", " 2 "]
PATCH_TOKENS = ["-1", "0", "1", "2", "64", "٣", "1.5", "x", "+3", "1000000"]

# small, valid settings every case starts from
MODEL = {"epochs": "2", "batch_size": "4", "hidden": "8", "encoder_dim": "16"}
TINY = {"classes": "2", "per_class": "3", "landmarks": "6", "feature_dim": "8",
        "feature_noise": "0.05"}


def _pool(key):
    """The values of ``key``'s type that a mutation draws from."""
    if key in SIZE_KEYS:
        return SIZES if key == "epochs" else SIZES + HUGE
    if key in ("seed", "encoder_seed"):
        return SEEDS
    if key in STRINGS:
        return STRINGS[key]
    default = cli.DEFAULTS.get(key)
    if isinstance(default, bool):
        return [True, False]
    if isinstance(default, float):
        return FLOATS
    return ["", "absent", "."]  # dataset, checkpoint


def _draw(rng, pool):
    """A value from ``pool``, or one of the wrong type a quarter of the time."""
    return rng.choice(JUNK if rng.random() < 0.25 else pool)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A feature and an image dataset, and a checkpoint trained on the images."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    tiny = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    for name, extra in (("feat", []), ("img", ["--with-images"])):
        assert main(["synth", "--out-dir", str(root / name), *tiny, *extra]) == 0
    model = [f"--{k.replace('_', '-')}={v}" for k, v in MODEL.items()]
    assert main(["train", "--out-dir", str(root / "run"), "--dataset",
                 str(root / "img"), "--patch", "10", *model]) == 0
    return root


def _case(rng, inputs, work):
    """The argv of one case; its config file and checkpoint go in ``work``."""
    command = rng.choice(sorted(cli._COMMANDS))
    keys = ["seed", *cli._COMMANDS[command][2]]
    dataset = rng.choice(["feat", "img"])
    flags = dict(TINY) if command == "synth" else {"dataset": str(inputs / dataset)}
    if command in ("train", "sweep"):
        flags.update(MODEL)
    if command == "sweep":
        flags.update(param=rng.choice(["tau", "patch"]), grid="0.5")
    config = {}
    checkpoint = None
    if command in ("eval", "export-embeddings"):
        checkpoint = json.loads((inputs / "run" / "checkpoint.json").read_text())
        flags.update(dataset=str(inputs / "img"),  # the checkpoint's
                     checkpoint=str(work / "checkpoint.json"))

    mutable = sorted(set(keys) | set(cli.DEFAULTS) | set(cli._PATH_KEYS))
    chosen = rng.sample(mutable, 2)
    if chosen[0] in SIZE_KEYS and chosen[1] in SIZE_KEYS:
        chosen = chosen[:1]
    for key in chosen[:rng.choice([1, 2])]:
        value = _draw(rng, _pool(key))
        if key in keys and rng.random() < 0.5:
            # a bool setting's flag takes no value; any other is spelled as JSON
            bool_flag = isinstance(cli.DEFAULTS.get(key), bool) and value is True
            flags[key] = (None if bool_flag else
                          value if isinstance(value, str) else json.dumps(value))
        else:  # a config file takes every key, whichever the command
            flags.pop(key, None)
            config[key] = value
    if command == "sweep" and rng.random() < 0.5:
        tokens = TAU_TOKENS if flags.get("param") == "tau" else PATCH_TOKENS
        flags["grid"] = ",".join(rng.sample(tokens, rng.choice([1, 2, 3])))
    if checkpoint is not None and rng.random() < 0.5:
        pre = checkpoint["preprocess"]
        key = rng.choice(["tau", "patch_h", "patch_w", "encoder_dim", "encoder_seed"])
        if rng.random() < 0.2:
            del pre[key]
        elif key == "tau":
            pre[key] = _draw(rng, FLOATS)
        else:
            pre[key] = _draw(rng, SEEDS if key == "encoder_seed" else SIZES + HUGE)
        if rng.random() < 0.1:
            checkpoint["preprocess"] = rng.choice([None, [], "tau", 0.5])
    if checkpoint is not None:
        (work / "checkpoint.json").write_text(json.dumps(checkpoint))

    argv = [command, "--out-dir", str(work / "out")]
    for key, text in flags.items():
        flag = "--" + key.replace("_", "-")
        argv.append(flag if text is None else f"{flag}={text}")
    if config:
        (work / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(work / "run.json")]
    return argv


def _tree(root, out=None):
    """Every path under ``root`` but ``out`` and its contents, with a file's
    size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) if p.is_file() else None
            for p in root.rglob("*") if out is None or not (p == out or out in p.parents)}


@pytest.mark.parametrize("case", range(CASES))
def test_settings_boundary(case, inputs, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = _case(random.Random(case), inputs, work)
    out = work / "out"
    before = _tree(inputs), _tree(tmp_path, out)
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert (_tree(inputs), _tree(tmp_path, out)) == before, argv
