"""A seeded fuzzer of the headers of the files the CLI reads.

Each case mutates one file: a checkpoint's ``config`` block, its
``layer_weights`` list or one of its matrix entries; the 16-byte header or
the payload length of one feature blob; or the header tokens of one PGM
image. It then runs ``main`` in-process on it. Whatever the bytes, the command
must end in a documented exit code (0 success, 1 usage, 2 data, 3 numeric),
no exception may escape, and nothing may be written outside ``--out-dir``.

A second fuzzer edits one or two fields of a dataset manifest: sample ids,
labels, ``class_names``, side-file paths, the declared counts, the header,
landmarks, and the values and nesting of inline feature lists. Its commands
read the edited dataset under the same three rules.

Sizes are drawn at most 64, or huge: ``num_layers`` from 10**19 up, and both
blob fields together from 2**31 up. A huge size must be refused before
anything is allocated for it; a huge blob field beside a small one would ask
for gigabytes if the reader trusted it, so the two are never mixed.
"""

import json
import math
import random
import shutil
import struct

import pytest

from facegraph.cli import main
from facegraph.data import read_feature_blob

from test_fuzz_settings import MODEL, TINY, _tree

CASES = 150

SIZES = [-1, 0, 1, 2, 3, 8, 64]
HUGE_LAYERS = [10 ** 19, 10 ** 20, 2 ** 64]
HUGE_BLOB = [2 ** 31, 2 ** 32 - 1]
JUNK = [None, "2", 2.0, True, [], {}, "relu", -0.5]
CONFIG_KEYS = ["in_dim", "num_classes", "hidden_dim", "num_layers", "activation",
               "dropout_rate"]
PGM_TOKENS = [b"x", b"4.0", b"+3", b"0x10", b"1e3", b"1_0", b"\xff", "٣".encode(),
              b"-0", b"P2", b"P5", b"256", b"65535"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A feature and an image dataset, and a checkpoint trained on the features."""
    root = tmp_path_factory.mktemp("fuzz_header_inputs")
    tiny = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    for name, extra in (("feat", []), ("img", ["--with-images"])):
        assert main(["synth", "--out-dir", str(root / name), *tiny, *extra]) == 0
    model = [f"--{k.replace('_', '-')}={v}" for k, v in MODEL.items()]
    assert main(["train", "--out-dir", str(root / "run"), "--dataset",
                 str(root / "feat"), *model]) == 0
    return root


def _mutate_checkpoint(rng, doc):
    """Edit one or two entries of a checkpoint document in place."""
    for _ in range(rng.choice([1, 2])):
        kind = rng.choice(["config", "config", "layers", "matrix", "header"])
        if kind == "config":
            key = rng.choice(CONFIG_KEYS)
            roll = rng.random()
            if roll < 0.1:
                doc["config"].pop(key, None)
            elif roll < 0.4:
                doc["config"][key] = rng.choice(JUNK)
            elif key == "num_layers" and roll < 0.7:
                doc["config"][key] = rng.choice(HUGE_LAYERS)
            else:
                doc["config"][key] = rng.choice(SIZES)
        elif kind == "layers":
            layers = doc["layer_weights"]
            op = rng.choice(["pop", "copy", "junk_list", "junk_entry"])
            if op == "pop" and layers:
                layers.pop()
            elif op == "copy" and layers:
                layers.append(dict(layers[0]))
            elif op == "junk_list":
                doc["layer_weights"] = rng.choice([None, {}, "w", 2, []])
            elif layers:
                layers[rng.randrange(len(layers))] = rng.choice(JUNK)
        elif kind == "matrix":
            entries = [doc["readout_weight"], doc["readout_bias"]]
            if isinstance(doc["layer_weights"], list):
                entries += [e for e in doc["layer_weights"] if isinstance(e, dict)]
            entry = rng.choice(entries)
            op = rng.choice(["shape", "shape_junk", "data_short", "data_junk", "drop"])
            if op == "shape":
                entry["shape"] = [rng.choice(SIZES) for _ in range(rng.choice([1, 2, 3]))]
            elif op == "shape_junk":
                entry["shape"] = rng.choice(JUNK)
            elif op == "data_short" and isinstance(entry.get("data"), str):
                entry["data"] = entry["data"][:-rng.choice([1, 4, 12])]
            elif op == "data_junk":
                entry["data"] = rng.choice(JUNK)
            else:
                entry.pop(rng.choice(["data", "shape"]), None)
        else:
            doc[rng.choice(["version", "format"])] = rng.choice([1, 2, 3, "2", None, "x"])


def _mutate_blob(rng, path):
    """Rewrite one feature blob's header or payload length."""
    data = path.read_bytes()
    magic, payload = data[:4], data[16:]
    version, rows, dim = struct.unpack("<III", data[4:16])
    op = rng.choice(["magic", "version", "sizes", "sizes", "huge", "payload", "header"])
    if op == "magic":
        magic = rng.choice([b"FGF2", b"\0\0\0\0", b"fgf1"])
    elif op == "version":
        version = rng.choice([0, 2, 2 ** 32 - 1])
    elif op == "sizes":
        rows, dim = rng.choice([rows, *SIZES[1:]]), rng.choice([dim, *SIZES[1:]])
    elif op == "huge":  # both fields at once: see the module docstring
        rows, dim = rng.choice(HUGE_BLOB), rng.choice(HUGE_BLOB)
    elif op == "payload":
        payload = (payload[:-rng.choice([1, 4, 32])] if rng.random() < 0.5
                   else payload + bytes(rng.choice([1, 4, 32])))
    else:
        path.write_bytes(data[:rng.randrange(16)])
        return
    path.write_bytes(magic + struct.pack("<III", version, rows, dim) + payload)


def _mutate_pgm(rng, path):
    """Replace, drop or comment one token of one PGM header, or cut the file in it."""
    data = path.read_bytes()
    head = data.split(maxsplit=4)[:4]  # magic, width, height, maxval
    raster = data[len(b" ".join(head)) + 1:]  # write_pgm separates by one byte
    op = rng.choice(["token", "token", "size", "drop", "comment", "cut"])
    index = rng.randrange(4)
    if op == "token":
        head[index] = rng.choice(PGM_TOKENS)
    elif op == "size":
        head[index] = str(rng.choice(SIZES)).encode()
    elif op == "drop":
        del head[index]
    elif op == "comment":
        head[index] = b"#" + head[index] + b"\n" + head[index]
    else:
        path.write_bytes(data[:rng.randrange(len(data) - len(raster))])
        return
    path.write_bytes(b" ".join(head) + b"\n" + raster)


def _case(rng, inputs, work):
    """The argv of one case; the files it mutates are copied into ``work``."""
    target = rng.choice(["checkpoint", "blob", "pgm"])
    argv_out = ["--out-dir", str(work / "out")]
    if target == "checkpoint":
        doc = json.loads((inputs / "run" / "checkpoint.json").read_text())
        _mutate_checkpoint(rng, doc)
        (work / "checkpoint.json").write_text(json.dumps(doc))
        return [rng.choice(["eval", "export-embeddings"]), *argv_out, "--dataset",
                str(inputs / "feat"), "--checkpoint", str(work / "checkpoint.json")]
    name, folder, suffix = (("feat", "features", "fgf") if target == "blob"
                            else ("img", "images", "pgm"))
    dataset = work / name
    shutil.copytree(inputs / name, dataset)
    files = sorted((dataset / folder).glob(f"*.{suffix}"))
    (_mutate_blob if target == "blob" else _mutate_pgm)(rng, rng.choice(files))
    command = rng.choice(["build-graph", "train", "export-graph"])
    argv = [command, *argv_out, "--dataset", str(dataset)]
    if command == "train":
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in MODEL.items()]
    return argv


@pytest.mark.parametrize("case", range(CASES))
def test_header_boundary(case, inputs, tmp_path, monkeypatch, capsys):
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


MANIFEST_CASES = 120

SAMPLE_IDS = ["../escaped", "..", ".hidden", "", "a/b", "a\\b", "s000_c1", 7, None,
              ["s"], "fresh_1"]
LABELS = [0, 1, -1, 2, 1.0, True, "0", None, 10 ** 400]
CLASS_NAMES = [["a", "b"], [], ["a"], ["a", "b", "c"], "a,b", [1, 2], None, {"a": 0}]
COUNTS = [-1, 0, 1, 5, 6, 7, 8, 10 ** 20, "6", 6.0, True, None]
VALUES = [0.0, -2.5, 3, 1e-45, 1e39, -1e39, math.nan, math.inf, 10 ** 400, "x", None,
          True, [], [0.5]]


def _side_paths(root):
    """Side-file paths a manifest might hold, all of them bad or misplaced."""
    return ["features/absent.fgf", "", ".", "features", "images", "manifest.json",
            "images/s000_c0.pgm", "features/s000_c0.fgf", "../feat/manifest.json",
            "./features/../features/s000_c0.fgf", str(root / "features" / "s000_c0.fgf"),
            5, [], {}, True]


def _inline(rng, root, sample):
    """The sample's features as an inline list, then one edit of its values or nesting."""
    entry = sample.get("features")
    if isinstance(entry, str) and entry.endswith(".fgf") and (root / entry).is_file():
        rows = read_feature_blob(root / entry).tolist()
    else:
        rows = [[0.25] * 8 for _ in range(6)]
    op = rng.choice(["value", "value", "ragged", "extra_row", "nest", "flat", "whole"])
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    if op == "value":
        rows[r][c] = rng.choice(VALUES)
    elif op == "ragged":
        rows[r].pop()
    elif op == "extra_row":
        rows.append(list(rows[0]))
    elif op == "nest":
        rows[r][c] = [rows[r][c]]
    elif op == "flat":
        rows = [v for row in rows for v in row]
    else:
        rows = rng.choice([[], 0.5, "0.5", [[]], {}])
    sample["features"] = rows


def _mutate_manifest(rng, doc, root):
    """Edit one or two fields of a manifest document in place."""
    for _ in range(rng.choice([1, 2])):
        samples = doc["samples"] if isinstance(doc["samples"], list) else [{}]
        sample = rng.choice(samples) if samples else {}
        kind = rng.choice(["id", "label", "class_names", "path", "path", "count",
                           "features", "features", "landmarks", "header"])
        if kind == "id":
            sample["sample_id"] = rng.choice(SAMPLE_IDS)
        elif kind == "label":
            sample["label"] = rng.choice(LABELS)
        elif kind == "class_names":
            doc["class_names"] = rng.choice(CLASS_NAMES)
        elif kind == "path":
            sample[rng.choice(["features", "image"])] = rng.choice(_side_paths(root))
        elif kind == "count":
            doc[rng.choice(["feature_dim", "landmark_count"])] = rng.choice(COUNTS)
        elif kind == "features":
            _inline(rng, root, sample)
        elif kind == "landmarks":
            landmarks = sample.get("landmarks")
            if not (isinstance(landmarks, list) and landmarks
                    and all(isinstance(p, list) and len(p) == 2 for p in landmarks)):
                sample["landmarks"] = rng.choice(VALUES)
            elif rng.random() < 0.5:
                landmarks[rng.randrange(len(landmarks))][rng.randrange(2)] = \
                    rng.choice(VALUES)
            else:
                sample["landmarks"] = rng.choice([landmarks[:-1], [], "0,0", None,
                                                  [c for p in landmarks for c in p]])
        else:
            key = rng.choice(["version", "format", "samples"])
            doc[key] = rng.choice([True, 1.0, "1", 2, None, "facegraph-dataset", {}])


def _manifest_case(rng, inputs, work):
    """The argv of one manifest case; the dataset it edits is copied into ``work``."""
    name = rng.choice(["feat", "feat", "img"])
    dataset = work / name
    shutil.copytree(inputs / name, dataset)
    manifest = dataset / "manifest.json"
    doc = json.loads(manifest.read_text())
    _mutate_manifest(rng, doc, dataset)
    manifest.write_text(json.dumps(doc))
    command = rng.choice(["build-graph", "train", "export-graph", "eval"]
                         if name == "feat" else ["build-graph", "train", "export-graph"])
    argv = [command, "--out-dir", str(work / "out"), "--dataset", str(dataset)]
    if command == "train":
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in MODEL.items()]
    elif command == "eval":
        argv += ["--checkpoint", str(inputs / "run" / "checkpoint.json")]
    return argv


@pytest.mark.parametrize("case", range(MANIFEST_CASES))
def test_manifest_boundary(case, inputs, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = _manifest_case(random.Random(case), inputs, work)
    out = work / "out"
    before = _tree(inputs), _tree(tmp_path, out)
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert (_tree(inputs), _tree(tmp_path, out)) == before, argv
