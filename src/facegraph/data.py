"""Dataset containers, file formats, synthetic data and plotting exports.

A dataset is a JSON manifest plus optional side files: per-sample feature
blobs (float32 little-endian with a 16-byte header) and PGM images. Landmarks
and labels live inline in the manifest. The synthetic generator produces
deterministic, verifiably separable desk-scale datasets, either with
precomputed features or with rendered images for patch-size experiments.

Feature blob layout (little endian): 4-byte magic ``FGF1``, uint32 version,
uint32 row count, uint32 dimension, then rows * dimension float32 values in
row-major order.
"""

from __future__ import annotations

import csv
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path, PurePath

import numpy as np

from .errors import (
    DatasetError,
    DimensionMismatchError,
    InvalidInputError,
    ManifestParseError,
    MissingFileError,
    UsageError,
    _as_array,
    _as_real,
    _check_ints,
    _check_reals,
    _is_int,
    _show,
)
from .features import EncoderConfig, _pgm_pixels, features_for_sample, read_pgm, write_pgm
from .graphs import GraphSample, _check_node_count, build_graph
from .gcn import GcnModel, predict
from .metrics import MAX_CLASSES

__all__ = [
    "Dataset",
    "SampleRecord",
    "SyntheticSpec",
    "dataset_graphs",
    "export_embeddings",
    "generate_synthetic",
    "generate_synthetic_imageset",
    "load_dataset",
    "read_feature_blob",
    "save_dataset",
    "split_indices",
    "write_feature_blob",
    "write_graph_dot",
    "write_graph_json",
]

MANIFEST_FORMAT = "facegraph-dataset"
MANIFEST_VERSION = 1
FEATURE_MAGIC = b"FGF1"
FEATURE_VERSION = 1

# Conventional emotion class names; datasets with more classes fall back to
# generic names.
EXPRESSION_NAMES = ("anger", "disgust", "fear", "happy", "sad", "surprise", "neutral")

IMAGE_SIZE = 224
CIRCLE_RADIUS = 50.0
CIRCLE_CENTER = (112.0, 112.0)

# A synthetic dataset's budget: the bytes its samples hold as generated, 16
# per landmark (two float64 coordinates) plus 8 per float64 feature or 1 per
# uint8 pixel. Writing the manifest takes about 8 times the coordinates' share.
MAX_SYNTHETIC_BYTES = 2 ** 27

# Sample ids name output files, so they may not hold a path separator or
# start with a dot.
SAMPLE_ID_PATTERN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


@dataclass
class SampleRecord:
    sample_id: str
    label: int
    landmarks: np.ndarray            # N x 2 float64
    features: np.ndarray | None      # N x d float32, or None when image-backed
    image: np.ndarray | None = None  # H x W uint8


@dataclass
class Dataset:
    class_names: list[str]
    feature_dim: int
    landmark_count: int
    samples: list[SampleRecord] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the deterministic synthetic generator."""

    num_classes: int = 6
    samples_per_class: int = 40
    landmark_count: int = 12
    feature_dim: int = 16
    geometry_displacement_scale: float = 12.0
    feature_noise_scale: float = 0.25
    seed: int = 1000

    def __post_init__(self):
        _check_ints(self, 1, "num_classes", "samples_per_class", "landmark_count", "feature_dim")
        _check_ints(self, 0, "seed")
        _check_reals(self, "geometry_displacement_scale", "feature_noise_scale")
        if not (0 <= self.geometry_displacement_scale < np.inf
                and 0 <= self.feature_noise_scale < np.inf):
            raise UsageError("synthetic noise scales must be finite and >= 0")


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with sorted keys, a one-space indent and a final
    newline; a numpy array is written as its ``tolist()``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1, default=np.ndarray.tolist)
        handle.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as CSV with "\n" line ends: each value is
    ``str(value)`` (a float's ``repr``), quoted where it holds a comma or quote."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_feature_blob(path, features: np.ndarray) -> None:
    array = np.ascontiguousarray(_as_array("feature blob payload", features, "<f4", (None, None)))
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(struct.pack("<III", FEATURE_VERSION, array.shape[0], array.shape[1]))
        handle.write(array.tobytes())


def read_feature_blob(path) -> np.ndarray:
    with open(path, "rb") as handle:
        header = handle.read(16)
        if len(header) != 16 or header[:4] != FEATURE_MAGIC:
            raise DatasetError(f"{path}: not a feature blob")
        version, rows, dim = struct.unpack("<III", header[4:])
        if version != FEATURE_VERSION:
            raise DatasetError(f"{path}: unsupported feature blob version {version}")
        # a header may claim more than the file holds, even more than read accepts
        payload = handle.read(min(4 * rows * dim, os.fstat(handle.fileno()).st_size))
    if len(payload) != 4 * rows * dim:
        raise DatasetError(f"{path}: feature blob truncated")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).copy()


def _class_names(num_classes: int) -> list[str]:
    if num_classes <= len(EXPRESSION_NAMES):
        return list(EXPRESSION_NAMES[:num_classes])
    return [f"class_{c}" for c in range(num_classes)]


def _circle_template(n: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([CIRCLE_CENTER[0] + CIRCLE_RADIUS * np.cos(angles),
                            CIRCLE_CENTER[1] + CIRCLE_RADIUS * np.sin(angles)])


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
    return matrix / np.maximum(norms, 1e-12)


def _check_budget(spec: SyntheticSpec, payload_bytes: int) -> None:
    """Refuse, before any allocation, a dataset over :data:`MAX_SYNTHETIC_BYTES`
    whose samples each hold their landmarks and ``payload_bytes``, or over
    :data:`~facegraph.metrics.MAX_CLASSES` classes."""
    size = spec.num_classes * spec.samples_per_class * (
        16 * spec.landmark_count + payload_bytes)
    if size > MAX_SYNTHETIC_BYTES:
        raise UsageError(f"a synthetic dataset of {_show(size)} bytes, above the budget "
                         f"of {MAX_SYNTHETIC_BYTES}")
    if spec.num_classes > MAX_CLASSES:
        raise UsageError(f"a synthetic dataset of {spec.num_classes} classes, above the "
                         f"budget of {MAX_CLASSES}")


def _synthetic_dataset(spec: SyntheticSpec, rng: np.random.Generator,
                       class_geometry: np.ndarray, payload) -> Dataset:
    """The samples of ``spec`` class by class; ``payload(label, landmarks)``
    gives each sample's (features, image).

    Each class displaces the circular template by its geometry row; each
    sample adds jitter of a tenth of the displacement scale, so zero scales
    mean identical samples. Whatever ``payload`` draws from ``rng`` follows
    the sample's jitter in the random stream.
    """
    template = _circle_template(spec.landmark_count)
    jitter_scale = 0.1 * spec.geometry_displacement_scale
    samples = []
    for label in range(spec.num_classes):
        base = template + spec.geometry_displacement_scale * class_geometry[label]
        for k in range(spec.samples_per_class):
            landmarks = base + rng.normal(size=(spec.landmark_count, 2)) * jitter_scale
            samples.append(SampleRecord(f"s{k:03d}_c{label}", label, landmarks,
                                        *payload(label, landmarks)))
    return Dataset(_class_names(spec.num_classes), spec.feature_dim,
                   spec.landmark_count, samples)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic feature-backed dataset with class structure.

    Each class gets a fixed displacement pattern applied to a circular
    landmark template and one unit feature prototype per landmark. Samples
    add landmark jitter and feature noise, then the feature rows are
    re-normalized and quantized to float32 so that writing and reloading the
    dataset is bitwise faithful.
    """
    _check_budget(spec, 8 * spec.landmark_count * spec.feature_dim)
    rng = np.random.default_rng(spec.seed)
    class_geometry = rng.normal(size=(spec.num_classes, spec.landmark_count, 2))
    class_prototypes = np.stack([
        _unit_rows(rng.normal(size=(spec.landmark_count, spec.feature_dim)))
        for _ in range(spec.num_classes)
    ])

    def features(label, landmarks):
        noise = rng.normal(size=(spec.landmark_count, spec.feature_dim))
        feats = _unit_rows(class_prototypes[label] + spec.feature_noise_scale * noise)
        return feats.astype(np.float32), None

    return _synthetic_dataset(spec, rng, class_geometry, features)


def _render_image(landmarks: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """IMAGE_SIZE-square grayscale image with one Gaussian blob per landmark."""
    img = np.full((IMAGE_SIZE, IMAGE_SIZE), 30.0)
    sigma = 6.0
    reach = int(3 * sigma)
    for (x, y), amp in zip(landmarks, amplitudes):
        cx, cy = int(round(x)), int(round(y))
        x0, x1 = max(0, cx - reach), min(IMAGE_SIZE, cx + reach + 1)
        y0, y1 = max(0, cy - reach), min(IMAGE_SIZE, cy + reach + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        ys = np.arange(y0, y1)[:, None]
        xs = np.arange(x0, x1)[None, :]
        img[y0:y1, x0:x1] += amp * np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2 * sigma ** 2))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def generate_synthetic_imageset(spec: SyntheticSpec) -> Dataset:
    """Image-backed variant for patch-size experiments.

    Each sample holds a rendered image and no precomputed features, so
    downstream code encodes patches. The class signal is the per-landmark
    blob brightness.
    """
    _check_budget(spec, IMAGE_SIZE ** 2)
    rng = np.random.default_rng(spec.seed)
    class_geometry = rng.normal(size=(spec.num_classes, spec.landmark_count, 2))
    amplitudes = rng.uniform(60.0, 220.0, size=(spec.num_classes, spec.landmark_count))

    return _synthetic_dataset(
        spec, rng, class_geometry,
        lambda label, landmarks: (None, _render_image(landmarks, amplitudes[label])))


def _whole(value):
    """A whole-number numpy or float ``value`` as an int; any other unchanged."""
    whole = isinstance(value, (np.integer, np.floating, float)) and float(value).is_integer()
    return int(value) if whole else value


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write manifest.json plus feature blobs and PGM images; returns the manifest
    path. The manifest and its side files' arrays are first checked by
    :func:`load_dataset`'s rules, and image pixels must be whole numbers in
    [0, 255]: a refusal is an :class:`InvalidInputError` with the rule's message,
    before anything is written. Whole-number numpy or float labels and counts
    are written as ints."""
    side, sample_docs = {}, []
    for sample in dataset.samples:
        doc = {"sample_id": sample.sample_id, "label": _whole(sample.label),
               "landmarks": sample.landmarks, "features": None, "image": None}
        for key, rel in (("features", f"features/{sample.sample_id}.fgf"),
                         ("image", f"images/{sample.sample_id}.pgm")):
            if getattr(sample, key) is not None:
                doc[key], side[rel] = rel, getattr(sample, key)
        sample_docs.append(doc)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "class_names": (list(dataset.class_names)
                        if isinstance(dataset.class_names, (list, tuple))
                        else dataset.class_names),
        "feature_dim": _whole(dataset.feature_dim),
        "landmark_count": _whole(dataset.landmark_count),
        "samples": sample_docs,
    }

    def staged(sid, entry, kind):  # an image as its PGM file will hold it
        try:
            return side[entry] if kind == "feature" else _pgm_pixels(side[entry])
        except InvalidInputError as exc:
            raise InvalidInputError(f"sample {sid!r}: {exc}") from exc

    root = Path(out_dir)
    manifest_path = root / "manifest.json"
    try:
        checked = _parse_manifest(manifest, manifest_path, staged)
    except DatasetError as exc:
        raise InvalidInputError(str(exc)) from exc
    root.mkdir(parents=True, exist_ok=True)
    for doc, sample in zip(sample_docs, checked.samples):
        doc["landmarks"] = sample.landmarks
        for key, write in (("features", write_feature_blob), ("image", write_pgm)):
            if doc[key] is not None:
                (root / doc[key]).parent.mkdir(exist_ok=True)
                write(root / doc[key], getattr(sample, key))
    write_json(manifest_path, manifest)
    return manifest_path


def _read_side_file(root: Path, sid: str, entry, kind: str) -> np.ndarray:
    """The feature blob or image in the existing side file ``entry`` names, a
    path relative to ``root`` without '..' (checked on the text)."""
    if (not isinstance(entry, str) or PurePath(entry).is_absolute()
            or ".." in PurePath(entry).parts):
        raise DatasetError(f"sample {sid!r}: side-file path {entry!r} must be "
                           f"relative to the manifest, without '..'")
    path = root / entry
    if not path.exists():
        raise MissingFileError(f"sample {sid!r}: missing {kind} file {path}")
    return read_feature_blob(path) if kind == "feature" else read_pgm(path)


def load_dataset(path) -> Dataset:
    """Parse and fully validate a dataset manifest.

    ``class_names`` must be a list of strings, and ``version``, ``feature_dim``,
    ``landmark_count`` and every label JSON ints; nothing is coerced.
    Errors name the offending sample: label out of range, wrong landmark
    count, wrong feature dimension, or a missing side file each raise a
    distinct exception type, and features must be finite. Sample ids must match :data:`SAMPLE_ID_PATTERN`
    and be unique, and feature and image paths must be relative with no
    ``..`` component (checked on the text, so symlinked directories load).
    Every listed image is read, also for a sample that has features.
    """
    manifest_path = Path(path)
    if manifest_path.is_dir():
        manifest_path /= "manifest.json"
    if not manifest_path.exists():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
        raise ManifestParseError(f"{manifest_path}: invalid JSON ({exc})") from exc
    root = manifest_path.parent
    return _parse_manifest(doc, manifest_path, lambda *args: _read_side_file(root, *args))


def _parse_manifest(doc, manifest_path: Path, read_side) -> Dataset:
    """Apply every rule of the manifest format to the JSON document ``doc``.
    ``read_side(sid, entry, kind)`` returns the array of sample ``sid``'s side
    file ``entry``, of ``kind`` "feature" or "image"."""
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ManifestParseError(f"{manifest_path}: not a {MANIFEST_FORMAT} manifest")
    version = doc.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise ManifestParseError(f"{manifest_path}: unsupported version {version}")
    missing = {"class_names", "feature_dim", "landmark_count", "samples"} - set(doc)
    if missing:
        raise ManifestParseError(f"{manifest_path}: missing fields {sorted(missing)}")
    class_names = doc["class_names"]
    if not (isinstance(class_names, list) and all(isinstance(n, str) for n in class_names)):
        raise ManifestParseError(f"{manifest_path}: class_names must be a list of strings")
    if len(class_names) > MAX_CLASSES:
        raise DatasetError(f"{manifest_path}: {len(class_names)} classes, above the "
                           f"budget of {MAX_CLASSES}")
    for key in ("feature_dim", "landmark_count"):
        if type(doc[key]) is not int:
            raise ManifestParseError(f"{manifest_path}: {key} must be an int, got {doc[key]!r}")
    feature_dim, landmark_count = doc["feature_dim"], doc["landmark_count"]
    sample_docs = doc["samples"]
    if not isinstance(sample_docs, list):
        raise ManifestParseError(f"{manifest_path}: samples must be a list")

    num_classes = len(class_names)
    samples, seen = [], set()
    for index, entry in enumerate(sample_docs):
        sid = entry.get("sample_id") if isinstance(entry, dict) else None
        if not isinstance(sid, str) or not SAMPLE_ID_PATTERN.fullmatch(sid):
            raise ManifestParseError(f"sample {index}: sample_id {sid!r} must be a "
                                     f"string matching {SAMPLE_ID_PATTERN.pattern}")
        if sid in seen:
            raise DatasetError(f"sample {sid!r}: duplicate sample_id")
        seen.add(sid)
        label = entry.get("label")
        if type(label) is not int:
            raise ManifestParseError(f"sample {sid!r}: label must be an int, got {label!r}")
        if not 0 <= label < num_classes:
            raise DatasetError(f"sample {sid!r}: label {label} outside [0, {num_classes})")
        try:
            landmarks = np.asarray(entry["landmarks"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ManifestParseError(f"sample {sid!r}: malformed landmarks") from exc
        if landmarks.shape != (landmark_count, 2):
            raise DimensionMismatchError(f"sample {sid!r}: landmarks shape {landmarks.shape}, "
                                         f"expected ({landmark_count}, 2)")
        if not np.all(np.isfinite(landmarks)):
            raise DatasetError(f"sample {sid!r}: non-finite landmark coordinates")

        feature_entry, image_entry = entry.get("features"), entry.get("image")
        if feature_entry is None and image_entry is None:
            raise DatasetError(f"sample {sid!r}: needs features or an image")

        features = None
        if feature_entry is not None:
            if isinstance(feature_entry, str):
                feature_entry = read_side(sid, feature_entry, "feature")
            try:  # a value beyond float32 becomes inf, refused below
                with np.errstate(over="ignore"):
                    features = np.asarray(feature_entry, dtype=np.float32)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ManifestParseError(
                    f"sample {sid!r}: malformed inline features") from exc
            if features.shape != (landmark_count, feature_dim):
                raise DimensionMismatchError(
                    f"sample {sid!r}: features shape {features.shape}, "
                    f"expected ({landmark_count}, {feature_dim})")
            if not np.isfinite(features).all():
                raise DatasetError(f"sample {sid!r}: non-finite features")
        image = None if image_entry is None else read_side(sid, image_entry, "image")

        samples.append(SampleRecord(sid, label, landmarks, features, image))
    return Dataset(class_names, feature_dim, landmark_count, samples)


def dataset_graphs(dataset: Dataset, tau: float, patch_size=(30, 30),
                   encoder: EncoderConfig | None = None) -> list[GraphSample]:
    """Build one graph per sample; graph k is built from ``dataset.samples[k]``.

    Precomputed features take precedence; image-backed samples are encoded
    with the toy patch encoder at the given patch size.
    """
    encoder = encoder or EncoderConfig()
    graphs = []
    for sample in dataset.samples:
        _check_node_count(len(sample.landmarks))  # before a patch is encoded
        if sample.features is not None:
            feats = _as_array(f"sample {sample.sample_id!r} features", sample.features, float)
        elif sample.image is not None:
            feats = features_for_sample(sample.image, sample.landmarks,
                                        patch_size[0], patch_size[1], encoder)
        else:
            raise DatasetError(f"sample {sample.sample_id!r}: no features and no image")
        graphs.append(build_graph(sample.landmarks, feats, tau, sample.label))
    return graphs


def split_indices(dataset: Dataset, test_fraction: float, seed: int,
                  mode: str = "random"):
    """Deterministic train/test split.

    ``random`` splits stratified per class; ``subject`` keeps whole subjects
    (the sample_id prefix before the first underscore) on one side.
    """
    if not 0.0 <= _as_real("test_fraction", test_fraction) < 1.0:
        raise UsageError("test_fraction must lie in [0, 1)")
    if mode not in ("random", "subject"):
        raise UsageError(f"unknown split mode {mode!r}")
    if not _is_int(seed) or seed < 0:
        raise UsageError(f"seed must be an int >= 0, got {_show(seed)}")
    n = len(dataset.samples)
    rng = np.random.default_rng(seed)
    groups: dict = {}  # label or subject -> sample indices
    for idx, sample in enumerate(dataset.samples):
        key = sample.label if mode == "random" else sample.sample_id.split("_", 1)[0]
        groups.setdefault(key, []).append(idx)
    test: list[int] = []
    if mode == "random":
        for label in sorted(groups):
            indices = np.array(groups[label])
            rng.shuffle(indices)
            n_test = int(round(test_fraction * len(indices)))
            if test_fraction > 0.0:
                n_test = min(max(n_test, 1), len(indices) - 1)
            test.extend(indices[:n_test].tolist())
    else:
        names = sorted(groups)
        rng.shuffle(names)
        target = test_fraction * n
        taken = 0
        for name in names:
            if taken >= target or taken + len(groups[name]) >= n:
                break
            test.extend(groups[name])
            taken += len(groups[name])
    test_set = set(test)
    train = [i for i in range(n) if i not in test_set]
    return train, sorted(test_set)


def export_embeddings(model: GcnModel, dataset: Dataset, graphs, path) -> None:
    """CSV with sample_id, true and predicted label, then the readout embedding.

    ``graphs[k]`` is the graph of ``dataset.samples[k]``, as ``dataset_graphs``
    returns them.
    """
    if len(graphs) != len(dataset.samples):
        raise InvalidInputError(f"{len(graphs)} graphs for "
                                f"{len(dataset.samples)} samples")
    predictions, _, embeddings = predict(model, graphs)
    dims = [f"dim_{k}" for k in range(embeddings.shape[1])]
    write_csv(path, ["sample_id", "label", "prediction", *dims],
              ([s.sample_id, g.label, p, *e] for s, g, p, e
               in zip(dataset.samples, graphs, predictions.tolist(), embeddings.tolist())))


def _edge_list(sample: GraphSample):
    adjacency = _as_array("adjacency", sample.adjacency, shape=(None, None))
    return np.argwhere(np.triu(adjacency, 1)).tolist()


def write_graph_json(sample: GraphSample, path) -> None:
    """Plotter-friendly node/edge description of one graph."""
    points = _as_array("landmarks", sample.landmarks, float, (None, 2))
    edges = _edge_list(sample)
    doc = {
        "format": "facegraph-graph",
        "version": 1,
        "label": int(sample.label),
        "num_nodes": sample.num_nodes,
        "num_edges": len(edges),
        "nodes": [{"id": i, "x": float(x), "y": float(y)}
                  for i, (x, y) in enumerate(points)],
        "edges": edges,
    }
    write_json(path, doc)


def write_graph_dot(sample: GraphSample, path) -> None:
    """Graphviz rendering of one graph; node positions carry pixel coordinates."""
    lines = ["graph landmarks {", "  node [shape=point];"]
    for i, (x, y) in enumerate(_as_array("landmarks", sample.landmarks, float, (None, 2))):
        lines.append(f'  n{i} [pos="{x},{y}!"];')
    for i, j in _edge_list(sample):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
