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
)
from .features import EncoderConfig, features_for_sample, read_pgm, write_pgm
from .graphs import GraphSample, build_graph, edge_count
from .gcn import GcnModel, predict

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
        if min(self.num_classes, self.samples_per_class, self.landmark_count,
               self.feature_dim) < 1:
            raise UsageError("all synthetic counts must be positive")
        if self.geometry_displacement_scale < 0 or self.feature_noise_scale < 0:
            raise UsageError("synthetic noise scales must be >= 0")


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with sorted keys, a one-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as CSV with "\n" line ends: each value is
    ``str(value)`` (a float's ``repr``), quoted where it holds a comma or quote."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_feature_blob(path, features: np.ndarray) -> None:
    array = np.ascontiguousarray(features, dtype="<f4")
    if array.ndim != 2:
        raise InvalidInputError("feature blob payload must be 2-D")
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
        payload = handle.read(4 * rows * dim)
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


def _render_image(landmarks: np.ndarray, amplitudes: np.ndarray,
                  size: int = IMAGE_SIZE, sigma: float = 6.0) -> np.ndarray:
    """Grayscale image with one Gaussian blob per landmark."""
    img = np.full((size, size), 30.0)
    reach = int(3 * sigma)
    for (x, y), amp in zip(landmarks, amplitudes):
        cx, cy = int(round(x)), int(round(y))
        x0, x1 = max(0, cx - reach), min(size, cx + reach + 1)
        y0, y1 = max(0, cy - reach), min(size, cy + reach + 1)
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
    rng = np.random.default_rng(spec.seed)
    class_geometry = rng.normal(size=(spec.num_classes, spec.landmark_count, 2))
    amplitudes = rng.uniform(60.0, 220.0, size=(spec.num_classes, spec.landmark_count))

    return _synthetic_dataset(
        spec, rng, class_geometry,
        lambda label, landmarks: (None, _render_image(landmarks, amplitudes[label])))


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write manifest.json plus feature blobs and PGM images; returns the manifest path."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    sample_docs = []
    for sample in dataset.samples:
        doc = {
            "sample_id": sample.sample_id,
            "label": int(sample.label),
            "landmarks": np.asarray(sample.landmarks, dtype=float).tolist(),
            "features": None,
            "image": None,
        }
        if sample.features is not None:
            rel = f"features/{sample.sample_id}.fgf"
            (root / "features").mkdir(exist_ok=True)
            write_feature_blob(root / rel, sample.features)
            doc["features"] = rel
        if sample.image is not None:
            rel = f"images/{sample.sample_id}.pgm"
            (root / "images").mkdir(exist_ok=True)
            write_pgm(root / rel, sample.image)
            doc["image"] = rel
        sample_docs.append(doc)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "class_names": list(dataset.class_names),
        "feature_dim": int(dataset.feature_dim),
        "landmark_count": int(dataset.landmark_count),
        "samples": sample_docs,
    }
    manifest_path = root / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def _manifest_path(path) -> Path:
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    return p


def _contained(sid: str, entry) -> PurePath:
    """A manifest side-file path, which must stay inside the dataset directory."""
    path = PurePath(entry) if isinstance(entry, str) else None
    if path is None or path.is_absolute() or ".." in path.parts:
        raise DatasetError(f"sample {sid!r}: side-file path {entry!r} must be "
                           f"relative to the manifest, without '..'")
    return path


def load_dataset(path) -> Dataset:
    """Parse and fully validate a dataset manifest.

    ``class_names`` must be a list of strings, and ``feature_dim``,
    ``landmark_count`` and every label JSON ints; nothing is coerced.
    Errors name the offending sample: label out of range, wrong landmark
    count, wrong feature dimension, or a missing side file each raise a
    distinct exception type. Sample ids must match :data:`SAMPLE_ID_PATTERN`
    and be unique, and feature and image paths must be relative with no
    ``..`` component (checked on the text, so symlinked directories load).
    Every listed image is read, also for a sample that has features.
    """
    manifest_path = _manifest_path(path)
    if not manifest_path.exists():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ManifestParseError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ManifestParseError(f"{manifest_path}: not a {MANIFEST_FORMAT} manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ManifestParseError(f"{manifest_path}: unsupported version {doc.get('version')}")
    missing = {"class_names", "feature_dim", "landmark_count", "samples"} - set(doc)
    if missing:
        raise ManifestParseError(f"{manifest_path}: missing fields {sorted(missing)}")
    class_names = doc["class_names"]
    if not (isinstance(class_names, list) and all(isinstance(n, str) for n in class_names)):
        raise ManifestParseError(f"{manifest_path}: class_names must be a list of strings")
    for key in ("feature_dim", "landmark_count"):
        if type(doc[key]) is not int:
            raise ManifestParseError(f"{manifest_path}: {key} must be an int, got {doc[key]!r}")
    feature_dim, landmark_count = doc["feature_dim"], doc["landmark_count"]
    sample_docs = doc["samples"]
    if not isinstance(sample_docs, list):
        raise ManifestParseError(f"{manifest_path}: samples must be a list")

    root = manifest_path.parent
    num_classes = len(class_names)
    samples = []
    seen = set()
    for index, entry in enumerate(sample_docs):
        sid = entry.get("sample_id") if isinstance(entry, dict) else None
        if not isinstance(sid, str) or not SAMPLE_ID_PATTERN.fullmatch(sid):
            raise ManifestParseError(f"sample {index}: sample_id {sid!r} must be a "
                                     f"string matching {SAMPLE_ID_PATTERN.pattern}")
        if sid in seen:
            raise DatasetError(f"sample {index}: duplicate sample_id {sid!r}")
        seen.add(sid)
        label = entry.get("label")
        if type(label) is not int:
            raise ManifestParseError(f"sample {sid!r}: label must be an int, got {label!r}")
        if not 0 <= label < num_classes:
            raise DatasetError(
                f"sample {sid!r}: label {label} outside [0, {num_classes})"
            )
        try:
            landmarks = np.asarray(entry["landmarks"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestParseError(f"sample {sid!r}: malformed landmarks") from exc
        if landmarks.shape != (landmark_count, 2):
            raise DimensionMismatchError(
                f"sample {sid!r}: landmarks shape {landmarks.shape}, "
                f"expected ({landmark_count}, 2)"
            )
        if not np.all(np.isfinite(landmarks)):
            raise DatasetError(f"sample {sid!r}: non-finite landmark coordinates")

        feature_entry = entry.get("features")
        image_entry = entry.get("image")
        if feature_entry is None and image_entry is None:
            raise DatasetError(f"sample {sid!r}: needs features or an image")

        features = None
        if feature_entry is not None:
            if isinstance(feature_entry, str):
                blob_path = root / _contained(sid, feature_entry)
                if not blob_path.exists():
                    raise MissingFileError(f"sample {sid!r}: missing feature file {blob_path}")
                features = read_feature_blob(blob_path)
            else:
                try:
                    features = np.asarray(feature_entry, dtype=np.float32)
                except (TypeError, ValueError) as exc:
                    raise ManifestParseError(
                        f"sample {sid!r}: malformed inline features") from exc
            if features.shape != (landmark_count, feature_dim):
                raise DimensionMismatchError(
                    f"sample {sid!r}: features shape {features.shape}, "
                    f"expected ({landmark_count}, {feature_dim})"
                )

        image = None
        if image_entry is not None:
            image_file = root / _contained(sid, image_entry)
            if not image_file.exists():
                raise MissingFileError(f"sample {sid!r}: missing image file {image_file}")
            image = read_pgm(image_file)

        samples.append(SampleRecord(sample_id=sid, label=label, landmarks=landmarks,
                                    features=features, image=image))
    return Dataset(class_names=class_names, feature_dim=feature_dim,
                   landmark_count=landmark_count, samples=samples)


def dataset_graphs(dataset: Dataset, tau: float, patch_size=(30, 30),
                   encoder: EncoderConfig | None = None):
    """Build one graph per sample; returns [(sample_id, GraphSample), ...].

    Precomputed features take precedence; image-backed samples are encoded
    with the toy patch encoder at the given patch size.
    """
    encoder = encoder or EncoderConfig()
    pairs = []
    for sample in dataset.samples:
        if sample.features is not None:
            feats = np.asarray(sample.features, dtype=float)
        elif sample.image is not None:
            feats = features_for_sample(sample.image, sample.landmarks,
                                        patch_size[0], patch_size[1], encoder)
        else:
            raise DatasetError(f"sample {sample.sample_id!r}: no features and no image")
        pairs.append((sample.sample_id,
                      build_graph(sample.landmarks, feats, tau, sample.label)))
    return pairs


def split_indices(dataset: Dataset, test_fraction: float, seed: int,
                  mode: str = "random"):
    """Deterministic train/test split.

    ``random`` splits stratified per class; ``subject`` keeps whole subjects
    (the sample_id prefix before the first underscore) on one side.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise UsageError("test_fraction must lie in [0, 1)")
    if mode not in ("random", "subject"):
        raise UsageError(f"unknown split mode {mode!r}")
    n = len(dataset.samples)
    rng = np.random.default_rng(seed)
    test: list[int] = []
    if mode == "random":
        by_class: dict[int, list[int]] = {}
        for idx, sample in enumerate(dataset.samples):
            by_class.setdefault(sample.label, []).append(idx)
        for label in sorted(by_class):
            indices = np.array(by_class[label])
            rng.shuffle(indices)
            n_test = int(round(test_fraction * len(indices)))
            if test_fraction > 0.0:
                n_test = min(max(n_test, 1), len(indices) - 1)
            test.extend(indices[:n_test].tolist())
    else:
        subjects: dict[str, list[int]] = {}
        for idx, sample in enumerate(dataset.samples):
            subjects.setdefault(sample.sample_id.split("_", 1)[0], []).append(idx)
        names = sorted(subjects)
        rng.shuffle(names)
        target = test_fraction * n
        taken = 0
        for name in names:
            if taken >= target or taken + len(subjects[name]) >= n:
                break
            test.extend(subjects[name])
            taken += len(subjects[name])
    test_set = set(test)
    train = [i for i in range(n) if i not in test_set]
    return train, sorted(test_set)


def export_embeddings(model: GcnModel, graph_pairs, path) -> None:
    """CSV with sample_id, true and predicted label, then the readout embedding."""
    predictions, _, embeddings = predict(model, [g for _, g in graph_pairs])
    dims = [f"dim_{k}" for k in range(embeddings.shape[1])]
    write_csv(path, ["sample_id", "label", "prediction", *dims],
              ([sid, g.label, p, *e] for (sid, g), p, e
               in zip(graph_pairs, predictions.tolist(), embeddings.tolist())))


def _edge_list(sample: GraphSample):
    adj = np.asarray(sample.adjacency)
    n = adj.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]


def write_graph_json(sample: GraphSample, path) -> None:
    """Plotter-friendly node/edge description of one graph."""
    doc = {
        "format": "facegraph-graph",
        "version": 1,
        "label": int(sample.label),
        "num_nodes": sample.num_nodes,
        "num_edges": edge_count(sample.adjacency),
        "nodes": [{"id": i, "x": float(x), "y": float(y)}
                  for i, (x, y) in enumerate(np.asarray(sample.landmarks, dtype=float))],
        "edges": [[i, j] for i, j in _edge_list(sample)],
    }
    write_json(path, doc)


def write_graph_dot(sample: GraphSample, path) -> None:
    """Graphviz rendering of one graph; node positions carry pixel coordinates."""
    lines = ["graph landmarks {", "  node [shape=point];"]
    for i, (x, y) in enumerate(np.asarray(sample.landmarks, dtype=float)):
        lines.append(f'  n{i} [pos="{x},{y}!"];')
    for i, j in _edge_list(sample):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
