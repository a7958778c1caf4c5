"""facegraph: facial-attribute graphs from landmarks plus a GCN classifier.

Builds per-image graphs whose nodes are facial landmarks and whose edges
combine appearance similarity with spatial proximity, trains a graph
convolutional classifier on them, and ships the evaluation metrics, synthetic
data, file formats and sweep harness needed to study threshold and patch-size
choices.
"""

from .errors import (
    CacheMismatchError,
    CheckpointError,
    DatasetError,
    DimensionMismatchError,
    InvalidInputError,
    ManifestParseError,
    MissingFileError,
    NumericError,
)
from .graphs import (
    GraphSample,
    ThresholdStats,
    binarize,
    build_graph,
    edge_count,
    l2_normalize_rows,
    raw_adjacency,
    similarity_kernel,
    threshold_from_weights,
    threshold_stats,
)
from .features import (
    EncoderConfig,
    encode_patch_toy,
    extract_patch,
    features_for_sample,
    read_pgm,
    write_pgm,
)
from .gcn import (
    ACTIVATIONS,
    AdamState,
    GcnConfig,
    GcnModel,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy,
    evaluate,
    forward,
    gcn_layer,
    init_adam,
    init_model,
    load_checkpoint,
    lr_schedule,
    normalize_adjacency,
    param_shapes,
    predict,
    readout,
    save_checkpoint,
    train,
)
from .metrics import MetricsReport, compute_metrics, confusion, format_report
from .data import (
    Dataset,
    SampleRecord,
    SyntheticSpec,
    dataset_graphs,
    export_embeddings,
    generate_synthetic,
    generate_synthetic_imageset,
    load_dataset,
    read_feature_blob,
    save_dataset,
    split_indices,
    write_feature_blob,
    write_graph_dot,
    write_graph_json,
)

__version__ = "0.1.0"
