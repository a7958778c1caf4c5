"""Graph convolutional classifier with hand-rolled backpropagation.

The propagation rule per layer is sigma(A_hat @ H @ W), where A_hat is the
symmetric degree normalization of the binary adjacency with self-loops added
through the identity. A mean-pool readout over nodes feeds an affine softmax
head, trained with cross-entropy, Adam with decoupled weight decay and a
cosine learning-rate schedule.

Everything runs in double precision and is deterministic given the seed: the
same generator drives initialization, epoch shuffling and dropout masks in a
fixed order, so identical configs and data reproduce identical parameter
trajectories bit for bit.

ELU is branch-free: elu(x) = max(expm1(min(0, x)), x) and its derivative is
exp(min(0, x)). On a contiguous preactivation these give the bits of the
rejected branching forms where(x > 0, x, expm1(x)) and where(x > 0, 1, exp(x)),
-0.0 included (numpy's minimum and maximum return the second operand on
ties), at a third of the cost or less: np.where's select alone costs more
than the extra minimum and maximum passes. They never evaluate expm1 or exp
above 0, so a large finite input does not overflow. (numpy rounds expm1
and exp in libm rather than SIMD on reversed strides, so on such input the
branching forms can differ in the last bit; these forms always feed them
minimum's fresh output.) Adam computes the same expressions as one array
per operation, but into reused buffers, and the checkpoint writer formats a
fixed number of weights at a time; both give the bits of the plain forms
kept in the tests' oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CacheMismatchError,
    CheckpointError,
    InvalidInputError,
    NumericError,
    UsageError,
)
from .graphs import GraphSample
from .metrics import MetricsReport, compute_metrics, confusion

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "ForwardCache",
    "GcnConfig",
    "GcnModel",
    "TrainConfig",
    "adam_step",
    "backward",
    "cross_entropy",
    "evaluate",
    "forward",
    "init_adam",
    "init_model",
    "load_checkpoint",
    "lr_schedule",
    "normalize_adjacency",
    "param_shapes",
    "predict",
    "readout",
    "save_checkpoint",
    "train",
]

CHECKPOINT_FORMAT = "facegraph-checkpoint"
CHECKPOINT_VERSION = 1
_JSON_SEPARATORS = (",", ":")
_CHECKPOINT_CHUNK = 256  # weights formatted per piece of checkpoint text

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on |x| <= 1, and
# erfc(a) = exp(-a^2) P(a) / Q(a) on 1 < a < 8. U and Q are monic; their
# leading 1.0 makes the Horner loop reproduce Cephes' p1evl exactly.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x, coefs):
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erf(x):
    """Error function, elementwise, in Cephes' operation order.

    Past |x| = 6 erfc is below 2**-54, so 1 - erfc rounds to exactly 1; the
    clamp keeps both branches finite, and +-inf maps to +-1.
    """
    x = np.asarray(x, dtype=float)
    near = np.clip(x, -1.0, 1.0)
    z = near * near
    near = near * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    a = np.minimum(np.abs(x), 6.0)
    erfc = np.exp(-a * a) * _polevl(a, _ERFC_P) / _polevl(a, _ERFC_Q)
    return np.where(np.abs(x) <= 1.0, near, np.copysign(1.0 - erfc, x))


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0.0).astype(float)


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / _SQRT2))


def _gelu_grad(x):
    cdf = 0.5 * (1.0 + _erf(x / _SQRT2))
    with np.errstate(over="ignore"):  # past |x| ~ 1.9e154, 0.5 * x * x is inf: pdf 0
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def _elu(x):
    return np.maximum(np.expm1(np.minimum(0.0, x)), x)


def _elu_grad(x):
    return np.exp(np.minimum(0.0, x))


# name -> (function, derivative w.r.t. the pre-activation)
ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "gelu": (_gelu, _gelu_grad),
    "elu": (_elu, _elu_grad),
}


@dataclass
class GcnConfig:
    """Architecture knobs. Hidden width 256 and dropout 0.2 are the defaults."""

    in_dim: int
    num_classes: int
    hidden_dim: int = 256
    num_layers: int = 2
    activation: str = "relu"
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.in_dim < 1 or self.num_classes < 1:
            raise UsageError("in_dim and num_classes must be >= 1")
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise UsageError("hidden_dim and num_layers must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise UsageError(
                f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError("dropout_rate must lie in [0, 1)")

    def layer_dims(self) -> list[int]:
        return [self.in_dim] + [self.hidden_dim] * self.num_layers


def param_shapes(config: GcnConfig) -> list[tuple[int, ...]]:
    """Shapes of :attr:`GcnModel.params`, in order.

    One dims[l] x dims[l + 1] weight per layer, then the num_classes x
    dims[-1] readout weight, then the num_classes readout bias.
    """
    dims = config.layer_dims()
    return ([(dims[l], dims[l + 1]) for l in range(config.num_layers)]
            + [(config.num_classes, dims[-1]), (config.num_classes,)])


@dataclass
class GcnModel:
    """A config plus its parameters as one list laid out by :func:`param_shapes`:
    the layer weights, the readout weight, then the readout bias."""

    config: GcnConfig
    params: list[np.ndarray]


@dataclass
class TrainConfig:
    """Optimizer, schedule and regularization settings."""

    epochs: int
    batch_size: int = 16
    lr_init: float = 1e-3
    lr_min: float = 1e-4
    weight_decay: float = 5e-4
    seed: int = 1000

    def __post_init__(self):
        if self.epochs < 0:
            raise UsageError("epochs must be >= 0")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.lr_init <= 0.0 or self.lr_min <= 0.0 or self.lr_min > self.lr_init:
            raise UsageError("need 0 < lr_min <= lr_init")
        if self.weight_decay < 0.0:
            raise UsageError("weight_decay must be >= 0")


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of the adjacency with self-loops added.

    Degrees come from the self-looped adjacency, so they are at least 1 and
    isolated nodes are safe. The outer-product form keeps the result exactly
    symmetric for symmetric input.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InvalidInputError("adjacency must be square")
    with_loops = adj + np.eye(adj.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return with_loops * np.outer(inv_sqrt_degree, inv_sqrt_degree)


def readout(node_feats: np.ndarray) -> np.ndarray:
    """Graph-level vector: column-wise mean over nodes (permutation invariant)."""
    h = np.asarray(node_feats, dtype=float)
    if h.ndim != 2 or h.shape[0] < 1:
        raise InvalidInputError("readout needs a nonempty 2-D node feature matrix")
    return h.mean(axis=0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(config: GcnConfig, rng_or_seed) -> GcnModel:
    """Glorot-uniform initialized model; biases start at zero."""
    rng = (rng_or_seed if isinstance(rng_or_seed, np.random.Generator)
           else np.random.default_rng(rng_or_seed))
    *weight_shapes, bias_shape = param_shapes(config)
    params = [_glorot(rng, *shape) for shape in weight_shapes]
    return GcnModel(config=config, params=[*params, np.zeros(bias_shape)])


@dataclass
class ForwardCache:
    """Intermediate values one backward pass needs, tied to the exact parameters.

    ``params`` holds the very arrays of :attr:`GcnModel.params` the pass used,
    in the same order.
    """

    params: tuple[np.ndarray, ...]
    norm_adj: np.ndarray
    aggregated: list[np.ndarray]     # A_hat @ H per layer
    preactivations: list[np.ndarray]
    dropout_masks: list
    embedding: np.ndarray


def forward(model: GcnModel, sample: GraphSample,
            rng: np.random.Generator | None = None,
            norm_adj: np.ndarray | None = None):
    """Class probabilities for one graph, plus the cache for backprop.

    With an ``rng``, inverted dropout is applied to every hidden activation
    except the final layer's, drawing masks from it; without one the pass is
    fully deterministic. Pass ``norm_adj`` to reuse a precomputed normalization.
    """
    config = model.config
    h = np.asarray(sample.features, dtype=float)
    if h.ndim != 2 or h.shape[1] != config.in_dim:
        raise InvalidInputError(
            f"sample features have shape {h.shape}, model expects N x {config.in_dim}"
        )
    use_dropout = rng is not None and config.dropout_rate > 0.0
    a_hat = normalize_adjacency(sample.adjacency) if norm_adj is None else norm_adj

    *layer_weights, readout_weight, readout_bias = model.params
    act, _ = ACTIVATIONS[config.activation]
    aggregated = []
    preactivations = []
    masks = []
    keep = 1.0 - config.dropout_rate
    for layer, weight in enumerate(layer_weights):
        m = a_hat @ h
        z = m @ weight
        h = act(z)
        if use_dropout and layer < config.num_layers - 1:
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        else:
            mask = None
        aggregated.append(m)
        preactivations.append(z)
        masks.append(mask)

    embedding = readout(h)
    probabilities = _softmax(readout_weight @ embedding + readout_bias)
    cache = ForwardCache(
        params=tuple(model.params),
        norm_adj=a_hat,
        aggregated=aggregated,
        preactivations=preactivations,
        dropout_masks=masks,
        embedding=embedding,
    )
    return probabilities, cache


def cross_entropy(labels_onehot: np.ndarray, probabilities: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped to [1e-12, 1]."""
    y = np.asarray(labels_onehot, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if y.shape != p.shape or y.ndim != 2:
        raise InvalidInputError(
            f"label matrix {y.shape} and prediction matrix {p.shape} must match"
        )
    clamped = np.clip(p, 1e-12, 1.0)
    return float(-np.mean(np.sum(y * np.log(clamped), axis=1)))


def backward(model: GcnModel, cache: ForwardCache,
             logit_grad: np.ndarray) -> list[np.ndarray]:
    """Analytic gradients of all parameters given the loss gradient at the logits.

    The gradients come as one list in :attr:`GcnModel.params` order: the
    layer weights, the readout weight, then the readout bias.

    For softmax plus cross-entropy that upstream gradient is simply
    probabilities minus the one-hot label (scaled by the batch weighting).
    Dropout masks recorded in the cache are reused exactly. The cache must
    come from a forward pass against the very same parameter arrays;
    :func:`adam_step` replaces arrays, so a stale cache is detected.
    """
    if not (len(cache.params) == len(model.params)
            and all(c is p for c, p in zip(cache.params, model.params))):
        raise CacheMismatchError(
            "forward cache does not match the model's current parameters"
        )
    *layer_weights, readout_weight, _ = model.params
    dlogits = np.asarray(logit_grad, dtype=float)
    grad_readout_weight = np.outer(dlogits, cache.embedding)
    grad_readout_bias = dlogits.copy()

    n_nodes = cache.norm_adj.shape[0]
    d_embedding = readout_weight.T @ dlogits
    dh = np.repeat((d_embedding / n_nodes)[None, :], n_nodes, axis=0)

    _, act_grad = ACTIVATIONS[model.config.activation]
    grads = [None] * len(layer_weights)
    for layer in range(len(layer_weights) - 1, -1, -1):
        mask = cache.dropout_masks[layer]
        if mask is not None:
            dh = dh * mask
        dz = dh * act_grad(cache.preactivations[layer])
        grads[layer] = cache.aggregated[layer].T @ dz
        if layer > 0:
            dh = cache.norm_adj.T @ (dz @ layer_weights[layer].T)
    return [*grads, grad_readout_weight, grad_readout_bias]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(step=0,
                     first_moment=[np.zeros_like(p) for p in params],
                     second_moment=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState,
              lr: float, weight_decay: float):
    """One bias-corrected Adam update with decoupled weight decay.

    Decay shrinks the parameters by lr * weight_decay before the moment-based
    update, so it never enters the Adam moments. Returns fresh arrays; the
    inputs are left untouched.
    """
    if len(params) != len(grads):
        raise InvalidInputError("params and grads must be parallel lists")
    t = state.step + 1
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    new_params = []
    new_m = []
    new_v = []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g^2,
        # rounded as in that form; besides m and v, only temp and update
        # are allocated, and update becomes the new parameter
        m = np.multiply(m, ADAM_BETA1)
        temp = np.multiply(g, 1.0 - ADAM_BETA1)
        m += temp
        v = np.multiply(v, ADAM_BETA2)
        np.multiply(g, g, out=temp)
        temp *= 1.0 - ADAM_BETA2
        v += temp
        # p' = p * (1 - lr * weight_decay) - lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=temp)
        np.sqrt(temp, out=temp)
        temp += ADAM_EPS
        update = np.divide(m, bias1)
        update /= temp
        update *= lr
        if weight_decay != 0.0:
            p = np.multiply(p, 1.0 - lr * weight_decay, out=temp)
        new_params.append(np.subtract(p, update, out=update))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(step=t, first_moment=new_m, second_moment=new_v)


def lr_schedule(epoch: int, total_epochs: int, config: TrainConfig) -> float:
    """Cosine annealing from lr_init at epoch 0 down to lr_min at the last epoch."""
    if not 0 <= epoch < total_epochs:
        raise InvalidInputError(f"epoch {epoch} outside [0, {total_epochs})")
    if total_epochs == 1:
        return config.lr_init
    span = config.lr_init - config.lr_min
    return config.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * epoch / (total_epochs - 1)))


def train(dataset: list[GraphSample], model_config: GcnConfig,
          train_config: TrainConfig):
    """Mini-batch training loop; returns the model and the per-epoch history.

    Every epoch shuffles with the seeded generator, walks the batches in
    order, accumulates per-sample gradients sequentially and applies one Adam
    step per batch at the scheduled learning rate. The batch loss is the mean
    cross-entropy over the batch. History rows report the mean loss and
    accuracy over the samples as seen during the epoch (dropout active).
    A non-finite parameter after any step raises :class:`NumericError`
    naming the epoch and the batch index.
    """
    if not dataset:
        raise InvalidInputError("training dataset is empty")
    num_classes = model_config.num_classes
    for k, sample in enumerate(dataset):
        if sample.features.shape[1] != model_config.in_dim:
            raise InvalidInputError(
                f"sample {k} has feature dim {sample.features.shape[1]}, "
                f"model expects {model_config.in_dim}"
            )
        if not 0 <= sample.label < num_classes:
            raise InvalidInputError(
                f"sample {k} has label {sample.label}, outside [0, {num_classes})"
            )

    rng = np.random.default_rng(train_config.seed)
    model = init_model(model_config, rng)
    norm_adjs = [normalize_adjacency(s.adjacency) for s in dataset]
    onehots = np.eye(num_classes)[[s.label for s in dataset]]
    state = init_adam(model.params)

    n = len(dataset)
    history = []
    for epoch in range(train_config.epochs):
        lr = lr_schedule(epoch, train_config.epochs, train_config)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            scale = 1.0 / len(batch)
            grad_total = [np.zeros_like(p) for p in model.params]
            for idx in batch:
                probs, cache = forward(model, dataset[idx], rng=rng,
                                       norm_adj=norm_adjs[idx])
                label = dataset[idx].label
                loss_sum += -math.log(max(float(probs[label]), 1e-12))
                correct += int(np.argmax(probs) == label)
                sample_grads = backward(model, cache, (probs - onehots[idx]) * scale)
                for total, g in zip(grad_total, sample_grads):
                    total += g
            model.params, state = adam_step(model.params, grad_total, state,
                                            lr, train_config.weight_decay)
            if not all(np.isfinite(p).all() for p in model.params):
                raise NumericError(f"non-finite parameters at epoch {epoch}, "
                                   f"batch {start // train_config.batch_size}")
        mean_loss = loss_sum / n
        if not math.isfinite(mean_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        history.append({"epoch": epoch, "lr": lr, "loss": mean_loss,
                        "accuracy": correct / n})
    return model, history


def predict(model: GcnModel, samples: list[GraphSample]):
    """Predicted class indices, the probability matrix and the readout
    embeddings, one row per sample, without dropout.

    Ties in the probabilities resolve to the lowest class index.
    """
    probs = np.empty((len(samples), model.config.num_classes))
    embeddings = np.empty((len(samples), model.config.hidden_dim))
    for k, sample in enumerate(samples):
        probs[k], cache = forward(model, sample)
        embeddings[k] = cache.embedding
    return probs.argmax(axis=1), probs, embeddings


def evaluate(model: GcnModel, samples: list[GraphSample]) -> MetricsReport:
    """Full metrics report (loss, accuracy, macro-F1, WAR, UAR) on labeled graphs."""
    if not samples:
        raise InvalidInputError("cannot evaluate an empty sample list")
    num_classes = model.config.num_classes
    for k, sample in enumerate(samples):
        if not 0 <= sample.label < num_classes:
            raise InvalidInputError(
                f"sample {k} has label {sample.label}, outside [0, {num_classes})"
            )
    labels = np.array([s.label for s in samples])
    predictions, probs, _ = predict(model, samples)
    loss = cross_entropy(np.eye(model.config.num_classes)[labels], probs)
    matrix = confusion(labels, predictions, model.config.num_classes)
    return compute_metrics(matrix, loss)


def _matrix_text(array: np.ndarray):
    """Yield the JSON text of {"data": [row-major values], "shape": [...]} in pieces.

    Formats ``_CHECKPOINT_CHUNK`` values at a time with ``float.__repr__``, as
    ``json`` does for finite floats, so it never holds the whole matrix as
    Python floats.
    """
    flat = array.ravel()
    yield '{"data":['
    for start in range(0, flat.size, _CHECKPOINT_CHUNK):
        chunk = flat[start:start + _CHECKPOINT_CHUNK].tolist()
        yield ("," if start else "") + ",".join(map(float.__repr__, chunk))
    yield '],"shape":' + json.dumps(list(array.shape), separators=_JSON_SEPARATORS) + "}"


def _matrix_from_doc(doc, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        array = np.asarray(doc["data"], dtype=float).reshape(doc["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed matrix entry {name!r}") from exc
    if array.shape != shape:
        raise CheckpointError(f"matrix entry {name!r} has shape {list(array.shape)}, "
                              f"the config needs {list(shape)}")
    if not np.isfinite(array).all():  # null reads as nan, 1e400 as inf
        raise CheckpointError(f"matrix entry {name!r} holds a non-finite value")
    return array


def _matrix_list_from_doc(docs, name: str, shapes) -> list[np.ndarray]:
    if not isinstance(docs, list) or len(docs) != len(shapes):
        raise CheckpointError(f"{name!r} must list {len(shapes)} matrices")
    return [_matrix_from_doc(d, f"{name}[{i}]", shape)
            for i, (d, shape) in enumerate(zip(docs, shapes))]


def save_checkpoint(path, model: GcnModel, preprocess: dict | None = None) -> None:
    """Write model weights (and optionally graph settings) as versioned JSON.

    Matrices are stored row-major with declared shapes. JSON float text
    round-trips doubles exactly, so save then load reproduces every weight
    bit for bit, and the byte stream is deterministic for identical weights:
    it is ``json.dump(doc, sort_keys=True, separators=(",", ":"))`` plus a
    newline. A non-finite weight or ``preprocess`` value raises
    :class:`NumericError` naming its matrix or key before the file is
    opened, since :func:`load_checkpoint` or a strict JSON reader would
    refuse the file.
    """
    *layer_weights, readout_weight, readout_bias = model.params
    names = [f"layer_weights[{i}]" for i in range(len(layer_weights))]
    for name, array in zip([*names, "readout_weight", "readout_bias"], model.params):
        if not np.isfinite(array).all():
            raise NumericError(f"cannot save matrix {name!r}: it holds a non-finite value")

    def layer_list():
        for i, weight in enumerate(layer_weights):
            yield "," if i else "["
            yield from _matrix_text(weight)
        yield "]"

    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
    }
    if preprocess is not None:
        for key, value in preprocess.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise NumericError(f"cannot save preprocess {key!r}: "
                                   f"it holds a non-finite value") from None
        doc["preprocess"] = preprocess
    pieces = {key: [json.dumps(value, sort_keys=True, separators=_JSON_SEPARATORS)]
              for key, value in doc.items()}
    pieces.update(layer_weights=layer_list(),
                  readout_weight=_matrix_text(readout_weight),
                  readout_bias=_matrix_text(readout_bias))
    with open(path, "w", encoding="utf-8") as handle:
        for k, key in enumerate(sorted(pieces)):
            handle.write(("," if k else "{") + json.dumps(key) + ":")
            handle.writelines(pieces[key])
        handle.write("}\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, preprocess), preprocess None if absent.

    Every parameter must be finite and have the shape :func:`param_shapes`
    gives for the stored config. The 'preprocess' block is returned as stored,
    for its user to check. An 'optimizer' block, which older versions could
    write, is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not valid JSON") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')}")
    try:
        config = GcnConfig(**doc["config"])
    except (KeyError, TypeError, InvalidInputError) as exc:
        raise CheckpointError(f"{path}: malformed config section") from exc
    dims = (config.in_dim, config.num_classes, config.hidden_dim, config.num_layers)
    if any(type(d) is not int for d in dims):
        raise CheckpointError(f"{path}: config dimensions must be ints, got {list(dims)}")
    *layer_shapes, weight_shape, bias_shape = param_shapes(config)
    model = GcnModel(config=config, params=[
        *_matrix_list_from_doc(doc.get("layer_weights"), "layer_weights", layer_shapes),
        _matrix_from_doc(doc.get("readout_weight"), "readout_weight", weight_shape),
        _matrix_from_doc(doc.get("readout_bias"), "readout_bias", bias_shape),
    ])
    return model, doc.get("preprocess")
