"""Graph convolutional classifier with hand-rolled backpropagation.

The propagation rule per layer is sigma(A_hat @ H @ W), where A_hat is the
symmetric degree normalization of the binary adjacency with self-loops added
through the identity. A mean-pool readout over nodes feeds an affine softmax
head, trained with cross-entropy, Adam with decoupled weight decay and a
cosine learning-rate schedule.

A model computes in its parameters' dtype: float32 parameters run a
float32 pass, any others a float64 one. Training with the default
``TrainConfig`` runs in double precision; ``TrainConfig(precision="float32")``
trains in single precision: the Glorot draws, the one-hot labels, and each
step's features, A_hat and dropout masks are rounded to float32, so every
activation, gradient and Adam moment is float32, and so are the parameters
``train`` returns. Checkpoints store each weight in its own precision,
float32 or float64, and load it as float64, which holds float32 exactly.
Either way a run is deterministic given the seed: the same generator drives
initialization, epoch shuffling and dropout masks (drawn in float64 in both
precisions) in a fixed order, so identical configs and data reproduce
identical parameter trajectories bit for bit.

ELU is branch-free: elu(x) = max(expm1(min(0, x)), x) and its derivative is
exp(min(0, x)). On a contiguous preactivation these give the bits of the
rejected branching forms where(x > 0, x, expm1(x)) and where(x > 0, 1, exp(x)),
-0.0 included (numpy's minimum and maximum return the second operand on
ties), at a third of the cost or less: np.where's select alone costs more
than the extra minimum and maximum passes. They never evaluate expm1 or exp
above 0, so a large finite input does not overflow. (numpy rounds expm1
and exp in libm rather than SIMD on reversed strides, so on such input the
branching forms can differ in the last bit; these forms always feed them
minimum's fresh output, and write over it.) Adam updates the parameters and
its moments in place, one operation at a time in the order of the plain
expressions, which gives the bits of the plain form kept in the tests'
oracles.
"""

from __future__ import annotations

import base64
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
    _as_array,
    _atomic_open,
    _check_ints,
    _check_reals,
    _is_int,
    _show,
)
from .graphs import GraphSample
from .metrics import MAX_CLASSES, MetricsReport, compute_metrics, confusion

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "ForwardCache",
    "GcnConfig",
    "GcnModel",
    "PRECISIONS",
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
# Version 3 adds a matrix's "dtype": "float32" key, written only for float32
# weights, so a file without one stays version 2. Version 1 stored weights as
# JSON numbers. All three load.
CHECKPOINT_VERSION = 3

# init_model's budget: parameters plus 64 per layer, for the ~2.5 KB a layer's
# arrays take beyond their values. Training holds about seven copies in its
# precision: ~0.9 GiB here in float64, ~0.45 GiB in float32.
MAX_PARAMETERS = 2 ** 24

# The deepest lists and dicts may nest in a checkpoint's preprocess value, far
# below the recursion limit that reading the file back meets.
MAX_PREPROCESS_DEPTH = 64

# TrainConfig.precision: the dtype training runs in
PRECISIONS = ("float64", "float32")

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


def _as_float(name: str, x) -> np.ndarray:
    """``x``, named ``name``, as an array of float32 if it holds float32, else of float64."""
    x = _as_array(name, x)
    return x if x.dtype in (np.float32, np.float64) else _as_array(name, x, np.float64)


def _erf(x):
    """Error function, elementwise, in Cephes' operation order, in float32 for
    float32 ``x`` and in float64 otherwise.

    Past |x| = 6 erfc is below 2**-54, so 1 - erfc rounds to exactly 1; the
    clamp keeps both branches finite, and +-inf maps to +-1.
    """
    x = _as_float("x", x)
    near = np.clip(x, -1.0, 1.0)
    z = near * near
    near = near * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    a = np.minimum(np.abs(x), 6.0)
    erfc = np.exp(-a * a) * _polevl(a, _ERFC_P) / _polevl(a, _ERFC_Q)
    return np.where(np.abs(x) <= 1.0, near, np.copysign(1.0 - erfc, x))


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0.0).astype(x.dtype)


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / _SQRT2))


def _gelu_grad(x):
    cdf = 0.5 * (1.0 + _erf(x / _SQRT2))
    with np.errstate(over="ignore"):  # past |x| ~ 1.9e154, 0.5 * x * x is inf: pdf 0
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def _elu(x):
    out = np.minimum(0.0, x)
    np.expm1(out, out=out)
    return np.maximum(out, x, out=out)


def _elu_grad(x):
    out = np.minimum(0.0, x)
    return np.exp(out, out=out)


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
        # only ints: asdict(config) is the checkpoint's JSON config block
        dims = [self.in_dim, self.num_classes, self.hidden_dim, self.num_layers]
        if any(type(d) is not int for d in dims):
            raise UsageError(f"in_dim, num_classes, hidden_dim and num_layers must "
                             f"be ints, got [{', '.join(map(_show, dims))}]")
        _check_ints(self, 1, "in_dim", "num_classes", "hidden_dim", "num_layers")
        if self.activation not in ACTIVATIONS:
            raise UsageError(
                f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}"
            )
        _check_reals(self, "dropout_rate")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError("dropout_rate must lie in [0, 1)")


def param_shapes(config: GcnConfig) -> list[tuple[int, ...]]:
    """Shapes of :attr:`GcnModel.params`, in order.

    One dims[l] x dims[l + 1] weight per layer, then the num_classes x
    dims[-1] readout weight, then the num_classes readout bias.
    """
    dims = [config.in_dim] + [config.hidden_dim] * config.num_layers
    return ([(dims[l], dims[l + 1]) for l in range(config.num_layers)]
            + [(config.num_classes, dims[-1]), (config.num_classes,)])


@dataclass
class GcnModel:
    """A config plus its parameters as one list laid out by :func:`param_shapes`:
    the layer weights, the readout weight, then the readout bias. ``updates``
    counts the :func:`adam_step` calls; checkpoints do not store it."""

    config: GcnConfig
    params: list[np.ndarray]
    updates: int = 0


@dataclass
class TrainConfig:
    """Optimizer, schedule and regularization settings, and the precision
    training runs in: one of :data:`PRECISIONS`, float64 by default."""

    epochs: int
    batch_size: int = 16
    lr_init: float = 1e-3
    lr_min: float = 1e-4
    weight_decay: float = 5e-4
    seed: int = 1000
    precision: str = "float64"

    def __post_init__(self):
        _check_ints(self, 0, "epochs", "seed")
        _check_ints(self, 1, "batch_size")
        _check_reals(self, "lr_init", "lr_min", "weight_decay")
        if self.precision not in PRECISIONS:
            raise UsageError(f"precision must be one of {list(PRECISIONS)}, "
                             f"got {self.precision!r}")
        if not 0.0 < self.lr_min <= self.lr_init < math.inf:
            raise UsageError("need 0 < lr_min <= lr_init < inf")
        if not 0.0 <= self.weight_decay < math.inf:
            raise UsageError("weight_decay must be finite and >= 0")


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of the adjacency with self-loops added.

    Degrees come from the self-looped adjacency, so they are at least 1 and
    isolated nodes are safe. The outer-product form keeps the result exactly
    symmetric for symmetric input. A weight matrix other than a bool one must
    hold numbers >= 0 whose row sums are finite.
    """
    adj = _as_array("adjacency", adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InvalidInputError("adjacency must be square")
    if adj.dtype.kind not in "biuf":
        raise InvalidInputError(f"adjacency must hold numbers, got dtype {adj.dtype}")
    with_loops = adj + np.eye(adj.shape[0])
    if adj.dtype == bool:  # as every GraphSample holds: degrees in [1, N], no scan
        degree = with_loops.sum(axis=1)
    else:
        with np.errstate(over="ignore"):  # a row sum past the float range is refused below
            degree = with_loops.sum(axis=1)
        if not (np.all(adj >= 0) and np.isfinite(degree).all()):
            raise InvalidInputError("adjacency weights must be >= 0 with finite row sums")
    inv_sqrt_degree = 1.0 / np.sqrt(degree)
    with_loops *= inv_sqrt_degree[:, None] * inv_sqrt_degree
    return with_loops


def readout(node_feats: np.ndarray) -> np.ndarray:
    """Graph-level vector: column-wise mean over nodes (permutation invariant),
    in float32 for float32 features and in float64 otherwise."""
    h = _as_float("node features", node_feats)
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


def _check_classes(config: GcnConfig) -> None:
    """Refuse a model of more than :data:`~facegraph.metrics.MAX_CLASSES`
    classes, before any of its C x C arrays is allocated."""
    if config.num_classes > MAX_CLASSES:
        raise UsageError(f"a model of {_show(config.num_classes)} classes, above the "
                         f"budget of {MAX_CLASSES}")


def init_model(config: GcnConfig, rng_or_seed) -> GcnModel:
    """Glorot-uniform initialized model; biases start at zero. A model over the
    class budget or the :data:`MAX_PARAMETERS` budget raises
    :class:`UsageError` before any allocation."""
    _check_classes(config)
    h, classes, layers = config.hidden_dim, config.num_classes, config.num_layers
    count = config.in_dim * h + (layers - 1) * h * h + classes * h + classes
    if count + 64 * layers > MAX_PARAMETERS:
        raise UsageError(f"a model of {_show(count)} parameters in {_show(layers)} "
                         f"layers, above the budget of {MAX_PARAMETERS}")
    rng = np.random.default_rng(rng_or_seed)
    *weight_shapes, bias_shape = param_shapes(config)
    params = [_glorot(rng, *shape) for shape in weight_shapes]
    return GcnModel(config=config, params=[*params, np.zeros(bias_shape)])


@dataclass
class ForwardCache:
    """Intermediate values one backward pass needs, the N x N ``A_hat``
    included, so that backward multiplies by the matrix forward used; the
    logits; and the model's :attr:`GcnModel.updates` count when the pass ran."""

    updates: int
    logits: np.ndarray
    a_hat: np.ndarray                # N x N, C order
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
    fully deterministic. The layers multiply by ``norm_adj``, an N x N
    matrix, or by default by :func:`normalize_adjacency` of the sample's
    adjacency, which is then computed on every call; :func:`train` passes
    each sample's matrix, computed once per call. The cache keeps that
    matrix, in C order, for :func:`backward`. The pass runs in float32 for
    float32 parameters, rounding the features and the matrix to it, and in
    float64 otherwise.
    """
    config = model.config
    dtype = _as_float("params", model.params[0]).dtype
    h = _as_array("sample features", sample.features, dtype)
    if h.ndim != 2 or h.shape[1] != config.in_dim:
        raise InvalidInputError(
            f"sample features have shape {h.shape}, model expects N x {_show(config.in_dim)}"
        )
    use_dropout = rng is not None and config.dropout_rate > 0.0
    if norm_adj is None:
        norm_adj = normalize_adjacency(sample.adjacency)
    a_hat = np.ascontiguousarray(_as_array("norm_adj", norm_adj, dtype))  # one BLAS layout
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise InvalidInputError("normalized adjacency must be square")
    if len(a_hat) != h.shape[0]:
        raise InvalidInputError(f"normalized adjacency has {len(a_hat)} nodes, "
                                f"sample features have {h.shape[0]}")

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
            # drawn in float64, so both precisions see one random stream; a
            # kept entry is 1 / keep rounded to dtype
            mask = (rng.random(h.shape) < keep) * dtype.type(1.0 / keep)
            h *= mask
        else:
            mask = None
        aggregated.append(m)
        preactivations.append(z)
        masks.append(mask)

    embedding = readout(h)
    cache = ForwardCache(
        updates=model.updates,
        logits=readout_weight @ embedding + readout_bias,
        a_hat=a_hat,
        aggregated=aggregated,
        preactivations=preactivations,
        dropout_masks=masks,
        embedding=embedding,
    )
    return _softmax(cache.logits), cache


def cross_entropy(labels_onehot: np.ndarray, probabilities: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped to [1e-12, 1]."""
    y = _as_array("one-hot labels", labels_onehot, float, (None, None))
    p = _as_array("probabilities", probabilities, float, y.shape)
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
    come from a forward pass since the last :func:`adam_step`, which updates
    the parameters in place; a stale cache is detected by the update count.
    Like :func:`forward`, the pass runs in float32 for float32 parameters.
    """
    if cache.updates != model.updates:
        raise CacheMismatchError("forward cache predates the model's last parameter update")
    *layer_weights, readout_weight, _ = model.params
    dlogits = _as_array("logit_grad", logit_grad, _as_float("params", model.params[0]).dtype)
    grad_readout_weight = np.outer(dlogits, cache.embedding)
    grad_readout_bias = dlogits.copy()

    # the readout's mean gives every node the same gradient row
    dh = (readout_weight.T @ dlogits) / len(cache.a_hat)

    _, act_grad = ACTIVATIONS[model.config.activation]
    grads = [None] * len(layer_weights)
    for layer in range(len(layer_weights) - 1, -1, -1):
        mask = cache.dropout_masks[layer]
        if mask is not None:
            dh *= mask  # a fresh product: the last layer's readout row has no mask
        dz = dh * act_grad(cache.preactivations[layer])
        grads[layer] = cache.aggregated[layer].T @ dz
        if layer > 0:
            dh = cache.a_hat.T @ (dz @ layer_weights[layer].T)
    return [*grads, grad_readout_weight, grad_readout_bias]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    scratch: list[tuple[np.ndarray, np.ndarray]]  # two work arrays per parameter


def init_adam(params: list[np.ndarray]) -> AdamState:
    """Zero moments and scratch arrays shaped and typed like each parameter;
    a parameter that is not one array is an InvalidInputError naming
    ``params[k]``."""
    params = [_as_array(f"params[{k}]", p) for k, p in enumerate(params)]
    return AdamState(step=0,
                     first_moment=[np.zeros_like(p) for p in params],
                     second_moment=[np.zeros_like(p) for p in params],
                     scratch=[(np.empty_like(p), np.empty_like(p)) for p in params])


def adam_step(model: GcnModel, grads: list[np.ndarray], state: AdamState,
              lr: float, weight_decay: float) -> None:
    """One bias-corrected Adam update with decoupled weight decay, in place.

    Decay shrinks the parameters by lr * weight_decay before the moment-based
    update, so it never enters the Adam moments. Updates the parameters and the
    moments in place through the state's scratch arrays, and advances both counts.
    Gradient k must be an array of real numbers of parameter k's shape, else
    an InvalidInputError naming ``grads[k]`` is raised before anything changes.
    """
    if len(model.params) != len(grads):
        raise InvalidInputError("params and grads must be parallel lists")
    checked = []
    for k, (p, g) in enumerate(zip(model.params, grads)):
        g = _as_array(f"grads[{k}]", g, shape=_as_array(f"params[{k}]", p).shape)
        if g.dtype.kind not in "biuf":
            raise InvalidInputError(f"grads[{k}] must hold real numbers, got dtype {g.dtype}")
        checked.append(g)
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v, (temp, update) in zip(model.params, checked, state.first_moment,
                                          state.second_moment, state.scratch):
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g^2,
        # rounded as in that form
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=temp)
        m += temp
        v *= ADAM_BETA2
        np.multiply(g, g, out=temp)
        temp *= 1.0 - ADAM_BETA2
        v += temp
        # p' = p * (1 - lr * weight_decay) - lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=temp)
        np.sqrt(temp, out=temp)
        temp += ADAM_EPS
        np.divide(m, bias1, out=update)
        update /= temp
        update *= lr
        p *= 1.0 - lr * weight_decay
        p -= update
    model.updates += 1


def lr_schedule(epoch: int, total_epochs: int, config: TrainConfig) -> float:
    """Cosine annealing from lr_init at epoch 0 down to lr_min at the last epoch."""
    if not 0 <= epoch < total_epochs:
        raise InvalidInputError(f"epoch {_show(epoch)} outside [0, {_show(total_epochs)})")
    if total_epochs == 1:
        return config.lr_init
    span = config.lr_init - config.lr_min
    return config.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * epoch / (total_epochs - 1)))


def _check_samples(samples: list[GraphSample], config: GcnConfig) -> None:
    """Sample k, in turn, has N x in_dim features and an integer label in
    [0, num_classes)."""
    for k, sample in enumerate(samples):
        shape = _as_array(f"sample {k} features", sample.features).shape
        if shape[1:] != (config.in_dim,):
            raise InvalidInputError(f"sample {k} has features of shape {shape}, "
                                    f"model expects N x {_show(config.in_dim)}")
        if not _is_int(sample.label):
            raise InvalidInputError(f"sample {k} has label {sample.label!r}, "
                                    f"not an integer class index")
        if not 0 <= sample.label < config.num_classes:
            raise InvalidInputError(f"sample {k} has label {_show(int(sample.label))}, "
                                    f"outside [0, {_show(config.num_classes)})")


@np.errstate(over="ignore", invalid="ignore")  # a divergence ends in NumericError alone
def train(dataset: list[GraphSample], model_config: GcnConfig,
          train_config: TrainConfig):
    """Mini-batch training loop; returns the model and the per-epoch history.

    Every epoch shuffles with the seeded generator, walks the batches in
    order, accumulates per-sample gradients sequentially and applies one Adam
    step per batch at the scheduled learning rate. The batch loss is the mean
    cross-entropy over the batch. Each sample's ``A_hat``, the
    :func:`normalize_adjacency` of its adjacency, is computed once per call,
    before the first step, and every sample-step hands it to :func:`forward`
    as ``norm_adj``; it is the matrix ``forward`` would compute, so the bits
    are those of normalizing afresh on every step. History rows report the
    mean loss and accuracy over the samples as seen during the epoch (dropout
    active).

    The steps run in ``train_config.precision``: the initial parameters, the
    one-hot labels and each ``A_hat`` are rounded to it once, so the Adam
    state, the gradient sums and, through :func:`forward` and
    :func:`backward`, every array of a step share its dtype, and so do the
    returned parameters.
    A non-finite parameter after any step raises :class:`NumericError`
    naming the epoch and the batch index, with no numpy overflow warning; in
    float32 that includes a learning rate beyond its range (about 3.4e38).
    """
    if not dataset:
        raise InvalidInputError("training dataset is empty")
    _check_samples(dataset, model_config)

    dtype = np.dtype(train_config.precision)
    rng = np.random.default_rng(train_config.seed)
    model = init_model(model_config, rng)
    model.params = [p.astype(dtype, copy=False) for p in model.params]
    onehots = np.eye(model_config.num_classes, dtype=dtype)[[s.label for s in dataset]]
    # C order, as forward would make it: one N x N array per sample while training runs
    a_hats = [normalize_adjacency(s.adjacency).astype(dtype, copy=False) for s in dataset]
    state = init_adam(model.params)

    n = len(dataset)
    grad_total = [np.zeros_like(p) for p in model.params]
    history = []
    for epoch in range(train_config.epochs):
        lr = lr_schedule(epoch, train_config.epochs, train_config)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            scale = 1.0 / len(batch)
            for total in grad_total:
                total.fill(0.0)
            for idx in batch:
                probs, cache = forward(model, dataset[idx], rng=rng, norm_adj=a_hats[idx])
                label = dataset[idx].label
                loss_sum += -math.log(max(float(probs[label]), 1e-12))
                correct += int(np.argmax(probs) == label)
                sample_grads = backward(model, cache, (probs - onehots[idx]) * scale)
                for total, g in zip(grad_total, sample_grads):
                    total += g
            adam_step(model, grad_total, state, lr, train_config.weight_decay)
            if not all(np.isfinite(p).all() for p in model.params):
                raise NumericError(f"non-finite parameters at epoch {epoch}, "
                                   f"batch {start // train_config.batch_size}")
        history.append({"epoch": epoch, "lr": lr, "loss": loss_sum / n,
                        "accuracy": correct / n})
    return model, history


def predict(model: GcnModel, samples: list[GraphSample]):
    """Predicted class indices, the probability matrix and the readout
    embeddings, one row per sample, without dropout.

    Like :func:`forward`, the pass runs in float32 for float32 parameters and
    in float64 otherwise; the probabilities and embeddings come back as
    float64 either way, which widens float32 exactly.

    Ties in the probabilities resolve to the lowest class index. The first
    sample whose logits overflow (or are NaN) raises :class:`NumericError`,
    and a model over the class budget :class:`UsageError`.
    """
    _check_classes(model.config)
    probs = np.empty((len(samples), model.config.num_classes))
    embeddings = np.empty((len(samples), model.config.hidden_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, sample in enumerate(samples):
            probs[k], cache = forward(model, sample)
            if not np.isfinite(cache.logits).all():
                raise NumericError(f"sample {k}: non-finite logits {cache.logits.tolist()}")
            embeddings[k] = cache.embedding
    return probs.argmax(axis=1), probs, embeddings


def evaluate(model: GcnModel, samples: list[GraphSample]) -> MetricsReport:
    """Full metrics report (loss, accuracy, macro-F1, WAR, UAR) on labeled graphs."""
    if not samples:
        raise InvalidInputError("cannot evaluate an empty sample list")
    _check_samples(samples, model.config)
    labels = np.array([s.label for s in samples])
    predictions, probs, _ = predict(model, samples)
    loss = cross_entropy(np.eye(model.config.num_classes)[labels], probs)
    matrix = confusion(labels, predictions, model.config.num_classes)
    return compute_metrics(matrix, loss)


def _param_names(num_layers: int) -> list[str]:
    """The checkpoint name of each entry of :attr:`GcnModel.params`, in order."""
    return [*(f"layer_weights[{i}]" for i in range(num_layers)),
            "readout_weight", "readout_bias"]


# The values a version-3 matrix's "dtype" may take, and the bytes each stores an
# entry in; a matrix without the key, as in version 2, stores float64.
_DTYPES = {"float32": np.dtype("<f4")}


def _matrix_doc(name: str, array: np.ndarray, shape: tuple[int, ...]) -> dict:
    values = _as_array(name, _as_float(name, array), None, shape)
    if not np.isfinite(values).all():
        raise NumericError(f"cannot save matrix {name!r}: it holds a non-finite value")
    doc = {"shape": list(shape)}
    if values.dtype == np.float32:
        doc["dtype"] = "float32"
    values = np.ascontiguousarray(values, values.dtype.newbyteorder("<"))  # b64encode reads it
    doc["data"] = base64.b64encode(values).decode("ascii")
    return doc


def _matrix_from_doc(doc, name: str, shape: tuple[int, ...], version: int) -> np.ndarray:
    """The float64 array a matrix entry of a version-``version`` file stores;
    a :class:`CheckpointError` naming ``name`` and the reason otherwise."""
    try:
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        data, stored = doc["data"], doc["shape"]
        if version < 3 and "dtype" in doc:
            raise ValueError(f"a version-{version} file stores no dtype")
        if version == 1:  # row-major values as JSON numbers
            if not isinstance(data, list):
                raise TypeError("version 1 stores a list of numbers")
            values = np.asarray(data, dtype=float)
        else:  # base64 of the row-major little-endian bytes of the stored dtype
            dtype = np.dtype("<f8")
            if "dtype" in doc:
                key = doc["dtype"]
                if not (isinstance(key, str) and key in _DTYPES):
                    raise ValueError(f"unknown dtype {key!r}")
                dtype = _DTYPES[key]
            raw = base64.b64decode(data, validate=True)  # TypeError unless a string
            if len(raw) != dtype.itemsize * math.prod(stored):
                raise ValueError(f"{len(raw)} bytes do not fill shape {stored}")
            values = np.frombuffer(raw, dtype=dtype).astype(float)  # writable native copy
        array = values.reshape(stored)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"no {exc.args[0]!r} key" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"malformed matrix entry {name!r}: {reason}") from exc
    if array.shape != shape:
        raise CheckpointError(f"matrix entry {name!r} has shape {list(array.shape)}, "
                              f"the config needs {list(shape)}")
    if not np.isfinite(array).all():  # NaN or inf bytes; in v1 null and 1e400 too
        raise CheckpointError(f"matrix entry {name!r} holds a non-finite value")
    return array


def _nesting(value) -> int:
    """How deep lists and dicts nest in a JSON value, counted a level at a time
    rather than by recursion."""
    depth, level = 0, [value]
    while level := [item for v in level if isinstance(v, (list, dict))
                    for item in (v.values() if isinstance(v, dict) else v)]:
        depth += 1
    return depth


def save_checkpoint(path, model: GcnModel, preprocess: dict | None = None) -> None:
    """Write model weights (and optionally graph settings) as versioned JSON.

    Each matrix is ``{"data": ..., "shape": [...]}``, where ``data`` is the
    base64 (RFC 4648, padded, one line) of its row-major little-endian
    float64 bytes, so save then load reproduces every weight bit for bit. A
    float32 array is stored as its float32 bytes instead, and its matrix
    carries ``"dtype": "float32"``; it comes back as the float64 of the same
    values. A file is version 3 when some matrix carries that key and
    version 2 otherwise, so float64 weights give the bytes they always did.
    The byte stream is deterministic for identical weights: it is
    ``json.dump(doc, sort_keys=True, separators=(",", ":"))`` plus a
    newline. A non-finite weight or ``preprocess`` value raises
    :class:`NumericError` naming its matrix or key before the file is
    opened, since :func:`load_checkpoint` or a strict JSON reader would
    refuse the file. A weight that is not an array of real numbers of the
    shape :func:`param_shapes` gives for the config, or a ``preprocess``
    that is no dict, has a key that is no string, or a value JSON would
    not load back as given (a tuple, a key inside it that is no string, a
    nesting deeper than :data:`MAX_PREPROCESS_DEPTH`), raises
    :class:`InvalidInputError` before the file is opened too.
    """
    num_layers = model.config.num_layers
    if len(model.params) != num_layers + 2:  # before param_shapes: see load_checkpoint
        raise InvalidInputError(f"{len(model.params)} parameters for a model of "
                                f"{_show(num_layers)} layers, which has {num_layers + 2}")
    matrices = list(map(
        _matrix_doc, _param_names(num_layers), model.params, param_shapes(model.config)))
    *layer_docs, weight_doc, bias_doc = matrices
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION if any("dtype" in m for m in matrices) else 2,
        "config": asdict(model.config),
        "layer_weights": layer_docs,
        "readout_weight": weight_doc,
        "readout_bias": bias_doc,
    }
    if preprocess is not None:
        if not isinstance(preprocess, dict):
            raise InvalidInputError(f"cannot save preprocess: a "
                                    f"{type(preprocess).__name__}, not a dict")
        for key, value in preprocess.items():
            if not isinstance(key, str):  # JSON would write it as a string
                raise InvalidInputError(f"cannot save preprocess {key!r}: its key is no string")
            try:  # a set or an object, a value that contains itself or nests too deep
                loaded = json.loads(json.dumps(value, sort_keys=True))
                same = loaded == value
            except (TypeError, ValueError, RecursionError) as exc:
                raise InvalidInputError(f"cannot save preprocess {key!r}: {exc}") from None
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise NumericError(f"cannot save preprocess {key!r}: "
                                   f"it holds a non-finite value") from None
            if not same:  # a tuple, or a key inside that is no string
                raise InvalidInputError(f"cannot save preprocess {key!r}: "
                                        f"JSON would load it back as another value")
            if _nesting(loaded) > MAX_PREPROCESS_DEPTH:
                raise InvalidInputError(f"cannot save preprocess {key!r}: it nests deeper "
                                        f"than MAX_PREPROCESS_DEPTH = {MAX_PREPROCESS_DEPTH}")
        doc["preprocess"] = preprocess
    with _atomic_open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, preprocess), preprocess None if absent.

    Version-1 files, which stored the weights as JSON numbers, and version-2
    ones, which store every weight as float64 bytes, still load. A version-3
    matrix is float64 bytes too unless it carries ``"dtype": "float32"``, for
    4 bytes per entry; any other ``dtype``, or one in an older version, is
    refused. Every parameter comes back as a writable, C-contiguous float64
    array, float32 values widened exactly; it must be finite and have the
    shape :func:`param_shapes` gives for the stored config. The 'preprocess' block is returned as stored, for its user
    to check. An 'optimizer' block, which older versions could write, is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
        raise CheckpointError(f"{path}: not valid JSON") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = doc.get("version")
    if type(version) is not int or version not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported version {version!r}")
    try:
        config = GcnConfig(**doc["config"])
        _check_classes(config)
    except (KeyError, TypeError, InvalidInputError) as exc:
        raise CheckpointError(f"{path}: malformed config section ({exc})") from exc
    # before param_shapes, whose per-layer list a huge count would not fit
    layer_docs = doc.get("layer_weights")
    if not isinstance(layer_docs, list) or len(layer_docs) != config.num_layers:
        raise CheckpointError(f"'layer_weights' must list {config.num_layers} matrices")
    docs = [*layer_docs, doc.get("readout_weight"), doc.get("readout_bias")]
    params = [_matrix_from_doc(d, name, shape, version) for d, name, shape
              in zip(docs, _param_names(config.num_layers), param_shapes(config))]
    return GcnModel(config=config, params=params), doc.get("preprocess")
