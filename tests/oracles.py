"""Independent reference implementations the tests check production code against.

These are written as plain per-entry loops with no mirroring, no vectorized
statistics and no shared code with the package. They intentionally use the
same elementary primitives (np.dot for inner products, math.sqrt / math.exp
for scalars) so that agreement can be asserted bit for bit where the package
promises it.
"""

import base64
import json
import math
import struct
import sys

import numpy as np


def naive_graph(points, raw_features, tau):
    """Per-entry reference for the whole graph construction.

    Returns (normalized features, raw weights, (mean, std, threshold),
    binary adjacency).
    """
    pts = np.asarray(points, dtype=float)
    feats = np.asarray(raw_features, dtype=float)
    n = pts.shape[0]

    normalized = np.zeros_like(feats)
    for i in range(n):
        norm = math.sqrt(float(np.dot(feats[i], feats[i])))
        if norm > 1e-12:
            normalized[i] = feats[i] / norm

    raw = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            similarity = min(1.0, max(0.0, float(np.dot(normalized[i], normalized[j]))))
            with np.errstate(over="ignore"):
                dx = pts[i, 0] - pts[j, 0]
                dy = pts[i, 1] - pts[j, 1]
                distance = math.sqrt(dx * dx + dy * dy)
            # past log(max double) math.exp overflows: the decay is inf
            far = distance > math.log(sys.float_info.max)
            raw[i, j] = similarity / (math.inf if far else math.exp(distance))

    off_diagonal = [raw[i, j] for i in range(n) for j in range(n) if i != j]
    if all(v == off_diagonal[0] for v in off_diagonal):
        # same all-equal short-circuit the documented statistic defines
        mean, std = float(off_diagonal[0]), 0.0
    else:
        total = 0.0
        for v in off_diagonal:
            total += v
        mean = total / len(off_diagonal)
        squares = 0.0
        for v in off_diagonal:
            dev = v - mean
            squares += dev * dev
        std = math.sqrt(squares / len(off_diagonal))
    threshold = mean + tau * std

    adjacency = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and raw[i, j] > threshold:
                adjacency[i, j] = 1
    return normalized, raw, (mean, std, threshold), adjacency


def naive_patch(image, center, h, w):
    """Nested-loop clamping reference for patch extraction."""
    img = np.asarray(image)
    cx, cy = float(center[0]), float(center[1])
    top = int(round(cy)) - h // 2
    left = int(round(cx)) - w // 2
    out = np.empty((h, w), dtype=img.dtype)
    for r in range(h):
        for c in range(w):
            rr = min(max(top + r, 0), img.shape[0] - 1)
            cc = min(max(left + c, 0), img.shape[1] - 1)
            out[r, c] = img[rr, cc]
    return out


def naive_encode(patch, out_dim, seed):
    """Per-cell mean pooling onto an 8x8 grid, scaled by 1/255, then one
    projection of that grid by the encoder's seeded matrix."""
    pixels = np.asarray(patch, dtype=float)
    h, w = pixels.shape
    pooled = np.empty((8, 8))
    for i in range(8):
        r0 = (i * h) // 8
        r1 = max(r0 + 1, ((i + 1) * h) // 8)
        for j in range(8):
            c0 = (j * w) // 8
            c1 = max(c0 + 1, ((j + 1) * w) // 8)
            pooled[i, j] = pixels[r0:r1, c0:c1].mean()
    pooled = pooled / 255.0
    projection = np.random.default_rng(seed).standard_normal((out_dim, 64)) / 8
    return projection @ pooled.ravel()


def naive_features(image, landmarks, h, w, out_dim, seed):
    """One naive_encode of one naive_patch per landmark; row i is landmark i."""
    return np.stack([naive_encode(naive_patch(image, point, h, w), out_dim, seed)
                     for point in landmarks])


def naive_metrics(true_labels, predicted_labels, num_classes):
    """Per-sample counting reference for accuracy, recalls, UAR, WAR, macro-F1."""
    truth = list(true_labels)
    preds = list(predicted_labels)
    total = len(truth)
    correct = sum(1 for t, p in zip(truth, preds) if t == p)
    accuracy = correct / total

    recalls = []
    weighted = 0.0
    f1s = []
    for c in range(num_classes):
        support = sum(1 for t in truth if t == c)
        predicted = sum(1 for p in preds if p == c)
        hits = sum(1 for t, p in zip(truth, preds) if t == c and p == c)
        recall = hits / support if support else 0.0
        precision = hits / predicted if predicted else 0.0
        if support:
            recalls.append(recall)
            weighted += (support / total) * recall
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    uar = sum(recalls) / len(recalls)
    macro_f1 = sum(f1s) / num_classes
    return {"accuracy": accuracy, "uar": uar, "war": weighted, "macro_f1": macro_f1}


def nearest_prototype_accuracy(dataset, prototypes):
    """Classify each sample by total feature similarity to class prototypes.

    ``prototypes`` is a (C, N, d) array of per-landmark unit feature rows.
    """
    correct = 0
    for sample in dataset.samples:
        feats = np.asarray(sample.features, dtype=float)
        scores = [float(np.sum(feats * prototypes[c]))
                  for c in range(prototypes.shape[0])]
        correct += int(np.argmax(scores)) == sample.label
    return correct / len(dataset.samples)


def where_elu(x):
    """ELU by an explicit branch: x where x > 0, expm1(x) elsewhere."""
    return np.where(x > 0.0, x, np.expm1(x))


def where_elu_grad(x):
    """ELU derivative by an explicit branch: 1 where x > 0, exp(x) elsewhere."""
    return np.where(x > 0.0, 1.0, np.exp(x))


def naive_adam_step(params, grads, first, second, step, lr, weight_decay,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam with decoupled decay, one fresh array per expression.

    Returns (params, first moments, second moments) after step ``step + 1``.
    """
    t = step + 1
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    new_params, new_first, new_second = [], [], []
    for p, g, m, v in zip(params, grads, first, second):
        if weight_decay != 0.0:
            p = p * (1.0 - lr * weight_decay)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        new_params.append(p - lr * update)
        new_first.append(m)
        new_second.append(v)
    return new_params, new_first, new_second


# struct's code for the values a checkpoint matrix stores, by its "dtype" key
STRUCT_CODES = {None: "d", "float32": "f"}


def checkpoint_values(entry):
    """The values a version-2 or version-3 checkpoint matrix ``entry`` stores,
    as Python floats, unpacked by ``struct`` as its ``dtype`` key says."""
    code = STRUCT_CODES[entry.get("dtype")]
    raw = base64.b64decode(entry["data"], validate=True)
    return list(struct.unpack(f"<{len(raw) // struct.calcsize(code)}{code}", raw))


def pack_checkpoint_values(entry, values):
    """``values`` as the ``data`` of checkpoint matrix ``entry``: the base64 of
    them packed by ``struct`` as its ``dtype`` key says."""
    code = STRUCT_CODES[entry.get("dtype")]
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def json_dump_checkpoint(path, model, preprocess=None, *, version):
    """The checkpoint document built from Python lists and streamed by json.dump.

    Version 1, the earliest format, stores each matrix's row-major values as
    JSON numbers. Version 2 stores the base64 of those values packed by
    ``struct`` as little-endian doubles. Version 3 stores a float32 array's
    values packed as little-endian floats, with ``"dtype": "float32"``, and
    any other array as version 2 does.
    """
    config = model.config
    *layer_weights, readout_weight, readout_bias = model.params

    def matrix(array):
        values = array.ravel().tolist()  # row-major for any memory layout
        entry = {"shape": list(array.shape), "data": values}
        if version == 3 and array.dtype == np.float32:
            entry["dtype"] = "float32"
        if version > 1:
            entry["data"] = pack_checkpoint_values(entry, values)
        return entry

    doc = {
        "format": "facegraph-checkpoint",
        "version": version,
        "config": {
            "in_dim": config.in_dim,
            "num_classes": config.num_classes,
            "hidden_dim": config.hidden_dim,
            "num_layers": config.num_layers,
            "activation": config.activation,
            "dropout_rate": config.dropout_rate,
        },
        "layer_weights": [matrix(w) for w in layer_weights],
        "readout_weight": matrix(readout_weight),
        "readout_bias": matrix(readout_bias),
    }
    if preprocess is not None:
        doc["preprocess"] = preprocess
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def naive_train(graphs, model_config, train_config, activation, dtype=np.float64):
    """Per-sample reference for ``train``: dense ``A_hat @ H`` products on the
    full N x N normalized adjacency, forward and backward, one fresh array per
    expression.

    ``activation`` is the (function, derivative) pair to use. Draws from one
    generator seeded by ``train_config.seed`` in the package's order: Glorot
    weights, then per epoch a permutation and, per sample, the dropout masks.
    Every array is of ``dtype``: the float64 Glorot draws, the float64
    normalized adjacency, the features and the float64 dropout masks are
    rounded to it. Returns (params, history) in the shapes ``train`` returns
    them, the params of ``dtype``.
    """
    act, act_grad = activation
    rng = np.random.default_rng(train_config.seed)
    num_layers, num_classes = model_config.num_layers, model_config.num_classes
    dims = [model_config.in_dim] + [model_config.hidden_dim] * num_layers
    shapes = [(dims[l], dims[l + 1]) for l in range(num_layers)] + [(num_classes, dims[-1])]
    params = []
    for fan_in, fan_out in shapes:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
    params.append(np.zeros(num_classes, dtype=dtype))
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    keep = 1.0 - model_config.dropout_rate

    def normalize(adjacency):
        with_loops = np.asarray(adjacency, dtype=float) + np.eye(len(adjacency))
        inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
        return with_loops * np.outer(inv_sqrt_degree, inv_sqrt_degree)

    def forward(features, a_hat):
        h = np.asarray(features, dtype=dtype)
        aggregated, preactivations, masks = [], [], []
        for layer in range(num_layers):
            m = a_hat @ h
            z = m @ params[layer]
            h = act(z)
            mask = None
            if model_config.dropout_rate > 0.0 and layer < num_layers - 1:
                mask = ((rng.random(h.shape) < keep) / keep).astype(dtype)
                h = h * mask
            aggregated.append(m)
            preactivations.append(z)
            masks.append(mask)
        embedding = h.mean(axis=0)
        logits = params[-2] @ embedding + params[-1]
        exp = np.exp(logits - logits.max())
        return exp / exp.sum(), (aggregated, preactivations, masks, embedding)

    def backward(a_hat, cache, dlogits):
        aggregated, preactivations, masks, embedding = cache
        n = a_hat.shape[0]
        d_embedding = params[-2].T @ dlogits
        dh = np.repeat((d_embedding / n)[None, :], n, axis=0)
        grads = [None] * num_layers
        for layer in range(num_layers - 1, -1, -1):
            if masks[layer] is not None:
                dh = dh * masks[layer]
            dz = dh * act_grad(preactivations[layer])
            grads[layer] = aggregated[layer].T @ dz
            if layer > 0:
                dh = a_hat.T @ (dz @ params[layer].T)
        return [*grads, np.outer(dlogits, embedding), dlogits.copy()]

    a_hats = [normalize(g.adjacency).astype(dtype) for g in graphs]
    onehots = np.eye(num_classes, dtype=dtype)[[g.label for g in graphs]]
    n = len(graphs)
    history = []
    step = 0
    for epoch in range(train_config.epochs):
        if train_config.epochs == 1:
            lr = train_config.lr_init
        else:
            span = train_config.lr_init - train_config.lr_min
            lr = train_config.lr_min + 0.5 * span * (
                1.0 + math.cos(math.pi * epoch / (train_config.epochs - 1)))
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            scale = 1.0 / len(batch)
            total = [np.zeros_like(p) for p in params]
            for idx in batch:
                probs, cache = forward(graphs[idx].features, a_hats[idx])
                label = graphs[idx].label
                loss_sum += -math.log(max(float(probs[label]), 1e-12))
                correct += int(np.argmax(probs) == label)
                sample_grads = backward(a_hats[idx], cache, (probs - onehots[idx]) * scale)
                total = [t + g for t, g in zip(total, sample_grads)]
            params, first, second = naive_adam_step(params, total, first, second, step, lr,
                                                    train_config.weight_decay)
            step += 1
        history.append({"epoch": epoch, "lr": lr, "loss": loss_sum / n,
                        "accuracy": correct / n})
    return params, history


def naive_predict(graphs, params, activation, dtype=np.float64):
    """Per-sample reference for ``predict``: a dense forward pass on the full
    N x N normalized adjacency, with its own mean readout and softmax, one
    fresh array per expression.

    ``params`` is laid out as ``GcnModel.params`` and ``activation`` is the
    (function, derivative) pair to use. Every array is of ``dtype``: the
    parameters, the features and the float64 normalized adjacency are rounded
    to it. Returns (labels, probabilities, embeddings), one row per graph, the
    last two of ``dtype``; ties go to the lowest class index.
    """
    act, _ = activation
    *layer_weights, readout_weight, readout_bias = [np.asarray(p, dtype=dtype) for p in params]
    probs, embeddings = [], []
    for graph in graphs:
        adjacency = np.asarray(graph.adjacency, dtype=float)
        with_loops = adjacency + np.eye(len(adjacency))
        inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
        a_hat = (with_loops * np.outer(inv_sqrt_degree, inv_sqrt_degree)).astype(dtype)
        h = np.asarray(graph.features, dtype=dtype)
        for weight in layer_weights:
            h = act((a_hat @ h) @ weight)
        embedding = h.mean(axis=0)
        logits = readout_weight @ embedding + readout_bias
        exp = np.exp(logits - logits.max())
        probs.append(exp / exp.sum())
        embeddings.append(embedding)
    probs = np.array(probs)
    return probs.argmax(axis=1), probs, np.array(embeddings)
