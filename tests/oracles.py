"""Independent reference implementations the tests check production code against.

These are written as plain per-entry loops with no mirroring, no vectorized
statistics and no shared code with the package. They intentionally use the
same elementary primitives (np.dot for inner products, math.sqrt / math.exp
for scalars) so that agreement can be asserted bit for bit where the package
promises it.
"""

import math
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
