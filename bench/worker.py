"""Child process of the benchmark: runs one workload's CLI command in a closed loop.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC names the command line, the output checks, the measurement window and
whether to trace. The worker imports ``facegraph.cli``, runs the command once
to warm caches and to take the reference outputs, then runs it back to back
(one client; each command starts after the previous one ends) until the
window closes. In trace mode untraced and traced commands alternate, so the
tracing overhead is measured against neighbouring untraced commands.

Tracing wraps the package's public functions from this file, at the name each
caller looks up (modules bind imported names, so ``facegraph.cli.train`` and
``facegraph.gcn.train`` are different bindings), and records a span (name,
start, end, parent) around every call. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

# (module the caller looks the name up in, attribute, span name). The span
# name's prefix is the layer that owns the function.
TRACED = [
    ("facegraph.cli", "load_dataset", "data.load_dataset"),
    ("facegraph.cli", "dataset_graphs", "data.dataset_graphs"),
    ("facegraph.cli", "train", "gcn.train"),
    ("facegraph.cli", "evaluate", "gcn.evaluate"),
    ("facegraph.cli", "save_checkpoint", "gcn.save_checkpoint"),
    ("facegraph.cli", "load_checkpoint", "gcn.load_checkpoint"),
    ("facegraph.cli", "format_report", "metrics.format_report"),
    ("facegraph.data", "read_pgm", "features.read_pgm"),
    ("facegraph.data", "features_for_sample", "features.features_for_sample"),
    ("facegraph.data", "build_graph", "graphs.build_graph"),
    ("facegraph.graphs", "l2_normalize_rows", "graphs.l2_normalize_rows"),
    ("facegraph.graphs", "raw_adjacency", "graphs.raw_adjacency"),
    ("facegraph.graphs", "threshold_stats", "graphs.threshold_stats"),
    ("facegraph.graphs", "binarize", "graphs.binarize"),
    ("facegraph.gcn", "normalize_adjacency", "gcn.normalize_adjacency"),
    ("facegraph.gcn", "forward", "gcn.forward"),
    ("facegraph.gcn", "backward", "gcn.backward"),
    ("facegraph.gcn", "adam_step", "gcn.adam_step"),
    ("facegraph.gcn", "confusion", "metrics.confusion"),
    ("facegraph.gcn", "compute_metrics", "metrics.compute_metrics"),
]
LAYERS = ("cli", "data", "features", "graphs", "gcn", "metrics")
ROOT_SPAN = "cli.main"
COUNTED = {"features.features_for_sample", "gcn.save_checkpoint", "graphs.raw_adjacency"}


class Tracer:
    """Spans and counts of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.raw_adjacency_inputs: set[str] = set()

    def wrap(self, name, fn):
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if signature is not None:
                self._count(name, signature.bind(*args, **kwargs).arguments)
            return result
        return traced

    def _count(self, name, arguments):
        # Counted after the span closes: the cost lands in the parent span only.
        if name == "features.features_for_sample":
            self.counts["patches"] += len(arguments["landmarks"])
        elif name == "gcn.save_checkpoint":
            self.counts["checkpoint_bytes"] += os.path.getsize(arguments["path"])
        else:  # graphs.raw_adjacency: one key per distinct (features, points) input
            digest = hashlib.sha1()
            for array in arguments.values():
                digest.update(np.ascontiguousarray(array).tobytes())
            self.raw_adjacency_inputs.add(digest.hexdigest())

    def install(self):
        """Swap every traced binding for its wrapper; returns the undo list.

        A binding the package no longer has is skipped, and its metrics read 0.
        """
        originals = []
        for module_name, attr, span_name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn))
        return originals

    def summary(self) -> dict:
        """Per-command layer metrics from the recorded spans."""
        total = Counter()
        calls = Counter()
        self_time = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        train_steps = 0
        train_index = {i for i, s in enumerate(self.spans) if s[0] == "gcn.train"}
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            if name == "gcn.forward" and parent in train_index:
                train_steps += 1
        metrics = {
            "graphs.build_graph_s": total["graphs.build_graph"],
            "graphs.raw_adjacency_s": total["graphs.raw_adjacency"],
            "graphs.threshold_stats_s": total["graphs.threshold_stats"],
            "graphs.binarize_s": total["graphs.binarize"],
            "graphs.l2_normalize_rows_s": total["graphs.l2_normalize_rows"],
            "graphs.build_graph_calls": calls["graphs.build_graph"],
            "graphs.raw_adjacency_per_sample": (
                calls["graphs.raw_adjacency"] / len(self.raw_adjacency_inputs)
                if self.raw_adjacency_inputs else 0.0),
            "features.read_pgm_s": total["features.read_pgm"],
            "features.features_for_sample_s": total["features.features_for_sample"],
            "features.patches": self.counts["patches"],
            "gcn.train_s": total["gcn.train"],
            "gcn.train_self_s": self_time["gcn.train"],
            "gcn.train_steps": train_steps,
            "gcn.forward_s": total["gcn.forward"],
            "gcn.forward_calls": calls["gcn.forward"],
            "gcn.backward_s": total["gcn.backward"],
            "gcn.adam_step_s": total["gcn.adam_step"],
            "gcn.adam_steps": calls["gcn.adam_step"],
            "gcn.normalize_adjacency_s": total["gcn.normalize_adjacency"],
            "gcn.save_checkpoint_s": total["gcn.save_checkpoint"],
            "gcn.save_checkpoint_calls": calls["gcn.save_checkpoint"],
            "gcn.checkpoint_bytes": self.counts["checkpoint_bytes"],
            "gcn.load_checkpoint_s": total["gcn.load_checkpoint"],
            "gcn.evaluate_s": total["gcn.evaluate"],
            "data.load_dataset_s": total["data.load_dataset"],
            "data.dataset_graphs_self_s": self_time["data.dataset_graphs"],
            "metrics.compute_metrics_s": total["metrics.compute_metrics"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                t for name, t in self_time.items() if name.split(".")[0] == layer)
        return metrics


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(kind: str, out_dir: Path, reference: dict | None):
    """Check one command's outputs; returns (problems, fingerprint, test_acc)."""
    problems = []
    if kind == "train":
        fingerprint = {name: _file_digest(out_dir / name)
                       for name in ("history.csv", "checkpoint.json")}
        test_acc = json.loads((out_dir / "metrics.json").read_text())["accuracy"]
        if test_acc < 0.90:
            problems.append(f"test_acc {test_acc:.4f} below the 0.90 gate")
    elif kind == "sweep":
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        for row in body:
            if len(row) != len(header):
                problems.append(f"sweep row has {len(row)} fields, header {len(header)}")
            elif row[header.index("status")] != "ok":
                problems.append(f"sweep row status {row[header.index('status')]!r}")
        param = header[0]
        accuracies = [json.loads((out_dir / f"point_{param}_{row[0]}" / "metrics.json")
                                 .read_text())["accuracy"] for row in body]
        test_acc = statistics.fmean(accuracies)
        fingerprint = None
    else:  # eval
        fingerprint = {"metrics.json": _file_digest(out_dir / "metrics.json")}
        test_acc = json.loads((out_dir / "metrics.json").read_text())["accuracy"]
    if reference is not None and fingerprint is not None:
        for name, digest in fingerprint.items():
            if reference[name] != digest:
                problems.append(f"{name} differs from the first run")
    return problems, fingerprint, test_acc


def run_command(main, argv: list[str], out_dir: Path):
    """One CLI command in-process; returns (seconds, exit code or error text)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except Exception:  # a traceback is a failed operation, not an abort
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    return time.perf_counter() - start, code


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k) is not None},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    cli = importlib.import_module("facegraph.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"facegraph imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    argv = spec["argv"]
    out_dir = Path(spec["out_dir"])
    kind = spec["check"]
    problems: list[str] = []
    test_accs: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict] = []
    reference = None
    attempted = failed = 0

    def attempt(main_fn) -> float:
        """Run and check one command; a failure is counted, never raised."""
        nonlocal reference, attempted, failed
        attempted += 1
        seconds, code = run_command(main_fn, argv, out_dir)
        found = [f"exit {code}"] if code != 0 else []
        if not found:
            try:
                found, fingerprint, test_acc = check_outputs(kind, out_dir, reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
            else:
                reference = reference or fingerprint
                test_accs.append(test_acc)
        if found:
            failed += 1
            problems.extend(found)
        return seconds

    attempt(cli.main)  # warm-up: fills caches and takes the reference outputs
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        untraced.append(attempt(cli.main))
        if spec["trace"]:
            tracer = Tracer()
            originals = tracer.install()
            try:
                traced.append(attempt(tracer.wrap(ROOT_SPAN, cli.main)))
            finally:
                for module, attr, fn in originals:
                    setattr(module, attr, fn)
            layer_rows.append(tracer.summary())
        if time.perf_counter() >= deadline:
            break

    result = {
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layer_rows,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "test_acc": test_accs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
