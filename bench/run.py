"""Benchmark of the facegraph CLI: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's dataset (and, for eval-images, its
checkpoint) before timing starts; the CLI only ever sees the generated files.
A child process (bench/worker.py) then runs the workload's CLI command in a
closed loop with one client for S seconds. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced commands and
prints the per-layer metrics. Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record also
goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

SETUP_PROBES = 5
# One BLAS thread. A second OpenBLAS thread spins on the other core (1.9
# CPU-seconds per wall second on train-synth12, for the same wall time) and
# widens the spread between commands; it would also be a thread pool beside
# the closed loop's one client.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170  # the whole run, set-up included, ends well inside 180 s

# Each workload puts a different layer on top. The model flags of the sweep
# (elu, lr 0.01, batch 8) make three epochs learn at N=68, so its accuracy is
# steady across seeds; with the defaults it sits near chance after 3 epochs.
WORKLOADS = {
    "train-synth12": {
        "synth": ["--classes", "6", "--per-class", "40", "--landmarks", "12",
                  "--feature-dim", "16"],
        "command": ["train", "--epochs", "20"],
        "check": "train",
    },
    "sweep-face68": {
        "synth": ["--classes", "6", "--per-class", "20", "--landmarks", "68",
                  "--feature-dim", "64"],
        "command": ["sweep", "--param", "tau", "--grid", "0.30,0.50,0.70",
                    "--epochs", "3", "--batch-size", "8", "--lr", "0.01",
                    "--activation", "elu"],
        "check": "sweep",
    },
    "eval-images": {
        "synth": ["--classes", "6", "--per-class", "6", "--landmarks", "68",
                  "--with-images"],
        "checkpoint": ["train", "--epochs", "60", "--batch-size", "4", "--lr", "0.003"],
        "command": ["eval"],
        "check": "eval",
    },
}

# ROADMAP item-1 seed baselines: label -> (per-command value, baseline per workload).
BASELINES = {
    "build_graph_ms_per_graph": (
        lambda row: 1e3 * row["graphs.build_graph_s"] / row["graphs.build_graph_calls"],
        {"train-synth12": 0.33, "sweep-face68": 10.0, "eval-images": 10.0}),
    "train_ms_per_sample_step": (
        lambda row: 1e3 * row["gcn.train_s"] / row["gcn.train_steps"],
        {"train-synth12": 0.5, "sweep-face68": 1.75}),
    "checkpoint_write_s": (
        lambda row: row["gcn.save_checkpoint_s"] / row["gcn.save_checkpoint_calls"],
        {"train-synth12": 0.34, "sweep-face68": 0.34}),
}
IMPORT_BASELINE_S = 0.39
BASELINE_TOLERANCE = 0.10  # least relative disagreement reported


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion within the run's time limit; returns its stdout."""
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:4])}") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def with_overrides(args: list[str], overrides: dict) -> list[str]:
    """Replace the value after each flag named in ``overrides``."""
    out = list(args)
    for i, token in enumerate(out[:-1]):
        if token in overrides:
            out[i + 1] = overrides[token]
    return out


def prepare(name: str, seed: int, work: Path, overrides: dict, deadline: float):
    """Generate the workload's input files; returns the timed command's argv."""
    workload = WORKLOADS[name]
    cli = [sys.executable, "-m", "facegraph.cli"]
    dataset = work / "dataset"
    run_child(cli + ["synth", *with_overrides(workload["synth"], overrides),
                     "--seed", str(seed), "--out-dir", str(dataset)], deadline)
    inputs = ["--dataset", str(dataset), "--seed", str(seed)]
    if "checkpoint" in workload:
        trained = work / "checkpoint"
        run_child(cli + [*with_overrides(workload["checkpoint"], overrides), *inputs,
                         "--out-dir", str(trained)], deadline)
        inputs += ["--checkpoint", str(trained / "checkpoint.json")]
    return [*with_overrides(workload["command"], overrides), *inputs,
            "--out-dir", str(work / "out")]


def setup_seconds(probes: int, deadline: float) -> list[float]:
    """Import time of facegraph.cli in fresh interpreters, one per probe."""
    code = ("import time; t = time.perf_counter(); import facegraph.cli; "
            "print(time.perf_counter() - t)")
    return [float(run_child([sys.executable, "-c", code], deadline))
            for _ in range(probes)]


def spread(values: list[float]) -> float:
    """Range over median: the run-to-run spread of a handful of samples."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def baseline_checks(name: str, rows: list[dict], setup: list[float]) -> list[dict]:
    """Compare traced per-unit costs with the ROADMAP item-1 seed baselines."""
    series = {"import_s": (setup, IMPORT_BASELINE_S)}
    for label, (value, baselines) in BASELINES.items():
        if name in baselines:
            series[label] = ([value(row) for row in rows], baselines[name])
    checks = []
    for label, (values, baseline) in series.items():
        measured = statistics.median(values)
        tolerance = max(spread(values), BASELINE_TOLERANCE)
        ratio = measured / baseline
        checks.append({"name": label, "measured": measured, "baseline": baseline,
                       "ratio": ratio, "tolerance": tolerance,
                       "agrees": abs(ratio - 1.0) <= tolerance})
    return checks


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "facegraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(name: str, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the full record (metrics, samples, environment)."""
    if not (SRC / "facegraph" / "cli.py").is_file():
        raise BenchError(f"no facegraph sources under {SRC}")
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        argv = prepare(name, seed, work, overrides or {}, deadline)
        setup = setup_seconds(probes, deadline)
        spec = {"src": str(SRC), "argv": argv, "out_dir": str(work / "out"),
                "check": WORKLOADS[name]["check"], "seconds": seconds, "trace": trace}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        run_child([sys.executable, str(BENCH / "worker.py"), str(work / "spec.json"),
                   str(work / "result.json")], deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = result["untraced_s"]
    values = {
        "command_s": statistics.median(untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "test_acc": statistics.median(result["test_acc"]) if result["test_acc"] else 0.0,
    }
    rows = result["layers"]
    checks = []
    if trace:
        for key in rows[0]:
            values[key] = statistics.median(row[key] for row in rows)
        values["trace_overhead_s"] = statistics.median(result["traced_s"]) - values["command_s"]
        checks = baseline_checks(name, rows, setup)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "argv": ["facegraph", *argv],
        "values": values,
        "samples": {"command_s": untraced, "traced_command_s": result["traced_s"],
                    "setup_s": setup, "test_acc": result["test_acc"]},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "baseline_checks": checks,
        "environment": {**result["environment"], **source_identity()},
    }


def result_line(record: dict, metric_specs: list[dict]) -> dict:
    """The contract's last line: correctness, counts and the named metrics."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


def report(record: dict) -> None:
    samples = record["samples"]["command_s"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"closed loop, 1 client, {len(samples)} untraced commands in the "
          f"{record['seconds']} s window")
    print(f"command_s median {statistics.median(samples):.4f} s of n={len(samples)} "
          f"(min {min(samples):.4f}, max {max(samples):.4f})")
    print(f"error_rate {record['error_rate']:.4f} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for check in record["baseline_checks"]:
        verdict = "agrees" if check["agrees"] else "DISAGREES"
        print(f"baseline {check['name']}: {check['measured']:.4g} vs {check['baseline']:.4g} "
              f"(x{check['ratio']:.2f}, tolerance {check['tolerance']:.0%}) {verdict}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    target = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record)
    print(f"record {target.relative_to(ROOT)}")
    specs = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    print(json.dumps(result_line(record, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
