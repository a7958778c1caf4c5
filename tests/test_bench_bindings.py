"""The benchmark's traced bindings still exist.

``bench/worker.py`` times a command by wrapping the functions listed in its
``TRACED`` table, each at the module attribute its caller looks up. It skips
an entry whose attribute is gone, so a rename or a dropped import would let
that stage's metrics read 0 without an error. These tests fail instead.

``bench/run.py`` also divides by counts the worker takes from those spans:
``gcn.train_steps`` is the number of ``gcn.forward`` spans under ``gcn.train``.
So ``train`` must keep calling the module-level ``forward`` and ``backward``
once per sample and step. It calls ``normalize_adjacency`` once per training
sample per call and passes each result to ``forward`` as ``norm_adj``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import facegraph.gcn as gcn
from facegraph import (
    GcnConfig,
    SyntheticSpec,
    TrainConfig,
    dataset_graphs,
    generate_synthetic,
)

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.TRACED


TRACED = traced_table()


def test_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize("module_name, attr, span_name", TRACED,
                         ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_binding_resolves_to_the_named_function(module_name, attr, span_name):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name} has no callable {attr!r}"
    # the span name is '<owning module>.<function>' within the package
    assert f"{fn.__module__}.{fn.__name__}" == f"facegraph.{span_name}"


def test_train_runs_the_traced_steps_once_per_sample_step(monkeypatch):
    calls = {"forward": 0, "backward": 0, "normalize_adjacency": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(gcn, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gcn, name, counted)
    spec = SyntheticSpec(num_classes=2, samples_per_class=5, landmark_count=6,
                         feature_dim=4)
    graphs = dataset_graphs(generate_synthetic(spec), 0.5)
    gcn.train(graphs, GcnConfig(in_dim=4, num_classes=2, hidden_dim=4),
              TrainConfig(epochs=2, batch_size=4))
    assert calls == {"forward": 2 * 10, "backward": 2 * 10, "normalize_adjacency": 10}
