"""The benchmark's traced bindings still exist.

``bench/worker.py`` times a command by wrapping the functions listed in its
``TRACED`` table, each at the module attribute its caller looks up. It skips
an entry whose attribute is gone, so a rename or a dropped import would let
that stage's metrics read 0 without an error. These tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
