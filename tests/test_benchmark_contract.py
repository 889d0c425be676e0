"""The names the benchmark's per-layer metrics refer to.

The traced benchmark run wraps the package's public functions and reads
their spans by `module.function` name; a name it cannot find stops the run.
These tests read BENCHMARK.json and fail when such a name is renamed, moved
or made private, when the curvature tensor stops being the nested lists
the benchmark's curvature probe iterates, and when the holonomy closure
stops growing its span through the public `RowSpan.add` that the
benchmark's `linalg.RowSpan.add` probes count.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from hktlab.holonomy import holonomy_algebra
from hktlab.invariant import curvature_operators, curvature_tensor, levi_civita
from hktlab.linalg import RowSpan

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TIMED_SUFFIXES = (".calls", ".s", ".self_s")


def timed_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = set()
    for metric in spec["per_layer"]:
        for suffix in TIMED_SUFFIXES:
            if metric["name"].endswith(suffix):
                names.add(metric["name"][: -len(suffix)])
    return sorted(names)


@pytest.mark.parametrize("name", timed_names())
def test_per_layer_name_is_a_public_function(name):
    if name == "linalg.RowSpan.add":
        assert inspect.isfunction(RowSpan.add)
        return
    module_name, function_name = name.split(".")
    module = importlib.import_module(f"hktlab.{module_name}")
    function = getattr(module, function_name, None)
    assert not function_name.startswith("_"), name
    assert inspect.isfunction(function), name
    assert function.__module__ == module.__name__, name


def test_curvature_tensor_is_nested_lists(catalog):
    for entry in catalog.values():
        r = curvature_tensor(levi_civita(entry.lie), entry.lie)
        level = [r]
        for _ in range(4):
            assert all(isinstance(x, list) and len(x) == entry.dim for x in level), entry.name
            level = [y for x in level for y in x]
        assert not any(isinstance(x, list) for x in level), entry.name


def test_holonomy_closure_grows_span_through_rowspan_add(catalog, monkeypatch):
    calls = []
    add = RowSpan.add

    def counted_add(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(RowSpan, "add", counted_add)
    alg = catalog["nil8"].lie
    lc = levi_civita(alg)
    holonomy_algebra(lc, curvature_operators(lc, alg))
    assert calls
