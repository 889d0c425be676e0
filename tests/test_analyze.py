"""Each object of the analysis pipeline is computed once: call counts of
the expensive builders during one analysis or one CLI call."""

import importlib
import pkgutil
from collections import Counter

import pytest

import hktlab
from hktlab import cli
from hktlab.analyze import analyze_entry
from hktlab.catalog import builtin_by_name

MODULES = [hktlab] + [
    importlib.import_module(f"hktlab.{info.name}")
    for info in pkgutil.iter_modules(hktlab.__path__)
]

COUNTED = (
    "nijenhuis",
    "levi_civita",
    "bismut_connection",
    "difference_tensor",
    "obata_oracle_solver",
    "commutant_basis",
    "rref",
)


@pytest.fixture()
def calls(monkeypatch):
    """Counts calls of COUNTED through every module namespace that binds them."""
    counts = Counter()
    for module in MODULES:
        for name in COUNTED:
            original = vars(module).get(name)
            if original is None:
                continue

            def counted(*args, _fn=original, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_hkt_analysis_builds_each_object_once(calls, cat):
    analyze_entry(cat["hopf8"])
    assert calls["nijenhuis"] == 3
    assert calls["bismut_connection"] <= 1
    assert calls["difference_tensor"] == 1
    assert calls["levi_civita"] <= 2
    assert calls["obata_oracle_solver"] == 1


def test_non_hkt_analysis_skips_levi_civita(calls, cat):
    analyze_entry(cat["hc_only8"])
    assert calls["nijenhuis"] == 3
    assert calls["levi_civita"] == 0
    assert calls["obata_oracle_solver"] == 1


def test_holonomy_obata_uses_difference_route(calls, capsys):
    assert cli.main(["holonomy", "--builtin", "nil8", "--connection", "obata"]) == 0
    assert "connection: obata" in capsys.readouterr().out
    assert calls["nijenhuis"] == 3
    assert calls["obata_oracle_solver"] == 0


@pytest.mark.parametrize("name", ["hopf8", "hc_only8"])
def test_solver_stays_off_dense_rref(calls, cat, name):
    analyze_entry(cat[name])
    assert calls["commutant_basis"] == 1
    assert calls["rref"] == 0
