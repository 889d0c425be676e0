from pathlib import Path

import pytest

from hktlab.analyze import analyze_entry
from hktlab.catalog import CatalogEntry, builtin_by_name, load
from hktlab.hyperhermitian import hkt_check
from hktlab.tensors import KForm


@pytest.fixture(scope="session")
def catalog() -> dict[str, CatalogEntry]:
    return builtin_by_name()


@pytest.fixture(scope="session")
def su3_path() -> Path:
    """su(3) with Joyce's hypercomplex structure: HKT, with a non-flat Obata
    connection whose holonomy is all of gl(2, H). The shipped example
    input examples/su3.json, not a builtin."""
    return Path(__file__).parent.parent / "examples" / "su3.json"


@pytest.fixture(scope="session")
def su3(su3_path) -> CatalogEntry:
    return load(su3_path)


@pytest.fixture(scope="session")
def analyses(catalog) -> dict[str, dict]:
    return {name: analyze_entry(entry) for name, entry in catalog.items()}


@pytest.fixture(scope="session")
def torsions(catalog) -> dict[str, KForm]:
    out: dict[str, KForm] = {}
    for name, entry in catalog.items():
        res = hkt_check(entry.structure, entry.lie)
        if res.ok:
            out[name] = res.torsion
    return out
