"""Every public module-level function of the package has a reader.

A public function (no leading underscore) defined at the top level of
`src/hktlab/*.py` must meet one of these:

- package code outside its own definition names it (an `ast.Name` load),
  in its own module or in another module that imports it from the
  package (so a local variable of the same name reads nothing);
- it is exported in `hktlab.__all__`;
- BENCHMARK.json names it as a per-layer metric (`module.function.*`);
- it is listed in KEPT, with the reason it stays.

A function that meets none of them is called by nothing in the package:
move it next to the tests that use it (`tests/oracle_impl.py`) or delete
it.

Every name a package module imports (apart from `__future__` features) is
read in that module; `__init__.py` is exempt, since it imports to export.

No module defines both `f` and a private twin `_f` at the top level: an
object has one builder, and the public one is the one the package calls.

No package module imports a `_`-prefixed name from another package
module: a module reads another through its public functions, such as the
stages of `analyze.Stages`, not through its helpers.

Only the modules in TYPE_TESTING may test a scalar's Python type
(`isinstance(..., Fraction)`, `type(...) is int`): the engine computes
values, and the report decides how a rational is written.

Only the modules in DENSE_MATRIX may import the dense `linalg.Matrix`:
every other endomorphism and bilinear form is a `linalg.SparseMatrix`.

The connections, difference tensors, curvature operators and holonomy
generators that the analysis and `hktlab holonomy` build hold int entries
over an int scale, and the closure keeps no rescaling helper: a Fraction
is built only where a value leaves one of them.
"""

import ast
import json
from collections import defaultdict
from pathlib import Path

import pytest

import hktlab
from hktlab import cli, holonomy
from hktlab.analyze import analyze_entry

from oracle_impl import direct_sum_entry

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hktlab").glob("*.py"))

# the wire format, RowSpan's int fast path and the report boundary
TYPE_TESTING = {"exact", "linalg", "analyze"}

# the linear algebra; the loader parses the wire's rows straight into sparse ones
DENSE_MATRIX = {"linalg"}

KEPT = {
    "nullspace": "the subspace of invariant HKT metrics under the HKT-metric cone"
    " (ROADMAP direction 4) and the integrable brackets of the seeded input generator",
}


def _package_names(tree: ast.Module, module: str) -> dict[str, tuple[str, str]]:
    """Local name -> (defining module, name) for the module's own top-level
    definitions and for every name it imports from the package."""
    names = {
        node.name: (module, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level or node.module.startswith("hktlab.")
        ):
            source = node.module.rsplit(".", 1)[-1]
            for alias in node.names:
                names[alias.asname or alias.name] = (source, alias.name)
    return names


def _readers() -> dict[tuple[str, str], set[tuple[str, str | None]]]:
    """(defining module, name) -> the (module, top-level definition or None)
    places that load it."""
    readers = defaultdict(set)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _package_names(tree, path.stem)
        for node in tree.body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in names
                ):
                    readers[names[sub.id]].add((path.stem, owner))
    return readers


def _public_functions() -> list[tuple[str, str]]:
    return [
        (path.stem, node.name)
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _benchmarked() -> set[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {tuple(metric["name"].split(".")[:2]) for metric in spec["per_layer"]}


def _covered(module: str, name: str, readers, benchmarked) -> bool:
    return (
        bool(readers.get((module, name), set()) - {(module, name)})
        or name in hktlab.__all__
        or (module, name) in benchmarked
    )


def test_every_public_function_has_a_reader():
    readers, benchmarked = _readers(), _benchmarked()
    unread = [
        f"{module}.{name}"
        for module, name in _public_functions()
        if name not in KEPT and not _covered(module, name, readers, benchmarked)
    ]
    assert unread == []


def test_kept_functions_need_keeping():
    readers, benchmarked = _readers(), _benchmarked()
    public = {name: module for module, name in _public_functions()}
    for name in KEPT:
        assert name in public, name
        assert not _covered(public[name], name, readers, benchmarked), name


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names the module imports (not `__future__` features) that no
    `ast.Name` in it loads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    loaded = {
        sub.id
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }
    return sorted(imported - loaded)


def test_every_import_is_read():
    found = [
        f"{path.stem}.{name}"
        for path in SOURCES
        if path.stem != "__init__"
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "code, unread",
    [
        ("from .tensors import cube_add, cube_scale\ncube_add({}, {})", ["cube_scale"]),
        ("import json\njson.loads('1')", []),
        ("import os.path\nos.path.join", []),
        ("from fractions import Fraction as F\nx: F", []),
        ("from __future__ import annotations", []),
        ("import sys", ["sys"]),
    ],
)
def test_unread_imports_are_found(code, unread):
    assert _unread_imports(ast.parse(code)) == unread


def _private_twins(tree: ast.Module) -> list[str]:
    """The top-level functions `f` of the module that sit beside a
    top-level function `_f`."""
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return sorted(name for name in defined if f"_{name}" in defined)


def test_no_private_twin():
    found = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _private_twins(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "code, twins",
    [
        ("def f(x): ...\ndef _f(x, n): ...", ["f"]),
        ("def _f(): ...\ndef f(): ...\ndef g(): ...", ["f"]),
        ("def f(): ...\ndef _g(): ...", []),
        ("def f(): ...\nclass C:\n    def _f(self): ...", []),  # a method is not top level
        ("def f():\n    def _f(): ...", []),
    ],
)
def test_private_twins_are_found(code, twins):
    assert _private_twins(ast.parse(code)) == twins


def _private_imports(tree: ast.Module) -> list[str]:
    """The `_`-prefixed names the module imports from the package."""
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module == "hktlab" or node.module.startswith("hktlab."))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_no_private_import():
    found = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "code, names",
    [
        ("from .obata import _verified, obata_connection", ["_verified"]),
        ("from hktlab.analyze import _record as record", ["_record"]),
        ("from hktlab import _x", ["_x"]),
        ("from . import _x", ["_x"]),
        ("def f():\n    from .analyze import _jsonify", ["_jsonify"]),
        ("from .analyze import Stages, holonomy_closure", []),
        ("from json import _default_decoder", []),  # not a package module
        ("from hktlabx import _x", []),
        ("from __future__ import annotations", []),
    ],
)
def test_private_imports_are_found(code, names):
    assert _private_imports(ast.parse(code)) == names


def _names(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _is_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _scalar_type_tests(tree: ast.AST) -> list[int]:
    """Lines of `isinstance(..., Fraction)` and of `type(...)` compared with
    int or Fraction."""
    lines = []
    for node in ast.walk(tree):
        if _is_call(node, "isinstance") and len(node.args) == 2:
            if "Fraction" in _names(node.args[1]):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            others = [x for x in operands if not _is_call(x, "type")]
            if len(others) < len(operands) and {"int", "Fraction"} & set().union(*map(_names, others)):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_report_boundary_tests_a_scalar_type():
    found = [
        f"{path.stem}.py:{line}"
        for path in SOURCES
        if path.stem not in TYPE_TESTING
        for line in _scalar_type_tests(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "code, hits",
    [
        ("isinstance(v, Fraction)", [1]),
        ("isinstance(v, (int, fractions.Fraction))", [1]),
        ("type(v) is int", [1]),
        ("Fraction != type(v)", [1]),
        ("isinstance(v, int)", []),  # a JSON field's kind, not a scalar's
        ("type(cell) is str", []),
    ],
)
def test_scalar_type_tests_are_found(code, hits):
    assert _scalar_type_tests(ast.parse(code)) == hits


def test_dense_matrix_stays_at_the_boundary():
    found = []
    for path in SOURCES:
        names = _package_names(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if path.stem not in DENSE_MATRIX and ("linalg", "Matrix") in names.values():
            found.append(path.stem)
    assert found == []


def _leaves(x):
    """Every value inside nested dicts and tuples."""
    if isinstance(x, (dict, tuple)):
        for y in x.values() if isinstance(x, dict) else x:
            yield from _leaves(y)
    else:
        yield x


def _holds_zero(x) -> bool:
    """Whether x is a zero, or nested dicts below x hold an empty dict or a zero."""
    if isinstance(x, dict):
        return not x or any(_holds_zero(y) for y in x.values())
    return not x


def _int_entries(obj) -> list[object]:
    """The entries and scales an integer-scaled object holds."""
    if hasattr(obj, "gamma"):  # invariant.Connection
        return [*_leaves(obj.gamma), *_leaves(obj.operators), obj.scale]
    if hasattr(obj, "entries"):  # tensors.Scaled: a difference tensor or a curvature
        return [*_leaves(obj.entries), obj.scale]
    return [*_leaves(obj.generators), *obj.scales]  # holonomy.HolonomyAlgebra


def test_engine_builds_only_integer_scaled_objects(catalog, su3, su3_path, tmp_path, monkeypatch):
    assert not hasattr(holonomy, "_integer_scaled")
    from hktlab.holonomy import HolonomyAlgebra
    from hktlab.invariant import Connection
    from hktlab.tensors import Scaled

    built = []
    for cls in (Connection, Scaled, HolonomyAlgebra):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    sums = [
        direct_sum_entry(catalog[first], second, tmp_path)
        for first, second in (
            ("nil8", catalog["hopf4"]), ("hc_only8", catalog["torus4"]), ("hc_only8", su3)
        )
    ]
    paths = [tmp_path / f"{entry.name}.json" for entry in sums] + [su3_path]
    for entry in [*catalog.values(), su3, *sums]:
        analyze_entry(entry)
    for path in paths:
        for connection in ("levicivita", "bismut", "obata"):
            cli.main(["holonomy", str(path), "--connection", connection])
    # connections, difference tensors and curvatures (both `Scaled`), holonomy algebras
    assert {type(obj).__name__ for obj in built} == {"Connection", "Scaled", "HolonomyAlgebra"}
    keys = [next(iter(obj.entries)) for obj in built if getattr(obj, "entries", None)]
    # curvatures {(i, j): R} and cubes {(i, j, k): A} among them
    assert {len(key) for key in keys if isinstance(key, tuple)} == {2, 3}
    found = [(type(obj).__name__, x) for obj in built for x in _int_entries(obj) if type(x) is not int]
    assert found == []
    # no zero is stored: a flat curvature or a zero difference tensor is {}
    stored_zero = [
        (key, value)
        for obj in built
        if type(obj).__name__ == "Scaled"
        for key, value in obj.entries.items()
        if _holds_zero(value)
    ]
    assert stored_zero == []
