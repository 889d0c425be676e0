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
"""

import ast
import json
from collections import defaultdict
from pathlib import Path

import hktlab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hktlab").glob("*.py"))

KEPT = {
    "leading_minors_positive": "the positive-definiteness witness of the HKT-metric cone"
    " (ROADMAP direction 3)",
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
