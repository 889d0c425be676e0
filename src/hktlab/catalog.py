"""Builtin example catalog plus the JSON wire format, loader, and validator.

Wire schema (version "1"): UTF-8 JSON object with keys

    schema_version  "1"
    name            string
    description     string
    n               positive integer, dim = 4n
    dim             integer, 4n, at most 16
    structure_constants  sparse list of [i, j, k, value] with 0-based
                         indices, i != j, value a rational string "p/q"
                         (or "p", or a JSON integer)
    metric          dim x dim dense row-major rationals
    j1, j2, j3      dim x dim dense row-major rationals, column j holds
                    the image of basis vector j; the loaded structure
                    holds them only as sparse matrices
    expected        optional map of expected classifier outcomes

Unknown keys are rejected unless the loader is told to tolerate them.
The matrix fields parse straight into sparse rows, each distinct wire
string once per document, "0" cells unread. The Jacobi identity, the
metric's symmetry, the quaternion relations and J^T g J = g are checked
on the wire. A document whose metric is the identity and whose J's are
signed permutations is already in such a frame, as every builtin and
export is: its structure keeps the wire values and types, its
permutations are derived (and so validated) once, and its relations are
composed on them. Any other is checked on sparse products and rebased,
with sparse arithmetic, to one g-orthonormal frame of quaternionic
blocks (`_quaternionic_frame`), in which every J is a signed permutation
and the metric is the identity. `serialize` writes the identity rows,
and each J's nonzeros into rows of "0"; `save` writes that document with
`exact.json_text`, as `json.dumps(doc, indent=2)` would.
`builtin_catalog` builds the standard structure of each quaternionic
dimension once per call and hands it to the entries of that dimension.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exact import Scalar, format_scalar, four_squares, json_text, parse_scalar
from .hyperhermitian import HyperhermitianStructure, quaternion_relations, quaternionic_check
from .invariant import BracketTable, LieAlgebra, rebase_algebra
from .linalg import Row, SparseMatrix, identity, sparse_apply, sparse_subtract, sparse_transpose
from .tensors import MAX_DIM


class CatalogError(Exception):
    """Input document rejected; the message carries the field path."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    n: int
    dim: int
    lie: LieAlgebra
    structure: HyperhermitianStructure
    expected: dict[str, object]


SCHEMA_VERSION = "1"

_REQUIRED_KEYS = (
    "schema_version",
    "name",
    "description",
    "n",
    "dim",
    "structure_constants",
    "metric",
    "j1",
    "j2",
    "j3",
)
_OPTIONAL_KEYS = ("expected",)


def _require_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CatalogError(f"{path}: expected an integer")
    return value


def _parse_cell(cell: object, memo: dict[str, Scalar], path: str, r: int, c: int) -> Scalar:
    try:
        value = parse_scalar(cell)
    except ValueError as exc:
        raise CatalogError(f"{path}[{r}][{c}]: {exc}") from None
    if type(cell) is str:
        memo[cell] = value
    return value


def _parse_matrix(raw: object, dim: int, path: str, memo: dict[str, Scalar]) -> SparseMatrix:
    """The sparse rows of one matrix field, zeros dropped and "0" cells not
    read. `memo` maps the wire strings already parsed in this document to
    their values, so a row whose cells were all seen is read off it. It
    holds `str` keys only: a JSON `true` equals and hashes like 1, so
    storing int cells would let it in, while no non-str cell can equal a
    str key."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise CatalogError(f"{path}: expected {dim} rows")
    out: SparseMatrix = {}
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise CatalogError(f"{path}[{r}]: expected {dim} entries")
        try:
            parsed = {c: v for c, cell in enumerate(row) if cell != "0" and (v := memo[cell])}
        except (KeyError, TypeError):  # a new string, a non-str or an unhashable cell
            parsed = {
                c: v
                for c, cell in enumerate(row)
                if cell != "0" and (v := _parse_cell(cell, memo, path, r, c))
            }
        if parsed:
            out[r] = parsed
    return out


def _parse_structure_constants(raw: object, dim: int) -> BracketTable:
    if not isinstance(raw, list):
        raise CatalogError("structure_constants: expected a list")
    brackets: BracketTable = {}
    seen: dict[tuple[int, int, int], tuple[Scalar, bool]] = {}  # key -> (value, given as i < j)
    for t, item in enumerate(raw):
        path = f"structure_constants[{t}]"
        if not isinstance(item, list) or len(item) != 4:
            raise CatalogError(f"{path}: expected [i, j, k, value]")
        i = _require_int(item[0], f"{path}[0]")
        j = _require_int(item[1], f"{path}[1]")
        k = _require_int(item[2], f"{path}[2]")
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not 0 <= idx < dim:
                raise CatalogError(f"{path}: index {label}={idx} out of range 0..{dim - 1}")
        if i == j:
            raise CatalogError(f"{path}: repeated lower index i=j={i}")
        try:
            value = parse_scalar(item[3])
        except ValueError as exc:
            raise CatalogError(f"{path}[3]: {exc}") from None
        # canonical storage is i<j; a j>i triple contributes with a sign flip
        key = (i, j, k) if i < j else (j, i, k)
        canon = value if i < j else -value
        if key in seen:
            held, ordered = seen[key]
            if held == canon:
                raise CatalogError(f"{path}: duplicate structure constant at {key}")
            if ordered == (i < j):
                raise CatalogError(f"{path}: conflicting duplicate structure constant at {key}")
            raise CatalogError(f"{path}: antisymmetry violation at {key}")
        seen[key] = canon, i < j
    for (i, j, k), (value, _) in seen.items():
        if value:
            brackets.setdefault((i, j), {})[k] = value
    return brackets


def _document_to_entry(doc: object, source: str, allow_unknown: bool) -> CatalogEntry:
    if not isinstance(doc, dict):
        raise CatalogError(f"{source}: top level must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CatalogError(f'schema_version: expected "{SCHEMA_VERSION}"')
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise CatalogError(f"{key}: missing required field")
    if not allow_unknown:
        known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
        for key in doc:
            if key not in known:
                raise CatalogError(f"{key}: unknown field (pass allow_unknown to accept)")
    name = doc["name"]
    description = doc["description"]
    if not isinstance(name, str) or not name:
        raise CatalogError("name: expected a nonempty string")
    if not isinstance(description, str):
        raise CatalogError("description: expected a string")
    n = _require_int(doc["n"], "n")
    dim = _require_int(doc["dim"], "dim")
    if n < 1 or dim != 4 * n:
        raise CatalogError(f"dim: expected dim = 4n with n >= 1, got n={n}, dim={dim}")
    if dim > MAX_DIM:
        raise CatalogError(f"dim: {dim} exceeds the supported maximum {MAX_DIM}")
    memo: dict[str, Scalar] = {}
    g = _parse_matrix(doc["metric"], dim, "metric", memo)
    js = tuple(_parse_matrix(doc[f"j{s}"], dim, f"j{s}", memo) for s in (1, 2, 3))
    brackets = _parse_structure_constants(doc["structure_constants"], dim)
    expected = doc.get("expected", {})
    if not isinstance(expected, dict):
        raise CatalogError("expected: expected a map")

    lie = LieAlgebra(dim, brackets)
    defect = lie.jacobi_defect
    if defect is not None:
        triple, vec = defect
        written = ", ".join(map(format_scalar, vec))
        raise CatalogError(
            f"structure_constants: Jacobi identity fails at {triple}: defect [{written}]"
        )
    if sparse_transpose(g) != g:
        raise CatalogError("metric: not symmetric")
    structure = None
    with suppress(ValueError):  # a J that is no signed permutation takes the frame walk
        if g == {i: {i: 1} for i in range(dim)}:  # the standard basis: wire values and types stay
            structure = HyperhermitianStructure(dim, js)
    issues = quaternion_relations(structure) if structure else quaternionic_check(js, dim, g)
    relations = [issue for issue in issues if not issue.startswith("metric ")]
    if relations:
        raise CatalogError("quaternion relations: " + "; ".join(relations))
    if issues:  # J^T g J = g fails
        raise CatalogError("metric: " + "; ".join(x.removeprefix("metric ") for x in issues))
    if structure is None:
        frame, inverse, j_frame = _quaternionic_frame(g, js, dim)
        lie = rebase_algebra(lie, frame, inverse)
        structure = HyperhermitianStructure(dim, j_frame)
    return CatalogEntry(name, description, n, dim, lie, structure, dict(expected))


def _quaternionic_frame(
    g: SparseMatrix, js: tuple[SparseMatrix, ...], dim: int
) -> tuple[SparseMatrix, SparseMatrix, tuple[SparseMatrix, ...]]:
    """The rows f_a (old coordinates) of a g-orthonormal frame, its inverse,
    whose rows are g f_a, and J1, J2, J3 in it. Step k projects e_k off the
    frame so far (a J-invariant span) and, unless nothing is left, adds with
    w = g(v, v) and 1/w = a^2 + b^2 + c^2 + d^2 the block u = (a + b J1 +
    c J2 + d J3) v, J1 u, J2 u, J3 u, orthonormal as g is J-invariant. Each
    vector is made positive at its highest nonzero index, and the frame is
    sorted stably by that index: the identity metric with signed-permutation
    J's would get the standard basis, so the loader skips this walk there."""
    j_columns = [sparse_transpose(j) for j in js]  # g is symmetric: its own columns
    frame: list[Row] = []
    lowered: list[Row] = []  # g f_a, so g(e_k, f_a) = lowered[a][k]
    flips: list[int] = []  # frame[a] = flips[a] J_r u for a = 4 i + r
    for k in range(dim):
        v: SparseMatrix = {0: {k: 1}}  # one row
        for f, gf in zip(frame, lowered):
            if k in gf:
                sparse_subtract(v, gf[k], {0: f})
        if not v:
            continue
        gv = sparse_apply(g, v[0])
        w = sum(x * gv.get(i, 0) for i, x in v[0].items())
        if w <= 0:
            raise CatalogError("metric: not positive-definite")
        try:
            coefficients = four_squares(Fraction(1, w))
        except ValueError as exc:
            raise CatalogError(f"metric: weight {format_scalar(w)}: {exc}") from None
        u: SparseMatrix = {}
        for x, image in zip(coefficients, [v[0], *(sparse_apply(jc, v[0]) for jc in j_columns)]):
            sparse_subtract(u, -x, {0: image})
        for f in (u[0], *(sparse_apply(jc, u[0]) for jc in j_columns)):
            flips.append(1 if f[max(f)] > 0 else -1)
            frame.append({i: flips[-1] * x for i, x in f.items()})
            lowered.append(sparse_apply(g, frame[-1]))
    order = sorted(range(dim), key=lambda a: max(frame[a]))
    position = {a: p for p, a in enumerate(order)}
    j_frame = tuple(
        {position[a]: {position[a ^ s]: flips[a ^ s] * signs[a % 4 ^ s] * flips[a]} for a in order}
        for s, signs in enumerate(_BLOCK_SIGNS, 1)
    )
    rows = dict(enumerate(frame[a] for a in order))
    return rows, dict(enumerate(lowered[a] for a in order)), j_frame


def load(path: str | Path, allow_unknown: bool = False) -> CatalogEntry:
    """Parse and fully validate one wire document. Text that does not decode
    or parse is a parse error, a RecursionError on deep nesting included."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CatalogError(f"{path}: parse error: {exc}") from None
    return _document_to_entry(doc, str(path), allow_unknown)


def serialize(entry: CatalogEntry) -> dict[str, object]:
    """Wire document for an entry; rationals become canonical strings."""
    triples = []
    for (i, j), comps in sorted(entry.lie.brackets.items()):
        for k, value in sorted(comps.items()):
            triples.append([i, j, k, format_scalar(value)])
    doc: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "name": entry.name,
        "description": entry.description,
        "n": entry.n,
        "dim": entry.dim,
        "structure_constants": triples,
        "metric": [[format_scalar(x) for x in row] for row in identity(entry.dim)],
    }
    for s, j in enumerate(entry.structure.j_sparse, 1):
        rows = [["0"] * entry.dim for _ in range(entry.dim)]
        for r, row in j.items():
            for c, x in row.items():
                rows[r][c] = format_scalar(x)
        doc[f"j{s}"] = rows
    if entry.expected:
        doc["expected"] = entry.expected
    return doc


def save(entry: CatalogEntry, path: str | Path) -> None:
    Path(path).write_text(json_text(serialize(entry)) + "\n", encoding="utf-8")


# one quaternionic block, column j = image of e_j; right multiplication by
# conjugate unit quaternions on coordinates (x0 + x1 i + x2 j + x3 k)
_J1_BLOCK = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
_J2_BLOCK = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
_J3_BLOCK = ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))
# J_s J_r u = _BLOCK_SIGNS[s - 1][r] J_(r xor s) u for the loader's blocks
# u, J1 u, J2 u, J3 u (J_0 = 1), by J_s^2 = -1, J1 J2 = J3 and J2 J1 = -J3
_BLOCK_SIGNS = ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))


def _block_j(block: tuple[tuple[int, ...], ...], n: int) -> SparseMatrix:
    return {
        4 * b + r: {4 * b + c: x for c, x in enumerate(row) if x}
        for b in range(n)
        for r, row in enumerate(block)
    }


def _standard_structure(n: int) -> HyperhermitianStructure:
    return HyperhermitianStructure(
        4 * n, (_block_j(_J1_BLOCK, n), _block_j(_J2_BLOCK, n), _block_j(_J3_BLOCK, n))
    )


def _entry(
    name: str,
    description: str,
    structure: HyperhermitianStructure,
    brackets: BracketTable,
    expected: dict[str, object],
) -> CatalogEntry:
    dim = structure.dim
    return CatalogEntry(
        name, description, dim // 4, dim, LieAlgebra(dim, brackets), structure, expected
    )


_HOPF_BRACKETS: BracketTable = {(1, 2): {3: 2}, (1, 3): {2: -2}, (2, 3): {1: 2}}

_FLAT_EXPECTED: dict[str, object] = {
    "hkt": True,
    "hyperkahler": True,
    "balanced": True,
    "strong": True,
    "almost_strong": True,
    "d_theta_zero": True,
    "sl_tier": "invariant_SL",
    "hopf_caveat": False,
    "obstruction_verdict": "inconclusive",
    "obata_holonomy_dim": 0,
}

_HOPF_EXPECTED: dict[str, object] = {
    "hkt": True,
    "hyperkahler": False,
    "balanced": False,
    "strong": True,
    "almost_strong": True,
    "d_theta_zero": True,
    "sl_tier": "restricted_SL",
    "hopf_caveat": True,
    "obstruction_verdict": "inconclusive",
    "obata_holonomy_dim": 0,
}


def builtin_catalog() -> list[CatalogEntry]:
    """The shipped examples, already in an orthonormal adapted basis. The
    entries of one quaternionic dimension share the standard structure that
    this call builds; no two calls share one."""
    h1, h2 = _standard_structure(1), _standard_structure(2)
    hopf8_brackets: BracketTable = dict(_HOPF_BRACKETS)
    hopf8_brackets.update({(5, 6): {7: 2}, (5, 7): {6: -2}, (6, 7): {5: 2}})
    return [
        _entry(
            "torus4",
            "abelian algebra in quaternionic dimension one; flat model",
            h1,
            {},
            dict(_FLAT_EXPECTED),
        ),
        _entry(
            "torus8",
            "abelian algebra in quaternionic dimension two; flat model",
            h2,
            {},
            dict(_FLAT_EXPECTED),
        ),
        _entry(
            "hopf4",
            "central extension of su(2) by a line; closed nonvanishing Lee form",
            h1,
            dict(_HOPF_BRACKETS),
            dict(_HOPF_EXPECTED),
        ),
        _entry(
            "hopf8",
            "two commuting copies of the dimension-four Hopf-type algebra",
            h2,
            hopf8_brackets,
            dict(_HOPF_EXPECTED),
        ),
        _entry(
            "nil8",
            "two-step nilpotent algebra with an abelian hypercomplex structure",
            h2,
            {
                (0, 1): {5: 1},
                (0, 2): {6: 1},
                (0, 3): {7: 1},
                (1, 2): {7: 1},
                (1, 3): {6: -1},
                (2, 3): {5: 1},
            },
            {
                "hkt": True,
                "hyperkahler": False,
                "balanced": True,
                "strong": False,
                "almost_strong": False,
                "d_theta_zero": True,
                "sl_tier": "invariant_SL",
                "hopf_caveat": False,
                "obstruction_verdict": "inconclusive",
                "obata_holonomy_dim": 0,
            },
        ),
        _entry(
            "hc_only8",
            "solvable algebra whose hypercomplex structure admits no common"
            " skew-torsion connection for the flat metric",
            h2,
            {(0, 4): {4: 1}, (0, 5): {5: 1}, (0, 6): {6: 1}, (0, 7): {7: 1}},
            {
                "hkt": False,
                "sl_tier": "not_applicable",
                "hopf_caveat": False,
                "obstruction_verdict": "inconclusive",
                "obata_holonomy_dim": 0,
            },
        ),
    ]


def builtin_by_name() -> dict[str, CatalogEntry]:
    return {entry.name: entry for entry in builtin_catalog()}


def available_entries() -> dict[str, CatalogEntry]:
    """Builtins plus any *.json entries from HKTLAB_CATALOG_DIR. A file the
    loader rejects is skipped with a warning on stderr naming it."""
    entries = builtin_by_name()
    extra_dir = os.environ.get("HKTLAB_CATALOG_DIR")
    if extra_dir:
        for path in sorted(Path(extra_dir).glob("*.json")):
            try:
                entry = load(path)
            except CatalogError as exc:
                print(f"warning: skipping {path}: {exc}", file=sys.stderr)
                continue
            entries[entry.name] = entry
    return entries
