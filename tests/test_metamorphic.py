"""Reports that must not change under a change of frame.

A Cayley rotation (`oracle_impl.cayley_rotated`) moves an entry to another
rational orthonormal basis, in which J1 is no signed permutation of the
basis vectors. Saved and loaded back, the entry gets the loader's frame of
quaternionic blocks, in which every J is a signed permutation again, and
the verdict and every frame-independent number of the report stay those
of the unrotated entry.

A metric c I, or a blockwise diag(a I, b I) on a dim-8 builtin, on the
same wire brackets and J's is another HKT metric on the same hypercomplex
algebra. The Obata connection
does not depend on the metric, so the verdict and the Obata, obstruction
and holonomy sections stay those of the identity metric; under c I the
star scalar, h, |T|^2 and the Chern norms are 1/c times theirs.

An SO(3) rotation of the triple (J1, J2, J3), such as (J2, J3, J1) or
(J1, -J2, -J3), is another hyperhermitian structure on the same algebra,
with the same torsion, Lee form and Obata connection: the report's
verdict and numbers stay those of the original triple, up to the order of
the three Chern norms.

The report is a function of values, not of whether a scalar is an int or
a Fraction: a scaled metric that the loader rebases away, or an entry
recast to Fraction scalars, gives the same bytes.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hktlab import cli
from hktlab.analyze import _outcome, analyze_entry
from hktlab.catalog import builtin_by_name, load, serialize
from hktlab.exact import format_scalar, parse_scalar
from hktlab.hyperhermitian import HyperhermitianStructure, quaternionic_check
from hktlab.invariant import LieAlgebra, ce_differential
from hktlab.tensors import KForm, j_twist

from oracle_impl import ALL_NAMES, cayley_rotated, is_signed_permutation, parsed_wire

GOLDEN_DIR = Path(__file__).parent / "golden"


def _invariants(report: dict) -> dict:
    suites = report["identity_suites"]
    return {
        "verdict": report["verdict"],
        "obata_dim": report["holonomy"]["obata_dim"],
        "bismut_holonomy_dim": report["bismut"]["holonomy_dim"],
        "star_scalar": suites["star_scalar"]["value"],
        "h": report["dt_traces"]["h"],
        "chern_norms": suites["chern_norms"],
        "obstruction_verdict": report["obstruction"]["verdict"],
    }


@pytest.mark.parametrize("name", ["torus4", "hopf4", "hopf8", "nil8"])
def test_cayley_rotation_keeps_the_report(name, tmp_path):
    entry = builtin_by_name()[name]
    path = tmp_path / f"{name}_cayley.json"
    path.write_text(json.dumps(cayley_rotated(entry)), encoding="utf-8")
    loaded = load(path)
    assert all(is_signed_permutation(j, entry.dim) for j in loaded.structure.j_sparse)
    rotated = analyze_entry(loaded)
    assert rotated["theorem_violations"] == []
    assert _invariants(rotated) == _invariants(analyze_entry(entry))


def _analyze_doc(doc, path, capsys) -> dict:
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def _metric_free(report: dict) -> dict:
    # the generator a certificate names first, and its trace, depend on the frame
    certificate = dict(report["holonomy"]["certificate"])
    del certificate["first_violation"]
    return {
        "verdict": report["verdict"],
        "obata": report["obata"],
        "obstruction": report["obstruction"],
        "holonomy": {**report["holonomy"], "certificate": certificate},
    }


def _metric_scaled(report: dict) -> list[Fraction]:
    """The numbers that scale as the inverse metric, [] on a non-HKT entry."""
    if report["dt_traces"] is None:
        return []
    star, chern = report["identity_suites"]["star_scalar"], report["identity_suites"]["chern_norms"]
    numbers = [
        star["value"], report["dt_traces"]["h"], star["components"]["torsion_norm_sq"],
        chern["torsion_norm_sq"], *chern["norms"],
    ]
    return [Fraction(x) for x in numbers]


METRIC_CHANGES = [
    (name, diagonal)
    for diagonal in (("2", "2"), ("7/5", "7/5"))
    for name in ALL_NAMES + ("su3",)
] + [(name, ("2", "3")) for name in ("torus8", "hopf8", "nil8", "hc_only8")] + [
    ("hopf8", ("7/5", "1")),
    ("nil8", ("5", "5")),
]


@pytest.mark.parametrize("name, diagonal", METRIC_CHANGES)
def test_metric_change_keeps_the_metric_free_report(name, diagonal, su3_path, tmp_path, capsys):
    # diagonal: the metric's entries on the first and on the second half of the basis
    if name == "su3":
        doc = json.loads(su3_path.read_text(encoding="utf-8"))
    else:
        doc = serialize(builtin_by_name()[name])
    base = _analyze_doc(doc, tmp_path / "identity.json", capsys)
    dim = doc["dim"]
    doc["metric"] = [
        [diagonal[2 * r // dim] if r == c else "0" for c in range(dim)] for r in range(dim)
    ]
    report = _analyze_doc(doc, tmp_path / "scaled.json", capsys)
    assert report["theorem_violations"] == []
    assert _metric_free(report) == _metric_free(base)
    if diagonal[0] == diagonal[1]:
        c = Fraction(diagonal[0])
        assert _metric_scaled(report) == [x / c for x in _metric_scaled(base)]


def _twisted_differentials(doc, metric):
    """-dF_s(J_s ., J_s ., J_s .) for F_s(X, Y) = g(X, J_s Y), in the wire basis."""
    brackets, js = parsed_wire(doc)
    alg = LieAlgebra(doc["dim"], brackets)
    out = []
    for j, maps in zip(js, HyperhermitianStructure(doc["dim"], js).permutations):
        gj = {x: {y: metric[x] * v for y, v in row.items()} for x, row in j.items()}
        comps = {(x, y): v for x, row in gj.items() for y, v in row.items() if x < y}
        f = KForm(doc["dim"], 2, comps)
        out.append(j_twist(ce_differential(alg, f), maps))
    return out


def test_su3_under_a_blockwise_metric_is_analyzed_as_not_hkt(su3_path, tmp_path, capsys):
    # su(3) is no direct sum, and diag(2 I, 3 I) is a hyperhermitian metric
    # that is not HKT: the three twisted differentials differ in the wire
    # basis, where the identity metric makes them agree
    doc = json.loads(su3_path.read_text(encoding="utf-8"))
    identity, blockwise = [1] * 8, [2] * 4 + [3] * 4
    first, *rest = _twisted_differentials(doc, identity)
    assert all(form == first for form in rest)
    first, *rest = _twisted_differentials(doc, blockwise)
    assert not all(form == first for form in rest)
    doc["metric"] = [[str(blockwise[r]) if r == c else "0" for c in range(8)] for r in range(8)]
    report = _analyze_doc(doc, tmp_path / "su3_blockwise.json", capsys)
    assert report["theorem_violations"] == []
    assert report["hkt"]["ok"] is False


def test_scaled_metric_reports_the_golden(capsys, tmp_path):
    # metric 4 I with doubled structure constants: the orthonormal frame
    # e_i / 2 gives back hc_only8's constants and J's, as Fractions
    doc = serialize(builtin_by_name()["hc_only8"])
    dim = doc["dim"]
    doc["metric"] = [["4" if r == c else "0" for c in range(dim)] for r in range(dim)]
    doc["structure_constants"] = [
        [i, j, k, format_scalar(2 * parse_scalar(v))] for i, j, k, v in doc["structure_constants"]
    ]
    path = tmp_path / "hc_only8_scaled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / "hc_only8.json").read_text(encoding="utf-8")
    elapsed = re.compile(r'"elapsed_ms": \d+')
    assert elapsed.sub("", out) == elapsed.sub("", golden)


def _negated(j):
    return {r: {c: -x for c, x in row.items()} for r, row in j.items()}


# (J1, J2, J3) -> the triple at these signed positions: a cyclic shift either
# way, a swap of J1 and J2 with J3 negated, and the rotation by pi about J1
TRIPLE_ROTATIONS = (
    ((2, 1), (3, 1), (1, 1)),
    ((3, 1), (1, 1), (2, 1)),
    ((2, 1), (1, 1), (3, -1)),
    ((1, 1), (2, -1), (3, -1)),
)


def _triple_rotated(entry, rotation):
    js = entry.structure.j_sparse
    triple = tuple(js[s - 1] if sign == 1 else _negated(js[s - 1]) for s, sign in rotation)
    assert quaternionic_check(triple, entry.dim, {i: {i: 1} for i in range(entry.dim)}) == []
    return replace(entry, structure=HyperhermitianStructure(entry.dim, triple))


def _outcomes(node, path=()):
    """Every identity outcome of a report section: path -> ok."""
    if not isinstance(node, dict):
        return {}
    found = {path: node["ok"]} if "ok" in node else {}
    for key, child in node.items():
        found |= _outcomes(child, path + (key,))
    return found


def _triple_invariants(report: dict) -> dict:
    # the HKT-only sections are None on a non-HKT entry
    suites = report["identity_suites"] or {}
    return {
        "verdict": report["verdict"],
        "obata_dim": report["holonomy"]["obata_dim"],
        "bismut": report["bismut"],
        "star_scalar": suites.get("star_scalar", {}).get("value"),
        "h": (report["dt_traces"] or {}).get("h"),
        "chern_norms": sorted(suites.get("chern_norms", {}).get("norms", [])),
        "obstruction": report["obstruction"],
        "routes_agree": report["obata"]["routes_agree"],
        "outcomes": _outcomes(suites),
    }


@pytest.mark.parametrize("rotation", TRIPLE_ROTATIONS)
@pytest.mark.parametrize("name", ALL_NAMES + ("su3",))
def test_triple_rotation_keeps_the_report(name, rotation, su3):
    entry = su3 if name == "su3" else builtin_by_name()[name]
    rotated = analyze_entry(_triple_rotated(entry, rotation))
    assert rotated["theorem_violations"] == []
    assert _triple_invariants(rotated) == _triple_invariants(analyze_entry(entry))


def _as_fractions(entry):
    """The same entry with every J entry and bracket value a Fraction."""
    def recast(table):
        return {key: {k: Fraction(v) for k, v in row.items()} for key, row in table.items()}

    h = entry.structure
    structure = HyperhermitianStructure(h.dim, tuple(map(recast, h.j_sparse)))
    return replace(entry, lie=LieAlgebra(entry.dim, recast(entry.lie.brackets)), structure=structure)


def _report_text(entry) -> str:
    report = analyze_entry(entry)
    report["elapsed_ms"] = 0
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("name", ALL_NAMES + ("su3",))
def test_fraction_scalars_keep_the_report(name, su3):
    entry = su3 if name == "su3" else builtin_by_name()[name]
    assert _report_text(_as_fractions(entry)) == _report_text(entry)


def test_counterexample_scalars_are_written_by_value():
    counterexample = (1, Fraction(2), Fraction(1, 2))
    assert _outcome(counterexample) == {"ok": False, "counterexample": [1, 2, "1/2"]}
