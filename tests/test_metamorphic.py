"""Reports that must not change under a change of frame.

A Cayley rotation (`oracle_impl.cayley_rotated`) moves an entry to another
rational orthonormal basis, in which J1 is no signed permutation of the
basis vectors. The verdict and every frame-independent number of the
report stay those of the unrotated entry. The dim-8 rotations take
seconds each, so only the dim-4 entries run here.

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
from hktlab.catalog import builtin_by_name, serialize
from hktlab.curvature import CheckOutcome
from hktlab.exact import format_scalar, parse_scalar
from hktlab.hyperhermitian import HyperhermitianStructure, quaternionic_check
from hktlab.invariant import LieAlgebra

from oracle_impl import ALL_NAMES, cayley_rotated

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


@pytest.mark.parametrize("name", ["torus4", "hopf4"])
def test_cayley_rotation_keeps_the_report(name):
    entry = builtin_by_name()[name]
    rotated = analyze_entry(cayley_rotated(entry))
    assert rotated["theorem_violations"] == []
    assert _invariants(rotated) == _invariants(analyze_entry(entry))


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
    assert quaternionic_check(triple, entry.dim) == []
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
    check = CheckOutcome(False, (1, Fraction(2), Fraction(1, 2)))
    assert _outcome(check) == {"ok": False, "counterexample": [1, 2, "1/2"]}
