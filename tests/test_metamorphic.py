"""Reports that must not change under a change of frame.

A Cayley rotation (`oracle_impl.cayley_rotated`) moves an entry to another
rational orthonormal basis, in which J1 is no signed permutation of the
basis vectors. The verdict and every frame-independent number of the
report stay those of the unrotated entry. The dim-8 rotations take
seconds each, so only the dim-4 entries run here.
"""

import pytest

from hktlab.analyze import analyze_entry
from hktlab.catalog import builtin_by_name

from oracle_impl import cayley_rotated


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
