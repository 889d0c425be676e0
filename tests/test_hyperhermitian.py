from fractions import Fraction

import pytest

from hktlab.catalog import builtin_by_name
from hktlab.hyperhermitian import (
    MIXED_TRIPLES,
    HyperhermitianStructure,
    bismut_connection,
    fundamental_form,
    fundamental_forms,
    hkt_check,
    kt_torsion,
    nijenhuis,
    p_minus,
    preserves_endomorphism,
    quaternionic_check,
    type_check_12_21,
)
from hktlab.invariant import LieAlgebra, ce_differential, levi_civita, torsion
from hktlab.linalg import identity
from hktlab.tensors import (
    cube_add,
    cube_pullback,
    cube_scale,
    form_scale,
    form_to_cube,
    j_twist,
)

from oracle_impl import HKT_NAMES, naive_nijenhuis_vec, naive_preserves_endomorphism


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_quaternionic_check_clean(cat):
    for entry in cat.values():
        assert quaternionic_check(entry.structure) == []


def test_quaternionic_check_reports_violations(cat):
    h = cat["torus4"].structure
    broken = HyperhermitianStructure(4, (identity(4), h.j(2), h.j(3)), h.metric)
    issues = quaternionic_check(broken)
    assert "J1^2 != -identity" in issues
    assert any("J1*J2" in msg for msg in issues)


def test_quaternionic_check_metric_compatibility(cat):
    h = cat["torus4"].structure
    bad_metric = [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]]
    broken = HyperhermitianStructure(4, h.j_ops, bad_metric)
    assert any("not J" in msg and "invariant" in msg for msg in quaternionic_check(broken))


def test_fundamental_forms_hopf4(cat):
    h = cat["hopf4"].structure
    f1, f2, f3 = fundamental_forms(h)
    assert f1.comps == {(0, 1): 1, (2, 3): -1}
    assert f2.comps == {(0, 2): 1, (1, 3): 1}
    assert f3.comps == {(0, 3): 1, (1, 2): -1}


def test_nijenhuis_vanishes_on_catalog(cat):
    for name in HKT_NAMES + ("hc_only8",):
        entry = cat[name]
        for s in (1, 2, 3):
            cube, form = nijenhuis(entry.lie, entry.structure.j(s))
            assert cube == {}
            assert form is not None and form.is_zero()
        assert hkt_check(entry.structure, entry.lie).first_nonintegrable is None


SWAP_BRACKETS = {
    (0, 1): {2: 2},
    (1, 2): {0: 2},
    (0, 2): {1: -2},
    (3, 4): {5: 2},
    (4, 5): {3: 2},
    (3, 5): {4: -2},
}


def swap_structure():
    """Two compact simple blocks plus a plane, with the complex structure
    swapping the blocks; integrability fails with a totally skew Nijenhuis
    tensor, which pins the normalization of N."""
    alg = LieAlgebra(8, SWAP_BRACKETS)
    j = [[0] * 8 for _ in range(8)]
    for i in range(3):
        j[3 + i][i] = 1
        j[i][3 + i] = -1
    j[7][6] = 1
    j[6][7] = -1
    return alg, j


def test_nijenhuis_against_naive():
    alg, j = swap_structure()
    cube, form = nijenhuis(alg, j)
    assert form is not None and not form.is_zero()
    for a in range(8):
        for b in range(8):
            ea = [1 if r == a else 0 for r in range(8)]
            eb = [1 if r == b else 0 for r in range(8)]
            assert [cube.get((a, b, k), 0) for k in range(8)] == naive_nijenhuis_vec(alg, j, ea, eb)


def test_nijenhuis_normalization_pin():
    # j_twist(P^-(dF), J) = -(3/4) N fixes the factor-1 Nijenhuis convention
    alg, j = swap_structure()
    _, n_form = nijenhuis(alg, j)
    f = fundamental_form(identity(8), j)
    minus_part = p_minus(ce_differential(alg, f), j)
    assert j_twist(minus_part, j).comps == form_scale(n_form, Fraction(-3, 4)).comps


def test_p_minus_projects_out_mixed_part(cat):
    h = cat["hopf4"].structure
    res = hkt_check(h, cat["hopf4"].lie)
    # an HKT torsion is of mixed type for each complex structure
    for s in (1, 2, 3):
        assert p_minus(res.torsion, h.j(s)).is_zero()


def test_kt_torsion_requires_skew_nijenhuis():
    heis = LieAlgebra(4, {(1, 2): {3: 1}})
    h = builtin_by_name()["torus4"].structure
    assert hkt_check(h, heis).first_nonintegrable == 1
    with pytest.raises(ValueError, match="not totally skew"):
        kt_torsion(h.j(1), h, heis)
    with pytest.raises(ValueError, match="not totally skew"):
        kt_torsion(h.j(2), h, heis)
    # the third complex structure happens to be integrable here
    cube, form = nijenhuis(heis, h.j(3))
    assert cube == {}


def test_hkt_check_catalog_flags(cat):
    for name in HKT_NAMES:
        res = hkt_check(cat[name].structure, cat[name].lie)
        assert res.ok, name
        assert res.reason is None and res.first_difference is None

    res = hkt_check(cat["hc_only8"].structure, cat["hc_only8"].lie)
    assert not res.ok
    assert res.torsion is None
    assert res.reason == "candidate torsions differ"
    assert res.first_difference == ((1, 2), (1, 4, 5), 2, 0)


def test_hkt_check_failure_reason_for_nonskew():
    heis = LieAlgebra(4, {(1, 2): {3: 1}})
    res = hkt_check(builtin_by_name()["torus4"].structure, heis)
    assert not res.ok
    assert res.reason.startswith("J1:")
    assert "not totally skew" in res.reason


def test_torsion_values(cat, torsions):
    assert torsions["torus4"].is_zero()
    assert torsions["torus8"].is_zero()
    assert torsions["hopf4"].comps == {(1, 2, 3): -2}
    assert torsions["hopf8"].comps == {(1, 2, 3): -2, (5, 6, 7): -2}
    assert torsions["nil8"].comps == {
        (0, 1, 5): -1,
        (0, 2, 6): -1,
        (0, 3, 7): -1,
        (1, 2, 7): -1,
        (1, 3, 6): 1,
        (2, 3, 5): -1,
    }


def test_bismut_has_prescribed_torsion_and_parallel_structure(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        conn = bismut_connection(t, entry.lie)
        assert conn.metric_flag
        _, tform = torsion(conn, entry.lie)
        assert tform is not None and tform.comps == t.comps
        for s in (1, 2, 3):
            assert preserves_endomorphism(conn, entry.structure.j(s))


def test_preserves_endomorphism_matches_dense_oracle(cat):
    for name, entry in cat.items():
        conn = levi_civita(entry.lie)
        for s in (1, 2, 3):
            j = entry.structure.j(s)
            got = preserves_endomorphism(conn, j)
            assert got == naive_preserves_endomorphism(conn, j), name
            # only on the abelian tori is the Levi-Civita connection flat
            assert got == name.startswith("torus"), name


def test_bismut_vanishes_on_hopf4(cat, torsions):
    conn = bismut_connection(torsions["hopf4"], cat["hopf4"].lie)
    assert conn.gamma == {}


def test_type_identities_hold_on_hkt_entries(cat, torsions):
    for name in HKT_NAMES:
        res = type_check_12_21(torsions[name], cat[name].structure)
        assert res.ok, (name, res)


def test_mixed_family_orientation_pin(cat, torsions):
    # the mixed three-structure identity holds exactly for the anti-cyclic
    # triples and fails for the cyclic ones; hopf4 is the witness
    h = cat["hopf4"].structure
    c = form_to_cube(torsions["hopf4"])

    def residual(i, j, k):
        ji, jj, jk = h.j(i), h.j(j), h.j(k)
        return cube_add(
            cube_add(
                cube_pullback(c, ji, ji, None),
                cube_scale(cube_pullback(c, jk, jk, None), -1),
            ),
            cube_add(
                cube_scale(cube_pullback(c, jk, ji, jj), -1),
                cube_scale(cube_pullback(c, ji, jk, jj), -1),
            ),
        )

    assert MIXED_TRIPLES == ((1, 3, 2), (2, 1, 3), (3, 2, 1))
    for triple in MIXED_TRIPLES:
        assert residual(*triple) == {}, triple
    cyclic_residual = residual(1, 2, 3)
    assert cyclic_residual[(0, 1, 1)] == 4
    for triple in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert residual(*triple) != {}, triple
