from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hktlab.invariant import (
    Connection,
    LieAlgebra,
    ce_differential,
    curvature_operators,
    curvature_tensor,
    levi_civita,
    rebase_algebra,
    torsion,
    torsion_cube,
    validate_lie_algebra,
)
from hktlab.holonomy import holonomy_algebra, is_g_skew
from hktlab.hyperhermitian import bismut_connection, hkt_check
from hktlab.obata import (
    difference_tensor,
    obata_connection,
    obata_from_difference,
    obata_oracle_solver,
)
from hktlab.tensors import KForm, cube_add, wedge

from oracle_impl import (
    basis_form,
    bracket_vectors,
    conn_values,
    curvature_is_canonical,
    curvature_values,
    dense_matrix,
    direct_sum_entry,
    form_add,
    form_scale,
    fraction_bismut_connection,
    fraction_curvature_operators,
    fraction_difference_tensor,
    fraction_holonomy_algebra,
    fraction_levi_civita,
    fraction_obata_oracle_solver,
    fraction_operators,
    fraction_torsion_cube,
    fundamental_forms,
    generator_values,
    invert,
    is_canonical,
    matrix_entries,
    naive_ce_differential,
    naive_curvature_operator,
    naive_d_eval,
    naive_koszul,
    naive_torsion_cube,
    naive_validate_lie_algebra,
    scaled_values,
    sparse_matrix,
    structure_constant,
    walked_validate_lie_algebra,
)

HOPF4 = LieAlgebra(4, {(1, 2): {3: 2}, (1, 3): {2: -2}, (2, 3): {1: 2}})
NIL8 = LieAlgebra(
    8,
    {
        (0, 1): {5: 1},
        (0, 2): {6: 1},
        (0, 3): {7: 1},
        (1, 2): {7: 1},
        (1, 3): {6: -1},
        (2, 3): {5: 1},
    },
)

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)


def random_form(dim, degree):
    keys = list(combinations(range(dim), degree))
    return st.lists(rationals, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: KForm(dim, degree, {k: v for k, v in zip(keys, vals) if v})
    )


def test_bracket_table_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 0): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(2, {(0, 1): {5: 1}})


def test_structure_constant_antisymmetry():
    assert structure_constant(HOPF4, 1, 2, 3) == 2
    assert structure_constant(HOPF4, 2, 1, 3) == -2
    assert structure_constant(HOPF4, 0, 1, 2) == 0


def test_bracket_vectors_bilinear():
    v = bracket_vectors(HOPF4, [0, 2, 0, 0], [0, 0, Fraction(1, 2), 0])
    assert v == [0, 0, 0, 2]


def test_jacobi_detection():
    bad = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
    defect = validate_lie_algebra(bad)
    assert defect is not None
    triple, vec = defect
    assert triple == (0, 1, 2)
    assert any(vec)
    assert validate_lie_algebra(HOPF4) is None
    assert validate_lie_algebra(NIL8) is None


@st.composite
def bracket_tables(draw):
    """Random bracket tables on dim 3-6 with int and Fraction constants;
    most of them fail the Jacobi identity."""
    dim = draw(st.integers(min_value=3, max_value=6))
    constants = st.dictionaries(
        st.integers(0, dim - 1), st.one_of(st.integers(-2, 2), rationals), min_size=1, max_size=2
    )
    pairs = draw(
        st.lists(st.sampled_from(list(combinations(range(dim), 2))), min_size=2, max_size=6)
    )
    return LieAlgebra(dim, {pair: draw(constants) for pair in pairs})


@given(bracket_tables())
@settings(max_examples=80)
def test_jacobi_check_matches_dense_oracle(alg):
    got, want = validate_lie_algebra(alg), naive_validate_lie_algebra(alg)
    assert got == want
    # the loader prints the defect with repr, so element types must agree too
    assert repr(got) == repr(want)


def shifted(alg: LieAlgebra, by: int) -> dict:
    return {
        (i + by, j + by): {k + by: v for k, v in c.items()} for (i, j), c in alg.brackets.items()
    }


@given(bracket_tables())
@settings(max_examples=80)
def test_jacobi_check_matches_per_lookup_walk(alg):
    # the table completed up front against antisymmetrizing at each lookup,
    # on the drawn table, on valid ones and on direct sums with NIL8 in
    # either order, so a violation can come after a valid block
    dim = alg.dim + 8
    sums = (
        LieAlgebra(dim, shifted(NIL8, 0) | shifted(alg, 8)),
        LieAlgebra(dim, shifted(alg, 0) | shifted(NIL8, alg.dim)),
    )
    for table in (alg, NIL8, HOPF4) + sums:
        got, want = validate_lie_algebra(table), walked_validate_lie_algebra(table)
        assert got == want
        assert repr(got) == repr(want)


# Tables whose first failing triple (i, j, k) has one nonzero cyclic term,
# reached only through a reversed pair: [[e_k, e_i], e_j] with k > i, or an
# inner [e_m, e_c] stored as (c, m), c < m, or both.
REVERSED_PAIR_TABLES = {
    # [[e_3, e_0], e_2] = -[e_1, e_2] = -e_4 at (0, 2, 3)
    "outer (k, i)": LieAlgebra(5, {(0, 3): {1: 1}, (1, 2): {4: 1}}),
    # [[e_0, e_1], e_2] = [e_3, e_2] = -e_4 / 2 at (0, 1, 2), [e_3, e_2] stored as (2, 3)
    "inner (m, c), c < m": LieAlgebra(5, {(0, 1): {3: 1}, (2, 3): {4: Fraction(1, 2)}}),
    # [[e_2, e_0], e_1] = [-e_3, e_1] = e_0 at (0, 1, 2), then (1, 2, 3) fails too
    "both": LieAlgebra(4, {(0, 2): {3: 1}, (1, 3): {0: 1}}),
}


@pytest.mark.parametrize("alg", REVERSED_PAIR_TABLES.values(), ids=REVERSED_PAIR_TABLES)
def test_jacobi_check_finds_defects_behind_reversed_pairs(alg):
    got, want = validate_lie_algebra(alg), naive_validate_lie_algebra(alg)
    assert want is not None
    assert got == want
    assert repr(got) == repr(want)


def test_differential_sign_pin():
    # d e^3 (e1, e2) = -c^3_{12} = -2 on the Hopf-type algebra
    d_e3 = ce_differential(HOPF4, basis_form(4, (3,)))
    assert d_e3.evaluate((1, 2)) == -2
    assert d_e3.comps == {(1, 2): -2}


@pytest.mark.parametrize("alg", [HOPF4, NIL8])
def test_differential_matches_naive_formula(alg):
    for degree in (1, 2):
        for key in combinations(range(alg.dim), degree):
            da = ce_differential(alg, basis_form(alg.dim, key))
            for idx in combinations(range(alg.dim), degree + 1):
                assert da.evaluate(idx) == naive_d_eval(alg, basis_form(alg.dim, key), idx)


@given(random_form(4, 1))
@settings(max_examples=30)
def test_d_squared_zero_dim4(a):
    assert ce_differential(HOPF4, ce_differential(HOPF4, a)).is_zero()


@given(random_form(8, 2))
@settings(max_examples=20)
def test_d_squared_zero_dim8(a):
    assert ce_differential(NIL8, ce_differential(NIL8, a)).is_zero()


@given(random_form(4, 1), random_form(4, 1))
@settings(max_examples=30)
def test_graded_leibniz(a, b):
    lhs = ce_differential(HOPF4, wedge(a, b))
    rhs = form_add(
        wedge(ce_differential(HOPF4, a), b),
        form_scale(wedge(a, ce_differential(HOPF4, b)), -1),
    )
    assert lhs.comps == rhs.comps


def catalog_and_sums(catalog, tmp_path):
    return list(catalog.values()) + [
        direct_sum_entry(catalog["nil8"], catalog["hopf4"], tmp_path),
        direct_sum_entry(catalog["hc_only8"], catalog["torus4"], tmp_path),
    ]


def full_form(dim, degree):
    """Every component nonzero, ints and Fractions mixed."""
    keys = combinations(range(dim), degree)
    return KForm(
        dim,
        degree,
        {k: (-1) ** n * (Fraction(n + 1, 3) if n % 3 else n + 1) for n, k in enumerate(keys)},
    )


def test_differential_matches_dense_oracle_on_catalog_and_sums(catalog, tmp_path):
    # the nonzeros, their types and their order agree with the sum over
    # every (k+1)-subset of the basis
    for entry in catalog_and_sums(catalog, tmp_path):
        alg = entry.lie
        forms = [full_form(alg.dim, degree) for degree in (1, 2, 3)]
        forms += list(fundamental_forms(entry.structure))
        res = hkt_check(entry.structure, alg)
        if res.ok:
            forms.append(res.torsion)
        for a in forms:
            got, want = ce_differential(alg, a), naive_ce_differential(alg, a)
            assert got == want, (entry.name, a.degree)
            assert list(got.comps.items()) == list(want.comps.items()), (entry.name, a.degree)
            assert [type(v) for v in got.comps.values()] == [
                type(v) for v in want.comps.values()
            ], (entry.name, a.degree)


@st.composite
def brackets_and_forms(draw):
    """A random bracket table and a random form of degree 1 to 3 on it,
    with sparse int and Fraction components."""
    alg = draw(bracket_tables())
    degree = draw(st.integers(1, min(3, alg.dim - 1)))
    keys = st.sampled_from(list(combinations(range(alg.dim), degree)))
    comps = draw(st.dictionaries(keys, st.one_of(st.integers(-2, 2), rationals), max_size=8))
    return alg, KForm(alg.dim, degree, comps)


@given(brackets_and_forms())
@example(
    # da(e0, e1, e2): the (0, 1) terms are Fractions that cancel, the (1, 2)
    # term is an int, so the component is the int 1
    (
        LieAlgebra(5, {(0, 1): {3: 1, 4: 1}, (1, 2): {3: 1}}),
        KForm(5, 2, {(0, 3): 1, (2, 3): Fraction(1, 2), (2, 4): Fraction(-1, 2)}),
    )
)
@settings(max_examples=100)
def test_differential_matches_dense_oracle_on_random_brackets(case):
    alg, a = case
    got, want = ce_differential(alg, a), naive_ce_differential(alg, a)
    assert list(got.comps.items()) == list(want.comps.items())
    assert [type(v) for v in got.comps.values()] == [type(v) for v in want.comps.values()]


def test_differential_rejects_top_degree():
    with pytest.raises(ValueError):
        ce_differential(HOPF4, basis_form(4, (0, 1, 2, 3)))


@pytest.mark.parametrize("alg", [HOPF4, NIL8])
def test_levi_civita_against_koszul(alg):
    lc = levi_civita(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                assert conn_values(lc).get((i, j, k), 0) == naive_koszul(alg, i, j, k)


def test_levi_civita_matches_koszul_on_catalog_and_sums(catalog, tmp_path):
    # the Koszul sum read off the stored brackets gives the dense formula's
    # nonzeros as values, in lexicographic order, held as int entries over
    # the least scale
    entries = catalog_and_sums(catalog, tmp_path)
    for entry in entries:
        alg = entry.lie
        want = {
            idx: v
            for idx in product(range(alg.dim), repeat=3)
            if (v := naive_koszul(alg, *idx))
        }
        lc = levi_civita(alg)
        assert list(conn_values(lc).items()) == list(want.items()), entry.name
        assert is_canonical(lc.gamma.values(), lc.scale), entry.name


def test_torsion_cube_matches_dense_oracle_on_catalog_and_sums(catalog, tmp_path):
    for entry in catalog_and_sums(catalog, tmp_path):
        alg, h = entry.lie, entry.structure
        res = hkt_check(h, alg)
        lc = levi_civita(alg)
        conns = [lc, Connection(alg.dim, {})]
        if res.ok:
            conns.append(bismut_connection(res.torsion, lc))
        if res.first_nonintegrable is None:
            conns.append(obata_connection(h, alg, res.torsion))
        for conn in conns:
            got, want = torsion_cube(conn, alg), naive_torsion_cube(conn, alg)
            assert list(got.items()) == list(want.items()), entry.name
            assert is_canonical(conn.gamma.values(), conn.scale), entry.name


def test_levi_civita_metric_and_torsion_free():
    lc = levi_civita(HOPF4)
    assert all(is_g_skew(op) for op in lc.operators)
    assert torsion_cube(lc, HOPF4) == {}
    cube, form = torsion(lc, HOPF4)
    assert form is not None and form.is_zero()


def test_connection_metric_flag_detects_non_metric():
    gamma = {(0, 1, 1): 1}
    assert not all(is_g_skew(op) for op in Connection(3, gamma).operators)


def test_connection_operator_layout():
    gamma = {(0, 1, 2): 5}
    conn = Connection(3, gamma)
    # nabla_{e_0} e_1 = 5 e_2, so column 1 of L_0 has a 5 in row 2
    assert conn.operators[0][2][1] == 5
    assert conn.operators == ({2: {1: 5}}, {}, {})


def test_connection_is_canonical_on_construction():
    # Fractions are cleared and common factors of the scale divided out,
    # so equal values give equal connections
    conn = Connection(3, {(0, 1, 2): Fraction(5, 6), (1, 1, 1): Fraction(-1, 4)})
    assert (conn.gamma, conn.scale) == ({(0, 1, 2): 10, (1, 1, 1): -3}, 12)
    assert Connection(3, {(0, 1, 2): 4, (1, 1, 1): 6}, 4) == Connection(
        3, {(0, 1, 2): 1, (1, 1, 1): Fraction(3, 2)}
    )
    assert (Connection(3, {}, 6).gamma, Connection(3, {}, 6).scale) == ({}, 1)


@pytest.mark.parametrize("alg", [HOPF4, NIL8])
def test_curvature_operators_against_naive(alg):
    lc = levi_civita(alg)
    curvature = curvature_operators(lc, alg)
    for (i, j), op in curvature_values(curvature).items():
        assert dense_matrix(op, alg.dim) == naive_curvature_operator(lc, alg, i, j)


def test_curvature_tensor_hopf4_values():
    lc = levi_civita(HOPF4)
    r = curvature_tensor(lc, HOPF4)
    assert r[1][2][1][2] == -1
    assert r[2][1][1][2] == 1
    assert r[1][3][1][3] == -1
    assert r[2][3][2][3] == -1
    assert r[0][1][0][1] == 0


def test_rebase_scaling():
    # halving the basis vectors of su(2)-like brackets halves the constants
    frame = [[Fraction(1, 2) if i == a else 0 for i in range(4)] for a in range(4)]
    base_change = [[frame[a][i] for a in range(4)] for i in range(4)]
    rebased = rebase_algebra(HOPF4, sparse_matrix(frame), sparse_matrix(invert(base_change)))
    assert structure_constant(rebased, 1, 2, 3) == 1
    assert validate_lie_algebra(rebased) is None


# ---------------------------------------------------------------------------
# the integer-scaled connections, difference tensor, curvature operators and
# holonomy generators against the Fraction implementations they replaced


def assert_scaled_connection_matches(conn, want_gamma, alg, name):
    """conn holds the values want_gamma in canonical form, and its torsion,
    curvature operators and holonomy generators are those of the Fraction
    references on those values, each in canonical form too."""
    assert is_canonical(conn.gamma.values(), conn.scale), name
    assert conn_values(conn) == want_gamma, name
    assert torsion_cube(conn, alg) == fraction_torsion_cube(want_gamma, alg), name
    curvature = curvature_operators(conn, alg)
    want_curvature = fraction_curvature_operators(want_gamma, alg)
    assert curvature_is_canonical(curvature), name
    nonzero = [(key, r) for key, r in want_curvature.items() if r]  # stored in key order
    assert list(curvature_values(curvature).items()) == nonzero, name
    hol = holonomy_algebra(conn, curvature)
    want_hol = fraction_holonomy_algebra(fraction_operators(want_gamma, alg.dim), want_curvature)
    assert all(is_canonical(matrix_entries(g), s) for g, s in zip(hol.generators, hol.scales)), name
    assert (generator_values(hol), hol.dim) == (want_hol.generators, want_hol.dim), name


@pytest.fixture(scope="module")
def scaled_inputs(catalog, su3, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sums")
    return list(catalog.values()) + [
        su3,
        direct_sum_entry(catalog["nil8"], catalog["hopf4"], tmp),
        direct_sum_entry(catalog["hc_only8"], su3, tmp),
    ]


def test_scaled_connections_match_fraction_references(scaled_inputs):
    # Levi-Civita, skew-torsion, both torsion-free routes and the difference
    # tensor on the builtins, su3 (Fraction brackets), nil8+hopf4 and the
    # curved non-HKT hc_only8+su3
    for entry in scaled_inputs:
        alg, h = entry.lie, entry.structure
        lc, want_lc = levi_civita(alg), fraction_levi_civita(alg)
        assert_scaled_connection_matches(lc, want_lc, alg, (entry.name, "levicivita"))
        res = hkt_check(h, alg)
        if res.ok:
            skew = bismut_connection(res.torsion, lc)
            want_skew = fraction_bismut_connection(res.torsion, want_lc)
            assert_scaled_connection_matches(skew, want_skew, alg, (entry.name, "bismut"))
            a = difference_tensor(res.torsion, h)
            want_a = fraction_difference_tensor(res.torsion, h)
            assert is_canonical(a.entries.values(), a.scale), entry.name
            assert scaled_values(a) == want_a, entry.name
            built = obata_from_difference(skew, a, h, alg)
            want_built = cube_add(want_skew, want_a)
            assert_scaled_connection_matches(built, want_built, alg, (entry.name, "difference"))
        if res.first_nonintegrable is None:
            solved, _ = obata_oracle_solver(h, alg)
            want_solved = fraction_obata_oracle_solver(h, alg)
            assert_scaled_connection_matches(solved, want_solved, alg, (entry.name, "solver"))


@given(bracket_tables())
@settings(max_examples=60, deadline=None)
def test_scaled_levi_civita_matches_fraction_references_on_random_brackets(alg):
    # int and Fraction constants, most tables failing the Jacobi identity:
    # the Koszul sum, torsion, curvature and closure need none of it
    assert_scaled_connection_matches(levi_civita(alg), fraction_levi_civita(alg), alg, alg)
