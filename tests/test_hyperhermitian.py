import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab.catalog import _standard_structure, builtin_by_name
from hktlab.hyperhermitian import (
    HyperhermitianStructure,
    bismut_connection,
    glnh_membership,
    hkt_check,
    kt_torsion,
    nijenhuis,
    quaternion_relations,
    quaternionic_check,
    type_check_12_21,
)
from hktlab.invariant import LieAlgebra, ce_differential, levi_civita, torsion
from hktlab.holonomy import is_g_skew
from hktlab.linalg import identity, nullspace
from hktlab.tensors import KForm, cube_add, cube_pullback, cube_scale, j_twist

from oracle_impl import (
    ALL_NAMES,
    HKT_NAMES,
    KERNEL_CASES,
    MIXED_TRIPLES,
    cayley_rotated,
    dense_glnh_membership,
    dense_js,
    dense_matrix,
    direct_sum_entry,
    form_add,
    form_scale,
    fundamental_form,
    fundamental_forms,
    is_signed_permutation,
    j_maps,
    kernel_structure,
    mat_mul,
    matrix_j_twist,
    matrix_nijenhuis,
    mixed_type_residual,
    naive_ce_differential,
    naive_cube_pullback,
    naive_j_twist,
    naive_nijenhuis,
    naive_nijenhuis_vec,
    naive_preserves_endomorphism,
    naive_quaternionic_check,
    p_minus,
    parsed_wire,
    pullback_fundamental_form,
    quaternionic_triples,
    sparse_matrix,
    transpose,
)


def eye(dim):
    return sparse_matrix(identity(dim))


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_quaternionic_check_clean(cat):
    for entry in cat.values():
        assert quaternionic_check(entry.structure.j_sparse, entry.dim, eye(entry.dim)) == []


def test_structure_rejects_dense_complex_structures(cat):
    # the Cayley-rotated hopf4's J's satisfy every quaternion relation and
    # are orthogonal, but they are no signed permutations of the basis
    _, js = parsed_wire(cayley_rotated(cat["hopf4"]))
    assert quaternionic_check(js, 4, eye(4)) == []
    with pytest.raises(ValueError, match="J1 is not a signed permutation"):
        HyperhermitianStructure(4, js)


def test_structure_rejects_scaled_signed_permutations(cat):
    # one nonzero per row and column is not enough: each must be +-1
    j1, j2, j3 = cat["torus4"].structure.j_sparse
    doubled = {r: {c: 2 * x for c, x in row.items()} for r, row in j2.items()}
    with pytest.raises(ValueError, match="J2 is not a signed permutation"):
        HyperhermitianStructure(4, (j1, doubled, j3))


def test_quaternionic_check_reports_violations(cat):
    h = cat["torus4"].structure
    _, j2, j3 = h.j_sparse
    issues = quaternionic_check((eye(4), j2, j3), h.dim, eye(4))
    assert "J1^2 != -identity" in issues
    assert any("J1*J2" in msg for msg in issues)


def test_quaternionic_check_metric_compatibility(cat):
    # torus4's J's in the basis (e0, 2 e1, e2, 2 e3): still a quaternion
    # triple, orthogonal for that basis's metric diag(1, 4, 1, 4) but not for
    # the identity
    half = Fraction(1, 2)
    p = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    p_inv = [[1, 0, 0, 0], [0, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, half]]
    js = tuple(
        sparse_matrix(mat_mul(p_inv, mat_mul(j, p))) for j in dense_js(cat["torus4"].structure)
    )
    assert quaternionic_check(js, 4, eye(4)) == [
        "metric not J1-invariant", "metric not J3-invariant"
    ]
    assert quaternionic_check(js, 4, sparse_matrix(mat_mul(transpose(p), p))) == []


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def perturbed_js(draw, names=ALL_NAMES):
    """The dimension and dense J's of a shipped entry, one of them with a
    flipped sign, two swapped rows or one rescaled entry."""
    entry = builtin_by_name()[draw(st.sampled_from(names))]
    dim = entry.dim
    js = [[list(row) for row in j] for j in dense_js(entry.structure)]
    index = st.integers(0, dim - 1)
    kind = draw(st.sampled_from(["none", "sign", "swap", "scale"]))
    j = js[draw(st.integers(0, 2))]
    r, c = draw(index), draw(index)
    if kind == "sign":
        c = next(col for col, x in enumerate(j[r]) if x)
        j[r][c] = -j[r][c]
    elif kind == "swap":
        j[r], j[c] = j[c], j[r]
    elif kind == "scale":
        j[r][c] = draw(small_rationals)
    return dim, tuple(js)


@given(perturbed_js())
@settings(max_examples=80)
def test_quaternionic_check_matches_dense_oracle(inputs):
    dim, js = inputs
    got = quaternionic_check(tuple(map(sparse_matrix, js)), dim, eye(dim))
    assert got == naive_quaternionic_check(js, identity(dim))


def form_or_error(build, *args):
    try:
        return repr(build(*args).comps)
    except RuntimeError as exc:
        # the oracle names a diagonal entry apart; both end the same way
        assert str(exc).endswith("compatibility broken")
        return "compatibility broken"


@pytest.mark.parametrize("name", ["hopf4", "nil8", "hc_only8"])
@given(data=st.data())
@settings(max_examples=40)
def test_fundamental_form_matches_pullback_oracle(name, data):
    dim, js = data.draw(perturbed_js((name,)))
    for j in map(sparse_matrix, js):
        if not is_signed_permutation(j, dim):
            # outside the package's domain: no structure holds such a J
            with pytest.raises(ValueError, match="not a signed permutation"):
                j_maps(j, dim)
            continue
        # the same comps, types and key order, or a compatibility error
        got = form_or_error(fundamental_form, j_maps(j, dim))
        assert got == form_or_error(pullback_fundamental_form, identity(dim), j)


def test_fundamental_forms_hopf4(cat):
    h = cat["hopf4"].structure
    f1, f2, f3 = fundamental_forms(h)
    assert f1.comps == {(0, 1): 1, (2, 3): -1}
    assert f2.comps == {(0, 2): 1, (1, 3): 1}
    assert f3.comps == {(0, 3): 1, (1, 2): -1}


def test_nijenhuis_vanishes_on_catalog(cat):
    for name in HKT_NAMES + ("hc_only8",):
        entry = cat[name]
        for j in entry.structure.permutations:
            cube, form = nijenhuis(entry.lie, j)
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
    cube, form = nijenhuis(alg, j_maps(sparse_matrix(j), 8))
    assert form is not None and not form.is_zero()
    for a in range(8):
        for b in range(8):
            ea = [1 if r == a else 0 for r in range(8)]
            eb = [1 if r == b else 0 for r in range(8)]
            assert [cube.get((a, b, k), 0) for k in range(8)] == naive_nijenhuis_vec(alg, j, ea, eb)


def test_nijenhuis_normalization_pin():
    # j_twist(P^-(dF), J) = -(3/4) N fixes the factor-1 Nijenhuis convention
    alg, j = swap_structure()
    j = sparse_matrix(j)
    maps = j_maps(j, 8)
    _, n_form = nijenhuis(alg, maps)
    f = fundamental_form(maps)
    minus_part = p_minus(ce_differential(alg, f), j)
    assert j_twist(minus_part, maps).comps == form_scale(n_form, Fraction(-3, 4)).comps


def test_p_minus_projects_out_mixed_part(cat):
    h = cat["hopf4"].structure
    res = hkt_check(h, cat["hopf4"].lie)
    # an HKT torsion is of mixed type for each complex structure
    for j in h.j_sparse:
        assert p_minus(res.torsion, j).is_zero()


def test_kt_torsion_requires_skew_nijenhuis():
    heis = LieAlgebra(4, {(1, 2): {3: 1}})
    h = builtin_by_name()["torus4"].structure
    assert hkt_check(h, heis).first_nonintegrable == 1
    j1, j2, j3 = h.permutations
    with pytest.raises(ValueError, match="not totally skew"):
        kt_torsion(j1, heis, nijenhuis(heis, j1)[1])
    with pytest.raises(ValueError, match="not totally skew"):
        kt_torsion(j2, heis, nijenhuis(heis, j2)[1])
    # the third complex structure happens to be integrable here
    cube, form = nijenhuis(heis, j3)
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
        conn = bismut_connection(t, levi_civita(entry.lie))
        assert all(is_g_skew(op) for op in conn.operators)
        _, tform = torsion(conn, entry.lie)
        assert tform is not None and tform.comps == t.comps
        # nabla J_s = 0: every operator of the connection commutes with J1, J2, J3
        assert all(glnh_membership(op, entry.structure) for op in conn.operators)


def test_preserves_endomorphism_matches_dense_oracle(cat):
    for name, entry in cat.items():
        h = entry.structure
        conn = levi_civita(entry.lie)
        for i, op in enumerate(conn.operators):
            want = dense_glnh_membership(dense_matrix(op, entry.dim), h)
            assert glnh_membership(op, h) == want, (name, i)
        got = all(glnh_membership(op, h) for op in conn.operators)
        for j in dense_js(h):
            assert got == naive_preserves_endomorphism(conn, j), name
            # only on the abelian tori is the Levi-Civita connection flat
            assert got == name.startswith("torus"), name


def test_bismut_vanishes_on_hopf4(cat, torsions):
    conn = bismut_connection(torsions["hopf4"], levi_civita(cat["hopf4"].lie))
    assert conn.gamma == {}


def test_type_identities_hold_on_hkt_entries(cat, torsions):
    for name in HKT_NAMES:
        res = type_check_12_21(torsions[name], cat[name].structure)
        assert res is None, (name, res)


def test_single_family_failure_is_the_least_cell_of_the_dense_residual(cat):
    # e^{014} on hopf8's structure fails the J2 identity first; the row's
    # counterexample is the least nonzero cell of the dense residual
    # c - c(J., J., .) - c(J., ., J.) - c(., J., J.)
    h, t = cat["hopf8"].structure, KForm(8, 3, {(0, 1, 4): 1})
    got = type_check_12_21(t, h)
    assert got == ("single", (2,), (0, 1, 4), 1)
    one = identity(8)
    residuals = []
    for j in dense_js(h):
        terms = ((1, one, one, one), (-1, j, j, one), (-1, j, one, j), (-1, one, j, j))
        residual: dict = {}
        for f, *maps in terms:
            residual = cube_add(residual, cube_scale(naive_cube_pullback(t.cube, *maps), f))
        residuals.append(residual)
    assert residuals[0] == {} and residuals[1] != {}
    least = min(residuals[1])
    assert got == ("single", (2,), least, residuals[1][least])


def test_mixed_family_orientation_pin(cat, torsions):
    # the mixed three-structure identity holds exactly for the anti-cyclic
    # triples and fails for the cyclic ones; hopf4 is the witness
    h = cat["hopf4"].structure
    c = torsions["hopf4"].cube
    assert MIXED_TRIPLES == ((1, 3, 2), (2, 1, 3), (3, 2, 1))
    for triple in MIXED_TRIPLES:
        assert mixed_type_residual(c, h, triple) == {}, triple
    cyclic_residual = mixed_type_residual(c, h, (1, 2, 3))
    assert cyclic_residual[(0, 1, 1)] == 4
    for triple in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert mixed_type_residual(c, h, triple) != {}, triple


def single_family_solutions(h):
    """A basis of the 3-forms that satisfy the (1,2)+(2,1)-type identity for
    every J_s: the nullspace, over the basis 3-forms, of one equation per
    J_s and sorted cell of the residual (a 3-form, so the sorted cells
    carry it), each basis form's residual computed once per J_s."""
    triples = list(combinations(range(h.dim), 3))
    js = tuple(j.rows for j in h.permutations)
    equations: dict = {}
    for m, idx in enumerate(triples):
        c = KForm(h.dim, 3, {idx: 1}).cube
        for s, j in enumerate(js):
            residual = cube_pullback(
                c, (1, None, None, None), (-1, j, j, None), (-1, j, None, j), (-1, None, j, j)
            )
            for cell, value in residual.items():
                if cell[0] < cell[1] < cell[2]:
                    equations.setdefault((s, cell), {})[m] = value
    basis = nullspace(list(equations.values()), len(triples))
    return [KForm(h.dim, 3, {triples[m]: x for m, x in vec.items()}) for vec in basis]


@pytest.mark.parametrize(
    "name, solutions",
    [("H1", 4), ("H2", 40), ("H3", 140), ("H4", 336), ("hopf8", 40), ("su3", 40)],
)
def test_single_family_implies_the_mixed_family(cat, su3, name, solutions):
    # the package checks only the single family: on the standard structure
    # of H^n, n = 1..4, and on two entries with their own J's, every 3-form
    # that satisfies it satisfies the mixed family of the oracle too
    own = {"hopf8": cat["hopf8"].structure, "su3": su3.structure}
    h = own[name] if name in own else _standard_structure(int(name[1:]))
    basis = single_family_solutions(h)
    assert len(basis) == solutions
    for form in basis:
        assert type_check_12_21(form, h) is None, form.comps
        for triple in MIXED_TRIPLES:
            assert mixed_type_residual(form.cube, h, triple) == {}, (triple, form.comps)


def test_the_cyclic_mixed_family_is_not_implied():
    # the certificate above is not vacuous: on H^1 the single family does not
    # imply the cyclic orientation, which hopf4's torsion already breaks
    h = _standard_structure(1)
    basis = single_family_solutions(h)
    assert any(mixed_type_residual(form.cube, h, (1, 2, 3)) for form in basis)


def assert_same_nijenhuis(got, want):
    """The same cube and the same 3-form reading (or None), by value."""
    (cube, form), (want_cube, want_form) = got, want
    assert cube == want_cube
    assert (form is None) == (want_form is None)
    if form is not None:
        assert form.comps == want_form.comps


def assert_hkt_tensors_match_dense_oracle(alg, h):
    """nijenhuis and the j_twist of each dF, read from the J's relabels,
    against the dense oracles on its dense copy, by value."""
    for j, dense in zip(h.permutations, dense_js(h)):
        assert_same_nijenhuis(nijenhuis(alg, j), naive_nijenhuis(alg, dense))
        df = ce_differential(alg, fundamental_form(j))
        assert j_twist(df, j).comps == naive_j_twist(df, dense).comps


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hkt_tensors_match_dense_oracle_on_builtins(cat, name):
    entry = cat[name]
    assert_hkt_tensors_match_dense_oracle(entry.lie, entry.structure)


@pytest.mark.parametrize("first, second", [("nil8", "hopf4"), ("hc_only8", "torus4")])
def test_hkt_tensors_match_dense_oracle_on_sums(cat, tmp_path, first, second):
    entry = direct_sum_entry(cat[first], cat[second], tmp_path)
    assert_hkt_tensors_match_dense_oracle(entry.lie, entry.structure)


def test_swap_structure_tensors_match_dense_oracle():
    alg, j = swap_structure()
    sj = j_maps(sparse_matrix(j), 8)
    assert_same_nijenhuis(nijenhuis(alg, sj), naive_nijenhuis(alg, j))
    df = ce_differential(alg, fundamental_form(sj))
    assert j_twist(df, sj).comps == naive_j_twist(df, j).comps


# Mostly zeros, int and Fraction ones, so that the sparse sums meet mixed
# int and Fraction terms and zeros that the dense sums read.
mixed_scalars = st.sampled_from([0, 0, Fraction(0), 1, -1, 2, Fraction(1), Fraction(-1, 2)])


@st.composite
def rational_inputs(draw):
    """A bracket table, a rational J (any matrix, not only a signed
    permutation) and a 3-form, all with mixed int and Fraction entries."""
    dim = draw(st.integers(min_value=3, max_value=6))
    square = st.lists(mixed_scalars, min_size=dim, max_size=dim)
    j = draw(st.lists(square, min_size=dim, max_size=dim))
    pairs = st.sampled_from(list(combinations(range(dim), 2)))
    targets = st.dictionaries(st.integers(0, dim - 1), mixed_scalars, max_size=3)
    alg = LieAlgebra(dim, draw(st.dictionaries(pairs, targets, max_size=2 * dim)))
    triples = st.sampled_from(list(combinations(range(dim), 3)))
    form = KForm(dim, 3, draw(st.dictionaries(triples, mixed_scalars, max_size=6)))
    return alg, j, form


@given(rational_inputs())
@settings(max_examples=80, deadline=None)
def test_hkt_tensors_match_dense_oracle_on_rational_j(inputs):
    # the matrix references, which the package's relabel kernels are
    # compared with on signed permutations below
    alg, j, form = inputs
    sj, dense = sparse_matrix(j), [[x or 0 for x in row] for row in j]
    assert_same_nijenhuis(matrix_nijenhuis(alg, sj), naive_nijenhuis(alg, dense))
    assert matrix_j_twist(form, sj).comps == naive_j_twist(form, dense).comps


# Candidate torsions against the dense route J dF + N: bracket tables with
# int and Fraction constants, some of which cancel, and no Jacobi identity
# (kt_torsion reads none), on every quaternionic signed-permutation triple
# of R^4 and on relabelled block sums of two of them on R^8.
TRIPLES_4 = quaternionic_triples()
torsion_scalars = st.sampled_from(
    [1, -1, 2, -3, Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
)


def bracket_tables(dim):
    pairs = st.sampled_from(list(combinations(range(dim), 2)))
    targets = st.dictionaries(st.integers(0, dim - 1), torsion_scalars, min_size=1, max_size=3)
    return st.dictionaries(pairs, targets, max_size=3 * dim).map(lambda b: LieAlgebra(dim, b))


def three_forms(dim):
    triples = st.sampled_from(list(combinations(range(dim), 3)))
    return st.dictionaries(triples, torsion_scalars, max_size=6).map(lambda c: KForm(dim, 3, c))


def dense_torsion(alg, j, dense, n_form):
    """T = J dF + N by the dense route: dF read off every basis triple,
    twisted through the dense J, then N added."""
    if n_form is None:
        raise ValueError(
            "no compatible skew-torsion connection: Nijenhuis tensor is not totally skew"
        )
    return form_add(naive_j_twist(naive_ce_differential(alg, fundamental_form(j)), dense), n_form)


def torsion_outcome(build, *args):
    """The built form's components in order, each with its type, or the
    error raised."""
    try:
        form = build(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return [(idx, type(v), v) for idx, v in form.comps.items()]


def assert_torsion_matches_dense_route(alg, js, n_forms, flip):
    """kt_torsion of each J, with J's own Nijenhuis reading (a form or None)
    and with each of n_forms, equals the dense route, and so does each J
    with the sign of row `flip` negated, which is no longer skew."""
    dim = alg.dim
    for j in js:
        bent = {r: {c: -x if r == flip else x for c, x in row.items()} for r, row in j.items()}
        for m in (j, bent):
            maps, dense = j_maps(m, dim), dense_matrix(m, dim)
            for n_form in (nijenhuis(alg, maps)[1], None, *n_forms):
                got = torsion_outcome(kt_torsion, maps, alg, n_form)
                assert got == torsion_outcome(dense_torsion, alg, maps, dense, n_form)


@pytest.mark.parametrize("t", range(len(TRIPLES_4)))
@given(
    alg=bracket_tables(4),
    n_forms=st.lists(three_forms(4), max_size=2),
    flip=st.integers(0, 3),
)
@settings(max_examples=6, deadline=None)
def test_kt_torsion_matches_dense_route_on_quaternionic_triples(t, alg, n_forms, flip):
    assert len(TRIPLES_4) == 48
    assert quaternion_relations(HyperhermitianStructure(4, TRIPLES_4[t])) == []
    assert_torsion_matches_dense_route(alg, TRIPLES_4[t], n_forms, flip)


@given(
    pair=st.tuples(st.sampled_from(TRIPLES_4), st.sampled_from(TRIPLES_4)),
    pi=st.permutations(range(8)),
    eps=st.lists(st.sampled_from((1, -1)), min_size=8, max_size=8),
    alg=bracket_tables(8),
    n_forms=st.lists(three_forms(8), max_size=2),
    flip=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_kt_torsion_matches_dense_route_on_relabelled_block_sums(pair, pi, eps, alg, n_forms, flip):
    # J1 + J2 block-diagonal, then P J P^-1 for the signed permutation
    # e_x -> eps[x] e_pi[x]: a quaternionic triple of R^8
    first, second = pair
    js = []
    for a, b in zip(first, second):
        block = {**a, **{r + 4: {c + 4: x for c, x in row.items()} for r, row in b.items()}}
        js.append(
            {pi[y]: {pi[x]: eps[x] * v * eps[y] for x, v in row.items()} for y, row in block.items()}
        )
    assert quaternion_relations(HyperhermitianStructure(8, tuple(js))) == []
    assert_torsion_matches_dense_route(alg, js, n_forms, flip)


def seeded_algebra(dim, seed):
    """A seeded bracket table (no Jacobi identity needed by the kernels)."""
    rng = random.Random(seed)
    brackets: dict = {}
    for _ in range(2 * dim):
        i, j = sorted(rng.sample(range(dim), 2))
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        brackets.setdefault((i, j), {})[rng.randrange(dim)] = value
    return LieAlgebra(dim, brackets)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_nijenhuis_and_relations_match_matrix_references(su3, name):
    # nijenhuis and the relations on the J's relabels against the matrix
    # reference and sparse products on the J's sparse matrices: on every
    # catalog structure, su3 and seeded signed-permutation triples, most of
    # which break a quaternion relation
    h, algs = kernel_structure(name, su3)
    for alg in algs + [seeded_algebra(h.dim, k) for k in range(3)]:
        for maps, j in zip(h.permutations, h.j_sparse):
            assert_same_nijenhuis(nijenhuis(alg, maps), matrix_nijenhuis(alg, j))
    assert quaternion_relations(h) == quaternionic_check(h.j_sparse, h.dim, eye(h.dim))
