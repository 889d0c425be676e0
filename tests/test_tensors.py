import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab.catalog import builtin_by_name
from hktlab.linalg import identity, sparse_transpose
from hktlab.tensors import (
    KForm,
    cube_add,
    cube_j_trace,
    cube_pullback,
    cube_scale,
    cube_to_form,
    form_to_matrix,
    j_pullback,
    j_trace,
    j_twist,
    norm_sq,
    norm_weight,
    perm_sign,
    wedge,
)

from oracle_impl import (
    KERNEL_CASES,
    basis_form,
    cube_map_output,
    dense_matrix,
    form_add,
    form_scale,
    kernel_structure,
    mat_mul,
    matrix_cube_j_trace,
    matrix_cube_pullback,
    matrix_j_pullback,
    matrix_j_trace,
    matrix_j_twist,
    naive_cube_pullback,
    naive_kform_comps,
    naive_wedge_eval,
    row_images,
    seeded_signed_permutation,
    sparse_matrix,
    transpose,
)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def random_form(dim, degree):
    from itertools import combinations

    keys = list(combinations(range(dim), degree))
    return st.lists(rationals, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: KForm(dim, degree, {k: v for k, v in zip(keys, vals) if v})
    )


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_kform_validates_indices():
    with pytest.raises(ValueError, match=re.escape("index tuple (0, 3) out of range")):
        KForm(3, 2, {(0, 3): 1})
    with pytest.raises(ValueError, match=re.escape("index tuple (1, 0) not strictly increasing")):
        KForm(3, 2, {(1, 0): 1})
    with pytest.raises(ValueError, match=re.escape("index tuple (0,) has wrong length")):
        KForm(3, 2, {(0,): 1})


@pytest.mark.parametrize(
    "dim, degree, idx, message",
    [
        # length before range and order, range before order
        (3, 2, (0,), "index tuple (0,) has wrong length"),
        (16, 2, (5, 20, 3), "index tuple (5, 20, 3) has wrong length"),
        (16, 3, (5, 20, 3), "index tuple (5, 20, 3) out of range"),
        (4, 2, (-1, 0), "index tuple (-1, 0) out of range"),
        (4, 2, (2, 2), "index tuple (2, 2) not strictly increasing"),
        (4, 2, (3, 1), "index tuple (3, 1) not strictly increasing"),
        (4, 2, (), "index tuple () has wrong length"),
    ],
)
def test_kform_rejects_with_the_first_failing_rule(dim, degree, idx, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KForm(dim, degree, {tuple(range(degree)): 1, idx: 1})


def test_kform_accepts_the_empty_tuple_at_degree_zero():
    assert KForm(4, 0, {(): 3}).comps == {(): 3}
    assert KForm(4, 0, {(): 0}).comps == {}


@st.composite
def index_tables(draw):
    """A dim, a degree 0..4 and index tuples: sorted valid ones, ones with
    one entry moved to a negative, too large, repeated or swapped value,
    and free ones of length degree - 1..degree + 1."""
    dim = draw(st.integers(1, 16))
    degree = draw(st.integers(0, min(4, dim)))
    valid = st.sets(st.integers(0, dim - 1), min_size=degree, max_size=degree).map(sorted)

    def perturbed(idx):
        if not idx:
            return st.just(())
        k = st.integers(0, len(idx) - 1)
        values = st.sampled_from([-2, -1, dim, dim + 1, *idx])
        moved = st.tuples(k, values).map(lambda kv: (*idx[: kv[0]], kv[1], *idx[kv[0] + 1 :]))
        return st.one_of(moved, st.permutations(idx).map(tuple))

    free = st.lists(st.integers(-2, dim + 1), min_size=max(degree - 1, 0), max_size=degree + 1)
    keys = st.one_of(valid.map(tuple), valid.flatmap(perturbed), free.map(tuple))
    comps = draw(st.dictionaries(keys, st.one_of(st.just(0), rationals), max_size=6))
    return dim, degree, comps


@given(index_tables())
@settings(max_examples=100, deadline=None)
def test_kform_validator_matches_the_three_scan_reference(table):
    dim, degree, comps = table
    try:
        want = naive_kform_comps(dim, degree, comps)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            KForm(dim, degree, comps)
    else:
        got = KForm(dim, degree, comps).comps
        assert list(got.items()) == list(want.items())


def test_kform_drops_zero_components():
    f = KForm(3, 2, {(0, 1): 0, (0, 2): 5})
    assert f.comps == {(0, 2): 5}
    assert not f.is_zero()
    assert KForm(3, 2).is_zero()


def test_evaluate_signs_and_repeats():
    f = basis_form(4, (0, 2), 3)
    assert f.evaluate((0, 2)) == 3
    assert f.evaluate((2, 0)) == -3
    assert f.evaluate((0, 0)) == 0
    assert f.evaluate((1, 3)) == 0


def test_wedge_basis_forms():
    e01 = wedge(basis_form(4, (0,)), basis_form(4, (1,)))
    assert e01.comps == {(0, 1): 1}
    e0123 = wedge(e01, wedge(basis_form(4, (2,)), basis_form(4, (3,))))
    assert e0123.comps == {(0, 1, 2, 3): 1}
    assert wedge(basis_form(4, (0,)), basis_form(4, (0,))).is_zero()


def test_wedge_degree_overflow():
    with pytest.raises(ValueError, match="degree"):
        wedge(basis_form(2, (0, 1)), basis_form(2, (0,)))


@given(random_form(4, 1), random_form(4, 2))
@settings(max_examples=40)
def test_wedge_against_permutation_sum(a, b):
    w = wedge(a, b)
    from itertools import combinations

    for idx in combinations(range(4), 3):
        assert w.evaluate(idx) == naive_wedge_eval(a, b, idx)


@given(random_form(5, 2), random_form(5, 1))
@settings(max_examples=40)
def test_wedge_graded_anticommutativity(a, b):
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    sign = (-1) ** (a.degree * b.degree)
    assert lhs.comps == form_scale(rhs, sign).comps


@given(random_form(4, 1), random_form(4, 1), random_form(4, 1))
@settings(max_examples=30)
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c).comps == wedge(a, wedge(b, c)).comps


@given(random_form(4, 2), random_form(4, 2), random_form(4, 1))
@settings(max_examples=30)
def test_wedge_bilinear(a, b, c):
    lhs = wedge(form_add(a, b), c)
    rhs = form_add(wedge(a, c), wedge(b, c))
    assert lhs.comps == rhs.comps


def test_norm_convention_is_full_index_sum():
    # |e^{012}|^2 counts all 3! index orderings
    assert norm_weight(3) == 6
    assert norm_sq(basis_form(4, (0, 1, 2))) == 6
    assert norm_sq(basis_form(4, (0,), 2)) == 4
    assert norm_sq(KForm(4, 2)) == 0


def test_form_cube_round_trip():
    f = KForm(4, 3, {(0, 1, 2): Fraction(5, 2), (1, 2, 3): -1})
    cube = f.cube
    assert cube[(0, 1, 2)] == Fraction(5, 2)
    assert cube[(1, 0, 2)] == Fraction(-5, 2)
    assert cube_to_form(cube, 4).comps == f.comps


def test_cube_to_form_rejects_non_skew():
    cube = {(0, 1, 2): 1}
    assert cube_to_form(cube, 3) is None


def test_cube_pullback_identity_slots():
    f = basis_form(4, (0, 1, 2))
    cube = f.cube
    assert cube_pullback(cube, (1, None, None, None)) == cube
    minus = {i: (i, -1) for i in range(4)}
    assert cube_pullback(cube, (1, minus, minus, minus))[(0, 1, 2)] == -1
    assert cube_pullback(cube) == {}
    # the matrix reference also takes {} as the zero map
    zero = row_images({})
    assert matrix_cube_pullback(cube, (1, zero, None, None)) == {}
    assert matrix_cube_pullback(cube, (1, None, None, None), (1, None, zero, None)) == cube


# small values, so that sums of products cancel often
small = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])
random_cube = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), small.filter(bool) | rationals.filter(bool), max_size=12
)
random_matrix = st.lists(st.lists(small, min_size=4, max_size=4), min_size=4, max_size=4)


@given(
    random_cube, random_form(4, 3), random_matrix, random_matrix, small | rationals, st.integers()
)
@settings(max_examples=60)
def test_cube_results_store_no_zero(cube, form, m1, m2, s, seed):
    negated = cube_scale(cube, -1)
    assert cube_add(cube, negated) == {}
    s1, s2 = row_images(sparse_matrix(m1)), row_images(sparse_matrix(m2))
    (_, r1), (_, r2) = (seeded_signed_permutation(seed + k, 4) for k in range(2))
    results = [
        form.cube,
        cube_scale(cube, s),
        cube_scale(cube, 0),
        negated,
        cube_add(cube, form.cube),
        cube_add(cube, matrix_cube_pullback(cube, (1, s1, s1, s1))),
        matrix_cube_pullback(cube, (1, s1, None, None)),
        matrix_cube_pullback(cube, (1, None, s1, s2)),
        matrix_cube_pullback(cube, (1, s2, s1, s2)),
        cube_map_output(cube, m1),
        cube_map_output(matrix_cube_pullback(cube, (1, s2, None, None)), m1),
        cube_add(cube, cube_pullback(cube, (1, r1.rows, r1.rows, r1.rows))),
        cube_pullback(cube, (1, r1.rows, None, r2.cols), (-1, None, r2.rows, r1.cols)),
    ]
    for result in results:
        assert 0 not in result.values()


# a map of a pullback term: None (the identity), the zero map, a dense one
pullback_map = st.sampled_from([None, [[0] * 4] * 4]) | random_matrix
pullback_term = st.tuples(small | rationals, pullback_map, pullback_map, pullback_map)


@given(random_cube, st.lists(pullback_term, max_size=4))
@settings(max_examples=80, deadline=None)
def test_cube_pullback_matches_dense_oracle(cube, terms):
    # the matrix reference: the sum of one dense pullback per term, each
    # scaled by its coefficient
    eye = identity(4)
    want, sparse_terms = {}, []
    for f, *maps in terms:
        dense = (eye if m is None else m for m in maps)
        want = cube_add(want, cube_scale(naive_cube_pullback(cube, *dense), f))
        sparse_terms.append((f, *(None if m is None else row_images(sparse_matrix(m)) for m in maps)))
    assert matrix_cube_pullback(cube, *sparse_terms) == want


@given(random_cube, st.lists(st.tuples(small | rationals, st.integers(0, 2**16)), max_size=4))
@settings(max_examples=80, deadline=None)
def test_cube_pullback_on_relabels_matches_the_matrix_reference(cube, terms):
    # the package's relabel kernel on seeded signed permutations, each slot
    # through J (its rows) or J^T (its cols), against the matrix reference,
    # which the test above holds to the dense pullbacks
    want_terms, relabel_terms = [], []
    for k, (f, seed) in enumerate(terms):
        transposed = k % 2 == 1
        # a slot whose seed is 0 mod 4 is the identity
        seeds = [seed + m for m in range(3)]
        maps = [None if n % 4 == 0 else seeded_signed_permutation(n, 4) for n in seeds]
        dense = [None if m is None else transpose(m[0]) if transposed else m[0] for m in maps]
        rows = [None if m is None else row_images(sparse_matrix(m)) for m in dense]
        want_terms.append((f, *rows))
        relabels = [None if m is None else m[1].cols if transposed else m[1].rows for m in maps]
        relabel_terms.append((f, *relabels))
    assert cube_pullback(cube, *relabel_terms) == matrix_cube_pullback(cube, *want_terms)


def test_j_twist_known():
    # out(X,Y,Z) = -a(JX, JY, JZ) for the quaternionic block J1
    h = builtin_by_name()["hopf4"].structure
    a = basis_form(4, (0, 2, 3), 2)
    tw = j_twist(a, h.permutations[0])
    # J1: e0 -> -e1, e2 -> e3, e3 -> -e2; -a(J e1, J e2, J e3) = -a(e0, e3, -e2)
    assert tw.evaluate((1, 2, 3)) == -a.evaluate((0, 3, 2)) * -1


def test_orthonormal_frame_off_diagonal():
    # g = [[1, 1], [1, 2]] + I_2 = P^T P in the basis given by the columns of
    # P = I + E_01, with the block J's carried along (P^-1 J P): the frame
    # the loader rebases to is g-orthonormal, its inverse rows are g f_a,
    # and every J becomes a signed permutation in it, the one it returns
    from hktlab.catalog import _quaternionic_frame

    p = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    p_inv = [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    g = mat_mul(transpose(p), p)
    assert g[0][1] == g[1][0] == 1 and g[1][1] == 2
    block = [
        [[j.get(r, {}).get(c, 0) for c in range(4)] for r in range(4)]
        for j in builtin_by_name()["hopf4"].structure.j_sparse
    ]
    js = [mat_mul(p_inv, mat_mul(j, p)) for j in block]
    frame, inverse, j_frame = _quaternionic_frame(sparse_matrix(g), tuple(map(sparse_matrix, js)), 4)
    rows = [[frame[a].get(i, 0) for i in range(4)] for a in range(4)]
    for a, fa in enumerate(rows):
        for b, fb in enumerate(rows):
            val = sum(fa[i] * g[i][j] * fb[j] for i in range(4) for j in range(4))
            assert val == (1 if a == b else 0)
        assert inverse[a] == sparse_matrix([[sum(g[i][j] * fa[j] for j in range(4))
                                             for i in range(4)]])[0]
    lowered = [[inverse[a].get(i, 0) for i in range(4)] for a in range(4)]
    for j, read_off in zip(js, j_frame):
        rebased = mat_mul(lowered, mat_mul(j, transpose(rows)))
        for row in rebased:
            assert sorted(map(abs, row)) == [0, 0, 0, 1]
        assert sparse_matrix(rebased) == read_off


mixed_cells = st.sampled_from([0, 0, 0, Fraction(0), 1, -1, 2, Fraction(1), Fraction(-1, 2)])


@st.composite
def square_triples(draw):
    n = draw(st.integers(2, 5))
    square = st.lists(st.lists(mixed_cells, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square), draw(square)


@given(square_triples(), st.data())
@settings(max_examples=60)
def test_bilinear_contractions_match_dense_sums(matrices, data):
    # sparse B (not antisymmetric) and a rational J: the matrix references'
    # J-trace and J^T B J against dense sums, their cube J-contraction
    # against a sum over every index, and a 2-form read as its matrix
    # against KForm.evaluate; the package's relabel kernels on a drawn
    # signed permutation against the same sums
    b, j, _ = matrices
    dim = len(b)
    sb, sj = sparse_matrix(b), sparse_matrix(j)
    index = st.integers(0, dim - 1)
    nonzero = rationals.filter(bool)
    cube = data.draw(st.dictionaries(st.tuples(index, index, index), nonzero, max_size=2 * dim))
    perm, maps = seeded_signed_permutation(data.draw(st.integers()), dim)
    for kernels, m in (((matrix_j_trace, matrix_j_pullback, matrix_cube_j_trace), sj),
                       ((j_trace, j_pullback, cube_j_trace), maps)):
        trace, pullback, contraction = kernels
        dense = j if m is sj else perm
        assert trace(sb, m) == sum(dense[p][a] * b[a][p] for a in range(dim) for p in range(dim))
        assert pullback(sb, m) == sparse_matrix(mat_mul(transpose(dense), mat_mul(b, dense)))
        want = {
            r: total
            for r in range(dim)
            if (total := sum(
                cube.get((r, a, p), 0) * dense[p][a] for a in range(dim) for p in range(dim)
            ))
        }
        assert contraction(cube, m) == want
    pairs = st.sampled_from([(x, y) for x in range(dim) for y in range(x + 1, dim)])
    form = KForm(dim, 2, data.draw(st.dictionaries(pairs, nonzero, max_size=dim)))
    dense = [[form.evaluate((x, y)) for y in range(dim)] for x in range(dim)]
    assert form_to_matrix(form) == sparse_matrix(dense)


def drawn_data(h, seed):
    """A seeded cube, bilinear form and 3-form over the structure's frame."""
    rng = random.Random(seed)
    dim = h.dim

    def value():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))

    cube = {tuple(rng.randrange(dim) for _ in range(3)): value() for _ in range(3 * dim)}
    b: dict = {}
    for _ in range(2 * dim):
        b.setdefault(rng.randrange(dim), {})[rng.randrange(dim)] = value()
    form = KForm(dim, 3, {tuple(sorted(rng.sample(range(dim), 3))): value() for _ in range(dim)})
    return cube, b, form


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_j_kernels_match_matrix_references(su3, name):
    # each relabel kernel against its matrix reference on each J of the
    # structure, on seeded data: a cube, a bilinear form and a 3-form
    h, _ = kernel_structure(name, su3)
    for seed in range(5):
        cube, b, form = drawn_data(h, seed)
        for maps, j in zip(h.permutations, h.j_sparse):
            rows, cols = row_images(j), row_images(sparse_transpose(j))
            rj, cj = maps
            terms = [(1, rj, None, cj), (-1, rj, rj, None), (2, None, None, None)]
            matrix_terms = [(1, rows, None, cols), (-1, rows, rows, None), (2, None, None, None)]
            assert cube_pullback(cube, *terms) == matrix_cube_pullback(cube, *matrix_terms)
            assert j_pullback(b, maps) == matrix_j_pullback(b, j)
            assert j_trace(b, maps) == matrix_j_trace(b, j)
            assert cube_j_trace(cube, maps) == matrix_cube_j_trace(cube, j)
            assert j_twist(form, maps).comps == matrix_j_twist(form, j).comps
