from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab import linalg
from hktlab.linalg import (
    LinAlgError,
    RowSpan,
    nullspace,
    rref,
    solve_pairs,
    sparse_commutator,
    sparse_product,
    sparse_subtract,
    sparse_trace,
)
from oracle_impl import (
    mat_mul,
    mat_vec,
    commutator,
    dense,
    dense_matrix,
    fraction_solve_unique,
    invert,
    is_canonical,
    naive_nullspace,
    naive_rref,
    naive_solve_unique,
    rank,
    rational,
    solve_unique,
    sparse,
    sparse_matrix,
    trace,
    whole_graph_solve_pairs,
)

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


def system(a, b):
    """Sparse rows of the augmented matrix [a | b]."""
    return [sparse(list(row) + [bv]) for row, bv in zip(a, b)]


def square(n, entries=rationals):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_rref_known():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert reduced[0] == [1, 0, 1]
    assert reduced[1] == [0, 1, 1]
    assert reduced[2] == [0, 0, 0]


def test_rank_and_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(a) == 2
    basis = nullspace([sparse(r) for r in a], 3)
    assert len(basis) == 1
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, dense(v, 3)))


def test_solve_unique_exact():
    a = [[2, 1], [1, 3]]
    x, scale, _ = solve_unique(system(a, [5, 10]), 2)
    assert (x, scale) == ({0: 1, 1: 3}, 1)
    assert mat_vec(a, dense(rational(x, scale), 2)) == [Fraction(5), Fraction(10)]


def test_solve_inconsistent():
    with pytest.raises(LinAlgError, match="no solution"):
        solve_unique(system([[1, 1], [1, 1]], [1, 2]), 2)


def test_solve_underdetermined():
    with pytest.raises(LinAlgError, match="not unique"):
        solve_unique(system([[1, 1], [2, 2]], [1, 2]), 2)


def test_invert_known():
    a = [[2, 1], [1, 1]]
    assert mat_mul(a, invert(a)) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_invert_singular():
    with pytest.raises(LinAlgError):
        invert([[1, 1], [1, 1]])


@given(square(3))
@settings(max_examples=40)
def test_rank_bounds_and_nullity(a):
    r = rank(a)
    assert 0 <= r <= 3
    assert len(nullspace([sparse(row) for row in a], 3)) == 3 - r


@given(square(3))
@settings(max_examples=30)
def test_invert_round_trip(a):
    if rank(a) < 3:
        return
    assert mat_mul(a, invert(a)) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


@given(square(2), square(2))
@settings(max_examples=30)
def test_commutator_trace_free(a, b):
    assert trace(commutator(a, b)) == 0


@st.composite
def mostly_zero_pairs(draw):
    """Two n x n matrices (n <= 8) with at most 2n nonzero cells each,
    int and Fraction entries mixed."""
    n = draw(st.integers(min_value=1, max_value=8))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = st.one_of(st.integers(-3, 3), rationals)

    def matrix():
        cells = draw(st.dictionaries(cell, entries, max_size=2 * n))
        return [[cells.get((i, j), 0) for j in range(n)] for i in range(n)]

    return matrix(), matrix()


def stores_no_zero(m):
    return all(row and all(row.values()) for row in m.values())


@given(mostly_zero_pairs(), st.integers(-2, 2))
@settings(max_examples=80)
def test_sparse_kernels_match_dense(pair, f):
    a, b = pair
    n = len(a)
    sa, sb = sparse_matrix(a), sparse_matrix(b)
    assert stores_no_zero(sa) and dense_matrix(sa, n) == a
    # against the dense copy: a sparse matrix keeps no Fraction(0)
    got_trace, want_trace = sparse_trace(sa), trace(dense_matrix(sa, n))
    assert (got_trace, type(got_trace)) == (want_trace, type(want_trace))
    a_squared = sparse_matrix(mat_mul(a, a))
    for x, y in ((sa, sb), (sb, sa), (sa, a_squared)):
        got = sparse_commutator(x, y)
        assert stores_no_zero(got)
        assert dense_matrix(got, n) == commutator(dense_matrix(x, n), dense_matrix(y, n))
    for x, y in ((sa, sb), (sb, sa), (sa, sa)):
        got = sparse_product(x, y)
        assert stores_no_zero(got)
        assert dense_matrix(got, n) == mat_mul(dense_matrix(x, n), dense_matrix(y, n))
    # commuting pairs cancel to the empty matrix
    assert sparse_commutator(sa, sa) == {}
    assert sparse_commutator(sa, a_squared) == {}
    target = sparse_matrix(a)
    sparse_subtract(target, f, sb)
    assert stores_no_zero(target)
    assert dense_matrix(target, n) == [[x - f * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    sparse_subtract(target, -f, sb)
    sparse_subtract(target, 1, sa)
    assert target == {}


def in_span(span, row):
    """Whether the dense row lies in the row space of the span's stored
    rows, by the rank oracle."""
    stored = [dense(r, len(row)) for r in span._rows.values()]
    return rank(stored + [row]) == rank(stored)


def test_rowspan_incremental_matches_batch_rank():
    rows = [[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 3, 1]]
    span = RowSpan()
    added = [span.add(sparse(r)) for r in rows]
    assert added == [True, False, True, False]
    assert span.rank == rank(rows)
    assert in_span(span, [3, 7, 1])
    assert not in_span(span, [0, 0, 1])


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=6))
@settings(max_examples=40)
def test_rowspan_rank_agrees_with_rref(rows):
    span = RowSpan()
    for r in rows:
        span.add(sparse(r))
    assert span.rank == rank(rows)
    for r in rows:
        assert in_span(span, r) and not span.add(sparse(r))


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(sparse_rationals, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@given(sparse_matrices())
@settings(max_examples=80)
def test_rref_matches_dense_oracle(a):
    assert rref(a) == naive_rref(a)


def test_rref_and_det_bypass_rowspan_add(monkeypatch):
    calls = []
    original = linalg.RowSpan.add

    def counting_add(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(linalg.RowSpan, "add", counting_add)
    a = [[0, 2, 1], [1, 0, 3], [4, 1, 0]]
    rref(a)
    rank(a)
    invert(a)
    nullspace([sparse(r) for r in a], 3)
    assert calls == []
    assert RowSpan().add(sparse([1, 0, 0]))
    assert len(calls) == 1


@st.composite
def sparse_systems(draw):
    """(a, b) with a sparse rational a: b = a x for a drawn x (consistent,
    unique when a has full column rank) or b drawn freely (often
    inconsistent); wide or zero-heavy a makes it rank-deficient."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(sparse_rationals, min_size=cols, max_size=cols)
    a = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        b = mat_vec(a, draw(st.lists(rationals, min_size=cols, max_size=cols)))
    else:
        b = draw(st.lists(sparse_rationals, min_size=rows, max_size=rows))
    return a, b


@given(sparse_systems())
@settings(max_examples=60)
def test_solve_unique_matches_dense_oracle(system_ab):
    a, b = system_ab
    cols = len(a[0])
    try:
        want = naive_solve_unique(a, b)
    except LinAlgError as exc:
        with pytest.raises(LinAlgError) as got:
            solve_unique(system(a, b), cols)
        assert str(got.value) == str(exc)
        return
    x, scale, solved_rank = solve_unique(system(a, b), cols)
    assert dense(rational(x, scale), cols) == want
    assert 0 not in x.values()
    assert solved_rank == cols


@given(sparse_matrices())
@settings(max_examples=40)
def test_nullspace_matches_dense_oracle(a):
    cols = len(a[0])
    assert nullspace([sparse(r) for r in a], cols) == [sparse(v) for v in naive_nullspace(a)]


@given(sparse_matrices())
@settings(max_examples=40)
def test_span_readers_return_fractions(a):
    """`==` lets Fraction(1) pass for 1, so the types are checked apart:
    every rref entry, every solved value and every nullspace value off its
    free column is a Fraction."""
    reduced, pivots = rref(a)
    assert all(type(x) is Fraction for row in reduced for x in row)
    cols = len(a[0])
    free_columns = [f for f in range(cols) if f not in pivots]
    vectors = nullspace([sparse(r) for r in a], cols)
    assert len(vectors) == len(free_columns)
    for v, free in zip(vectors, free_columns):
        assert v[free] == 1 and type(v[free]) is int
        assert all(type(x) is Fraction for j, x in v.items() if j != free)


@given(sparse_systems())
@settings(max_examples=40)
def test_solve_unique_returns_canonical_ints(system_ab):
    """The solution is int entries over the least positive int scale, and
    its values are those of the per-entry Fraction read-off."""
    a, b = system_ab
    try:
        want, want_rank = fraction_solve_unique(system(a, b), len(a[0]))
    except LinAlgError:
        return
    x, scale, solved_rank = solve_unique(system(a, b), len(a[0]))
    assert is_canonical(x.values(), scale)
    assert rational(x, scale) == want and solved_rank == want_rank


def pair_rows(edges, cols):
    """The sparse rows of x_p + s x_q = b for `solve_unique`."""
    rows = []
    for p, q, s, b in edges:
        row = {p: 1, q: s}
        if b:
            row[cols] = b
        rows.append(row)
    return rows


def adjacency(edges, cols):
    """The edges (p, q, s, b) as lists of (q, s, e): equation e is the e-th
    edge, listed at both its unknowns."""
    adjacent = [[] for _ in range(cols)]
    for e, (p, q, s, _) in enumerate(edges):
        adjacent[p].append((q, s, e))
        adjacent[q].append((p, s, e))
    return adjacent


def pair_graph(edges, cols):
    """The neighbours, sparse right-hand side and classes of `solve_pairs`
    for the edges (p, q, s, b): the whole graph is one class, and only the
    edges with b != 0 enter the right-hand side."""
    adjacent = adjacency(edges, cols)
    rhs = {e: edge for e, edge in enumerate(edges) if edge[3]}
    return adjacent.__getitem__, rhs, [(dict(enumerate(adjacent)), 1)]


@st.composite
def pair_systems(draw):
    """Edges (p, q, s, b) over up to 7 unknowns: random signed graphs, so
    components balanced and not, isolated unknowns and parallel edges, with
    b = x_p + s x_q for a drawn x (consistent) or, on some edges, drawn
    freely (an inconsistent cycle when one closes); ints and Fractions."""
    cols = draw(st.integers(min_value=1, max_value=7))
    values = st.one_of(st.integers(-4, 4), rationals)
    x = draw(st.lists(values, min_size=cols, max_size=cols))
    free = draw(st.booleans())
    edges = []
    count = draw(st.integers(min_value=0, max_value=12)) if cols > 1 else 0
    for _ in range(count):
        p = draw(st.integers(0, cols - 1))
        q = draw(st.integers(0, cols - 2))
        q += q >= p
        s = draw(st.sampled_from((1, -1)))
        b = draw(values) if free and draw(st.booleans()) else x[p] + s * x[q]
        edges.append((p, q, s, b))
    return edges, cols


@given(pair_systems())
@settings(max_examples=300)
def test_solve_pairs_matches_rowspan_reference(system_pairs):
    edges, cols = system_pairs
    try:
        want = solve_unique(pair_rows(edges, cols), cols)
    except LinAlgError as exc:
        with pytest.raises(LinAlgError) as got:
            solve_pairs(*pair_graph(edges, cols))
        assert str(got.value) == str(exc)
        return
    x, scale, solved_rank = solve_pairs(*pair_graph(edges, cols))
    assert (x, scale, solved_rank) == want
    assert all(type(v) is int for v in x.values()) and type(scale) is int


def test_solve_pairs_known():
    # an odd cycle fixes its root: x0 + x1 = 3, x1 + x2 = 5, x2 + x0 = 4
    edges = [(0, 1, 1, 3), (1, 2, 1, 5), (2, 0, 1, 4)]
    assert solve_pairs(*pair_graph(edges, 3)) == ({0: 1, 1: 2, 2: 3}, 1, 3)
    # x0 - x1 = 1/2, x0 + x1 = 1 (parallel edges of opposite sign)
    edges = [(0, 1, -1, Fraction(1, 2)), (1, 0, 1, 1)]
    assert solve_pairs(*pair_graph(edges, 2)) == ({0: 3, 1: 1}, 4, 2)
    with pytest.raises(LinAlgError, match="^inconsistent system: no solution$"):
        solve_pairs(*pair_graph([(0, 1, -1, 1), (1, 2, -1, 1), (2, 0, -1, 1)], 3))


def test_solve_pairs_non_unique_rank():
    # an unbalanced triangle on 0, 1, 2; the balanced edge 3 - 4 and the
    # isolated unknown 5 each leave one root free: rank 6 - 2
    edges = [(0, 1, 1, 2), (1, 2, 1, 2), (2, 0, 1, 2), (3, 4, -1, 1)]
    message = "^solution not unique: rank 4 < 6 unknowns$"
    with pytest.raises(LinAlgError, match=message):
        solve_pairs(*pair_graph(edges, 6))
    with pytest.raises(LinAlgError, match=message):
        solve_unique(pair_rows(edges, 6), 6)
    # inconsistency is reported first, whatever the rank
    with pytest.raises(LinAlgError, match="^inconsistent system"):
        solve_pairs(*pair_graph(edges + [(4, 3, -1, 1)], 6))


@st.composite
def sparse_pair_systems(draw):
    """Edges (p, q, s, b) over up to 9 unknowns with b mostly 0, the shape
    of the torsion-free system. A drawn signature sigma makes an edge
    balanced, s = -sigma_p sigma_q, except on a few drawn edges, so
    components come balanced and not; parallel edges of both signs and
    isolated unknowns occur. b = x_p + s x_q for an x that is 0 off at most
    two unknowns, and a few edges take a free b instead, which makes a
    component that closes a cycle through them inconsistent, balanced or
    not."""
    cols = draw(st.integers(min_value=1, max_value=9))
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=cols, max_size=cols))
    values = st.one_of(st.integers(-4, 4), rationals)
    support = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    x = [draw(values) if p in support else 0 for p in range(cols)]
    count = draw(st.integers(min_value=cols - 1, max_value=16)) if cols > 1 else 0
    flipped = draw(st.sets(st.integers(0, 15), max_size=5))
    free = draw(st.sets(st.integers(0, 15), max_size=2))
    edges = []
    for e in range(count):
        p = draw(st.integers(0, cols - 1))
        q = draw(st.integers(0, cols - 2))
        q += q >= p
        s = -sigma[p] * sigma[q] * (-1 if e in flipped else 1)
        edges.append((p, q, s, draw(values) if e in free else x[p] + s * x[q]))
        if draw(st.integers(0, 5)) == 0:  # a parallel edge, either sign, either way round
            s = draw(st.sampled_from((1, -1)))
            edges.append((q, p, s, x[q] + s * x[p]))
    return edges, cols


@given(sparse_pair_systems())
@settings(max_examples=300)
def test_solve_pairs_on_sparse_right_hand_sides(system_pairs):
    # the walk with offsets covers only components holding a nonzero b,
    # balanced ones included; every other unknown is 0
    edges, cols = system_pairs
    try:
        want = solve_unique(pair_rows(edges, cols), cols)
    except LinAlgError as exc:
        with pytest.raises(LinAlgError) as got:
            solve_pairs(*pair_graph(edges, cols))
        assert str(got.value) == str(exc)
        return
    assert solve_pairs(*pair_graph(edges, cols)) == want


def outcome(solve, *args):
    """solve(*args), or the message of the LinAlgError it raises."""
    try:
        return solve(*args)
    except LinAlgError as exc:
        return str(exc)


@given(sparse_pair_systems(), st.integers(min_value=1, max_value=3))
@settings(max_examples=300)
def test_solve_pairs_counts_each_class_once_per_copy(system_pairs, copies):
    # the drawn system and copies - 1 relabelled copies of its graph with
    # b = 0, listed as one class with its number of copies: the same
    # solution, rank or message as the whole-graph walk of the union
    edges, cols = system_pairs
    union = edges + [
        (p + k * cols, q + k * cols, s, 0) for k in range(1, copies) for p, q, s, _ in edges
    ]
    whole = adjacency(union, copies * cols)
    rhs = {e: edge for e, edge in enumerate(union) if edge[3]}
    want = outcome(whole_graph_solve_pairs, whole, rhs)
    first = {p: whole[p] for p in range(cols)}
    assert outcome(solve_pairs, whole.__getitem__, rhs, [(first, copies)]) == want
    if copies == 1:
        assert outcome(solve_pairs, *pair_graph(edges, cols)) == want


def assert_fraction_free_echelon(span):
    """Each stored row is a primitive integer row: ints only, gcd 1, a
    positive entry at its own pivot, nothing left of it and 0 at every
    other pivot."""
    for pivot, row in span._rows.items():
        assert row and all(type(x) is int and x for x in row.values())
        assert min(row) == pivot and row[pivot] > 0
        assert gcd(*row.values()) == 1
        assert not any(j in span._rows for j in row if j != pivot)


@given(st.lists(st.lists(sparse_rationals, min_size=6, max_size=6), min_size=1, max_size=8))
@settings(max_examples=80)
def test_rowspan_stores_primitive_integer_rows(rows):
    span = RowSpan()
    for r in rows:
        span.add(sparse(r))
        assert_fraction_free_echelon(span)
    assert span.rank == rank(rows)


int_rows = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool), max_size=3),
    min_size=1,
    max_size=10,
)


@given(int_rows)
@settings(max_examples=100)
def test_rowspan_int_rows_match_integral_fraction_rows(rows):
    # two-term and single-entry int rows (the solver's rows) take the int
    # path; the same rows as integral Fractions take the rescaling path
    ints, fractions = RowSpan(), RowSpan()
    for row in rows:
        as_fractions = {j: Fraction(x) for j, x in row.items()}
        member = in_span(ints, dense(row, 6))
        got, want = ints._insert(row), fractions._insert(as_fractions)
        assert got == want and (got is None) == member
        assert row == as_fractions  # the int path reduces a copy
        assert repr(ints._rows) == repr(fractions._rows)
        assert_fraction_free_echelon(ints)
    assert ints.rank == rank([dense(row, 6) for row in rows])


def test_rowspan_single_entry_rows_store_unit_pivots():
    span = RowSpan()
    assert span._insert({1: 2, 2: 4}) == 1
    assert span._rows == {1: {1: 1, 2: 2}}
    assert span._insert({2: -6}) == 2
    assert span._rows == {1: {1: 1}, 2: {2: 1}}
    assert span._insert({0: Fraction(-3, 2)}) == 0
    assert span._rows[0] == {0: 1}
    assert span._insert({0: 5, 2: Fraction(1, 7)}) is None
    assert_fraction_free_echelon(span)


HILBERT6 = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]


def test_hilbert_matrix_against_dense_oracles():
    """An ill-conditioned pinned example: the 6 x 6 Hilbert matrix has
    entries 1/(i+j+1) and an integer inverse."""
    h = HILBERT6
    inverse = invert(h)
    augmented = [row + [Fraction(int(i == j)) for j in range(6)] for i, row in enumerate(h)]
    assert inverse == [row[6:] for row in naive_rref(augmented)[0]]
    assert all(type(x) is Fraction and x.denominator == 1 for row in inverse for x in row)
    assert inverse[0][0] == 36 and inverse[5][5] == 698544
    assert mat_mul(h, inverse) == [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    b = [1, 0, -1, 2, 0, Fraction(1, 3)]
    x, scale, solved_rank = solve_unique(system(h, b), 6)
    assert dense(rational(x, scale), 6) == naive_solve_unique(h, b) and solved_rank == 6
    span = RowSpan()
    for row in h:
        span.add(sparse(row))
    assert_fraction_free_echelon(span)
