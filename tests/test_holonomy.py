from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hktlab.analyze import analyze_entry
from hktlab.catalog import builtin_by_name
from hktlab.holonomy import (
    HOPF_CAVEAT_TEXT,
    HolonomyAlgebra,
    classify,
    holonomy_algebra,
    is_g_skew,
    slnh_membership,
)
from hktlab.hyperhermitian import HyperhermitianStructure, bismut_connection, glnh_membership
from hktlab.hyperhermitian import hkt_check
from hktlab.invariant import Connection, LieAlgebra, curvature_operators, levi_civita
from hktlab.linalg import RowSpan, identity, sparse_commutator, sparse_product
from hktlab.linalg import sparse_subtract, sparse_trace
from hktlab.obata import commutant_basis, obata_connection

from oracle_impl import (
    ALL_NAMES,
    HKT_NAMES,
    commutator,
    conn_values,
    curvature_values,
    dense_glnh_membership,
    dense_is_g_skew,
    dense_matrix,
    direct_sum_entry,
    fraction_curvature_operators,
    fraction_holonomy_algebra,
    fraction_operators,
    generator_values,
    is_canonical,
    matrix_entries,
    naive_curvature_operators,
    naive_flatten,
    naive_holonomy_algebra,
    sparse,
    sparse_matrix,
    trace,
)

LC_DIMS = {
    "torus4": 0,
    "torus8": 0,
    "hopf4": 3,
    "hopf8": 6,
    "nil8": 21,
    "hc_only8": 10,
}
BISMUT_DIMS = {"torus4": 0, "torus8": 0, "hopf4": 0, "hopf8": 0, "nil8": 3}


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_levi_civita_holonomy_dims(cat):
    for name, want in LC_DIMS.items():
        alg = cat[name].lie
        lc = levi_civita(alg)
        hol = holonomy_algebra(lc, curvature_operators(lc, alg))
        assert hol.dim == want, name
        assert len(hol.generators) == want, name
        # metric connection: every generator lies in the orthogonal algebra
        assert all(is_g_skew(g) for g in hol.generators), name


def test_bismut_holonomy_dims(cat, torsions):
    for name, want in BISMUT_DIMS.items():
        entry = cat[name]
        skew = bismut_connection(torsions[name], levi_civita(entry.lie))
        hol = holonomy_algebra(skew, curvature_operators(skew, entry.lie))
        assert hol.dim == want, name
        assert all(is_g_skew(g) for g in hol.generators), name
        assert all(glnh_membership(g, entry.structure) for g in hol.generators), name


def test_obata_holonomy_trivial_on_catalog(cat, torsions):
    for name in ALL_NAMES:
        entry = cat[name]
        conn = obata_connection(entry.structure, entry.lie, torsions.get(name))
        hol = holonomy_algebra(conn, curvature_operators(conn, entry.lie))
        assert hol.dim == 0, name
        assert hol.generators == ()


def assert_span_is_closed(conn, alg, hol, name=None):
    # adding any further bracket must not grow the span
    span = RowSpan()
    generators = [dense_matrix(g, alg.dim) for g in generator_values(hol)]
    for g in generators:
        span.add(sparse([x for row in g for x in row]))
    assert span.rank == hol.dim, name
    ops = [dense_matrix(op, alg.dim) for op in fraction_operators(conn_values(conn), alg.dim)]
    extra = [commutator(op, g) for op in ops for g in generators]
    extra += [commutator(a, b) for a in generators for b in generators]
    for cand in extra:
        assert not span.add(sparse([x for row in cand for x in row])), name


def test_holonomy_span_is_closed(cat, torsions):
    for name, conn in (
        ("hopf4", levi_civita(cat["hopf4"].lie)),
        ("nil8", bismut_connection(torsions["nil8"], levi_civita(cat["nil8"].lie))),
        ("hc_only8", levi_civita(cat["hc_only8"].lie)),
    ):
        alg = cat[name].lie
        assert_span_is_closed(conn, alg, holonomy_algebra(conn, curvature_operators(conn, alg)), name)


def applicable_connections(entry):
    """Levi-Civita always, Bismut when HKT, Obata when integrable."""
    alg, h = entry.lie, entry.structure
    res = hkt_check(h, alg)
    conns = {"levicivita": levi_civita(alg)}
    if res.ok:
        conns["bismut"] = bismut_connection(res.torsion, levi_civita(alg))
    if res.first_nonintegrable is None:
        conns["obata"] = obata_connection(h, alg, res.torsion)
    return conns


def nonzero_dense_operators(conn, alg):
    """The dense reference operators R(e_i, e_j), i < j, with the all-zero
    ones dropped: the curvature stores only its nonzero operators."""
    ops = naive_curvature_operators(conn, alg)
    return {key: m for key, m in ops.items() if any(any(row) for row in m)}


def assert_same_span(first, second, name):
    """Two bases of flat rows span one space: equal dimensions, and each
    basis inside the other's span."""
    assert len(first) == len(second), name
    for basis, other in ((first, second), (second, first)):
        span = RowSpan()
        for row in basis:
            span.add(row)
        assert not any(map(span.add, other)), name


def assert_matches_dense_oracle(entry, in_order=True):
    """The curvature operators equal the dense reference's, and the holonomy
    algebra spans the dense closure's; with `in_order`, the generators equal
    the dense closure's one by one, which holds where both closures enter
    their bases in the same order."""
    for label, conn in applicable_connections(entry).items():
        name = f"{entry.name} {label}"
        curvature = curvature_operators(conn, entry.lie)
        ops = curvature_values(curvature)
        want_ops = nonzero_dense_operators(conn, entry.lie)
        assert list(ops) == list(want_ops), name
        assert [dense_matrix(m, entry.dim) for m in ops.values()] == list(want_ops.values()), name
        got, want = holonomy_algebra(conn, curvature), naive_holonomy_algebra(conn, entry.lie)
        assert got.dim == want.dim, name
        got_generators = tuple(dense_matrix(g, entry.dim) for g in generator_values(got))
        assert_same_span(
            [naive_flatten(g) for g in got_generators],
            [naive_flatten(g) for g in want.generators],
            name,
        )
        if in_order:
            assert got_generators == want.generators, name


def holonomy_entry(cat, su3, name, directory):
    """A builtin by name, su3, or nil16 = nil8 + nil8 through the loader."""
    if name == "nil16":
        return direct_sum_entry(cat["nil8"], cat["nil8"], directory)
    return su3 if name == "su3" else cat[name]


@pytest.mark.parametrize("name", [*ALL_NAMES, "su3", "nil16"])
def test_holonomy_matches_dense_oracle(cat, su3, name, tmp_path):
    # on su3 the dense oracle, which also brackets basis elements with each
    # other, enters its basis in another order: the spans are compared there
    # and the order against the Fraction closure below
    assert_matches_dense_oracle(holonomy_entry(cat, su3, name, tmp_path), in_order=name != "su3")


def test_holonomy_matches_the_fraction_closure_on_su3(su3):
    # the generators in order and by value: those of the Fraction closure
    # on the connection operators
    for label, conn in applicable_connections(su3).items():
        got = holonomy_algebra(conn, curvature_operators(conn, su3.lie))
        gamma = conn_values(conn)
        want = fraction_holonomy_algebra(
            fraction_operators(gamma, su3.dim), fraction_curvature_operators(gamma, su3.lie)
        )
        assert generator_values(got) == want.generators, label


@pytest.mark.parametrize("name", [*ALL_NAMES, "su3", "nil16"])
def test_metric_closures_offer_the_cells_above_the_diagonal(cat, su3, name, tmp_path, monkeypatch):
    # a connection with skew operators has its holonomy in so(n), and the
    # closure offers the span each element's entries above the diagonal
    # only; su3's torsion-free connection is curved and not skew, so its
    # closure offers cells below the diagonal too
    entry = holonomy_entry(cat, su3, name, tmp_path)
    seen = []
    add = RowSpan.add
    monkeypatch.setattr(RowSpan, "add", lambda self, row: seen.append(row) or add(self, row))
    for label, conn in applicable_connections(entry).items():
        curvature = curvature_operators(conn, entry.lie)
        seen.clear()
        hol = holonomy_algebra(conn, curvature)
        cells = [divmod(c, entry.dim) for row in seen for c in row]
        assert len(seen) >= hol.dim, (name, label)
        if label != "obata":
            assert all(i < j for i, j in cells), (name, label)
        elif name == "su3":
            assert hol.dim == 16 and not all(map(is_g_skew, conn.operators))
            assert any(i > j for i, j in cells)


@pytest.mark.parametrize("summands", [("nil8", "hopf4"), ("hc_only8", "torus4")])
def test_holonomy_matches_dense_oracle_on_direct_sum(cat, summands, tmp_path):
    first, second = summands
    assert_matches_dense_oracle(direct_sum_entry(cat[first], cat[second], tmp_path))


SMALL_ALGEBRAS = (
    LieAlgebra(3),
    LieAlgebra(4),
    LieAlgebra(5),
    LieAlgebra(3, {(0, 1): {2: 1}}),
    LieAlgebra(4, {(1, 2): {3: 2}, (1, 3): {2: -2}, (2, 3): {1: 2}}),
)


@st.composite
def random_connections(draw):
    """An arbitrary, usually non-metric, connection on a small algebra: a
    few int and Fraction coefficients at random places."""
    alg = draw(st.sampled_from(SMALL_ALGEBRAS))
    index = st.integers(0, alg.dim - 1)
    values = st.one_of(
        st.integers(-1, 1),
        st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
    )
    size = draw(st.integers(1, 2 * alg.dim))
    cells = draw(st.dictionaries(st.tuples(index, index, index), values, max_size=size))
    return Connection(alg.dim, {idx: v for idx, v in cells.items() if v}), alg


@given(random_connections())
@example((Connection(3, {(0, 1, 0): 1, (2, 0, 1): 1, (2, 2, 0): 1}), LieAlgebra(3)))
@example((Connection(4, {(0, 0, 1): 1, (0, 3, 0): 1, (1, 0, 3): 1}), LieAlgebra(4)))
@example(
    (
        Connection(4, {(0, 0, 1): Fraction(2, 5), (0, 3, 0): 1, (1, 0, 3): Fraction(-3, 5)}),
        LieAlgebra(4),
    )
)
@example(
    (
        Connection(
            3, {(0, 1, 0): Fraction(1, 6), (2, 0, 1): Fraction(3, 2), (2, 2, 0): Fraction(-2, 3)}
        ),
        LieAlgebra(3, {(0, 1): {2: 1}}),
    )
)
@example(
    (
        Connection(4, {(1, 2, 3): 1, (3, 0, 2): Fraction(1, 2)}),
        LieAlgebra(4, {(1, 2): {3: 2}, (1, 3): {2: -2}, (2, 3): {1: 2}}),
    )
)
@example(
    (
        Connection(3, {(1, 2, 0): 2, (1, 1, 2): 2, (2, 0, 0): 1}),
        LieAlgebra(3, {(0, 1): {2: 1}}),
    )
)
@example((Connection(3, {(2, 0, 2): 1, (0, 1, 0): 1, (1, 2, 1): 2}), LieAlgebra(3)))
@example(
    (
        Connection(3, {(1, 2, 1): -1, (2, 1, 0): Fraction(-2, 3), (0, 2, 2): Fraction(-2, 3)}),
        LieAlgebra(3, {(0, 1): {2: 1}}),
    )
)
@settings(max_examples=100, deadline=None)
def test_holonomy_matches_dense_oracle_on_random_connections(case):
    # the closure brackets with the connection operators only and the
    # oracle with every basis element too, so the bases may differ; the
    # spans may not. The first two examples are connections on which
    # skipping [current, b], for a b popped before current entered the
    # basis, loses a generator of the oracle's closure; the last two have
    # denominators 5 and 6, so the integer-scaled closure carries scales
    # other than powers of 2 and 3. The next four test the certificate
    # that seeds spanning every matrix on the cells they hold are closed:
    # such a span that the supports of the L_k keep (rank 3 on 3 cells);
    # one that only L_1 moves off its cells, and only through a row, from
    # (0, 2) to (0, 1) (the closure grows from 2 to 3); one whose image
    # holds a diagonal cell it lacks (3 cells, a closure of dim 8); and
    # seeds of rank 2 on 3 cells, which the supports keep but which are
    # not closed. The generators equal, in order and by
    # value, those of the closure on the operators' own Fraction entries,
    # and each is an int matrix over its least scale.
    conn, alg = case
    curvature = curvature_operators(conn, alg)
    got = holonomy_algebra(conn, curvature)
    gamma = conn_values(conn)
    want_fraction = fraction_holonomy_algebra(
        fraction_operators(gamma, alg.dim), fraction_curvature_operators(gamma, alg)
    )
    assert generator_values(got) == want_fraction.generators
    assert all(is_canonical(matrix_entries(g), s) for g, s in zip(got.generators, got.scales))
    want = naive_holonomy_algebra(conn, alg)
    assert got.dim == want.dim
    assert len(got.generators) == len(got.scales) == got.dim
    assert_same_span(
        [naive_flatten(dense_matrix(g, alg.dim)) for g in generator_values(got)],
        [naive_flatten(g) for g in want.generators],
        "random connection",
    )
    assert_span_is_closed(conn, alg, got)
    # non-metric connections give generators that are not skew and not
    # trace-free; skewness reads the int matrix, the trace is its value
    for g, value in zip(got.generators, generator_values(got)):
        dense = dense_matrix(value, alg.dim)
        assert is_g_skew(g) == dense_is_g_skew(dense)
        assert sparse_trace(value) == trace(dense)


def block_sum(first, second):
    """The connection of first + second, (connection, algebra) pairs: the
    second algebra's brackets and connection coefficients shifted by the
    first's dimension, so every L_k of one block has disjoint support with
    every matrix of the other."""
    (conn_a, a), (conn_b, b) = first, second
    shift = a.dim
    brackets = dict(a.brackets)
    for (i, j), comps in b.brackets.items():
        brackets[(i + shift, j + shift)] = {k + shift: v for k, v in comps.items()}
    gamma = conn_values(conn_a)
    for (i, j, k), v in conn_values(conn_b).items():
        gamma[(i + shift, j + shift, k + shift)] = v
    dim = a.dim + b.dim
    return Connection(dim, gamma), LieAlgebra(dim, brackets)


@given(random_connections(), random_connections())
@settings(max_examples=100, deadline=None)
def test_support_skip_on_block_diagonal_connections(first, second):
    # many brackets of a block sum vanish by support; the closure and the
    # curvature skip them, the references bracket every pair
    conn, alg = block_sum(first, second)
    curvature = curvature_operators(conn, alg)
    ops = curvature_values(curvature)
    want_ops = nonzero_dense_operators(conn, alg)
    assert list(ops) == list(want_ops)
    assert [dense_matrix(m, alg.dim) for m in ops.values()] == list(want_ops.values())
    got = holonomy_algebra(conn, curvature)
    gamma = conn_values(conn)
    want = fraction_holonomy_algebra(
        fraction_operators(gamma, alg.dim), fraction_curvature_operators(gamma, alg)
    )
    assert generator_values(got) == want.generators
    assert got.dim == want.dim


# A non-metric connection on R^4 whose operators' rows and columns differ:
# a skip that tests only one of the two products, in the closure or in the
# curvature, finds a holonomy dimension of 3 or 4 instead of 5 here. The
# catalog connections with curvature have skew operators, or (su3's Obata
# connection) operators whose nonzero rows and columns agree, and on them
# either one-product test skips exactly the brackets that vanish.
NON_METRIC = (
    Connection(4, {(1, 1, 0): 1, (0, 1, 2): 1, (0, 2, 1): -1, (2, 3, 1): 1}),
    LieAlgebra(4),
)
CONNECTIONS = ("levicivita", "bismut", "obata")


def structure_connections(entry):
    return {label: (conn, entry.lie) for label, conn in applicable_connections(entry).items()}


def closure_dim(conn, alg):
    return holonomy_algebra(conn, curvature_operators(conn, alg)).dim


@pytest.mark.parametrize(
    "first, second",
    [("nil8", "hopf4"), ("nil8", "nil8"), ("su3", "hopf4"), ("non-metric", "hopf4")],
)
def test_holonomy_dimension_adds_over_direct_sums(cat, su3, first, second, tmp_path):
    # hol(A + B) = hol(A) + hol(B), as the operators of one summand act by
    # zero on the other: the closure's dimension on the sum equals the sum
    # of the dense oracle's dimensions on the summands, in both orders and
    # for the Levi-Civita, Bismut and Obata connections. The direct sums of
    # structures go through the loader; NON_METRIC, which has no structure,
    # is placed beside each of hopf4's three connections
    entries = {**cat, "su3": su3}
    parts = {
        name: dict.fromkeys(CONNECTIONS, NON_METRIC)
        if name == "non-metric"
        else structure_connections(entries[name])
        for name in (first, second)
    }
    dims = {
        name: {label: naive_holonomy_algebra(*case).dim for label, case in cases.items()}
        for name, cases in parts.items()
    }
    for a, b in ((first, second), (second, first)):
        if "non-metric" in (a, b):
            sums = {label: block_sum(parts[a][label], parts[b][label]) for label in CONNECTIONS}
        else:
            sums = structure_connections(direct_sum_entry(entries[a], entries[b], tmp_path))
        got = {label: closure_dim(*case) for label, case in sums.items()}
        assert list(got) == list(CONNECTIONS), (a, b)
        assert got == {label: dims[a][label] + dims[b][label] for label in got}, (a, b)


def test_closure_brackets_only_int_matrices(torsions, su3, monkeypatch):
    # the closure brackets the connection's int operators and int basis
    # elements: every row offered to the span holds only ints, even where
    # the connection's values are quarters (su3's Levi-Civita connection)
    # or halves and 3/2 (its torsion-free one)
    seen = []
    add = RowSpan.add

    def recording(self, row):
        seen.append(row)
        return add(self, row)

    monkeypatch.setattr(RowSpan, "add", recording)
    h = su3.structure
    cases = [
        ("su3 levicivita", levi_civita(su3.lie), su3.lie),
        ("su3 obata", obata_connection(h, su3.lie, hkt_check(h, su3.lie).torsion), su3.lie),
    ]
    for name, conn, alg in cases:
        entries = [x for op in conn.operators for row in op.values() for x in row.values()]
        assert conn.scale > 1 and all(type(x) is int for x in entries), name
        curvature = curvature_operators(conn, alg)
        seen.clear()
        assert holonomy_algebra(conn, curvature).dim, name
        assert len(seen) > alg.dim * (alg.dim - 1) // 2, name
        assert all(type(x) is int for row in seen for x in row.values()), name


def test_glnh_membership_units(cat):
    h4 = cat["hopf4"].structure
    assert glnh_membership(sparse_matrix(identity(4)), h4)
    # J1 anticommutes with J2, so it is not quaternion-linear itself
    assert not glnh_membership(h4.j_sparse[0], h4)
    e01 = {0: {1: 1}}
    assert not glnh_membership(e01, h4)


CELL_VALUES = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_glnh_membership_matches_commutators(cat, data):
    # the relabelling rule agrees with forming [m, J_s] for each J: on free
    # int and Fraction matrices, on combinations of the commutant basis
    # (members), and on m + J_s m J_s^-1, which commutes with J_s and
    # usually with no other J; each may get one more cell
    h = cat[data.draw(st.sampled_from(("hopf4", "hopf8", "nil8")))].structure
    index = st.integers(0, h.dim - 1)
    cells = data.draw(st.dictionaries(st.tuples(index, index), CELL_VALUES, max_size=2 * h.dim))
    m: dict = {}
    for (i, j), v in cells.items():
        sparse_subtract(m, -v, {i: {j: 1}})
    kind = data.draw(st.sampled_from(("free", "commutant", "one J")))
    if kind == "commutant":
        m = {}
        for element in commutant_basis(h):
            sparse_subtract(m, -data.draw(CELL_VALUES), element)
    elif kind == "one J":
        j = h.j_sparse[data.draw(st.integers(0, 2))]
        sparse_subtract(m, 1, sparse_product(j, sparse_product(m, j)))  # J^-1 = -J
    if data.draw(st.booleans()):
        sparse_subtract(m, -data.draw(CELL_VALUES), {data.draw(index): {data.draw(index): 1}})
    assert glnh_membership(m, h) == all(not sparse_commutator(m, j) for j in h.j_sparse)


def test_glnh_membership_reads_the_third_structure(cat):
    # with J3 = J1 J2, commuting with J1 and J2 implies J3; a triple whose
    # third entry is another complex structure K shows that J3 is read in
    # its own right: m lies in the commutant of hopf4's J1, J2 and fails
    # only against K
    j1, j2, _ = cat["hopf4"].structure.j_sparse
    k = {0: {1: -1}, 1: {0: 1}, 2: {3: -1}, 3: {2: 1}}
    m = {0: {3: -1}, 1: {2: -1}, 2: {1: 1}, 3: {0: 1}}
    assert [not sparse_commutator(m, j) for j in (j1, j2, k)] == [True, True, False]
    assert glnh_membership(m, HyperhermitianStructure(4, (j1, j2, j2)))
    assert not glnh_membership(m, HyperhermitianStructure(4, (j1, j2, k)))


def test_is_g_skew_units():
    m = {0: {1: 2}, 1: {0: -2}}
    assert is_g_skew(m)
    m[2] = {2: 1}
    assert not is_g_skew(m)
    sym = {0: {1: 1}, 1: {0: 1}}
    assert not is_g_skew(sym)
    # the transpose entry is missing, so it reads as 0 against -2
    assert not is_g_skew({0: {1: 2}})
    assert not is_g_skew({1: {1: Fraction(1, 2)}})
    assert is_g_skew({})


def assert_sparse_membership_matches_dense(entry):
    h = entry.structure
    for label, conn in applicable_connections(entry).items():
        hol = holonomy_algebra(conn, curvature_operators(conn, entry.lie))
        for idx, (g, scale) in enumerate(zip(hol.generators, hol.scales)):
            name = f"{entry.name} {label} generator {idx}"
            dense = dense_matrix(g, entry.dim)
            assert glnh_membership(g, h) == dense_glnh_membership(dense, h), name
            assert is_g_skew(g) == dense_is_g_skew(dense), name
            got, want = sparse_trace(g), trace(dense)
            assert (got, type(got)) == (want, type(want)), name
            assert type(got) is int and scale >= 1, name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sparse_membership_matches_dense_oracle(cat, name):
    assert_sparse_membership_matches_dense(cat[name])


def test_sparse_membership_matches_dense_oracle_on_direct_sum(cat, tmp_path):
    assert_sparse_membership_matches_dense(direct_sum_entry(cat["nil8"], cat["hopf8"], tmp_path))


def test_slnh_certificate_trivial_algebra(cat):
    hol = HolonomyAlgebra((), (), 0)
    cert = slnh_membership(hol, cat["torus4"].structure)
    assert cert.generator_count == 0
    assert cert.all_quaternion_linear and cert.all_trace_free
    assert cert.first_violation is None


def test_slnh_certificate_traceful_generator(cat):
    h4 = cat["hopf4"].structure
    hol = HolonomyAlgebra((sparse_matrix(identity(4)),), (1,), 1)
    cert = slnh_membership(hol, h4)
    assert cert.all_quaternion_linear
    assert not cert.all_trace_free
    assert cert.first_violation == (0, "nonzero trace", 4)
    # an int generator's trace is reported as a Fraction too
    assert repr(cert.first_violation) == "(0, 'nonzero trace', Fraction(4, 1))"
    # and divided by the generator's scale
    cert = slnh_membership(HolonomyAlgebra((sparse_matrix(identity(4)),), (6,), 1), h4)
    assert repr(cert.first_violation) == "(0, 'nonzero trace', Fraction(2, 3))"


def test_slnh_certificate_non_quaternion_linear(cat):
    h4 = cat["hopf4"].structure
    bad = {0: {1: 1}, 1: {0: -1}}
    hol = HolonomyAlgebra((bad,), (1,), 1)
    cert = slnh_membership(hol, h4)
    assert not cert.all_quaternion_linear
    assert cert.first_violation == (0, "not quaternion-linear", None)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_slnh_first_violation_is_the_least_failing_generator(cat, data):
    # 0-3 int generators on hopf4, each a multiple of a gl(1, H) basis
    # element (the identity among them is traceful), a trace-free rotation
    # or a traceful cell, neither quaternion-linear: there is no violation
    # exactly when all are quaternion-linear and trace-free, and the first
    # names the least failing generator, read off the dense oracle
    h4 = cat["hopf4"].structure
    bases = commutant_basis(h4) + [{0: {1: -1}, 1: {0: 1}}, {0: {0: 1}}]
    count = data.draw(st.integers(0, 3))
    generators, scales, failing = [], [], []
    for k in range(count):
        f, base = data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.sampled_from(bases))
        gen = {i: {j: f * x for j, x in row.items()} for i, row in base.items()}
        scale = data.draw(st.integers(1, 6))
        generators.append(gen)
        scales.append(scale)
        dense = dense_matrix(gen, 4)
        if not dense_glnh_membership(dense, h4):
            failing.append((k, "not quaternion-linear", None))
        elif trace(dense):
            failing.append((k, "nonzero trace", Fraction(trace(dense), scale)))
    hol = HolonomyAlgebra(tuple(generators), tuple(scales), count)
    cert = slnh_membership(hol, h4)
    assert (cert.first_violation is None) == (cert.all_quaternion_linear and cert.all_trace_free)
    assert cert.first_violation == (failing[0] if failing else None)
    assert cert.generator_count == count


def test_slnh_on_catalog_holonomies(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        conn = obata_connection(entry.structure, entry.lie, torsions[name])
        hol = holonomy_algebra(conn, curvature_operators(conn, entry.lie))
        cert = slnh_membership(hol, entry.structure)
        assert cert.first_violation is None, name


def test_classify_tiers():
    v = classify(True, True, True, True, True, 0, True, True, "inconclusive")
    assert v.sl_tier == "invariant_SL"
    assert v.hyperkahler and v.balanced
    assert not v.hopf_caveat and v.caveat_text is None

    v = classify(False, False, True, True, True, 0, True, True, "inconclusive")
    assert v.sl_tier == "restricted_SL"
    assert v.hopf_caveat
    assert v.caveat_text == HOPF_CAVEAT_TEXT
    assert not v.hyperkahler and not v.balanced

    v = classify(False, False, False, False, False, 5, False, False, "inconclusive")
    assert v.sl_tier == "not_SL"
    assert not v.hopf_caveat and v.caveat_text is None


def test_classify_non_hkt(cat):
    # classify sees HKT structures only; the not-HKT verdict keeps the defaults
    v = analyze_entry(cat["hc_only8"])["verdict"]
    assert not v["hkt"]
    assert v["sl_tier"] == "not_applicable"
    assert v["hyperkahler"] is None and v["balanced"] is None
    assert v["strong"] is None and v["almost_strong"] is None
    assert not v["hopf_caveat"]


def test_classify_consistency_violations():
    with pytest.raises(RuntimeError, match="balanced structure with non-closed Lee form"):
        classify(False, True, False, True, True, 0, True, True, "inconclusive")
    with pytest.raises(RuntimeError, match="closed Lee form with nonvanishing Ricci"):
        classify(False, False, True, True, True, 0, False, True, "inconclusive")
    with pytest.raises(RuntimeError, match="vanishing Ricci with traceful holonomy generator"):
        classify(False, False, False, True, True, 0, True, False, "inconclusive")
