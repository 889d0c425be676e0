import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab import obata
from hktlab.catalog import _standard_structure, builtin_by_name
from hktlab.hyperhermitian import (
    HyperhermitianStructure,
    bismut_connection,
    glnh_membership,
    nijenhuis,
)
from hktlab.invariant import LieAlgebra, covariant_derivative_cube, levi_civita, torsion_cube
from hktlab.obata import (
    commutant_basis,
    difference_tensor,
    obata_connection,
    obata_oracle_solver,
    trace_identities,
)
from hktlab.curvature import lee_form
from hktlab.tensors import KForm, cube_add, integer_scaled

from oracle_impl import (
    HKT_NAMES,
    ALL_NAMES,
    cayley_rotated,
    conn_values,
    dense_matrix,
    difference_tensor_invariance,
    direct_sum_entry,
    form_scale,
    load_document,
    naive_commutant_basis,
    naive_complex_trace_A,
    naive_obata_oracle_solver,
    naive_trace_identities,
    obata_b_tensor,
    obata_formula,
    rowspan_obata_oracle_solver,
    scaled_values,
    whole_graph_obata_oracle_solver,
    with_diagonal_metric,
)


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_commutant_dimension(cat):
    # commutant of the quaternionic triple is gl(n, H): dimension 4 n^2
    assert len(commutant_basis(cat["torus4"].structure)) == 4
    assert len(commutant_basis(cat["torus8"].structure)) == 16


@pytest.fixture(scope="module")
def commutant_inputs(cat, su3, tmp_path_factory):
    """Every builtin, su3, and hopf4 and hc_only8 rotated by a Cayley
    transform and loaded back into the loader's quaternionic frame, where
    their brackets carry denominators."""
    structures = {name: cat[name].structure for name in ALL_NAMES}
    structures["su3"] = su3.structure
    directory = tmp_path_factory.mktemp("cayley")
    for name in ("hopf4", "hc_only8"):
        structures[f"{name}_cayley"] = load_document(cayley_rotated(cat[name]), directory).structure
    return structures


def test_commutant_basis_matches_dense_oracle(commutant_inputs):
    # the basis read off the signed-permutation J's is the oracle's nullspace
    # basis of the commutator equations of all three J's, in order
    for name, h in commutant_inputs.items():
        got = [dense_matrix(m, h.dim) for m in commutant_basis(h)]
        want = naive_commutant_basis(h)
        assert all(type(x) is int for m in got for x in chain.from_iterable(m)), name
        assert len(got) == len(want), name
        assert got == want, name


def test_commutant_members_commute(commutant_inputs):
    for name, h in commutant_inputs.items():
        for m in commutant_basis(h):
            assert glnh_membership(m, h), name


def test_difference_tensor_hopf4_values(cat, torsions):
    a = scaled_values(difference_tensor(torsions["hopf4"], cat["hopf4"].structure))
    assert a[(1, 2, 3)] == 1
    assert a[(0, 1, 1)] == 1
    assert a[(1, 1, 0)] == -1
    assert a[(0, 0, 0)] == 1
    assert a[(1, 0, 1)] == 1


def test_difference_tensor_invariance_on_hkt(cat, torsions):
    for name in HKT_NAMES:
        a = scaled_values(difference_tensor(torsions[name], cat[name].structure))
        assert difference_tensor_invariance(a, cat[name].structure), name


def test_general_route_agrees_with_hkt_route(cat, torsions):
    # the torsion-of-any-quaternion-linear-connection construction reduces
    # to the direct formula when fed the skew torsion
    for name in HKT_NAMES:
        h = cat[name].structure
        t_cube = torsions[name].cube
        assert obata_b_tensor(t_cube, h) == scaled_values(difference_tensor(torsions[name], h)), name


def test_obata_routes_agree_everywhere(cat, torsions):
    for name in ALL_NAMES:
        entry = cat[name]
        t = torsions.get(name)
        built = obata_connection(entry.structure, entry.lie, t)
        solved, cert = obata_oracle_solver(entry.structure, entry.lie)
        assert cert.unique, name
        assert cert.rank == cert.unknowns, name
        assert built == solved, name


def test_solver_certificates(cat):
    _, cert4 = obata_oracle_solver(cat["hopf4"].structure, cat["hopf4"].lie)
    assert (cert4.commutant_dim, cert4.unknowns, cert4.equations, cert4.rank, cert4.unique) == (
        4, 16, 24, 16, True,
    )
    _, cert8 = obata_oracle_solver(cat["hc_only8"].structure, cat["hc_only8"].lie)
    assert (cert8.commutant_dim, cert8.unknowns, cert8.equations, cert8.rank, cert8.unique) == (
        16, 128, 224, 128, True,
    )


def test_obata_postconditions(cat, torsions):
    for name in ALL_NAMES:
        entry = cat[name]
        conn = obata_connection(entry.structure, entry.lie, torsions.get(name))
        assert torsion_cube(conn, entry.lie) == {}, name
        assert all(glnh_membership(op, entry.structure) for op in conn.operators), name


def test_obata_is_bismut_plus_difference(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        skew = bismut_connection(t, levi_civita(entry.lie))
        a = difference_tensor(t, entry.structure)
        conn = obata_connection(entry.structure, entry.lie, t)
        assert conn_values(conn) == cube_add(conn_values(skew), scaled_values(a)), name


def test_hc_only8_connection_values(cat):
    conn, _ = obata_oracle_solver(cat["hc_only8"].structure, cat["hc_only8"].lie)
    nonzero = {idx: v for idx, v in conn.gamma.items() if v}
    assert nonzero == {(0, 4, 4): 1, (0, 5, 5): 1, (0, 6, 6): 1, (0, 7, 7): 1}
    assert conn.scale == 1


def test_builtin_cubes_store_no_zero(cat, torsions):
    for name in ALL_NAMES:
        entry = cat[name]
        alg, h = entry.lie, entry.structure
        t = torsions.get(name)
        solved, _ = obata_oracle_solver(h, alg)
        cubes = [nijenhuis(alg, j)[0] for j in h.permutations]
        cubes += [c.gamma for c in (levi_civita(alg), solved, obata_connection(h, alg, t))]
        if t is not None:
            skew = bismut_connection(t, levi_civita(alg))
            a = difference_tensor(t, h)
            cubes += [skew.gamma, torsion_cube(skew, alg), a.entries, obata_b_tensor(t.cube, h)]
            cubes += [covariant_derivative_cube(op, a.entries) for op in skew.operators]
        for cube in cubes:
            assert 0 not in cube.values(), name


def test_solver_matches_dense_oracle(cat, su3, tmp_path):
    # su3 has Fraction brackets and a non-flat Obata connection; the Cayley
    # rotation of hopf4, loaded back, has brackets with denominators
    rotated = load_document(cayley_rotated(cat["hopf4"]), tmp_path)
    entries = [cat[name] for name in ALL_NAMES] + [su3, rotated]
    for entry in entries:
        conn, cert = obata_oracle_solver(entry.structure, entry.lie)
        want_conn, want_cert = naive_obata_oracle_solver(entry.structure, entry.lie)
        assert conn == want_conn, entry.name
        assert cert == want_cert, entry.name


def test_solver_matches_obata_formula(cat, su3, tmp_path):
    # Obata's explicit formula is a solver-free third route; the Cayley
    # rotation of hc_only8, loaded back, has brackets with large denominators
    rotated = load_document(cayley_rotated(cat["hc_only8"]), tmp_path)
    entries = [cat[name] for name in ALL_NAMES] + [su3, rotated]
    entries += [
        direct_sum_entry(cat["nil8"], cat["hopf4"], tmp_path),
        direct_sum_entry(cat["hc_only8"], cat["torus4"], tmp_path),
        direct_sum_entry(su3, cat["hopf4"], tmp_path),
    ]
    for entry in entries:
        conn, _ = obata_oracle_solver(entry.structure, entry.lie)
        assert conn_values(conn) == obata_formula(entry.structure, entry.lie), entry.name


def test_solver_matches_dense_oracle_on_direct_sum(cat, tmp_path):
    # hc12 = hc_only8 + torus4: dim 12, not HKT, so the analysis takes its
    # torsion-free connection from the solver
    entry = direct_sum_entry(cat["hc_only8"], cat["torus4"], tmp_path)
    conn, cert = obata_oracle_solver(entry.structure, entry.lie)
    want_conn, want_cert = naive_obata_oracle_solver(entry.structure, entry.lie)
    assert conn == want_conn
    assert cert == want_cert
    assert cert.unknowns == 12 * 36 and cert.rank == cert.unknowns


def test_solver_matches_rowspan_route_on_metamorphic_inputs(cat, su3, tmp_path):
    # the signed-graph solve against RowSpan elimination of the same system:
    # Cayley-rotated and re-metrized entries loaded back, su3 and
    # hc_only8 + su3, whose brackets hold Fractions and whose Obata
    # connections are curved, and the dim-16 rung hopf8 + hopf8 and
    # hc_only8 + hc_only8, where most components hold no bracket
    docs = [cayley_rotated(cat[name]) for name in ("hopf8", "nil8", "hc_only8")]
    docs += [with_diagonal_metric(cat["hopf8"], diagonal) for diagonal in (("7/5", "7/5"), ("2", "3"))]
    entries = [load_document(doc, tmp_path) for doc in docs]
    entries += [su3, direct_sum_entry(cat["hc_only8"], su3, tmp_path)]
    entries += [direct_sum_entry(cat[name], cat[name], tmp_path) for name in ("hopf8", "hc_only8")]
    for entry in entries:
        conn, cert = obata_oracle_solver(entry.structure, entry.lie)
        want_conn, want_cert = rowspan_obata_oracle_solver(entry.structure, entry.lie)
        assert conn == want_conn, entry.name
        assert cert == want_cert, entry.name


def _relabelled(h, alg, seed, pool=None):
    """h and alg in the frame f_pi(x) = eps_x e_x for a seeded signed
    permutation (pi, eps), which acts on the J's and on the brackets:
    J f_pi(x) = eps_x eps_s(x) eps_sigma(x) f_pi(sigma(x)) and
    c'^pi(k)_pi(i) pi(j) = eps_i eps_j eps_k c^k_ij. With no pool, pi and
    eps are drawn freely, so the lines scatter and their J-types differ.
    With a pool of local signed permutations of the 4 members of a line,
    each line of h takes one from the pool onto 4 drawn positions in
    order, so the lines scatter but their types repeat."""
    rng = random.Random(seed)
    dim = h.dim
    pi, eps = list(range(dim)), [rng.choice((1, -1)) for _ in range(dim)]
    rng.shuffle(pi)
    if pool is not None:
        spots = list(range(dim))
        rng.shuffle(spots)
        for k in range(0, dim, 4):  # the lines of the standard and catalog frames
            local = rng.choice(pool)
            places = sorted(spots[k : k + 4])
            for r, (target, sign) in enumerate(local):
                pi[k + r], eps[k + r] = places[target], sign
    js = tuple(
        {pi[y]: {pi[x]: eps[x] * v * eps[y] for x, v in row.items()} for y, row in j.items()}
        for j in h.j_sparse
    )
    brackets = {}
    for (i, j), comps in alg.brackets.items():
        a, b, sign = (pi[i], pi[j], 1) if pi[i] < pi[j] else (pi[j], pi[i], -1)
        brackets[(a, b)] = {pi[k]: sign * eps[i] * eps[j] * eps[k] * c for k, c in comps.items()}
    return HyperhermitianStructure(dim, js), LieAlgebra(dim, brackets)


def _sign_scrambled(h, seed):
    """h with each J entry's sign drawn: the lines and their permutations
    stay, the quaternion relations break, and the torsion-free system
    can have balanced components."""
    rng = random.Random(seed)
    return HyperhermitianStructure(
        h.dim,
        tuple(
            {y: {x: v * rng.choice((1, -1)) for x, v in row.items()} for y, row in j.items()}
            for j in h.j_sparse
        ),
    )


def _solver_outcome(solve, h, alg):
    """The connection and certificate, or the message of the error."""
    try:
        return solve(h, alg)
    except ValueError as exc:
        return str(exc)


# local signed permutations of a line's members, (target, sign) per member:
# the identity, a swap of the first two members (it moves the permutations
# of J2 and J3) and a sign flip of the first (it keeps every permutation)
LINE_POOL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 1), (2, 1), (3, 1)),
    ((0, -1), (1, 1), (2, 1), (3, 1)),
)


def test_solver_matches_whole_graph_walk_under_signed_relabels(cat, su3):
    # the standard structure of H^n, n = 1..4, and hopf8, nil8, hc_only8 and
    # su3 under seeded signed permutations: the walk of one class per key
    # gives the connection and the certificate of the whole-graph walk, and
    # on sign-scrambled J's (with no bracket) the same rank, so its
    # class-summed balanced count is the whole-graph count
    inputs = [(_standard_structure(n), LieAlgebra(4 * n)) for n in range(1, 5)]
    inputs += [(cat[name].structure, cat[name].lie) for name in ("hopf8", "nil8", "hc_only8")]
    inputs += [(su3.structure, su3.lie)]
    keys, balanced = set(), set()
    for h, alg in inputs:
        for seed in range(3):
            for pool in (None, LINE_POOL):
                rh, ralg = _relabelled(h, alg, seed, pool)
                got = obata_oracle_solver(rh, ralg)
                assert got == whole_graph_obata_oracle_solver(rh, ralg), (h.dim, seed, pool)
                keys.add((h.dim, len(obata._classes(rh)[1])))
                scrambled, flat = _sign_scrambled(rh, seed), LieAlgebra(h.dim)
                want = _solver_outcome(whole_graph_obata_oracle_solver, scrambled, flat)
                assert _solver_outcome(obata_oracle_solver, scrambled, flat) == want
                balanced.add(want if isinstance(want, str) else "unique")
    # lines of one type share keys, and lines of distinct types give one
    # key per class (n^2 (n + 1) / 2 classes); a scramble leaves balanced
    # components, up to 16 at dim 16
    assert {(8, 2), (8, 6), (12, 8), (16, 10), (16, 21), (16, 40)} <= keys
    assert "torsion-free hypercomplex system: solution not unique: rank 1008 < 1024 unknowns" in (
        balanced
    )


def test_solver_walks_48_unknowns_for_the_rank_of_hc16(monkeypatch, cat, tmp_path):
    # hc16's 4 lines have one J-type: its 40 classes have 2 keys, A = B (16
    # unknowns) and A != B (32), so the rank walks 48 of the 1024 unknowns
    entry = direct_sum_entry(cat["hc_only8"], cat["hc_only8"], tmp_path)
    seen = []
    solve = obata.solve_pairs

    def recorded(neighbours, rhs, classes):
        seen.extend((len(graph), copies) for graph, copies in classes)
        return solve(neighbours, rhs, classes)

    monkeypatch.setattr(obata, "solve_pairs", recorded)
    _, cert = obata_oracle_solver(entry.structure, entry.lie)
    assert sorted(seen) == [(16, 16), (32, 24)]
    assert sum(size for size, _ in seen) == 48
    assert cert.unknowns == cert.rank == sum(size * copies for size, copies in seen) == 1024


def test_solver_rejects_nonintegrable():
    heis = LieAlgebra(4, {(1, 2): {3: 1}})
    h = builtin_by_name()["torus4"].structure
    with pytest.raises(ValueError, match="not hypercomplex"):
        obata_oracle_solver(h, heis)


def test_trace_identities_on_hkt(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        lee = lee_form(t, entry.structure, entry.lie)
        a = difference_tensor(t, entry.structure)
        failures, complex_failures = trace_identities(a, entry.structure, lee.theta)
        assert not failures, (name, failures)
        assert not complex_failures, (name, complex_failures)


def test_trace_identities_detect_wrong_theta(cat, torsions):
    entry = cat["hopf4"]
    t = torsions["hopf4"]
    a = difference_tensor(t, entry.structure)
    wrong = lee_form(t, entry.structure, entry.lie).theta
    failures, complex_failures = trace_identities(a, entry.structure, form_scale(wrong, 2))
    assert failures
    assert complex_failures[0].startswith("real part at X=e")


def _random_cube_and_theta(data, h):
    """A random sparse cube and Lee form, int and Fraction values mixed."""
    index = st.integers(0, h.dim - 1)
    values = st.one_of(
        st.integers(-2, 2).filter(bool),
        st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
    )
    a = data.draw(st.dictionaries(st.tuples(index, index, index), values, max_size=2 * h.dim))
    theta = KForm(h.dim, 1, data.draw(st.dictionaries(st.tuples(index), values, max_size=2)))
    return a, theta


@pytest.mark.parametrize("name", ALL_NAMES + ("su3",))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_trace_identities_match_dense_oracle(cat, su3, name, data):
    # random cubes and Lee forms: the twisted traces are J-traces of A(X, ., .)
    h = su3.structure if name == "su3" else cat[name].structure
    a, theta = _random_cube_and_theta(data, h)
    real, _ = trace_identities(integer_scaled(a), h, theta)
    assert repr(real) == repr(naive_trace_identities(a, h, theta))


@pytest.mark.parametrize("name", ALL_NAMES + ("su3",))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_complex_trace_matches_frame_oracle(cat, su3, name, data):
    # random cubes and Lee forms: the frame-free complex trace (plain trace
    # and J1 trace) equals the sum over the J1-adapted pairs (e_a, J1 e_a)
    h = su3.structure if name == "su3" else cat[name].structure
    a, theta = _random_cube_and_theta(data, h)
    _, cplx = trace_identities(integer_scaled(a), h, theta)
    assert repr(cplx) == repr(naive_complex_trace_A(a, h, theta))
