from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab.catalog import builtin_by_name
from hktlab.curvature import (
    LeeForm,
    RicciPackage,
    chern_norm_check,
    curvature_relation_check,
    dt_traces,
    hkt_obstruction_report,
    hyperkahler_detector,
    lee_form,
    obata_identity_suite,
    ricci_package,
    star_scalar,
)
from hktlab.hyperhermitian import bismut_connection, hkt_check
from hktlab.invariant import (
    Connection,
    ce_differential,
    covariant_derivative_cube,
    curvature_operators,
    levi_civita,
)
from hktlab.obata import difference_tensor, obata_connection
from hktlab.tensors import KForm, cube_add, cube_scale, integer_scaled, norm_sq

from oracle_impl import (
    ALL_NAMES,
    HKT_NAMES,
    basis_form,
    dense_cube,
    dense_curvature,
    dense_js,
    direct_sum_entry,
    double_j_trace,
    mat_mul,
    naive_covariant_derivative,
    naive_curvature_relation,
    naive_double_j_trace,
    naive_dt_traces,
    naive_hkt_obstruction_report,
    naive_lee_form,
    naive_obata_identity_suite,
    naive_ric_j,
    naive_ricci_package,
    naive_star_traces,
    rational,
    scaled_values,
    sparse_matrix,
    transpose,
)

# frozen scalar table: (|T|^2, |theta|^2, delta_theta, dT double trace, star scalar)
SCALARS = {
    "torus4": (0, 0, 0, 0, 0),
    "torus8": (0, 0, 0, 0, 0),
    "hopf4": (24, 4, 0, 0, 2),
    "hopf8": (48, 8, 0, 0, 4),
    "nil8": (36, 0, 0, -48, -3),
}


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def test_levi_civita_ricci_hopf4(cat):
    entry = cat["hopf4"]
    r = curvature_operators(levi_civita(entry.lie), entry.lie)
    pkg = ricci_package(r, entry.structure)
    assert pkg.ric == {1: {1: 2}, 2: {2: 2}, 3: {3: 2}}
    assert pkg.scal == 6
    assert pkg.rho.is_zero()
    assert pkg.rho_s[0].comps == {(2, 3): -1}
    assert pkg.scal_s == (0, 0, 0)


def test_ricci_package_matches_dense_oracle(cat, torsions, tmp_path):
    # the sparse traces equal the dense sums over the nested-list curvature,
    # for the Levi-Civita, skew-torsion and torsion-free connections
    cases = [(cat[name], torsions.get(name)) for name in ALL_NAMES]
    for first, second in (("nil8", "hopf4"), ("hc_only8", "torus4")):
        entry = direct_sum_entry(cat[first], cat[second], tmp_path)
        res = hkt_check(entry.structure, entry.lie)
        cases.append((entry, res.torsion if res.ok else None))
    for entry, t in cases:
        alg, h = entry.lie, entry.structure
        lc = levi_civita(alg)
        conns = {"levicivita": lc, "obata": obata_connection(h, alg, t)}
        if t is not None:
            conns["bismut"] = bismut_connection(t, lc)
        for label, conn in conns.items():
            curvature = curvature_operators(conn, alg)
            want = naive_ricci_package(dense_curvature(curvature, entry.dim), h)
            got = ricci_package(curvature, h)
            assert got == want, (entry.name, label)
            assert got.ric_j == naive_ric_j(want.ric, h), (entry.name, label)


@given(st.sampled_from(["torus4", "hopf4", "nil8"]), st.data())
@settings(max_examples=60)
def test_ricci_package_on_random_connections_matches_dense_oracle(cat, name, data):
    # arbitrary, usually non-metric and non-flat connections: their curvature
    # has the diagonal entries R(e_i, e_j)[i][i] that feed ric and rho at once
    entry = cat[name]
    index = st.integers(0, entry.dim - 1)
    values = st.one_of(
        st.integers(-1, 1), st.fractions(min_value=-2, max_value=2, max_denominator=3)
    )
    cells = data.draw(
        st.dictionaries(st.tuples(index, index, index), values, max_size=2 * entry.dim)
    )
    conn = Connection(entry.dim, {idx: v for idx, v in cells.items() if v})
    curvature = curvature_operators(conn, entry.lie)
    want = naive_ricci_package(dense_curvature(curvature, entry.dim), entry.structure)
    got = ricci_package(curvature, entry.structure)
    assert got == want
    assert got.ric_j == naive_ric_j(want.ric, entry.structure)


def test_lee_form_values(cat, torsions):
    for name, comps in (
        ("torus4", {}),
        ("hopf4", {(0,): -2}),
        ("hopf8", {(0,): -2, (4,): -2}),
        ("nil8", {}),
    ):
        lee = lee_form(torsions[name], cat[name].structure, cat[name].lie)
        assert {k: v for k, v in lee.theta.comps.items()} == comps, name
        assert lee.d_theta.is_zero(), name
    assert lee_form(torsions["torus4"], cat["torus4"].structure, cat["torus4"].lie).classification == "balanced"
    assert lee_form(torsions["hopf4"], cat["hopf4"].structure, cat["hopf4"].lie).classification == "closed_nonzero"
    assert lee_form(torsions["nil8"], cat["nil8"].structure, cat["nil8"].lie).classification == "balanced"


def test_lee_form_rejects_non_hkt_torsion(cat):
    # an arbitrary 3-form is not the torsion of all three structures at once
    fake = basis_form(8, (0, 1, 4), 1)
    with pytest.raises(ValueError, match="candidates differ"):
        lee_form(fake, cat["nil8"].structure, cat["nil8"].lie)


def test_scalar_table(cat, torsions):
    for name, (t_sq, theta_sq, delta, double, star) in SCALARS.items():
        entry = cat[name]
        t = torsions[name]
        lee = lee_form(t, entry.structure, entry.lie)
        lc = levi_civita(entry.lie)
        dt = ce_differential(entry.lie, t)
        dtt = dt_traces(dt, entry.structure)
        rep = star_scalar(entry.lie, entry.structure, t, lee, lc, dtt)
        assert norm_sq(t) == t_sq, name
        assert norm_sq(lee.theta) == theta_sq, name
        assert rep.components["delta_theta"] == delta, name
        assert rep.components["dt_double_trace"] == double, name
        assert rep.value == star, name
        for key, evidence in rep.checks.items():
            assert evidence is None, (name, key, evidence)


def test_star_scalar_identities_fail_with_halved_norm(cat, torsions):
    # the calibration pin for the norm convention: with the per-sorted-tuple
    # norm (no k! weight) the trace identity goes false on hopf4
    entry = cat["hopf4"]
    t = torsions["hopf4"]
    lee = lee_form(t, entry.structure, entry.lie)
    t_sq_alt = sum(v * v for v in t.comps.values())  # 4 instead of 24
    theta_sq_alt = sum(v * v for v in lee.theta.comps.values())  # 4 either way
    double = 0
    assert double != 8 * 0 + 8 * theta_sq_alt - Fraction(4 * t_sq_alt, 3)
    assert double == 8 * 0 + 8 * norm_sq(lee.theta) - Fraction(4 * norm_sq(t), 3)


def test_dt_traces_table(cat, torsions):
    expect = {
        "torus4": (0, True, True),
        "torus8": (0, True, True),
        "hopf4": (0, True, True),
        "hopf8": (0, True, True),
        "nil8": (12, False, False),
    }
    for name, (h_value, strong, almost) in expect.items():
        entry = cat[name]
        rep = dt_traces(ce_differential(entry.lie, torsions[name]), entry.structure)
        assert rep.h_value == h_value, name
        assert rep.strong == strong, name
        assert rep.almost_strong == almost, name
        assert rep.traces_coincide, name


def test_dt_traces_matches_dense_oracle(cat, torsions, tmp_path):
    cases = [(cat[name], torsions[name]) for name in HKT_NAMES]
    nil12 = direct_sum_entry(cat["nil8"], cat["hopf4"], tmp_path)
    cases.append((nil12, hkt_check(nil12.structure, nil12.lie).torsion))
    for entry, t in cases:
        got = dt_traces(ce_differential(entry.lie, t), entry.structure)
        assert got == naive_dt_traces(t, entry.structure, entry.lie), entry.name


def test_dt_double_trace_is_minus_four_h(cat, torsions, su3, tmp_path):
    # star_scalar reads the double J1-trace of dT off dt_traces as -4h
    cases = [(cat[name], torsions[name]) for name in HKT_NAMES]
    nil12 = direct_sum_entry(cat["nil8"], cat["hopf4"], tmp_path)
    for entry in (su3, nil12):
        cases.append((entry, hkt_check(entry.structure, entry.lie).torsion))
    for entry, t in cases:
        dt, h = ce_differential(entry.lie, t), entry.structure
        assert double_j_trace(dt, h.j_sparse[0]) == -4 * dt_traces(dt, h).h_value, entry.name


three_forms = st.dictionaries(
    st.sampled_from(list(combinations(range(8), 3))),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    max_size=4,
)


@given(st.sampled_from(["nil8", "hopf8"]), three_forms)
@settings(max_examples=40)
def test_dt_traces_on_random_forms_matches_dense_oracle(cat, name, comps):
    entry = cat[name]
    t = KForm(8, 3, comps)
    dt = ce_differential(entry.lie, t)
    got = dt_traces(dt, entry.structure)
    assert got == naive_dt_traces(t, entry.structure, entry.lie)
    assert double_j_trace(dt, entry.structure.j_sparse[0]) == -4 * got.h_value


four_forms = st.dictionaries(
    st.sampled_from(list(combinations(range(8), 4))),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    max_size=4,
)


@given(st.sampled_from(["nil8", "hopf8", "hc_only8"]), four_forms)
@settings(max_examples=40)
def test_double_j_trace_on_random_forms_matches_dense_oracle(cat, name, comps):
    form4 = KForm(8, 4, comps)
    h = cat[name].structure
    for j, dense in zip(h.j_sparse, dense_js(h)):
        got, want = double_j_trace(form4, j), naive_double_j_trace(form4, dense)
        assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize(
    "name, comps, almost",
    [("nil8", {(3, 4, 6): -1}, False), ("hopf8", {(0, 1, 4): 1, (0, 4, 5): 1}, True)],
)
def test_dt_traces_false_branches(cat, name, comps, almost):
    # neither 3-form is closed and the J1, J2, J3 partial traces differ; on
    # hopf8 the J1 partial trace of d(e^014 + e^045) cancels to zero
    entry = cat[name]
    t = KForm(8, 3, comps)
    got = dt_traces(ce_differential(entry.lie, t), entry.structure)
    assert got == naive_dt_traces(t, entry.structure, entry.lie)
    assert not got.traces_coincide
    assert got.almost_strong == almost
    assert not got.strong


def test_nil8_dt_value(cat, torsions):
    dt = ce_differential(cat["nil8"].lie, torsions["nil8"])
    assert dt.comps == {(0, 1, 2, 3): 6}


def test_chern_norms(cat, torsions):
    rep4 = chern_norm_check(torsions["hopf4"], cat["hopf4"].structure)
    assert rep4.ok and rep4.norms == (8, 8, 8) and rep4.torsion_norm_sq == 24
    rep8 = chern_norm_check(torsions["nil8"], cat["nil8"].structure)
    assert rep8.ok and rep8.norms == (12, 12, 12) and rep8.torsion_norm_sq == 36
    for name in HKT_NAMES:
        assert chern_norm_check(torsions[name], cat[name].structure).ok, name


def test_obata_identity_suite_all_green(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        lee = lee_form(t, entry.structure, entry.lie)
        conn = obata_connection(entry.structure, entry.lie, t)
        pkg = ricci_package(curvature_operators(conn, entry.lie), entry.structure)
        suite = obata_identity_suite(pkg, lee)
        for key, counterexample in suite.items():
            assert counterexample is None, (name, key, counterexample)


def test_obata_ricci_matches_d_lee_exactly(cat, torsions):
    # on the catalog the Lee forms are closed, so every Ricci-type trace of
    # the torsion-free connection must vanish identically
    for name in HKT_NAMES:
        entry = cat[name]
        conn = obata_connection(entry.structure, entry.lie, torsions[name])
        pkg = ricci_package(curvature_operators(conn, entry.lie), entry.structure)
        assert not pkg.ric, name
        assert pkg.rho.is_zero(), name
        assert all(f.is_zero() for f in pkg.rho_s), name
        assert pkg.scal == 0 and pkg.scal_s == (0, 0, 0), name


def test_curvature_relation_on_all_hkt(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        skew = bismut_connection(t, levi_civita(entry.lie))
        conn = obata_connection(entry.structure, entry.lie, t)
        counterexample = curvature_relation_check(
            curvature_operators(skew, entry.lie),
            curvature_operators(conn, entry.lie),
            difference_tensor(t, entry.structure),
            t.cube,
            skew,
        )
        assert counterexample is None, (name, counterexample)


def test_curvature_relation_detects_corruption(cat, torsions):
    entry = cat["hopf4"]
    t = torsions["hopf4"]
    skew = bismut_connection(t, levi_civita(entry.lie))
    conn = obata_connection(entry.structure, entry.lie, t)
    a = difference_tensor(t, entry.structure)
    wrong = integer_scaled(cube_scale(a.entries, 2), a.scale)
    counterexample = curvature_relation_check(
        curvature_operators(skew, entry.lie),
        curvature_operators(conn, entry.lie),
        wrong,
        t.cube,
        skew,
    )
    assert counterexample is not None


def test_covariant_derivative_matches_dense_oracle(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        a = difference_tensor(t, entry.structure)
        for conn in (bismut_connection(t, levi_civita(entry.lie)), levi_civita(entry.lie)):
            for i, op in enumerate(conn.operators):
                # int operator times int entries: over the product of the scales
                cube = covariant_derivative_cube(op, a.entries)
                assert all(type(v) is int for v in cube.values()), (name, i)
                sparse = dense_cube(rational(cube, conn.scale * a.scale), entry.dim)
                want = naive_covariant_derivative(conn, i, scaled_values(a))
                assert sparse == want, (name, i)


@pytest.mark.parametrize("corruption", ["double_a", "r_ob_entry", "t_entry"])
def test_curvature_relation_matches_dense_oracle(cat, torsions, corruption):
    # the sparse check and the dense loop agree on ok and on the first
    # failing quadruple, on clean entries and under each corruption
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        skew = bismut_connection(t, levi_civita(entry.lie))
        r_skew = curvature_operators(skew, entry.lie)
        r_ob = curvature_operators(obata_connection(entry.structure, entry.lie, t), entry.lie)
        a = difference_tensor(t, entry.structure)
        t_cube = t.cube
        if corruption == "double_a":
            a = integer_scaled(cube_scale(a.entries, 2), a.scale)
        elif corruption == "r_ob_entry":
            # the lowered entry r_ob[1][2][3][0] is R_(1,2)[0][3]
            row = r_ob.entries.setdefault((1, 2), {}).setdefault(0, {})
            row[3] = row.get(3, 0) + 1
        else:
            t_cube = cube_add(t_cube, {(0, 1, 2): 1})
        cex = curvature_relation_check(r_skew, r_ob, a, t_cube, skew)
        dense = (dense_curvature(r_skew, entry.dim), dense_curvature(r_ob, entry.dim))
        want = naive_curvature_relation(*dense, scaled_values(a), t_cube, skew, entry.lie)
        assert (cex is None, cex) == want, name
        # on the torus entries A = 0, so only the curvature corruption shows
        assert (cex is None) == (name.startswith("torus") and corruption != "r_ob_entry"), name
        if corruption == "r_ob_entry":
            assert cex == (1, 2, 3, 0), name


def test_bismut_ricci_forms_vanish(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        skew = bismut_connection(torsions[name], levi_civita(entry.lie))
        pkg = ricci_package(curvature_operators(skew, entry.lie), entry.structure)
        assert pkg.rho.is_zero(), name
        assert all(f.is_zero() for f in pkg.rho_s), name


def test_obstruction_report_clean_on_catalog(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        conn = obata_connection(entry.structure, entry.lie, torsions[name])
        pkg = ricci_package(curvature_operators(conn, entry.lie), entry.structure)
        rep = hkt_obstruction_report(pkg, entry.structure)
        assert rep.flags == ()
        assert rep.verdict == "inconclusive"


def test_obstruction_report_flags_fabricated_data(cat):
    # a symmetric nonzero Ricci must trip the first flag
    entry = cat["torus4"]
    conn = obata_connection(entry.structure, entry.lie, None)
    pkg = ricci_package(curvature_operators(conn, entry.lie), entry.structure)
    fake = type(pkg)(
        ric={i: {i: 1} for i in range(4)},
        rho=pkg.rho,
        rho_s=pkg.rho_s,
        scal=4,
        scal_s=pkg.scal_s,
        permutations=pkg.permutations,
    )
    rep = hkt_obstruction_report(fake, entry.structure)
    assert "ricci not skew-symmetric" in rep.flags
    assert "scalar curvature nonzero" in rep.flags
    assert rep.verdict == "no compatible HKT metric"


def test_hyperkahler_detector_verdicts():
    assert hyperkahler_detector(True, 0, 0, True, True).verdict == "hyperkahler"
    assert hyperkahler_detector(False, 0, 0, True, False).verdict == "not applicable"
    assert hyperkahler_detector(True, 5, 7, False, False).verdict == "not applicable"
    bad = hyperkahler_detector(True, 0, 3, False, False)
    assert bad.verdict == "THEOREM VIOLATION"
    assert not bad.consistent


def test_detector_consistent_on_catalog(cat, torsions):
    for name in HKT_NAMES:
        entry = cat[name]
        t = torsions[name]
        lee = lee_form(t, entry.structure, entry.lie)
        lc = levi_civita(entry.lie)
        dt = ce_differential(entry.lie, t)
        traces = dt_traces(dt, entry.structure)
        star = star_scalar(entry.lie, entry.structure, t, lee, lc, traces)
        rep = hyperkahler_detector(
            lee.theta.is_zero(), traces.h_value, star.value, traces.almost_strong, t.is_zero()
        )
        assert rep.consistent, name
        assert rep.verdict != "THEOREM VIOLATION", name


# ---------------------------------------------------------------------------
# the sparse-J readers against their dense oracles, on random nonzero data:
# every builtin's torsion-free Ricci data is zero, so these are the checks
# that see the J-pullbacks and J-traces of nonzero forms

STRUCTURES = ALL_NAMES + ("su3",)

nonzero = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
)


@pytest.fixture(scope="module")
def structures(cat, su3):
    return {**cat, "su3": su3}


def random_two_form(data, dim):
    pairs = st.sampled_from(list(combinations(range(dim), 2)))
    return KForm(dim, 2, data.draw(st.dictionaries(pairs, nonzero, max_size=dim)))


def random_bilinear(data, h, shape):
    """A sparse random matrix, made skew and then J-invariant (summed with
    its pullbacks by J1, J2, J3) as `shape` asks."""
    dim = h.dim
    index = st.integers(0, dim - 1)
    cells = data.draw(st.dictionaries(st.tuples(index, index), nonzero, max_size=dim))
    b = [[cells.get((x, y), 0) for y in range(dim)] for x in range(dim)]
    if shape in ("skew", "one_one"):
        b = [[b[x][y] - b[y][x] for y in range(dim)] for x in range(dim)]
    if shape == "one_one":
        pulls = [mat_mul(transpose(j), mat_mul(b, j)) for j in dense_js(h)]
        b = [[b[x][y] + sum(p[x][y] for p in pulls) for y in range(dim)] for x in range(dim)]
    return b


@pytest.mark.parametrize("name", STRUCTURES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_identity_suite_and_obstruction_match_dense_oracles(structures, name, data):
    h = structures[name].structure
    dim = h.dim
    shapes = st.sampled_from(["random", "skew", "one_one"])
    ric = random_bilinear(data, h, data.draw(shapes))
    d_theta_matrix = random_bilinear(data, h, data.draw(st.sampled_from(["skew", "one_one"])))
    d_theta = KForm(
        dim, 2, {(x, y): d_theta_matrix[x][y] for x, y in combinations(range(dim), 2)}
    )
    if data.draw(st.booleans()):
        # Ric = d(theta) reaches the checks past ricci-equals-d-lee
        ric = [[d_theta.evaluate((x, y)) for y in range(dim)] for x in range(dim)]
    scalar = st.one_of(st.just(0), nonzero)
    pkg = RicciPackage(
        sparse_matrix(ric),
        random_two_form(data, dim),
        tuple(random_two_form(data, dim) for _ in range(3)),
        data.draw(scalar),
        tuple(data.draw(scalar) for _ in range(3)),
        h.permutations,
    )
    theta = KForm(dim, 1, data.draw(st.dictionaries(st.tuples(st.integers(0, dim - 1)), nonzero)))
    lee = LeeForm(theta, d_theta, "nonclosed")
    assert repr(obata_identity_suite(pkg, lee)) == repr(naive_obata_identity_suite(pkg, lee, h))
    assert repr(hkt_obstruction_report(pkg, h)) == repr(naive_hkt_obstruction_report(pkg, h))


@pytest.fixture(scope="module")
def star_structures(structures, tmp_path_factory):
    """STRUCTURES and three sums: nil12, hopf16 and su3+hopf8, whose bracket
    denominators make the lcm d > 1."""
    directory = tmp_path_factory.mktemp("star")
    sums = {"nil12": ("nil8", "hopf4"), "hopf16": ("hopf8", "hopf8"), "su3+hopf8": ("su3", "hopf8")}
    return {
        **structures,
        **{
            name: direct_sum_entry(structures[a], structures[b], directory)
            for name, (a, b) in sums.items()
        },
    }


@pytest.mark.parametrize("name", STRUCTURES + ("nil12", "hopf16", "su3+hopf8"))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_star_traces_match_dense_oracle(star_structures, name, data):
    # random, usually non-metric connections give nonzero rho_s; the
    # reference sums the dense curvature operators of the same connection
    entry = star_structures[name]
    h, dim = entry.structure, entry.dim
    index = st.integers(0, dim - 1)
    cells = data.draw(st.dictionaries(st.tuples(index, index, index), nonzero, max_size=dim))
    conn = Connection(dim, cells)
    zero = LeeForm(KForm(dim, 1), KForm(dim, 2), "balanced")
    report = star_scalar(entry.lie, h, KForm(dim, 3), zero, conn, dt_traces(KForm(dim, 4), h))
    want = naive_star_traces(conn, entry.lie, h)
    coincide = want[0] == want[1] == want[2]
    assert repr(report.value) == repr(want[0])
    assert repr(report.checks["star-scalars-coincide"]) == repr(None if coincide else tuple(want))


@pytest.mark.parametrize("name", STRUCTURES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_lee_form_matches_dense_oracle(structures, name, data):
    entry = structures[name]
    dim = entry.dim
    triples = st.sampled_from(list(combinations(range(dim), 3)))
    t = KForm(dim, 3, data.draw(st.dictionaries(triples, nonzero, max_size=dim)))
    try:
        want = repr(naive_lee_form(t, entry.structure, entry.lie))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            lee_form(t, entry.structure, entry.lie)
    else:
        assert repr(lee_form(t, entry.structure, entry.lie)) == want


def test_lee_form_matches_dense_oracle_on_hkt_torsions(structures, tmp_path):
    entries = [structures[name] for name in HKT_NAMES + ("su3",)]
    entries.append(direct_sum_entry(structures["su3"], structures["hopf4"], tmp_path))
    for entry in entries:
        t = hkt_check(entry.structure, entry.lie).torsion
        got = lee_form(t, entry.structure, entry.lie)
        assert repr(got) == repr(naive_lee_form(t, entry.structure, entry.lie)), entry.name
