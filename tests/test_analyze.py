"""Each object of the analysis pipeline is computed once: call counts of
the expensive builders during one analysis or one CLI call."""

import importlib
import json
import pkgutil
import re
from collections import Counter
from dataclasses import asdict, is_dataclass, replace
from functools import cached_property

import pytest

import hktlab
from hktlab import analyze, cli, curvature
from hktlab.analyze import _jsonify, analyze_entry
from hktlab.catalog import builtin_by_name, load, save, serialize
from hktlab.exact import format_scalar, parse_scalar
from hktlab.holonomy import holonomy_algebra
from hktlab.hyperhermitian import HyperhermitianStructure, bismut_connection, glnh_membership
from hktlab.hyperhermitian import hkt_check
from hktlab.invariant import Connection, LieAlgebra, curvature_operators, levi_civita
from hktlab.linalg import RowSpan, sparse_commutator, support
from hktlab.obata import obata_connection
from hktlab.tensors import KForm

from oracle_impl import HKT_NAMES, direct_sum_entry

MODULES = [hktlab] + [
    importlib.import_module(f"hktlab.{info.name}")
    for info in pkgutil.iter_modules(hktlab.__path__)
]

COUNTED = (
    "nijenhuis",
    "kt_torsion",
    "glnh_membership",
    "levi_civita",
    "curvature_operators",
    "curvature_tensor",
    "ce_differential",
    "bismut_connection",
    "difference_tensor",
    "obata_oracle_solver",
    "commutant_basis",
    "rref",
    "nullspace",
    "sparse_commutator",
    "sparse_product",
    "j_pullback",
    "_j_partial_trace",
    "validate_lie_algebra",
    "covariant_derivative_cube",
)


def _binders(*names: str) -> list[str]:
    """The package namespaces that bind any of the names."""
    return [
        f"{module.__name__}.{name}" for module in MODULES for name in names if name in vars(module)
    ]


@pytest.fixture()
def calls(monkeypatch):
    """Counts calls of COUNTED through every module namespace that binds them;
    a name that no module binds would count nothing, so it fails the test."""
    unbound = [name for name in COUNTED if not _binders(name)]
    if unbound:
        pytest.fail(f"COUNTED names that no package module binds: {unbound}")
    counts = Counter()
    for module in MODULES:
        for name in COUNTED:
            original = vars(module).get(name)
            if original is None:
                continue

            def counted(*args, _fn=original, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    add = RowSpan.add

    def counted_add(self, row):
        counts["RowSpan.add"] += 1
        return add(self, row)

    monkeypatch.setattr(RowSpan, "add", counted_add)
    build = Connection.operators.func

    def counted_build(self):
        counts["Connection.operators"] += 1
        return build(self)

    operators = cached_property(counted_build)
    operators.__set_name__(Connection, "operators")
    monkeypatch.setattr(Connection, "operators", operators)
    derive = HyperhermitianStructure.permutations.func

    def counted_derive(self):
        counts["HyperhermitianStructure.permutations"] += 1
        return derive(self)

    permutations = cached_property(counted_derive)
    permutations.__set_name__(HyperhermitianStructure, "permutations")
    monkeypatch.setattr(HyperhermitianStructure, "permutations", permutations)
    to_cube = KForm.cube.func

    def counted_cube(self):
        counts["KForm.cube"] += 1
        return to_cube(self)

    cube = cached_property(counted_cube)
    cube.__set_name__(KForm, "cube")
    monkeypatch.setattr(KForm, "cube", cube)
    to_bracket_cube = LieAlgebra.cube.func

    def counted_bracket_cube(self):
        counts["LieAlgebra.cube"] += 1
        return to_bracket_cube(self)

    bracket_cube = cached_property(counted_bracket_cube)
    bracket_cube.__set_name__(LieAlgebra, "cube")
    monkeypatch.setattr(LieAlgebra, "cube", bracket_cube)
    return counts


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def _fresh_structure(entry):
    """The entry with a structure built anew, so that its J maps are
    derived under the counting fixture."""
    return replace(entry, structure=replace(entry.structure))


def test_hkt_analysis_builds_each_object_once(calls, cat):
    analyze_entry(_fresh_structure(cat["hopf8"]))
    assert calls["nijenhuis"] == 3
    # one torsion per complex structure, from the Nijenhuis form hkt_check holds
    assert calls["kt_torsion"] == 3
    assert calls["bismut_connection"] <= 1
    assert calls["difference_tensor"] == 1
    assert calls["levi_civita"] == 1
    assert calls["obata_oracle_solver"] == 1
    # the curvatures of the torsion-free and skew-torsion connections only:
    # the *-scalar reads the Levi-Civita operators, not a curvature; never
    # the dense tensor; dT and d(theta) only, as each candidate torsion
    # folds J dF out of the brackets without forming dF
    assert calls["curvature_operators"] == 2
    assert calls["curvature_tensor"] == 0
    assert calls["ce_differential"] == 2
    # Ric(J., J.) only for the torsion-free connection, whose package the
    # identity suite and the obstruction report read (3), beside the suite's
    # d(theta)(J., J.) (3); no fundamental form is built
    assert calls["j_pullback"] == 6
    # the double J1-trace of dT is read off the J1 partial trace
    assert _binders("_double_j_trace") == []
    assert calls["_j_partial_trace"] == 3
    # each J's signed permutation is a view of the structure, derived on read
    assert _binders("signed_permutation") == []
    # each 3-form derives its cube once: the torsion's, which every identity
    # reads, and one per Nijenhuis skew check (3)
    assert calls["KForm.cube"] == 4
    # each structure derives its J maps once, where it is built, and every
    # J-contraction (the Nijenhuis tensors, the candidate torsions, the type
    # identities, the difference tensor, the Chern norms) reads them
    assert calls["HyperhermitianStructure.permutations"] == 1
    assert _binders("row_images") == []


def test_structure_derives_its_permutations_once(calls, cat):
    # a fresh structure and algebra, so no earlier test has derived their
    # views; the commutant and the membership tests of the 8 torsion-free
    # operators (both holonomy closures of hopf8 are 0) share the
    # permutations, and the Jacobi walk, the three Nijenhuis tensors,
    # levi_civita and torsion_cube share one bracket cube
    hopf8 = cat["hopf8"]
    entry = replace(hopf8, lie=replace(hopf8.lie), structure=replace(hopf8.structure))
    analyze_entry(entry)
    assert calls["commutant_basis"] == 1
    assert calls["glnh_membership"] == 8
    assert calls["HyperhermitianStructure.permutations"] == 1
    assert calls["LieAlgebra.cube"] == 1


def test_non_hkt_analysis_skips_levi_civita(calls, cat):
    analyze_entry(_fresh_structure(cat["hc_only8"]))
    assert calls["nijenhuis"] == 3
    assert calls["levi_civita"] == 0
    assert calls["obata_oracle_solver"] == 1
    assert calls["curvature_operators"] == 1
    assert calls["curvature_tensor"] == 0
    # the Nijenhuis tensors and the three candidate torsions' J-twists read
    # the J maps the structure derived once
    assert calls["HyperhermitianStructure.permutations"] == 1


@pytest.mark.parametrize("name", HKT_NAMES + ("su3", "nil16"))
def test_hkt_analysis_builds_no_levi_civita_curvature(cat, su3, name, monkeypatch, tmp_path):
    # the *-scalar reads the Levi-Civita operators at the J-pairs, so the two
    # curvatures built are the torsion-free and the skew-torsion ones: never
    # of the connection levi_civita returned, nor, where the torsion is
    # nonzero, of one equal to it (with zero torsion, on the tori, all three
    # connections are equal)
    entries = {**cat, "su3": su3}
    if name == "nil16":
        entries[name] = direct_sum_entry(cat["nil8"], cat["nil8"], tmp_path)
    entry = entries[name]
    made, seen = [], []
    for module in MODULES:
        if "levi_civita" in vars(module):
            def spied_lc(alg, _fn=vars(module)["levi_civita"]):
                made.append(_fn(alg))
                return made[-1]

            monkeypatch.setattr(module, "levi_civita", spied_lc)
        if "curvature_operators" in vars(module):
            def spied_curvature(conn, alg, _fn=vars(module)["curvature_operators"]):
                seen.append(conn)
                return _fn(conn, alg)

            monkeypatch.setattr(module, "curvature_operators", spied_curvature)
    analyze_entry(entry)
    assert made and all(conn is not lc for conn in seen for lc in made)
    assert len(seen) == 2
    if not hkt_check(entry.structure, entry.lie).torsion.is_zero():
        assert made[0] not in seen


def test_holonomy_obata_uses_difference_route(calls, capsys):
    assert cli.main(["holonomy", "--builtin", "nil8", "--connection", "obata"]) == 0
    assert "connection: obata" in capsys.readouterr().out
    assert calls["nijenhuis"] == 3
    assert calls["obata_oracle_solver"] == 0
    # the postcondition check, the curvature and the closure share one build
    assert calls["Connection.operators"] == 1


@pytest.mark.parametrize("connection", ["bismut", "levicivita"])
def test_holonomy_tests_each_generator_once(calls, capsys, su3, su3_path, connection):
    # `quaternion-linear:` reads the certificate of every connection's
    # closure, which tests each generator once, up to the first that fails:
    # all of su3's skew-torsion generators pass, and a Levi-Civita one fails
    conn = levi_civita(su3.lie)
    if connection == "bismut":
        conn = bismut_connection(hkt_check(su3.structure, su3.lie).torsion, conn)
    hol = holonomy_algebra(conn, curvature_operators(conn, su3.lie))
    passing = [glnh_membership(g, su3.structure) for g in hol.generators]
    tested = passing.index(False) + 1 if False in passing else len(passing)
    assert tested < len(passing) if connection == "levicivita" else tested == len(passing)
    calls.clear()
    assert cli.main(["holonomy", str(su3_path), "--connection", connection]) == 0
    generators = re.search(r"^generators: (\d+)$", capsys.readouterr().out, re.M)
    assert int(generators.group(1)) == len(hol.generators) > 0
    assert calls["glnh_membership"] == tested
    assert calls["nijenhuis"] == (3 if connection == "bismut" else 0)


@pytest.mark.parametrize(
    "connection, counts",
    [
        ("levicivita", {"nijenhuis": 0, "levi_civita": 1}),
        ("bismut", {"ce_differential": 0, "difference_tensor": 0, "obata_oracle_solver": 0}),
        ("obata", {"obata_oracle_solver": 0, "ce_differential": 0}),
    ],
)
def test_holonomy_builds_only_the_stages_its_connection_reads(calls, capsys, connection, counts):
    # the command reads the analysis' stages, and none that only the report
    # reads: no common-torsion check for Levi-Civita; no dT, difference
    # tensor or solver for the skew-torsion connection; and nil8's
    # torsion-free connection comes from the difference tensor, without
    # the solver or dT
    assert cli.main(["holonomy", "--builtin", "nil8", "--connection", connection]) == 0
    assert f"connection: {connection}" in capsys.readouterr().out
    assert {name: calls[name] for name in counts} == counts


@pytest.mark.parametrize("name", ["hopf8", "hc_only8"])
def test_solver_stays_off_dense_rref(calls, cat, name):
    analyze_entry(cat[name])
    assert calls["commutant_basis"] == 1
    assert calls["rref"] == 0


@pytest.mark.parametrize("name", ["hopf8", "hc_only8"])
def test_commutant_calls_no_nullspace(calls, cat, name):
    # gl(n, H) is read off the signed-permutation J's, with no elimination
    analyze_entry(cat[name])
    assert calls["commutant_basis"] == 1
    assert calls["nullspace"] == 0


def test_non_hkt_solver_feeds_only_torsion_equations(monkeypatch, cat, tmp_path):
    # hc16: the certificate counts the C(16, 2) * 16 = 1920 torsion-free
    # equations over 16 * 64 unknowns, solved as a signed graph with no
    # elimination: the analysis inserts no row into a RowSpan
    entry = direct_sum_entry(cat["hc_only8"], cat["hc_only8"], tmp_path)
    rows = []
    insert = RowSpan._insert

    def counted(self, row):
        rows.append(row)
        return insert(self, row)

    monkeypatch.setattr(RowSpan, "_insert", counted)
    report = analyze_entry(entry)
    assert report["obata"]["solver_certificate"] == {
        "commutant_dim": 64,
        "unknowns": 1024,
        "equations": 1920,
        "rank": 1024,
        "unique": True,
    }
    assert rows == []


def test_holonomy_closure_brackets_with_connection_operators_only(calls, cat):
    # nil8's skew-torsion closure: its 9 seeds have rank 3 on 6 cells, so
    # the certificate does not settle it and the bracket loop runs
    entry = cat["nil8"]
    alg = entry.lie
    conn = bismut_connection(hkt_check(entry.structure, alg).torsion, levi_civita(alg))
    curvature = curvature_operators(conn, alg)
    calls.clear()
    hol = holonomy_algebra(conn, curvature)
    assert hol.dim == 3
    # one bracket per connection operator and basis element whose supports
    # meet: 9 of the dim * hol_dim = 8 * 3 pairs, the other 15 vanish by
    # support and are skipped. 6 of the 9 are nonzero, and each is offered
    # after the 9 seeds. The closure sums its brackets itself, on flat
    # rows, and calls no matrix kernel.
    supports = [support(op) for op in conn.operators]
    brackets = [
        (g, k)
        for g, s in zip(hol.generators, map(support, hol.generators))
        for k, op in enumerate(supports)
        if op[1] & s[0] or s[1] & op[0]
    ]
    assert len(brackets) == 9
    assert calls["sparse_commutator"] == 0
    nonzero = [sparse_commutator(conn.operators[k], g) for g, k in brackets]
    assert sum(map(bool, nonzero)) == 6
    assert len(curvature.entries) == 9
    assert calls["RowSpan.add"] == 15


@pytest.mark.parametrize(
    "name, connection, seeds, adds",
    [
        ("nil8", "levicivita", 21, 21),
        ("hopf8", "levicivita", 6, 6),
        ("hc_only8", "levicivita", 10, 10),
        ("nil16", "levicivita", 42, 42),
        ("nil8", "bismut", 9, 15),
        ("su3", "levicivita", 25, 224),
    ],
)
def test_holonomy_closure_offers_only_the_seeds_of_a_closed_whole_cell_span(
    calls, cat, su3, tmp_path, name, connection, seeds, adds
):
    # Levi-Civita seeds that span every skew matrix on the cells they hold,
    # which the connection operators keep, are certified closed from the
    # supports: each seed is offered once and nothing is bracketed. nil8's
    # skew-torsion seeds (rank 3 on 6 cells) and su3's Levi-Civita ones
    # (a closure of dim 28) are not, and run the bracket loop
    if name == "nil16":
        entry = direct_sum_entry(cat["nil8"], cat["nil8"], tmp_path)
    else:
        entry = su3 if name == "su3" else cat[name]
    conn = levi_civita(entry.lie)
    if connection == "bismut":
        conn = bismut_connection(hkt_check(entry.structure, entry.lie).torsion, conn)
    curvature = curvature_operators(conn, entry.lie)
    calls.clear()
    holonomy_algebra(conn, curvature)
    assert len(curvature.entries) == seeds
    assert calls["RowSpan.add"] == adds
    assert calls["sparse_commutator"] == 0


def test_operator_algebra_stays_off_dense_products(calls, cat):
    entry = cat["nil8"]
    alg, h = entry.lie, entry.structure
    lc = levi_civita(alg)
    ob = obata_connection(h, alg)
    calls.clear()
    holonomy_algebra(lc, curvature_operators(lc, alg))
    assert all(glnh_membership(op, h) for op in ob.operators)
    # R(e_i, e_j) for the 21 of 28 pairs whose supports meet, on the sparse
    # kernel; the closure sums its brackets on flat rows and the
    # quaternion-linearity test relabels cells, so neither forms a product
    assert calls["sparse_commutator"] == 21
    assert calls["sparse_product"] == 0
    assert _binders("mat_mul", "commutator") == []


def test_each_connection_builds_its_operators_once(calls, cat):
    analyze_entry(cat["nil8"])
    # one build per connection read: torsion-free, skew-torsion, Levi-Civita;
    # the solver's connection is only compared with the torsion-free one
    assert calls["Connection.operators"] == 3
    calls.clear()
    analyze_entry(cat["hc_only8"])
    assert calls["Connection.operators"] == 1


def test_structure_holds_its_sparse_complex_structures(calls, cat):
    analyze_entry(cat["hopf8"])
    analyze_entry(cat["hopf8"])
    assert _binders("sparse_matrix") == []


def test_analysis_stays_off_dense_operators(calls, cat):
    analyze_entry(cat["nil8"])
    assert _binders("sparse_matrix") == []
    assert _binders("commutator", "dense_matrix") == []


@pytest.mark.parametrize("name", ["hopf8", "nil8", "hc_only8"])
def test_analysis_reads_only_sparse_complex_structures(calls, cat, name):
    # every J-contraction reads the sparse J's
    analyze_entry(cat[name])
    assert _binders("sparse_matrix") == []
    assert _binders("mat_mul") == []


@pytest.mark.parametrize("name", ["hopf8", "hc_only8", "nil8"])
def test_hkt_check_stays_off_dense_mat_vec(calls, cat, name):
    entry = cat[name]
    hkt_check(entry.structure, entry.lie)
    assert calls["nijenhuis"] == 3
    assert _binders("mat_vec") == []


def test_load_and_analysis_walk_the_jacobi_triples_once(calls, cat, tmp_path, su3_path):
    # the loader's Jacobi check and the report's validation.jacobi read one
    # cached defect; a metric the loader rebases away (4 I, with doubled
    # constants) carries it across the change of frame
    save(cat["hopf8"], tmp_path / "hopf8.json")
    doc = serialize(cat["hc_only8"])
    doc["metric"] = [["4" if r == c else "0" for c in range(doc["dim"])] for r in range(doc["dim"])]
    doc["structure_constants"] = [
        [i, j, k, format_scalar(2 * parse_scalar(v))] for i, j, k, v in doc["structure_constants"]
    ]
    (tmp_path / "scaled.json").write_text(json.dumps(doc), encoding="utf-8")
    for path in (tmp_path / "hopf8.json", su3_path, tmp_path / "scaled.json"):
        calls.clear()
        assert analyze_entry(load(path))["validation"]["jacobi"] is True
        assert calls["validate_lie_algebra"] == 1


@pytest.mark.parametrize("name", ["hopf8", "nil8"])
def test_curvature_relation_differentiates_nonzero_skew_operators_only(calls, cat, name):
    # nabla_{e_i} A is formed once per nonzero skew-torsion operator: hopf8's
    # skew-torsion connection is zero (none of 8), nil8's has 3 of 8
    entry = cat[name]
    skew = bismut_connection(hkt_check(entry.structure, entry.lie).torsion, levi_civita(entry.lie))
    nonzero = sum(1 for op in skew.operators if op)
    assert nonzero == {"hopf8": 0, "nil8": 3}[name]
    calls.clear()
    analyze_entry(entry)
    assert calls["covariant_derivative_cube"] == nonzero


def test_flat_connection_stores_no_curvature_and_a_zero_ricci_package(monkeypatch, cat):
    # hopf8's torsion-free connection is flat: its curvature stores no
    # operator R(e_i, e_j), and its Ricci package is zero, with no Ricci
    # sum formed
    entry = cat["hopf8"]
    ob = obata_connection(entry.structure, entry.lie)
    r_ob = curvature_operators(ob, entry.lie)
    assert r_ob.entries == {}
    subtracted = []
    subtract = curvature.sparse_subtract

    def counted(*args):
        subtracted.append(args)
        return subtract(*args)

    monkeypatch.setattr(curvature, "sparse_subtract", counted)
    pkg = curvature.ricci_package(r_ob, entry.structure)
    assert subtracted == []
    assert pkg.ric == {} and pkg.scal == 0 and pkg.rho.is_zero()


def _flat(value):
    """A report record field that `dataclasses.asdict` would not copy deeply:
    a leaf, or a tuple of flat values."""
    if isinstance(value, tuple):
        return all(map(_flat, value))
    return not isinstance(value, (dict, list)) and not is_dataclass(value)


def test_shallow_record_read_loses_nothing(monkeypatch, cat, su3):
    # the report reads its flat records shallowly; every record it writes
    # reads as `asdict` reads it, and no field holds a nested object that
    # `asdict` would have copied
    records = []
    read = analyze._record
    monkeypatch.setattr(analyze, "_record", lambda record: records.append(record) or read(record))
    for entry in [*cat.values(), su3]:
        analyze_entry(entry)
    assert {type(r).__name__ for r in records} == {
        "SolverCertificate", "SlCertificate", "StructureVerdict", "DetectorReport"
    }
    for record in records:
        assert all(map(_flat, vars(record).values())), record
        assert list(read(record).items()) == list(asdict(record).items()), record
        assert _jsonify(read(record)) == _jsonify(asdict(record)), record
