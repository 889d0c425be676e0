"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Every assertion is a zero-tolerance equality between rationals. The shared
bundle computes each catalog entry's torsion, Lee form, connections,
curvatures and holonomy once; individual criteria only assert.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest

from hktlab import cli
from hktlab.catalog import CatalogEntry, builtin_by_name, load, save
from hktlab.curvature import (
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
from hktlab.holonomy import HOPF_CAVEAT_TEXT, holonomy_algebra, is_g_skew, slnh_membership
from hktlab.hyperhermitian import bismut_connection, glnh_membership, hkt_check
from hktlab.invariant import ce_differential, curvature_operators, levi_civita
from hktlab.obata import (
    difference_tensor,
    obata_connection,
    obata_oracle_solver,
    trace_identities,
)
from hktlab.tensors import norm_sq, wedge

from oracle_impl import (
    ALL_NAMES,
    HKT_NAMES,
    dense_js,
    fundamental_forms,
    naive_curvature_operator,
    naive_d_eval,
    naive_koszul,
    naive_wedge_eval,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class Bundle:
    entry: CatalogEntry
    torsion: object  # KForm | None for the non-HKT entry
    lee: object
    conn_ob: object
    r_ob: object
    pkg_ob: object
    hol_ob: object


def _bundle(entry: CatalogEntry) -> Bundle:
    res = hkt_check(entry.structure, entry.lie)
    t = res.torsion if res.ok else None
    lee = lee_form(t, entry.structure, entry.lie) if res.ok else None
    conn_ob = obata_connection(entry.structure, entry.lie, t)
    r_ob = curvature_operators(conn_ob, entry.lie)
    pkg_ob = ricci_package(r_ob, entry.structure)
    hol_ob = holonomy_algebra(conn_ob, r_ob)
    return Bundle(entry, t, lee, conn_ob, r_ob, pkg_ob, hol_ob)


@pytest.fixture(scope="module")
def bundles():
    return {name: _bundle(entry) for name, entry in builtin_by_name().items()}


def test_criterion_01_difference_tensor_trace_identities(bundles):
    # real-frame traces against -2*theta, twisted traces vanish, and the
    # complex-frame version, whose real and imaginary parts are the plain
    # and the J1 trace; every entry with a common skew torsion
    for name in HKT_NAMES:
        b = bundles[name]
        a = difference_tensor(b.torsion, b.entry.structure)
        real, cplx = trace_identities(a, b.entry.structure, b.lee.theta)
        assert not real, (name, real)
        assert not cplx, (name, cplx)


def test_criterion_02_torsion_free_ricci_identities(bundles):
    # Ricci = d(Lee), rho = -2 d(Lee), the three twisted rho vanish, both
    # scalar traces vanish, and d(Lee) and Ricci are J-invariant (1,1)
    for name in HKT_NAMES:
        b = bundles[name]
        suite = obata_identity_suite(b.pkg_ob, b.lee)
        for key, counterexample in suite.items():
            assert counterexample is None, (name, key, counterexample)


def test_criterion_03_torsion_free_connection_uniqueness(bundles):
    # the constructed connection equals the one found by the generic linear
    # solver coefficient for coefficient, and the solver's full column rank
    # certifies uniqueness; every integrable entry, HKT or not
    for name in ALL_NAMES:
        b = bundles[name]
        solved, cert = obata_oracle_solver(b.entry.structure, b.entry.lie)
        assert b.conn_ob == solved, name
        assert cert.unique, name
        assert cert.rank == cert.unknowns, name


def test_criterion_04_curvature_relation(bundles):
    # torsion-free curvature reconstructed from the skew-torsion curvature
    # plus difference-tensor terms on every basis quadruple
    for name in HKT_NAMES:
        b = bundles[name]
        skew = bismut_connection(b.torsion, levi_civita(b.entry.lie))
        counterexample = curvature_relation_check(
            curvature_operators(skew, b.entry.lie),
            b.r_ob,
            difference_tensor(b.torsion, b.entry.structure),
            b.torsion.cube,
            skew,
        )
        assert counterexample is None, (name, counterexample)


def test_criterion_05_balanced_equivalence_and_caveat(bundles, analyses):
    # vanishing Lee form, vanishing torsion-free Ricci, and trace-free
    # holonomy generators rise and fall together; a closed nonvanishing
    # Lee form gets the restricted tier plus an explicit caveat
    for name in HKT_NAMES:
        b = bundles[name]
        theta_zero = b.lee.theta.is_zero()
        ricci_zero = (
            not b.pkg_ob.ric
            and b.pkg_ob.rho.is_zero()
            and all(f.is_zero() for f in b.pkg_ob.rho_s)
            and b.pkg_ob.scal == 0
        )
        cert = slnh_membership(b.hol_ob, b.entry.structure)
        verdict = analyses[name]["verdict"]
        if theta_zero:
            assert ricci_zero and cert.all_trace_free, name
            assert verdict["sl_tier"] == "invariant_SL", name
            assert not verdict["hopf_caveat"], name
        if ricci_zero and cert.all_trace_free and not theta_zero:
            # the converse can only fail through the quotient caveat
            assert b.lee.d_theta.is_zero(), name
            assert verdict["sl_tier"] == "restricted_SL", name
            assert verdict["hopf_caveat"], name
            assert verdict["caveat_text"] == HOPF_CAVEAT_TEXT, name
    hopf = bundles["hopf4"]
    assert not hopf.lee.theta.is_zero()
    assert hopf.lee.d_theta.is_zero()
    assert hopf.hol_ob.dim == 0
    assert analyses["hopf4"]["verdict"]["hopf_caveat"] is True


def test_criterion_06_scalar_identities(bundles):
    # the two scalar identities with each side recomputed from scratch:
    # curvature side via definition-level operators, torsion and Lee side
    # via the naive differential and Koszul formula; endpoints frozen
    frozen = {
        "hopf4": {"star": 2, "double": 0, "delta": 0, "theta_sq": 4, "t_sq": 24},
        "nil8": {"star": -3, "double": -48, "delta": 0, "theta_sq": 0, "t_sq": 36},
    }
    for name, want in frozen.items():
        b = bundles[name]
        entry = b.entry
        dim = entry.dim
        h = entry.structure
        t = b.torsion

        t_sq = factorial(3) * sum(v * v for v in t.comps.values())
        theta_sq = sum(v * v for v in b.lee.theta.comps.values())
        assert t_sq == norm_sq(t) == want["t_sq"], name
        assert theta_sq == norm_sq(b.lee.theta) == want["theta_sq"], name

        delta = sum(
            naive_koszul(entry.lie, a, a, m) * b.lee.theta.evaluate((m,))
            for a in range(dim)
            for m in range(dim)
        )
        assert delta == want["delta"], name

        # dT rebuilt from the bracket formula, then double-traced with each J
        dt_vals = {
            idx: naive_d_eval(entry.lie, t, idx) for idx in combinations(range(dim), 4)
        }

        def dt_eval(i, r, k, m, vals=dt_vals):
            key = tuple(sorted((i, r, k, m)))
            if len(set((i, r, k, m))) < 4:
                return Fraction(0)
            sign = 1
            seq = [i, r, k, m]
            for x in range(4):
                for y in range(x + 1, 4):
                    if seq[x] > seq[y]:
                        sign = -sign
            return sign * vals[key]

        doubles = []
        for j in dense_js(h):
            total = Fraction(0)
            for a in range(dim):
                for r in range(dim):
                    if not j[r][a]:
                        continue
                    for c in range(dim):
                        for m in range(dim):
                            if j[m][c]:
                                total += j[r][a] * j[m][c] * dt_eval(a, r, c, m)
            doubles.append(total)
        assert doubles[0] == doubles[1] == doubles[2] == want["double"], name
        assert doubles[0] == 8 * delta + 8 * theta_sq - Fraction(4 * t_sq, 3), name

        # curvature side of the star-scalar identity from naive operators
        lc = levi_civita(entry.lie)
        ops = {
            (i, j_): naive_curvature_operator(lc, entry.lie, i, j_)
            for i in range(dim)
            for j_ in range(dim)
        }
        j1 = dense_js(h)[0]
        star = Fraction(0)
        for x in range(dim):
            for y in range(dim):
                if not j1[x][y]:
                    continue
                op = ops[(x, y)]
                inner = sum(
                    j1[d][c] * op[d][c] for c in range(dim) for d in range(dim) if j1[d][c]
                )
                star += Fraction(j1[x][y] * inner, 2)
        assert star == want["star"], name
        assert star == delta + theta_sq - Fraction(t_sq, 12), name
        assert star == Fraction(doubles[0], 8) + Fraction(t_sq, 12), name

        dtt = dt_traces(ce_differential(entry.lie, t), h)
        engine = star_scalar(entry.lie, h, t, b.lee, lc, dtt)
        assert engine.value == star, name
        assert all(c is None for c in engine.checks.values()), name

    # the torsion's three twisted parts carry equal norms, a third each
    for name in HKT_NAMES:
        b = bundles[name]
        rep = chern_norm_check(b.torsion, b.entry.structure)
        assert rep.ok, name
        assert all(3 * nrm == rep.torsion_norm_sq for nrm in rep.norms), name


def test_criterion_07_skew_torsion_ricci_and_holonomy(bundles):
    # both Ricci 2-forms of the skew-torsion connection vanish and its
    # holonomy generators are metric-skew and quaternion-linear
    for name in HKT_NAMES:
        b = bundles[name]
        skew = bismut_connection(b.torsion, levi_civita(b.entry.lie))
        r_skew = curvature_operators(skew, b.entry.lie)
        pkg = ricci_package(r_skew, b.entry.structure)
        assert pkg.rho.is_zero(), name
        assert all(f.is_zero() for f in pkg.rho_s), name
        hol = holonomy_algebra(skew, r_skew)
        assert all(is_g_skew(g) for g in hol.generators), name
        assert all(glnh_membership(g, b.entry.structure) for g in hol.generators), name


def test_criterion_08a_no_false_obstruction(bundles):
    # structures that do carry a common skew torsion never get flagged
    for name in HKT_NAMES:
        b = bundles[name]
        rep = hkt_obstruction_report(b.pkg_ob, b.entry.structure)
        assert rep.flags == (), (name, rep.flags)
        assert rep.verdict == "inconclusive", name


def test_criterion_08b_obstruction_detects_hc_only8(bundles):
    b = bundles["hc_only8"]
    rep = hkt_obstruction_report(b.pkg_ob, b.entry.structure)
    assert len(rep.flags) >= 1, (
        "expected >=1 obstruction flag on hc_only8, but Ric/rho_s/scalars of its"
        " torsion-free connection are exactly zero (the connection is flat); these"
        " flags are provably unattainable for any input that passes validation,"
        " since every Ricci-type trace the report inspects vanishes identically"
        " for a torsion-free connection preserving all three complex structures"
    )


def test_criterion_09_hyperkahler_detector(bundles):
    # no zero-Lee entry with a vanishing trace invariant may carry torsion
    for name in HKT_NAMES:
        b = bundles[name]
        lc = levi_civita(b.entry.lie)
        dt = ce_differential(b.entry.lie, b.torsion)
        traces = dt_traces(dt, b.entry.structure)
        star = star_scalar(
            b.entry.lie,
            b.entry.structure,
            b.torsion,
            b.lee,
            lc,
            traces,
        )
        theta_zero = b.lee.theta.is_zero()
        torsion_zero = b.torsion.is_zero()
        if theta_zero and (traces.h_value == 0 or star.value == 0 or traces.almost_strong):
            assert torsion_zero, name
        rep = hyperkahler_detector(
            theta_zero, traces.h_value, star.value, traces.almost_strong, torsion_zero
        )
        assert rep.consistent, name
        assert rep.verdict != "THEOREM VIOLATION", name
        if name.startswith("torus"):
            assert rep.verdict == "hyperkahler", name


def test_criterion_10_infrastructure(bundles, tmp_path, capsys):
    cat = builtin_by_name()
    # the invariant differential squares to zero on every fundamental form
    for name, entry in cat.items():
        for f in fundamental_forms(entry.structure):
            df = ce_differential(entry.lie, f)
            assert ce_differential(entry.lie, df).is_zero(), name
    # wedge agrees with the full permutation-sum definition
    f1 = fundamental_forms(cat["hopf4"].structure)[0]
    ff = wedge(f1, f1)
    for idx in combinations(range(4), 4):
        assert ff.evaluate(idx) == naive_wedge_eval(f1, f1, idx)
    # catalog round trip is byte-exact
    for name, entry in cat.items():
        p1 = tmp_path / f"{name}.json"
        p2 = tmp_path / f"{name}.2.json"
        save(entry, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes(), name
    # the command-line analyzer reproduces the golden reports exactly
    for name in ALL_NAMES:
        rc = cli.main(["analyze", "--builtin", name, "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0, name
        report = json.loads(out)
        report["elapsed_ms"] = 0
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert report == golden, name
