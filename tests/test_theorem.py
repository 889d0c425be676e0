"""The paper's theorem in its invariant form, on every HKT input of the
tests: the holonomy of the torsion-free hypercomplex connection lies in
sl(n, H) (every generator real-trace-free) exactly when d(theta) = 0. The
builtins all have a flat torsion-free connection; su3 is the input on which
the theorem is not vacuous. hc_only8+su3 is the curved input outside it:
not HKT, so its torsion-free connection comes from the solver.

Its local form reads the trace 1-form of the torsion-free connection,
tau(X) = tr nabla_X, and needs no Lee form, so it covers the inputs that
are not HKT too: the holonomy lies in sl(n, H) exactly when d(tau) = 0, and
on an HKT input tau = -2 theta."""

import json
from fractions import Fraction

from hktlab import cli
from hktlab.analyze import analyze_entry
from hktlab.curvature import lee_form
from hktlab.hyperhermitian import hkt_check
from hktlab.invariant import ce_differential
from hktlab.linalg import sparse_trace
from hktlab.obata import obata_oracle_solver
from hktlab.tensors import KForm

from oracle_impl import ALL_NAMES, HKT_NAMES, cayley_rotated, direct_sum_entry, load_document


def hkt_inputs(catalog, su3, directory):
    entries = [catalog[name] for name in HKT_NAMES]
    entries.append(direct_sum_entry(catalog["nil8"], catalog["hopf4"], directory))
    entries.append(su3)
    entries.append(direct_sum_entry(su3, catalog["hopf4"], directory))
    return entries


def test_holonomy_is_trace_free_exactly_when_lee_form_is_closed(catalog, su3, tmp_path):
    not_sl = []
    for entry in hkt_inputs(catalog, su3, tmp_path):
        report = analyze_entry(entry)
        assert report["hkt"]["ok"], entry.name
        assert report["theorem_violations"] == [], entry.name
        certificate = report["holonomy"]["certificate"]
        assert certificate["all_trace_free"] == report["verdict"]["d_theta_zero"], entry.name
        assert report["obata"]["flat"] == (report["holonomy"]["obata_dim"] == 0), entry.name
        if not certificate["all_trace_free"]:
            not_sl.append((entry.name, report["holonomy"]["obata_dim"], report["verdict"]["sl_tier"]))
    assert not_sl == [("su3", 16, "not_SL"), ("su3+hopf4", 16, "not_SL")]



def test_curved_non_hkt_sum_takes_the_solver_route(catalog, su3, tmp_path, capsys):
    # the one input with the solver route, a curved torsion-free connection
    # and Fraction structure constants (from su3); pinned as it stands
    entry = direct_sum_entry(catalog["hc_only8"], su3, tmp_path)
    path = tmp_path / f"{entry.name}.json"
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hkt"]["ok"] is False
    assert report["theorem_violations"] == []
    assert (report["obata"]["route"], report["obata"]["flat"]) == ("solver", False)
    assert report["holonomy"]["obata_dim"] == 16
    assert report["holonomy"]["certificate"]["first_violation"] == [0, "nonzero trace", "2"]
    assert report["obstruction"]["flags"] == []


def trace_form(entry) -> KForm:
    """tau(e_i) = tr nabla_{e_i}, read off the solver connection's int
    operators and divided by its scale."""
    conn, _ = obata_oracle_solver(entry.structure, entry.lie)
    traces = {(i,): Fraction(sparse_trace(op), conn.scale) for i, op in enumerate(conn.operators)}
    return KForm(entry.dim, 1, {idx: v for idx, v in traces.items() if v})


def test_holonomy_is_special_exactly_when_the_trace_form_is_closed(catalog, su3, tmp_path):
    sums = [("nil8", "hopf4"), ("hopf8", "hopf8"), ("hc_only8", "hc_only8")]
    entries = [catalog[name] for name in ALL_NAMES] + [su3]
    entries += [direct_sum_entry(catalog[a], catalog[b], tmp_path) for a, b in sums]
    for first, second in ((su3, catalog["hopf4"]), (su3, su3), (catalog["hc_only8"], su3)):
        entries.append(direct_sum_entry(first, second, tmp_path))
    entries += [load_document(cayley_rotated(catalog[n]), tmp_path) for n in ("hopf8", "hc_only8")]
    not_sl, hkt = [], []
    for entry in entries:
        report = analyze_entry(entry)
        tau = trace_form(entry)
        closed = ce_differential(entry.lie, tau).is_zero()
        assert report["holonomy"]["sl_membership"] == closed, entry.name
        if not closed:
            not_sl.append(entry.name)
        res = hkt_check(entry.structure, entry.lie)
        if res.ok:
            theta = lee_form(res.torsion, entry.structure, entry.lie).theta
            assert tau.comps == {idx: -2 * v for idx, v in theta.comps.items()}, entry.name
            hkt.append(entry.name)
    assert not_sl == ["su3", "su3+hopf4", "su3+su3", "hc_only8+su3"]
    assert hkt == [
        *HKT_NAMES, "su3", "nil8+hopf4", "hopf8+hopf8", "su3+hopf4", "su3+su3", "hopf8_cayley"
    ]
