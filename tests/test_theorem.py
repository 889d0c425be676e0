"""The paper's theorem in its invariant form, on every HKT input of the
tests: the holonomy of the torsion-free hypercomplex connection lies in
sl(n, H) (every generator real-trace-free) exactly when d(theta) = 0. The
builtins all have a flat torsion-free connection; su3 is the input on which
the theorem is not vacuous. hc_only8+su3 is the curved input outside it:
not HKT, so its torsion-free connection comes from the solver."""

import json

from hktlab import cli
from hktlab.analyze import analyze_entry

from oracle_impl import HKT_NAMES, direct_sum_entry


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
