"""The paper's theorem in its invariant form, on every HKT input of the
tests: the holonomy of the torsion-free hypercomplex connection lies in
sl(n, H) (every generator real-trace-free) exactly when d(theta) = 0. The
builtins all have a flat torsion-free connection; su3 is the input on which
the theorem is not vacuous."""

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

