"""Every identity check of the analysis is one (holds, label) row, and a
failing row is a theorem violation: exit 3, its label in
`theorem_violations`. Each case makes one row fail by patching the one
function in the `hktlab.analyze` namespace that produces it, then runs
`analyze --builtin hopf4 --format json` through the CLI. A check returns
its evidence, and the report alone writes `ok` from it: a failing check's
section holds its counterexample or its failures."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from hktlab import analyze, cli
from hktlab.invariant import levi_civita


def run_hopf4(capsys) -> tuple[int, dict]:
    rc = cli.main(["analyze", "--builtin", "hopf4", "--format", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    return rc, json.loads(out)


def patch(monkeypatch, name, edit, call=None):
    """Replace analyze.<name> by a wrapper that passes the real result, and
    the arguments, through edit; with call set, only that call (0-based)
    within the run is edited."""
    real, calls = getattr(analyze, name), []

    def wrapper(*args):
        result = real(*args)
        calls.append(None)
        return edit(result, *args) if call in (None, len(calls) - 1) else result

    monkeypatch.setattr(analyze, name, wrapper)


def failing_key(mapping, key, counterexample):
    assert mapping[key] is None
    return {**mapping, key: counterexample}


# a rotation of the (e0, e1) plane: metric-skew, trace-free, and not
# commuting with the J's of hopf4
NOT_QUATERNION_LINEAR = {0: {1: -1}, 1: {0: 1}}

ROWS = {
    "identity-suite key": (
        "obata_identity_suite",
        lambda suite, *_: failing_key(suite, "ricci-equals-d-lee", (0, 1)),
        None,
        "obata identity failed: ricci-equals-d-lee",
    ),
    "star-scalar key": (
        "star_scalar",
        lambda star, *_: replace(
            star, checks=failing_key(star.checks, "star-scalar-from-lee", (1, 2))
        ),
        None,
        "scalar identity failed: star-scalar-from-lee",
    ),
    "curvature relation": (
        "curvature_relation_check",
        lambda res, *_: (0, 1, 2, 3),
        None,
        "identity failed: curvature relation",
    ),
    "torsion type": (
        "type_check_12_21",
        lambda res, *_: ("single", (1,), (0, 1, 2), Fraction(3, 2)),
        None,
        "identity failed: torsion type decomposition",
    ),
    "difference trace": (
        "trace_identities",
        lambda res, *_: (("injected",), res[1]),
        None,
        "identity failed: difference-tensor trace",
    ),
    "complex difference trace": (
        "trace_identities",
        lambda res, *_: (res[0], ("injected",)),
        None,
        "identity failed: complex difference-tensor trace",
    ),
    "chern norms": (
        "chern_norm_check",
        lambda res, *_: replace(res, ok=False),
        None,
        "identity failed: chern norm relation",
    ),
    "dT traces": (
        "dt_traces",
        lambda res, *_: replace(res, traces_coincide=False),
        None,
        "dT partial traces differ across the three complex structures",
    ),
    # the skew-torsion connection's package is the second one built
    "skew-torsion Ricci forms": (
        "ricci_package",
        lambda pkg, *_: replace(pkg, rho=replace(pkg.rho, comps={(0, 1): 1})),
        1,
        "skew-torsion connection has nonvanishing Ricci 2-forms",
    ),
    # the skew-torsion connection's closure is the second one run
    "skew-torsion generator not in sp(n)": (
        "holonomy_algebra",
        lambda hol, *_: replace(hol, generators=(NOT_QUATERNION_LINEAR,), scales=(1,), dim=1),
        1,
        "skew-torsion holonomy generator not in sp(n)",
    ),
    "detector": (
        "hyperkahler_detector",
        lambda res, *_: replace(res, consistent=False),
        None,
        "vanishing Lee form with a vanishing trace condition but nonzero torsion",
    ),
    "routes disagree": (
        "obata_oracle_solver",
        lambda res, h, alg: (levi_civita(alg), res[1]),
        None,
        "difference-tensor and solver connections disagree",
    ),
    # the torsion-free connection's closure is the first one run
    "generator not quaternion-linear": (
        "holonomy_algebra",
        lambda hol, *_: replace(hol, generators=(NOT_QUATERNION_LINEAR,), scales=(1,), dim=1),
        0,
        "structural defect: holonomy generator of the torsion-free"
        " connection is not quaternion-linear",
    ),
}


def test_hopf4_has_no_failing_row(capsys):
    rc, report = run_hopf4(capsys)
    assert (rc, report["theorem_violations"]) == (0, [])


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_each_failing_row_exits_3_with_its_label(kind, monkeypatch, capsys):
    name, edit, call, label = ROWS[kind]
    patch(monkeypatch, name, edit, call)
    rc, report = run_hopf4(capsys)
    assert (rc, report["theorem_violations"]) == (cli.EXIT_VIOLATION, [label])


# the section of identity_suites that each failing row writes, as a path of
# keys, and its exact JSON
SECTIONS = {
    "identity-suite key": (
        ("obata_suite", "ricci-equals-d-lee"),
        {"ok": False, "counterexample": [0, 1]},
    ),
    "star-scalar key": (
        ("star_scalar", "checks", "star-scalar-from-lee"),
        {"ok": False, "counterexample": [1, 2]},
    ),
    "curvature relation": (
        ("curvature_relation",),
        {"ok": False, "counterexample": [0, 1, 2, 3]},
    ),
    "torsion type": (
        ("torsion_type",),
        {"ok": False, "counterexample": ["single", [1], [0, 1, 2], "3/2"]},
    ),
    "difference trace": (("difference_trace",), {"ok": False, "failures": ["injected"]}),
    "complex difference trace": (
        ("difference_trace_complex",),
        {"ok": False, "failures": ["injected"]},
    ),
}


@pytest.mark.parametrize("kind", sorted(SECTIONS))
def test_torsion_type_row_writes_its_counterexample(kind, monkeypatch, capsys):
    name, edit, call, _ = ROWS[kind]
    patch(monkeypatch, name, edit, call)
    _, report = run_hopf4(capsys)
    path, want = SECTIONS[kind]
    section = report["identity_suites"]
    for key in path:
        section = section[key]
    assert section == want


def test_classify_failure_is_a_row_with_its_message(monkeypatch, capsys):
    message = "classification consistency violation: injected"

    def classify(*args):
        raise RuntimeError(message)

    monkeypatch.setattr(analyze, "classify", classify)
    rc, report = run_hopf4(capsys)
    assert (rc, report["theorem_violations"]) == (cli.EXIT_VIOLATION, [message])
    assert report["verdict"] == {"error": message}
    rc = cli.main(["analyze", "--builtin", "hopf4", "--format", "text"])
    out, err = capsys.readouterr()
    assert (rc, err) == (cli.EXIT_VIOLATION, "")
    assert f"verdict: ERROR {message}" in out.splitlines()


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_engine_defect_exits_3_with_its_message(error, monkeypatch, capsys):
    # an exception escaping the analysis is no report: exit 3, stdout empty
    def hkt_check(*args):
        raise error("injected defect")

    monkeypatch.setattr(analyze, "hkt_check", hkt_check)
    rc = cli.main(["analyze", "--builtin", "hopf4", "--format", "json"])
    assert (rc, *capsys.readouterr()) == (
        cli.EXIT_VIOLATION, "", "theorem violation or engine defect: injected defect\n"
    )


def test_failing_rows_keep_the_stage_order(monkeypatch, capsys):
    # patched in the opposite order to the stages that add the rows
    for kind in ("detector", "curvature relation", "routes disagree"):
        name, edit, call, _ = ROWS[kind]
        patch(monkeypatch, name, edit, call)
    rc, report = run_hopf4(capsys)
    assert (rc, report["theorem_violations"]) == (
        cli.EXIT_VIOLATION,
        [
            "difference-tensor and solver connections disagree",
            "identity failed: curvature relation",
            "vanishing Lee form with a vanishing trace condition but nonzero torsion",
        ],
    )
