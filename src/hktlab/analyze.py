"""Full analysis pipeline for one catalog entry.

Produces a JSON-ready report with stable key order: validation, the common
skew-torsion check, Lee form, both constructions of the torsion-free
hypercomplex connection, every identity suite, trace data, holonomy, and
the final structure verdict. Each identity check, a `classify` failure
included, is one (holds, label) row added by the stage that runs it;
`theorem_violations` lists the failing labels in that order. All scalars
are exact. Each named rational field (forms, scalars, norms, traces) is a
wire-format string; the engine scalars inside a counterexample or a first
difference are written by value, an integral one as a JSON integer. The
flat records of the solver certificate, the SL certificate, the verdict
and the detector are read shallowly, field by field (`_record`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .catalog import CatalogEntry
from .curvature import (
    DtTraces,
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
from .exact import format_scalar
from .holonomy import StructureVerdict, classify, holonomy_algebra, is_g_skew, slnh_membership
from .hyperhermitian import (
    HktResult,
    HyperhermitianStructure,
    bismut_connection,
    hkt_check,
    type_check_12_21,
)
from .invariant import (
    Connection,
    Curvature,
    LieAlgebra,
    ce_differential,
    curvature_operators,
    levi_civita,
)
from .obata import (
    difference_tensor,
    obata_from_difference,
    obata_oracle_solver,
    trace_identities,
)
from .tensors import KForm, Scaled

REPORT_SCHEMA_VERSION = "1"


def _jsonify(value: object) -> object:
    """Exact JSON shape, tuples as lists and rationals by value: an integral
    int or Fraction as a JSON integer, any other as a "p/q" string."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return value.numerator if value.denominator == 1 else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _record(record: object) -> dict[str, object]:
    """A flat report record (`SolverCertificate`, `SlCertificate`,
    `StructureVerdict`, `DetectorReport`) as its fields in order: a shallow
    copy, since no field holds a dataclass, dict or list for
    `dataclasses.asdict` to copy deeply."""
    return dict(vars(record))


def _wire_form(form: KForm) -> dict[str, object]:
    components = [list(idx) + [format_scalar(v)] for idx, v in sorted(form.comps.items())]
    return {"degree": form.degree, "components": components}


def _outcome(counterexample: object) -> dict[str, object]:
    if counterexample is None:
        return {"ok": True}
    return {"ok": False, "counterexample": _jsonify(counterexample)}


# Sections that a stage fills in; one that no stage reaches stays None.
_SECTIONS = (
    "identity_suites", "dt_traces", "bismut", "obata",
    "holonomy", "verdict", "obstruction", "theorem_checks",
)
_Row = tuple[bool, str]  # one identity check: (it holds, its violation label)


@dataclass(frozen=True)
class _Torsion:
    """The common torsion and the objects built from it."""

    t: KForm
    dt: KForm
    lee: LeeForm
    lc: Connection
    skew: Connection
    a: Scaled


@dataclass(frozen=True)
class _TorsionFree:
    """What later stages read of the torsion-free connection."""

    curvature: Curvature
    ricci: RicciPackage
    holonomy_dim: int
    all_trace_free: bool
    obstruction_verdict: str


def analyze_entry(entry: CatalogEntry) -> dict[str, object]:
    """The report for one entry. Stages run in order, and each builds its
    objects once and hands them on: validation and Nijenhuis tensors, common
    torsion and connections, the torsion-free block, the HKT identity suites
    and the verdict.
    """
    start = time.perf_counter()
    alg, h = entry.lie, entry.structure
    rows: list[_Row] = []  # each stage adds its checks, in report order

    hkt = hkt_check(h, alg)
    report = _validation_stage(entry, hkt)
    tor = None
    if hkt.ok:
        t, lc = hkt.torsion, levi_civita(alg)
        dt, lee = ce_differential(alg, t), lee_form(t, h, alg)
        tor = _Torsion(t, dt, lee, lc, bismut_connection(t, lc), difference_tensor(t, h))
    tf = None
    if hkt.first_nonintegrable is None:
        tf = _torsion_free_stage(tor, h, alg, report, rows)
    dtt = _identity_stage(tor, tf, h, alg, report, rows) if tor else None
    report["verdict"] = _verdict_stage(tor, tf, dtt, rows)
    report["theorem_violations"] = [label for ok, label in rows if not ok]
    report["elapsed_ms"] = int(round((time.perf_counter() - start) * 1000))
    return report


def _validation_stage(entry: CatalogEntry, hkt: HktResult) -> dict[str, object]:
    hkt_section: dict[str, object] = {"ok": hkt.ok}
    if hkt.ok:
        hkt_section["torsion"] = _wire_form(hkt.torsion)
        hkt_section["torsion_zero"] = hkt.torsion.is_zero()
    else:
        hkt_section["reason"] = hkt.reason
        if hkt.first_difference is not None:
            hkt_section["first_difference"] = _jsonify(hkt.first_difference)
    report: dict[str, object] = {
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "entry": entry.name,
        "n": entry.n,
        "dim": entry.dim,
        "validation": {
            "jacobi": entry.lie.jacobi_defect is None,
            "integrable": hkt.first_nonintegrable is None,
            "first_nonintegrable": hkt.first_nonintegrable,
        },
        "hkt": hkt_section,
        "lee": None,
    }
    # HKT reports list the torsion-free connection ahead of the identity
    # suites; the goldens pin this key order.
    if hkt.ok:
        report["obata"] = None
    report.update(dict.fromkeys(_SECTIONS))
    return report


def _torsion_free_stage(
    tor: _Torsion | None,
    h: HyperhermitianStructure,
    alg: LieAlgebra,
    report: dict[str, object],
    rows: list[_Row],
) -> _TorsionFree:
    """The solver always runs, for its uniqueness certificate. With a common
    torsion the connection comes from the difference tensor and must agree
    with the solver's."""
    solver_conn, certificate = obata_oracle_solver(h, alg)
    if tor is None:
        ob, routes_agree = solver_conn, None
    else:
        ob = obata_from_difference(tor.skew, tor.a, h, alg)
        routes_agree = ob == solver_conn
    r_ob = curvature_operators(ob, alg)
    pkg_ob = ricci_package(r_ob, h)
    hol_ob = holonomy_algebra(ob, r_ob)
    sl_cert = slnh_membership(hol_ob, h)
    rows += [
        (routes_agree is not False, "difference-tensor and solver connections disagree"),
        (
            sl_cert.all_quaternion_linear,
            "structural defect: holonomy generator of the torsion-free"
            " connection is not quaternion-linear",
        ),
    ]
    obstruction = hkt_obstruction_report(pkg_ob, h)
    first = sl_cert.first_violation  # (generator, reason, trace or None)
    if first is not None and first[2] is not None:
        first = (first[0], first[1], format_scalar(first[2]))
    report["obata"] = {
        "route": "solver" if tor is None else "difference-tensor",
        "routes_agree": routes_agree,
        "solver_certificate": _record(certificate),
        "flat": not r_ob.entries,
        "holonomy_dim": hol_ob.dim,
    }
    report["holonomy"] = {
        "obata_dim": hol_ob.dim,
        "gl_membership": sl_cert.all_quaternion_linear,
        "sl_membership": sl_cert.first_violation is None,
        "certificate": _jsonify({**_record(sl_cert), "first_violation": first}),
    }
    report["obstruction"] = {"flags": list(obstruction.flags), "verdict": obstruction.verdict}
    return _TorsionFree(r_ob, pkg_ob, hol_ob.dim, sl_cert.all_trace_free, obstruction.verdict)


def _identity_stage(
    tor: _Torsion,
    tf: _TorsionFree,
    h: HyperhermitianStructure,
    alg: LieAlgebra,
    report: dict[str, object],
    rows: list[_Row],
) -> DtTraces:
    """HKT only: the Lee form, identity suite, dT trace, skew-torsion
    connection and detector sections, and the rows of their checks."""
    t, lee, skew, a = tor.t, tor.lee, tor.skew, tor.a
    report["lee"] = {
        "theta": _wire_form(lee.theta),
        "d_theta": _wire_form(lee.d_theta),
        "classification": lee.classification,
    }
    suite = obata_identity_suite(tf.ricci, lee)
    r_b = curvature_operators(skew, alg)
    curv_rel = curvature_relation_check(r_b, tf.curvature, a, t.cube, skew)
    dtt = dt_traces(tor.dt, h)
    star = star_scalar(alg, h, t, lee, tor.lc, dtt)
    type_cex = type_check_12_21(t, h)
    real, cplx = trace_identities(a, h, lee.theta)  # the failures of each
    chern = chern_norm_check(t, h)
    report["identity_suites"] = {
        "obata_suite": {key: _outcome(val) for key, val in suite.items()},
        "curvature_relation": _outcome(curv_rel),
        "star_scalar": {
            "value": format_scalar(star.value),
            "components": {k: format_scalar(v) for k, v in star.components.items()},
            "checks": {key: _outcome(val) for key, val in star.checks.items()},
        },
        "torsion_type": _outcome(type_cex),
        "difference_trace": {"ok": not real, "failures": list(real)},
        "difference_trace_complex": {"ok": not cplx, "failures": list(cplx)},
        "chern_norms": {
            "ok": chern.ok,
            "norms": [format_scalar(x) for x in chern.norms],
            "torsion_norm_sq": format_scalar(chern.torsion_norm_sq),
        },
    }
    report["dt_traces"] = {
        "h": format_scalar(dtt.h_value),
        "strong": dtt.strong,
        "almost_strong": dtt.almost_strong,
        "traces_coincide": dtt.traces_coincide,
    }

    pkg_b = ricci_package(r_b, h)
    hol_b = holonomy_algebra(skew, r_b)
    report["bismut"] = bismut = {
        "holonomy_dim": hol_b.dim,
        "generators_metric_skew": all(is_g_skew(g) for g in hol_b.generators),
        "generators_quaternion_linear": slnh_membership(hol_b, h).all_quaternion_linear,
        "rho_zero": pkg_b.rho.is_zero(),
        "rho_s_zero": all(f.is_zero() for f in pkg_b.rho_s),
    }

    detector = hyperkahler_detector(
        lee.theta.is_zero(), dtt.h_value, star.value, dtt.almost_strong, t.is_zero()
    )
    report["theorem_checks"] = {"hyperkahler_detector": _jsonify(_record(detector))}
    rows += [(cex is None, f"obata identity failed: {key}") for key, cex in suite.items()]
    rows += [(cex is None, f"scalar identity failed: {key}") for key, cex in star.checks.items()]
    rows += [
        (curv_rel is None, "identity failed: curvature relation"),
        (type_cex is None, "identity failed: torsion type decomposition"),
        (not real, "identity failed: difference-tensor trace"),
        (not cplx, "identity failed: complex difference-tensor trace"),
        (chern.ok, "identity failed: chern norm relation"),
        (dtt.traces_coincide, "dT partial traces differ across the three complex structures"),
        (
            bismut["generators_metric_skew"] and bismut["generators_quaternion_linear"],
            "skew-torsion holonomy generator not in sp(n)",
        ),
        (
            bismut["rho_zero"] and bismut["rho_s_zero"],
            "skew-torsion connection has nonvanishing Ricci 2-forms",
        ),
        (
            detector.consistent,
            "vanishing Lee form with a vanishing trace condition but nonzero torsion",
        ),
    ]
    return dtt


def _verdict_stage(
    tor: _Torsion | None, tf: _TorsionFree | None, dtt: DtTraces | None, rows: list[_Row]
) -> dict[str, object]:
    hol_dim = tf.holonomy_dim if tf else 0
    obstruction = tf.obstruction_verdict if tf else "inconclusive"
    if tor is None:
        verdict = StructureVerdict(False, holonomy_dim=hol_dim, obstruction_verdict=obstruction)
        return _jsonify(_record(verdict))
    try:
        verdict = classify(
            tor.t.is_zero(),
            tor.lee.theta.is_zero(),
            tor.lee.d_theta.is_zero(),
            dtt.strong,
            dtt.almost_strong,
            hol_dim,
            not tf.ricci.ric,
            tf.all_trace_free,
            obstruction,
        )
    except RuntimeError as exc:
        rows.append((False, str(exc)))
        return {"error": str(exc)}
    return _jsonify(_record(verdict))


def expected_mismatches(entry: CatalogEntry, report: dict[str, object]) -> list[str]:
    """Compare an entry's expected map against a computed report; the
    regression surface for the shipped catalog.
    """
    verdict = report["verdict"]  # the verdict record, or {"error": ...}
    actual: dict[str, object] = {"hkt": report["hkt"]["ok"]}
    for key in (
        "hyperkahler", "balanced", "strong", "almost_strong", "d_theta_zero", "sl_tier", "hopf_caveat"
    ):
        actual[key] = verdict.get(key)
    actual["obstruction_verdict"] = (report["obstruction"] or {}).get("verdict", "inconclusive")
    actual["obata_holonomy_dim"] = (report["obata"] or {}).get("holonomy_dim")
    mismatches = []
    for key, want in entry.expected.items():
        if key not in actual:
            mismatches.append(f"{key}: no analyzer output for this expectation")
        elif actual[key] != want:
            mismatches.append(f"{key}: expected {want!r}, analyzer produced {actual[key]!r}")
    return mismatches
