"""Full analysis pipeline for one catalog entry.

The objects of an entry are the stages of `Stages`, each built once, on
first read, in the order of the chain: `hkt` (validation and the
common-torsion check), `lc` and `skew` (the Levi-Civita and skew-torsion
connections), `dt` and `lee` (dT and the Lee form), `difference` (the
difference tensor), the two routes to the torsion-free connection
(`solver`, `obata`), and one `holonomy_closure` per connection (curvature,
holonomy algebra, its `slnh_membership` certificate, whether every
generator is metric-skew). `analyze_entry` and `hktlab holonomy` read the
same stages; the command builds only those its connection needs.

Produces a JSON-ready report with stable key order: validation, the common
skew-torsion check, Lee form, both constructions of the torsion-free
hypercomplex connection, every identity suite, trace data, holonomy, and
the final structure verdict. Each identity check, a `classify` failure
included, is one (holds, label) row returned by the stage that runs it;
`theorem_violations` lists the failing labels in that order. All scalars
are exact. Each named rational field (forms, scalars, norms, traces) is a
wire-format string; the engine scalars inside a counterexample or a first
difference are written by value, an integral one as a JSON integer. The
flat records of the solver certificate, the SL certificate, the verdict
and the detector are read shallowly, field by field (`_record`).
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .catalog import CatalogEntry
from .curvature import (
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
from .holonomy import HolonomyAlgebra, SlCertificate, StructureVerdict, classify
from .holonomy import holonomy_algebra, is_g_skew, slnh_membership
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
from .tensors import KForm

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


class Closure(NamedTuple):
    """The closure stage of one connection (`holonomy_closure`)."""

    curvature: Curvature
    holonomy: HolonomyAlgebra
    certificate: SlCertificate
    metric_skew: bool  # whether every generator is metric-skew


def holonomy_closure(conn: Connection, alg: LieAlgebra, h: HyperhermitianStructure) -> Closure:
    """The curvature operators of `conn`, the holonomy algebra they
    generate, its special quaternionic certificate, and whether every
    generator is metric-skew."""
    curvature = curvature_operators(conn, alg)
    hol = holonomy_algebra(conn, curvature)
    return Closure(curvature, hol, slnh_membership(hol, h), all(map(is_g_skew, hol.generators)))


class Stages:
    """The objects of one entry, each built by its stage on first read. The
    stages after `lc` need a common torsion, except `solver`, `obata` and
    those read from `obata`, which need only an integrable structure."""

    def __init__(self, entry: CatalogEntry):
        self.alg, self.h = entry.lie, entry.structure

    hkt = cached_property(lambda self: hkt_check(self.h, self.alg))
    lc = cached_property(lambda self: levi_civita(self.alg))
    skew = cached_property(lambda self: bismut_connection(self.hkt.torsion, self.lc))
    dt = cached_property(lambda self: ce_differential(self.alg, self.hkt.torsion))
    lee = cached_property(lambda self: lee_form(self.hkt.torsion, self.h, self.alg))
    difference = cached_property(lambda self: difference_tensor(self.hkt.torsion, self.h))
    solver = cached_property(lambda self: obata_oracle_solver(self.h, self.alg))

    @cached_property
    def obata(self) -> Connection:
        """With a common torsion, the skew-torsion connection plus the
        difference tensor, its postconditions verified; otherwise the
        solver's connection, which the report reads as solved."""
        if not self.hkt.ok:
            return self.solver[0]
        return obata_from_difference(self.skew, self.difference, self.h, self.alg)

    obata_closure = cached_property(lambda self: holonomy_closure(self.obata, self.alg, self.h))
    skew_closure = cached_property(lambda self: holonomy_closure(self.skew, self.alg, self.h))
    # read by more than one section of the report
    obata_ricci = cached_property(lambda self: ricci_package(self.obata_closure.curvature, self.h))
    obstruction = cached_property(lambda self: hkt_obstruction_report(self.obata_ricci, self.h))
    traces = cached_property(lambda self: dt_traces(self.dt, self.h))


def analyze_entry(entry: CatalogEntry) -> dict[str, object]:
    """The report for one entry. Its sections read the entry's stages in
    order: validation and the common torsion, the torsion-free connection,
    the HKT identity suites, and the verdict; each returns the rows of the
    checks it runs.
    """
    start = time.perf_counter()
    st = Stages(entry)
    report = _validation_stage(entry, st.hkt)
    if st.hkt.ok:  # the torsion's objects come ahead of the torsion-free routes
        st.lc, st.dt, st.lee, st.skew, st.difference
    rows = _torsion_free_stage(st, report) if st.hkt.first_nonintegrable is None else []
    if st.hkt.ok:
        rows += _identity_stage(st, report)
    report["verdict"] = verdict = _verdict_stage(st)
    if "error" in verdict:
        rows.append((False, verdict["error"]))
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


def _torsion_free_stage(st: Stages, report: dict[str, object]) -> list[_Row]:
    """The solver always runs, for its uniqueness certificate. With a common
    torsion the connection comes from the difference tensor and must agree
    with the solver's."""
    solver_conn, certificate = st.solver
    routes_agree = st.obata == solver_conn if st.hkt.ok else None
    r_ob, hol_ob, sl_cert, _ = st.obata_closure
    first = sl_cert.first_violation  # (generator, reason, trace or None)
    if first is not None and first[2] is not None:
        first = (first[0], first[1], format_scalar(first[2]))
    report["obata"] = {
        "route": "difference-tensor" if st.hkt.ok else "solver",
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
    report["obstruction"] = {"flags": list(st.obstruction.flags), "verdict": st.obstruction.verdict}
    return [
        (routes_agree is not False, "difference-tensor and solver connections disagree"),
        (
            sl_cert.all_quaternion_linear,
            "structural defect: holonomy generator of the torsion-free"
            " connection is not quaternion-linear",
        ),
    ]


def _identity_stage(st: Stages, report: dict[str, object]) -> list[_Row]:
    """HKT only: the Lee form, identity suite, dT trace, skew-torsion
    connection and detector sections, and the rows of their checks."""
    h, t, lee, skew, a = st.h, st.hkt.torsion, st.lee, st.skew, st.difference
    report["lee"] = {
        "theta": _wire_form(lee.theta),
        "d_theta": _wire_form(lee.d_theta),
        "classification": lee.classification,
    }
    suite = obata_identity_suite(st.obata_ricci, lee)
    r_b, hol_b, sl_b, metric_skew = st.skew_closure
    curv_rel = curvature_relation_check(r_b, st.obata_closure.curvature, a, t.cube, skew)
    dtt = st.traces
    star = star_scalar(st.alg, h, t, lee, st.lc, dtt)
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
    report["bismut"] = bismut = {
        "holonomy_dim": hol_b.dim,
        "generators_metric_skew": metric_skew,
        "generators_quaternion_linear": sl_b.all_quaternion_linear,
        "rho_zero": pkg_b.rho.is_zero(),
        "rho_s_zero": all(f.is_zero() for f in pkg_b.rho_s),
    }

    detector = hyperkahler_detector(
        lee.theta.is_zero(), dtt.h_value, star.value, dtt.almost_strong, t.is_zero()
    )
    report["theorem_checks"] = {"hyperkahler_detector": _jsonify(_record(detector))}
    rows = [(cex is None, f"obata identity failed: {key}") for key, cex in suite.items()]
    rows += [(cex is None, f"scalar identity failed: {key}") for key, cex in star.checks.items()]
    return rows + [
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


def _verdict_stage(st: Stages) -> dict[str, object]:
    if st.hkt.first_nonintegrable is not None:
        return _jsonify(_record(StructureVerdict(False)))
    _, hol, sl_cert, _ = st.obata_closure
    obstruction = st.obstruction.verdict
    if not st.hkt.ok:
        verdict = StructureVerdict(False, holonomy_dim=hol.dim, obstruction_verdict=obstruction)
        return _jsonify(_record(verdict))
    try:
        verdict = classify(
            st.hkt.torsion.is_zero(),
            st.lee.theta.is_zero(),
            st.lee.d_theta.is_zero(),
            st.traces.strong,
            st.traces.almost_strong,
            hol.dim,
            not st.obata_ricci.ric,
            sl_cert.all_trace_free,
            obstruction,
        )
    except RuntimeError as exc:
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
