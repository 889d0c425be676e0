"""Command-line surface: validate inputs, run analyses, compute holonomy,
and manage the example catalog. `analyze --all` runs the entries one after
another, in name order. `holonomy` reads the `analyze.Stages` its
connection needs: `hkt`, then `lc` or `skew`, or `obata.obata_connection`
(which verifies the solver's route too), and that connection's
`analyze.holonomy_closure`, whose `slnh_membership` certificate gives
`quaternion-linear:` and, for the torsion-free connection, the whole
certificate. `analyze --format json` prints its payload with
`exact.json_text`, the text of `json.dumps(payload, indent=2)`.

Exit codes: 0 success, 1 input error (a malformed document or a usage
error), 2 I/O error, 3 theorem violation (an exact identity the engine
guarantees failed, meaning a defect, not a property of the input).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .analyze import Stages, analyze_entry, holonomy_closure
from .catalog import CatalogEntry, CatalogError, available_entries, load, save
from .exact import format_scalar, json_text
from .obata import obata_connection

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on misuse; that slot is reserved for
    # I/O here, so usage problems are rerouted to the input-error code
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hktlab",
        description=(
            "Exact analysis of left-invariant hyperhermitian structures:"
            " skew-torsion and torsion-free connections, curvature"
            " identities, holonomy, and classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser, with_all: bool = False) -> None:
        p.add_argument("path", nargs="?", default=None, help="entry file (wire JSON)")
        p.add_argument("--builtin", metavar="NAME", help="use a builtin catalog entry")
        if with_all:
            p.add_argument("--all", action="store_true", help="run every available entry")
        p.add_argument(
            "--allow-unknown",
            action="store_true",
            help="tolerate unknown fields in the wire document",
        )

    p_check = sub.add_parser("check", help="validate an entry and exit")
    add_source(p_check)

    p_analyze = sub.add_parser("analyze", help="run the full identity pipeline")
    add_source(p_analyze, with_all=True)
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")

    p_hol = sub.add_parser("holonomy", help="holonomy algebra of one connection")
    add_source(p_hol)
    p_hol.add_argument(
        "--connection",
        choices=("obata", "bismut", "levicivita"),
        default="obata",
    )

    p_cat = sub.add_parser("catalog", help="list or export builtin entries")
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", dest="do_list")
    group.add_argument("--export", nargs=2, metavar=("NAME", "PATH"))
    return parser


def _resolve_entry(args: argparse.Namespace) -> CatalogEntry:
    if args.builtin and args.path:
        raise _UsageError("give either a path or --builtin, not both")
    if args.builtin:
        entries = available_entries()
        if args.builtin not in entries:
            raise CatalogError(
                f"unknown entry {args.builtin!r}; available: {', '.join(sorted(entries))}"
            )
        return entries[args.builtin]
    if args.path:
        return load(args.path, allow_unknown=args.allow_unknown)
    raise _UsageError("an entry is required: a path or --builtin NAME")


def _mark(flag: bool) -> str:
    return "✓" if flag else "✗"


def _render_text(report: dict) -> str:
    lines: list[str] = []
    lines.append(f"entry: {report['entry']} (n={report['n']}, dim={report['dim']})")
    val = report["validation"]
    lines.append(
        f"validation: jacobi {_mark(val['jacobi'])}  integrable {_mark(val['integrable'])}"
    )
    hkt = report["hkt"]
    if hkt["ok"]:
        lines.append(
            f"common skew torsion: {_mark(True)}  torsion zero: {_mark(hkt['torsion_zero'])}"
        )
    else:
        lines.append(f"common skew torsion: {_mark(False)}  reason: {hkt['reason']}")
        if "first_difference" in hkt:
            lines.append(f"  first difference: {hkt['first_difference']}")
    if report["lee"] is not None:
        lines.append(f"lee form: {report['lee']['classification']}")
    if report["obata"] is not None:
        ob = report["obata"]
        cert = ob["solver_certificate"]
        lines.append(
            f"torsion-free connection: route {ob['route']}, flat {_mark(ob['flat'])},"
            f" holonomy dim {ob['holonomy_dim']}"
        )
        lines.append(
            f"  solver: rank {cert['rank']}/{cert['unknowns']} unique {_mark(cert['unique'])}"
            + ("" if ob["routes_agree"] is None else f", routes agree {_mark(ob['routes_agree'])}")
        )
    if report["identity_suites"] is not None:
        suites = report["identity_suites"]
        lines.append("identity checks:")
        for name, suite in suites.items():
            # a single check is an outcome; the *-scalar's sit under its "checks"
            if "ok" in suite:
                suite = {name.replace("_", "-"): suite}
            for key, outcome in suite.get("checks", suite).items():
                lines.append(f"  {key:<28} {_mark(outcome['ok'])}")
        lines.append(f"star scalar: {suites['star_scalar']['value']}")
    if report["dt_traces"] is not None:
        dtt = report["dt_traces"]
        lines.append(
            f"dT traces: h={dtt['h']}  strong {_mark(dtt['strong'])}"
            f"  almost-strong {_mark(dtt['almost_strong'])}"
        )
    if report["bismut"] is not None:
        b = report["bismut"]
        lines.append(
            f"skew-torsion connection: holonomy dim {b['holonomy_dim']},"
            f" metric-skew {_mark(b['generators_metric_skew'])},"
            f" quaternion-linear {_mark(b['generators_quaternion_linear'])},"
            f" ricci 2-forms vanish {_mark(b['rho_zero'] and b['rho_s_zero'])}"
        )
    if report["holonomy"] is not None:
        hol = report["holonomy"]
        lines.append(
            f"holonomy: dim {hol['obata_dim']}, quaternion-linear {_mark(hol['gl_membership'])},"
            f" special {_mark(hol['sl_membership'])}"
        )
    verdict = report["verdict"]
    if "error" in verdict:
        lines.append(f"verdict: ERROR {verdict['error']}")
    else:
        lines.append(
            f"verdict: tier {verdict['sl_tier']}"
            + (
                ""
                if not verdict.get("hopf_caveat")
                else "  [caveat]"
            )
        )
        if verdict.get("caveat_text"):
            lines.append(f"  caveat: {verdict['caveat_text']}")
    if report["obstruction"] is not None:
        obs = report["obstruction"]
        flags = ", ".join(obs["flags"]) if obs["flags"] else "none"
        lines.append(f"obstruction flags: {flags}; verdict: {obs['verdict']}")
    violations = report["theorem_violations"]
    lines.append(
        "theorem violations: " + ("none" if not violations else "; ".join(violations))
    )
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    entry = _resolve_entry(args)
    print(f"ok: {entry.name} (n={entry.n}, dim={entry.dim})")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.all:
        if args.path or args.builtin:
            raise _UsageError("--all cannot be combined with a path or --builtin")
        entries = sorted(available_entries().values(), key=lambda e: e.name)
        reports = [analyze_entry(entry) for entry in entries]
    else:
        reports = [analyze_entry(_resolve_entry(args))]
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 and not args.all else {"reports": reports}
        print(json_text(payload))
    else:
        print("\n\n".join(_render_text(r) for r in reports))
    if any(r["theorem_violations"] for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_holonomy(args: argparse.Namespace) -> int:
    st = Stages(_resolve_entry(args))
    if args.connection == "levicivita":
        conn = st.lc
    elif args.connection == "bismut":
        if not st.hkt.ok:
            print(f"no common skew-torsion connection: {st.hkt.reason}", file=sys.stderr)
            return EXIT_INPUT
        conn = st.skew
    elif st.hkt.first_nonintegrable is not None:
        print("torsion-free route requires an integrable structure", file=sys.stderr)
        return EXIT_INPUT
    else:
        conn = obata_connection(st.h, st.alg, st.hkt.torsion)
    _, hol, cert, metric_skew = holonomy_closure(conn, st.alg, st.h)
    print(f"connection: {args.connection}")
    print(f"generators: {len(hol.generators)}")
    print(f"holonomy dimension: {hol.dim}")
    print(f"metric-skew: {metric_skew}")
    print(f"quaternion-linear: {cert.all_quaternion_linear}")
    if args.connection == "obata":
        first = cert.first_violation  # (generator, reason, trace or None)
        if first is not None and first[2] is not None:
            first = f"({first[0]}, {first[1]!r}, {format_scalar(first[2])})"
        print(f"special quaternionic: {cert.first_violation is None}")
        print(
            "certificate: generators={0.generator_count}"
            " quaternion_linear={0.all_quaternion_linear}"
            " trace_free={0.all_trace_free}"
            " first_violation={1}".format(cert, first)
        )
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = available_entries()
    if args.do_list:
        for name in sorted(entries):
            entry = entries[name]
            expected = entry.expected
            summary = ", ".join(f"{k}={expected[k]}" for k in sorted(expected)) or "none"
            print(f"{name}  (n={entry.n}, dim={entry.dim})  {entry.description}")
            print(f"  expected: {summary}")
        return EXIT_OK
    name, path = args.export
    if name not in entries:
        print(
            f"unknown entry {name!r}; available: {', '.join(sorted(entries))}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    save(entries[name], path)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "analyze": _cmd_analyze,
    "holonomy": _cmd_holonomy,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CatalogError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, ValueError) as exc:
        print(f"theorem violation or engine defect: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
