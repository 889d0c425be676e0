"""End-to-end benchmark of the hktlab command line.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark imports `hktlab` from
`src/` and drives `hktlab.cli.main` in-process: one process, one call at a
time, in a closed loop with a single caller. Before timing it exports the
catalog entries it needs with `hktlab catalog --export`, builds direct sums
from them (see gen.py; the seed picks the order of the summands) and checks
that `hktlab check` accepts every document. The program sees only those
documents. Each pass runs the workload's calls in an order drawn from the
seed; passes repeat for about S seconds.

--trace 0 reports the end-to-end metrics: pass times as multiples of a
reference time sampled while the passes run (see reference.py), set-up
time and peak memory; the raw times are printed too. --trace 1 alternates untraced and
traced passes (see spans.py) and reports per-layer metrics per traced
pass. Metric names and units come from BENCHMARK.json. Every output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Machine facts, per-metric sample
counts, per-call times, failures and (when traced) the spans are also
written to .clibench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
from reference import Sampler
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
SETUP_REPEATS = 9
CONNECTIONS = ("levicivita", "bismut", "obata")
PASS_METRICS = ("wall_s", "cpu_s", "slowest_call_s")
SAMPLE_INTERVAL = 0.25  # seconds between reference samples
CATALOG = ("hc_only8", "hopf4", "hopf8", "nil8", "torus4", "torus8")  # shipped entries

# Known defects: the gate counts these items as failed, but they do not make
# the run incorrect as long as the report differs in exactly these paths.
# The exported and reloaded hc_only8 carries a Fraction where the builtin
# carries an int, and the report writes the Fraction as "2", the int as 2.
KNOWN_FAILURES: dict[str, set[str]] = {
    "hc_only8 loaded": {"hkt.first_difference.2"},
}


@dataclass(frozen=True)
class Workload:
    entries: tuple[str, ...]  # shipped catalog entries or direct sums from gen.SUMS
    build: Callable[["Context", tuple[str, ...]], list["Step"]]  # calls of one pass


@dataclass
class Context:
    cli: object
    paths: dict[str, Path]
    goldens: dict[str, dict]
    work: Path


@dataclass(frozen=True)
class Step:
    """CLI calls whose outputs are checked together; `check` maps the
    captured outputs to (item, problems) pairs."""

    items: tuple[str, ...]
    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], list[tuple[str, list[str]]]]


class SetupError(Exception):
    pass


def _diff(got: object, want: object, path: str, out: list[str]) -> None:
    """Paths at which two JSON values differ; types must match exactly."""
    if type(got) is not type(want):
        out.append(path)
    elif isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            sub = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                out.append(sub)
            else:
                _diff(got[key], want[key], sub, out)
    elif isinstance(want, list):
        if len(got) != len(want):
            out.append(path)
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _diff(g, w, f"{path}.{i}", out)
    elif got != want:
        out.append(path)


def _golden_problems(report: dict, golden: dict) -> list[str]:
    problems: list[str] = []
    _diff({k: v for k, v in report.items() if k != "elapsed_ms"}, golden, "", problems)
    return problems


def _report_value(report: dict, key: str) -> object:
    """The report field an expected-map key describes."""
    if key == "hkt":
        return report["hkt"]["ok"]
    if key == "obstruction_verdict":
        return (report["obstruction"] or {}).get("verdict", "inconclusive")
    if key == "obata_holonomy_dim":
        return (report["obata"] or {}).get("holonomy_dim")
    return report["verdict"].get(key)


def _expected_problems(report: dict, name: str) -> list[str]:
    problems = [f"theorem violation: {v}" for v in report["theorem_violations"]]
    if report["entry"] != name:
        problems.append(f"entry {report['entry']!r}")
    for key, want in gen.SUMS[name][1].items():
        got = _report_value(report, key)
        if type(got) is not type(want) or got != want:
            problems.append(f"{key}: {got!r}, expected {want!r}")
    return problems


def _catalog_sweep(ctx: Context, names: tuple[str, ...]) -> list[Step]:
    def check_all(outs: list[str]) -> list[tuple[str, list[str]]]:
        reports = {r["entry"]: r for r in json.loads(outs[0])["reports"]}
        return [
            (f"{name} --all", _golden_problems(reports[name], ctx.goldens[name])
             if name in reports else ["missing from --all"])
            for name in names
        ]

    def loaded(name: str) -> Step:
        path = str(ctx.work / f"{name}.pass.json")
        return Step(
            (f"{name} loaded",),
            (("catalog", "--export", name, path), ("analyze", path, "--format", "json")),
            lambda outs: [
                (f"{name} loaded", _golden_problems(json.loads(outs[1]), ctx.goldens[name]))
            ],
        )

    every = Step(tuple(f"{n} --all" for n in names), (("analyze", "--all", "--format", "json"),), check_all)
    return [every] + [loaded(name) for name in names]


def _analyze(ctx: Context, names: tuple[str, ...]) -> list[Step]:
    def step(name: str) -> Step:
        return Step(
            (name,),
            (("analyze", str(ctx.paths[name]), "--format", "json"),),
            lambda outs: [(name, _expected_problems(json.loads(outs[0]), name))],
        )

    return [step(name) for name in names]


def _holonomy_problems(out: str, name: str, connection: str) -> list[str]:
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    dim, quaternion_linear = gen.expected_holonomy(name, connection)
    want = {
        "connection": connection,
        "holonomy dimension": str(dim),
        "metric-skew": "True",
        "quaternion-linear": str(quaternion_linear),
    }
    if connection == "obata":
        want["special quaternionic"] = "True"
    return [f"{key}: {fields.get(key)!r}, expected {value!r}"
            for key, value in want.items() if fields.get(key) != value]


def _holonomy_cli(ctx: Context, names: tuple[str, ...]) -> list[Step]:
    def step(name: str, connection: str) -> Step:
        item = f"{name} {connection}"
        return Step(
            (item,),
            (("holonomy", str(ctx.paths[name]), "--connection", connection),),
            lambda outs: [(item, _holonomy_problems(outs[0], name, connection))],
        )

    return [step(name, c) for name in names for c in CONNECTIONS]


WORKLOADS: dict[str, Workload] = {
    "catalog-sweep": Workload(CATALOG, _catalog_sweep),
    "hkt-large": Workload(("nil12", "hopf16"), _analyze),
    "non-hkt": Workload(("hc12", "hc16"), _analyze),
    "holonomy-cli": Workload(("nil16", "nil12"), _holonomy_cli),
}


def _call(cli: object, argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _purge_hktlab() -> None:
    for name in [m for m in sys.modules if m == "hktlab" or m.startswith("hktlab.")]:
        del sys.modules[name]


def setup(workload: Workload, seed: int, work: Path) -> Context:
    """Import the program, export and generate the inputs, check each one."""
    _purge_hktlab()
    cli = importlib.import_module("hktlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"hktlab imported from {cli.__file__}, not from {SRC}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    goldens = {}
    for name in CATALOG:
        goldens[name] = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        goldens[name].pop("elapsed_ms")
    sums = [name for name in workload.entries if name in gen.SUMS]
    exports = sorted({s for name in sums for s in gen.SUMS[name][0]} | set(workload.entries) - set(sums))
    paths: dict[str, Path] = {}
    docs = {}
    for name in exports:
        paths[name] = work / f"{name}.json"
        code, _, err = _call(cli, ("catalog", "--export", name, str(paths[name])))
        if code:
            raise SetupError(f"catalog --export {name}: exit {code}: {err.strip()}")
        docs[name] = json.loads(paths[name].read_text(encoding="utf-8"))
    for name, doc in gen.generate(sums, docs, random.Random(f"docs:{seed}")).items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    for name, path in paths.items():
        code, _, err = _call(cli, ("check", str(path)))
        if code:
            raise SetupError(f"check {name}: exit {code}: {err.strip()}")
    return Context(cli, paths, goldens, work)


def run_step(ctx: Context, step: Step, tracer: Tracer | None, sampler: Sampler,
             times: list[tuple[str, float]]) -> list[tuple[str, list[str]]]:
    outs = []
    try:
        for argv in step.argvs:
            if tracer is not None:
                tracer.call_id += 1
            start, busy = perf_counter(), sampler.busy
            code, out, err = _call(ctx.cli, argv)
            times.append((" ".join(argv), perf_counter() - start - (sampler.busy - busy)))
            if code:
                return [(item, [f"exit {code} from {' '.join(argv)}: {err.strip()}"]) for item in step.items]
            outs.append(out)
        return step.check(outs)
    except Exception as exc:  # a crash or unreadable output fails the step's items
        return [(item, [f"{type(exc).__name__}: {exc}"]) for item in step.items]


def run_pass(ctx: Context, workload: Workload, rng: random.Random,
             tracer: Tracer | None, sampler: Sampler) -> tuple[dict, list[tuple[str, list[str]]]]:
    """One pass; the time the sampler spends is taken out of every timing."""
    steps = workload.build(ctx, workload.entries)
    rng.shuffle(steps)
    gc.collect()
    outcomes: list[tuple[str, list[str]]] = []
    times: list[tuple[str, float]] = []
    if tracer is not None:
        tracer.install()
    first = len(sampler.samples)
    try:
        with sampler:
            busy, busy_cpu = sampler.busy, sampler.busy_cpu
            wall, cpu = perf_counter(), time.process_time()
            for step in steps:
                outcomes += run_step(ctx, step, tracer, sampler, times)
            wall = perf_counter() - wall - (sampler.busy - busy)
            cpu = time.process_time() - cpu - (sampler.busy_cpu - busy_cpu)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "cpu_s": cpu, "slowest_call_s": max(t for _, t in times), "calls": times}
    if sampler.interval is not None:
        sampler.sample()  # so that even a short pass has a reference
        result["ref_s"] = statistics.median(sampler.samples[first:])
    return result, outcomes


def run_passes(ctx: Context, workload: Workload, rng: random.Random, seconds: float,
               tracers: tuple[Tracer | None, ...],
               sampler: Sampler) -> tuple[list[list[dict]], list[tuple[str, list[str]]]]:
    """Rounds of one pass per entry of `tracers` (None: untraced) for about
    `seconds`, at least one round: another round starts while it would end
    less than half a round past the budget. Alternating untraced and traced
    passes exposes both to the same machine load."""
    passes: list[list[dict]] = [[] for _ in tracers]
    outcomes: list[tuple[str, list[str]]] = []
    begin, rounds = perf_counter(), 0
    while not rounds or (perf_counter() - begin) * (1 + 0.5 / rounds) < seconds:
        for kind, tracer in zip(passes, tracers):
            result, pass_outcomes = run_pass(ctx, workload, rng, tracer, sampler)
            kind.append(result)
            outcomes += pass_outcomes
        rounds += 1
    return passes, outcomes


def _rref_counts(args: tuple, result: object) -> dict[str, float]:
    a = args[0]
    return {"cells": len(a) * len(a[0]) if a else 0, "nonzero": sum(1 for row in a for x in row if x)}


def _curvature_counts(args: tuple, result: list) -> dict[str, float]:
    cells = len(result) ** 4
    return {"cells": cells, "nonzero": sum(1 for a in result for b in a for c in b for x in c if x)}


PROBES = {
    "linalg.rref": _rref_counts,
    "obata.obata_oracle_solver": lambda args, res: {
        "equations": res[1].equations, "unknowns": res[1].unknowns},
    "holonomy.holonomy_algebra": lambda args, res: {"dim": res.dim},
    "linalg.RowSpan.add": lambda args, res: {"accepted": int(res)},
    "invariant.curvature_tensor": _curvature_counts,
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass totals of every span name, plus the named counts."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    for name in tracer.names:
        row = summary.get(name, {})
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = row.get(key, 0) / passes

    def ratio(name: str, num: str, den: str) -> float:
        row = summary.get(name, {})
        return row.get(num, 0) / row[den] if row.get(den) else 0.0

    def per_pass(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0) / passes

    out["linalg.rref.cells"] = per_pass("linalg.rref", "cells")
    out["linalg.rref.nonzero_ratio"] = ratio("linalg.rref", "nonzero", "cells")
    out["obata.solver.equations"] = per_pass("obata.obata_oracle_solver", "equations")
    out["obata.solver.unknowns"] = per_pass("obata.obata_oracle_solver", "unknowns")
    out["holonomy.dim_sum"] = per_pass("holonomy.holonomy_algebra", "dim")
    out["linalg.RowSpan.add.accept_ratio"] = ratio("linalg.RowSpan.add", "accepted", "calls")
    out["invariant.curvature_tensor.nonzero_ratio"] = ratio("invariant.curvature_tensor", "nonzero", "cells")
    return out


def _pool_threads(tracer: Tracer) -> int:
    """Most threads that ran analyze_entry within one CLI call."""
    threads: dict[int, set[int]] = {}
    for span in tracer.spans:
        if span.name == "analyze.analyze_entry":
            threads.setdefault(span.call_id, set()).add(span.thread)
    return max((len(t) for t in threads.values()), default=0)


def machine_facts(seed: int, workload: str, trace: int) -> dict[str, object]:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def measure(args: argparse.Namespace, spec: dict, work: Path) -> dict:
    """Set up, then time untraced passes or, with --trace 1, alternate
    untraced and traced ones."""
    workload = WORKLOADS[args.workload]
    setup_times: list[float] = []

    def timed_setup() -> Context:
        start = perf_counter()
        ctx = setup(workload, args.seed, work)
        setup_times.append(perf_counter() - start)
        return ctx

    # half of the set-ups run before the passes and half after, so that the
    # median does not hang on the machine's speed in one second of the run
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        ctx = timed_setup()
    rng = random.Random(f"order:{args.seed}")
    record: dict = {"machine": machine_facts(args.seed, args.workload, args.trace),
                    "setup_s": setup_times}
    if args.trace:
        import hktlab
        from hktlab.linalg import RowSpan

        tracer = Tracer(hktlab, methods=((RowSpan, "add"),), probes=PROBES)
        (passes, traced), outcomes = run_passes(ctx, workload, rng, args.seconds, (None, tracer), Sampler(None))
        values = layer_metrics(tracer, len(traced))
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in passes)
        )
        samples = {m["name"]: len(traced) for m in spec["per_layer"]}
        record["machine"]["all_pool_threads"] = _pool_threads(tracer)
        record |= {"traced_passes": traced, "spans": [list(span) for span in tracer.spans]}
    else:
        sampler = Sampler(SAMPLE_INTERVAL)
        (passes,), outcomes = run_passes(ctx, workload, rng, args.seconds, (None,), sampler)
        for _ in range(SETUP_REPEATS // 2):
            timed_setup()
        values = {key: statistics.median(p[key] for p in passes) for key in PASS_METRICS + ("ref_s",)}
        values |= {
            key.removesuffix("_s") + "_ref": statistics.median(p[key] / p["ref_s"] for p in passes)
            for key in PASS_METRICS
        }
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = dict.fromkeys(values, len(passes)) | {"setup_s": len(setup_times), "peak_rss_mb": 1}
        # raw times are printed for reading; the gated metrics are the *_ref ones
        record["raw_s"] = {key: values[key] for key in PASS_METRICS + ("ref_s",)}
        record["raw_samples"] = {key: samples[key] for key in record["raw_s"]}
    record["passes"] = passes
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SetupError(f"BENCHMARK.json names metrics the benchmark does not compute: {missing}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["samples"] = {m["name"]: samples[m["name"]] for m in wanted}
    record["failures"] = [(item, problems) for item, problems in outcomes if problems]
    record["attempted"] = len(outcomes)
    return record


def print_result(record: dict) -> None:
    """Readable lines first; the last line is the JSON result."""
    failures = record["failures"]
    print("machine " + json.dumps(record["machine"]))
    for name, metric in record["metrics"].items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']:<6} n={record['samples'][name]}")
    for name, value in record.get("raw_s", {}).items():
        print(f"{name:<44} {value:>14.6g} {'s':<6} n={record['raw_samples'][name]} (not gated)")
    print(f"{'failed_ratio':<44} {len(failures) / record['attempted']:>14.6g} {'ratio':<6}"
          f" ({len(failures)} of {record['attempted']} calls)")
    unknown = 0
    for (item, problems), count in Counter((i, tuple(p)) for i, p in failures).items():
        known = KNOWN_FAILURES.get(item) == set(problems)
        unknown += 0 if known else count
        tag = "known baseline" if known else "unexpected"
        print(f"  failed {count}x ({tag}): {item}: {'; '.join(problems)[:300]}")
    print(json.dumps({
        "correct": unknown == 0,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": record["metrics"],
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hktlab" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        print(f"error: no hktlab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    os.environ.pop("HKTLAB_CATALOG_DIR", None)
    work = ROOT / ".clibench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = measure(args, spec, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = ROOT / ".clibench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
