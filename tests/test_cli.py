import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hktlab import analyze, cli, holonomy
from hktlab.catalog import builtin_by_name, load, save, serialize
from hktlab.holonomy import SlCertificate

from oracle_impl import ALL_NAMES, cayley_rotated, direct_sum, direct_sum_entry

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


@pytest.fixture()
def heis4_path(tmp_path, cat):
    # valid wire document whose first complex structure pair is not integrable
    doc = serialize(cat["hopf4"])
    doc["name"] = "heis4"
    doc["structure_constants"] = [[0, 1, 2, "1"]]
    doc.pop("expected", None)
    path = tmp_path / "heis4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def without_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def golden_text(name):
    return without_elapsed((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_analyze_json_matches_golden(capsys, name):
    rc, out, err = run(capsys, "analyze", "--builtin", name, "--format", "json")
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert isinstance(report.pop("elapsed_ms"), int)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    golden.pop("elapsed_ms")
    assert report == golden
    # the printed text too, so key order and scalar types are pinned
    assert without_elapsed(out) == golden_text(name)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_exported_entry_reloads_to_golden(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    rc, out, err = run(capsys, "catalog", "--export", name, str(path))
    assert rc == 0
    rc, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert rc == 0 and err == ""
    assert without_elapsed(out) == golden_text(name)


def test_su3_analysis_matches_golden(capsys, su3_path):
    rc, out, err = run(capsys, "analyze", str(su3_path), "--format", "json")
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert isinstance(report.pop("elapsed_ms"), int)
    golden = json.loads((GOLDEN_DIR / "su3.json").read_text(encoding="utf-8"))
    golden.pop("elapsed_ms")
    assert report == golden
    assert without_elapsed(out) == golden_text("su3")
    # the one input whose torsion-free connection is not flat
    assert report["obata"]["flat"] is False


def test_su3_round_trip_reproduces_golden(capsys, tmp_path, su3):
    path = tmp_path / "su3.json"
    save(su3, path)
    rc, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert rc == 0 and err == ""
    assert without_elapsed(out) == golden_text("su3")


def test_analyze_all_json(capsys, monkeypatch):
    reports = []
    analyze = cli.analyze_entry

    def recording(entry):
        reports.append(analyze(entry))
        return reports[-1]

    monkeypatch.setattr(cli, "analyze_entry", recording)
    rc, out, err = run(capsys, "analyze", "--all", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert [r["entry"] for r in payload["reports"]] == sorted(ALL_NAMES)
    assert all(r["theorem_violations"] == [] for r in payload["reports"])
    # the printed text is that of the indenting encoder on the payload
    assert out == json.dumps({"reports": reports}, indent=2) + "\n"


def test_catalog_export_writes_the_indented_dumps_text(capsys, tmp_path, cat, su3):
    for name, entry in cat.items():
        path = tmp_path / f"{name}.json"
        rc, out, err = run(capsys, "catalog", "--export", name, str(path))
        assert rc == 0 and err == ""
        want = json.dumps(serialize(entry), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == want, name
    save(su3, tmp_path / "su3.json")
    want = json.dumps(serialize(su3), indent=2) + "\n"
    assert (tmp_path / "su3.json").read_text(encoding="utf-8") == want


def test_analyze_text_hopf4(capsys):
    rc, out, err = run(capsys, "analyze", "--builtin", "hopf4")
    assert rc == 0
    assert "entry: hopf4 (n=1, dim=4)" in out
    assert "common skew torsion: ✓  torsion zero: ✗" in out
    assert "ricci-equals-d-lee" in out and "✗" not in out.split("lee form:")[1]
    assert "verdict: tier restricted_SL  [caveat]" in out
    assert "restricted holonomy only" in out
    assert "theorem violations: none" in out


def test_analyze_text_non_hkt(capsys):
    rc, out, err = run(capsys, "analyze", "--builtin", "hc_only8")
    assert rc == 0
    assert "common skew torsion: ✗" in out
    assert "first difference:" in out
    assert "verdict: tier not_applicable" in out
    assert "obstruction flags: none; verdict: inconclusive" in out


def test_analyze_non_integrable_entry(capsys, heis4_path):
    rc, out, err = run(capsys, "analyze", str(heis4_path), "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["validation"]["integrable"] is False
    assert report["validation"]["first_nonintegrable"] == 2
    assert report["obata"] is None
    assert report["verdict"]["sl_tier"] == "not_applicable"
    assert report["theorem_violations"] == []


def test_check_builtin(capsys):
    rc, out, err = run(capsys, "check", "--builtin", "torus4")
    assert rc == 0
    assert out.startswith("ok: torus4")


def test_check_unknown_builtin(capsys):
    rc, out, err = run(capsys, "check", "--builtin", "nope")
    assert rc == 1
    assert "invalid input: unknown entry 'nope'" in err


def test_check_missing_file(capsys, tmp_path):
    rc, out, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert rc == 2
    assert err.startswith("i/o error:")


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 1
    assert "invalid input:" in err and "parse error" in err


def test_check_requires_one_source(capsys, tmp_path):
    rc, out, err = run(capsys, "check")
    assert rc == 1
    assert "usage error: an entry is required" in err
    path = tmp_path / "x.json"
    path.write_text("{}", encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path), "--builtin", "torus4")
    assert rc == 1
    assert "not both" in err


def test_check_allow_unknown_flag(capsys, tmp_path, cat):
    doc = serialize(cat["torus4"])
    doc["note"] = "extra"
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 1 and "unknown field" in err
    rc, out, err = run(capsys, "check", str(path), "--allow-unknown")
    assert rc == 0


def test_usage_errors_exit_one(capsys):
    rc, out, err = run(capsys)
    assert rc == 1 and "usage error:" in err
    rc, out, err = run(capsys, "analyze", "--builtin", "hopf4", "--format", "xml")
    assert rc == 1 and "usage error:" in err
    rc, out, err = run(capsys, "analyze", "--all", "--builtin", "hopf4")
    assert rc == 1 and "usage error:" in err


# each call's options differ from the last one's, so an option or default
# kept from an earlier call would show; the fourth is a parser usage error
ONE_PROCESS_CALLS = [
    ("check", "--builtin", "hopf4"),
    ("analyze", "--all"),
    ("holonomy", "--builtin", "nil8", "--connection", "bismut"),
    ("holonomy", "--builtin", "nil8"),
    ("analyze", "--builtin", "hopf4", "--format", "xml"),
    ("catalog", "--list"),
    ("check", "--builtin", "nil8"),
]


def test_main_calls_share_one_parser(capsys):
    fresh = []
    for argv in ONE_PROCESS_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [rc for rc, _, _ in fresh] == [0, 0, 0, 0, 1, 0, 0]
    parser = cli._build_parser()
    assert [run(capsys, *argv) for argv in ONE_PROCESS_CALLS] == fresh
    assert cli._build_parser() is parser


@pytest.mark.parametrize(
    "constant, message",
    [
        ([0, 1, 1, "1/2"], "fails at (0, 1, 2): defect [0, 0, 0, 1]"),
        ([0, 1, 2, "1/3"], "fails at (0, 1, 3): defect [0, 2/3, 0, 0]"),
    ],
)
def test_jacobi_defect_written_in_wire_format(capsys, tmp_path, cat, constant, message):
    doc = serialize(cat["hopf4"])
    doc["structure_constants"].append(constant)
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert (rc, out) == (1, "")
    assert err == f"invalid input: structure_constants: Jacobi identity {message}\n"


def test_holonomy_default_obata(capsys):
    rc, out, err = run(capsys, "holonomy", "--builtin", "hopf4")
    assert rc == 0
    assert "connection: obata" in out
    assert "holonomy dimension: 0" in out
    assert "special quaternionic: True" in out
    assert "first_violation=None" in out


def test_holonomy_bismut_nil8(capsys):
    rc, out, err = run(capsys, "holonomy", "--builtin", "nil8", "--connection", "bismut")
    assert rc == 0
    assert "holonomy dimension: 3" in out
    assert "metric-skew: True" in out
    assert "quaternion-linear: True" in out


def test_holonomy_levicivita_hopf4(capsys):
    rc, out, err = run(capsys, "holonomy", "--builtin", "hopf4", "--connection", "levicivita")
    assert rc == 0
    assert "holonomy dimension: 3" in out


SU3_HOLONOMY = {
    "obata": (
        "connection: obata\n"
        "generators: 16\n"
        "holonomy dimension: 16\n"
        "metric-skew: False\n"
        "quaternion-linear: True\n"
        "special quaternionic: False\n"
        "certificate: generators=16 quaternion_linear=True trace_free=False"
        " first_violation=(0, 'nonzero trace', 2)\n"
    ),
    "levicivita": (
        "connection: levicivita\n"
        "generators: 28\n"
        "holonomy dimension: 28\n"
        "metric-skew: True\n"
        "quaternion-linear: False\n"
    ),
    "bismut": (
        "connection: bismut\n"
        "generators: 1\n"
        "holonomy dimension: 1\n"
        "metric-skew: True\n"
        "quaternion-linear: True\n"
    ),
}


@pytest.mark.parametrize("connection", sorted(SU3_HOLONOMY))
def test_holonomy_su3_output(capsys, su3_path, connection):
    # the Obata holonomy of su3 is gl(2, H): its first generator has real
    # trace 2, which the certificate writes in wire format
    rc, out, err = run(capsys, "holonomy", str(su3_path), "--connection", connection)
    assert (rc, out, err) == (0, SU3_HOLONOMY[connection], "")


# the dim-12 and dim-16 direct sums of the holonomy benchmark inputs
SUMS = {"nil12": ("nil8", "hopf4"), "nil16": ("nil8", "nil8")}
FLAT_OBATA = (
    "connection: obata\n"
    "generators: 0\n"
    "holonomy dimension: 0\n"
    "metric-skew: True\n"
    "quaternion-linear: True\n"
    "special quaternionic: True\n"
    "certificate: generators=0 quaternion_linear=True trace_free=True first_violation=None\n"
)
SUM_HOLONOMY = {
    ("nil12", "levicivita"): (
        "connection: levicivita\n"
        "generators: 24\n"
        "holonomy dimension: 24\n"
        "metric-skew: True\n"
        "quaternion-linear: False\n"
    ),
    ("nil12", "bismut"): (
        "connection: bismut\n"
        "generators: 3\n"
        "holonomy dimension: 3\n"
        "metric-skew: True\n"
        "quaternion-linear: True\n"
    ),
    ("nil12", "obata"): FLAT_OBATA,
    ("nil16", "levicivita"): (
        "connection: levicivita\n"
        "generators: 42\n"
        "holonomy dimension: 42\n"
        "metric-skew: True\n"
        "quaternion-linear: False\n"
    ),
    ("nil16", "bismut"): (
        "connection: bismut\n"
        "generators: 6\n"
        "holonomy dimension: 6\n"
        "metric-skew: True\n"
        "quaternion-linear: True\n"
    ),
    ("nil16", "obata"): FLAT_OBATA,
}


@pytest.mark.parametrize("name, connection", sorted(SUM_HOLONOMY))
def test_holonomy_direct_sum_output(capsys, tmp_path, cat, name, connection):
    first, second = (serialize(cat[summand]) for summand in SUMS[name])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(direct_sum(first, second)), encoding="utf-8")
    rc, out, err = run(capsys, "holonomy", str(path), "--connection", connection)
    assert (rc, out, err) == (0, SUM_HOLONOMY[name, connection], "")


def test_holonomy_obata_tests_each_generator_once(capsys, monkeypatch, su3_path):
    # `quaternion-linear:` reads the certificate, whose membership test
    # already ran on every generator
    calls = []
    original = holonomy.glnh_membership
    monkeypatch.setattr(
        holonomy, "glnh_membership", lambda m, h, _f=original: calls.append(m) or _f(m, h)
    )
    rc, out, err = run(capsys, "holonomy", str(su3_path), "--connection", "obata")
    assert (rc, out, err) == (0, SU3_HOLONOMY["obata"], "")
    assert len(calls) == 16


@pytest.mark.parametrize(
    "first, written",
    [
        ((0, "nonzero trace", Fraction(-1, 2)), "(0, 'nonzero trace', -1/2)"),
        ((3, "not quaternion-linear", None), "(3, 'not quaternion-linear', None)"),
        (None, "None"),
    ],
)
def test_holonomy_certificate_writes_its_trace_in_wire_format(capsys, monkeypatch, first, written):
    cert = SlCertificate(4, first is None or first[2] is not None, first is None, first)
    monkeypatch.setattr(analyze, "slnh_membership", lambda hol, h: cert)
    rc, out, err = run(capsys, "holonomy", "--builtin", "hopf4", "--connection", "obata")
    assert (rc, err) == (0, "")
    assert out.endswith(f" first_violation={written}\n")


# the builtins, su3, and direct sums on both sides of the HKT condition
AGREEMENT_SUMS = {
    "nil12": ("nil8", "hopf4"),
    "hopf16": ("hopf8", "hopf8"),
    "hc12": ("hc_only8", "torus4"),
    "hc16": ("hc_only8", "hc_only8"),
}


def holonomy_fields(capsys, path, connection):
    rc, out, err = run(capsys, "holonomy", str(path), "--connection", connection)
    assert (rc, err) == (0, "")
    return dict(line.split(": ", 1) for line in out.splitlines())


@pytest.mark.parametrize("name", [*ALL_NAMES, "su3", *AGREEMENT_SUMS])
def test_holonomy_and_report_agree_on_each_connection(capsys, tmp_path, cat, su3_path, name):
    # both read one closure stage per connection: the torsion-free one on
    # every input, the skew-torsion one where the structure is HKT
    if name in AGREEMENT_SUMS:
        first, second = (cat[summand] for summand in AGREEMENT_SUMS[name])
        path = tmp_path / f"{direct_sum_entry(first, second, tmp_path).name}.json"
    elif name == "su3":
        path = su3_path
    else:
        path = tmp_path / f"{name}.json"
        save(cat[name], path)
    rc, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert (rc, err) == (0, "")
    report = json.loads(out)
    obata = holonomy_fields(capsys, path, "obata")
    assert (
        obata["holonomy dimension"], obata["quaternion-linear"], obata["special quaternionic"]
    ) == (
        str(report["obata"]["holonomy_dim"]),
        str(report["holonomy"]["gl_membership"]),
        str(report["holonomy"]["sl_membership"]),
    )
    assert report["hkt"]["ok"] == (name not in ("hc_only8", "hc12", "hc16"))
    if report["hkt"]["ok"]:
        bismut = holonomy_fields(capsys, path, "bismut")
        assert (
            bismut["holonomy dimension"], bismut["metric-skew"], bismut["quaternion-linear"]
        ) == (
            str(report["bismut"]["holonomy_dim"]),
            str(report["bismut"]["generators_metric_skew"]),
            str(report["bismut"]["generators_quaternion_linear"]),
        )


def test_holonomy_bismut_rejected_without_common_torsion(capsys):
    rc, out, err = run(capsys, "holonomy", "--builtin", "hc_only8", "--connection", "bismut")
    assert rc == 1
    assert "no common skew-torsion connection" in err


def test_holonomy_obata_rejected_non_integrable(capsys, heis4_path):
    rc, out, err = run(capsys, "holonomy", str(heis4_path))
    assert rc == 1
    assert "torsion-free route requires an integrable structure" in err


def test_catalog_list(capsys):
    rc, out, err = run(capsys, "catalog", "--list")
    assert rc == 0
    for name in ALL_NAMES:
        assert f"{name}  (n=" in out
    assert "expected:" in out


def test_catalog_export_round_trip(capsys, tmp_path, cat):
    target = tmp_path / "out.json"
    rc, out, err = run(capsys, "catalog", "--export", "hopf8", str(target))
    assert rc == 0 and str(target) in out
    rc, out, err = run(capsys, "check", str(target))
    assert rc == 0
    assert load(target).lie.brackets == cat["hopf8"].lie.brackets


def test_catalog_export_unknown(capsys, tmp_path):
    rc, out, err = run(capsys, "catalog", "--export", "nope", str(tmp_path / "y.json"))
    assert rc == 1
    assert "unknown entry 'nope'" in err


def test_catalog_group_usage(capsys, tmp_path):
    rc, out, err = run(capsys, "catalog")
    assert rc == 1 and "usage error:" in err
    rc, out, err = run(
        capsys, "catalog", "--list", "--export", "hopf4", str(tmp_path / "z.json")
    )
    assert rc == 1 and "usage error:" in err


def test_env_catalog_dir_extends_builtins(capsys, tmp_path, monkeypatch, cat):
    doc = serialize(cat["torus4"])
    doc["name"] = "usertorus"
    (tmp_path / "usertorus.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("HKTLAB_CATALOG_DIR", str(tmp_path))
    rc, out, err = run(capsys, "check", "--builtin", "usertorus")
    assert rc == 0 and out.startswith("ok: usertorus")
    rc, out, err = run(capsys, "catalog", "--list")
    assert rc == 0 and "usertorus" in out


def test_env_catalog_dir_skips_rejected_file(capsys, tmp_path, monkeypatch, cat):
    doc = serialize(cat["torus4"])
    doc["name"] = "usertorus"
    (tmp_path / "usertorus.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "broken.json").write_text('{"schema_version": "1"}', encoding="utf-8")
    monkeypatch.setenv("HKTLAB_CATALOG_DIR", str(tmp_path))
    for name in ("hopf4", "usertorus"):
        rc, out, err = run(capsys, "check", "--builtin", name)
        assert rc == 0 and out.startswith(f"ok: {name}")
        assert err.count("warning:") == 1
        assert "broken.json" in err and "name: missing required field" in err
    rc, out, err = run(capsys, "catalog", "--list")
    assert rc == 0 and "usertorus" in out and "broken.json" in err


def test_check_non_utf8_file_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 1
    assert "invalid input:" in err and "parse error" in err


@pytest.mark.parametrize(
    "text",
    ["[" * 200000 + "]" * 200000, '{"n": ' + "7" * 5000 + "}"],
    ids=["nesting-past-recursion-limit", "integer-past-digit-limit"],
)
def test_unparseable_document_is_invalid_input(capsys, tmp_path, monkeypatch, text):
    # json.loads raises RecursionError and ValueError here, not
    # JSONDecodeError: both are parse errors (exit 1), never exit 3
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 1
    assert "invalid input:" in err and "parse error" in err
    monkeypatch.setenv("HKTLAB_CATALOG_DIR", str(tmp_path))
    rc, out, err = run(capsys, "check", "--builtin", "hopf4")
    assert rc == 0 and out.startswith("ok: hopf4")
    assert err.count("warning:") == 1 and "bad.json" in err and "parse error" in err


def test_analyze_cayley_rotated_hopf4_exits_zero(capsys, tmp_path, cat):
    # hopf4 in a rotated rational orthonormal basis, where J1 is no signed
    # permutation: the saved document analyzes to hopf4's verdict
    path = tmp_path / "hopf4_cayley.json"
    path.write_text(json.dumps(cayley_rotated(cat["hopf4"])), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 0 and out.startswith("ok: hopf4_cayley")
    rc, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert rc == 0, err
    report = json.loads(out)
    assert report["theorem_violations"] == []
    golden = json.loads((GOLDEN_DIR / "hopf4.json").read_text(encoding="utf-8"))
    assert report["verdict"] == golden["verdict"]
