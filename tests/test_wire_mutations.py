"""Seeded wire mutations never reach exit 3.

Exit code 3 is reserved for an exact identity that failed. The inputs are
the builtins, exported to the wire format, and the two with a curved Obata
connection: examples/su3.json and hc_only8+su3. Each is mutated with a
fixed seed: a structure constant is added, changed or dropped, a
symmetric pair of metric cells is changed, or a J cell is changed. Every
mutated document goes through `cli.main` as `analyze --format json` and
as `holonomy` with the Obata, the Bismut and the Levi-Civita connection;
the last is the closure with the most brackets. The loader
rejects most mutations, since few keep the Jacobi identity, the
quaternion relations and a positive J-invariant metric; what it accepts
must be analyzed. Either way the exit code is 0 or 1, and no exception
leaves `main`.
"""

import json
import random

import pytest

from hktlab import cli
from hktlab.catalog import builtin_by_name, serialize

from oracle_impl import ALL_NAMES, direct_sum

MUTATIONS_PER_ENTRY = 34
VALUES = ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/2")
COMMANDS = (
    ("analyze", "--format", "json"),
    ("holonomy", "--connection", "obata"),
    ("holonomy", "--connection", "bismut"),
    ("holonomy", "--connection", "levicivita"),
)


def mutate(doc: dict, rng: random.Random) -> str:
    """Apply one seeded mutation to the wire document in place; return what
    it did."""
    dim, constants = doc["dim"], doc["structure_constants"]
    kind = rng.choice(("add", "change", "drop", "metric", "j"))
    if kind == "add" or (kind in ("change", "drop") and not constants):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        constants.append([i, j, k, rng.choice(VALUES[1:])])
        return f"add constant {constants[-1]}"
    if kind == "change":
        at = rng.randrange(len(constants))
        constants[at][3] = rng.choice(VALUES)
        return f"change constant {at} to {constants[at]}"
    if kind == "drop":
        return f"drop constant {constants.pop(rng.randrange(len(constants)))}"
    r, c = rng.randrange(dim), rng.randrange(dim)
    value = rng.choice(VALUES)
    if kind == "metric":
        doc["metric"][r][c] = doc["metric"][c][r] = value
        return f"metric cells ({r}, {c}) and ({c}, {r}) to {value}"
    s = rng.choice(("j1", "j2", "j3"))
    doc[s][r][c] = value
    return f"{s} cell ({r}, {c}) to {value}"


def wire_document(name: str, su3_path) -> dict:
    """The wire document of a builtin, of su3, or of hc_only8+su3."""
    if name in ALL_NAMES:
        return serialize(builtin_by_name()[name])
    su3 = json.loads(su3_path.read_text(encoding="utf-8"))
    return su3 if name == "su3" else direct_sum(serialize(builtin_by_name()["hc_only8"]), su3)


@pytest.mark.parametrize("name", ALL_NAMES + ("su3", "hc_only8+su3"))
def test_mutated_builtins_exit_zero_or_one(capsys, tmp_path, su3_path, name):
    original = json.dumps(wire_document(name, su3_path))
    rng = random.Random(f"wire-mutation-{name}")
    path = tmp_path / "mutated.json"
    for index in range(MUTATIONS_PER_ENTRY):
        doc = json.loads(original)
        done = [mutate(doc, rng) for _ in range(rng.randint(1, 3))]
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            rc = cli.main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            assert rc in (0, 1), f"mutation {index} {done}: {' '.join(command)} -> {rc}: {err}"
