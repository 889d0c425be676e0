"""Direct-sum generator for benchmark inputs.

Works on wire documents only (the JSON that `hktlab catalog --export`
writes): a direct sum shifts the second summand's bracket table by the
first summand's dimension and places the metric and the three complex
structures block-diagonally. The seed decides the order of the summands.

Each generated entry carries a hand-written expected map derived from its
summands: the skew torsion, the Lee form and the torsion-free connection of
a direct sum are the sums of those of the summands, so a flag that needs a
zero (hyperkahler, balanced, strong) holds only when it holds on both
sides, and the torsion-free holonomy dimension is the sum of both sides'.
"""

from __future__ import annotations

import random

_HOPF = {
    "hkt": True,
    "hyperkahler": False,
    "balanced": False,
    "strong": True,
    "almost_strong": True,
    "d_theta_zero": True,
    "sl_tier": "restricted_SL",
    "hopf_caveat": True,
    "obstruction_verdict": "inconclusive",
    "obata_holonomy_dim": 0,
}
_NIL = {
    "hkt": True,
    "hyperkahler": False,
    "balanced": True,
    "strong": False,
    "almost_strong": False,
    "d_theta_zero": True,
    "sl_tier": "invariant_SL",
    "hopf_caveat": False,
    "obstruction_verdict": "inconclusive",
    "obata_holonomy_dim": 0,
}
_NOT_HKT = {
    "hkt": False,
    "sl_tier": "not_applicable",
    "hopf_caveat": False,
    "obstruction_verdict": "inconclusive",
    "obata_holonomy_dim": 0,
}

# name -> (summands, expected report map)
SUMS: dict[str, tuple[tuple[str, str], dict[str, object]]] = {
    # nil8 is balanced but not strong, hopf4 is strong with a closed,
    # nonvanishing Lee form: the sum keeps hopf4's Lee form and nil8's dT
    "nil12": (("nil8", "hopf4"), {**_HOPF, "strong": False, "almost_strong": False}),
    "hopf16": (("hopf8", "hopf8"), dict(_HOPF)),
    "nil16": (("nil8", "nil8"), dict(_NIL)),
    "hc12": (("hc_only8", "torus4"), dict(_NOT_HKT)),
    "hc16": (("hc_only8", "hc_only8"), dict(_NOT_HKT)),
}

# `hktlab holonomy` on a summand: connection -> (holonomy dimension, every
# generator quaternion-linear). The three connections of a direct sum are
# direct sums of the summands' connections, so the dimensions add and the
# generators are quaternion-linear when both sides' are.
_HOLONOMY = {
    "nil8": {"levicivita": (21, False), "bismut": (3, True), "obata": (0, True)},
    "hopf4": {"levicivita": (3, False), "bismut": (0, True), "obata": (0, True)},
}


def expected_holonomy(name: str, connection: str) -> tuple[int, bool]:
    a, b = (_HOLONOMY[s][connection] for s in SUMS[name][0])
    return a[0] + b[0], a[1] and b[1]


def _block_diag(a: list[list[object]], b: list[list[object]]) -> list[list[object]]:
    da, db = len(a), len(b)
    return [list(row) + ["0"] * db for row in a] + [["0"] * da + list(row) for row in b]


def direct_sum(name: str, first: dict, second: dict, expected: dict) -> dict:
    """Wire document of first ⊕ second."""
    shift = first["dim"]
    constants = [list(item) for item in first["structure_constants"]]
    constants += [
        [i + shift, j + shift, k + shift, value]
        for i, j, k, value in second["structure_constants"]
    ]
    doc = {
        "schema_version": first["schema_version"],
        "name": name,
        "description": f"direct sum {first['name']} + {second['name']}",
        "n": first["n"] + second["n"],
        "dim": first["dim"] + second["dim"],
        "structure_constants": constants,
        "metric": _block_diag(first["metric"], second["metric"]),
    }
    for key in ("j1", "j2", "j3"):
        doc[key] = _block_diag(first[key], second[key])
    doc["expected"] = dict(expected)
    return doc


def generate(names: list[str], summand_docs: dict[str, dict], rng: random.Random) -> dict[str, dict]:
    """Documents for the named sums; the generator draws each summand order."""
    out = {}
    for name in names:
        (a, b), expected = SUMS[name]
        if rng.random() < 0.5:
            a, b = b, a
        out[name] = direct_sum(name, summand_docs[a], summand_docs[b], expected)
    return out
