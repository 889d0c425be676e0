"""Hypercomplex and hyperhermitian structure layer.

Quaternion relations, Nijenhuis tensors, integrability, torsion
construction for metric connections with totally skew torsion, and the
test for a single common torsion shared by all three complex structures.
A structure is built from J1, J2, J3 as sparse matrices (`j_sparse`) and
derives, where it is built, each J's signed permutation
(`permutations`), which validates it; every reader here takes those
relabels. `quaternionic_check` reads the loader's sparse wire J's and
metric where a frame walk follows; `quaternion_relations` composes the
permutations. The structure holds no metric: in the loader's orthonormal
frame it is the identity, so the fundamental form F(e_x, e_y) = J[x][y]
is J's rows. `nijenhuis` and each J_s's torsion-type identity is one
term table of `tensors.cube_pullback`, of the bracket cube view
(`LieAlgebra.cube`) and of the torsion's (`KForm.cube`) respectively.
`kt_torsion` builds T = J dF + N without forming F or dF: J dF is one
fold of the stored brackets through J's rows. `hkt_check` hands each
Nijenhuis 3-form to `kt_torsion`, so each tensor is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import Scalar
from .invariant import Connection, LieAlgebra
from .linalg import SparseMatrix, sparse_product, sparse_transpose
from .tensors import Cube, KForm, Relabel, SignedPermutation, cube_add, cube_pullback, cube_scale
from .tensors import cube_to_form


@dataclass(frozen=True)
class HyperhermitianStructure:
    """An ordered triple of anticommuting complex structures, given as sparse
    matrices in an orthonormal frame of the metric in which each J is a
    signed permutation: every row and every column holds one nonzero, +-1."""

    dim: int
    j_sparse: tuple[SparseMatrix, SparseMatrix, SparseMatrix]

    def __post_init__(self):
        self.permutations  # derived, and so validated, once, here

    @cached_property
    def permutations(self) -> tuple[SignedPermutation, SignedPermutation, SignedPermutation]:
        """Each J_s's relabels, read off its nonzeros; a J whose rows are
        not each one +-1, at distinct columns 0..dim-1, is rejected."""
        indices, maps = list(range(self.dim)), []
        for s, j in enumerate(self.j_sparse, 1):
            rows = {a: x for a, row in j.items() if len(row) == 1 for x in row.items()}
            cols = {x: (a, e) for a, (x, e) in rows.items() if e in (1, -1)}
            if sorted(rows) != indices or len(j) != self.dim or sorted(cols) != indices:
                raise ValueError(f"J{s} is not a signed permutation of the frame")
            maps.append(SignedPermutation(rows, cols))
        return tuple(maps)


def quaternionic_check(
    j_sparse: tuple[SparseMatrix, SparseMatrix, SparseMatrix], dim: int, g: SparseMatrix
) -> list[str]:
    """All quaternion-relation and compatibility violations of the sparse
    J1, J2, J3 and the sparse metric g, [] when clean. Each relation
    compares two sparse products, which store no zero, so `==` is the
    matrix equality; compatibility is J^T g J = g. The loader checks the
    wire J's and metric of a document that takes the frame walk."""
    j1, j2, j3 = j_sparse
    violations: list[str] = []
    minus_id = {i: {i: -1} for i in range(dim)}
    for s, j in enumerate(j_sparse, 1):
        if sparse_product(j, j) != minus_id:
            violations.append(f"J{s}^2 != -identity")
    if sparse_product(j1, j2) != j3:
        violations.append("J1*J2 != J3")
    if sparse_product(j2, j1) != {i: {k: -x for k, x in row.items()} for i, row in j3.items()}:
        violations.append("J2*J1 != -J3")
    for s, j in enumerate(j_sparse, 1):
        if sparse_product(sparse_transpose(j), sparse_product(g, j)) != g:
            violations.append(f"metric not J{s}-invariant")
    return violations


def quaternion_relations(h: HyperhermitianStructure) -> list[str]:
    """The quaternion-relation violations of `quaternionic_check`, in its
    order and wording, composed on the permutations: J e_x = e e_a for
    cols[x] = (a, e). A signed permutation is orthogonal, so with the
    identity metric no compatibility violation can follow."""

    def compose(p: Relabel, q: Relabel, sign: int = 1) -> Relabel:  # sign * P Q
        return {x: (p[a][0], sign * e * p[a][1]) for x, (a, e) in q.items()}

    c1, c2, c3 = (j.cols for j in h.permutations)
    minus_id = {x: (x, -1) for x in range(h.dim)}
    violations = [
        f"J{s}^2 != -identity" for s, c in enumerate((c1, c2, c3), 1) if compose(c, c) != minus_id
    ]
    if compose(c1, c2) != c3:
        violations.append("J1*J2 != J3")
    if compose(c2, c1, -1) != c3:
        violations.append("J2*J1 != -J3")
    return violations


def glnh_membership(m: SparseMatrix, h: HyperhermitianStructure) -> bool:
    """Quaternion-linearity: m commutes with J1, J2, J3 exactly. On the
    operators L_i of a connection it says the connection preserves all three.

    No product is formed: m commutes with J_s exactly when J_s m J_s^-1 = m,
    that is m[sigma(c)][sigma(x)] = eps(c) eps(x) m[c][x] for every cell,
    with (sigma(x), eps(x)) = cols[x] of J_s (`h.permutations`, the rule
    of `obata.commutant_basis`). Checking the nonzeros of m suffices: the
    cell map is a bijection, so if it sends every nonzero of m to a
    nonzero, it sends every zero to a zero."""
    for image in (j.cols for j in h.permutations):
        for c, row in m.items():
            p, e = image[c]
            target = m.get(p, {})
            for x, v in row.items():
                q, f = image[x]
                if target.get(q, 0) != (v if e == f else -v):
                    return False
    return True


def nijenhuis(alg: LieAlgebra, j: SignedPermutation) -> tuple[Cube, KForm | None]:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on basis pairs.

    Returns the cube n[(i, j, k)] = N(e_i, e_j)^k and its 3-form reading
    when totally skew (the cube lowered in the orthonormal frame), else
    None. The four terms are one pullback table of the shared bracket cube
    `alg.cube`, c[(i, j, k)] = c^k_ij: J on an argument slot, and J applied
    to the value slot as the pullback through J^T (J's cols).
    """
    rj, rjt = j.rows, j.cols
    n = cube_pullback(
        alg.cube, (1, rj, rj, None), (-1, None, None, None), (-1, rj, None, rjt),
        (-1, None, rj, rjt),
    )
    return n, cube_to_form(n, alg.dim)


def kt_torsion(j: SignedPermutation, alg: LieAlgebra, n_form: KForm | None) -> KForm:
    """Totally skew torsion of the metric connection preserving (g, J):
    T = J dF + N, valid exactly when N is totally skew. `n_form` is the
    3-form reading of J's Nijenhuis tensor, `nijenhuis(alg, j)[1]`. For a
    skew signed permutation J dF(X, Y, Z) = -sum_cyc g([JX, JY], Z), so each
    c^k_ab, a < b, with rows[a] = (x, p) and rows[b] = (y, q), adds
    -p q perm_sign((x, y, k)) c^k_ab at the sorted (x, y, k), k not x or y.
    """
    if n_form is None:
        raise ValueError(
            "no compatible skew-torsion connection: Nijenhuis tensor is not totally skew"
        )
    rows = j.rows
    if any(rows[y] != (x, -v) for x, (y, v) in rows.items()):
        raise RuntimeError("fundamental form not antisymmetric; compatibility broken")
    totals: dict[tuple[int, int, int], Scalar] = {}
    for (a, b), targets in alg.brackets.items():
        (x, p), (y, q) = rows[a], rows[b]
        if x > y:
            x, y, p = y, x, -p
        plus = p * q < 0
        for k, c in targets.items():
            if k != x and k != y:  # perm_sign((x, y, k)) = -1 exactly when x < k < y
                key = (k, x, y) if k < x else (x, k, y) if k < y else (x, y, k)
                totals[key] = totals.get(key, 0) + (c if plus != (x < k < y) else -c)
    comps = {key: totals[key] for key in sorted(totals) if totals[key]}
    for key, v in n_form.comps.items():
        comps[key] = comps.get(key, 0) + v
    return KForm(alg.dim, 3, comps)


@dataclass(frozen=True)
class HktResult:
    ok: bool
    first_nonintegrable: int | None
    torsion: KForm | None = None
    reason: str | None = None
    first_difference: tuple[tuple[int, int], tuple[int, int, int], Scalar, Scalar] | None = None


def hkt_check(h: HyperhermitianStructure, alg: LieAlgebra) -> HktResult:
    """Do the three candidate torsions agree? The Nijenhuis tensors, computed
    once, give both the candidates and first_nonintegrable (the first
    non-integrable J_s, or None). On success returns the common torsion and
    asserts integrability (a common torsion with nonvanishing Nijenhuis
    tensors is contradictory)."""
    tensors = [nijenhuis(alg, j) for j in h.permutations]
    first_bad = next((s for s, (cube, _) in enumerate(tensors, 1) if cube), None)
    candidates: list[KForm] = []
    for s, (_, n_form) in enumerate(tensors, 1):
        try:
            candidates.append(kt_torsion(h.permutations[s - 1], alg, n_form))
        except ValueError as exc:
            return HktResult(ok=False, first_nonintegrable=first_bad, reason=f"J{s}: {exc}")
    base = candidates[0]
    for s in (2, 3):
        other = candidates[s - 1]
        if base.comps != other.comps:
            keys = sorted(set(base.comps) | set(other.comps))
            for key in keys:
                v1, v2 = base.comps.get(key, 0), other.comps.get(key, 0)
                if v1 != v2:
                    return HktResult(
                        ok=False,
                        first_nonintegrable=first_bad,
                        reason="candidate torsions differ",
                        first_difference=((1, s), key, v1, v2),
                    )
    if first_bad is not None:
        raise RuntimeError(
            "common torsion with nonvanishing Nijenhuis tensor; structure inconsistent"
        )
    return HktResult(ok=True, first_nonintegrable=None, torsion=base)


def type_check_12_21(t: KForm, h: HyperhermitianStructure) -> tuple | None:
    """The (1,2)+(2,1)-type identity of the torsion form for each J_s, each
    residual one term table. The first failure is ("single", (s,), cell,
    value), at the residual's least nonzero cell; None when every identity
    holds."""
    c = t.cube
    for s, rj in enumerate((j.rows for j in h.permutations), 1):
        residual = cube_pullback(
            c, (1, None, None, None), (-1, rj, rj, None), (-1, rj, None, rj), (-1, None, rj, rj)
        )
        if residual:
            idx = min(residual)
            return "single", (s,), idx, residual[idx]
    return None


def bismut_connection(t: KForm, lc: Connection) -> Connection:
    """Levi-Civita `lc` plus half the (totally skew) torsion, lowered: with
    lc = gamma / s, the cube 2 gamma + s T over the scale 2 s."""
    twice = cube_add(cube_scale(lc.gamma, 2), cube_scale(t.cube, lc.scale))
    return Connection(lc.dim, twice, 2 * lc.scale)
