"""Hypercomplex and hyperhermitian structure layer.

Quaternion relations, Nijenhuis tensors, integrability, fundamental forms,
torsion construction for metric connections with totally skew torsion, and
the test for a single common torsion shared by all three complex
structures. A structure holds J1, J2, J3 only as sparse matrices
(`j_sparse`, no zero stored), each a signed permutation of the frame,
checked where the structure is built by `is_signed_permutation`, the test
the loader also reads to keep a standard-basis document as it is; every
reader here takes them in that format, `quaternionic_check` included,
which validates the loader's sparse wire J's and metric through
`linalg.sparse_product` before a structure exists. A structure derives
each J's signed permutation once, on first read (`permutations`);
`glnh_membership` reads those and forms no product. The structure holds
no metric: the engine works in the orthonormal frame that the loader
builds, so the metric is the identity there, and `fundamental_form` reads
F(e_x, e_y) = J[x][y] off J's nonzeros.
`nijenhuis` and each J_s's torsion-type identity is one term table of
J-pullbacks for `tensors.cube_pullback`, of the bracket cube view
(`LieAlgebra.cube`) and of the torsion's (`KForm.cube`) respectively, each
J converted to its `tensors.row_images` once per call; nabla A
(`invariant.covariant_derivative_cube`) is one more such table. `hkt_check`
hands each Nijenhuis 3-form to `kt_torsion`, so each tensor is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import Scalar
from .invariant import Connection, LieAlgebra, ce_differential
from .linalg import SparseMatrix, sparse_product, sparse_transpose
from .tensors import (
    Cube,
    KForm,
    cube_add,
    cube_pullback,
    cube_scale,
    cube_to_form,
    form_add,
    form_to_matrix,
    j_pullback,
    j_twist,
    row_images,
)


@dataclass(frozen=True)
class HyperhermitianStructure:
    """An ordered triple of anticommuting complex structures, held as sparse
    matrices in an orthonormal frame of the metric in which each J is a
    signed permutation: every row and every column holds one nonzero, +-1."""

    dim: int
    j_sparse: tuple[SparseMatrix, SparseMatrix, SparseMatrix]

    def __post_init__(self):
        for s, j in enumerate(self.j_sparse, 1):
            if not is_signed_permutation(j, self.dim):
                raise ValueError(f"J{s} is not a signed permutation of the frame")

    @cached_property
    def permutations(self) -> tuple[dict[int, tuple[int, Scalar]], ...]:
        """J_s e_x = eps_s(x) e_sigma_s(x), read off each J_s once, on first
        read, as {x: (sigma_s(x), eps_s(x))}."""
        return tuple(
            {x: (y, v) for y, row in j.items() for x, v in row.items()} for j in self.j_sparse
        )


def is_signed_permutation(j: SparseMatrix, dim: int) -> bool:
    """Every row and every column of j, over indices 0..dim-1, holds one
    nonzero, +-1."""
    indices = list(range(dim))
    units = [c for row in j.values() if len(row) == 1 for c, x in row.items() if x in (1, -1)]
    return sorted(j) == indices and sorted(units) == indices


def quaternionic_check(
    j_sparse: tuple[SparseMatrix, SparseMatrix, SparseMatrix], dim: int, g: SparseMatrix
) -> list[str]:
    """All quaternion-relation and compatibility violations of the sparse
    J1, J2, J3 and the sparse metric g, [] when clean. Each relation
    compares two sparse products, which store no zero, so `==` is the
    matrix equality; compatibility is J^T g J = g. The loader checks the
    wire J's and metric; in an orthonormal frame g is the identity."""
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
        if j_pullback(g, j) != g:
            violations.append(f"metric not J{s}-invariant")
    return violations


def glnh_membership(m: SparseMatrix, h: HyperhermitianStructure) -> bool:
    """Quaternion-linearity: m commutes with J1, J2, J3 exactly. On the
    operators L_i of a connection it says the connection preserves all three.

    No product is formed: m commutes with J_s exactly when J_s m J_s^-1 = m,
    that is m[sigma(c)][sigma(x)] = eps(c) eps(x) m[c][x] for every cell,
    with sigma, eps the signed permutation of J_s (`h.permutations`, the
    rule of `obata.commutant_basis`). Checking the nonzeros of m suffices:
    the cell map is a bijection, so if it sends every nonzero of m to a
    nonzero, it sends every zero to a zero."""
    for image in h.permutations:
        for c, row in m.items():
            p, e = image[c]
            target = m.get(p, {})
            for x, v in row.items():
                q, f = image[x]
                if target.get(q, 0) != (v if e == f else -v):
                    return False
    return True


def fundamental_form(j: SparseMatrix, dim: int) -> KForm:
    """F(X, Y) = g(X, J Y) as a 2-form. In the orthonormal frame
    F(e_x, e_y) = J[x][y], read off J's nonzeros above the diagonal."""
    f = KForm(dim, 2, {(x, y): v for x in sorted(j) for y, v in sorted(j[x].items()) if x < y})
    if form_to_matrix(f) != j:
        raise RuntimeError("fundamental form not antisymmetric; compatibility broken")
    return f


def nijenhuis(alg: LieAlgebra, j: SparseMatrix) -> tuple[Cube, KForm | None]:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on basis pairs.

    Returns the cube n[(i, j, k)] = N(e_i, e_j)^k and its 3-form reading
    when totally skew (the cube lowered in the orthonormal frame), else
    None. The four terms are one pullback table of the shared bracket cube
    `alg.cube`, c[(i, j, k)] = c^k_ij: J on an argument slot, and J applied
    to the value slot as the pullback through J^T.
    """
    rj, rjt = row_images(j), row_images(sparse_transpose(j))
    n = cube_pullback(
        alg.cube, (1, rj, rj, None), (-1, None, None, None), (-1, rj, None, rjt),
        (-1, None, rj, rjt),
    )
    return n, cube_to_form(n, alg.dim)


def kt_torsion(j: SparseMatrix, alg: LieAlgebra, n_form: KForm | None) -> KForm:
    """Totally skew torsion of the metric connection preserving (g, J):
    T = J dF + N, valid exactly when N is totally skew. `n_form` is the
    3-form reading of J's Nijenhuis tensor, `nijenhuis(alg, j)[1]`.
    """
    if n_form is None:
        raise ValueError(
            "no compatible skew-torsion connection: Nijenhuis tensor is not totally skew"
        )
    df = ce_differential(alg, fundamental_form(j, alg.dim))
    return form_add(j_twist(df, j), n_form)


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
    tensors = [nijenhuis(alg, j) for j in h.j_sparse]
    first_bad = next((s for s, (cube, _) in enumerate(tensors, 1) if cube), None)
    candidates: list[KForm] = []
    for s, (_, n_form) in enumerate(tensors, 1):
        try:
            candidates.append(kt_torsion(h.j_sparse[s - 1], alg, n_form))
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
    for s, j in enumerate(map(row_images, h.j_sparse), 1):
        residual = cube_pullback(
            c, (1, None, None, None), (-1, j, j, None), (-1, j, None, j), (-1, None, j, j)
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
