"""Slow, definition-level reference implementations used only as oracles.

Everything here is written straight from the defining formulas with full
permutation sums and explicit vector expansions, deliberately ignoring the
sparsity tricks of the package under test. The dense matrix helpers and
the test-only tensor functions that the sparse package no longer needs
live here too, as the references the tests compare against. They read
the complex structures as dense copies (`dense_js`) of a structure's
sparse J's.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import factorial, gcd, isqrt, lcm
from pathlib import Path
from typing import Callable, Iterable

from hktlab.catalog import (
    CatalogEntry,
    CatalogError,
    _parse_cell,
    _standard_structure,
    builtin_by_name,
    load,
    serialize,
)
from hktlab.exact import Scalar, format_scalar, parse_scalar
from hktlab.curvature import (
    _ORDERINGS_4,
    DtTraces,
    LeeForm,
    ObstructionReport,
    RicciPackage,
)
from hktlab.holonomy import HolonomyAlgebra
from hktlab.hyperhermitian import HyperhermitianStructure
from hktlab.invariant import (
    BracketTable,
    Connection,
    Curvature,
    CurvatureTensor,
    LieAlgebra,
    ce_differential,
    rebase_algebra,
)
from hktlab.linalg import (
    LinAlgError,
    Matrix,
    Row,
    RowSpan,
    SparseMatrix,
    Vector,
    identity,
    rref,
    sparse_commutator,
    sparse_product,
    sparse_subtract,
    sparse_transpose,
)
from hktlab.obata import SolverCertificate, commutant_basis
from hktlab.tensors import (
    Cube,
    KForm,
    MAX_DIM,
    Scaled,
    SignedPermutation,
    cube_add,
    cube_scale,
    cube_to_form,
    perm_sign,
)

HKT_NAMES = ("torus4", "torus8", "hopf4", "hopf8", "nil8")
ALL_NAMES = HKT_NAMES + ("hc_only8",)


def perm_parity(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def naive_rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Dense column-by-column Gauss-Jordan elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                row_r = m[r]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


# ---------------------------------------------------------------------------
# dense matrices and the test-only tensor functions

def sparse_matrix(a: Matrix) -> SparseMatrix:
    """The sparse matrix of dense rows: zeros and empty rows dropped."""
    return {i: row for i, row in enumerate(map(sparse, a)) if row}


def dense_parse_matrix(raw: object, dim: int, path: str, memo: dict[str, Scalar]) -> SparseMatrix:
    """A wire matrix field parsed as the loader parsed it before it read
    sparse rows: every cell into dense rows, in order (a row whose cells
    the memo all holds read off it), then `sparse_matrix` once. The
    reference for `catalog._parse_matrix`'s entries and messages."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise CatalogError(f"{path}: expected {dim} rows")
    out: Matrix = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise CatalogError(f"{path}[{r}]: expected {dim} entries")
        try:
            out.append([memo[cell] for cell in row])
        except (KeyError, TypeError):
            out.append([_parse_cell(cell, memo, path, r, c) for c, cell in enumerate(row)])
    return sparse_matrix(out)


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        row_a = a[i]
        row_o = out[i]
        for k in range(inner):
            x = row_a[k]
            if x:
                row_b = b[k]
                for j in range(cols):
                    if row_b[j]:
                        row_o[j] += x * row_b[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in a]


def dot(u: Vector, v: Vector) -> Scalar:
    return sum(x * y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return [x - y for x, y in zip(u, v)]


def vec_scale(u: Vector, s: Scalar) -> Vector:
    return [s * x for x in u]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: Scalar) -> Matrix:
    return [[s * x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a: Matrix) -> Scalar:
    return sum(a[i][i] for i in range(len(a)))


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def invert(a: Matrix) -> Matrix:
    n = len(a)
    augmented = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("matrix not invertible")
    return [row[n:] for row in reduced[:n]]


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def dense_matrix(m: SparseMatrix, n: int) -> Matrix:
    out = zeros(n, n)
    for i, row in m.items():
        for j, x in row.items():
            out[i][j] = x
    return out


def dense_operator(conn: Connection, i: int) -> Matrix:
    """Matrix of nabla_{e_i} acting on coordinate vectors, from the values
    of gamma."""
    op = [[0] * conn.dim for _ in range(conn.dim)]
    for (a, j, k), v in conn_values(conn).items():
        if a == i:
            op[k][j] = v
    return op


def dense_js(h: HyperhermitianStructure) -> tuple[Matrix, Matrix, Matrix]:
    """Dense copies of the structure's sparse J1, J2, J3."""
    return tuple(dense_matrix(j, h.dim) for j in h.j_sparse)


def dense_glnh_membership(m: Matrix, h: HyperhermitianStructure) -> bool:
    """Quaternion-linearity of a dense matrix: commutes with J1, J2, J3."""
    return all(is_zero_matrix(commutator(m, j)) for j in dense_js(h))


def dense_is_g_skew(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))


def bracket_vectors(alg: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the bracket to coordinate vectors."""
    out: Vector = [0] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj or i == j:
                continue
            for k, v in (alg.brackets.get((i, j), {}) if i < j else alg.brackets.get((j, i), {})).items():
                out[k] += xi * yj * (v if i < j else -v)
    return out


def structure_constant(alg: LieAlgebra, i: int, j: int, k: int) -> Scalar:
    """c^k_ij, antisymmetrized in (i, j)."""
    if i == j:
        return 0
    if i < j:
        return alg.brackets.get((i, j), {}).get(k, 0)
    return -alg.brackets.get((j, i), {}).get(k, 0)


def basis_form(dim: int, indices: tuple[int, ...], value: Scalar = 1) -> KForm:
    """The form value * e^{i1} ^ ... ^ e^{ik} for strictly increasing indices."""
    return KForm(dim, len(indices), {tuple(indices): value})


def form_scale(a: KForm, s: Scalar) -> KForm:
    return KForm(a.dim, a.degree, {idx: s * v for idx, v in a.comps.items()})


def form_add(a: KForm, b: KForm) -> KForm:
    """a + b: a's components in its order, then b's new ones in b's order."""
    if (a.dim, a.degree) != (b.dim, b.degree):
        raise ValueError("form shape mismatch")
    comps = dict(a.comps)
    for idx, v in b.comps.items():
        comps[idx] = comps.get(idx, 0) + v
    return KForm(a.dim, a.degree, comps)


def naive_kform_comps(dim: int, degree: int, comps: dict) -> dict[tuple[int, ...], Scalar]:
    """The components a KForm stores, checked one tuple at a time by three
    scans (length, range, order) as the KForm validator did before its one
    pass; a rejected tuple raises ValueError with the validator's message."""
    clean: dict[tuple[int, ...], Scalar] = {}
    for idx, value in comps.items():
        idx = tuple(idx)
        if len(idx) != degree:
            raise ValueError(f"index tuple {idx} has wrong length")
        if any(not 0 <= i < dim for i in idx):
            raise ValueError(f"index tuple {idx} out of range")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple {idx} not strictly increasing")
        if value:
            clean[idx] = value
    return clean


def fundamental_form(j: SignedPermutation) -> KForm:
    """F(X, Y) = g(X, J Y) as a 2-form. In the orthonormal frame
    F(e_x, e_y) = J[x][y], read off J's rows above the diagonal; J must
    be skew, J[y][x] = -J[x][y]."""
    rows = j.rows
    if any(rows[y] != (x, -v) for x, (y, v) in rows.items()):
        raise RuntimeError("fundamental form not antisymmetric; compatibility broken")
    return KForm(len(rows), 2, {(x, y): v for x, (y, v) in sorted(rows.items()) if x < y})


def fundamental_forms(h: HyperhermitianStructure) -> tuple[KForm, KForm, KForm]:
    return tuple(fundamental_form(j) for j in h.permutations)


def naive_quaternionic_check(j_rows: tuple[Matrix, Matrix, Matrix], metric: Matrix) -> list[str]:
    """The quaternion-relation and compatibility violations from dense
    products, in the order and wording of `quaternionic_check`."""
    j1, j2, j3 = j_rows
    violations: list[str] = []
    minus_id = mat_scale(identity(len(metric)), -1)
    for s, j in enumerate(j_rows, 1):
        if not mat_eq(mat_mul(j, j), minus_id):
            violations.append(f"J{s}^2 != -identity")
    if not mat_eq(mat_mul(j1, j2), j3):
        violations.append("J1*J2 != J3")
    if not mat_eq(mat_mul(j2, j1), mat_scale(j3, -1)):
        violations.append("J2*J1 != -J3")
    for s, j in enumerate(j_rows, 1):
        pulled = mat_mul(transpose(j), mat_mul(metric, j))
        if not mat_eq(pulled, metric):
            violations.append(f"metric not J{s}-invariant")
    return violations


def bilinear_pullback(
    b: Callable[[int, int], Scalar], m1: SparseMatrix | None, m2: SparseMatrix | None, dim: int
) -> Matrix:
    """The dense matrix out[x][y] = B(M1 e_x, M2 e_y) of a bilinear form read
    through b(x, y) = B(e_x, e_y), for sparse M_s, None meaning the
    identity: the sum of M1[p][x] * M2[q][y] * b(p, q) over the nonzeros of
    column x of M1 and column y of M2 where b(p, q) is nonzero."""

    def columns(m: SparseMatrix | None) -> list[list[tuple[int, Scalar]]]:
        if m is None:
            return [[(x, 1)] for x in range(dim)]
        cols = sparse_transpose(m)
        return [list(cols.get(x, {}).items()) for x in range(dim)]

    c1, c2 = columns(m1), columns(m2)
    return [
        [sum(u * v * w for p, u in c1[x] for q, v in c2[y] if (w := b(p, q))) for y in range(dim)]
        for x in range(dim)
    ]


def pullback_fundamental_form(metric: Matrix, j: SparseMatrix) -> KForm:
    """F(X, Y) = g(X, J Y) from the dense pullback matrix g J, with the
    compatibility errors of `fundamental_form`."""
    dim = len(metric)
    gj = bilinear_pullback(lambda p, q: metric[p][q], None, j, dim)
    comps: dict[tuple[int, ...], Scalar] = {}
    for i in range(dim):
        if gj[i][i]:
            raise RuntimeError("fundamental form has a diagonal entry; compatibility broken")
        for k in range(i + 1, dim):
            if gj[i][k] != -gj[k][i]:
                raise RuntimeError("fundamental form not antisymmetric; compatibility broken")
            if gj[i][k]:
                comps[(i, k)] = gj[i][k]
    return KForm(dim, 2, comps)


def p_minus(a: KForm, sj: SparseMatrix) -> KForm:
    """Projection of a 3-form onto its (3,0)+(0,3) part for a sparse J:
    (1/4)[a(X,Y,Z) - a(JX,JY,Z) - a(JX,Y,JZ) - a(X,JY,JZ)].
    """
    c, sj = a.cube, row_images(sj)
    mixed = cube_add(
        cube_add(
            matrix_cube_pullback(c, (1, sj, sj, None)), matrix_cube_pullback(c, (1, sj, None, sj))
        ),
        matrix_cube_pullback(c, (1, None, sj, sj)),
    )
    combined = cube_scale(cube_add(c, cube_scale(mixed, -1)), Fraction(1, 4))
    form = cube_to_form(combined, a.dim)
    if form is None:
        raise RuntimeError("projector output not antisymmetric; input was not a form")
    return form


# Mixed-family index triples (i, j, k) of the three-structure type identity
# c(J_i, J_i, .) - c(J_k, J_k, .) - c(J_k, J_i, J_j) - c(J_i, J_k, J_j) = 0,
# which couples the torsion across pairs of complex structures. The
# anti-cyclic orientation holds on the catalog torsions and the cyclic one
# fails exactly (pinned in the tests). On every supported structure the
# single-family identities imply these, so the package checks only those.
MIXED_TRIPLES: tuple[tuple[int, int, int], ...] = ((1, 3, 2), (2, 1, 3), (3, 2, 1))


def mixed_type_residual(c: Cube, h: HyperhermitianStructure, triple: tuple[int, int, int]) -> Cube:
    """The residual cube of the mixed type identity of `triple` for the
    antisymmetric cube c; empty exactly when the identity holds."""
    ji, jj, jk = (row_images(h.j_sparse[x - 1]) for x in triple)
    return matrix_cube_pullback(
        c, (1, ji, ji, None), (-1, jk, jk, None), (-1, jk, ji, jj), (-1, ji, jk, jj)
    )


def cube_map_output(cube: Cube, m: Matrix) -> Cube:
    """Apply M to the vector-valued slot: out(X, Y, .) = M (in(X, Y, .))."""
    return matrix_cube_pullback(cube, (1, None, None, row_images(sparse_matrix(transpose(m)))))


def obata_b_tensor(t_cube: Cube, h: HyperhermitianStructure) -> Cube:
    """General-route difference tensor from the torsion of any connection
    whose operators commute with the three complex structures:

    -4B(X,Y) = T(X,Y) - J1 T(X,J1Y) - J2 T(X,J2Y) - J3 T(X,J3Y)
             + T(J1X,J1Y) + J1 T(J1X,Y) - J2 T(J1X,J3Y) + J3 T(J1X,J2Y).

    Input and output are lowered cubes over the orthonormal frame.
    """
    j1, j2, j3 = dense_js(h)
    s1, s2, s3 = map(row_images, h.j_sparse)
    terms = [
        t_cube,
        cube_scale(cube_map_output(matrix_cube_pullback(t_cube, (1, None, s1, None)), j1), -1),
        cube_scale(cube_map_output(matrix_cube_pullback(t_cube, (1, None, s2, None)), j2), -1),
        cube_scale(cube_map_output(matrix_cube_pullback(t_cube, (1, None, s3, None)), j3), -1),
        matrix_cube_pullback(t_cube, (1, s1, s1, None)),
        cube_map_output(matrix_cube_pullback(t_cube, (1, s1, None, None)), j1),
        cube_scale(cube_map_output(matrix_cube_pullback(t_cube, (1, s1, s3, None)), j2), -1),
        cube_map_output(matrix_cube_pullback(t_cube, (1, s1, s2, None)), j3),
    ]
    total = terms[0]
    for term in terms[1:]:
        total = cube_add(total, term)
    return cube_scale(total, Fraction(-1, 4))


# ---------------------------------------------------------------------------
# matrix references: the J-kernels as the package ran them before every J
# became a signed relabel, for any rational matrix. The package's kernels
# are compared with these on signed permutations; the tests of a rational
# J's contracts run on these.

RowImages = dict[int, tuple[tuple[int, Scalar], ...]]


def row_images(m: SparseMatrix) -> RowImages:
    """M's nonzeros by row, {a: ((x, M[a][x]), ...)}: the images (x, M[a][x])
    that a pullback through M sends an entry with index a to."""
    return {a: tuple(row.items()) for a, row in m.items()}


_IDENTITY_ROWS = row_images({i: {i: 1} for i in range(MAX_DIM)})


def matrix_cube_pullback(cube: Cube, *terms) -> Cube:
    """sum_t f_t * in(M1_t X, M2_t Y, M3_t Z) over the terms (f, M1, M2, M3),
    each M_s as its `row_images` or None for the identity ({} is the zero
    map): an entry in(a, b, c) adds f M1[a][x] M2[b][y] M3[c][z] in(a, b, c)
    at (x, y, z), and the zeros go once at the end."""
    out: Cube = {}
    for f, *maps in terms:
        m1, m2, m3 = (_IDENTITY_ROWS if m is None else m for m in maps)
        for (a, b, c), v in cube.items():
            for x, p in m1.get(a, ()):
                fp = f * p
                for y, q in m2.get(b, ()):
                    fpq = fp * q
                    for z, r in m3.get(c, ()):
                        key = (x, y, z)
                        out[key] = out.get(key, 0) + fpq * r * v
    return {idx: v for idx, v in out.items() if v}


def matrix_j_twist(a: KForm, j: SparseMatrix) -> KForm:
    """-a(JX, JY, JZ) for any rational J: each image of a stored component
    folded onto its sorted index with perm_sign, repeated indices dropped."""
    if a.degree != 3:
        raise ValueError("j_twist requires a 3-form")
    totals: dict[tuple[int, ...], Scalar] = {}
    rj = row_images(j)
    for idx, v in matrix_cube_pullback(a.comps, (-1, rj, rj, rj)).items():
        if sign := perm_sign(idx):
            out = tuple(sorted(idx))
            totals[out] = totals.get(out, 0) + sign * v
    return KForm(a.dim, 3, {out: totals[out] for out in sorted(totals)})


def matrix_j_pullback(b: SparseMatrix, j: SparseMatrix) -> SparseMatrix:
    """B(J ., J .) = J^T B J for any rational J, by sparse products."""
    return sparse_product(sparse_transpose(j), sparse_product(b, j))


def matrix_j_trace(b: SparseMatrix, j: SparseMatrix) -> Scalar:
    """sum_{a,m} J[m][a] * B[a][m], summed over the nonzeros of J and B."""
    return sum(x * v for m, row in j.items() for a, x in row.items() if (v := b.get(a, {}).get(m)))


def matrix_cube_j_trace(cube: Cube, j: SparseMatrix) -> dict[int, Scalar]:
    """The nonzero values of r -> sum_{a,m} cube[(r, a, m)] * J[m][a]."""
    out: dict[int, Scalar] = {}
    for (r, a, m), v in cube.items():
        x = j.get(m, {}).get(a)
        if x:
            out[r] = out.get(r, 0) + v * x
    return {r: v for r, v in out.items() if v}


def matrix_nijenhuis(alg: LieAlgebra, j: SparseMatrix) -> tuple[Cube, KForm | None]:
    """`nijenhuis` for any rational J: the four terms as one pullback table
    of the bracket cube, J^T's rows on the value slot."""
    rj, rjt = row_images(j), row_images(sparse_transpose(j))
    n = matrix_cube_pullback(
        alg.cube, (1, rj, rj, None), (-1, None, None, None), (-1, rj, None, rjt),
        (-1, None, rj, rjt),
    )
    return n, cube_to_form(n, alg.dim)


def naive_cube_pullback(cube: Cube, m1: Matrix, m2: Matrix, m3: Matrix) -> Cube:
    """out(X, Y, Z) = in(M1 X, M2 Y, M3 Z) on dense matrices: every output
    entry sums M1[a][x] M2[b][y] M3[c][z] in(a, b, c), zero cells of the
    matrices included, over the stored entries of the cube."""
    dim = len(m1)
    out: Cube = {}
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                total = sum(m1[a][x] * m2[b][y] * m3[c][z] * v for (a, b, c), v in cube.items())
                if total:
                    out[(x, y, z)] = total
    return out


def difference_tensor_invariance(a: Cube, h: HyperhermitianStructure) -> bool:
    """A(X, J_s Y, J_s Z) = A(X, Y, Z) for s = 1, 2, 3."""
    return all(matrix_cube_pullback(a, (1, None, j, j)) == a for j in map(row_images, h.j_sparse))


def sparse(row: Vector) -> Row:
    """The sparse row {column: value} of a dense row, zeros dropped."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: Row, cols: int) -> Vector:
    """The dense row of a sparse one, zeros filled in."""
    return [row.get(j, 0) for j in range(cols)]


def naive_nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right nullspace read off naive_rref, one vector per free
    column."""
    if not a:
        return []
    reduced, pivots = naive_rref(a)
    cols = len(a[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v: Vector = [0] * cols
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][free]
        basis.append(v)
    return basis


def naive_solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b through naive_rref of the augmented matrix, requiring
    the solution to exist and be unique."""
    cols = len(a[0]) if a else 0
    augmented = [list(row) + [bv] for row, bv in zip(a, b)]
    reduced, pivots = naive_rref(augmented)
    if cols in pivots:
        raise LinAlgError("inconsistent system: no solution")
    if len(pivots) < cols:
        raise LinAlgError(
            f"solution not unique: rank {len(pivots)} < {cols} unknowns"
        )
    x: Vector = [0] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx][cols]
    return x


def naive_wedge_eval(a: KForm, b: KForm, idx: tuple[int, ...]) -> Fraction:
    """(a ^ b)(X_idx) via the full permutation sum divided by p! q!."""
    p, q = a.degree, b.degree
    assert len(idx) == p + q
    total = Fraction(0)
    for sigma in permutations(range(p + q)):
        va = a.evaluate(tuple(idx[s] for s in sigma[:p]))
        if not va:
            continue
        vb = b.evaluate(tuple(idx[s] for s in sigma[p:]))
        if vb:
            total += perm_parity(sigma) * Fraction(va) * Fraction(vb)
    return total / (factorial(p) * factorial(q))


def eval_on_vector(form: KForm, vec: Vector, rest: tuple[int, ...]) -> Fraction:
    """form(vec, e_rest...) by linear expansion of the first slot."""
    total = Fraction(0)
    for m, c in enumerate(vec):
        if c:
            v = form.evaluate((m,) + rest)
            if v:
                total += Fraction(c) * v
    return total


def naive_d_eval(alg: LieAlgebra, a: KForm, idx: tuple[int, ...]) -> Fraction:
    """(da)(e_idx) from the invariant-forms formula with explicit brackets."""
    k = len(idx)
    total = Fraction(0)
    for p in range(k):
        for q in range(p + 1, k):
            basis_p = [1 if r == idx[p] else 0 for r in range(alg.dim)]
            basis_q = [1 if r == idx[q] else 0 for r in range(alg.dim)]
            vec = bracket_vectors(alg, basis_p, basis_q)
            rest = idx[:p] + idx[p + 1 : q] + idx[q + 1 :]
            term = eval_on_vector(a, vec, rest)
            total += term if (p + q) % 2 == 0 else -term
    return total


def naive_ce_differential(alg: LieAlgebra, a: KForm) -> KForm:
    """(da)(X_0..X_k) = sum_{p<q} (-1)^{p+q} a([X_p, X_q], ...rest...),
    evaluated on every (k+1)-subset of the basis."""
    if a.degree >= a.dim:
        raise ValueError("differential of a top-degree form is not stored")
    dim = a.dim
    out: dict[tuple[int, ...], Scalar] = {}
    for idx in combinations(range(dim), a.degree + 1):
        total: Scalar = 0
        for p in range(len(idx)):
            for q in range(p + 1, len(idx)):
                key = (idx[p], idx[q]) if idx[p] < idx[q] else (idx[q], idx[p])
                comps = alg.brackets.get(key, {})
                if not comps:
                    continue
                rest = idx[:p] + idx[p + 1 : q] + idx[q + 1 :]
                inner: Scalar = 0
                for m, c in comps.items():
                    val = a.evaluate((m,) + rest)
                    if val:
                        inner += c * val
                if inner:
                    total += -inner if (p + q) % 2 else inner
        if total:
            out[idx] = total
    return KForm(dim, a.degree + 1, out)


def naive_torsion_cube(conn: Connection, alg: LieAlgebra) -> Cube:
    """t[(i, j, k)] = gamma[(i, j, k)] - gamma[(j, i, k)] - c^k_ij over
    every index triple."""
    dim = conn.dim
    gamma = conn_values(conn)
    out: Cube = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                v = (
                    gamma.get((i, j, k), 0)
                    - gamma.get((j, i, k), 0)
                    - structure_constant(alg, i, j, k)
                )
                if v:
                    out[(i, j, k)] = v
    return out


def naive_koszul(alg: LieAlgebra, i: int, j: int, k: int) -> Fraction:
    """Levi-Civita coefficient for the orthonormal frame:
    2 Gamma_ijk = c^k_ij - c^j_ik - c^i_jk."""
    return Fraction(
        structure_constant(alg, i, j, k)
        - structure_constant(alg, i, k, j)
        - structure_constant(alg, j, k, i),
        2,
    )


def naive_curvature_operator(conn: Connection, alg: LieAlgebra, i: int, j: int) -> Matrix:
    """R(e_i, e_j) = [L_i, L_j] - nabla_{[e_i, e_j]} as an operator matrix."""
    dim = conn.dim
    li, lj = dense_operator(conn, i), dense_operator(conn, j)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for col in range(dim):
        basis = [1 if r == col else 0 for r in range(dim)]
        v1 = mat_vec(li, mat_vec(lj, basis))
        v2 = mat_vec(lj, mat_vec(li, basis))
        bracket = bracket_vectors(
            alg,
            [1 if r == i else 0 for r in range(dim)],
            [1 if r == j else 0 for r in range(dim)],
        )
        v3 = [Fraction(0)] * dim
        for m, c in enumerate(bracket):
            if c:
                lm_col = mat_vec(dense_operator(conn, m), basis)
                v3 = [x + Fraction(c) * y for x, y in zip(v3, lm_col)]
        for row in range(dim):
            out[row][col] = Fraction(v1[row]) - Fraction(v2[row]) - v3[row]
    return out


def naive_connection_operators(conn: Connection) -> list[Matrix]:
    return [dense_operator(conn, i) for i in range(conn.dim)]


def naive_curvature_operators(conn: Connection, alg: LieAlgebra) -> dict[tuple[int, int], Matrix]:
    """R(e_i, e_j) = [L_i, L_j] - L_{[e_i, e_j]} as dense matrices, keys i < j."""
    dim = conn.dim
    ops = naive_connection_operators(conn)
    out: dict[tuple[int, int], Matrix] = {}
    for i, j in combinations(range(dim), 2):
        r = mat_sub(mat_mul(ops[i], ops[j]), mat_mul(ops[j], ops[i]))
        for m, c in (alg.brackets.get((i, j), {})).items():
            if c:
                lm = ops[m]
                r = [
                    [rv - c * lv if lv else rv for rv, lv in zip(rrow, lrow)]
                    for rrow, lrow in zip(r, lm)
                ]
        out[(i, j)] = r
    return out


def naive_flatten(m: Matrix) -> Row:
    """The matrix as one sparse row, entry (i, j) in column i * n + j."""
    return {k: x for k, x in enumerate(chain.from_iterable(m)) if x}


def naive_holonomy_algebra(conn: Connection, alg: LieAlgebra) -> HolonomyAlgebra:
    """Dense closure: every basis element bracketed with every connection
    operator and with every basis element present when it is popped."""
    ops = naive_connection_operators(conn)
    span = RowSpan()
    basis: list[Matrix] = []
    queue: list[Matrix] = []
    for seed in naive_curvature_operators(conn, alg).values():
        if span.add(naive_flatten(seed)):
            basis.append(seed)
            queue.append(seed)
    while queue:
        current = queue.pop()
        candidates = [commutator(op, current) for op in ops]
        candidates.extend(commutator(current, b) for b in basis)
        for cand in candidates:
            if not is_zero_matrix(cand) and span.add(naive_flatten(cand)):
                basis.append(cand)
                queue.append(cand)
    return HolonomyAlgebra(tuple(basis), (1,) * len(basis), span.rank)


def fraction_holonomy_algebra(
    ops: tuple[SparseMatrix, ...], curvature: dict[tuple[int, int], SparseMatrix]
) -> HolonomyAlgebra:
    """The sparse closure on the rational operators' own entries, Fractions
    included: each basis element bracketed once with each connection
    operator; every generator at scale 1."""
    n = len(ops)
    span = RowSpan()
    basis: list[SparseMatrix] = []
    queue: list[SparseMatrix] = []

    def offer(m: SparseMatrix) -> None:
        if m and span.add({i * n + j: x for i, row in m.items() for j, x in row.items()}):
            basis.append(m)
            queue.append(m)

    for seed in curvature.values():
        offer(seed)
    while queue:
        current = queue.pop()
        for op in ops:
            offer(sparse_commutator(op, current))
    return HolonomyAlgebra(tuple(basis), (1,) * len(basis), span.rank)


def naive_preserves_endomorphism(conn: Connection, m: Matrix) -> bool:
    """[L_i, m] = 0 for every dense connection operator L_i."""
    return all(is_zero_matrix(commutator(op, m)) for op in naive_connection_operators(conn))


def naive_bracket_basis(alg: LieAlgebra, i: int, j: int) -> Vector:
    """[e_i, e_j] as a coordinate vector."""
    out: Vector = [0] * alg.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for k, v in alg.brackets.get((i, j), {}).items():
        out[k] = sign * v
    return out


def naive_jacobi_defect(alg: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    basis = [[1 if a == b else 0 for b in range(alg.dim)] for a in range(alg.dim)]
    total: Vector = [0] * alg.dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = naive_bracket_basis(alg, a, b)
        term = bracket_vectors(alg, inner, basis[c])
        total = [t + x for t, x in zip(total, term)]
    return total


def walked_validate_lie_algebra(alg: LieAlgebra) -> tuple[tuple[int, int, int], Vector] | None:
    """First Jacobi violation over the triples that hold a bracketed pair,
    each defect summed into a dense vector of int zeros from brackets
    antisymmetrized per lookup: the result, types included, that
    `validate_lie_algebra` must give."""

    def bracket(i: int, j: int) -> dict[int, Scalar]:
        if i <= j:
            return alg.brackets.get((i, j), {})
        return {k: -v for k, v in alg.brackets.get((j, i), {}).items()}

    triples = {
        tuple(sorted((i, j, k))) for i, j in alg.brackets for k in range(alg.dim) if k not in (i, j)
    }
    for i, j, k in sorted(triples):
        defect: Vector = [0] * alg.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in bracket(a, b).items():
                for l, y in bracket(m, c).items():
                    defect[l] += x * y
        if any(defect):
            return (i, j, k), defect
    return None


def naive_validate_lie_algebra(alg: LieAlgebra) -> tuple[tuple[int, int, int], Vector] | None:
    """First Jacobi violation from dense bracket vectors, or None."""
    for i, j, k in combinations(range(alg.dim), 3):
        defect = naive_jacobi_defect(alg, i, j, k)
        if any(defect):
            return (i, j, k), defect
    return None


def naive_nijenhuis_vec(alg: LieAlgebra, j: Matrix, x: Vector, y: Vector) -> Vector:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on explicit vectors."""
    jx, jy = mat_vec(j, x), mat_vec(j, y)
    t1 = bracket_vectors(alg, jx, jy)
    t2 = mat_vec(j, bracket_vectors(alg, jx, y))
    t3 = mat_vec(j, bracket_vectors(alg, x, jy))
    t4 = bracket_vectors(alg, x, y)
    return [a - b - c - d for a, b, c, d in zip(t1, t2, t3, t4)]


def naive_nijenhuis(alg: LieAlgebra, j: Matrix) -> tuple[Cube, KForm | None]:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on basis pairs.

    Returns the lowered cube n[(i, j, k)] (orthonormal frame) and its 3-form
    reading when totally skew, else None.
    """
    dim = alg.dim
    basis = identity(dim)
    j_cols = [[j[r][c] for r in range(dim)] for c in range(dim)]
    cube: Cube = {}
    for a, b in combinations(range(dim), 2):
        ja, jb = j_cols[a], j_cols[b]
        term = bracket_vectors(alg, ja, jb)
        term = [t - u for t, u in zip(term, mat_vec(j, bracket_vectors(alg, ja, basis[b])))]
        term = [t - u for t, u in zip(term, mat_vec(j, bracket_vectors(alg, basis[a], jb)))]
        term = [t - u for t, u in zip(term, bracket_vectors(alg, basis[a], basis[b]))]
        for k, v in enumerate(term):
            if v:
                cube[(a, b, k)] = v
                cube[(b, a, k)] = -v
    return cube, cube_to_form(cube, dim)


def _minor_det3(m: Matrix, rows: tuple[int, int, int], cols: tuple[int, int, int]) -> Scalar:
    r0, r1, r2 = rows
    c0, c1, c2 = cols
    return (
        m[r0][c0] * (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
        - m[r0][c1] * (m[r1][c0] * m[r2][c2] - m[r1][c2] * m[r2][c0])
        + m[r0][c2] * (m[r1][c0] * m[r2][c1] - m[r1][c1] * m[r2][c0])
    )


def naive_j_twist(a: KForm, j: Matrix) -> KForm:
    """The 3-form (X,Y,Z) -> -a(JX, JY, JZ)."""
    if a.degree != 3:
        raise ValueError("j_twist requires a 3-form")
    comps: dict[tuple[int, ...], Scalar] = {}
    for out_idx in combinations(range(a.dim), 3):
        total: Scalar = 0
        for in_idx, v in a.comps.items():
            d = _minor_det3(j, in_idx, out_idx)
            if d:
                total += v * d
        if total:
            comps[out_idx] = -total
    return KForm(a.dim, 3, comps)


DenseCube = list[list[list[Fraction]]]


def dense_cube(cube: Cube, dim: int) -> DenseCube:
    """The nested-list copy t[i][j][k] of a sparse cube, zeros included."""
    out = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in cube.items():
        out[i][j][k] = v
    return out


def naive_covariant_derivative(conn: Connection, i: int, a: Cube) -> DenseCube:
    """(nabla_{e_i} A)(Y,Z,U) = -A(nabla_i Y, Z, U) - A(Y, nabla_i Z, U)
    - A(Y, Z, nabla_i U), one dense sum per entry; returns a dense cube."""
    dim = conn.dim
    g_i = dense_cube(conn_values(conn), dim)[i]
    a = dense_cube(a, dim)
    out = dense_cube({}, dim)
    for j in range(dim):
        for k in range(dim):
            for l in range(dim):
                total = 0
                for m in range(dim):
                    if g_i[j][m]:
                        total += g_i[j][m] * a[m][k][l]
                    if g_i[k][m]:
                        total += g_i[k][m] * a[j][m][l]
                    if g_i[l][m]:
                        total += g_i[l][m] * a[j][k][m]
                if total:
                    out[j][k][l] = -total
    return out


def dense_curvature(curvature: Curvature, dim: int) -> CurvatureTensor:
    """The nested-list copy r[i][j][k][l] = R(e_i, e_j)[l][k] of the values
    of sparse curvature operators (keys i < j), zeros included."""
    r = [[[[0] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j), op in curvature_values(curvature).items():
        for l, row in op.items():
            for k, v in row.items():
                r[i][j][k][l] = v
                r[j][i][k][l] = -v
    return r


def naive_ricci_package(r: CurvatureTensor, h: HyperhermitianStructure) -> RicciPackage:
    """Every Ricci-type trace as a dense sum over the nested-list curvature."""
    dim = h.dim
    ric = [[sum(r[a][x][y][a] for a in range(dim)) for y in range(dim)] for x in range(dim)]
    rho_comps: dict[tuple[int, ...], Scalar] = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            v = sum(r[x][y][a][a] for a in range(dim))
            if v:
                rho_comps[(x, y)] = v
    rho = KForm(dim, 2, rho_comps)
    rho_s_forms = []
    js = dense_js(h)
    for j in js:
        comps: dict[tuple[int, ...], Scalar] = {}
        for x in range(dim):
            for y in range(x + 1, dim):
                v = sum(
                    r[x][y][a][m] * j[m][a]
                    for a in range(dim)
                    for m in range(dim)
                    if j[m][a] and r[x][y][a][m]
                )
                if v:
                    comps[(x, y)] = Fraction(v, 2)
        rho_s_forms.append(KForm(dim, 2, comps))
    scal = sum(ric[a][a] for a in range(dim))
    scal_s = tuple(
        sum(j[m][a] * ric[m][a] for a in range(dim) for m in range(dim) if j[m][a]) for j in js
    )
    return RicciPackage(sparse_matrix(ric), rho, tuple(rho_s_forms), scal, scal_s, h.permutations)


def naive_ric_j(
    ric: SparseMatrix, h: HyperhermitianStructure
) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Ric(J_s ., J_s .) for s = 1, 2, 3, one dense sum per entry."""
    dim = h.dim
    dense = dense_matrix(ric, dim)
    return tuple(
        sparse_matrix([[_ric_j_pull(dense, j, x, y) for y in range(dim)] for x in range(dim)])
        for j in dense_js(h)
    )


def naive_double_j_trace(form4: KForm, j: Matrix) -> Scalar:
    """sum_{a,b} form4(e_a, J e_a, e_b, J e_b), one evaluation per term."""
    dim = form4.dim
    total: Scalar = 0
    for a in range(dim):
        for r in range(dim):
            if not j[r][a]:
                continue
            for b in range(dim):
                for m in range(dim):
                    if j[m][b]:
                        v = form4.evaluate((a, r, b, m))
                        if v:
                            total += j[r][a] * j[m][b] * v
    return total


def double_j_trace(form4: KForm, j: SparseMatrix) -> Scalar:
    """sum_{a,b} form4(e_a, J e_a, e_b, J e_b), from the stored components of
    form4, each in every signed slot order, and the nonzeros of J."""
    total: Scalar = 0
    for idx, value in form4.comps.items():
        for order, sign in _ORDERINGS_4:
            a, r, b, m = (idx[o] for o in order)
            x, y = j.get(r, {}).get(a), j.get(m, {}).get(b)
            if x and y:
                total += x * y * sign * value
    return total


def naive_curvature_relation(
    r_skew, r_ob, a: Cube, t_cube: Cube, skew_conn: Connection, alg: LieAlgebra
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """R_ob = R + (nabla_X A)_Y - (nabla_Y A)_X + A(T(X,Y)) + [A_X, A_Y] with
    every term summed densely on every quadruple; (ok, first failing one)."""
    dim = alg.dim
    nabla_a = [naive_covariant_derivative(skew_conn, i, a) for i in range(dim)]
    a, t_cube = dense_cube(a, dim), dense_cube(t_cube, dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    torsion_term = sum(
                        t_cube[i][j][m] * a[m][k][l] for m in range(dim) if t_cube[i][j][m]
                    )
                    aa_term = sum(
                        a[j][k][m] * a[i][m][l] - a[i][k][m] * a[j][m][l]
                        for m in range(dim)
                    )
                    rhs = (
                        r_skew[i][j][k][l]
                        + nabla_a[i][j][k][l]
                        - nabla_a[j][i][k][l]
                        + torsion_term
                        + aa_term
                    )
                    if r_ob[i][j][k][l] != rhs:
                        return False, (i, j, k, l)
    return True, None


def naive_commutant_basis(h: HyperhermitianStructure) -> list[Matrix]:
    """Basis of {M : M J_s = J_s M for s = 1,2,3}: one dense equation per
    entry of each commutator, solved with naive_nullspace."""
    dim = h.dim
    rows: list[Vector] = []
    for j in dense_js(h):
        for p in range(dim):
            for q in range(dim):
                row: Vector = [0] * (dim * dim)
                for r in range(dim):
                    if j[r][q]:
                        row[p * dim + r] += j[r][q]
                    if j[p][r]:
                        row[r * dim + q] -= j[p][r]
                if any(row):
                    rows.append(row)
    basis_vectors = naive_nullspace(rows)
    return [
        [[vec[a * dim + b] for b in range(dim)] for a in range(dim)]
        for vec in basis_vectors
    ]


def obata_formula(h: HyperhermitianStructure, alg: LieAlgebra) -> Cube:
    """Obata's explicit torsion-free hypercomplex connection, no solver:
    nabla_X Y = 1/2 ([X,Y] + J1[J1X,Y] - J2[X,J2Y] + J3[J1X,J2Y]) on the
    basis vectors, stored as gamma[(i, j, k)] = (nabla_{e_i} e_j)_k."""
    dim = h.dim
    j1, j2, j3 = dense_js(h)
    basis = identity(dim)
    gamma: Cube = {}
    for i, x in enumerate(basis):
        j1x = mat_vec(j1, x)
        for j, y in enumerate(basis):
            j2y = mat_vec(j2, y)
            terms = (
                bracket_vectors(alg, x, y),
                mat_vec(j1, bracket_vectors(alg, j1x, y)),
                [-v for v in mat_vec(j2, bracket_vectors(alg, x, j2y))],
                mat_vec(j3, bracket_vectors(alg, j1x, j2y)),
            )
            for k in range(dim):
                value = Fraction(sum(term[k] for term in terms), 2)
                if value:
                    gamma[(i, j, k)] = value
    return gamma


def naive_obata_oracle_solver(
    h: HyperhermitianStructure, alg: LieAlgebra
) -> tuple[Connection, SolverCertificate]:
    """The torsion-free quaternion-linear connection from dense equations
    over the naive commutant basis, solved with naive_solve_unique."""
    dim = h.dim
    cbasis = naive_commutant_basis(h)
    d_c = len(cbasis)
    unknowns = dim * d_c
    rows: list[Vector] = []
    rhs: list = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for l in range(dim):
                row: Vector = [0] * unknowns
                for t, c in enumerate(cbasis):
                    if c[l][j]:
                        row[i * d_c + t] += c[l][j]
                    if c[l][i]:
                        row[j * d_c + t] -= c[l][i]
                rows.append(row)
                rhs.append(structure_constant(alg, i, j, l))
    x = naive_solve_unique(rows, rhs)
    gamma: Cube = {}
    for i in range(dim):
        op = [[0] * dim for _ in range(dim)]
        for t, c in enumerate(cbasis):
            coeff = x[i * d_c + t]
            if coeff:
                for a in range(dim):
                    for b in range(dim):
                        if c[a][b]:
                            op[a][b] += coeff * c[a][b]
        for jdx in range(dim):
            for k in range(dim):
                if op[k][jdx]:
                    gamma[(i, jdx, k)] = op[k][jdx]
    certificate = SolverCertificate(
        commutant_dim=d_c,
        unknowns=unknowns,
        equations=len(rows),
        rank=unknowns,
        unique=True,
    )
    return Connection(dim, gamma), certificate


def naive_dt_traces(t: KForm, h: HyperhermitianStructure, alg: LieAlgebra) -> DtTraces:
    """dT trace data with each partial trace P[x][y] = sum over a, r, m of
    J[r][a] J[m][y] dT(e_a, e_r, e_x, e_m), one evaluation per term."""
    dim = h.dim
    dt = ce_differential(alg, t)
    partials: list[Matrix] = []
    for j in dense_js(h):
        p = [[0] * dim for _ in range(dim)]
        for x in range(dim):
            for y in range(dim):
                total = 0
                for a in range(dim):
                    for r in range(dim):
                        if not j[r][a]:
                            continue
                        for m in range(dim):
                            if j[m][y]:
                                v = dt.evaluate((a, r, x, m))
                                if v:
                                    total += j[r][a] * j[m][y] * v
                p[x][y] = total
        partials.append(p)
    coincide = partials[0] == partials[1] == partials[2]
    h_value = Fraction(-sum(partials[0][x][x] for x in range(dim)), 4)
    almost = all(not v for row in partials[0] for v in row)
    return DtTraces(h_value, dt.is_zero(), almost, coincide)


# ---------------------------------------------------------------------------
# the dense J-contractions of the identity suites, read off dense copies of J

def _ric_j_pull(ric: Matrix, j: Matrix, x: int, y: int) -> Scalar:
    """Ric(J X, J Y) on basis vectors."""
    return sum(
        j[p][x] * j[q][y] * ric[p][q]
        for p in range(len(ric))
        if j[p][x]
        for q in range(len(ric))
        if j[q][y]
    )


def naive_lee_form(t: KForm, h: HyperhermitianStructure, alg: LieAlgebra) -> LeeForm:
    """theta(X) = -1/2 sum_a T(J_s X, e_a, J_s e_a), required to agree for
    s = 1, 2, 3. Classification is at the invariant level, where exactness
    of a 1-form means vanishing.
    """
    dim = h.dim
    ct = t.cube
    candidates: list[list[Scalar]] = []
    for s in (1, 2, 3):
        j = dense_js(h)[s - 1]
        # S[r] = sum_{a,m} T(e_r, e_a, e_m) J[m][a]
        contracted = [
            sum(ct.get((r, a, m), 0) * j[m][a] for a in range(dim) for m in range(dim) if j[m][a])
            for r in range(dim)
        ]
        theta_s = [
            Fraction(-sum(j[r][x] * contracted[r] for r in range(dim) if j[r][x]), 2)
            for x in range(dim)
        ]
        candidates.append(theta_s)
    if not (candidates[0] == candidates[1] == candidates[2]):
        raise ValueError("not HKT torsion: the three Lee form candidates differ")
    theta = KForm(dim, 1, {(x,): v for x, v in enumerate(candidates[0]) if v})
    d_theta = ce_differential(alg, theta)
    if theta.is_zero():
        classification = "balanced"
    elif d_theta.is_zero():
        classification = "closed_nonzero"
    else:
        classification = "nonclosed"
    return LeeForm(theta, d_theta, classification)


def naive_obata_identity_suite(
    pkg: RicciPackage, lee: LeeForm, h: HyperhermitianStructure
) -> dict[str, tuple | None]:
    """Exact identity suite tying the torsion-free hypercomplex connection's
    Ricci data to the Lee form. Keys are stable descriptive ids, each mapped
    to its first failing index tuple, or to None when the check holds.
    """
    dim = h.dim
    ric, rho, rho_s = dense_matrix(pkg.ric, dim), pkg.rho, pkg.rho_s
    d_theta = lee.d_theta
    suite: dict[str, tuple | None] = {}

    def first_fail(predicate) -> tuple | None:
        for args in predicate():
            return args
        return None

    def ricci_j_conjugation():
        for s in (1, 2, 3):
            j = dense_js(h)[s - 1]
            for x in range(dim):
                for y in range(dim):
                    lhs = _ric_j_pull(ric, j, x, y) + ric[y][x]
                    rhs = 2 * sum(j[p][x] * rho_s[s - 1].evaluate((p, y)) for p in range(dim) if j[p][x])
                    if lhs != rhs:
                        yield (s, x, y)

    suite["ricci-j-conjugation"] = first_fail(ricci_j_conjugation)

    def ricci_antisym_rho():
        for x in range(dim):
            for y in range(dim):
                if ric[x][y] - ric[y][x] != -rho.evaluate((x, y)):
                    yield (x, y)

    suite["ricci-antisymmetry-vs-rho"] = first_fail(ricci_antisym_rho)

    def ricci_equals_d_lee():
        for x in range(dim):
            for y in range(dim):
                if ric[x][y] != d_theta.evaluate((x, y)):
                    yield (x, y)

    suite["ricci-equals-d-lee"] = first_fail(ricci_equals_d_lee)

    def rho_minus_2_d_lee():
        for x in range(dim):
            for y in range(dim):
                if rho.evaluate((x, y)) != -2 * d_theta.evaluate((x, y)):
                    yield (x, y)

    suite["rho-equals-minus-2-d-lee"] = first_fail(rho_minus_2_d_lee)

    def rho_s_vanish():
        for s in (1, 2, 3):
            if not rho_s[s - 1].is_zero():
                yield (s,)

    suite["rho-s-vanish"] = first_fail(rho_s_vanish)

    def d_lee_j_invariant():
        for s in (1, 2, 3):
            j = dense_js(h)[s - 1]
            for x in range(dim):
                for y in range(x + 1, dim):
                    pulled = sum(
                        j[p][x] * j[q][y] * d_theta.evaluate((p, q))
                        for p in range(dim)
                        if j[p][x]
                        for q in range(dim)
                        if j[q][y]
                    )
                    if pulled != d_theta.evaluate((x, y)):
                        yield (s, x, y)

    suite["d-lee-j-invariant"] = first_fail(d_lee_j_invariant)

    def ricci_j_invariant():
        for s in (1, 2, 3):
            j = dense_js(h)[s - 1]
            for x in range(dim):
                for y in range(dim):
                    if _ric_j_pull(ric, j, x, y) != ric[x][y]:
                        yield (s, x, y)

    suite["ricci-j-invariant"] = first_fail(ricci_j_invariant)

    def scalars_vanish():
        if pkg.scal:
            yield ("scal", pkg.scal)
        for s in (1, 2, 3):
            if pkg.scal_s[s - 1]:
                yield (f"scal_{s}", pkg.scal_s[s - 1])

    suite["scalars-vanish"] = first_fail(scalars_vanish)

    def d_lee_trace_free():
        for s in (1, 2, 3):
            j = dense_js(h)[s - 1]
            total = sum(
                j[m][a] * d_theta.evaluate((a, m))
                for a in range(dim)
                for m in range(dim)
                if j[m][a]
            )
            if total:
                yield (s, total)

    suite["d-lee-trace-free"] = first_fail(d_lee_trace_free)
    return suite


def naive_hkt_obstruction_report(pkg: RicciPackage, h: HyperhermitianStructure) -> ObstructionReport:
    """Necessary conditions on the torsion-free connection's Ricci data for
    a compatible HKT metric to exist. Any failure rules HKT out; passing
    everything remains inconclusive.
    """
    dim = h.dim
    flags: list[str] = []
    ric = dense_matrix(pkg.ric, dim)
    skew = all(ric[x][y] == -ric[y][x] for x in range(dim) for y in range(dim))
    if not skew:
        flags.append("ricci not skew-symmetric")
    else:
        one_one = all(
            _ric_j_pull(ric, dense_js(h)[s - 1], x, y) == ric[x][y]
            for s in (1, 2, 3)
            for x in range(dim)
            for y in range(dim)
        )
        if not one_one:
            flags.append("ricci skew but not (1,1)")
    for s in (1, 2, 3):
        if not pkg.rho_s[s - 1].is_zero():
            flags.append(f"rho_{s} nonzero")
    if pkg.scal or any(pkg.scal_s):
        flags.append("scalar curvature nonzero")
    verdict = "no compatible HKT metric" if flags else "inconclusive"
    return ObstructionReport(tuple(flags), verdict)


def naive_star_traces(
    conn: Connection, alg: LieAlgebra, h: HyperhermitianStructure
) -> list[Scalar]:
    """The three *-traces sum_{a,m} J_s[m][a] rho_s(e_m, e_a) that star_scalar
    compares, with rho_s(e_x, e_y) = 1/2 sum_{l,k} J_s[l][k] R(e_x, e_y)[l][k],
    summed densely over every cell of the dense curvature operators
    (`naive_curvature_operators`) of conn, each an exact Fraction."""
    dim = h.dim
    curvature = naive_curvature_operators(conn, alg)

    def rho(j: Matrix, x: int, y: int) -> Scalar:
        if x == y:
            return 0
        sign, r = (1, curvature[(x, y)]) if x < y else (-1, curvature[(y, x)])
        inner = sum(j[l][k] * r[l][k] for l in range(dim) for k in range(dim) if j[l][k])
        return sign * Fraction(inner, 2)

    return [
        Fraction(sum(j[m][a] * rho(j, m, a) for a in range(dim) for m in range(dim) if j[m][a]))
        for j in dense_js(h)
    ]


def naive_trace_identities(a: Cube, h: HyperhermitianStructure, theta: KForm) -> tuple[str, ...]:
    """The failures of sum_a A(X, e_a, e_a) = -2 theta(X) and
    sum_a A(X, e_a, J_s e_a) = 0, empty when they hold."""
    dim = h.dim
    failures: list[str] = []
    for x in range(dim):
        plain = sum(a.get((x, i, i), 0) for i in range(dim))
        want = -2 * theta.evaluate((x,))
        if plain != want:
            failures.append(f"plain trace at X=e{x}: {plain} != {want}")
    for s in (1, 2, 3):
        j = dense_js(h)[s - 1]
        for x in range(dim):
            twisted = sum(
                a.get((x, i, m), 0) * j[m][i] for i in range(dim) for m in range(dim) if j[m][i]
            )
            if twisted:
                failures.append(f"J{s} trace at X=e{x}: {twisted} != 0")
    return tuple(failures)


def _eval_cube(a: Cube, x: int, u: Vector, v: Vector) -> Scalar:
    return sum(
        uj * vk * a.get((x, j, k), 0)
        for j, uj in enumerate(u)
        if uj
        for k, vk in enumerate(v)
        if vk
    )


def naive_complex_trace_A(a: Cube, h: HyperhermitianStructure, theta: KForm) -> tuple[str, ...]:
    """The failures of the complex-frame trace identities of A over the J1-adapted frame of pairs
    (e_a, J1 e_a), built from the columns of J1; requires J1 a signed
    basis permutation.

    Real part: sum over pairs of A(X,f,f) + A(X,J1f,J1f) = -2 theta(X).
    Imaginary part: sum over pairs of A(X,f,J1f) - A(X,J1f,f) = 0.
    """
    dim = h.dim
    j1 = dense_js(h)[0]
    basis = identity(dim)
    used = [False] * dim
    pairs: list[tuple[Vector, Vector]] = []
    for col in range(dim):
        if used[col]:
            continue
        image = [j1[r][col] for r in range(dim)]
        support = [r for r in range(dim) if image[r]]
        assert len(support) == 1 and image[support[0]] in (1, -1), "J1 is no signed permutation"
        assert support[0] != col and not used[support[0]], "the basis splits into no J1-pairs"
        used[col] = used[support[0]] = True
        pairs.append((basis[col], image))
    failures: list[str] = []
    for x in range(dim):
        real = sum(_eval_cube(a, x, f, f) + _eval_cube(a, x, jf, jf) for f, jf in pairs)
        imag = sum(_eval_cube(a, x, f, jf) - _eval_cube(a, x, jf, f) for f, jf in pairs)
        want = -2 * theta.evaluate((x,))
        if real != want:
            failures.append(f"real part at X=e{x}: {real} != {want}")
        if imag:
            failures.append(f"imaginary part at X=e{x}: {imag} != 0")
    return tuple(failures)


def _block_diag(a: list[list], b: list[list]) -> list[list]:
    da, db = len(a), len(b)
    return [list(row) + ["0"] * db for row in a] + [["0"] * da + list(row) for row in b]


def direct_sum(first: dict, second: dict) -> dict:
    """Wire document of first + second: the second summand's brackets
    shifted by the first's dimension, metric and J_s block-diagonal."""
    shift = first["dim"]
    constants = [list(item) for item in first["structure_constants"]]
    constants += [
        [i + shift, j + shift, k + shift, value]
        for i, j, k, value in second["structure_constants"]
    ]
    doc = {
        "schema_version": first["schema_version"],
        "name": f"{first['name']}+{second['name']}",
        "description": f"direct sum {first['name']} + {second['name']}",
        "n": first["n"] + second["n"],
        "dim": first["dim"] + second["dim"],
        "structure_constants": constants,
        "metric": _block_diag(first["metric"], second["metric"]),
    }
    for key in ("j1", "j2", "j3"):
        doc[key] = _block_diag(first[key], second[key])
    return doc


def cayley_rotated(entry: CatalogEntry) -> dict:
    """The wire document of entry in the rational orthonormal basis given by
    the columns of the Cayley transform Q = (I - S)(I + S)^-1, for the skew
    S with superdiagonal 1/2, 1/3, 1, 1/2, ... J1 is no signed permutation
    of that basis, so its vectors split into no pairs (e_a, J1 e_a); the
    loader brings the document back to a frame of quaternionic blocks."""
    dim = entry.dim
    cycle = (Fraction(1, 2), Fraction(1, 3), 1)
    s = zeros(dim, dim)
    for k in range(dim - 1):
        s[k][k + 1], s[k + 1][k] = cycle[k % 3], -cycle[k % 3]
    eye = identity(dim)
    eye_plus_s = [[e + x for e, x in zip(er, sr)] for er, sr in zip(eye, s)]
    q = mat_mul(mat_sub(eye, s), invert(eye_plus_s))
    # Q is orthogonal: the rows of Q^T are the new basis vectors, Q^-1 = Q^T
    q_t = transpose(q)
    lie = rebase_algebra(entry.lie, sparse_matrix(q_t), sparse_matrix(q_t))
    name, description = f"{entry.name}_cayley", f"{entry.name} in a rotated basis"
    doc = serialize(replace(entry, name=name, description=description, lie=lie, expected={}))
    for key, j in zip(("j1", "j2", "j3"), dense_js(entry.structure)):
        doc[key] = [[format_scalar(x) for x in row] for row in mat_mul(q_t, mat_mul(j, q))]
    return doc


def is_signed_permutation(j: SparseMatrix, dim: int) -> bool:
    """J sends each basis vector to plus or minus another one."""
    return sorted(c for row in j.values() for c in row) == list(range(dim)) and all(
        len(row) == 1 and abs(x) == 1 for row in j.values() for x in row.values()
    )


def j_maps(j: SparseMatrix, dim: int) -> SignedPermutation:
    """One signed permutation's relabels, derived as a structure derives
    them (a structure checks no quaternion relation)."""
    return HyperhermitianStructure(dim, (j, j, j)).permutations[0]


BREAKS = ("none", "sign", "negate", "swap", "free")


def seeded_signed_triple(dim: int, seed: int) -> tuple[str, tuple[SparseMatrix, ...]]:
    """A seeded triple of sparse signed permutations of 0..dim-1 and how it
    was made: the standard structure of H^(dim/4) conjugated by a drawn
    signed permutation P, J -> P J P^-1, which keeps every quaternion
    relation, then one of BREAKS: kept, one entry's sign flipped, one J
    negated, two J's swapped, or one J replaced by a free signed
    permutation."""
    rng = random.Random(seed)
    pi, eps = list(range(dim)), [rng.choice((1, -1)) for _ in range(dim)]
    rng.shuffle(pi)
    js = [
        {pi[y]: {pi[x]: eps[x] * v * eps[y] for x, v in row.items()} for y, row in j.items()}
        for j in _standard_structure(dim // 4).j_sparse
    ]
    kind, s = BREAKS[seed % len(BREAKS)], rng.randrange(3)
    if kind == "sign":
        r = rng.randrange(dim)
        js[s][r] = {c: -x for c, x in js[s][r].items()}
    elif kind == "negate":
        js[s] = {r: {c: -x for c, x in row.items()} for r, row in js[s].items()}
    elif kind == "swap":
        t = (s + rng.randrange(1, 3)) % 3
        js[s], js[t] = js[t], js[s]
    elif kind == "free":
        columns = list(range(dim))
        rng.shuffle(columns)
        js[s] = {r: {columns[r]: rng.choice((1, -1))} for r in range(dim)}
    return kind, tuple(js)


def quaternionic_triples() -> list[tuple[SparseMatrix, SparseMatrix, SparseMatrix]]:
    """Every triple of signed permutations of R^4 that is a quaternionic
    structure: J_s skew with J_s^2 = -1, J1 J2 = J3 = -J2 J1. Each skew J
    with J^2 = -1 pairs the four indices and signs each pair; J1 and J2
    range over them, and J3 is their product."""
    skew = []
    for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        for e, f in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            skew.append({a: {b: e}, b: {a: -e}, c: {d: f}, d: {c: -f}})
    triples = []
    for j1 in skew:
        for j2 in skew:
            j3, j2j1 = sparse_product(j1, j2), sparse_product(j2, j1)
            if j3 in skew and j3 == {i: {k: -x for k, x in row.items()} for i, row in j2j1.items()}:
                triples.append((j1, j2, j3))
    return triples


def seeded_signed_permutation(seed: int, dim: int) -> tuple[Matrix, SignedPermutation]:
    """A seeded signed permutation: its dense matrix and its relabels."""
    rng = random.Random(seed)
    columns, signs = rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)]
    dense = [[signs[r] if c == columns[r] else 0 for c in range(dim)] for r in range(dim)]
    rows = {r: (columns[r], signs[r]) for r in range(dim)}
    return dense, SignedPermutation(rows, {x: (r, e) for r, (x, e) in rows.items()})


# every catalog structure, su3, and seeded signed-permutation triples at
# dims 4, 8 and 16, one per way of BREAKS, so most break a relation
KERNEL_CASES = ALL_NAMES + ("su3",) + tuple(
    f"seeded{dim}-{seed}" for dim in (4, 8, 16) for seed in range(len(BREAKS))
)


def kernel_structure(
    name: str, su3: CatalogEntry
) -> tuple[HyperhermitianStructure, list[LieAlgebra]]:
    """The structure of one of KERNEL_CASES, with its own algebra when it
    has one."""
    if name.startswith("seeded"):
        dim, seed = map(int, name.removeprefix("seeded").split("-"))
        return HyperhermitianStructure(dim, seeded_signed_triple(dim, seed)[1]), []
    entry = su3 if name == "su3" else builtin_by_name()[name]
    return entry.structure, [entry.lie]


def standard_document(name: str, js: tuple[SparseMatrix, ...]) -> dict:
    """An abelian wire document with the identity metric and these J's."""
    dim = max(js[0]) + 1
    rows = [dense_matrix(j, dim) for j in js]
    doc: dict = {
        "schema_version": "1",
        "name": name,
        "description": "seeded signed-permutation triple",
        "n": dim // 4,
        "dim": dim,
        "structure_constants": [],
        "metric": [["1" if r == c else "0" for c in range(dim)] for r in range(dim)],
    }
    for s, j in enumerate(rows, 1):
        doc[f"j{s}"] = [[str(x) for x in row] for row in j]
    return doc


def parsed_wire(doc: dict) -> tuple[BracketTable, tuple[SparseMatrix, SparseMatrix, SparseMatrix]]:
    """The brackets (keys i < j) and the sparse J's of a wire document, each
    value parsed from its cell."""
    brackets: BracketTable = {}
    for i, j, k, v in doc["structure_constants"]:
        value = parse_scalar(v)
        brackets.setdefault((min(i, j), max(i, j)), {})[k] = value if i < j else -value
    js = tuple(
        sparse_matrix([[parse_scalar(cell) for cell in row] for row in doc[f"j{s}"]])
        for s in (1, 2, 3)
    )
    return brackets, js


def naive_four_squares(q: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The first (a, b, c, d), a >= b >= c >= d >= 0, with a^2 + b^2 + c^2 +
    d^2 = q in descending lexicographic order, by plain enumeration of the
    parts of pr over r, q = p/r in lowest terms."""
    q = Fraction(q)
    r = q.denominator
    n = q.numerator * r
    for a in range(isqrt(n), -1, -1):
        for b in range(min(a, isqrt(n - a * a)), -1, -1):
            for c in range(min(b, isqrt(n - a * a - b * b)), -1, -1):
                rest = n - a * a - b * b - c * c
                d = isqrt(rest)
                if d <= c and d * d == rest:
                    return tuple(Fraction(x, r) for x in (a, b, c, d))
    raise AssertionError(f"no four squares sum to {q}")


def naive_quaternionic_frame(metric: Matrix, js: tuple[Matrix, Matrix, Matrix]) -> list[Vector]:
    """The loader's frame from dense products: Gram-Schmidt over e_0, e_1,
    ..., where each vector v left after the projection brings in the block
    u = (a + b J1 + c J2 + d J3) v, J1 u, J2 u, J3 u, with (a, b, c, d)
    the `naive_four_squares` of 1/g(v, v); each frame vector is made positive
    at its highest nonzero index and the frame is sorted by that index."""
    dim = len(metric)
    frame: list[Vector] = []
    for k in range(dim):
        v: Vector = [int(i == k) for i in range(dim)]
        for f in frame:
            v = vec_sub(v, vec_scale(f, dot(mat_vec(metric, f), v)))
        if not any(v):
            continue
        coefficients = naive_four_squares(Fraction(1) / dot(mat_vec(metric, v), v))
        images = [v] + [mat_vec(j, v) for j in js]
        u = [sum(x * y for x, y in zip(coefficients, column)) for column in zip(*images)]
        for f in [u] + [mat_vec(j, u) for j in js]:
            top = max(i for i, x in enumerate(f) if x)
            frame.append(f if f[top] > 0 else vec_scale(f, -1))
    return sorted(frame, key=lambda f: max(i for i, x in enumerate(f) if x))


def with_diagonal_metric(entry: CatalogEntry, diagonal: tuple[str, str]) -> dict:
    """The wire document of `entry` under the diagonal metric with entries
    diagonal[0] on the first half of the basis and diagonal[1] on the second."""
    doc = serialize(entry)
    dim = entry.dim
    doc["metric"] = [
        [diagonal[2 * r // dim] if r == c else "0" for c in range(dim)] for r in range(dim)
    ]
    return doc


def load_document(doc: dict, directory: Path) -> CatalogEntry:
    """doc written to `directory` and loaded back through the catalog loader."""
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load(path)


def direct_sum_entry(first: CatalogEntry, second: CatalogEntry, directory: Path) -> CatalogEntry:
    """first + second, written as a wire document to `directory` and loaded
    back through the catalog loader."""
    return load_document(direct_sum(serialize(first), serialize(second)), directory)


# ---------------------------------------------------------------------------
# integer-scaled objects: their rational values, their canonical form, and
# the Fraction implementations they replaced, kept as references


def rational(cube: Cube, scale: int) -> Cube:
    """The values cube / scale, entry by entry."""
    return {idx: Fraction(v, scale) for idx, v in cube.items()}


def conn_values(conn: Connection) -> Cube:
    return rational(conn.gamma, conn.scale)


def scaled_values(a: Scaled) -> Cube:
    return rational(a.entries, a.scale)


def matrix_values(m: SparseMatrix, scale: int) -> SparseMatrix:
    return {i: {j: Fraction(x, scale) for j, x in row.items()} for i, row in m.items()}


def curvature_values(curvature: Curvature) -> dict[tuple[int, int], SparseMatrix]:
    return {key: matrix_values(op, curvature.scale) for key, op in curvature.entries.items()}


def generator_values(hol: HolonomyAlgebra) -> tuple[SparseMatrix, ...]:
    return tuple(matrix_values(g, s) for g, s in zip(hol.generators, hol.scales))


def is_canonical(values: Iterable[Scalar], scale: int) -> bool:
    """Every entry an int, scale a positive int, and the gcd of the scale
    and all entries 1: the least scale that makes every entry an int."""
    values = list(values)
    return (
        all(type(v) is int for v in values)
        and type(scale) is int
        and scale >= 1
        and gcd(scale, *values) == 1
    )


def matrix_entries(m: SparseMatrix) -> list[Scalar]:
    return [x for row in m.values() for x in row.values()]


def curvature_is_canonical(curvature: Curvature) -> bool:
    entries = [x for op in curvature.entries.values() for x in matrix_entries(op)]
    return is_canonical(entries, curvature.scale)


def fraction_levi_civita(alg: LieAlgebra) -> Cube:
    """The Koszul sum with each coefficient a Fraction(twice, 2)."""
    twice: dict[tuple[int, int, int], Scalar] = defaultdict(int)
    for (a, b), comps in alg.brackets.items():
        for k, v in comps.items():
            for key, sign in (
                ((a, b, k), 1), ((b, a, k), -1), ((k, a, b), -1),
                ((k, b, a), 1), ((b, k, a), 1), ((a, k, b), -1),
            ):
                twice[key] += sign * v
    return {key: Fraction(v, 2) for key, v in sorted(twice.items()) if v}


def fraction_bismut_connection(t: KForm, lc: Cube) -> Cube:
    """Levi-Civita coefficients plus half the torsion, in Fractions."""
    return cube_add(lc, cube_scale(t.cube, Fraction(1, 2)))


def fraction_difference_tensor(t: KForm, h: HyperhermitianStructure) -> Cube:
    """-1/2 of the four torsion pullbacks, in Fractions."""
    ct = t.cube
    j1, j2, j3 = map(row_images, h.j_sparse)
    total = matrix_cube_pullback(
        ct, (1, None, j1, j1), (1, j1, j1, None), (1, None, j3, j3), (1, j1, j3, j2)
    )
    return cube_scale(total, Fraction(-1, 2))


def solve_unique(rows: list[Row], cols: int) -> tuple[Row, int, int]:
    """Solve a x = b by `RowSpan` elimination, requiring the solution to
    exist and be unique: the reference for `linalg.solve_pairs`.

    Each sparse row holds one equation over columns 0..cols-1, with its
    right-hand side in column `cols`. Returns the nonzero entries of
    scale * x, all int, the least such scale and the rank of the system.
    """
    span = RowSpan()
    for row in rows:
        span.add(row)
    if cols in span._rows:
        raise LinAlgError("inconsistent system: no solution")
    if span.rank < cols:
        raise LinAlgError(f"solution not unique: rank {span.rank} < {cols} unknowns")
    held = [(pivot, row[cols], row[pivot]) for pivot, row in span._rows.items() if cols in row]
    scale = lcm(*[d for _, _, d in held])
    g = gcd(scale, *[v * (scale // d) for _, v, d in held])
    return {pivot: v * (scale // d) // g for pivot, v, d in held}, scale // g, span.rank


def fraction_solve_unique(rows: list[Row], cols: int) -> tuple[Row, int]:
    """solve_unique with a Fraction read off per solved entry."""
    span = RowSpan()
    for row in rows:
        span.add(row)
    if cols in span._rows:
        raise LinAlgError("inconsistent system: no solution")
    if span.rank < cols:
        raise LinAlgError(f"solution not unique: rank {span.rank} < {cols} unknowns")
    x = {pivot: Fraction(row[cols], row[pivot]) for pivot, row in span._rows.items() if cols in row}
    return x, span.rank


def rowspan_obata_oracle_solver(
    h: HyperhermitianStructure, alg: LieAlgebra
) -> tuple[Connection, SolverCertificate]:
    """`obata.obata_oracle_solver` with its system solved by `RowSpan`
    elimination (`solve_unique`) in place of the signed-graph walk."""
    dim = h.dim
    cbasis = commutant_basis(h)
    d_c = len(cbasis)
    unknowns = dim * d_c
    owner = {
        (a, b): (t, v) for t, c in enumerate(cbasis) for a, row in c.items() for b, v in row.items()
    }
    rows: list[Row] = []
    for i, j in combinations(range(dim), 2):
        bracket = alg.brackets.get((i, j), {})
        for l in range(dim):
            (t, v), (u, w) = owner[(l, j)], owner[(l, i)]
            row: Row = {i * d_c + t: v, j * d_c + u: -w}
            if l in bracket:
                row[unknowns] = bracket[l]
            rows.append(row)
    x, scale, rank = solve_unique(rows, unknowns)
    gamma = {
        (i, b, a): x[i * d_c + t] * v
        for (a, b), (t, v) in owner.items()
        for i in range(dim)
        if i * d_c + t in x
    }
    certificate = SolverCertificate(
        commutant_dim=d_c, unknowns=unknowns, equations=len(rows), rank=rank, unique=True
    )
    return Connection(dim, gamma, scale), certificate


def whole_graph_solve_pairs(
    adjacent: list[list[tuple[int, int, int]]], rhs: dict[int, tuple[int, int, int, Scalar]]
) -> tuple[Row, int, int]:
    """`linalg.solve_pairs` on one listed graph whose every component is
    sign-walked: the whole-graph reference for its walk of one class per
    shape.

    The unique x with x_p + s x_q = b_e for each equation e of a signed
    graph, as ints over the least scale, and the rank: unknowns minus the
    balanced components (Zaslavsky 1982).

    The graph holds signs only: adjacent[p] lists each equation at the
    unknown p once as (q, s, e), parallel edges included. The right-hand
    side is sparse: rhs[e] = (p, q, s, b) for each equation with b != 0,
    every other b being 0. A sign-only walk covers every component and
    counts the balanced ones. With b scaled to even ints, a second walk,
    only over the components holding a nonzero b, balanced ones included
    (an inconsistent system is reported as such, whatever its rank), puts
    each unknown at sign * y + offset in its root y; a closing edge checks
    the offsets or, where its signs add, sets or checks y. Every other
    unknown is 0: with b = 0 throughout, every offset is 0 and a closing
    edge whose signs add reads twice * y = 0."""
    cols = len(adjacent)
    scale = 2 * lcm(*{b.denominator for _, _, _, b in rhs.values()})
    sign, balanced = [0] * cols, 0  # sign 0: not reached yet
    for root in (r for r in range(cols) if not sign[r]):  # read after each walk
        sign[root], component, unbalanced = 1, [root], False
        for p in component:  # the walk appends what it reaches
            sp = sign[p]
            for q, s, _ in adjacent[p]:
                if not sign[q]:
                    sign[q] = -s * sp
                    component.append(q)
                elif sp + s * sign[q]:
                    unbalanced = True
        balanced += not unbalanced  # an isolated unknown's root is free too
    at: dict[int, dict[int, int]] = {}  # unknown -> {equation: b as read from it}
    for e, (p, q, s, b) in rhs.items():
        b = b.numerator * (scale // b.denominator)
        at.setdefault(p, {})[e] = b
        at.setdefault(q, {})[e] = s * b  # x_q + s x_p = s b
    x: Row = {}
    placed: dict[int, tuple[int, int]] = {}  # unknown -> (sign, offset) in its root
    for root in (r for r in at if r not in placed):
        placed[root], component, y = (1, 0), [root], None
        for p in component:
            (sp, op), here = placed[p], at.get(p, {})
            for q, s, e in adjacent[p]:
                b = here.get(e, 0)
                if q not in placed:
                    placed[q] = -s * sp, s * (b - op)
                    component.append(q)
                    continue
                sq, oq = placed[q]
                twice, rest = sp + s * sq, b - op - s * oq
                if twice and y is None:  # the signs add: twice * y = rest
                    y = rest // twice
                if twice * (y or 0) != rest:
                    raise LinAlgError("inconsistent system: no solution")
        if y is not None:
            x.update((p, v) for p in component if (v := placed[p][0] * y + placed[p][1]))
    if balanced:
        raise LinAlgError(f"solution not unique: rank {cols - balanced} < {cols} unknowns")
    g = gcd(scale, *x.values())
    return {p: v // g for p, v in x.items()}, scale // g, cols


def whole_graph_obata_oracle_solver(
    h: HyperhermitianStructure, alg: LieAlgebra
) -> tuple[Connection, SolverCertificate]:
    """`obata.obata_oracle_solver` with its whole signed graph listed and
    every component sign-walked (`whole_graph_solve_pairs`): the reference
    for the solver's walk of one class per key.

    Solve directly for the torsion-free connection with quaternion-linear
    operators. Each operator is constrained to the commutant of the three
    complex structures; torsion-freeness then becomes a linear system whose
    unique solvability certifies the connection's uniqueness.

    Unknown i * d_c + t is the coefficient of the t-th commutant basis
    element c_t in the operator of e_i. Equation (i < j, l) is the e_l
    component of Gamma_i e_j - Gamma_j e_i = [e_i, e_j], one edge
    v x[i, t] - w x[j, u] = c^l_ij for the elements c_t and c_u holding the
    cells (l, j) and (l, i), v = c_t[l][j] and w = c_u[l][i]. The edges,
    signs -v w, come from the J's alone; c^l_ij, times v, is the
    right-hand side, given only where it is nonzero. The solution, int over
    one scale, times the int basis gives the connection on ints.
    """
    dim = h.dim
    cbasis = commutant_basis(h)
    d_c = len(cbasis)
    unknowns = dim * d_c
    # each cell (l, j) lies in exactly one element c_t: columns[j][l] = (t, c_t[l][j])
    columns: list[list[tuple[int, int]]] = [[(0, 0)] * dim for _ in range(dim)]
    for t, c in enumerate(cbasis):
        for l, row in c.items():
            for j, v in row.items():
                columns[j][l] = (t, v)
    # the graph is the J's alone; equation (i, j, l) is numbered (i * dim + j) * dim + l
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in range(unknowns)]
    for i in range(dim):
        for j in range(i + 1, dim):
            pairs = enumerate(zip(columns[j], columns[i]), (i * dim + j) * dim)
            for e, ((t, v), (u, w)) in pairs:
                p, q, s = i * d_c + t, j * d_c + u, -v * w
                adjacent[p].append((q, s, e))
                adjacent[q].append((p, s, e))
    # the brackets are the right-hand side, nonzero only at their nonzero c^l_ij
    rhs: dict[int, tuple[int, int, int, Scalar]] = {}
    for (i, j), bracket in alg.brackets.items():
        for l, c in bracket.items():
            (t, v), (u, w) = columns[j][l], columns[i][l]
            rhs[(i * dim + j) * dim + l] = (i * d_c + t, j * d_c + u, -v * w, v * c)
    try:
        x, scale, rank = whole_graph_solve_pairs(adjacent, rhs)
    except LinAlgError as exc:
        if "inconsistent" in str(exc):
            raise ValueError(
                "not hypercomplex: no torsion-free connection preserves all three"
                " complex structures"
            ) from exc
        raise ValueError(f"torsion-free hypercomplex system: {exc}") from exc
    # scale * Gamma_i[a][b] = x[i * d_c + t] c_t[a][b], stored as gamma[(i, b, a)]
    gamma = {
        (i, b, a): y * v
        for p, y in sorted(x.items())
        for i, t in [divmod(p, d_c)]
        for a, row in cbasis[t].items()
        for b, v in row.items()
    }
    certificate = SolverCertificate(
        commutant_dim=d_c,
        unknowns=unknowns,
        equations=dim * (dim - 1) // 2 * dim,
        rank=rank,
        unique=True,
    )
    return Connection(dim, gamma, scale), certificate


def fraction_obata_oracle_solver(h: HyperhermitianStructure, alg: LieAlgebra) -> Cube:
    """The solver route's coefficients, summed from Fraction solutions."""
    dim = h.dim
    cbasis = commutant_basis(h)
    d_c = len(cbasis)
    unknowns = dim * d_c
    support = [[(a, b, x) for a, row in c.items() for b, x in row.items()] for c in cbasis]
    by_entry: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for t, entries in enumerate(support):
        for a, b, x in entries:
            by_entry[(a, b)].append((t, x))
    rows: list[Row] = []
    for i, j in combinations(range(dim), 2):
        bracket = alg.brackets.get((i, j), {})
        for l in range(dim):
            row: Row = {i * d_c + t: x for t, x in by_entry[(l, j)]}
            for t, x in by_entry[(l, i)]:
                row[j * d_c + t] = -x
            if l in bracket:
                row[unknowns] = bracket[l]
            rows.append(row)
    x, _ = fraction_solve_unique(rows, unknowns)
    sums: Cube = {}
    for col, coeff in x.items():
        i, t = divmod(col, d_c)
        for a, b, value in support[t]:
            sums[(i, b, a)] = sums.get((i, b, a), 0) + coeff * value
    return {idx: sums[idx] for idx in sorted(sums) if sums[idx]}


def fraction_torsion_cube(gamma: Cube, alg: LieAlgebra) -> Cube:
    """gamma[(i, j, k)] - gamma[(j, i, k)] - c^k_ij on rational coefficients."""
    out: dict[tuple[int, int, int], Scalar] = defaultdict(int)
    for (i, j, k), v in gamma.items():
        out[(i, j, k)] += v
        out[(j, i, k)] -= v
    for (i, j), comps in alg.brackets.items():
        for k, c in comps.items():
            out[(i, j, k)] -= c
            out[(j, i, k)] += c
    return {key: v for key, v in sorted(out.items()) if v}


def fraction_operators(gamma: Cube, dim: int) -> tuple[SparseMatrix, ...]:
    """The rational operators L_i[k][j] = gamma[(i, j, k)]."""
    ops: tuple[SparseMatrix, ...] = tuple({} for _ in range(dim))
    for (i, j, k), v in gamma.items():
        ops[i].setdefault(k, {})[j] = v
    return ops


def fraction_curvature_operators(
    gamma: Cube, alg: LieAlgebra
) -> dict[tuple[int, int], SparseMatrix]:
    """[L_i, L_j] - sum_m c^m_ij L_m on the rational operators."""
    ops = fraction_operators(gamma, alg.dim)
    out: dict[tuple[int, int], SparseMatrix] = {}
    for i, j in combinations(range(alg.dim), 2):
        r = sparse_commutator(ops[i], ops[j])
        for m, c in alg.brackets.get((i, j), {}).items():
            sparse_subtract(r, c, ops[m])
        out[(i, j)] = r
    return out
