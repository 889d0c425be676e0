"""Slow, definition-level reference implementations used only as oracles.

Everything here is written straight from the defining formulas with full
permutation sums and explicit vector expansions, deliberately ignoring the
sparsity tricks of the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from hktlab.invariant import Connection, LieAlgebra, bracket_vectors, structure_constant
from hktlab.linalg import Matrix, Vector, mat_vec
from hktlab.tensors import Cube, KForm

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


def naive_det(a: Matrix) -> Fraction:
    """Leibniz formula: signed sum over all permutations."""
    n = len(a)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        term = Fraction(perm_parity(sigma))
        for i in range(n):
            term *= a[i][sigma[i]]
        total += term
    return total


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
    li, lj = conn.operator(i), conn.operator(j)
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
                lm_col = mat_vec(conn.operator(m), basis)
                v3 = [x + Fraction(c) * y for x, y in zip(v3, lm_col)]
        for row in range(dim):
            out[row][col] = Fraction(v1[row]) - Fraction(v2[row]) - v3[row]
    return out


def naive_nijenhuis_vec(alg: LieAlgebra, j: Matrix, x: Vector, y: Vector) -> Vector:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on explicit vectors."""
    jx, jy = mat_vec(j, x), mat_vec(j, y)
    t1 = bracket_vectors(alg, jx, jy)
    t2 = mat_vec(j, bracket_vectors(alg, jx, y))
    t3 = mat_vec(j, bracket_vectors(alg, x, jy))
    t4 = bracket_vectors(alg, x, y)
    return [a - b - c - d for a, b, c, d in zip(t1, t2, t3, t4)]


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
    g_i = dense_cube(conn.gamma, dim)[i]
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
