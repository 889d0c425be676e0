"""Torsion-free hypercomplex (Obata) connection.

Two independent construction routes:

* from the skew-torsion connection of an HKT structure via the explicit
  difference tensor A built out of the torsion, and
* a linear-system solver that imposes torsion-freeness on connections whose
  operators lie in gl(n, H), the commutant of the complex structures,
  written down from the signed-permutation J's; its rank certifies
  uniqueness. Each equation holds two unknowns, with coefficients +-1: a
  signed graph, which depends on the J's alone. The brackets enter only
  as a sparse right-hand side, one entry per nonzero structure constant
  (`linalg.solve_pairs`).

Plus the trace identities tying A to the Lee form (each trace is
`tensors.cube_j_trace` of A, by the identity or by a J), and their
complex-frame form, whose real and imaginary parts are the plain and the
J1 trace, so no frame is built.
A and both connections are int over one scale each (`tensors.Scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Scalar
from .hyperhermitian import HyperhermitianStructure, bismut_connection, glnh_membership
from .invariant import Connection, LieAlgebra, levi_civita, torsion_cube
from .linalg import LinAlgError, SparseMatrix, solve_pairs
from .tensors import IDENTITY, KForm, Scaled, cube_add, cube_j_trace, cube_pullback, cube_scale
from .tensors import integer_scaled, row_images


def difference_tensor(t: KForm, h: HyperhermitianStructure) -> Scaled:
    """Lowered difference A between the torsion-free hypercomplex connection
    and the skew-torsion one, expressed through the torsion alone:

    2A(X,Y,Z) = -T(X,J1Y,J1Z) - T(J1X,J1Y,Z) - T(X,J3Y,J3Z) - T(J1X,J3Y,J2Z).
    """
    j1, j2, j3 = map(row_images, h.j_sparse)
    twice = cube_pullback(
        t.cube, (-1, None, j1, j1), (-1, j1, j1, None), (-1, None, j3, j3), (-1, j1, j3, j2)
    )
    return integer_scaled(twice, 2)


def commutant_basis(h: HyperhermitianStructure) -> list[SparseMatrix]:
    """Integer sparse-matrix basis of gl(n, H) = {M : M J_s = J_s M, s = 1, 2, 3},
    read off the signed permutations J_s e_x = eps_s(x) e_{sigma_s(x)}
    (`h.permutations`).

    M commutes with J_s exactly when M[sigma_s(a)][sigma_s(b)] =
    eps_s(a) eps_s(b) M[a][b], so a cell and its images under J1, J2, J3,
    four cells, span one element. Walking the cells backwards builds each
    orbit once, from its first unvisited cell: its last cell a * dim + b,
    with 1 there. In the order of those cells this is the reduced-echelon
    nullspace basis.
    """
    basis: list[SparseMatrix] = []
    seen: set[tuple[int, int]] = set()
    for a in reversed(range(h.dim)):
        for b in reversed(range(h.dim)):
            if (a, b) in seen:
                continue
            m: SparseMatrix = {a: {b: 1}}
            for image in h.permutations:
                (p, x), (q, y) = image[a], image[b]
                m.setdefault(p, {})[q] = 1 if x == y else -1  # eps_s(a) eps_s(b), an int
            seen.update((p, q) for p, row in m.items() for q in row)
            basis.append(m)
    return basis[::-1]


@dataclass(frozen=True)
class SolverCertificate:
    commutant_dim: int
    unknowns: int
    equations: int
    rank: int
    unique: bool


def obata_oracle_solver(
    h: HyperhermitianStructure, alg: LieAlgebra
) -> tuple[Connection, SolverCertificate]:
    """Solve directly for the torsion-free connection with quaternion-linear
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
        x, scale, rank = solve_pairs(adjacent, rhs)
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


def obata_connection(
    h: HyperhermitianStructure,
    alg: LieAlgebra,
    hkt_torsion: KForm | None = None,
) -> Connection:
    """The unique torsion-free connection preserving J1, J2, J3.

    With an HKT torsion available the connection is assembled as the
    skew-torsion connection plus the difference tensor; otherwise the linear
    solver is used. Postconditions (zero torsion, parallel J_s) are verified
    exactly either way.
    """
    if hkt_torsion is not None:
        skew = bismut_connection(hkt_torsion, levi_civita(alg))
        return obata_from_difference(skew, difference_tensor(hkt_torsion, h), h, alg)
    conn, _ = obata_oracle_solver(h, alg)
    return _verified(conn, h, alg)


def obata_from_difference(
    skew: Connection, a: Scaled, h: HyperhermitianStructure, alg: LieAlgebra
) -> Connection:
    """The skew-torsion connection plus the difference tensor A, summed on
    ints over the product of their scales, with the torsion-free
    hypercomplex postconditions verified exactly."""
    gamma = cube_add(cube_scale(skew.gamma, a.scale), cube_scale(a.entries, skew.scale))
    return _verified(Connection(h.dim, gamma, skew.scale * a.scale), h, alg)


def _verified(conn: Connection, h: HyperhermitianStructure, alg: LieAlgebra) -> Connection:
    if torsion_cube(conn, alg):
        raise RuntimeError("constructed connection has torsion; internal defect")
    if not all(glnh_membership(op, h) for op in conn.operators):
        raise RuntimeError("constructed connection does not preserve J1, J2, J3; internal defect")
    return conn


def trace_identities(
    a: Scaled, h: HyperhermitianStructure, theta: KForm
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The failures of the trace identities of A in a real frame and in a
    complex one, each tuple empty when its identities hold.

    Real frame: sum_a A(X, e_a, e_a) = -2 theta(X) and
    sum_a A(X, e_a, J_s e_a) = 0. Over any orthonormal frame of pairs
    (f, J1 f) the complex trace has the plain trace as its real part and
    the J1 trace as its imaginary part, both frame-independent, so the
    complex identities read the same numbers: real part -2 theta(X),
    imaginary part 0. Each trace is summed on A's ints by `cube_j_trace`,
    the plain one as the trace by the identity, then divided once.
    """
    dim, cube, scale = h.dim, a.entries, a.scale
    plains, *twisted = (cube_j_trace(cube, m) for m in (IDENTITY, *h.j_sparse))
    failures: list[str] = []
    complex_failures: list[str] = []
    for x in range(dim):
        plain = Fraction(plains.get(x, 0), scale)
        want = -2 * theta.evaluate((x,))
        if plain != want:
            failures.append(f"plain trace at X=e{x}: {plain} != {want}")
            complex_failures.append(f"real part at X=e{x}: {plain} != {want}")
        if x in twisted[0]:
            imaginary = Fraction(twisted[0][x], scale)
            complex_failures.append(f"imaginary part at X=e{x}: {imaginary} != 0")
    for s, traces in enumerate(twisted, 1):
        for x, value in sorted(traces.items()):
            failures.append(f"J{s} trace at X=e{x}: {Fraction(value, scale)} != 0")
    return tuple(failures), tuple(complex_failures)
