"""Torsion-free hypercomplex (Obata) connection.

Two independent construction routes:

* from the skew-torsion connection of an HKT structure via the explicit
  difference tensor A built out of the torsion, and
* a linear-system solver that imposes torsion-freeness on connections whose
  operators lie in gl(n, H), the commutant of the complex structures,
  written down from the signed-permutation J's; its rank certifies
  uniqueness. Each equation holds two unknowns, with coefficients +-1: a
  signed graph, which depends on the J's alone. It splits into classes,
  one per line and pair of lines, and the rank walks one class per
  J-type key. The brackets enter only as a sparse right-hand side, one
  entry per nonzero structure constant, and the solution walks only the
  components they reach (`linalg.solve_pairs`).

Plus the trace identities tying A to the Lee form (each trace is
`tensors.cube_j_trace` of A, by the identity or by a J), and their
complex-frame form, whose real and imaginary parts are the plain and the
J1 trace, so no frame is built.
A and both connections are int over one scale each (`tensors.Scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exact import Scalar
from .hyperhermitian import HyperhermitianStructure, bismut_connection, glnh_membership
from .invariant import Connection, LieAlgebra, levi_civita, torsion_cube
from .linalg import LinAlgError, SparseMatrix, solve_pairs
from .tensors import IDENTITY, KForm, Scaled, cube_add, cube_j_trace, cube_pullback, cube_scale
from .tensors import integer_scaled


def difference_tensor(t: KForm, h: HyperhermitianStructure) -> Scaled:
    """Lowered difference A between the torsion-free hypercomplex connection
    and the skew-torsion one, expressed through the torsion alone:

    2A(X,Y,Z) = -T(X,J1Y,J1Z) - T(J1X,J1Y,Z) - T(X,J3Y,J3Z) - T(J1X,J3Y,J2Z).
    """
    j1, j2, j3 = (j.rows for j in h.permutations)
    twice = cube_pullback(
        t.cube, (-1, None, j1, j1), (-1, j1, j1, None), (-1, None, j3, j3), (-1, j1, j3, j2)
    )
    return integer_scaled(twice, 2)


def commutant_basis(h: HyperhermitianStructure) -> list[SparseMatrix]:
    """Integer sparse-matrix basis of gl(n, H) = {M : M J_s = J_s M, s = 1, 2, 3},
    read off the signed permutations J_s e_x = eps_s(x) e_{sigma_s(x)},
    (sigma_s(x), eps_s(x)) = cols[x] of `h.permutations`.

    M commutes with J_s exactly when M[sigma_s(a)][sigma_s(b)] =
    eps_s(a) eps_s(b) M[a][b], so a cell and its images under J1, J2, J3,
    four cells, span one element. Walking the cells backwards builds each
    orbit once, from its first unvisited cell: its last cell a * dim + b,
    with 1 there. In the order of those cells this is the reduced-echelon
    nullspace basis.
    """
    dim = h.dim
    basis: list[SparseMatrix] = []
    seen = bytearray(dim * dim)  # cell (p, q) at p * dim + q
    for a in reversed(range(dim)):
        images = [j.cols[a] for j in h.permutations]
        for b in reversed(range(dim)):
            if seen[a * dim + b]:
                continue
            m: SparseMatrix = {a: {b: 1}}
            for (p, x), j in zip(images, h.permutations):
                q, y = j.cols[b]
                m.setdefault(p, {})[q] = 1 if x == y else -1  # eps_s(a) eps_s(b), an int
                seen[p * dim + q] = 1
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
    right-hand side, given only where it is nonzero.

    No edge leaves a class (`_classes`), and classes of one key have one
    balanced count, so the rank walks one class per key, its edges listed
    in one pass. The solution walk reads each unknown's edges off the
    cells of its element, only on the components that hold a bracket. The
    solution, int over one scale, times the int basis gives the
    connection on ints.
    """
    dim = h.dim
    cbasis = commutant_basis(h)
    d_c = len(cbasis)
    # each cell (l, j) lies in exactly one element c_t: columns[j][l] = (t, c_t[l][j])
    columns: list[list[tuple[int, int]]] = [[(0, 0)] * dim for _ in range(dim)]
    cells: list[list[tuple[int, int, int, int]]] = []  # cells[t]: each (l, j, j * d_c, c_t[l][j])
    for t, c in enumerate(cbasis):
        cells.append([(l, j, j * d_c, v) for l, row in c.items() for j, v in row.items()])
        for l, j, _, v in cells[t]:
            columns[j][l] = (t, v)
    # equation (i, j, l), i < j, is numbered (i * dim + j) * dim + l
    listed: dict[int, list[tuple[int, int, int]]] = {}  # the walked classes' edges, read first

    def neighbours(p: int) -> list[tuple[int, int, int]]:
        if p in listed:
            return listed[p]
        i, t = divmod(p, d_c)
        column = columns[i]
        return [
            (jd + u, -v * w, ((i * dim + j if i < j else j * dim + i) * dim + l))
            for l, j, jd, v in cells[t]
            if j != i
            for u, w in [column[l]]
        ]

    lines, keys = _classes(h)
    walked: list[tuple[dict[int, list[tuple[int, int, int]]], int]] = []
    for (big, a, b), copies in keys.items():
        # the class (L; {A, B}), its edges listed at both ends; each unknown
        # has one, as the cells of an element hold four distinct columns
        graph: dict[int, list[tuple[int, int, int]]] = {}
        for i in lines[a]:
            column_i = columns[i]
            for j in lines[b]:
                if a != b or i < j:
                    column_j, e = columns[j], (i * dim + j if i < j else j * dim + i) * dim
                    for l in lines[big]:
                        (t, v), (u, w) = column_j[l], column_i[l]
                        p, q, s = i * d_c + t, j * d_c + u, -v * w
                        graph.setdefault(p, []).append((q, s, e + l))
                        graph.setdefault(q, []).append((p, s, e + l))
        listed.update(graph)
        walked.append((graph, copies))
    # the brackets are the right-hand side, nonzero only at their nonzero c^l_ij
    rhs: dict[int, tuple[int, int, int, Scalar]] = {}
    for (i, j), bracket in alg.brackets.items():
        for l, c in bracket.items():
            (t, v), (u, w) = columns[j][l], columns[i][l]
            rhs[(i * dim + j) * dim + l] = (i * d_c + t, j * d_c + u, -v * w, c if v > 0 else -c)
    try:
        x, scale, rank = solve_pairs(neighbours, rhs, walked)
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
        for a, b, _, v in cells[t]
    }
    certificate = SolverCertificate(
        commutant_dim=d_c,
        unknowns=dim * d_c,
        equations=dim * (dim - 1) // 2 * dim,
        rank=rank,
        unique=True,
    )
    return Connection(dim, gamma, scale), certificate


def _classes(
    h: HyperhermitianStructure,
) -> tuple[list[list[int]], dict[tuple[int, int, int], int]]:
    """The lines, and one class of the torsion-free system per key, (L, A, B)
    with A <= B, with the number of classes that share its key.

    The lines are the orbits of sigma_1, sigma_2, sigma_3, quaternionic
    4-sets, and each c_t lies in the cells of two lines, L x M. The class
    (L; {A, B}) holds the unknowns (i, t) with i in A and c_t in L x B,
    and those with i in B and c_t in L x A. An edge from (i, t), through a
    cell (l, j) of c_t, ends at (j, u) with c_u holding the cell (l, i), so
    no edge leaves a class. Up to relabelling and the signs of the
    elements, a class's signed graph is fixed by its key: the J's on L, A
    and B as local signed permutations of their sorted members (the line's
    type), and whether A = B. So is its balanced count.
    """
    lines: list[list[int]] = []
    seen: set[int] = set()
    for x in range(h.dim):
        if x not in seen:
            lines.append(sorted({x, *(j.cols[x][0] for j in h.permutations)}))
            seen.update(lines[-1])
    named: dict[tuple[tuple[int, Scalar], ...], int] = {}  # each distinct type, numbered
    types = []
    for line in lines:
        local = {x: k for k, x in enumerate(line)}
        signed = tuple((local[j.cols[x][0]], j.cols[x][1]) for j in h.permutations for x in line)
        types.append(named.setdefault(signed, len(named)))
    first: dict[tuple[int, int, int, bool], tuple[int, int, int]] = {}  # key -> its first class
    copies: dict[tuple[int, int, int], int] = {}
    for big, a, b in product(range(len(lines)), repeat=3):
        if a <= b:
            walked = first.setdefault((types[big], types[a], types[b], a == b), (big, a, b))
            copies[walked] = copies.get(walked, 0) + 1
    return lines, copies


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
    plains, *twisted = (cube_j_trace(cube, m) for m in (IDENTITY, *h.permutations))
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
