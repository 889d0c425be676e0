"""Torsion-free hypercomplex (Obata) connection.

Two independent construction routes:

* from the skew-torsion connection of an HKT structure via the explicit
  difference tensor A built out of the torsion, and
* a linear-system solver that imposes torsion-freeness on connections whose
  operators lie in the commutant of the complex structures (an integer
  sparse-matrix basis); its rank certifies uniqueness. The equations are
  integer sparse rows read off the basis nonzeros.

Plus the trace identities tying A to the Lee form (the twisted ones are
`tensors.cube_j_trace` of A), and their complex-frame form, whose real
and imaginary parts are the plain and the J1 trace, so no frame is built.
A and both connections are int over one scale each (`tensors.Scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyperhermitian import HyperhermitianStructure, bismut_connection, glnh_membership
from .invariant import Connection, LieAlgebra, levi_civita, torsion_cube
from .linalg import (
    LinAlgError,
    Row,
    SparseMatrix,
    nullspace,
    solve_unique,
    sparse_transpose,
)
from .tensors import KForm, Scaled, cube_add, cube_j_trace, cube_pullback, cube_scale
from .tensors import form_to_cube, integer_scaled


def difference_tensor(t: KForm, h: HyperhermitianStructure) -> Scaled:
    """Lowered difference A between the torsion-free hypercomplex connection
    and the skew-torsion one, expressed through the torsion alone:

    2A(X,Y,Z) = -T(X,J1Y,J1Z) - T(J1X,J1Y,Z) - T(X,J3Y,J3Z) - T(J1X,J3Y,J2Z).
    """
    ct = form_to_cube(t)
    j1, j2, j3 = h.j_sparse
    total = cube_add(
        cube_add(cube_pullback(ct, None, j1, j1), cube_pullback(ct, j1, j1, None)),
        cube_add(cube_pullback(ct, None, j3, j3), cube_pullback(ct, j1, j3, j2)),
    )
    return integer_scaled(cube_scale(total, -1), 2)


def commutant_basis(h: HyperhermitianStructure) -> list[SparseMatrix]:
    """Integer sparse-matrix basis of {M : M J_s = J_s M for s = 1,2,3}.

    Entry (p, q) of M J_s - J_s M is one sparse equation over the unknowns
    M[a][b] (column a * dim + b), for J1 and J2 only: requires J3 = J1 J2,
    which `quaternionic_check` enforces at load, so the nullspace is the
    same. Each nullspace vector is made int once (`tensors.integer_scaled`).
    """
    dim = h.dim
    rows: list[Row] = []
    for j in h.j_sparse[:2]:
        columns = sparse_transpose(j)
        for p in range(dim):
            for q in range(dim):
                row: Row = {p * dim + r: x for r, x in columns.get(q, {}).items()}
                for r, x in j.get(p, {}).items():
                    row[r * dim + q] = row.get(r * dim + q, 0) - x
                rows.append({col: x for col, x in row.items() if x})
    basis: list[SparseMatrix] = []
    for vec in nullspace(rows, dim * dim):
        m: SparseMatrix = {}
        for col, x in integer_scaled(vec).entries.items():
            m.setdefault(col // dim, {})[col % dim] = x
        basis.append(m)
    return basis


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
    component of Gamma_i e_j - Gamma_j e_i = [e_i, e_j], one sparse row of
    integer coefficients c_t[l][j] and -c_t[l][i], with the structure
    constant in the right-hand-side column. The solution, int over one
    scale, is summed with the int basis on ints.
    """
    dim = h.dim
    cbasis = commutant_basis(h)
    d_c = len(cbasis)
    unknowns = dim * d_c
    # t -> [(l, j, c_t[l][j])] and (l, j) -> [(t, c_t[l][j])], nonzeros only
    support = [[(a, b, x) for a, row in c.items() for b, x in row.items()] for c in cbasis]
    by_entry: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t, entries in enumerate(support):
        for a, b, x in entries:
            by_entry.setdefault((a, b), []).append((t, x))
    rows: list[Row] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            bracket = alg.brackets.get((i, j), {})
            for l in range(dim):
                # the two blocks of unknowns (i and j) never share a column
                row: Row = {i * d_c + t: x for t, x in by_entry.get((l, j), ())}
                for t, x in by_entry.get((l, i), ()):
                    row[j * d_c + t] = -x
                if l in bracket:
                    row[unknowns] = bracket[l]
                rows.append(row)
    try:
        x, scale, rank = solve_unique(rows, unknowns)
    except LinAlgError as exc:
        if "inconsistent" in str(exc):
            raise ValueError(
                "not hypercomplex: no torsion-free connection preserves all three"
                " complex structures"
            ) from exc
        raise ValueError(f"torsion-free hypercomplex system: {exc}") from exc
    # scale * Gamma_i = sum_t x[i * d_c + t] c_t, stored as gamma[(i, j, k)] = Gamma_i[k][j]
    sums: dict[tuple[int, int, int], int] = {}
    for col, coeff in x.items():
        i, t = divmod(col, d_c)
        for a, b, value in support[t]:
            sums[(i, b, a)] = sums.get((i, b, a), 0) + coeff * value
    gamma = {idx: sums[idx] for idx in sorted(sums) if sums[idx]}
    certificate = SolverCertificate(
        commutant_dim=d_c, unknowns=unknowns, equations=len(rows), rank=rank, unique=True
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


@dataclass(frozen=True)
class TraceReport:
    ok: bool
    failures: tuple[str, ...] = ()


def trace_identities(
    a: Scaled, h: HyperhermitianStructure, theta: KForm
) -> tuple[TraceReport, TraceReport]:
    """The trace identities of A in a real frame and in a complex one.

    Real frame: sum_a A(X, e_a, e_a) = -2 theta(X) and
    sum_a A(X, e_a, J_s e_a) = 0. Over any orthonormal frame of pairs
    (f, J1 f) the complex trace has the plain trace as its real part and
    the J1 trace as its imaginary part, both frame-independent, so the
    complex report reads the same numbers: real part -2 theta(X),
    imaginary part 0. Each trace is summed on A's ints, then divided once.
    """
    dim, cube, scale = h.dim, a.entries, a.scale
    twisted = [cube_j_trace(cube, j) for j in h.j_sparse]
    failures: list[str] = []
    complex_failures: list[str] = []
    for x in range(dim):
        plain = Fraction(sum(cube.get((x, i, i), 0) for i in range(dim)), scale)
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
    return (
        TraceReport(ok=not failures, failures=tuple(failures)),
        TraceReport(ok=not complex_failures, failures=tuple(complex_failures)),
    )
