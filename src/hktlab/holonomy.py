"""Holonomy Lie algebra of an invariant connection and the classification
of the structure.

The algebra is generated by the curvature operators and closed under
brackets with the connection operators only (Kostant's description of the
holonomy algebra of an invariant connection); rank growth is tracked
exactly by a `RowSpan`. The closure keeps its basis as the flat int rows
{i * n + j: x} that `RowSpan.add` reads, so no bracket builds, prunes or
flattens a matrix: [L_k, m] is summed from the images [L_k, E_ab] of m's
cells, each built on first use from L_k's column view and rows and kept
for the rest of the call, and a bracket whose products vanish by support
(`linalg.support`) is skipped. Seeds that span every matrix on the
cells they hold are closed, with no bracket formed, when the supports of
the connection operators keep those cells held. When every connection
operator is skew (a metric connection, such as Levi-Civita or the
skew-torsion one), the holonomy lies in so(n), and a row holds only the
entries above the diagonal, the cells i < j; any other connection keeps
all n^2 cells. It runs on the int operators of the connection and the
curvature, so the brackets and the rank growth run on Python ints; a
nonzero integer factor leaves the span unchanged. Each generator is an
int matrix with its least scale beside it, and the membership tests read
the int matrix: metric-skew, and `slnh_membership`, the one quaternionic
test of every closure, whose certificate records both quaternion-linearity
(`hyperhermitian.glnh_membership`, commutes with J1, J2, J3, read as
signed permutations) and zero real trace, the special quaternionic
algebra. `classify` gives the verdict of an HKT structure; one that is not
HKT keeps `StructureVerdict`'s defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import Scalar
from .hyperhermitian import HyperhermitianStructure, glnh_membership
from .invariant import Connection, Curvature
from .linalg import Row, RowSpan, SparseMatrix, sparse_trace, sparse_transpose, support


@dataclass(frozen=True)
class HolonomyAlgebra:
    """Generator k is generators[k] / scales[k], int over its least scale."""

    generators: tuple[SparseMatrix, ...]
    scales: tuple[int, ...]
    dim: int


def holonomy_algebra(conn: Connection, curvature: Curvature) -> HolonomyAlgebra:
    """Smallest space h containing the curvature operators and closed under
    commutators with the connection operators L_k; `curvature` must be
    `curvature_operators(conn, alg)`, whose stored operators, all nonzero,
    are the seeds; the closure stage, `analyze.holonomy_closure`, the one
    package caller, passes exactly that. Each basis element is bracketed
    once with each L_k whose products with it can be nonzero, and the
    generators come back in the order they entered the basis.

    The closure runs on ints: a basis element m over scale t gives
    [ops_k, m] over s t, with L_k = ops_k / s; each element enters the basis
    divided by the gcd of its entries and its scale. Basis elements are flat
    rows, entry (i, j) at column i * n + j, and [ops_k, m] is the sum over
    m's cells of m_ab [ops_k, E_ab] = m_ab (sum_i ops_k[i][a] E_ib -
    sum_j ops_k[b][j] E_aj). When every ops_k is skew, m is skew too and is
    kept by its entries with i < j, m = sum_(a < b) m_ab (E_ab - E_ba); the
    image of cell (a, b) is then the part of [ops_k, E_ab - E_ba] above the
    diagonal, a term y E_ij of [ops_k, E_ab] landing at (i, j) or as -y at
    (j, i), as [ops_k, E_ba] is the transpose of [ops_k, E_ab]. Reading a
    skew matrix off its upper cells is linear and one to one, so the span
    grows at the same offers, and the gcd is the same. Those cell images are
    memoised per k for this call only, built once the first element is
    queued, unless the seeds settle the closure: when their rank is the
    number of cells their rows hold, they span every matrix on those cells,
    closed exactly when each held (a, b) has (i, b) held for i in into[a]
    and (a, j) for j in out_of[b], the rows of column a and the columns of
    row b in the support of some L_k. Those cells of [L_k, E_ab] meet only
    at (a, b), so no term cancels; a skew cell stands for its mirror, and
    the diagonal of a skew image is zero. Every later offer would then be
    rejected, so the queue is emptied and the generators are the seeds
    either way. The bracket is skipped when the columns of ops_k miss the
    rows of m and the columns of m miss the rows of ops_k: both products
    are then zero, and a zero row never enlarges the span. The generators
    become sparse matrices once, at the end, a skew one with its mirrored
    entries restored.

    h is closed under its own commutators too: for A in h the Jacobi
    identity gives, as R(e_i, e_j) = [L_i, L_j] - sum_m c^m_ij L_m,
    [R(e_i, e_j), A] = [L_i, [L_j, A]] - [L_j, [L_i, A]] - sum_m c^m_ij [L_m, A]
    in h, and induction on the length of the ad(L) word that builds an
    element of h from a seed gives [h, h] in h.
    """
    n, ops, s = conn.dim, conn.operators, conn.scale
    skew = all(map(is_g_skew, ops))
    span = RowSpan()
    basis: list[tuple[Row, int]] = []  # (scale * generator as a flat row, scale)
    queue: list[tuple[Row, int]] = []

    def offer(row: Row, scale: int) -> None:
        if row and span.add(row):
            g = gcd(scale, *row.values())
            basis.append(({c: x // g for c, x in row.items()}, scale // g))
            queue.append(basis[-1])

    for seed in curvature.entries.values():
        cells = {i * n + j: x for i, row in seed.items() for j, x in row.items()}
        offer({c: x for c, x in cells.items() if not skew or c // n < c % n}, curvature.scale)
    held = set().union(*(row for row, _ in basis))
    if queue and span.rank == len(held):  # whole cells: closed when the images stay on them
        into, out_of = [set() for _ in range(n)], [set() for _ in range(n)]
        for op in ops:
            for i, row in op.items():
                out_of[i].update(row)
                for j in row:
                    into[j].add(i)
        reached = {i * n + c % n for c in held for i in into[c // n]}
        reached.update(c // n * n + j for c in held for j in out_of[c % n])
        if skew:  # a cell stands for its mirror, and the diagonal is zero
            held |= {c % n * n + c // n for c in held} | set(range(0, n * n, n + 1))
        if reached <= held:
            queue.clear()
    if queue:
        columns = [sparse_transpose(op) for op in ops]
        supports = [support(op) for op in ops]
        images: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in ops]
    while queue:
        current, scale = queue.pop()
        rows = cols = 0
        for c in current:
            rows |= 1 << c // n
            cols |= 1 << c % n
        for k, (op_rows, op_cols) in enumerate(supports):
            if not (op_cols & rows or cols & op_rows):
                continue
            memo, acc = images[k], {}
            for c, x in current.items():
                image = memo.get(c)
                if image is None:
                    a, b = divmod(c, n)
                    cell = {i * n + b: y for i, y in columns[k].get(a, {}).items()}
                    for j, y in ops[k].get(b, {}).items():
                        cell[a * n + j] = cell.get(a * n + j, 0) - y
                    if skew:  # less its transpose: y at (i, j) is -y at (j, i)
                        upper: Row = {}
                        for t, y in cell.items():
                            i, j = divmod(t, n)
                            if i != j:
                                t, y = (t, y) if i < j else (j * n + i, -y)
                                upper[t] = upper.get(t, 0) + y
                        cell = upper
                    image = memo[c] = tuple((t, y) for t, y in cell.items() if y)
                for t, y in image:
                    acc[t] = acc.get(t, 0) + x * y
            offer({t: x for t, x in acc.items() if x}, s * scale)
    generators: list[SparseMatrix] = []
    for row, _ in basis:
        if skew:
            row = {**row, **{c % n * n + c // n: -x for c, x in row.items()}}
        m: SparseMatrix = {}
        for c in sorted(row):
            m.setdefault(c // n, {})[c % n] = row[c]
        generators.append(m)
    return HolonomyAlgebra(tuple(generators), tuple(t for _, t in basis), span.rank)


def is_g_skew(m: SparseMatrix) -> bool:
    """Skewness in the orthonormal frame (membership in the metric's
    orthogonal Lie algebra): m[j][i] = -m[i][j] at every nonzero m[i][j]."""
    return all(m.get(j, {}).get(i, 0) == -x for i, row in m.items() for j, x in row.items())


@dataclass(frozen=True)
class SlCertificate:
    generator_count: int
    all_quaternion_linear: bool
    all_trace_free: bool
    first_violation: tuple[int, str, Scalar | None] | None


def slnh_membership(hol: HolonomyAlgebra, h: HyperhermitianStructure) -> SlCertificate:
    """Special quaternionic membership of the holonomy algebra: every
    generator quaternion-linear with zero real trace. The certificate
    records the first violating generator and its trace, None for a member;
    quaternion-linearity is tested up to the first generator that fails it.
    """
    first: tuple[int, str, Scalar | None] | None = None
    all_ql = True
    all_tf = True
    for idx, (gen, scale) in enumerate(zip(hol.generators, hol.scales)):
        if all_ql and not glnh_membership(gen, h):
            all_ql = False
            if first is None:
                first = (idx, "not quaternion-linear", None)
        tr = sparse_trace(gen)
        if tr:
            all_tf = False
            if first is None:
                first = (idx, "nonzero trace", Fraction(tr, scale))
    return SlCertificate(len(hol.generators), all_ql, all_tf, first)


@dataclass(frozen=True)
class StructureVerdict:
    hkt: bool  # each later field defaults to its value for a structure that is not HKT
    hyperkahler: bool | None = None
    balanced: bool | None = None
    d_theta_zero: bool | None = None
    sl_tier: str = "not_applicable"  # invariant_SL | restricted_SL | not_SL | not_applicable
    hopf_caveat: bool = False
    strong: bool | None = None
    almost_strong: bool | None = None
    holonomy_dim: int = 0
    obstruction_verdict: str = "inconclusive"
    caveat_text: str | None = None


HOPF_CAVEAT_TEXT = (
    "restricted holonomy only: a closed nonvanishing Lee form gives the"
    " special quaternionic reduction locally, but quotients in this class"
    " need not carry it globally"
)


def classify(
    torsion_zero: bool,
    theta_zero: bool,
    d_theta_zero: bool,
    strong: bool,
    almost_strong: bool,
    holonomy_dim: int,
    ricci_zero: bool,
    generators_trace_free: bool,
    obstruction_verdict: str,
) -> StructureVerdict:
    """Final verdict record of an HKT structure; a structure that is not HKT
    has `StructureVerdict`'s defaults. The consistency chain
    balanced => closed Lee form => vanishing Ricci => trace-free generators
    is asserted; a violation is a build-stopping engine defect.
    """
    chain = (
        (not theta_zero or d_theta_zero, "balanced structure with non-closed Lee form"),
        (not d_theta_zero or ricci_zero, "closed Lee form with nonvanishing Ricci"),
        (not ricci_zero or generators_trace_free, "vanishing Ricci with traceful holonomy generator"),
    )
    for ok, message in chain:
        if not ok:
            raise RuntimeError(f"classification consistency violation: {message}")
    if theta_zero:
        tier = "invariant_SL"
    elif d_theta_zero:
        tier = "restricted_SL"
    else:
        tier = "not_SL"
    caveat = bool(d_theta_zero and not theta_zero)
    return StructureVerdict(
        hkt=True,
        hyperkahler=torsion_zero,
        balanced=theta_zero,
        d_theta_zero=d_theta_zero,
        sl_tier=tier,
        hopf_caveat=caveat,
        strong=strong,
        almost_strong=almost_strong,
        holonomy_dim=holonomy_dim,
        obstruction_verdict=obstruction_verdict,
        caveat_text=HOPF_CAVEAT_TEXT if caveat else None,
    )
