"""Holonomy Lie algebra of an invariant connection and the classification
of the structure.

The algebra is generated by the curvature operators and closed under
brackets with the connection operators only (Kostant's description of the
holonomy algebra of an invariant connection); rank growth is tracked
exactly by a `RowSpan` over the flattened entries. The closure works on
sparse matrices ({row: {column: value}}, no zero stored) with the one
kernel `linalg.sparse_commutator`, on the int operators of the connection
and the curvature, so the brackets and the rank growth run on Python
ints; a nonzero integer factor leaves the span unchanged. Each generator
is an int matrix with its least scale beside it, and the membership tests
read the int matrix: quaternion-linear (`hyperhermitian.glnh_membership`,
commutes with the sparse J1, J2, J3), metric-skew, and additionally
real-trace-free for the special quaternionic algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import Scalar
from .hyperhermitian import HyperhermitianStructure, glnh_membership
from .invariant import Connection, Curvature
from .linalg import RowSpan, SparseMatrix, sparse_commutator, sparse_trace


@dataclass(frozen=True)
class HolonomyAlgebra:
    """Generator k is generators[k] / scales[k], int over its least scale."""

    generators: tuple[SparseMatrix, ...]
    scales: tuple[int, ...]
    dim: int


def holonomy_algebra(conn: Connection, curvature: Curvature) -> HolonomyAlgebra:
    """Smallest space h containing the curvature operators and closed under
    commutators with the connection operators L_k; `curvature` must be
    `curvature_operators(conn, alg)`. Each basis element is bracketed once
    with each L_k, `dim * hol_dim` commutators in all, and the generators
    come back in the order they entered the basis.

    The closure runs on ints: a basis element m over scale t gives
    [ops_k, m] over s t, with L_k = ops_k / s; each element enters the basis
    divided by the gcd of its entries and its scale.

    h is closed under its own commutators too: for A in h the Jacobi
    identity gives, as R(e_i, e_j) = [L_i, L_j] - sum_m c^m_ij L_m,
    [R(e_i, e_j), A] = [L_i, [L_j, A]] - [L_j, [L_i, A]] - sum_m c^m_ij [L_m, A]
    in h, and induction on the length of the ad(L) word that builds an
    element of h from a seed gives [h, h] in h.
    """
    n, ops, s = conn.dim, conn.operators, conn.scale
    span = RowSpan(n * n)
    basis: list[tuple[SparseMatrix, int]] = []  # (scale * generator, scale)
    queue: list[tuple[SparseMatrix, int]] = []

    def offer(m: SparseMatrix, scale: int) -> None:
        if m and span.add({i * n + j: x for i, row in m.items() for j, x in row.items()}):
            g = gcd(scale, *(x for row in m.values() for x in row.values()))
            m = {i: {j: x // g for j, x in row.items()} for i, row in m.items()}
            basis.append((m, scale // g))
            queue.append(basis[-1])

    for seed in curvature.entries.values():
        offer(seed, curvature.scale)
    while queue:
        current, scale = queue.pop()
        for op in ops:
            offer(sparse_commutator(op, current), s * scale)
    generators, scales = zip(*basis) if basis else ((), ())
    return HolonomyAlgebra(generators, scales, span.rank)


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
    records the first violating generator and its trace, None for a member.
    """
    first: tuple[int, str, Scalar | None] | None = None
    all_ql = True
    all_tf = True
    for idx, (gen, scale) in enumerate(zip(hol.generators, hol.scales)):
        if not glnh_membership(gen, h):
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
    hkt_ok: bool,
    torsion_zero: bool | None,
    theta_zero: bool | None,
    d_theta_zero: bool | None,
    strong: bool | None,
    almost_strong: bool | None,
    holonomy_dim: int,
    ricci_zero: bool,
    generators_trace_free: bool,
    obstruction_verdict: str,
) -> StructureVerdict:
    """Final verdict record. The consistency chain
    balanced => closed Lee form => vanishing Ricci => trace-free generators
    is asserted; a violation is a build-stopping engine defect.
    """
    if not hkt_ok:
        return StructureVerdict(
            False, holonomy_dim=holonomy_dim, obstruction_verdict=obstruction_verdict
        )
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
