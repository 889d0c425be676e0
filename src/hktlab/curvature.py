"""Ricci-type curvature data, the Lee form, and the identity suites.

Curvature arrives as the nonzero int operators of
`invariant.curvature_operators` over one scale, with the lowered curvature
r[i][j][k][l] = R(e_i, e_j)[l][k]; every trace below is summed from their
nonzeros on ints and divided by the scale once. Every bilinear form here
(Ric, the Ricci 2-forms and d(theta) through `tensors.form_to_matrix`,
the dT partial traces) is a sparse matrix with B[x][y] = B(e_x, e_y).
Each J is read as its signed permutation (`h.permutations`), so every
J-contraction is a relabel with a sign: the J-traces through
`tensors.j_trace` and `tensors.cube_j_trace`, Ric(J., J.) and
d(theta)(J., J.) through `tensors.j_pullback`, each Ric pullback and
Ric^T built once in the `RicciPackage`, on first read. rho and the rho_s are
summed in one loop (`_traced_forms`). The *-scalar builds no curvature: it
reads the Levi-Civita operators at the J_s-pairs alone. The double
J1-trace of dT that the *-scalar identities use is -4h, read off
`dt_traces`.
An identity check returns its evidence: the first counterexample, the
least nonzero cell of a sparse residual, or `None` when it holds, so
reports can point at exact basis tuples.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import lcm

from .exact import Scalar
from .hyperhermitian import HyperhermitianStructure
from .invariant import (
    Connection,
    Curvature,
    LieAlgebra,
    ce_differential,
    covariant_derivative_cube,
)
from .linalg import SparseMatrix, sparse_subtract, sparse_trace, sparse_transpose
from .tensors import IDENTITY, Cube, KForm, Scaled, SignedPermutation, cube_j_trace, cube_pullback
from .tensors import form_to_matrix, integer_scaled, j_pullback, j_trace, norm_sq, perm_sign


@dataclass(frozen=True)
class RicciPackage:
    """All Ricci-type traces of one curvature tensor, the transpose ric_t
    and the pullbacks ric_j[s - 1] = Ric(J_s ., J_s .) that the identity
    tests read, each built once, on first read."""

    ric: SparseMatrix
    rho: KForm
    rho_s: tuple[KForm, KForm, KForm]
    scal: Scalar
    scal_s: tuple[Scalar, Scalar, Scalar]
    permutations: tuple[SignedPermutation, ...]

    @cached_property
    def ric_t(self) -> SparseMatrix:
        return sparse_transpose(self.ric)

    @cached_property
    def ric_j(self) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
        return tuple(j_pullback(self.ric, j) for j in self.permutations)


def _traced_forms(
    curvature: Curvature, traced: list[tuple[SignedPermutation, int]], dim: int
) -> list[KForm]:
    """For each (M, d) in traced, the 2-form (i, j) -> 1/d sum v M[l][k],
    summed from the nonzeros v = r[i][j][k][l] = R(e_i, e_j)[l][k]: row l
    of M holds one nonzero, M[l][k] at (k, M[l][k]) = rows[l]. The Ricci
    package's rho (M the identity) and rho_s (M = J_s, d = 2)."""
    scale = curvature.scale
    forms: list[dict[tuple[int, ...], Scalar]] = [{} for _ in traced]
    for (i, j), op in curvature.entries.items():
        for comps, (m, d) in zip(forms, traced):
            rows = m.rows
            total = sum(v * e for l, row in op.items() for k, e in [rows[l]] if (v := row.get(k)))
            if total:
                comps[(i, j)] = Fraction(total, d * scale)
    return [KForm(dim, 2, comps) for comps in forms]


def ricci_package(curvature: Curvature, h: HyperhermitianStructure) -> RicciPackage:
    """Ricci traces summed from the nonzeros v = r[i][j][k][l] = R(e_i, e_j)[l][k]:
    ric[x][y] = sum_a r[a][x][y][a], rho(i, j) = tr R(e_i, e_j) and
    rho_s(i, j) = 1/2 sum v J_s[l][k]; scal_s is the J_s-trace of Ric."""
    dim, scale = h.dim, curvature.scale
    sums_ric: SparseMatrix = {}
    for (i, j), op in curvature.entries.items():
        # from r[a][x][y][a]: row j of Ric gains row i of R(e_i, e_j), row i loses row j
        sparse_subtract(sums_ric, -1, {j: op.get(i, {})})
        sparse_subtract(sums_ric, 1, {i: op.get(j, {})})
    ric = {x: {y: Fraction(v, scale) for y, v in row.items()} for x, row in sums_ric.items()}
    # the J_s-trace of Ric, tr(J_s Ric^T), is tr(J_s^T Ric), and J_s^T swaps rows and cols
    scal_s = tuple(j_trace(ric, SignedPermutation(j.cols, j.rows)) for j in h.permutations)
    rho, *rho_s = _traced_forms(curvature, [(IDENTITY, 1), *((j, 2) for j in h.permutations)], dim)
    return RicciPackage(ric, rho, tuple(rho_s), sparse_trace(ric), scal_s, h.permutations)


@dataclass(frozen=True)
class LeeForm:
    theta: KForm
    d_theta: KForm
    classification: str  # balanced | closed_nonzero | nonclosed


def lee_form(t: KForm, h: HyperhermitianStructure, alg: LieAlgebra) -> LeeForm:
    """theta(X) = -1/2 sum_a T(J_s X, e_a, J_s e_a), required to agree for
    s = 1, 2, 3: with S = `cube_j_trace` of T by J_s, theta(e_x) =
    -1/2 S(J_s e_x) = -1/2 (J_s^T S)_x, S_a moved to x with the sign J[a][x]
    for rows[a] = (x, J[a][x]). Classification is at the invariant level,
    where exactness of a 1-form means vanishing.
    """
    candidates = [
        {x: v * e for a, v in cube_j_trace(t.cube, j).items() for x, e in [j.rows[a]]}
        for j in h.permutations
    ]
    if not (candidates[0] == candidates[1] == candidates[2]):
        raise ValueError("not HKT torsion: the three Lee form candidates differ")
    pulled = candidates[0]
    theta = KForm(h.dim, 1, {(x,): Fraction(-pulled[x], 2) for x in sorted(pulled)})
    d_theta = ce_differential(alg, theta)
    if theta.is_zero():
        classification = "balanced"
    elif d_theta.is_zero():
        classification = "closed_nonzero"
    else:
        classification = "nonclosed"
    return LeeForm(theta, d_theta, classification)


def _least_cell(*terms: tuple[Scalar, SparseMatrix]) -> tuple[int, int] | None:
    """The least (x, y) where sum f * M is nonzero over the (f, M) terms."""
    residual: SparseMatrix = {}
    for f, m in terms:
        sparse_subtract(residual, -f, m)
    if not residual:
        return None
    x = min(residual)
    return x, min(residual[x])


def _least_per_j(terms_by_j) -> tuple[int, int, int] | None:
    """(s, x, y): the least cell of the first s = 1, 2, 3 whose terms sum to nonzero."""
    cells = ((s, *cell) for s, terms in enumerate(terms_by_j, 1) if (cell := _least_cell(*terms)))
    return next(cells, None)


def obata_identity_suite(pkg: RicciPackage, lee: LeeForm) -> dict[str, tuple | None]:
    """Exact identity suite tying the torsion-free hypercomplex connection's
    Ricci data to the Lee form. Keys are stable descriptive ids, each mapped
    to None or to its first failing index tuple in (s, x, y) order: the
    least nonzero cell of its residual, for the least failing s.
    """
    ric, ric_t, ric_j = pkg.ric, pkg.ric_t, pkg.ric_j
    rho, d_theta = form_to_matrix(pkg.rho), form_to_matrix(lee.d_theta)
    # rho_s(J_s X, Y): row a of rho_s moves to x with the sign J[a][x] = rows[a]
    rho_j = [
        {x: {y: e * v for y, v in row.items()} for a, row in form_to_matrix(f).items()
         for x, e in [j.rows[a]]}
        for f, j in zip(pkg.rho_s, pkg.permutations)
    ]
    d_theta_j = [j_pullback(d_theta, j) for j in pkg.permutations]
    scalars = [("scal", pkg.scal)] + [(f"scal_{s}", v) for s, v in enumerate(pkg.scal_s, 1)]
    return {
        "ricci-j-conjugation": _least_per_j(
            ((1, pulled), (1, ric_t), (-2, r)) for pulled, r in zip(ric_j, rho_j)
        ),
        "ricci-antisymmetry-vs-rho": _least_cell((1, ric), (-1, ric_t), (1, rho)),
        "ricci-equals-d-lee": _least_cell((1, ric), (-1, d_theta)),
        "rho-equals-minus-2-d-lee": _least_cell((1, rho), (2, d_theta)),
        "rho-s-vanish": next(((s,) for s, f in enumerate(pkg.rho_s, 1) if not f.is_zero()), None),
        # antisymmetric residuals, so the least cell has x < y
        "d-lee-j-invariant": _least_per_j(((1, pulled), (-1, d_theta)) for pulled in d_theta_j),
        "ricci-j-invariant": _least_per_j(((1, pulled), (-1, ric)) for pulled in ric_j),
        "scalars-vanish": next((item for item in scalars if item[1]), None),
        "d-lee-trace-free": next(
            ((s, t) for s, j in enumerate(pkg.permutations, 1) if (t := j_trace(d_theta, j))), None
        ),
    }


def curvature_relation_check(
    skew_curvature: Curvature,
    ob_curvature: Curvature,
    a: Scaled,
    t_cube: Cube,
    skew_conn: Connection,
) -> tuple[int, int, int, int] | None:
    """Reconstruct the torsion-free connection's curvature from the
    skew-torsion connection's curvature plus difference-tensor terms:

    R_ob(X,Y,Z,U) = R(X,Y,Z,U) + (nabla_X A)(Y,Z,U) - (nabla_Y A)(X,Z,U)
                  + A(T(X,Y),Z,U) + A(X,A(Y,Z),U) - A(Y,A(X,Z),U),

    verified on every basis quadruple. The residual R_ob - R - correction
    is summed from the nonzeros of both curvatures and of A, T and nabla A,
    on ints over the lcm of their scales; nabla_{e_i} A is formed only for
    the nonzero operators of the skew-torsion connection, since a zero one
    gives zero. Returns the first failing quadruple, its least nonzero key,
    or None when the relation holds.
    """
    cube, t = a.entries, integer_scaled(t_cube)
    scale = lcm(ob_curvature.scale, skew_curvature.scale, skew_conn.scale * a.scale)
    scale = lcm(scale, t.scale * a.scale, a.scale * a.scale)
    by_first, by_middle = defaultdict(list), defaultdict(list)
    for (p, m, q), v in cube.items():
        by_first[p].append((m, q, v))
        by_middle[m].append((p, q, v))
    residual: dict[tuple[int, int, int, int], Scalar] = defaultdict(int)
    for sign, curvature in ((1, ob_curvature), (-1, skew_curvature)):
        f = sign * (scale // curvature.scale)
        for (i, j), op in curvature.entries.items():
            for l, row in op.items():
                for k, v in row.items():
                    residual[(i, j, k, l)] += f * v
                    residual[(j, i, k, l)] -= f * v
    # (nabla_X A)(Y,Z,U) - (nabla_Y A)(X,Z,U)
    f = scale // (skew_conn.scale * a.scale)
    for i, op in enumerate(skew_conn.operators):
        if not op:
            continue
        for (j, k, l), v in covariant_derivative_cube(op, cube).items():
            residual[(i, j, k, l)] -= f * v
            residual[(j, i, k, l)] += f * v
    # A(T(X,Y),Z,U)
    f = scale // (t.scale * a.scale)
    for (i, j, m), x in t.entries.items():
        for k, l, v in by_first[m]:
            residual[(i, j, k, l)] -= f * x * v
    # A(X,A(Y,Z),U) - A(Y,A(X,Z),U)
    f = scale // (a.scale * a.scale)
    for (p, k, m), v in cube.items():
        for q, l, w in by_middle[m]:
            residual[(q, p, k, l)] -= f * v * w
            residual[(p, q, k, l)] += f * v * w
    return min((idx for idx, v in residual.items() if v), default=None)


# each reordering of four slots with its sign
_ORDERINGS_4 = tuple((order, perm_sign(order)) for order in permutations(range(4)))


@dataclass(frozen=True)
class StarScalarReport:
    value: Scalar
    components: dict[str, Scalar]
    checks: dict[str, tuple | None]  # None, or the three stars, or (got, want)


def _j_trace_product(a: SparseMatrix, b: SparseMatrix, j: SignedPermutation) -> int:
    """`j_trace` of the product ab of int matrices, summed from the
    nonzeros: a[x][y] meets b[y][m] at cols[x] = (m, J[m][x])."""
    total, cols = 0, j.cols
    for x, row in a.items():
        m, e = cols[x]
        for y, v in row.items():
            w = b.get(y)
            if w and m in w:
                total += e * v * w[m]
    return total


def star_scalar(
    alg: LieAlgebra,
    h: HyperhermitianStructure,
    t: KForm,
    lee: LeeForm,
    lc: Connection,
    dtt: DtTraces,
) -> StarScalarReport:
    """The *-scalar curvature of the Levi-Civita connection lc and the exact
    scalar identities tying it to torsion, dT and Lee-form data. The double
    trace sum_{a,b} dT(e_a, J1 e_a, e_b, J1 e_b) is -4h, read off `dtt`.

    With rho_s = -1/2 `j_trace`(R, J_s), s*_s = sum_a rho_s(J_s e_a, e_a)
    is the sum of e `j_trace`(R(e_a, e_b), J_s) over the pairs a < b,
    (b, e) = cols[a], since J_s^2 = -1 makes each pair enter twice. It is
    summed on ints from the operators of lc (any connection), no curvature
    built: with d and s as in `curvature_operators`, d s^2 R(e_a, e_b) =
    d [ops_a, ops_b] - sum_m (d c^m_ab) s ops_m.
    """
    ops, s = lc.operators, lc.scale
    d = lcm(*[c.denominator for comps in alg.brackets.values() for c in comps.values()])
    stars = []
    for j in h.permutations:
        total = 0
        for a, (b, e) in j.cols.items():
            if a < b:
                r = d * (_j_trace_product(ops[a], ops[b], j) - _j_trace_product(ops[b], ops[a], j))
                for m, c in alg.brackets.get((a, b), {}).items():
                    r -= c.numerator * (d // c.denominator) * s * j_trace(ops[m], j)
                total += e * r
        stars.append(Fraction(total, d * s * s))
    double_trace = -4 * dtt.h_value
    div = sum(v * lee.theta.evaluate((m,)) for (a, b, m), v in lc.gamma.items() if a == b)
    delta_theta = Fraction(div, s)
    theta_sq = norm_sq(lee.theta)
    torsion_sq = norm_sq(t)
    coincide = stars[0] == stars[1] == stars[2]
    checks = {"star-scalars-coincide": None if coincide else tuple(stars)}
    t_12 = Fraction(torsion_sq, 12)
    for key, got, want in (
        ("star-scalar-from-torsion", stars[0], Fraction(double_trace, 8) + t_12),
        ("star-scalar-from-lee", stars[0], delta_theta + theta_sq - t_12),
        ("dt-double-trace-vs-lee", double_trace, 8 * (delta_theta + theta_sq) - 16 * t_12),
    ):
        checks[key] = None if got == want else (got, want)
    components = {
        "delta_theta": delta_theta,
        "theta_norm_sq": theta_sq,
        "torsion_norm_sq": torsion_sq,
        "dt_double_trace": double_trace,
    }
    return StarScalarReport(stars[0], components, checks)


@dataclass(frozen=True)
class DtTraces:
    h_value: Scalar
    strong: bool
    almost_strong: bool
    traces_coincide: bool


def dt_traces(dt: KForm, h: HyperhermitianStructure) -> DtTraces:
    """Trace data of dT: the scalar h = -1/4 sum dT(e_a, J1 e_a, e_b, J1 e_b),
    the almost-strong test (full partial-trace 2-tensor vanishes), and the
    strong test dT = 0. The three J-versions of the partial trace must agree.
    """
    partials = [_j_partial_trace(dt, j) for j in h.permutations]
    coincide = partials[0] == partials[1] == partials[2]
    h_value = Fraction(-sparse_trace(partials[0]), 4)
    return DtTraces(h_value, dt.is_zero(), not partials[0], coincide)


def _j_partial_trace(form4: KForm, j: SignedPermutation) -> SparseMatrix:
    """P[x][y] = sum_a form4(e_a, J e_a, e_x, J e_y), built from the stored
    components of form4, each in every signed slot order: the slots (a, r)
    meet J when (r, J[r][a]) = cols[a], and J e_y sits at m for
    (y, J[m][y]) = rows[m]."""
    out: SparseMatrix = {}
    for idx, value in form4.comps.items():
        for order, sign in _ORDERINGS_4:
            a, r, x, m = (idx[o] for o in order)
            p, e = j.cols[a]
            if p == r:
                y, f = j.rows[m]
                row = out.setdefault(x, {})
                row[y] = row.get(y, 0) + sign * value * e * f
    return {x: kept for x, row in out.items() if (kept := {y: v for y, v in row.items() if v})}


@dataclass(frozen=True)
class ChernReport:
    norms: tuple[Scalar, Scalar, Scalar]
    torsion_norm_sq: Scalar
    ok: bool


def chern_norm_check(t: KForm, h: HyperhermitianStructure) -> ChernReport:
    """Chern-torsion norms: |C_s|^2, the literal sum of squares over all
    index triples, must equal |T|^2 / 3 for each s, with
    C_s(X,Y,Z) = (1/2) T(X, J_s Y, J_s Z) + (1/2) T(J_s X, Y, J_s Z),
    pulled back as the int table of 2 C_s and divided once.
    """
    torsion_sq = norm_sq(t)
    norms = []
    for j in h.permutations:
        twice = cube_pullback(t.cube, (1, None, j.rows, j.rows), (1, j.rows, None, j.rows))
        norms.append(Fraction(sum(v * v for v in twice.values()), 4))
    target = Fraction(torsion_sq, 3)
    return ChernReport(tuple(norms), torsion_sq, all(n == target for n in norms))


@dataclass(frozen=True)
class ObstructionReport:
    flags: tuple[str, ...]
    verdict: str  # "no compatible HKT metric" | "inconclusive"


def hkt_obstruction_report(pkg: RicciPackage, h: HyperhermitianStructure) -> ObstructionReport:
    """Necessary conditions on the torsion-free connection's Ricci data for
    a compatible HKT metric to exist. Any failure rules HKT out; passing
    everything remains inconclusive.
    """
    flags: list[str] = []
    ric = pkg.ric
    if _least_cell((1, ric), (1, pkg.ric_t)):
        flags.append("ricci not skew-symmetric")
    elif any(pulled != ric for pulled in pkg.ric_j):
        flags.append("ricci skew but not (1,1)")
    for s in (1, 2, 3):
        if not pkg.rho_s[s - 1].is_zero():
            flags.append(f"rho_{s} nonzero")
    if pkg.scal or any(pkg.scal_s):
        flags.append("scalar curvature nonzero")
    verdict = "no compatible HKT metric" if flags else "inconclusive"
    return ObstructionReport(tuple(flags), verdict)


@dataclass(frozen=True)
class DetectorReport:
    applicable: bool
    lee_exact: bool
    trace_condition: str | None
    conclusion_torsion_zero: bool | None
    consistent: bool
    verdict: str


def hyperkahler_detector(
    theta_zero: bool,
    h_value: Scalar,
    star_value: Scalar,
    almost_strong: bool,
    torsion_zero: bool,
) -> DetectorReport:
    """Sufficient-condition scan: an invariant-exact Lee form (theta = 0)
    together with h = 0, vanishing *-scalar curvature, or the almost-strong
    property forces a vanishing torsion. A counterexample would be an
    engine-level defect, so it is flagged as a theorem violation.
    """
    conditions = []
    if h_value == 0:
        conditions.append("h=0")
    if star_value == 0:
        conditions.append("star-scalar=0")
    if almost_strong:
        conditions.append("almost-strong")
    applicable = theta_zero and bool(conditions)
    if not applicable:
        return DetectorReport(False, theta_zero, None, torsion_zero, True, "not applicable")
    if torsion_zero:
        return DetectorReport(True, True, ",".join(conditions), True, True, "hyperkahler")
    return DetectorReport(True, True, ",".join(conditions), False, False, "THEOREM VIOLATION")
