"""Lie-algebra layer: structure constants, invariant exterior calculus,
left-invariant connections, their torsion and curvature.

Brackets are stored sparsely as c[(i, j)] = {k: c^k_ij} with i < j; the
view `LieAlgebra.cube` completes them over both orders. All work is in an
orthonormal frame (the loader rebases inputs), so raising and lowering
indices is free and every trace below is a plain index sum.

Connection coefficients are stored lowered as an int cube over one least
scale s (`tensors.integer_scaled`): gamma[(i, j, k)] / s =
<nabla_{e_i} e_j, e_k>, and the operator of nabla_{e_i} on coordinate
vectors is L_i[k][j] = gamma[(i, j, k)] / s. `Connection.operators` (built
once per connection, on first read) and `curvature_operators` hold the int
operators as `linalg.SparseMatrix`; `curvature_operators` brackets them
with `linalg.sparse_commutator`, summed over the nonzeros, where their
supports meet (`linalg.support`), and sums nothing where both products
vanish by support. The nonzero curvature operators {(i, j): R(e_i, e_j)},
i < j, int over one least scale, are the one curvature format every reader
takes: as in every sparse container here no zero is stored, so a flat
connection's curvature is empty. A reader sums over the ints and divides
once, and `curvature_tensor` is their dense dim^4 nested-list view.

`levi_civita`, `torsion_cube`, the Jacobi check and the Nijenhuis tensors
read the bracket cube; the readers that need one order read the stored
table. The Jacobi check walks only the triples where a cyclic term
[[e_a, e_b], e_c] can be nonzero by support; `LieAlgebra.jacobi_defect`
holds its result, walked once per algebra on first read. nabla A
(`covariant_derivative_cube`) is the one pullback through a general
matrix, a connection operator, one slot at a time over its rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .exact import Scalar
from .linalg import SparseMatrix, Vector, sparse_apply, sparse_commutator, sparse_subtract
from .linalg import sparse_transpose, support
from .tensors import Cube, KForm, MAX_DIM, Scaled, cube_to_form, integer_scaled

BracketTable = dict[tuple[int, int], dict[int, Scalar]]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of a real Lie algebra on basis e_0..e_{dim-1}."""

    dim: int
    brackets: BracketTable = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside 1..{MAX_DIM}")
        clean: BracketTable = {}
        for (i, j), comps in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            inner = {k: v for k, v in comps.items() if v}
            for k in inner:
                if not 0 <= k < self.dim:
                    raise ValueError(f"bracket target index {k} out of range")
            if inner:
                clean[(i, j)] = inner
        object.__setattr__(self, "brackets", clean)

    @cached_property
    def cube(self) -> Cube:
        """{(i, j, k): c^k_ij} over both orders of i and j, derived once, on
        first read. Readers share it and never mutate it."""
        out: Cube = {}
        for (i, j), comps in self.brackets.items():
            for k, v in comps.items():
                out[(i, j, k)], out[(j, i, k)] = v, -v
        return out

    @cached_property
    def jacobi_defect(self) -> tuple[tuple[int, int, int], Vector] | None:
        """`validate_lie_algebra` of this algebra, walked once, on first read."""
        return validate_lie_algebra(self)


def validate_lie_algebra(alg: LieAlgebra) -> tuple[tuple[int, int, int], Vector] | None:
    """First Jacobi violation as ((i,j,k), defect vector), or None when valid.

    The defect is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j],
    summed from the nonzero structure constants, read off `alg.cube` by
    pair, and returned as a dense vector whose untouched entries are int
    zeros. A cyclic term [[e_a, e_b], e_c] can be nonzero only when some m
    in [e_a, e_b] has [e_m, e_c] nonzero, so only the triples {a, b, c},
    c not in {a, b}, that meet such a chain are walked, in sorted order;
    every other triple has defect 0. The pairs (a, b) are the stored ones,
    since [e_b, e_a] has the support of [e_a, e_b]; the partners c of m are
    read off both orders.

    Antisymmetry is structural here (only i < j keys are stored); wire-level
    antisymmetry conflicts are reported by the catalog loader.
    """
    table: dict[tuple[int, int], dict[int, Scalar]] = defaultdict(dict)  # [e_a, e_b]
    for (a, b, k), v in alg.cube.items():
        table[(a, b)][k] = v
    partners: dict[int, list[int]] = defaultdict(list)  # m -> every c with [e_m, e_c] != 0
    for m, c in table:
        partners[m].append(c)
    triples = {
        tuple(sorted((a, b, c)))
        for (a, b), comps in alg.brackets.items()
        for m in comps
        for c in partners.get(m, ())
        if c != a and c != b
    }
    for i, j, k in sorted(triples):
        defect: dict[int, Scalar] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in table.get((a, b), {}).items():
                for l, y in table.get((m, c), {}).items():
                    defect[l] = defect.get(l, 0) + x * y
        if any(defect.values()):
            return (i, j, k), [defect.get(l, 0) for l in range(alg.dim)]
    return None


def ce_differential(alg: LieAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential of an invariant form.

    (da)(X_0..X_k) = sum_{p<q} (-1)^{p+q} a([X_p, X_q], ...rest...).
    d o d = 0 exactly when the Jacobi identity holds.

    Summed from the nonzeros: c^m_ij (i < j) meets each stored a_J with m at
    place s of J and i, j outside R = J - {m}, and adds (-1)^(p+q+s) c^m_ij a_J
    at the sorted tuple I of R + {i, j}, p and q the places of i and j in I.
    The terms of one (I, i, j) are summed first and dropped when they
    cancel, as in the defining sum.
    """
    if a.degree >= a.dim:
        raise ValueError("differential of a top-degree form is not stored")
    by_index = defaultdict(list)  # m -> (J - {m}, place of m in J, a_J)
    for idx, v in a.comps.items():
        for s, m in enumerate(idx):
            by_index[m].append((idx[:s] + idx[s + 1 :], s, v))
    inner: dict[tuple[tuple[int, ...], int, int], Scalar] = defaultdict(int)
    for (i, j), comps in alg.brackets.items():
        for m, c in comps.items():
            for rest, s, v in by_index.get(m, ()):
                if i not in rest and j not in rest:
                    idx = tuple(sorted(rest + (i, j)))
                    term = c * v
                    inner[(idx, i, j)] += -term if (idx.index(i) + idx.index(j) + s) % 2 else term
    totals: dict[tuple[int, ...], Scalar] = defaultdict(int)
    for (idx, _, _), v in inner.items():
        if v:
            totals[idx] += v
    return KForm(a.dim, a.degree + 1, {idx: totals[idx] for idx in sorted(totals)})


@dataclass(frozen=True)
class Connection:
    """Left-invariant connection in lowered coefficients.

    gamma[(i, j, k)] / scale = <nabla_{e_i} e_j, e_k> in the orthonormal
    frame, made int over the least scale on construction. `operators` holds
    the int operators scale * L_i, L_i[k][j] = gamma[(i, j, k)] / scale,
    built from one pass over gamma on first read; the connection is metric
    when each is skew (`holonomy.is_g_skew`).
    """

    dim: int
    gamma: Cube
    scale: int = 1

    def __post_init__(self):
        scaled = integer_scaled(self.gamma, self.scale)
        object.__setattr__(self, "gamma", scaled.entries)
        object.__setattr__(self, "scale", scaled.scale)

    @cached_property
    def operators(self) -> tuple[SparseMatrix, ...]:
        ops: tuple[SparseMatrix, ...] = tuple({} for _ in range(self.dim))
        for (i, j, k), v in self.gamma.items():
            ops[i].setdefault(k, {})[j] = v
        return ops


def levi_civita(alg: LieAlgebra) -> Connection:
    """Koszul formula in an orthonormal frame:
    Gamma_ijk = (c_ijk - c_jki + c_kij) / 2 with c_ijk = <[e_i,e_j], e_k>,
    read off the bracket cube (`LieAlgebra.cube`): each entry c_abk lands
    in three slots of the cube of 2 Gamma, held at scale 2.
    """
    twice: dict[tuple[int, int, int], Scalar] = defaultdict(int)
    for (a, b, k), v in alg.cube.items():
        twice[(a, b, k)] += v
        twice[(k, a, b)] -= v
        twice[(b, k, a)] += v
    return Connection(alg.dim, {key: v for key, v in sorted(twice.items()) if v}, 2)


def torsion_cube(conn: Connection, alg: LieAlgebra) -> Cube:
    """Lowered torsion t[(i, j, k)] = <T(e_i,e_j), e_k>
    = (gamma[(i, j, k)] - gamma[(j, i, k)] - s c^k_ij) / s, summed from the
    nonzeros of gamma and of the bracket cube (`LieAlgebra.cube`), s the
    connection's scale."""
    s = conn.scale
    out: dict[tuple[int, int, int], Scalar] = defaultdict(int)
    for (i, j, k), v in conn.gamma.items():
        out[(i, j, k)] += v
        out[(j, i, k)] -= v
    for key, c in alg.cube.items():
        out[key] -= s * c
    return {key: Fraction(v, s) for key, v in sorted(out.items()) if v}


def torsion(conn: Connection, alg: LieAlgebra) -> tuple[Cube, KForm | None]:
    """Torsion as a cube plus, when totally skew, the same data as a 3-form."""
    cube = torsion_cube(conn, alg)
    return cube, cube_to_form(cube, conn.dim)


Curvature = Scaled  # entries {(i, j): R(e_i, e_j) * scale}, i < j, R(e_i, e_j) != 0


def curvature_operators(conn: Connection, alg: LieAlgebra) -> Curvature:
    """R(e_i, e_j) = [L_i, L_j] - L_{[e_i, e_j]}, keys i < j, stored only
    where nonzero; the lowered curvature is r[i][j][k][l] =
    R(e_i, e_j)[l][k]. With L_i = ops_i / s and d the lcm of the bracket
    denominators, d s^2 R(e_i, e_j) = [d ops_i, ops_j] -
    sum_m (d c^m_ij) s ops_m on ints, then reduced. The commutator is not
    summed where both products vanish by support (`linalg.support`)."""
    ops, s = conn.operators, conn.scale
    d = lcm(*[c.denominator for comps in alg.brackets.values() for c in comps.values()])
    left = ops  # d ops_i, copied only when d > 1
    if d > 1:
        left = [{k: {j: d * x for j, x in row.items()} for k, row in op.items()} for op in ops]
    supports = [support(op) for op in ops]
    out: dict[tuple[int, int], SparseMatrix] = {}
    for i, j in combinations(range(conn.dim), 2):
        (ri, ci), (rj, cj) = supports[i], supports[j]
        r = sparse_commutator(left[i], ops[j]) if ci & rj or cj & ri else {}
        for m, c in alg.brackets.get((i, j), {}).items():
            sparse_subtract(r, c.numerator * (d // c.denominator) * s, ops[m])
        if r:
            out[(i, j)] = r
    g = gcd(d * s * s, *(x for r in out.values() for row in r.values() for x in row.values()))
    for row in (row for r in out.values() for row in r.values()):
        for k in row:
            row[k] //= g
    return Scaled(out, d * s * s // g)


CurvatureTensor = list[list[list[list[Scalar]]]]


def curvature_tensor(conn: Connection, alg: LieAlgebra) -> CurvatureTensor:
    """Lowered curvature r[i][j][k][l] = <R(e_i,e_j) e_k, e_l>, dense.

    Antisymmetric in (i, j) by construction; not necessarily in (k, l)
    unless the connection is metric.
    """
    dim = conn.dim
    curvature = curvature_operators(conn, alg)
    r: CurvatureTensor = [
        [[[0] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)
    ]
    for (i, j), m in curvature.entries.items():
        for l, row in m.items():
            for k, v in row.items():
                r[i][j][k][l] = Fraction(v, curvature.scale)
                r[j][i][k][l] = -r[i][j][k][l]
    return r


def covariant_derivative_cube(op: SparseMatrix, a: Cube) -> Cube:
    """(nabla_{e_i} A)(Y,Z,U) for an invariant 3-index tensor A, with op the
    connection operator L = nabla_{e_i} (`Connection.operators[i]`).

    The scalar components are constant, so only the argument derivatives
    survive: -A(L Y, Z, U) - A(Y, L Z, U) - A(Y, Z, L U), one slot at a
    time over L's rows: A(p, q, r) adds -L[p][x] A(p, q, r) at (x, q, r).
    On int operators and entries the result is int, over the product of
    their scales.
    """
    out: Cube = defaultdict(int)
    for (p, q, r), v in a.items():
        for x, w in op.get(p, {}).items():
            out[(x, q, r)] -= w * v
        for x, w in op.get(q, {}).items():
            out[(p, x, r)] -= w * v
        for x, w in op.get(r, {}).items():
            out[(p, q, x)] -= w * v
    return {idx: v for idx, v in out.items() if v}


def rebase_algebra(alg: LieAlgebra, frame: SparseMatrix, inverse: SparseMatrix) -> LieAlgebra:
    """Structure constants in a new frame f_a = sum_i frame[a][i] e_i.

    inverse is the inverse of the matrix whose columns are the frame
    vectors; it converts old coordinates to new ones. [f_a, f_b] is summed
    in old coordinates from the stored brackets and the frame entries at
    their indices, then taken to new coordinates through the columns of
    inverse, all over nonzeros. A change of basis keeps the Jacobi identity
    exactly, so a known valid `alg` passes its `jacobi_defect` of None on,
    and no walk repeats.
    """
    at_index, to_new = sparse_transpose(frame), sparse_transpose(inverse)
    old: BracketTable = {}  # [f_a, f_b] in old coordinates
    for (i, j), comps in alg.brackets.items():
        for a, x in at_index.get(i, {}).items():
            for b, y in at_index.get(j, {}).items():
                if a != b:
                    key, f = ((a, b), x * y) if a < b else ((b, a), -x * y)
                    sparse_subtract(old, -f, {key: comps})
    brackets = {key: sparse_apply(to_new, vec) for key, vec in old.items()}
    rebased = LieAlgebra(alg.dim, brackets)
    if "jacobi_defect" in vars(alg) and alg.jacobi_defect is None:
        vars(rebased)["jacobi_defect"] = None
    return rebased
