"""Antisymmetric forms, endomorphisms, and small multi-index tensors.

Everything lives over a fixed basis e_0 .. e_{dim-1} of a real vector space
with dim <= 16. A KForm stores its components on strictly increasing index
tuples; evaluation on arbitrary tuples unpacks the permutation sign.
Endomorphisms are matrices with the column convention M[i][j] =
coefficient of e_i in (M e_j), held in the sparse `linalg.SparseMatrix`
format, and each bilinear form B as B[x][y] = B(e_x, e_y). The engine
works in an orthonormal frame, where the metric is the identity and is not
stored; the loader builds that frame (see `catalog`). `j_pullback` gives
B(J ., J .) = J^T B J, `j_trace` the J-trace sum_{a,m} J[m][a] B(e_a, e_m)
and `cube_j_trace` the same trace of the last two slots of a cube, each
summed over nonzeros.
`form_to_matrix` reads a 2-form as its antisymmetric matrix, as
`form_to_cube` reads a 3-form.

Degree-3 tensors that are not antisymmetric (torsion variants, difference
tensors, connection coefficients) are kept as "cubes": dicts
{(i, j, k): value} of their nonzero entries, in the same idiom as
KForm.comps. Every function here that returns a cube keeps the invariant
that a cube never stores a zero, so `not cube` tests for the zero tensor
and `==` compares two tensors entry for entry. A stored value is an int or
a Fraction as the arithmetic leaves it (the report writes each rational by
value, see `exact`); the connection coefficients and the difference
tensor are held `integer_scaled`, as int entries over one least scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import factorial, gcd, lcm

from .exact import Scalar
from .linalg import SparseMatrix, sparse_product, sparse_transpose

MAX_DIM = 16

Cube = dict[tuple[int, int, int], Scalar]


def perm_sign(seq: tuple[int, ...]) -> int:
    """Sign of the permutation sorting `seq`; 0 if an index repeats."""
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] == seq[b]:
                return 0
            if seq[a] > seq[b]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class KForm:
    """Exact antisymmetric k-form stored on sorted index tuples."""

    dim: int
    degree: int
    comps: dict[tuple[int, ...], Scalar] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside 1..{MAX_DIM}")
        if not 0 <= self.degree <= self.dim:
            raise ValueError(f"degree {self.degree} outside 0..{self.dim}")
        clean: dict[tuple[int, ...], Scalar] = {}
        for idx, value in self.comps.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} has wrong length")
            if any(not 0 <= i < self.dim for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} not strictly increasing")
            if value:
                clean[idx] = value
        object.__setattr__(self, "comps", clean)

    def is_zero(self) -> bool:
        return not self.comps

    def evaluate(self, idx: tuple[int, ...]) -> Scalar:
        """Value on (e_{idx[0]}, ..., e_{idx[k-1]}), any index order."""
        sign = perm_sign(tuple(idx))
        if sign == 0:
            return 0
        return sign * self.comps.get(tuple(sorted(idx)), 0)


def form_add(a: KForm, b: KForm) -> KForm:
    if (a.dim, a.degree) != (b.dim, b.degree):
        raise ValueError("form shape mismatch")
    comps = dict(a.comps)
    for idx, v in b.comps.items():
        comps[idx] = comps.get(idx, 0) + v
    return KForm(a.dim, a.degree, comps)


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    # number of transpositions moving the concatenation of two sorted
    # disjoint tuples into sorted order
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions % 2 else 1


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product, shuffle convention: e^1^e^2 on (e_1,e_2) gives 1."""
    if a.dim != b.dim:
        raise ValueError("form dimension mismatch")
    if a.degree + b.degree > a.dim:
        raise ValueError("degree exceeds dimension")
    comps: dict[tuple[int, ...], Scalar] = {}
    for ia, va in a.comps.items():
        set_a = set(ia)
        for ib, vb in b.comps.items():
            if set_a & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            term = _merge_sign(ia, ib) * va * vb
            comps[merged] = comps.get(merged, 0) + term
    return KForm(a.dim, a.degree + b.degree, comps)


def j_twist(a: KForm, j: SparseMatrix) -> KForm:
    """The 3-form (X,Y,Z) -> -a(JX, JY, JZ).

    Each stored component a_I is pushed through the nonzeros of the rows
    i in I of J: a choice of distinct columns (c0, c1, c2), one nonzero per
    row, adds the signed product to the 3x3 minor det J[I][sorted cols].
    An output component sums a_I * minor over the nonzero minors.
    """
    if a.degree != 3:
        raise ValueError("j_twist requires a 3-form")
    totals: dict[tuple[int, int, int], Scalar] = {}
    for idx, v in a.comps.items():
        rows = [j.get(i, {}).items() for i in idx]
        minors: dict[tuple[int, int, int], Scalar] = {}
        for c0, x0 in rows[0]:
            for c1, x1 in rows[1]:
                for c2, x2 in rows[2]:
                    sign = perm_sign((c0, c1, c2))
                    if sign:
                        out = tuple(sorted((c0, c1, c2)))
                        minors[out] = minors.get(out, 0) + sign * x0 * x1 * x2
        for out, d in minors.items():
            if d:
                totals[out] = totals.get(out, 0) + v * d
    return KForm(a.dim, 3, {out: -totals[out] for out in sorted(totals)})


def form_to_matrix(a: KForm) -> SparseMatrix:
    """A 2-form as its antisymmetric matrix B[x][y] = a(e_x, e_y)."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    out: SparseMatrix = {}
    for (x, y), v in a.comps.items():
        out.setdefault(x, {})[y] = v
        out.setdefault(y, {})[x] = -v
    return out


def j_pullback(b: SparseMatrix, j: SparseMatrix) -> SparseMatrix:
    """The bilinear form B(J ., J .), the matrix J^T B J."""
    return sparse_product(sparse_transpose(j), sparse_product(b, j))


def j_trace(b: SparseMatrix, j: SparseMatrix) -> Scalar:
    """sum_{a,m} J[m][a] * B[a][m], summed over the nonzeros of J and B."""
    return sum(x * v for m, row in j.items() for a, x in row.items() if (v := b.get(a, {}).get(m)))


# |a|^2 sums over ALL index tuples of an orthonormal frame, not just the
# increasing ones, so each stored component is counted k! times. Calibrated:
# the torsion/Lee-form scalar identity on the hopf4 and nil8 catalog entries
# holds with this weight and fails with the k!-divided variant. Keep the
# weight in this one place.
def norm_weight(degree: int) -> int:
    return factorial(degree)


def norm_sq(a: KForm) -> Scalar:
    """Full-index-sum squared norm in an orthonormal frame."""
    return norm_weight(a.degree) * sum(v * v for v in a.comps.values())


# ---------------------------------------------------------------------------
# cubes (3-index tensors, not necessarily antisymmetric)

def form_to_cube(a: KForm) -> Cube:
    if a.degree != 3:
        raise ValueError("expected a 3-form")
    return {tgt: perm_sign(tgt) * v for idx, v in a.comps.items() for tgt in permutations(idx)}


@dataclass(frozen=True)
class Scaled:
    """entries / scale: int entries over the least positive int scale, as a
    cube (the difference tensor) or as {(i, j): operator} (a curvature)."""

    entries: dict
    scale: int


def integer_scaled(cube: Cube, scale: int = 1) -> Scaled:
    """cube / scale held as `Scaled`, zeros dropped; `==` compares values."""
    den = lcm(*[v.denominator for v in cube.values()])
    ints = {idx: v.numerator * (den // v.denominator) for idx, v in cube.items() if v}
    g = gcd(scale * den, *ints.values())
    return Scaled({idx: v // g for idx, v in ints.items()}, scale * den // g)


def cube_to_form(cube: Cube, dim: int) -> KForm | None:
    """Reinterpret a cube as a 3-form, or None when not totally skew."""
    form = KForm(dim, 3, {idx: v for idx, v in cube.items() if idx[0] < idx[1] < idx[2]})
    return form if form_to_cube(form) == cube else None


def cube_j_trace(cube: Cube, j: SparseMatrix) -> dict[int, Scalar]:
    """The nonzero values of r -> sum_{a,m} cube[(r, a, m)] * J[m][a]."""
    out: dict[int, Scalar] = {}
    for (r, a, m), v in cube.items():
        x = j.get(m, {}).get(a)
        if x:
            out[r] = out.get(r, 0) + v * x
    return {r: v for r, v in out.items() if v}


def cube_add(a: Cube, b: Cube) -> Cube:
    out = dict(a)
    for idx, v in b.items():
        total = out.get(idx, 0) + v
        if total:
            out[idx] = total
        else:
            del out[idx]
    return out


def cube_scale(a: Cube, s: Scalar) -> Cube:
    return {idx: s * v for idx, v in a.items()} if s else {}


def _contract_slot(cube: Cube, m: SparseMatrix, slot: int) -> Cube:
    """Replace slot arguments by M-images: out(.., e_t, ..) = in(.., M e_t, ..)."""
    out: Cube = {}
    for idx, v in cube.items():
        for t, f in m.get(idx[slot], {}).items():
            key = idx[:slot] + (t,) + idx[slot + 1 :]
            out[key] = out.get(key, 0) + v * f
    return {idx: v for idx, v in out.items() if v}


def cube_pullback(
    cube: Cube, m1: SparseMatrix | None, m2: SparseMatrix | None, m3: SparseMatrix | None
) -> Cube:
    """out(X,Y,Z) = in(M1 X, M2 Y, M3 Z) for sparse M_s; None means the identity."""
    out = cube
    for slot, m in enumerate((m1, m2, m3)):
        if m is not None:
            out = _contract_slot(out, m, slot)
    return out


def cube_norm_sq(cube: Cube) -> Scalar:
    """Full-index-sum squared norm (no reweighting: the sum is literal)."""
    return sum(v * v for v in cube.values())
