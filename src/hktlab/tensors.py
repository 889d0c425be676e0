"""Antisymmetric forms, endomorphisms, and small multi-index tensors.

Everything lives over a fixed basis e_0 .. e_{dim-1} of a real vector space
with dim <= 16. A KForm stores its components on strictly increasing index
tuples; evaluation on arbitrary tuples unpacks the permutation sign.
Endomorphisms are matrices with the column convention M[i][j] =
coefficient of e_i in (M e_j), held in the sparse `linalg.SparseMatrix`
format, and each bilinear form B as B[x][y] = B(e_x, e_y). The engine
works in an orthonormal frame, where the metric is the identity and is not
stored; the loader builds that frame (see `catalog`).
`form_to_matrix` reads a 2-form as its antisymmetric matrix. A 3-form's
cube is its view `KForm.cube`, derived once, on first read, and shared by
every reader, which never mutates it.

Degree-3 tensors that are not antisymmetric (torsion variants, difference
tensors, connection coefficients) are kept as "cubes": dicts
{(i, j, k): value} of their nonzero entries, in the same idiom as
KForm.comps. Every function here that returns a cube keeps the invariant
that a cube never stores a zero, so `not cube` tests for the zero tensor
and `==` compares two tensors entry for entry. A stored value is an int or
a Fraction as the arithmetic leaves it (the report writes each rational by
value, see `exact`); the connection coefficients and the difference
tensor are held `integer_scaled`, as int entries over one least scale.

After the loader each J is a signed permutation, held as its
`SignedPermutation` (derived once per structure), and every
J-contraction is a relabel with a sign: `j_pullback` gives B(J ., J .),
`j_trace` the J-trace sum_x J[sigma x][x] B[x][sigma x] and
`cube_j_trace` the same trace of a cube's last two slots. The paper's
identities are signed sums of pullbacks of one cube through the J's;
`cube_pullback` takes such a sum as its term table (f, M1, M2, M3), each
M_s a J's rows or cols relabel or None for the identity, and builds it
in one pass; `j_twist` is its one-term case on a 3-form's stored
components, with no package caller: the benchmark names it, and the
tests compare it with the dense twist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import factorial, gcd, lcm
from typing import NamedTuple

from .exact import Scalar
from .linalg import SparseMatrix

MAX_DIM = 16

Cube = dict[tuple[int, int, int], Scalar]
Relabel = dict[int, tuple[int, Scalar]]  # a -> (x, e): index a goes to x with the sign e


class SignedPermutation(NamedTuple):
    """A signed permutation J by its one nonzero per row and per column:
    rows[a] = (x, J[a][x]) and cols[x] = (a, J[a][x]), so J e_x = e e_a for
    cols[x] = (a, e), and cols is the rows relabel of J^T."""

    rows: Relabel
    cols: Relabel


_UNIT = {a: (a, 1) for a in range(MAX_DIM)}
IDENTITY = SignedPermutation(_UNIT, _UNIT)  # of every frame, dim <= MAX_DIM


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
        dim, degree = self.dim, self.degree
        clean: dict[tuple[int, ...], Scalar] = {}
        for idx, value in self.comps.items():
            idx, last = tuple(idx), -1
            for i in idx:  # one pass: each index in 0..dim-1 and above the last
                if not last < i < dim or i < 0:
                    break
                last = i
            else:
                if len(idx) == degree:
                    if value:
                        clean[idx] = value
                    continue
            # rejected: the message names the length, else the range, else the order
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length")
            if any(not 0 <= i < dim for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            raise ValueError(f"index tuple {idx} not strictly increasing")
        object.__setattr__(self, "comps", clean)

    def is_zero(self) -> bool:
        return not self.comps

    def evaluate(self, idx: tuple[int, ...]) -> Scalar:
        """Value on (e_{idx[0]}, ..., e_{idx[k-1]}), any index order."""
        sign = perm_sign(tuple(idx))
        if sign == 0:
            return 0
        return sign * self.comps.get(tuple(sorted(idx)), 0)

    @cached_property
    def cube(self) -> Cube:
        """A 3-form as its cube, every index order of each component with
        its permutation sign, derived once, on first read. Readers share it
        and never mutate it."""
        if self.degree != 3:
            raise ValueError("expected a 3-form")
        comps = self.comps.items()
        return {tgt: perm_sign(tgt) * v for idx, v in comps for tgt in permutations(idx)}


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product, shuffle convention: e^1^e^2 on (e_1,e_2) gives 1;
    a pair of components has the `perm_sign` of its joined indices."""
    if a.dim != b.dim:
        raise ValueError("form dimension mismatch")
    if a.degree + b.degree > a.dim:
        raise ValueError("degree exceeds dimension")
    comps: dict[tuple[int, ...], Scalar] = {}
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            if sign := perm_sign(ia + ib):
                merged = tuple(sorted(ia + ib))
                comps[merged] = comps.get(merged, 0) + sign * va * vb
    return KForm(a.dim, a.degree + b.degree, comps)


def j_twist(a: KForm, j: SignedPermutation) -> KForm:
    """The 3-form (X,Y,Z) -> -a(JX, JY, JZ).

    The one-term pullback (-1, J, J, J) of the stored components a_I: each
    image (c0, c1, c2), distinct entries as J permutes, is folded onto its
    sorted index with the sign perm_sign.
    """
    if a.degree != 3:
        raise ValueError("j_twist requires a 3-form")
    totals: dict[tuple[int, ...], Scalar] = {}
    for idx, v in cube_pullback(a.comps, (-1, j.rows, j.rows, j.rows)).items():
        out = tuple(sorted(idx))
        totals[out] = totals.get(out, 0) + perm_sign(idx) * v
    return KForm(a.dim, 3, {out: totals[out] for out in sorted(totals)})


def form_to_matrix(a: KForm) -> SparseMatrix:
    """A 2-form as its antisymmetric matrix B[x][y] = a(e_x, e_y)."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    out: SparseMatrix = {}
    for (x, y), v in a.comps.items():
        out.setdefault(x, {})[y] = v
        out.setdefault(y, {})[x] = -v
    return out


def j_pullback(b: SparseMatrix, j: SignedPermutation) -> SparseMatrix:
    """The bilinear form B(J ., J .): B[a][c] moves to (x, y) with the sign
    J[a][x] J[c][y], for rows[a] = (x, J[a][x]) and rows[c] = (y, J[c][y])."""
    rows, out = j.rows, {}
    for a, row in b.items():
        x, p = rows[a]
        out[x] = {y: p * q * v for c, v in row.items() for y, q in [rows[c]]}
    return out


def j_trace(b: SparseMatrix, j: SignedPermutation) -> Scalar:
    """sum_{a,m} J[m][a] * B[a][m]: one term per a, at cols[a] = (m, J[m][a])."""
    cols = j.cols
    return sum(e * v for a, row in b.items() for m, e in [cols[a]] if (v := row.get(m)))


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
    return form if form.cube == cube else None


def cube_j_trace(cube: Cube, j: SignedPermutation) -> dict[int, Scalar]:
    """The nonzero values of r -> sum_{a,m} cube[(r, a, m)] * J[m][a], one
    entry per a: m and J[m][a] are cols[a]."""
    cols, out = j.cols, {}
    for (r, a, m), v in cube.items():
        p, e = cols[a]
        if p == m:
            out[r] = out.get(r, 0) + v * e
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


PullbackTerm = tuple[Scalar, Relabel | None, Relabel | None, Relabel | None]


def cube_pullback(cube: Cube, *terms: PullbackTerm) -> Cube:
    """sum_t f_t * in(M1_t X, M2_t Y, M3_t Z) over the terms (f, M1, M2, M3),
    each M_s a signed permutation's relabel, M[a] = (x, M[a][x]), or None
    for the identity: an entry in(a, b, c) adds f M1[a][x] M2[b][y]
    M3[c][z] in(a, b, c) at (x, y, z), one lookup per slot, and the zeros
    go once at the end."""
    out: Cube = {}
    for f, *maps in terms:
        m1, m2, m3 = (_UNIT if m is None else m for m in maps)
        for (a, b, c), v in cube.items():
            (x, p), (y, q), (z, r) = m1[a], m2[b], m3[c]
            key = (x, y, z)
            out[key] = out.get(key, 0) + f * p * q * r * v
    return {idx: v for idx, v in out.items() if v}
