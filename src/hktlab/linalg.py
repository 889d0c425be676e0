"""Exact dense linear algebra over rational scalars.

Matrices are lists of row lists; vectors are flat lists. Entries are ints
or Fractions. Sizes stay tiny (ambient dimension at most 16, solver systems
a few hundred rows), so straightforward Gaussian elimination is plenty;
inner loops skip zero entries because the inputs are very sparse in
practice.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Scalar

Vector = list[Scalar]
Matrix = list[list[Scalar]]


class LinAlgError(Exception):
    """Raised when a linear system has no solution or no unique one."""


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: Scalar) -> Matrix:
    return [[s * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        row_a = a[i]
        row_o = out[i]
        for k in range(inner):
            x = row_a[k]
            if x:
                row_b = b[k]
                for j in range(cols):
                    if row_b[j]:
                        row_o[j] += x * row_b[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a: Matrix) -> Scalar:
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def dot(u: Vector, v: Vector) -> Scalar:
    return sum(x * y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return [x - y for x, y in zip(u, v)]


def vec_scale(u: Vector, s: Scalar) -> Vector:
    return [s * x for x in u]


def _fractionize(a: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form. Returns (R, pivot column list)."""
    m = _fractionize(a)
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


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right nullspace, one vector per free column."""
    if not a:
        return []
    reduced, pivots = rref(a)
    cols = len(a[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v: Vector = [0] * cols
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][free]
        basis.append(v)
    return basis


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b, requiring the solution to exist and be unique."""
    cols = len(a[0]) if a else 0
    augmented = [list(row) + [bv] for row, bv in zip(a, b)]
    reduced, pivots = rref(augmented)
    if cols in pivots:
        raise LinAlgError("inconsistent system: no solution")
    if len(pivots) < cols:
        raise LinAlgError(
            f"solution not unique: rank {len(pivots)} < {cols} unknowns"
        )
    x: Vector = [0] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx][cols]
    return x


def invert(a: Matrix) -> Matrix:
    n = len(a)
    augmented = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("matrix not invertible")
    return [row[n:] for row in reduced[:n]]


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free-ish elimination with row pivoting."""
    n = len(a)
    m = _fractionize(a)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot = m[c][c]
        result *= pivot
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pivot
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
    return sign * result


def leading_minors_positive(a: Matrix) -> bool:
    """Exact positive-definiteness test for a symmetric matrix."""
    return all(det([row[: k + 1] for row in a[: k + 1]]) > 0 for k in range(len(a)))


class RowSpan:
    """Incrementally maintained row space in reduced echelon form.

    Used for exact rank growth while closing holonomy algebras: `add`
    returns True when the vector enlarges the span.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vector) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for pivot, row in self._rows.items():
            if v[pivot]:
                f = v[pivot]
                v = [x - f * y if y else x for x, y in zip(v, row)]
        return v

    def contains(self, vec: Vector) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Vector) -> bool:
        v = self._reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        if inv != 1:
            v = [x * inv for x in v]
        for p, row in self._rows.items():
            if row[pivot]:
                f = row[pivot]
                self._rows[p] = [x - f * y if y else x for x, y in zip(row, v)]
        self._rows[pivot] = v
        return True
