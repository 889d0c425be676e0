"""Exact linear algebra over rational scalars.

Dense matrices (lists of row lists) exist only at the edges: `serialize`
writes `identity` rows and `rref` takes dense rows, while the loader
parses the wire's matrix fields straight into sparse rows. Entries are
ints or Fractions. The one Gaussian elimination is `RowSpan`, a
fraction-free reduced echelon form over sparse rows, {column: value} dicts
without zeros (the idiom of `KForm.comps` and of the cubes), since the
holonomy generators are almost all zeros. The holonomy closure grows it;
`nullspace` (no package reader; kept for the HKT-metric cone) and `rref`
read their answers off its stored rows. `solve_pairs` solves the
torsion-free system with no elimination: a signed graph, given by signs
alone through a neighbour function, and a sparse right-hand side. The
graph splits into classes that no edge leaves; one listed class per
shape gets a sign-only walk, counted once per class of that shape, and
only the components holding a nonzero right-hand side a second walk with
offsets.

Every endomorphism and bilinear form the engine brackets or tests (the
complex structures, the connection and curvature operators, the holonomy
generators, Ric and the other Ricci-type 2-tensors, with B[x][y] =
B(e_x, e_y)) uses the sparse matrix format {row: sparse row}, which stores
no zero and no empty row, so `not m` is the zero test. The connection and
curvature operators and the holonomy generators are int matrices over a
scale held beside them, which no zero, commutation or skewness test and
no span rank depends on. `sparse_commutator` and `sparse_product` are the
product kernels, both summed by one accumulation over the nonzeros;
`sparse_commutator` brackets the connection operators into the curvature,
while the holonomy closure brackets flat rows itself (see `holonomy`).
`support` gives the row and column bitmasks that show a product or a
bracket vanishing before it is summed. `sparse_subtract` is the one linear
update, `sparse_trace` the trace, `sparse_transpose` the column view and
`sparse_apply` a matrix, given by its columns, on a sparse vector.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .exact import Scalar

Vector = list[Scalar]
Matrix = list[list[Scalar]]
Row = dict[int, Scalar]  # sparse row: {column: value}, no zero stored
SparseMatrix = dict[int, Row]  # {row: sparse row}, no zero and no empty row stored
Neighbours = Callable[[int], Iterable[tuple[int, int, int]]]  # unknown -> its (q, s, e)

_INT = frozenset({int})


class LinAlgError(Exception):
    """Raised when a linear system has no solution or no unique one."""


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _accumulate(acc: SparseMatrix, left: SparseMatrix, right: SparseMatrix, combine) -> None:
    """acc (+ or -, by `combine`) = left * right, summed over the nonzeros;
    entries that cancel stay until `_pruned`."""
    for i, row in left.items():
        out = None
        for k, x in row.items():
            right_k = right.get(k)
            if right_k:
                if out is None:
                    out = acc.setdefault(i, {})
                for j, y in right_k.items():
                    out[j] = combine(out.get(j, 0), x * y)


def _pruned(acc: SparseMatrix) -> SparseMatrix:
    return {i: kept for i, row in acc.items() if (kept := {j: x for j, x in row.items() if x})}


def sparse_product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """ab from the nonzeros of a and b; entries and rows that cancel are
    dropped."""
    acc: SparseMatrix = {}
    _accumulate(acc, a, b, operator.add)
    return _pruned(acc)


def sparse_commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """ab - ba from the nonzeros of a and b; entries and rows that cancel
    are dropped, so a commuting pair gives {}."""
    acc: SparseMatrix = {}
    _accumulate(acc, a, b, operator.add)
    _accumulate(acc, b, a, operator.sub)
    return _pruned(acc)


def sparse_trace(m: SparseMatrix) -> Scalar:
    return sum(row.get(i, 0) for i, row in m.items())


def sparse_transpose(m: SparseMatrix) -> SparseMatrix:
    """The columns of m as rows, each listing its entries in row order."""
    out: SparseMatrix = {}
    for i in sorted(m):
        for j, x in m[i].items():
            out.setdefault(j, {})[i] = x
    return out


def support(m: SparseMatrix) -> tuple[int, int]:
    """Bitmasks of the rows and of the columns that hold a nonzero of m.
    With (ra, ca) and (rb, cb) those of a and b, ab = 0 when ca & rb == 0,
    so [a, b] = 0 when also cb & ra == 0."""
    cols = 0
    for row in m.values():
        for j in row:
            cols |= 1 << j
    return sum(1 << i for i in m), cols


def sparse_apply(columns: SparseMatrix, v: Row) -> Row:
    """M v for the sparse vector v, with M given by its columns."""
    out: Row = {}
    for c, x in v.items():
        for r, y in columns.get(c, {}).items():
            out[r] = out.get(r, 0) + x * y
    return {r: x for r, x in out.items() if x}


def sparse_subtract(target: SparseMatrix, f: Scalar, m: SparseMatrix) -> None:
    """target -= f * m in place, dropping entries and rows that cancel."""
    if not f:
        return
    for i, row in m.items():
        out = target.setdefault(i, {})
        _subtract(out, f, row)
        if not out:
            del target[i]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form. Returns (R, pivot column list)."""
    cols = len(a[0]) if a else 0
    span = _span_of([{j: x for j, x in enumerate(row) if x} for row in a])
    pivots = sorted(span._rows)
    reduced = [[Fraction(0)] * cols for _ in a]
    for out, pivot in zip(reduced, pivots):
        row = span._rows[pivot]
        d = row[pivot]
        for j, x in row.items():
            out[j] = Fraction(x, d)
    return reduced, pivots


def _span_of(rows: list[Row]) -> RowSpan:
    span = RowSpan()
    for row in rows:
        span._insert(row)
    return span


def nullspace(rows: list[Row], cols: int) -> list[Row]:
    """Basis of the right nullspace of the sparse rows over `cols` columns,
    one vector per free column f, in column order: {f: 1} and -row_p[f]
    at each pivot p."""
    span = _span_of(rows)
    basis: dict[int, Row] = {f: {f: 1} for f in range(cols) if f not in span._rows}
    for pivot, row in span._rows.items():
        d = row[pivot]
        for j, x in row.items():
            if j != pivot:
                basis[j][pivot] = Fraction(-x, d)
    return list(basis.values())


def solve_pairs(
    neighbours: Neighbours,
    rhs: dict[int, tuple[int, int, int, Scalar]],
    classes: Sequence[tuple[dict[int, list[tuple[int, int, int]]], int]],
) -> tuple[Row, int, int]:
    """The unique x with x_p + s x_q = b_e for each equation e of a signed
    graph, as ints over the least scale, and the rank: unknowns minus the
    balanced components (Zaslavsky 1982).

    The graph holds signs only: neighbours(p) lists each equation at the
    unknown p once as (q, s, e), parallel edges included. Its unknowns,
    0..cols-1, fall into classes that no edge leaves, and `classes` holds
    one class per shape as (graph, copies): the class's unknowns, each
    with its list of (q, s, e), and the number of classes, itself
    included, that share its size and balanced count. A sign-only walk
    covers each listed class and counts its balanced components once per
    copy, and cols is the sum of copies times class size. The right-hand
    side is sparse:
    rhs[e] = (p, q, s, b) for each equation with b != 0, every other b
    being 0. With b scaled to even ints, a second walk, along `neighbours`
    and only over the components holding a nonzero b, balanced ones
    included (an inconsistent system is reported as such, whatever its
    rank), puts each unknown at sign * y + offset in its root y; a closing
    edge checks the offsets or, where its signs add, sets or checks y.
    Every other unknown is 0: with b = 0 throughout, every offset is 0 and
    a closing edge whose signs add reads twice * y = 0."""
    cols = sum(copies * len(graph) for graph, copies in classes)  # numbered 0..cols-1
    sign, balanced = [0] * cols, 0  # sign 0: not reached yet
    for graph, copies in classes:
        for root in graph:
            if sign[root]:
                continue
            sign[root], component, unbalanced = 1, [root], False
            for p in component:  # the walk appends what it reaches
                sp = sign[p]
                for q, s, _ in graph[p]:
                    if not sign[q]:
                        sign[q] = -s * sp
                        component.append(q)
                    elif sp + s * sign[q]:
                        unbalanced = True
            balanced += copies * (not unbalanced)  # an isolated unknown's root is free too
    scale = 2 * lcm(*{b.denominator for _, _, _, b in rhs.values()})
    at: dict[int, dict[int, int]] = {}  # unknown -> {equation: b as read from it}
    for e, (p, q, s, b) in rhs.items():
        b = b.numerator * (scale // b.denominator)
        at.setdefault(p, {})[e] = b
        at.setdefault(q, {})[e] = s * b  # x_q + s x_p = s b
    x: Row = {}
    placed: dict[int, tuple[int, int]] = {}  # unknown -> (sign, offset) in its root
    for root in (r for r in at if r not in placed):
        placed[root], component, y = (1, 0), [root], None
        for p in component:
            (sp, op), here = placed[p], at.get(p, {})
            for q, s, e in neighbours(p):
                b = here.get(e, 0)
                if q not in placed:
                    placed[q] = -s * sp, s * (b - op)
                    component.append(q)
                    continue
                sq, oq = placed[q]
                twice, rest = sp + s * sq, b - op - s * oq
                if twice and y is None:  # the signs add: twice * y = rest
                    y = rest // twice
                if twice * (y or 0) != rest:
                    raise LinAlgError("inconsistent system: no solution")
        if y is not None:
            x.update((p, v) for p in component if (v := placed[p][0] * y + placed[p][1]))
    if balanced:
        raise LinAlgError(f"solution not unique: rank {cols - balanced} < {cols} unknowns")
    g = gcd(scale, *x.values())
    return {p: v // g for p, v in x.items()}, scale // g, cols


def _subtract(target: Row, f: Scalar, row: Row) -> None:
    """target -= f * row in place, dropping entries that cancel."""
    for j, y in row.items():
        x = target.get(j, 0) - f * y
        if x:
            target[j] = x
        else:
            del target[j]


def _eliminate(v: dict[int, int], row: dict[int, int], pivot: int) -> None:
    """v <- m*v - c*row in place, with c = v[pivot] and m = row[pivot],
    both divided by gcd(c, m): v then vanishes at the pivot of `row`. A
    pivot entry is positive, so m > 0 keeps the signs of v's other entries."""
    c, d = v[pivot], row[pivot]
    if d != 1:
        g = gcd(c, d)
        c //= g
        m = d // g
        if m != 1:
            for j in v:
                v[j] *= m
    _subtract(v, c, row)


def _make_primitive(row: dict[int, int], pivot: int) -> None:
    """Divide row in place by the gcd of its entries, signed so that its
    pivot entry comes out positive."""
    lead = row[pivot]
    if lead != 1:
        g = gcd(*row.values())
        if lead < 0:
            g = -g
        if g != 1:
            for j in row:
                row[j] //= g


class RowSpan:
    """Row space kept in fraction-free reduced echelon form; the package's
    one Gaussian elimination.

    Rows go in as sparse rows of ints and Fractions; a row with a Fraction
    is scaled by the lcm of its denominators once, on entry, and an
    all-int row is copied as it is. Each stored row is a primitive
    integer row {column: int} keyed by its pivot: gcd 1, a positive entry
    at its own pivot, 0 at every other pivot and left of its pivot. So the
    stored row divided by its pivot entry is the row of the reduced echelon
    form, which the readers (`rref`, `nullspace`) read as
    row[j] / row[pivot]. One step, `_eliminate`, clears a pivot column
    with integer arithmetic; no Fraction is built inside the elimination.
    It reduces a new row against the stored rows, and back-substitutes a
    new pivot into each stored row that holds its column.

    The holonomy closure uses `add` for exact rank growth (True when the
    row enlarges the span); `rref` and `nullspace` are built on `_insert`.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Row) -> dict[int, int]:
        """vec reduced against the stored rows, as an integer row: a
        positive multiple of the rational reduced vector."""
        if _INT.issuperset(map(type, vec.values())):  # every type(x) is int
            v = dict(vec)
        else:
            scale = lcm(*[x.denominator for x in vec.values()])
            v = {j: x.numerator * (scale // x.denominator) for j, x in vec.items()}
        rows = self._rows
        # Stored rows vanish at every other pivot, so one pass clears them all.
        for pivot in [j for j in v if j in rows]:
            _eliminate(v, rows[pivot], pivot)
        return v

    def _insert(self, vec: Row) -> int | None:
        """Add vec; return its new pivot, or None when vec already lies in
        the span."""
        v = self._reduce(vec)
        if not v:
            return None
        pivot = min(v)
        _make_primitive(v, pivot)
        for p, row in self._rows.items():
            if pivot in row:
                _eliminate(row, v, pivot)
                _make_primitive(row, p)
        self._rows[pivot] = v
        return pivot

    def add(self, vec: Row) -> bool:
        return self._insert(vec) is not None
