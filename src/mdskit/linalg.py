"""Exact dense linear algebra over finite fields.

One Gaussian-elimination routine, :func:`eliminate`, does every row
reduction in mdskit.  It works on plain lists of rows through a backend
with two row operations (subtract a multiple of the pivot row, scale a row;
both from the pivot column on) and the multiply, negate and inverse that
pivoting needs.  :class:`FieldOps` computes with FieldElements and serves
MatrixF; :class:`TableOps` computes with a small field's canonical indices
through the tables its FieldSpec builds once; :class:`ModPOps` computes with
ints modulo a prime, for the generic oracle field.  No floating point is
involved anywhere.  Matrices are immutable.  Kernel bases are canonical:
one vector per free column in increasing column order, with a unit in the
free position, so tests can compare bases literally.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotSquareError,
    SizeConstraintError,
)
from .fields import FieldElement, FieldSpec

__all__ = [
    "MatrixF",
    "FieldOps",
    "TableOps",
    "ModPOps",
    "eliminate",
    "null_basis",
    "det",
    "rank",
    "rref",
    "kernel",
    "solve",
    "subspace_intersection_dim",
    "block_mds_matrix",
]


# -- backends ----------------------------------------------------------------------


class FieldOps:
    """Entries are FieldElements of one field."""

    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def __init__(self, field: FieldSpec):
        self.zero, self.one = field.zero, field.one

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def sub_multiple(row, top, f, start):
        out = row[:]
        for j in range(start, len(row)):
            b = top[j]
            if b:  # a zero in the pivot row leaves the entry as it is
                out[j] = row[j] - f * b
        return out

    @staticmethod
    def scale(row, c, start):
        out = row[:]
        for j in range(start, len(row)):
            if row[j]:
                out[j] = c * row[j]
        return out


class TableOps:
    """Entries are canonical indices of a small field; arithmetic is lookup."""

    zero, one = 0, 1

    def __init__(self, field: FieldSpec):
        t = self.tables = field.index_tables()
        self.neg, self.inv = t.neg.__getitem__, t.inv.__getitem__

    def mul(self, a, b):
        return self.tables.mul[a][b]

    def sub_multiple(self, row, top, f, start):
        t = self.tables
        add, times = t.add, t.mul[t.neg[f]]
        out = row[:]
        for j in range(start, len(row)):
            out[j] = add[row[j]][times[top[j]]]
        return out

    def scale(self, row, c, start):
        times = self.tables.mul[c]
        out = row[:]
        for j in range(start, len(row)):
            out[j] = times[row[j]]
        return out


class ModPOps:
    """Entries are ints modulo a prime p, kept in 0..p-1."""

    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def sub_multiple(self, row, top, f, start):
        p = self.p
        out = row[:]
        for j in range(start, len(row)):
            out[j] = (row[j] - f * top[j]) % p
        return out

    def scale(self, row, c, start):
        p = self.p
        out = row[:]
        for j in range(start, len(row)):
            out[j] = c * row[j] % p
        return out


# -- the elimination routine ---------------------------------------------------------


def eliminate(rows: list, ops, reduced: bool = True) -> Tuple[List[int], object]:
    """Gaussian elimination of a list of row lists, in place.

    reduced=True gives the reduced row echelon form: each pivot row is
    scaled to a leading one and its column cleared in every other row.
    reduced=False, for a square matrix, only clears below each pivot and
    stops at the first column without one.  Returns the pivot columns and,
    when not reduced, the determinant (the signed product of the pivots,
    zero when a column has no pivot).
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: List[int] = []
    swaps = 0
    detv = ops.one
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = r
        while piv < m and not rows[piv][col]:
            piv += 1
        if piv == m:
            if reduced:
                continue
            return pivots, ops.zero
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        top = rows[r]
        pv = top[col]
        inv = None
        if reduced:
            inv = ops.inv(pv)
            top = rows[r] = ops.scale(top, inv, col)
        else:
            detv = ops.mul(detv, pv)
        for i in range(0 if reduced else r + 1, m):
            f = rows[i][col]
            if not f or i == r:
                continue
            if not reduced:
                # the inverse is taken only when some row below needs it
                if inv is None:
                    inv = ops.inv(pv)
                f = ops.mul(f, inv)
            rows[i] = ops.sub_multiple(rows[i], top, f, col)
        pivots.append(col)
    return pivots, ops.neg(detv) if swaps % 2 else detv


def null_basis(rows: Sequence[Sequence], ncols: int, ops) -> List[list]:
    """Canonical right-kernel basis of the matrix with these rows and ncols
    columns: one vector per free column, in increasing order, unit there."""
    rows = [list(r) for r in rows]
    pivots, _ = eliminate(rows, ops)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ops.zero] * ncols
        vec[free] = ops.one
        for r, pc in enumerate(pivots):
            vec[pc] = ops.neg(rows[r][free])
        basis.append(vec)
    return basis


class MatrixF:
    """An immutable matrix over a FieldSpec."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence]):
        self.field = field
        coerced = tuple(
            tuple(field.element(v) for v in row) for row in rows
        )
        self.nrows = len(coerced)
        self.ncols = len(coerced[0]) if coerced else 0
        for row in coerced:
            if len(row) != self.ncols:
                raise DimensionMismatchError("ragged rows")
        self.rows = coerced

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixF":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, field: FieldSpec, r: int, c: int) -> "MatrixF":
        return cls(field, [[field.zero] * c for _ in range(r)])

    def __getitem__(self, ij: Tuple[int, int]) -> FieldElement:
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Tuple[FieldElement, ...]:
        return self.rows[i]

    def col(self, j: int) -> Tuple[FieldElement, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "MatrixF":
        return MatrixF(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatrixF":
        return MatrixF(
            self.field, [[self.rows[i][j] for j in cols] for i in rows]
        )

    def __matmul__(self, other: "MatrixF") -> "MatrixF":
        if self.field != other.field:
            raise FieldMismatchError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"inner dimensions {self.ncols} and {other.nrows} differ"
            )
        z = self.field.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for t in range(self.ncols):
                    a = self.rows[i][t]
                    b = other.rows[t][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return MatrixF(self.field, out)

    def mul_vector(self, vec: Sequence[FieldElement]) -> Tuple[FieldElement, ...]:
        if len(vec) != self.ncols:
            raise DimensionMismatchError("vector length differs from column count")
        z = self.field.zero
        out = []
        for i in range(self.nrows):
            acc = z
            for t in range(self.ncols):
                a = self.rows[i][t]
                if a and vec[t]:
                    acc = acc + a * vec[t]
            out.append(acc)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixF):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e.to_int()) for e in row) for row in self.rows
        )
        return f"MatrixF({self.nrows}x{self.ncols} over {self.field!r}: {body})"


def det(m: MatrixF) -> FieldElement:
    """Determinant by elimination; the empty matrix has determinant one."""
    if m.nrows != m.ncols:
        raise NotSquareError(f"{m.nrows}x{m.ncols} matrix has no determinant")
    return eliminate([list(r) for r in m.rows], FieldOps(m.field), reduced=False)[1]


def rref(m: MatrixF) -> Tuple[MatrixF, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in m.rows]
    pivots, _ = eliminate(rows, FieldOps(m.field))
    return MatrixF(m.field, rows), tuple(pivots)


def rank(m: MatrixF) -> int:
    return len(rref(m)[1])


def kernel(m: MatrixF) -> List[Tuple[FieldElement, ...]]:
    """Canonical right-kernel basis: one vector per free column, unit there."""
    return [tuple(v) for v in null_basis(m.rows, m.ncols, FieldOps(m.field))]


def solve(m: MatrixF, b: Sequence[FieldElement]) -> Optional[Tuple[FieldElement, ...]]:
    """One solution of m x = b with free variables set to zero, or None."""
    if len(b) != m.nrows:
        raise DimensionMismatchError("right-hand side length differs from row count")
    f = m.field
    aug = [list(m.rows[i]) + [f.element(b[i])] for i in range(m.nrows)]
    if not aug:
        return tuple()
    pivots, _ = eliminate(aug, FieldOps(f))
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [f.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][m.ncols]
    return tuple(x)


def subspace_intersection_dim(bases: Sequence[MatrixF]) -> int:
    """Dimension of the intersection of column spaces.

    The intersection is the orthogonal complement of the sum of the
    complements, so its dimension is the ambient dimension minus the rank
    of every basis's normal vectors stacked; the normals of a span are the
    kernel of its columns taken as rows.
    """
    if not bases:
        raise DimensionMismatchError("need at least one subspace")
    field = bases[0].field
    ambient = bases[0].nrows
    for b in bases[1:]:
        if b.field != field:
            raise FieldMismatchError("subspace bases over different fields")
        if b.nrows != ambient:
            raise DimensionMismatchError("subspaces of different ambient spaces")
    ops = FieldOps(field)
    normals = [
        v
        for b in bases
        for v in null_basis([b.col(j) for j in range(b.ncols)], ambient, ops)
    ]
    return ambient - (rank(MatrixF(field, normals)) if normals else 0)


def block_mds_matrix(v: MatrixF, sets: Sequence[Sequence[int]]) -> MatrixF:
    """The square certificate matrix for an intersection of column spans.

    For a k x n matrix and index sets A_1..A_l with |A_i| <= k and
    sum |A_i| = (l-1) k, builds the (l k) x (l k) matrix whose row block i
    is [I_k | 0 .. | v restricted to A_i | .. 0]; it is singular exactly
    when the column spans of the A_i intersect nontrivially, provided each
    restriction has full column rank.
    """
    k = v.nrows
    n = v.ncols
    ell = len(sets)
    norm = [sorted(a) for a in sets]
    total = sum(len(a) for a in norm)
    if ell < 1:
        raise SizeConstraintError("need at least one index set")
    for a in norm:
        if len(set(a)) != len(a):
            raise SizeConstraintError("index sets cannot repeat elements")
        if len(a) > k:
            raise SizeConstraintError(f"set of size {len(a)} exceeds k={k}")
        if any(i < 0 or i >= n for i in a):
            raise SizeConstraintError("column index out of range")
    if total != (ell - 1) * k:
        raise SizeConstraintError(
            f"sizes sum to {total}, need (l-1)k = {(ell - 1) * k}"
        )
    f = v.field
    size = ell * k
    rows = [[f.zero] * size for _ in range(size)]
    for b in range(ell):
        for i in range(k):
            rows[b * k + i][i] = f.one
    offset = k
    for b, a in enumerate(norm):
        for j, colidx in enumerate(a):
            for i in range(k):
                rows[b * k + i][offset + j] = v[i, colidx]
        offset += len(a)
    return MatrixF(f, rows)
