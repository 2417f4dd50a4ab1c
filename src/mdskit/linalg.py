"""Exact dense linear algebra over finite fields.

One Gaussian-elimination routine, :func:`eliminate`, does every row
reduction in mdskit.  It works on plain lists of rows through a backend
with two row operations (subtract a multiple of the pivot row, scale a row;
both from the pivot column on) and the multiply, negate and inverse that
pivoting needs.  The four backends live in :mod:`mdskit.fields` and are
re-exported here: index tables (:class:`TableOps`) for every field of order
at most :data:`TABLE_ORDER_LIMIT`, ints mod p (:class:`ModPOps`) for every
larger prime field and the generic oracle field, Kronecker-packed ints
(:class:`PackedOps`) for every larger single-level extension of a prime
field, and polynomials over the level below (:class:`LevelOps`) for the
larger multi-level towers.

:func:`field_ops` picks the backend from the field alone, and ``det``,
``rank``, ``rref``, ``kernel``, ``solve`` and ``subspace_intersection_dim``
encode their MatrixF input through it, eliminate, and decode the result.
:func:`block_mds_matrix` builds the (l k) x (l k) block certificate of a
span intersection; ``mdscheck`` decides MDS(l) by a k x k stack of normal
vectors instead, and the tests keep the block matrix as its reference.

No floating point is involved anywhere.  Matrices are immutable.  Kernel
bases are canonical: one vector per free column in increasing column order,
with a unit in the free position, so tests can compare bases literally.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotSquareError,
    SizeConstraintError,
)
from .fields import (
    TABLE_ORDER_LIMIT,
    FieldElement,
    FieldSpec,
    LevelOps,
    ModPOps,
    PackedOps,
    TableOps,
    field_ops,
)

__all__ = [
    "MatrixF",
    "LevelOps",
    "TableOps",
    "ModPOps",
    "PackedOps",
    "TABLE_ORDER_LIMIT",
    "field_ops",
    "eliminate",
    "null_basis",
    "intersection_dim",
    "det",
    "rank",
    "rref",
    "kernel",
    "solve",
    "subspace_intersection_dim",
    "block_mds_matrix",
]


def _encode_rows(ops, rows) -> List[list]:
    enc = ops.encode
    return [[enc(a) for a in row] for row in rows]


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


def intersection_dim(spans: Sequence[Sequence[Sequence]], ambient: int, ops) -> int:
    """Dimension of the intersection of the spans of some vector sets, each
    a list of vectors of length ambient in the backend's encoding.

    The intersection is the orthogonal complement of the sum of the
    complements, so its dimension is the ambient dimension minus the rank
    of every span's normal vectors stacked; the normals of a span are the
    kernel of its vectors taken as rows.
    """
    normals = [v for vecs in spans for v in null_basis(vecs, ambient, ops)]
    return ambient - len(eliminate(normals, ops)[0])


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
    ops = field_ops(m.field)
    return ops.decode(eliminate(_encode_rows(ops, m.rows), ops, reduced=False)[1])


def rref(m: MatrixF) -> Tuple[MatrixF, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    ops = field_ops(m.field)
    rows = _encode_rows(ops, m.rows)
    pivots, _ = eliminate(rows, ops)
    dec = ops.decode
    return MatrixF(m.field, [[dec(a) for a in row] for row in rows]), tuple(pivots)


def rank(m: MatrixF) -> int:
    ops = field_ops(m.field)
    return len(eliminate(_encode_rows(ops, m.rows), ops)[0])


def kernel(m: MatrixF) -> List[Tuple[FieldElement, ...]]:
    """Canonical right-kernel basis: one vector per free column, unit there."""
    ops = field_ops(m.field)
    basis = null_basis(_encode_rows(ops, m.rows), m.ncols, ops)
    return [tuple(map(ops.decode, v)) for v in basis]


def solve(m: MatrixF, b: Sequence[FieldElement]) -> Optional[Tuple[FieldElement, ...]]:
    """One solution of m x = b with free variables set to zero, or None."""
    if len(b) != m.nrows:
        raise DimensionMismatchError("right-hand side length differs from row count")
    f = m.field
    if not m.nrows:
        return tuple()
    ops = field_ops(f)
    aug = _encode_rows(ops, [row + (f.element(b[i]),) for i, row in enumerate(m.rows)])
    pivots, _ = eliminate(aug, ops)
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [ops.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][m.ncols]
    return tuple(map(ops.decode, x))


def subspace_intersection_dim(bases: Sequence[MatrixF]) -> int:
    """Dimension of the intersection of column spaces (see intersection_dim)."""
    if not bases:
        raise DimensionMismatchError("need at least one subspace")
    field = bases[0].field
    ambient = bases[0].nrows
    for b in bases[1:]:
        if b.field != field:
            raise FieldMismatchError("subspace bases over different fields")
        if b.nrows != ambient:
            raise DimensionMismatchError("subspaces of different ambient spaces")
    ops = field_ops(field)
    spans = [_encode_rows(ops, map(b.col, range(b.ncols))) for b in bases]
    return intersection_dim(spans, ambient, ops)


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
    size = ell * k
    zero, one = v.field.zero, v.field.one
    rows = [[zero] * size for _ in range(size)]
    offset = k
    for b, a in enumerate(norm):
        for i in range(k):
            row = rows[b * k + i]
            row[i] = one
            for j, colidx in enumerate(a):
                row[offset + j] = v.rows[i][colidx]
        offset += len(a)
    return MatrixF(v.field, rows)
