"""Gaussian elimination suite: frozen examples, properties, exhaustive oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdskit.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotSquareError,
    SizeConstraintError,
)
from mdskit.codes import GENERIC_ORACLE_PRIME
from mdskit.fields import extend_binomial_chain, field_make
from mdskit.linalg import (
    TABLE_ORDER_LIMIT,
    LevelOps,
    MatrixF,
    ModPOps,
    PackedOps,
    TableOps,
    block_mds_matrix,
    det,
    eliminate,
    field_ops,
    kernel,
    null_basis,
    rank,
    rref,
    solve,
    subspace_intersection_dim,
)
from reference_ops import FieldOps

F3 = field_make(3)
F7 = field_make(7)
F13 = field_make(13)


def test_vandermonde_rank():
    m = MatrixF(F7, [[1, 1, 1], [1, 2, 3]])
    assert rank(m) == 2


def test_kernel_frozen_example():
    m = MatrixF(F7, [[1, 1, 1], [0, 1, 2]])
    basis = kernel(m)
    assert len(basis) == 1
    assert tuple(e.to_int() for e in basis[0]) == (1, 5, 1)


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(3)]
        m = MatrixF(F7, rows)
        basis = kernel(m)
        assert len(basis) == 5 - rank(m)
        for v in basis:
            assert all(e.is_zero() for e in m.mul_vector(v))


def test_det_vandermonde_formula():
    pts = [2, 5, 6, 1]
    m = MatrixF(F7, [[F7.element(x) ** i for x in pts] for i in range(4)])
    expected = F7.one
    for i in range(4):
        for j in range(i + 1, 4):
            expected = expected * (F7.element(pts[j]) - F7.element(pts[i]))
    assert det(m) == expected


def test_det_identity_and_swap():
    assert det(MatrixF.identity(F7, 4)) == F7.one
    m = MatrixF(F7, [[0, 1], [1, 0]])
    assert det(m) == F7.element(-1)


def test_det_empty_matrix_is_one():
    assert det(MatrixF(F7, [])) == F7.one


def test_det_singular():
    m = MatrixF(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert det(m).is_zero()
    assert rank(m) == 2


def test_det_requires_square():
    with pytest.raises(NotSquareError):
        det(MatrixF(F7, [[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=18, max_size=18))
def test_det_multiplicative(vals):
    a = MatrixF(F7, [vals[0:3], vals[3:6], vals[6:9]])
    b = MatrixF(F7, [vals[9:12], vals[12:15], vals[15:18]])
    assert det(a @ b) == det(a) * det(b)


def test_rref_idempotent_and_pivots():
    m = MatrixF(F7, [[2, 4, 1], [1, 2, 3]])
    r, pivots = rref(m)
    assert pivots == (0, 2)
    r2, pivots2 = rref(r)
    assert r2 == r and pivots2 == pivots


def test_solve_consistent():
    m = MatrixF(F7, [[1, 2], [3, 4], [4, 6]])
    x = (F7.element(2), F7.element(5))
    b = m.mul_vector(x)
    got = solve(m, b)
    assert got is not None
    assert m.mul_vector(got) == b


def test_solve_inconsistent():
    m = MatrixF(F7, [[1, 1], [2, 2]])
    assert solve(m, [F7.element(1), F7.element(3)]) is None


def test_solve_dimension_check():
    m = MatrixF(F7, [[1, 1]])
    with pytest.raises(DimensionMismatchError):
        solve(m, [F7.one, F7.one])


def test_matmul_shape_check():
    a = MatrixF(F7, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        a @ a
    with pytest.raises(FieldMismatchError):
        a @ MatrixF(F3, [[1], [1]])


# -- the chosen backend against the FieldElement backend ----------------------------

F9 = field_make(3, [2])
F16 = field_make(2, [4])
F81 = field_make(3, [4])  # above the table limit
F729 = field_make(3, [2, 3])  # a two-level tower above the table limit
F3_42 = field_make(3, [4, 2])  # over the packed field GF(81)
F256 = field_make(2, [2, 2, 2])  # over the table field GF(16)
F5_322 = field_make(5, [3, 2, 2])  # a level backend over a level backend
FP = field_make(GENERIC_ORACLE_PRIME)
F67 = field_make(67)


def test_field_ops_picks_backend_by_field():
    assert F16.order <= TABLE_ORDER_LIMIT < F67.order < F81.order < F729.order
    for field, backend in [
        (F7, TableOps), (F67, ModPOps), (FP, ModPOps), (F9, TableOps),
        (F16, TableOps), (F81, PackedOps), (F729, LevelOps),
    ]:
        assert type(field_ops(field)) is backend
        assert field_ops(field) is field_ops(field)


@st.composite
def _matrices(draw, field):
    """Random matrices, about half of them rank-deficient: a product of
    factors of lower inner dimension, or rows copied or zeroed."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.integers(0, field.order - 1).map(field.from_int)

    def block(r, c):
        return MatrixF(field, [[draw(entry) for _ in range(c)] for _ in range(r)])

    kind = draw(st.sampled_from(["random", "low-rank", "copied-rows"]))
    if kind == "low-rank":
        inner = draw(st.integers(0, max(0, min(nr, nc) - 1)))
        if inner == 0:
            return MatrixF.zeros(field, nr, nc)
        return block(nr, inner) @ block(inner, nc)
    m = block(nr, nc)
    if kind == "copied-rows":
        rows = list(m.rows)
        for i in range(nr):
            src = draw(st.integers(-1, nr - 1))
            rows[i] = [field.zero] * nc if src < 0 else rows[src]
        m = MatrixF(field, rows)
    return m


def _field_rref(rows, ops):
    rows = [list(r) for r in rows]
    pivots, _ = eliminate(rows, ops)
    return rows, pivots


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_functions_match_field_backend(data):
    """det, rank, rref, kernel, solve and subspace_intersection_dim through
    the backend field_ops picks equal FieldOps elimination, over GF(7),
    GF(9), GF(13), GF(16), the generic oracle prime, GF(81) and the
    towers (2, 3) and (4, 2) over GF(3), (2, 2, 2) over GF(2) and (3, 2, 2)
    over GF(5)."""
    field = data.draw(
        st.sampled_from([F7, F9, F13, F16, FP, F81, F729, F3_42, F256, F5_322])
    )
    m = data.draw(_matrices(field))
    ops = FieldOps(field)
    want_rows, want_pivots = _field_rref(m.rows, ops)
    red, pivots = rref(m)
    assert pivots == tuple(want_pivots)
    assert red.rows == tuple(map(tuple, want_rows))
    assert rank(m) == len(want_pivots)
    assert kernel(m) == [tuple(v) for v in null_basis(m.rows, m.ncols, ops)]

    s = min(m.nrows, m.ncols)
    sq = m.submatrix(range(s), range(s))
    assert det(sq) == eliminate([list(r) for r in sq.rows], ops, reduced=False)[1]

    if data.draw(st.booleans()):  # consistent right-hand side
        x = [field.from_int(data.draw(st.integers(0, field.order - 1)))
             for _ in range(m.ncols)]
        b = m.mul_vector(x)
    else:
        b = m.col(data.draw(st.integers(0, m.ncols - 1)))
        b = tuple(e + field.one for e in b)
    aug, piv = _field_rref([list(r) + [e] for r, e in zip(m.rows, b)], ops)
    want = None
    if not (piv and piv[-1] == m.ncols):
        want = [field.zero] * m.ncols
        for r, pc in enumerate(piv):
            want[pc] = aug[r][m.ncols]
        want = tuple(want)
    assert solve(m, b) == want

    subsets = data.draw(
        st.lists(
            st.lists(st.integers(0, m.ncols - 1), unique=True, max_size=m.ncols),
            min_size=1,
            max_size=3,
        )
    )
    bases = [m.submatrix(range(m.nrows), a) for a in subsets]
    normals = [
        v
        for b in bases
        for v in null_basis([b.col(j) for j in range(b.ncols)], m.nrows, ops)
    ]
    want_dim = m.nrows - len(_field_rref(normals, ops)[1])
    assert subspace_intersection_dim(bases) == want_dim


def test_chain_matrix_functions_match_field_backend():
    """det, rref, kernel and solve over a binomial chain of three levels of
    degree 8 over GF(5), on sparse entries, equal FieldOps elimination."""
    F5 = field_make(5)
    field = extend_binomial_chain(F5, F5.from_int(2), 8, 3)
    assert type(field_ops(field)) is LevelOps
    ops = FieldOps(field)
    rng = random.Random(8)

    def entry():
        c = [0] * field.D
        for _ in range(rng.randrange(3)):
            c[rng.randrange(field.D)] = rng.randrange(1, 5)
        return field.element(c)

    for _ in range(3):
        m = MatrixF(field, [[entry() for _ in range(3)] for _ in range(2)])
        want_rows, want_pivots = _field_rref(m.rows, ops)
        assert rref(m) == (MatrixF(field, want_rows), tuple(want_pivots))
        assert kernel(m) == [tuple(v) for v in null_basis(m.rows, m.ncols, ops)]
        sq = m.submatrix(range(2), range(2))
        assert det(sq) == eliminate([list(r) for r in sq.rows], ops, reduced=False)[1]
        x = tuple(entry() for _ in range(3))
        got = solve(m, m.mul_vector(x))
        assert got is not None and m.mul_vector(got) == m.mul_vector(x)


# -- subspace intersections -----------------------------------------------------


def _span(field, m):
    cols = [m.col(j) for j in range(m.ncols)]
    vecs = set()
    for coeffs in itertools.product(range(field.order), repeat=len(cols)):
        acc = [field.zero] * m.nrows
        for c, col in zip(coeffs, cols):
            ce = field.from_int(c)
            acc = [a + ce * v for a, v in zip(acc, col)]
        vecs.add(tuple(e.to_int() for e in acc))
    return vecs


def test_intersection_matches_exhaustive_oracle_q3():
    rng = random.Random(31)
    for trial in range(30):
        nsub = rng.choice([2, 2, 3])
        mats = []
        for _ in range(nsub):
            nc = rng.randrange(1, 4)
            mats.append(
                MatrixF(F3, [[rng.randrange(3) for _ in range(nc)] for _ in range(4)])
            )
        got = subspace_intersection_dim(mats)
        common = set.intersection(*[_span(F3, m) for m in mats])
        # intersection of subspaces is a subspace: size 3^dim
        assert len(common) == 3**got, f"trial {trial}"


def test_intersection_order_independent():
    rng = random.Random(77)
    for _ in range(10):
        mats = [
            MatrixF(F7, [[rng.randrange(7) for _ in range(2)] for _ in range(4)])
            for _ in range(3)
        ]
        dims = {
            subspace_intersection_dim([mats[i] for i in perm])
            for perm in itertools.permutations(range(3))
        }
        assert len(dims) == 1


def test_intersection_with_self_and_zero():
    m = MatrixF(F7, [[1, 0], [0, 1], [1, 1]])
    assert subspace_intersection_dim([m, m]) == 2
    z = MatrixF(F7, [[], [], []])
    assert subspace_intersection_dim([m, z]) == 0


def test_intersection_validation():
    m = MatrixF(F7, [[1], [0]])
    with pytest.raises(DimensionMismatchError):
        subspace_intersection_dim([])
    with pytest.raises(FieldMismatchError):
        subspace_intersection_dim([m, MatrixF(F3, [[1], [0]])])
    with pytest.raises(DimensionMismatchError):
        subspace_intersection_dim([m, MatrixF(F7, [[1], [0], [0]])])


# -- the block certificate matrix ------------------------------------------------


def _rs_matrix(field, k, pts):
    return MatrixF(field, [[field.element(x) ** i for x in pts] for i in range(k)])


def test_block_matrix_layout():
    v = _rs_matrix(F7, 2, [1, 2, 3, 4])
    m = block_mds_matrix(v, [[1], [2]])
    assert (m.nrows, m.ncols) == (4, 4)
    ints = [[e.to_int() for e in row] for row in m.rows]
    assert ints == [
        [1, 0, 1, 0],
        [0, 1, 2, 0],
        [1, 0, 0, 1],
        [0, 1, 0, 3],
    ]


def test_block_matrix_detects_intersection():
    v = _rs_matrix(F7, 2, [1, 2, 3, 4])
    # three sets sharing column 1: the intersection is that line
    m = block_mds_matrix(v, [[0, 1], [1], [1]])
    assert det(m).is_zero()
    # two distinct lines inside the plane spanned by {0,1}: intersection 0
    m2 = block_mds_matrix(v, [[0, 1], [1], [2]])
    assert not det(m2).is_zero()
    # the empty set spans the zero subspace, forcing a trivial intersection
    m3 = block_mds_matrix(v, [[0, 1], [0, 1], []])
    assert not det(m3).is_zero()


def test_block_matrix_matches_intersection_dim():
    rng = random.Random(5)
    f = F13
    k, n = 3, 6
    for _ in range(60):
        v = MatrixF(f, [[rng.randrange(13) for _ in range(n)] for _ in range(k)])
        sets = []
        remaining = (2 - 1) * k  # two sets summing to k
        a = rng.randrange(0, k + 1)
        sets = [sorted(rng.sample(range(n), a)), None]
        sets[1] = sorted(rng.sample(range(n), k - a))
        mats = [v.submatrix(range(k), s) for s in sets]
        # block determinant test is valid only when each restriction has
        # full column rank
        if any(rank(m) < m.ncols for m in mats):
            continue
        m = block_mds_matrix(v, sets)
        assert det(m).is_zero() == (subspace_intersection_dim(mats) > 0)


def test_block_matrix_validation():
    v = _rs_matrix(F7, 2, [1, 2, 3, 4])
    with pytest.raises(SizeConstraintError):
        block_mds_matrix(v, [[0, 1], [2]])  # sizes sum to 3, need 2
    with pytest.raises(SizeConstraintError):
        block_mds_matrix(v, [[0, 1, 2], [3]])  # first set exceeds k
    with pytest.raises(SizeConstraintError):
        block_mds_matrix(v, [[0, 0], [1, 2]])  # repeated element
    with pytest.raises(SizeConstraintError):
        block_mds_matrix(v, [[0, 7], [1]])  # out of range
