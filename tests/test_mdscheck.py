"""Verification-engine tests.

The independent oracle here is a test-local Gaussian elimination over
plain python ints mod p: actual span intersections computed from scratch,
with no block certificates, no product matrices, and no pairing
determinants.  Every fast path must agree with it on every qualifying
tuple.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mdskit.constructions import (
    build_general,
    build_k3_n3,
    build_k3_n4,
    build_k4,
    build_k5_weak,
)
from mdskit.codes import (
    GENERIC_ORACLE_PRIME,
    CodeSpec,
    SetTuple,
    explicit_code,
    generator_matrix,
    generically_zero,
    rs_code,
)
from mdskit.errors import (
    BudgetExceededError,
    NotMDSError,
    SizeConstraintError,
    WrongKindError,
)
from mdskit.fields import field_make, field_of_order
from mdskit.linalg import (
    MatrixF,
    ModPOps,
    PackedOps,
    TableOps,
    block_mds_matrix,
    det,
    eliminate,
    field_ops,
    null_basis,
    rank,
    rref,
    subspace_intersection_dim,
)
from mdskit import mdscheck
from mdskit.mdscheck import (
    CheckReport,
    _canonical_tuples,
    _det_nonzero,
    _first_intersecting,
    _mds3_configs,
    _mds3_count,
    _mds3_triples,
    _nonsingular_blocks,
    _pairings_of_six,
    _ProductMatrixContext,
    _product_matrix_det_nonzero,
    exhaustive_code_search,
    is_mds,
    is_mds3_rs_fast,
    is_mds_ell,
    lb_witness_projective,
    weak_reduce,
)
from reference_ops import FieldOps, rs_k3_sweep

F7 = field_make(7)
F11 = field_make(11)
F13 = field_make(13)
F9 = field_make(3, [2])
F81 = field_of_order(81)
F729 = field_make(3, [2, 3])  # a (2, 3) tower: the level backend
F16 = field_of_order(16)
F67 = field_make(67)
F243 = field_of_order(243)


def rs(field, points, k):
    return rs_code(field, [field.from_int(b) for b in points], k)


def span_of(code, cols):
    g = generator_matrix(code)
    return g.submatrix(range(code.k), sorted(cols))


# -- a from-scratch oracle over plain ints -------------------------------------------


def _int_rref(rows, p):
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(rows[i][j] - f * rows[r][j]) % p for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _int_rank(rows, p):
    return len(_int_rref(rows, p)[1]) if rows else 0


def _int_null_basis(rows, p):
    """Basis of the right kernel, as rows."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    red, pivots = _int_rref(rows, p)
    pivs = set(pivots)
    out = []
    for free in range(nc):
        if free in pivs:
            continue
        v = [0] * nc
        v[free] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-red[ri][free]) % p
        out.append(v)
    return out


def _int_span_intersection_dim(k, spans, p):
    """dim of the intersection of column spans, via stacked normals:
    dim = k - rank of the union of orthogonal complements."""
    normals = []
    for cols in spans:
        # rows of cols^T; kernel vectors are the normals of the span
        mat = [list(col) for col in cols]
        normals.extend(_int_null_basis(mat, p))
    if not normals:
        return k
    return k - _int_rank(normals, p)


def _int_cols(code, subset):
    g = generator_matrix(code)
    return [
        tuple(int(g[(r, c)].to_int()) for r in range(code.k)) for c in subset
    ]


def brute_mds3(code, p):
    """Definition-level MDS(3) over all ordered qualifying tuples."""
    if not is_mds(code).ok:
        return False
    n, k = code.n, code.k
    gcols = {
        s: list(itertools.combinations(range(n), s)) for s in range(1, k + 1)
    }
    colcache = {}

    def cols_of(subset):
        got = colcache.get(subset)
        if got is None:
            got = _int_cols(code, subset)
            colcache[subset] = got
        return got

    for profile in itertools.product(range(1, k + 1), repeat=3):
        if sum(profile) != 2 * k:
            continue
        for sets in itertools.product(*(gcols[s] for s in profile)):
            tup = SetTuple(sets, n, k)
            if not generically_zero(tup):
                continue
            dim = _int_span_intersection_dim(
                k, [cols_of(a) for a in tup.sets], p
            )
            if dim != 0:
                return False
    return True


def test_int_oracle_matches_library_gaussian():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randrange(2, 4)
        spans = []
        mats = []
        for _ in range(2):
            w = rng.randrange(1, k + 1)
            cols = [
                tuple(rng.randrange(7) for _ in range(k)) for _ in range(w)
            ]
            spans.append(cols)
            mats.append(
                MatrixF(F7, [[cols[j][i] for j in range(w)] for i in range(k)])
            )
        got = _int_span_intersection_dim(k, spans, 7)
        assert got == subspace_intersection_dim(mats)


# -- the shared elimination routine against the oracle, backend by backend ------------


def _int_matrix(data, q, max_rows=5, max_cols=6):
    nr = data.draw(st.integers(1, max_rows))
    nc = data.draw(st.integers(1, max_cols))
    entry = st.integers(0, q - 1)
    return data.draw(
        st.lists(
            st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr
        )
    )


def _square(ints):
    s = min(len(ints), len(ints[0]))
    return [row[:s] for row in ints[:s]]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_backend_matches_field_backend_and_int_oracle(data):
    """rref, pivots, kernel, rank and det through the table backend equal
    the FieldElement backend over GF(5), GF(13), GF(4) and GF(9), and the
    from-scratch int oracle over the prime fields."""
    field = data.draw(
        st.sampled_from([F13, field_make(5), field_make(2, [2]), field_make(3, [2])])
    )
    ints = _int_matrix(data, field.order)
    nc = len(ints[0])
    m = MatrixF(field, [[field.from_int(v) for v in row] for row in ints])
    fops = FieldOps(field)
    red = [list(r) for r in m.rows]
    pivots, _ = eliminate(red, fops)
    ops = TableOps(field)
    rows = [list(r) for r in ints]
    got_pivots, _ = eliminate(rows, ops)
    assert got_pivots == pivots and rank(m) == len(pivots)
    assert rows == [[e.to_int() for e in r] for r in red]
    want_kernel = null_basis(m.rows, nc, fops)
    assert null_basis(ints, nc, ops) == [[e.to_int() for e in v] for v in want_kernel]
    sq = _square(ints)
    sq_elems = [[field.from_int(v) for v in r] for r in sq]
    want_det = eliminate(sq_elems, fops, reduced=False)[1]
    assert eliminate([list(r) for r in sq], ops, reduced=False)[1] == want_det.to_int()
    if field.D == 1:
        want_rows, want_pivots = _int_rref(ints, field.p)
        assert got_pivots == want_pivots and rows == want_rows
        assert null_basis(ints, nc, ops) == _int_null_basis(ints, field.p)
        assert want_det.is_zero() == (_int_rank(sq, field.p) < len(sq))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modp_backend_matches_int_oracle(data):
    """The mod-p backend against the int oracle, including the generic
    oracle's prime above 2^31, and its determinant against the FieldElement
    backend."""
    p = data.draw(st.sampled_from([5, 13, GENERIC_ORACLE_PRIME]))
    ints = _int_matrix(data, p)
    field = field_make(p)
    ops = ModPOps(field)
    rows = [list(r) for r in ints]
    got_pivots, _ = eliminate(rows, ops)
    want_rows, want_pivots = _int_rref(ints, p)
    assert got_pivots == want_pivots and rows == want_rows
    assert null_basis(ints, len(ints[0]), ops) == _int_null_basis(ints, p)
    sq = _square(ints)
    d = eliminate([list(r) for r in sq], ops, reduced=False)[1]
    sq_elems = [[field.element(v) for v in r] for r in sq]
    assert d == eliminate(sq_elems, FieldOps(field), reduced=False)[1].to_int()
    assert (d == 0) == (_int_rank(sq, p) < len(sq))


# -- the MDS(l) tuple loop against a per-tuple MatrixF reference --------------------


def _is_mds_ell_reference(code, ell):
    """is_mds_ell's (ok, tuples, witness), one block_mds_matrix per tuple,
    eliminated with FieldElements."""
    base = is_mds(code)
    if not base.ok:
        return False, base.tuples, base.witness
    if ell <= 2:
        return True, base.tuples, None
    g = generator_matrix(code)
    ops = FieldOps(code.field)
    count = 0
    cap = code.k - 1 if ell == 3 else code.k
    for sets in _canonical_tuples(code.n, code.k, ell, cap):
        tup = SetTuple(sets, code.n, code.k)
        if not generically_zero(tup):
            continue
        count += 1
        rows = [list(r) for r in block_mds_matrix(g, tup.sets).rows]
        if not eliminate(rows, ops, reduced=False)[1]:
            return False, count, tup
    return True, count, None


# (l, k, n): the k = 1, 2 and n = k edges, and sizes where a scaled
# Reed-Solomon code can fail MDS(3) at a tuple; the l = 4 sweeps grow fast
# with n, so they stop where the reference takes about a second
ELL_CASES = [
    (3, 1, 1), (3, 1, 4), (3, 2, 2), (3, 2, 6), (3, 3, 3), (3, 3, 6), (3, 3, 7),
    (3, 4, 4), (3, 4, 5), (4, 1, 3), (4, 2, 2), (4, 2, 5), (4, 3, 3), (4, 3, 4),
]


@pytest.mark.parametrize("q", [7, 9, 13, 81])
def test_is_mds_ell_matches_per_tuple_reference(q):
    """Random codes: scaled Reed-Solomon codes (MDS, MDS(3) or not), half of
    them with one column overwritten by another or by random entries (often
    not MDS).  Verdict, tuple count and witness must equal the reference.
    GF(7) and GF(13) run on the mod-p backend, GF(9) on index tables and
    GF(81) on packed ints; the reference eliminates FieldElements, slow
    enough over GF(81) to keep it to one code per case."""
    field = {7: F7, 9: F9, 13: F13, 81: F81}[q]
    rng = random.Random(q)
    for ell, k, n in ELL_CASES:
        for _ in range(1 if q == 81 else 4):
            vand = generator_matrix(rs(field, rng.sample(range(q), n), k))
            scale = [field.from_int(rng.randrange(1, q)) for _ in range(n)]
            rows = [[s * e for s, e in zip(scale, row)] for row in vand.rows]
            if rng.random() < 0.5:
                j, src = rng.randrange(n), rng.randrange(-1, n)
                for row in rows:
                    row[j] = row[src] if src >= 0 else field.from_int(rng.randrange(q))
            m = MatrixF(field, rows)
            if rank(m) < k:
                continue
            code = explicit_code(field, m)
            rep = is_mds_ell(code, ell)
            assert (rep.ok, rep.tuples, rep.witness) == _is_mds_ell_reference(code, ell)


def _random_mds_code(field, k, n, rng, planted=False):
    """A random explicit MDS code; planted (k = 3, n >= 6) makes the
    column pairs (0, 1), (2, 3) and (4, 5) span planes through one vector,
    so that disjoint triple meets and the code fails MDS(3) at it or
    earlier."""
    rand = lambda: field.from_int(rng.randrange(field.order))
    while True:
        cols = [[rand() for _ in range(k)] for _ in range(n)]
        if planted:
            v = [rand() for _ in range(k)]
            for j in (1, 3, 5):
                c = rand()
                cols[j] = [a + c * b for a, b in zip(v, cols[j - 1])]
        m = MatrixF(field, [[col[i] for col in cols] for i in range(k)])
        if rank(m) == k:
            code = explicit_code(field, m)
            if is_mds(code).ok:
                return code


@pytest.mark.parametrize("q", [16, 67, 243, 729])
def test_is_mds_ell_skips_only_settled_triples(q):
    """Random explicit [6, 3] and [7, 3] MDS codes, not Reed-Solomon, on
    index tables (GF(16)), ints mod p (GF(67)), packed ints (GF(243)) and
    the level backend (the (2, 3) tower GF(3^6)).  is_mds_ell(., 3)
    counts every filtered triple but certifies only those _mds3_triples
    leaves open; its verdict, count and witness must equal the reference,
    which certifies every triple.  The planted [7, 3] code fails at a
    disjoint triple that comes after settled ones, so skipped triples are
    counted before the witness.  k >= 4 is compared on Reed-Solomon codes
    in test_rs3_fast_path_matches_engine_and_block_reference."""
    field = {16: F16, 67: F67, 243: F243, 729: F729}[q]
    rng = random.Random(q)
    late = 0
    for k, n, planted in [(3, 6, False), (3, 6, False), (3, 7, True)]:
        code = _random_mds_code(field, k, n, rng, planted)
        rep = is_mds_ell(code, 3)
        assert (rep.ok, rep.tuples, rep.witness) == _is_mds_ell_reference(code, 3)
        if not rep.ok:
            before = itertools.islice(_mds3_triples(n, k), rep.tuples - 1)
            late += any(reduced is None for _, (_, reduced) in before)
    assert late


def test_settled_triples_never_meet_on_random_mds_codes():
    """The lemma in _mds3_triples' docstring: in an MDS code the
    column spans of every triple it settles meet only in zero, whether or
    not the code is MDS(3).  Most of these codes over GF(67) fail MDS(3),
    so other triples do meet.  Each code checks a sample of 300 of its
    settled triples (there are 380 at [6, 3] and 73,360 at [8, 5])."""
    rng = random.Random(5)
    failing = 0
    for k, n in [(3, 6), (3, 7), (4, 7), (4, 8), (5, 8)]:
        settled = [sets for sets, (_, red) in _mds3_triples(n, k) if red is None]
        for _ in range(2):
            code = _random_mds_code(F67, k, n, rng)
            g = generator_matrix(code)
            for sets in rng.sample(settled, 300):
                spans = [g.submatrix(range(k), a) for a in sets]
                assert subspace_intersection_dim(spans) == 0, sets
            failing += not is_mds_ell(code, 3).ok
    assert failing


# -- report formatting ------------------------------------------------------------


def test_report_line_format():
    r = CheckReport("mds3", True, 105)
    assert r.to_line() == "property=mds3 verdict=pass tuples=105"


def test_report_line_with_witness():
    w = SetTuple(((0, 1), (2, 3), (4, 5)), 6, 3)
    r = CheckReport("mds3-rs", False, 7, w)
    assert r.to_line() == "property=mds3-rs verdict=fail tuples=7 witness=0,1;2,3;4,5"


# -- is_mds -----------------------------------------------------------------------


def test_rs_code_is_mds():
    rep = is_mds(rs(F7, [0, 1, 2, 3, 4], 3))
    assert rep.ok
    assert rep.tuples == 10  # C(5,3)


def test_explicit_repeated_column_fails_with_pair_witness():
    rows = [[1, 0, 1, 2], [0, 1, 0, 3]]
    code = explicit_code(F7, rows)
    rep = is_mds(code)
    assert not rep.ok
    assert rep.witness is not None
    assert rep.witness.sets == ((0, 2),)


def test_mds_agrees_with_minor_bruteforce():
    rng = random.Random(5)
    done = 0
    while done < 20:
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(2)]
        try:
            code = explicit_code(F7, rows)
        except Exception:
            continue
        done += 1
        cols = _int_cols(code, tuple(range(5)))
        expect = all(
            _int_rank([list(cols[a]), list(cols[b])], 7) == 2
            for a, b in itertools.combinations(range(5), 2)
        )
        assert is_mds(code).ok == expect


def _is_mds_reference(code):
    """is_mds's (ok, tuples, witness) on an explicit code from the det and
    rank of MatrixF submatrices: the first singular k x k minor, shrunk by
    dropping a column while the rest stays dependent."""
    g, n, k = generator_matrix(code), code.n, code.k
    count = 0
    for count, cols in enumerate(itertools.combinations(range(n), k), 1):
        if det(g.submatrix(range(k), cols)).is_zero():
            small, changed = list(cols), True
            while changed:
                changed = False
                for c in list(small):
                    rest = [x for x in small if x != c]
                    if rest and rank(g.submatrix(range(k), rest)) < len(rest):
                        small, changed = rest, True
                        break
            return False, count, SetTuple((tuple(small),), n, k)
    return True, count, None


@pytest.mark.parametrize("q", [16, 67, 243, 729])
def test_is_mds_explicit_matches_matrix_minors(q):
    """Explicit codes on index tables (GF(16)), ints mod p (GF(67)), packed
    ints (GF(243)) and the level backend (GF((3^2)^3)), against the MatrixF
    reference.  Every other code gets one column proportional to another,
    so at k >= 3 the first singular minor's columns shrink to that pair."""
    field = {16: F16, 67: F67, 243: F243, 729: F729}[q]
    rng = random.Random(q)
    rand = lambda: field.from_int(rng.randrange(field.order))
    outcomes, shrunk = set(), 0
    for trial in range(24):
        k = 2 + trial % 3
        n = k + 1 + rng.randrange(4)
        cols = [[rand() for _ in range(k)] for _ in range(n)]
        if trial % 2:
            i, j = sorted(rng.sample(range(n), 2))
            c = field.from_int(rng.randrange(1, field.order))
            cols[j] = [c * a for a in cols[i]]
        m = MatrixF(field, [[col[r] for col in cols] for r in range(k)])
        if rank(m) < k:
            continue
        code = explicit_code(field, m)
        rep = is_mds(code)
        assert (rep.ok, rep.tuples, rep.witness) == _is_mds_reference(code)
        outcomes.add(rep.ok)
        shrunk += not rep.ok and len(rep.witness.sets[0]) < k
    assert outcomes == {True, False} and shrunk


# -- canonical tuple enumeration ----------------------------------------------------


def test_canonical_tuple_count_matches_multiset_formula():
    tups = list(_canonical_tuples(6, 3, 3, 2))
    # only the (2,2,2) profile fits; multisets of three pair-sets from C(6,2)
    assert len(tups) == 680  # C(15+2, 3)


def test_canonical_matches_ordered_enumeration_after_dedup():
    ordered = set()
    pools = list(itertools.combinations(range(6), 2))
    for sets in itertools.product(pools, repeat=3):
        tup = SetTuple(sets, 6, 3)
        if generically_zero(tup):
            ordered.add(tuple(sorted(tup.sets)))
    canon = {
        tuple(sorted(t))
        for t in _canonical_tuples(6, 3, 3, 2)
        if generically_zero(SetTuple(t, 6, 3))
    }
    assert canon == ordered


def test_pairings_of_six_is_fifteen_distinct():
    ps = list(_pairings_of_six((0, 1, 2, 3, 4, 5)))
    assert len(ps) == 15
    assert len({frozenset(map(frozenset, p)) for p in ps}) == 15
    for p in ps:
        assert sorted(x for pair in p for x in pair) == [0, 1, 2, 3, 4, 5]


# -- weak reduction -----------------------------------------------------------------


def test_weak_reduce_strips_shared_elements():
    tup = SetTuple(((0, 1), (1, 2), (3, 4)), 6, 3)
    sets, k2 = weak_reduce(tup)
    assert k2 == 2
    assert sets == ((0,), (2,), (3, 4))


def test_weak_reduce_disjoint_is_identity():
    tup = SetTuple(((0, 1), (2, 3), (4, 5)), 6, 3)
    sets, k2 = weak_reduce(tup)
    assert k2 == 3
    assert sets == ((0, 1), (2, 3), (4, 5))


def test_weak_reduce_preserves_budget_identity():
    rng = random.Random(11)
    trials = 0
    while trials < 50:
        k = rng.randrange(3, 6)
        n = rng.randrange(2 * k, 2 * k + 4)
        szs = [rng.randrange(1, k) for _ in range(3)]
        if sum(szs) != 2 * k:
            continue
        sets = tuple(tuple(rng.sample(range(n), s)) for s in szs)
        a, b, c = (set(x) for x in sets)
        if a & b & c:
            continue
        trials += 1
        red, k2 = weak_reduce(SetTuple(sets, n, k))
        assert sum(len(s) for s in red) == 2 * k2
        for x, y in itertools.combinations(red, 2):
            assert not (set(x) & set(y))


def _iterative_weak_reduce(sets, k):
    """Strip one shared element at a time, the smallest first, until the
    sets are pairwise disjoint."""
    sets = [set(a) for a in sets]
    while True:
        for a, b in itertools.combinations(sets, 2):
            if a & b:
                x = min(a & b)
                a.discard(x)
                b.discard(x)
                k -= 1
                break
        else:
            return tuple(tuple(sorted(s)) for s in sets), k


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(3, 9) for k in range(3, n + 1)] + [(9, 4)]
)
def test_mds3_triples_match_filter_then_weak_reduce(n, k):
    """The stream is the canonical triples of sizes up to k - 1 that the
    generic-zero filter keeps, in order, each with the iterative
    reduction's dimension and its sets, or None in place of the sets when
    one of them has k2 or more elements or k2 <= 0."""
    want = []
    for sets in _canonical_tuples(n, k, 3, k - 1):
        tup = SetTuple(sets, n, k)
        if not generically_zero(tup):
            continue
        reduced, k2 = _iterative_weak_reduce(sets, k)
        assert weak_reduce(tup) == (reduced, k2)
        trivial = k2 <= 0 or any(len(s) >= k2 for s in reduced)
        want.append((sets, (k2, None if trivial else reduced)))
    assert list(_mds3_triples(n, k)) == want


# -- the equivalence triangle: fast path == block path == int-Gaussian oracle --------


def _agrees_with_k3_sweep(code):
    rep = is_mds3_rs_fast(code)
    ok, tuples, witness, evaluated = rs_k3_sweep(code)
    assert (rep.ok, rep.tuples, rep.evaluated) == (ok, tuples, evaluated)
    assert (rep.witness and rep.witness.sets) == witness
    return ok


@pytest.mark.parametrize(
    "build,n", [(build_k3_n4, 7), (build_k3_n4, 8), (build_k3_n4, 9),
                (build_k3_n4, 10), (build_k3_n3, 7)],
)
def test_rs_k3_sweep_matches_reference_on_family_codes(build, n):
    assert _agrees_with_k3_sweep(build(n).code)


def test_rs_k3_sweep_matches_reference_on_seeded_codes():
    """Same verdict, count, first failing pairing and determinant count as
    the dict-memoized sweep, on 231 seeded [n, 3] codes over GF(7)-GF(23)."""
    rng = random.Random(3)
    verdicts = []
    for q in (7, 8, 9, 11, 13, 16, 17, 19, 23):
        field = field_of_order(q)
        for n in range(6, min(q, 9) + 1):
            for _ in range(7):
                pts = [field.from_int(i) for i in rng.sample(range(q), n)]
                verdicts.append(_agrees_with_k3_sweep(rs_code(field, pts, 3)))
    assert len(verdicts) == 231 and 0 < sum(verdicts) < len(verdicts) // 2


def test_rs_k3_fast_path_agrees_with_oracle_small():
    cases = [
        (7, (0, 1, 2, 3, 4, 5)),
        (7, (0, 1, 2, 3, 4, 6)),
        (7, (1, 2, 3, 4, 5, 6)),
        (17, (0, 3, 6, 10, 11, 12)),  # a passing instance
    ]
    for q, pts in cases:
        field = field_make(q)
        code = rs(field, list(pts), 3)
        fast = is_mds3_rs_fast(code)
        block = is_mds_ell(code, 3)
        assert fast.ok == block.ok == brute_mds3(code, q)


def test_rs_k4_fast_path_agrees_with_oracle():
    code = rs(F13, [0, 1, 2, 3, 4, 5, 6, 7], 4)
    fast = is_mds3_rs_fast(code)
    assert fast.ok == brute_mds3(code, 13)


def test_product_matrix_certificate_per_tuple_k4():
    """The product-polynomial determinant must decide each reduced tuple
    exactly as the definitional intersection does, pass and fail alike."""
    from mdskit.mdscheck import _ProductMatrixContext, _product_matrix_det_nonzero

    rng = random.Random(97)
    for q in (13, 23, 29):
        field = field_make(q)
        pts = rng.sample(range(q), 8)
        code = rs(field, pts, 4)
        ctx = _ProductMatrixContext(code)
        tuples = [
            SetTuple(t, 8, 4)
            for t in _canonical_tuples(8, 4, 3, 3)
            if generically_zero(SetTuple(t, 8, 4))
        ]
        for tup in rng.sample(tuples, 400):
            sets, k2 = weak_reduce(tup)
            reduced = rs(field, pts, k2) if 0 < k2 <= 8 else None
            if any(len(s) >= k2 for s in sets) or k2 <= 0:
                # the auto-pass rule must be sound; an empty set makes the
                # intersection trivially zero, so only the all-nonempty
                # case needs checking
                if reduced is not None and all(len(s) > 0 for s in sets):
                    spans = [_int_cols(reduced, a) for a in sets]
                    assert _int_span_intersection_dim(k2, spans, q) == 0
                continue
            got = _product_matrix_det_nonzero(ctx, sets, k2)
            want = (
                _int_span_intersection_dim(
                    k2, [_int_cols(reduced, a) for a in sets], q
                )
                == 0
            )
            assert got == want


def _canonical_config(k2, reduced):
    # the order _mds3_configs yields: by size, equal sizes by first column
    return k2, tuple(sorted(reduced, key=lambda a: (len(a), a)))


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(3, 9) for k in range(3, n + 1)] + [(9, 4)]
)
def test_mds3_count_and_configs_match_the_stream(n, k):
    """_mds3_count is the number of triples the stream yields, and
    _mds3_configs lists each (k2, reduced) the stream leaves open exactly
    once, in canonical order."""
    stream = list(_mds3_triples(n, k))
    assert _mds3_count(n, k) == len(stream)
    configs = list(_mds3_configs(n, k))
    assert len(set(configs)) == len(configs)
    opened = {_canonical_config(k2, red) for _, (k2, red) in stream if red is not None}
    assert set(configs) == opened


# (q, k, points, verdict): Reed-Solomon codes of length 8 over GF(9) and
# GF(13) (index tables) and GF(81) (packed ints); no [8, 4] or [8, 5] code
# over GF(9) or GF(13) passes
MEMO_CODES = [
    (9, 4, [2, 1, 5, 3, 8, 7, 0, 6], False),
    (9, 5, [7, 2, 3, 8, 6, 5, 0, 1], False),
    (13, 4, [11, 1, 5, 8, 2, 3, 12, 6], False),
    (13, 5, [3, 11, 5, 9, 8, 12, 6, 10], False),
    (81, 4, [59, 55, 49, 10, 50, 77, 66, 41], True),
    (81, 4, [63, 27, 38, 33, 0, 43, 51, 28], False),
    (81, 5, [18, 63, 7, 13, 48, 56, 40, 0], True),
    (81, 5, [51, 68, 44, 75, 73, 67, 34, 74], False),
]


@pytest.mark.parametrize("q,k,points,verdict", MEMO_CODES)
def test_product_matrix_verdict_is_one_per_configuration(q, k, points, verdict):
    """is_mds3_rs_fast certifies each configuration once, in canonical
    order, and reuses that verdict for every open triple reducing to it.
    So every open triple's product-matrix verdict, in the order the stream
    gives its reduced sets, must equal its configuration's; more than half
    of them come in another order."""
    code = rs({9: F9, 13: F13, 81: F81}[q], points, k)
    assert is_mds3_rs_fast(code).ok == verdict
    ctx = _ProductMatrixContext(code)
    want = {}
    reordered = opened = 0
    for _, (k2, reduced) in _mds3_triples(8, k):
        if reduced is None:
            continue
        key = _canonical_config(k2, reduced)
        if key not in want:
            want[key] = _product_matrix_det_nonzero(ctx, key[1], k2)
        assert _product_matrix_det_nonzero(ctx, reduced, k2) == want[key], reduced
        opened += 1
        reordered += key[1] != reduced
    assert 2 * reordered > opened
    assert all(want.values()) == verdict


def test_rs_fast_path_certifies_each_configuration_once():
    """CheckReport.evaluated counts certificates, not tuples: k4-general
    n = 8 leaves 2,800 of its 28,420 triples open, in 700 configurations;
    k5-weak n = 7 leaves none open; is_mds_ell(., 3) on a passing [7, 3]
    code certifies its 105 pairwise disjoint triples of 1,190."""
    rep = is_mds3_rs_fast(build_k4(8).code)
    assert (rep.ok, rep.tuples, rep.evaluated) == (True, 28420, 700)
    rep = is_mds3_rs_fast(build_k5_weak(7).code)
    assert (rep.ok, rep.tuples, rep.evaluated) == (True, 11025, 0)
    rep = is_mds_ell(rs(field_make(31), [11, 14, 16, 18, 21, 23, 29], 3), 3)
    assert (rep.ok, rep.tuples, rep.evaluated) == (True, 1190, 105)


def _rs3_block_reference(code):
    """is_mds3_rs_fast's (ok, tuples, witness) with every tuple decided by
    eliminating its block_mds_matrix: at k = 3 the perfect pairings of each
    six-subset in the fast path's order, otherwise the filtered canonical
    tuples of sizes up to k - 1."""
    n, k = code.n, code.k
    if k == 3:
        tuples = (
            p
            for six in itertools.combinations(range(n), 6)
            for p in _pairings_of_six(six)
        )
    else:
        tuples = (
            t
            for t in _canonical_tuples(n, k, 3, k - 1)
            if generically_zero(SetTuple(t, n, k))
        )
    g = generator_matrix(code)
    ops = field_ops(code.field)
    count = 0
    for sets in tuples:
        count += 1
        rows = [[ops.encode(a) for a in row] for row in block_mds_matrix(g, sets).rows]
        if not eliminate(rows, ops, reduced=False)[1]:
            return False, count, SetTuple(sets, n, k)
    return True, count, None


# (q, k, points, verdict): passing and failing codes at k = 3, 4, 5 on each
# backend, at sizes the per-tuple block reference affords
RS3_CODES = [
    (9, 3, [2, 6, 1, 0, 4, 7], False),
    (9, 4, [0, 4, 3, 2, 5, 1], True),
    (9, 4, [3, 4, 2, 7, 0, 1, 8], False),
    (9, 5, [6, 2, 3, 5, 8, 0], True),
    (9, 5, [5, 7, 1, 3, 8, 4, 0, 2], False),
    (81, 3, [63, 26, 2, 37, 25, 14], True),
    (81, 3, [19, 11, 24, 76, 37, 77, 48], False),
    (81, 4, [43, 23, 17, 55, 52, 20, 62], False),
    (81, 5, [0, 12, 7, 71, 46, 55, 73, 18], False),
    (729, 3, [262, 37, 60, 219, 132, 212], True),
    (729, 3, [542, 454, 396, 404, 138, 118, 286], False),
    (729, 4, [308, 538, 66, 409, 609], True),
    (729, 5, [65, 181, 253, 205, 508], True),
    # the first configuration to fail has k2 = 3, but the stream meets a
    # failing k2 = 4 configuration first, after configurations that passed
    (13, 4, [11, 12, 3, 2, 1, 6, 7, 10], False),
    (13, 4, [0, 10, 5, 8, 9, 12, 7, 2], False),
]


@pytest.mark.parametrize("q,k,points,verdict", RS3_CODES)
def test_rs3_fast_path_matches_engine_and_block_reference(q, k, points, verdict):
    """Reed-Solomon codes over GF(9) and GF(13) (index tables), GF(81)
    (packed ints) and the (2, 3) tower GF(3^6) (the level backend): the
    fast path's verdict, tuple count and witness equal the per-tuple block
    reference, and its verdict equals is_mds_ell's; away from k = 3 both
    enumerate the same filtered tuples, so the count and witness equal
    is_mds_ell's too."""
    code = rs({9: F9, 13: F13, 81: F81, 729: F729}[q], points, k)
    fast = is_mds3_rs_fast(code)
    got = (fast.ok, fast.tuples, fast.witness)
    assert fast.ok == verdict
    assert got == _rs3_block_reference(code)
    engine = is_mds_ell(code, 3)
    assert fast.ok == engine.ok
    if k != 3:
        assert got == (engine.ok, engine.tuples, engine.witness)


@pytest.mark.parametrize("q", [13, 9, 81, 729])
def test_det_nonzero_matches_det(q):
    """The product-matrix determinant test, closed forms up to order 3 and
    elimination beyond, against det, on seeded square matrices of order 0
    to 5 over every backend; half are singular (a row is a multiple of
    another, or zero)."""
    field = {13: F13, 9: F9, 81: F81, 729: F729}[q]
    ops = field_ops(field)
    rng = random.Random(q)
    for m in range(6):
        for trial in range(40):
            rows = [[field.from_int(rng.randrange(q)) for _ in range(m)] for _ in range(m)]
            if m and trial % 2:
                i, j = rng.randrange(m), rng.randrange(m)
                c = field.from_int(rng.randrange(q))
                rows[i] = [c * x for x in rows[j]] if i != j else [field.zero] * m
            enc = [[ops.encode(x) for x in row] for row in rows]
            assert _det_nonzero(ops, enc) == (not det(MatrixF(field, rows)).is_zero())


def test_rs_k2_mds3_reduces_to_mds():
    code = rs(F7, [0, 2, 3, 5, 6], 2)
    rep = is_mds3_rs_fast(code)
    assert rep.ok
    assert rep.tuples == 0  # no qualifying profiles with sizes <= k-1
    assert is_mds_ell(code, 3).ok
    assert brute_mds3(code, 7)


def test_explicit_code_block_path_agrees_with_oracle():
    rng = random.Random(31)
    done = 0
    while done < 8:
        rows = [[rng.randrange(7) for _ in range(6)] for _ in range(3)]
        try:
            code = explicit_code(F7, rows)
        except Exception:
            continue
        done += 1
        assert is_mds_ell(code, 3).ok == brute_mds3(code, 7)


def test_fast_path_rejects_explicit_codes():
    code = explicit_code(F7, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(WrongKindError):
        is_mds3_rs_fast(code)


def test_mds2_equals_mds():
    code = rs(F7, [0, 1, 2, 3, 4, 5], 3)
    assert is_mds_ell(code, 2).ok == is_mds(code).ok


# -- determinism and exact counts ---------------------------------------------------


def test_rs_k3_n6_pass_examines_exactly_fifteen():
    rep = is_mds3_rs_fast(rs(field_make(17), [0, 3, 6, 10, 11, 12], 3))
    assert rep.ok
    assert rep.tuples == 15


def test_rs_k3_n7_pass_examines_105():
    code = rs(field_make(31), [11, 14, 16, 18, 21, 23, 29], 3)
    rep = is_mds3_rs_fast(code)
    assert rep.ok
    assert rep.tuples == 105
    assert brute_mds3(code, 31)


def test_full_range_seven_points_over_f7_fails():
    # 10 projective points cannot be distinct among the 8 of a line over F7,
    # so MDS(3) is impossible here and a witness must surface
    code = rs(F7, [0, 1, 2, 3, 4, 5, 6], 3)
    rep = is_mds3_rs_fast(code)
    assert not rep.ok
    assert rep.witness is not None
    dim = _int_span_intersection_dim(
        3, [_int_cols(code, a) for a in rep.witness.sets], 7
    )
    assert dim >= 1
    assert not is_mds_ell(code, 3).ok


# -- the projective lower-bound witness ----------------------------------------------


def test_lb_witness_passes_on_mds3_code():
    code = rs(field_make(17), [0, 3, 6, 10, 11, 12], 3)
    assert is_mds3_rs_fast(code).ok
    rep = lb_witness_projective(code)
    assert rep.ok
    assert rep.detail is not None and "bound=5" in rep.detail


def test_lb_witness_fails_when_bound_exceeds_field():
    code = rs(F7, [0, 1, 2, 3, 4, 5, 6], 3)
    rep = lb_witness_projective(code)
    assert not rep.ok
    assert rep.witness is not None
    a1, a2, a3 = rep.witness.sets
    assert a1 == (0, 1)
    dim = _int_span_intersection_dim(
        3, [_int_cols(code, a) for a in (a1, a2, a3)], 7
    )
    assert dim >= 1


def _normalized_points(code):
    """(w1, w2) of each (k-1)-subset A of 2..n-1 from rref(G) = [I | X]:
    w1 = -det of rows 1..k-1 and w2 = det of rows 0, 2..k-1, on A."""
    k = code.k
    norm, _ = rref(generator_matrix(code))
    return [
        (
            -det(norm.submatrix(range(1, k), a)),
            det(norm.submatrix([0] + list(range(2, k)), a)),
        )
        for a in itertools.combinations(range(2, code.n), k - 1)
    ]


def _pair_points(code):
    """Reed-Solomon k = 2: (g_0 - g_a, g_1 - g_a), the normalized points
    times g_1 - g_0, with no inverse, so deep towers stay in reach."""
    g = code.generators
    return [(g[0] - g[a], g[1] - g[a]) for a in range(2, code.n)]


def _lb_witness_reference(code, points=_normalized_points):
    """lb_witness_projective's (ok, tuples, witness, detail), the points'
    cross products taken in FieldElement arithmetic."""
    n, k = code.n, code.k
    subsets = list(itertools.combinations(range(2, n), k - 1))
    pts = points(code)
    bound = max(0, math.comb(n - 2, k - 1) - 1)
    detail = f"bound={bound}"
    count = 0
    for i, (w1i, w2i) in enumerate(pts):
        if w1i.is_zero() and w2i.is_zero():
            return False, count, SetTuple(((0, 1), subsets[i], subsets[i]), n, k), detail
        for j in range(i + 1, len(pts)):
            count += 1
            w1j, w2j = pts[j]
            if (w1i * w2j - w2i * w1j).is_zero():
                witness = SetTuple(((0, 1), subsets[i], subsets[j]), n, k)
                return False, count, witness, detail
    q_ok = code.field.order >= bound
    return q_ok, count, None, detail + f" q_at_least_bound={q_ok}"


def _lb_outcome(rep):
    return rep.ok, rep.tuples, rep.witness, rep.detail


def test_lb_witness_matches_normalized_reference():
    """The witness decides on the minors det G[{0} | A] and det G[{1} | A]
    with no normalization and no Reed-Solomon branch.  Against the points
    of rref(G): RS k = 2 codes over GF(7) and GF(81) (also against the pair
    form) and explicit MDS codes with k = 2..4, where [7, 3] over GF(7) has
    10 points in the 8 of the projective line and must fail.  The deep
    tower code of build_general(5, 2, 3) is RS with k = 2; rref's inverse
    there is out of reach, so it is checked against the pair form."""
    rng = random.Random(19)
    for field, n in [(F7, 5), (F7, 7), (F81, 9), (F81, 12)]:
        code = rs(field, rng.sample(range(field.order), n), 2)
        rep = _lb_outcome(lb_witness_projective(code))
        assert rep == _lb_witness_reference(code)
        assert rep == _lb_witness_reference(code, _pair_points)
    outcomes = set()
    for field, k, n in [
        (F7, 2, 5), (F7, 3, 6), (F7, 3, 7), (F11, 3, 7), (F11, 4, 7), (F13, 4, 7), (F16, 4, 7)
    ]:
        for _ in range(2):
            code = _random_mds_code(field, k, n, rng)
            rep = _lb_outcome(lb_witness_projective(code))
            assert rep == _lb_witness_reference(code)
            outcomes.add((rep[0], rep[2] is None))
    assert outcomes == {(True, True), (False, False)}
    deep = build_general(5, 2, 3, per_level_degree=7).code
    rep = _lb_outcome(lb_witness_projective(deep))
    assert rep == _lb_witness_reference(deep, _pair_points)
    assert rep[0]


def test_lb_witness_cross_products_match_field_elements():
    """RS [n, 3] codes over GF(81) (packed ints) and the tower GF(3^6)
    (the level backend), where points collide or stay distinct."""
    rng = random.Random(3)
    witnesses = set()
    for field, n in [(F81, 8), (F81, 10), (F81, 10), (F729, 9), (F729, 9)]:
        code = rs(field, rng.sample(range(field.order), n), 3)
        rep = lb_witness_projective(code)
        assert _lb_outcome(rep) == _lb_witness_reference(code)
        witnesses.add(rep.witness is None)
    assert witnesses == {True, False}


def test_rs_is_mds_matches_minors_with_repeated_generators():
    """A Reed-Solomon CodeSpec built directly with a repeated generator
    fails at the first k-subset holding both copies, with the tuple count
    of the explicit path that takes every minor's determinant."""
    for pts, k in [([0, 1, 2, 1, 3], 2), ([0, 1, 2, 3, 0], 3), ([5, 4, 3, 5, 6], 4)]:
        gens = tuple(F81.from_int(b) for b in pts)
        code = CodeSpec(F81, len(pts), k, "rs", generators=gens)
        explicit = explicit_code(F81, generator_matrix(code))
        got, want = is_mds(code), is_mds(explicit)
        assert (got.ok, got.tuples) == (want.ok, want.tuples) == (False, got.tuples)
    code = rs(F81, [0, 1, 2, 3, 4, 5], 3)
    assert (is_mds(code).ok, is_mds(code).tuples) == (True, math.comb(6, 3))


def test_lb_witness_requires_mds():
    code = explicit_code(F7, [[1, 0, 1, 2], [0, 1, 0, 3]])
    with pytest.raises(NotMDSError):
        lb_witness_projective(code)


def test_lb_witness_size_preconditions():
    code = rs(F7, [0, 1, 2], 3)
    with pytest.raises(SizeConstraintError):
        lb_witness_projective(code)


# -- exhaustive search ---------------------------------------------------------------


def brute_count_mds_codes(n, k, p):
    """Row spaces of systematic MDS [n,k] codes over GF(p), counted from
    int matrices alone."""
    seen = set()
    count = 0
    for info in itertools.combinations(range(n), k):
        rest = [j for j in range(n) if j not in info]
        for flat in itertools.product(range(p), repeat=k * (n - k)):
            rows = [[0] * n for _ in range(k)]
            for i, pos in enumerate(info):
                rows[i][pos] = 1
            for i in range(k):
                for j, pos in enumerate(rest):
                    rows[i][pos] = flat[i * (n - k) + j]
            ok = all(
                _int_rank([[rows[i][c] for c in cols] for i in range(k)], p)
                == k
                for cols in itertools.combinations(range(n), k)
            )
            if not ok:
                continue
            key = tuple(map(tuple, _int_rref(rows, p)[0]))
            if key not in seen:
                seen.add(key)
                count += 1
    return count


def test_search_counts_match_direct_enumeration_tiny():
    res = exhaustive_code_search(4, 2, 3, budget=10**4)
    assert res.count == brute_count_mds_codes(4, 2, 3)
    for ex in res.exemplars:
        assert is_mds_ell(ex, 3).ok


def test_search_budget_guard():
    with pytest.raises(BudgetExceededError):
        exhaustive_code_search(6, 3, 4, budget=10**3)


def test_search_over_a_large_prime_builds_no_tables(no_large_tables):
    res = exhaustive_code_search(2, 1, 10007)
    assert (res.count, res.candidates) == (10006, 20014)


def test_search_on_the_packed_backend():
    # [3, 2] over GF(81): no triple is filtered in, so every block of two
    # nonzero entries counts, and the exemplars are the first blocks in
    # canonical index order
    f = field_of_order(81)
    assert type(field_ops(f)) is PackedOps
    res = exhaustive_code_search(3, 2, 81)
    assert res.count == 80**2
    one, zero = f.one, f.zero
    assert [ex.matrix.rows for ex in res.exemplars] == [
        ((one, zero, one), (zero, one, f.from_int(v))) for v in range(1, 11)
    ]


def _row_space_key(code):
    g, _ = rref(generator_matrix(code))
    return tuple(tuple(v.to_int() for v in row) for row in g.rows)


def sweep_mds3_row_spaces(n, k, q):
    """Row spaces of MDS(3) codes met by the full sweep: identity columns at
    every information set, every block over GF(q) elsewhere, each code
    decided by is_mds_ell and deduplicated by its RREF."""
    F = field_of_order(q)
    found = set()
    for info in itertools.combinations(range(n), k):
        rest = [j for j in range(n) if j not in info]
        for flat in itertools.product(range(q), repeat=k * (n - k)):
            rows = [[F.from_int(0)] * n for _ in range(k)]
            for i, pos in enumerate(info):
                rows[i][pos] = F.from_int(1)
            for i in range(k):
                for j, pos in enumerate(rest):
                    rows[i][pos] = F.from_int(flat[i * (n - k) + j])
            code = explicit_code(F, rows)
            if is_mds_ell(code, 3).ok:
                found.add(_row_space_key(code))
    return found


@pytest.mark.parametrize("n,k,q", [(4, 3, 4), (5, 4, 4), (5, 3, 3)])
def test_search_one_information_set_matches_full_sweep(n, k, q):
    res = exhaustive_code_search(n, k, q, budget=10**4)
    want = sweep_mds3_row_spaces(n, k, q)
    assert res.count == len(want)
    assert res.candidates == math.comb(n, k) * q ** (k * (n - k))
    for ex in res.exemplars:
        assert _row_space_key(ex) in want


def test_search_k3_internal_path_matches_engine():
    # the count must match a sweep of the block-determinant engine over the
    # same candidates
    res = exhaustive_code_search(5, 3, 2, budget=10**4)
    F2 = field_make(2)
    agree = 0
    for flat in itertools.product(range(2), repeat=6):
        rows = [
            [1, 0, 0, flat[0], flat[1]],
            [0, 1, 0, flat[2], flat[3]],
            [0, 0, 1, flat[4], flat[5]],
        ]
        code = explicit_code(F2, rows)
        if is_mds_ell(code, 3).ok:
            agree += 1
    assert res.count == agree


def test_search_k4_certificate_matches_int_oracle():
    """The stacked-normals certificate the search uses for k >= 4.

    The one-information-set search for [5, 4] over GF(4) reaches it on
    every block without a zero entry and keeps all 3^4 = 81 of them, as a
    full is_mds_ell sweep over the 256 blocks does.  Systematic Reed-Solomon
    [6, 4] codes over GF(7) pass and [7, 4] codes fail; the certificate must
    agree with the int oracle on each.
    """
    res = exhaustive_code_search(5, 4, 4, budget=10**3)
    assert (res.count, res.candidates) == (81, 1280)
    ops = TableOps(F7)
    rng = random.Random(4)
    verdicts = []
    for n in (6, 6, 7, 7):
        tuples = [
            t
            for t in _canonical_tuples(n, 4, 3, 3)
            if generically_zero(SetTuple(t, n, 4))
        ]
        g, _ = rref(generator_matrix(rs(F7, rng.sample(range(7), n), 4)))
        cols = [tuple(g[i, j].to_int() for i in range(4)) for j in range(n)]
        want = all(
            _int_span_intersection_dim(4, [[cols[j] for j in a] for a in sets], 7)
            == 0
            for sets in tuples
        )
        assert (_first_intersecting(cols, 4, tuples, ops)[1] is None) == want
        verdicts.append(want)
    assert verdicts == [True, True, False, False]


def _all_nonsingular_blocks(k, w, values, ops):
    """Every k x w block whose square minors are all nonzero, in
    lexicographic row-major order over values: the search's enumerator
    before torus normalization, each minor eliminated when its last row is
    added."""
    pool = list(itertools.product(values, repeat=w))

    def minors_nonzero(block):
        i = len(block) - 1
        for size in range(2, min(i + 1, w) + 1):
            for rr in itertools.combinations(range(i), size - 1):
                for cc in itertools.combinations(range(w), size):
                    sub = [[block[r][j] for j in cc] for r in rr + (i,)]
                    if not eliminate(sub, ops, reduced=False)[1]:
                        return False
        return True

    def rec(block):
        if len(block) == k:
            yield list(block)
            return
        for row in pool:
            block.append(row)
            if minors_nonzero(block):
                yield from rec(block)
            block.pop()

    yield from rec([])


def _first_singular_block(cols, field, tuples):
    """(tuples examined, first tuple whose block_mds_matrix is singular),
    the block eliminated with FieldElements."""
    g = MatrixF(field, [[c[i] for c in cols] for i in range(len(cols[0]))])
    ops = FieldOps(field)
    for count, sets in enumerate(tuples, 1):
        rows = [list(r) for r in block_mds_matrix(g, sets).rows]
        if not eliminate(rows, ops, reduced=False)[1]:
            return count, sets
    return len(tuples), None


def test_k3_table_rejections_match_field_elements_and_block_reference():
    """At (6, 3, 4) all 486 MDS blocks of the unnormalized sweep fail
    MDS(3).  The certificate on the table backend must reject every block;
    on a seeded sample the same function on FieldElements and the
    per-tuple block matrix must return the same count and first failing
    tuple."""
    n, k = 6, 3
    F4 = field_of_order(4)
    table = TableOps(F4)
    tuples = [
        t
        for t in _canonical_tuples(n, k, 3, k - 1)
        if generically_zero(SetTuple(t, n, k))
    ]
    identity = [tuple(int(t == i) for t in range(k)) for i in range(k)]
    blocks = [
        identity + [tuple(row[j] for row in x) for j in range(n - k)]
        for x in _all_nonsingular_blocks(k, n - k, [1, 2, 3], table)
    ]
    assert len(blocks) == 486
    got = [_first_intersecting(cols, k, tuples, table) for cols in blocks]
    assert all(sets is not None for _, sets in got)
    for i in random.Random(6).sample(range(len(blocks)), 40):
        decoded = [[F4.from_int(c) for c in col] for col in blocks[i]]
        assert _first_intersecting(decoded, k, tuples, FieldOps(F4)) == got[i]
        assert _first_singular_block(decoded, F4, tuples) == got[i]


# -- the normalized search against the unnormalized full sweep ------------------------


def _search_setup(n, k, q):
    field = field_of_order(q)
    ops = field_ops(field)
    values = [ops.encode(field.from_int(v)) for v in range(1, q)]
    tuples = [
        t
        for t in _canonical_tuples(n, k, 3, k - 1)
        if generically_zero(SetTuple(t, n, k))
    ]
    identity = [
        tuple(ops.one if t == i else ops.zero for t in range(k)) for i in range(k)
    ]
    return field, ops, values, tuples, identity


def reference_search(n, k, q, exemplar_cap=10):
    """(count, candidates, exemplar rows) of the unnormalized search: every
    totally nonsingular block certified, each hit counted once, and the
    first exemplar_cap hits kept, decoded."""
    field, ops, values, tuples, identity = _search_setup(n, k, q)
    count, exemplars = 0, []
    for x in _all_nonsingular_blocks(k, n - k, values, ops):
        cols = identity + [tuple(row[j] for row in x) for j in range(n - k)]
        if _first_intersecting(cols, k, tuples, ops)[1] is None:
            count += 1
            if len(exemplars) < exemplar_cap:
                exemplars.append(
                    tuple(tuple(ops.decode(c[i]) for c in cols) for i in range(k))
                )
    return count, math.comb(n, k) * q ** (k * (n - k)), exemplars


def _normalized(block, one):
    return all(a == one for a in block[0]) and all(row[0] == one for row in block if row)


def assert_search_matches_reference(n, k, q, exemplar_cap=10):
    res = exhaustive_code_search(n, k, q, exemplar_cap=exemplar_cap)
    got = (res.count, res.candidates, [ex.matrix.rows for ex in res.exemplars])
    assert got == reference_search(n, k, q, exemplar_cap), (n, k, q)
    # the enumerator yields exactly the normalized blocks of the full sweep,
    # in its order, and each of them reaches the certificate once
    _, ops, values, _, _ = _search_setup(n, k, q)
    want = [
        x
        for x in _all_nonsingular_blocks(k, n - k, values, ops)
        if _normalized(x, ops.one)
    ]
    assert list(_nonsingular_blocks(k, n - k, values, ops)) == want
    assert res.blocks == len(want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_normalized_search_matches_full_sweep_on_small_shapes(q):
    """Every 1 <= k <= n <= 6 with q^(k(n-k)) <= 512.  The grid holds the
    edge cases: k = n (the empty block, counted once), k = 1 and n - k = 1
    (no minor above 1 x 1), and q = 2, where the torus factor is 1."""
    shapes = [
        (n, k)
        for n in range(1, 7)
        for k in range(1, n + 1)
        if q ** (k * (n - k)) <= 512
    ]
    assert any(n == k for n, k in shapes)
    assert any(k == 1 < n for n, k in shapes)
    assert any(n - k == 1 for n, k in shapes)
    for n, k in shapes:
        assert_search_matches_reference(n, k, q)


@pytest.mark.parametrize("n,k,q", [(5, 2, 5), (6, 4, 4), (5, 3, 5), (6, 3, 4)])
def test_normalized_search_matches_full_sweep_on_pool_shapes(n, k, q):
    assert_search_matches_reference(n, k, q)


@pytest.mark.parametrize("cap", [0, 1, 3, 25])
def test_normalized_search_exemplar_cap(cap):
    # caps on both sides of the default 10; 3 normalized hits stand for the
    # 192 codes of (4, 2, 5) and 2 for the 162 of (5, 3, 4)
    assert_search_matches_reference(4, 2, 5, exemplar_cap=cap)
    assert_search_matches_reference(5, 3, 4, exemplar_cap=cap)


@pytest.mark.parametrize(
    "n,k,q", [(5, 2, 4), (5, 2, 5), (5, 2, 7), (6, 2, 4), (6, 2, 5)]
)
def test_search_count_is_invariant_under_duality(n, k, q):
    """The dual of [I | X] is [-X^T | I], and MDS(3) passes to the dual, so
    [n, k] and [n, n-k] codes over GF(q) are equally many."""
    dual = exhaustive_code_search(n, n - k, q)
    assert exhaustive_code_search(n, k, q).count == dual.count


def test_search_builds_no_triple_list_without_a_normalized_block(monkeypatch):
    # the list of open triples is enumerated when the first block reaches
    # the certificate, so (6, 4, 4), with no normalized block, never builds it
    calls = []
    real = mdscheck._mds3_triples
    monkeypatch.setattr(
        mdscheck, "_mds3_triples", lambda *args: calls.append(args) or real(*args)
    )
    assert exhaustive_code_search(6, 4, 4).blocks == 0
    assert calls == []
    assert exhaustive_code_search(5, 3, 5).blocks == 6
    assert calls == [(5, 3)]


def test_search_reports_normalized_blocks_certified():
    # (5, 3, 5): 6 normalized totally nonsingular blocks, all MDS(3), stand
    # for 6 * 4^4 = 1536 codes; at (6, 4, 4) a normalized 4 x 2 block needs
    # three distinct entries other than 1 in its second column, and GF(4)
    # has two
    res = exhaustive_code_search(5, 3, 5)
    assert (res.blocks, res.count) == (6, 1536)
    res = exhaustive_code_search(6, 4, 4)
    assert (res.blocks, res.count) == (0, 0)


# -- randomized equivalence property --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_property_fast_equals_block_on_random_rs(seed):
    """Random Reed-Solomon codes over GF(9) (index tables), GF(13) (ints mod
    p) and GF(81) (packed ints), n = k among the lengths.  Away from k = 3
    both paths count the same filtered tuples, so the tuple count and the
    witness must agree as well as the verdict.  A passing [7, 4] code over
    GF(81) takes about a second in is_mds_ell, so codes there stay short."""
    rng = random.Random(seed)
    field = rng.choice([F9, F13, F81])
    k = rng.choice([1, 2, 3, 4])
    lengths = [k, k + 1] if field is F81 else [k, k + 1, 2 * k, 2 * k + 1]
    code = rs(field, rng.sample(range(field.order), rng.choice(lengths)), k)
    fast, engine = is_mds3_rs_fast(code), is_mds_ell(code, 3)
    if k == 3:
        assert fast.ok == engine.ok
    else:
        assert (fast.ok, fast.tuples, fast.witness) == (
            engine.ok, engine.tuples, engine.witness
        )
