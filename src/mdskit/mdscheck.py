"""The verification engine for higher-order MDS properties.

Every decision runs in the encoding of the backend ``linalg.field_ops``
picks for the field, on the generator matrix's columns (or a Reed-Solomon
code's generators) encoded once.  Decision paths implemented here:

* ``is_mds``: every k x k minor of the generator matrix nonzero, each
  decided on its columns by ``_det_nonzero``; for Reed-Solomon codes a
  minor is the Vandermonde product of generator differences, so it
  vanishes exactly when two generators coincide.
* ``is_mds_ell``: the definitional check; enumerates canonical set tuples
  (unordered, since the test is symmetric), filters by the generic-zero
  predicate, and decides each by the span-intersection certificate: the
  k x k stack of the sets' normal vectors, cached per set, must be
  nonsingular.  For three sets the enumeration is reduced to sizes <= k-1
  after an MDS precheck, and the triples come from ``_mds3_triples``, one
  pass that enumerates, filters and weakly reduces them: a triple its weak
  reduction settles is counted without a certificate, and every
  certificate is decided by ``_det_nonzero``.
  ``linalg.block_mds_matrix``, the (ell k) x (ell k) block certificate, is
  the reference the tests compare it with.
* ``is_mds3_rs_fast``: Reed-Solomon fast paths: the six-point pairing
  determinants when k = 3, and for general k the product-polynomial matrix
  of each distinct open reduction, all on the same backend; when every one
  passes, the triple count comes in closed form and no triple is walked.
* ``lb_witness_projective``: the projective-point distinctness witness
  behind the field-size lower bound, division-free: each point is a pair of
  maximal minors of the generator matrix, by cofactor expansion.
* ``exhaustive_code_search``: complete systematic enumeration at tiny
  parameters.  An MDS(3) code is met exactly once as [I | X], and scaling
  the rows and columns of X keeps it MDS(3), so only the blocks whose
  first row and first column are ones are certified, one per orbit of
  (q-1)^(n-1) blocks; the minors and the certificates of the open triples
  go through ``_det_nonzero``.

All reports carry the number of tuples examined and wall time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .codes import (
    CodeSpec,
    SetTuple,
    _generically_zero,
    explicit_code,
    generator_matrix,
)
from .errors import (
    BudgetExceededError,
    NotMDSError,
    SizeConstraintError,
    WrongKindError,
)
from .fields import field_of_order, prime_power
from .linalg import eliminate, field_ops, null_basis
from math import comb, factorial, prod

__all__ = [
    "CheckReport",
    "SearchResult",
    "is_mds",
    "is_mds_ell",
    "is_mds3_rs_fast",
    "lb_witness_projective",
    "exhaustive_code_search",
]


@dataclass
class CheckReport:
    prop: str
    ok: bool
    tuples: int
    time_ms: int
    witness: Optional[SetTuple] = None
    detail: Optional[str] = None
    # work actually done, never printed: certificates computed (determinants,
    # not tuples) by is_mds_ell and is_mds3_rs_fast, vectors whose syndrome
    # was computed by ld_mds_check; None elsewhere
    evaluated: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def to_line(self) -> str:
        line = (
            f"property={self.prop} verdict={self.verdict} "
            f"tuples={self.tuples} time_ms={self.time_ms}"
        )
        if self.witness is not None:
            line += f" witness={self.witness.format()}"
        return line


def _report(
    prop, ok, tuples, t0, witness=None, detail=None, evaluated=None
) -> CheckReport:
    ms = int((time.perf_counter() - t0) * 1000)
    return CheckReport(prop, ok, tuples, ms, witness, detail, evaluated)


# -- MDS ------------------------------------------------------------------------


def _encoded_columns(code: CodeSpec):
    """The backend ``field_ops`` picks for the code's field, and the
    generator matrix's columns in its encoding."""
    ops, g = field_ops(code.field), generator_matrix(code)
    return ops, [[ops.encode(a) for a in g.col(j)] for j in range(code.n)]


def _minimal_dependent(ops, cols: list, cc: Sequence[int]) -> Tuple[int, ...]:
    """Drop columns of a dependent set while the rest stays dependent; one
    pass suffices, as no dependent subset can lose a column the set cannot."""
    for c in cc:
        rest = [x for x in cc if x != c]
        if len(eliminate([cols[x] for x in rest], ops)[0]) < len(rest):
            cc = rest
    return tuple(cc)


def is_mds(code: CodeSpec) -> CheckReport:
    """Every k x k minor of the generator matrix must be nonzero."""
    t0 = time.perf_counter()
    k, n = code.k, code.n
    count = 0
    if code.kind == "rs":
        # a Vandermonde minor is the product of its generators' differences
        # and a field has no zero divisors, so the minor vanishes exactly
        # when two of its generators coincide
        gens = code.generators
        assert gens is not None
        if len(set(gens)) == n:
            return _report("mds", True, comb(n, k), t0)
        for cols in itertools.combinations(range(n), k):
            count += 1
            if len({gens[c] for c in cols}) < k:
                return _report(
                    "mds", False, count, t0, SetTuple((cols,), n, k)
                )
        return _report("mds", True, count, t0)
    # each minor on its columns taken as rows, as a transpose keeps the det
    ops, cols = _encoded_columns(code)
    for cc in itertools.combinations(range(n), k):
        count += 1
        if not _det_nonzero(ops, [cols[j] for j in cc]):
            witness = SetTuple((_minimal_dependent(ops, cols, cc),), n, k)
            return _report("mds", False, count, t0, witness)
    return _report("mds", True, count, t0)


# -- canonical tuple enumeration ---------------------------------------------------


def _nondecreasing_profiles(total: int, ell: int, cap: int) -> Iterator[Tuple[int, ...]]:
    def rec(remaining, slots, lo):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for s in range(lo, cap + 1):
            if s > remaining or remaining > s + cap * (slots - 1):
                continue
            for rest in rec(remaining - s, slots - 1, s):
                yield (s,) + rest

    yield from rec(total, ell, 0)


def _canonical_tuples(
    n: int, k: int, ell: int, cap: int
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Unordered qualifying tuples of sorted index sets: sizes nondecreasing,
    sets nondecreasing within equal-size groups (the determinant tests are
    symmetric)."""
    total = (ell - 1) * k
    cap = min(cap, n)
    for profile in _nondecreasing_profiles(total, ell, cap):
        groups = [(s, len(list(g))) for s, g in itertools.groupby(profile)]
        pools = {s: list(itertools.combinations(range(n), s)) for s, _ in groups}
        choices = [
            itertools.combinations_with_replacement(pools[s], cnt)
            for s, cnt in groups
        ]
        for parts in itertools.product(*choices):
            yield tuple(itertools.chain.from_iterable(parts))


def weak_reduce(tup: SetTuple) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Strip elements shared by two sets, lowering k by one for each;
    returns disjoint sets and the reduced dimension.  Requires an empty
    triple intersection."""
    seen: set = set()
    shared: set = set()
    for a in tup.sets:
        shared.update(seen.intersection(a))
        seen.update(a)
    return tuple(tuple(x for x in a if x not in shared) for a in tup.sets), tup.k - len(shared)


def _mds3_triples(n: int, k: int):
    """Each canonical triple of sizes up to k-1 that the generic-zero filter
    keeps, as (sets, (k2, reduced)); every MDS(3) triple loop reads it.

    The triples come in ``_canonical_tuples(n, k, 3, k - 1)`` order, and
    the filter and the weak reduction run in the same loop on the sets' bit
    masks: a pair (A1, A2) whose intersection fails the filter's
    |A1 & A2| + |A3| <= k is skipped with every third set.  k2 is the
    reduced dimension of ``weak_reduce`` (once the filter passes, the triple
    intersection is empty, so each shared element lies in exactly two sets
    and lowers k by one) and reduced its disjoint sets, or None when the
    triple is settled: k2 <= 0, or a reduced set has k2 or more columns.
    Set i keeps |A_i| - c_ij - c_il columns and k2 = k - c12 - c13 - c23,
    so that reads c_jl + |A_i| >= k: the filter's bound for set i is tight.
    The reduced sizes sum to 2 k2, so k2 <= 0 means k2 = 0 with every
    reduced set empty, one of these.  In an MDS code a settled triple's
    spans meet only in zero:

    Let S be the shared columns, the union of the disjoint S_ij = A_i & A_j.
    The filter gives |S_12| + |A_3| <= k, and A_3 holds S_13 and S_23, so
    S | A_3 (likewise S | A_1, S | A_2) has at most k columns and is
    independent.  So V_i = span(A_i) meets span(S) in span(A_i & S), and
    A_i - S stays independent in F^k / span(S), of dimension k2.  If the
    reduced spans meet only in zero there, every v in V_1 & V_2 & V_3 lies
    in span(S_12 | S_13) & span(S_12 | S_23) & span(S_13 | S_23), zero as S
    is independent and no column is in all three unions.  They do when
    k2 <= 0, and when a reduced set has k2 columns or more: the reduced
    sizes sum to 2 k2, so the other two have at most k2, and with S they
    make up the union of their A's, at most k columns, independent.  At
    k = 3 this settles every triple with a shared column, so only pairwise
    disjoint triples need a determinant.
    """
    cap = min(k - 1, n)
    pools = [
        [(a, sum(1 << x for x in a)) for a in itertools.combinations(range(n), s)]
        for s in range(cap + 1)
    ]
    for s1, s2, s3 in _nondecreasing_profiles(2 * k, 3, cap):
        p2, p3 = pools[s2], pools[s3]
        top12, top13, top23 = k - s3, k - s2, k - s1
        for i, (a1, m1) in enumerate(pools[s1]):
            for j in range(i if s2 == s1 else 0, len(p2)):
                a2, m2 = p2[j]
                i12 = m1 & m2
                c12 = i12.bit_count()
                if c12 > top12:
                    continue
                for a3, m3 in p3[j:] if s3 == s2 else p3:
                    if i12 & m3:
                        continue
                    i13, i23 = m1 & m3, m2 & m3
                    c13, c23 = i13.bit_count(), i23.bit_count()
                    if c13 > top13 or c23 > top23:
                        continue
                    k2 = k - c12 - c13 - c23
                    sets = (a1, a2, a3)
                    if c12 == top12 or c13 == top13 or c23 == top23:
                        yield sets, (k2, None)
                    else:
                        shared = i12 | i13 | i23
                        reduced = tuple(
                            tuple(x for x in a if not shared >> x & 1) for a in sets
                        )
                        yield sets, (k2, reduced)


def _mds3_count(n: int, k: int) -> int:
    """How many triples ``_mds3_triples(n, k)`` yields, in closed form: per
    size profile, the sum over the filter's pairwise intersection sizes of
    n! / (c12! c13! c23! r1! r2! r3! rest!), r_i the columns in set i
    alone, divided by the orders of equal sizes (why this is exact is in
    ``is_mds3_rs_fast``)."""
    total = 0
    for s1, s2, s3 in _nondecreasing_profiles(2 * k, 3, min(k - 1, n)):
        ordered = 0
        for c12 in range(k - s3 + 1):
            for c13 in range(k - s2 + 1):
                for c23 in range(k - s1 + 1):
                    cells = [
                        c12, c13, c23, s1 - c12 - c13, s2 - c12 - c23, s3 - c13 - c23
                    ]
                    cells.append(n - sum(cells))
                    if min(cells) >= 0:
                        ordered += factorial(n) // prod(map(factorial, cells))
        total += ordered // {1: 6, 2: 2, 3: 1}[len({s1, s2, s3})]
    return total


def _mds3_configs(n: int, k: int):
    """Each distinct open outcome (k2, reduced) of ``_mds3_triples(n, k)``
    once, the reduced sets ordered by size and equal sizes by first column.

    Open means disjoint sets of sizes below k2 that sum to 2 k2, so k2 >= 3,
    and with the k - k2 shared columns a triple uses k + k2 <= n columns.
    Every such disjoint triple is an open outcome: place the shared
    columns outside it, split any way among the three pairs.  Set i then
    has at most (k2 - 1) + (k - k2) = k - 1 columns, no column lies in all
    three, and the filter's c_ij + |A_l| <= k reads (k - k2) + |R_l| <= k.
    """
    for k2 in range(3, min(k, n - k) + 1):
        for r1, r2, r3 in _nondecreasing_profiles(2 * k2, 3, k2 - 1):
            for a in itertools.combinations(range(n), r1):
                pool = [x for x in range(n) if x not in a]
                bs = [x for x in pool if r2 > r1 or x > a[0]]
                for b in itertools.combinations(bs, r2):
                    rest = [x for x in pool if x not in b]
                    cs = [x for x in rest if r3 > r2 or x > b[0]]
                    for c in itertools.combinations(cs, r3):
                        yield k2, (a, b, c)


# -- the definitional span-intersection check ----------------------------------------


def _det_nonzero(ops, rows: list) -> bool:
    """Whether a square matrix in the backend's encoding is nonsingular:
    closed forms up to order 3, elimination from order 4 on."""
    m = len(rows)
    if m <= 1:
        return m == 0 or bool(rows[0][0])
    mul = ops.mul
    if m == 2:
        (a, b), (c, d) = rows
        return mul(a, d) != mul(b, c)
    if m == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        one = ops.one
        u = ops.sub_multiple(
            [mul(e, i), mul(f, g), mul(d, h)], [mul(f, h), mul(d, i), mul(e, g)], one, 0
        )
        # the determinant a u0 + b u1 + c u2 vanishes when a u0 + b u1 = -c u2
        lhs = ops.sub_multiple([mul(a, u[0])], [mul(b, u[1])], ops.neg(one), 0)[0]
        return lhs != mul(ops.neg(c), u[2])
    return bool(eliminate(rows, ops, reduced=False)[1])


class _Normals(dict):
    """Index set -> its normal vectors (the kernel of its columns taken as
    rows), computed on first use, for a k x n MDS matrix given by its
    columns in the backend's encoding."""

    def __init__(self, cols, k: int, ops):
        self.cols, self.k, self.ops = cols, k, ops

    def __missing__(self, a: Tuple[int, ...]) -> list:
        got = self[a] = null_basis([self.cols[j] for j in a], self.k, self.ops)
        return got

    def meet(self, sets: Sequence[Tuple[int, ...]]) -> bool:
        # the sizes sum to (ell - 1) k, so the sets give k normals in all,
        # and their spans meet beyond zero exactly when the stack is singular
        return not _det_nonzero(self.ops, [v for a in sets for v in self[a]])


def is_mds_ell(code: CodeSpec, ell: int) -> CheckReport:
    """Decide MDS(ell): no filtered tuple's column spans meet beyond zero.

    Order of work: MDS precheck first (MDS(ell) implies MDS, and the
    certificate below assumes it), then canonical tuple enumeration with the
    generic-zero filter, each surviving tuple decided by the stacked-normals
    certificate of ``_Normals.meet``.  For ell = 3 only sizes up to k-1 need
    checking once the code is MDS; size-k sets span everything and larger
    tuples reduce to fewer sets.  A triple ``_mds3_triples`` settles never
    meets, so it is counted without a certificate.  The reference is
    ``linalg.block_mds_matrix``, singular on exactly the same tuples.
    """
    t0 = time.perf_counter()
    if ell < 1:
        raise SizeConstraintError("ell must be at least 1")
    prop = f"mds{ell}"
    base = is_mds(code)
    if not base.ok:
        return _report(prop, False, base.tuples, t0, base.witness, evaluated=0)
    if ell <= 2:
        return _report(prop, True, base.tuples, t0, evaluated=0)
    n, k = code.n, code.k
    ops, cols = _encoded_columns(code)
    normals = _Normals(cols, k, ops)
    if ell == 3:
        tuples = _mds3_triples(n, k)
    else:
        # in the (k2, reduced) shape of _mds3_triples: every tuple is open
        tuples = (
            (sets, (None, sets))
            for sets in _canonical_tuples(n, k, ell, k)
            if _generically_zero(sets, k)
        )
    count = evaluated = 0
    for count, (sets, (_, reduced)) in enumerate(tuples, 1):
        if reduced is not None:
            evaluated += 1
            if normals.meet(sets):
                witness = SetTuple(sets, n, k)
                return _report(prop, False, count, t0, witness, evaluated=evaluated)
    return _report(prop, True, count, t0, evaluated=evaluated)


def _first_intersecting(cols, k, tuples, ops) -> Tuple[int, Optional[tuple]]:
    """The first tuple whose column spans meet beyond zero, and how many
    tuples were examined up to it (all of them, and None, when none does),
    each certified by ``_Normals.meet`` on the columns of an MDS matrix."""
    normals = _Normals(cols, k, ops)
    count = 0
    for count, sets in enumerate(tuples, 1):
        if normals.meet(sets):
            return count, sets
    return count, None


# -- Reed-Solomon fast paths -----------------------------------------------------------


def _pairings_of_six(items: Sequence[int]) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """All 15 ways to split six items into three unordered pairs."""
    a = items[0]
    rest = list(items[1:])
    for i, b in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        c = remaining[0]
        for j, d in enumerate(remaining[1:], start=1):
            last = [remaining[t] for t in range(1, 4) if t != j]
            yield ((a, b), (c, d), (last[0], last[1]))


class _ProductMatrixContext:
    """Cached product-matrix entries for one Reed-Solomon code, in the
    encoding of the backend ``field_ops`` picks for its field."""

    def __init__(self, code: CodeSpec):
        assert code.generators is not None
        self.ops = ops = field_ops(code.field)
        self._enc = [ops.encode(g) for g in code.generators]
        self._entries: Dict[tuple, object] = {}

    def column_entry(self, subset: Tuple[int, ...], a: int, t: int):
        # g_a^t times the product of (g_a - g_x) over x in subset
        key = (subset, a, t)
        got = self._entries.get(key)
        if got is None:
            ops, ga = self.ops, self._enc[a]
            if t:
                got = ops.mul(self.column_entry(subset, a, t - 1), ga)
            else:
                got = ops.one
                for x in subset:
                    diff = ops.sub_multiple([ga], [self._enc[x]], ops.one, 0)[0]
                    got = ops.mul(got, diff)
            self._entries[key] = got
        return got


def _product_matrix_det_nonzero(
    ctx: _ProductMatrixContext, sets: Sequence[Tuple[int, ...]], k: int
) -> bool:
    """The product-polynomial certificate for a disjoint tuple over an RS
    code of dimension k: nonzero determinant means trivial intersection."""
    row_set, *others = sorted(sets, key=len)
    rows = [
        [ctx.column_entry(b, a, t) for b in others for t in range(k - len(b))]
        for a in row_set
    ]
    return _det_nonzero(ctx.ops, rows)


def is_mds3_rs_fast(code: CodeSpec) -> CheckReport:
    """Reed-Solomon MDS(3) fast path, on the backend ``field_ops`` picks.

    k = 3: for every six-point subset and each of its 15 perfect pairings,
    the 3 x 3 matrix with rows (1, s, p), s and p the sum and product of a
    pair's generators, must be nonsingular; its determinant is
    (s2 - s1)(p3 - p1) - (s3 - s1)(p2 - p1), with sums, products and
    differences computed once per code.
    Other k: the verdict, count and witness of the triples of
    ``_mds3_triples``, each open one decided by the product-polynomial
    determinant of its disjoint reduction, without walking them when all
    pass:

    * A certificate depends only on (k2, reduced).  Let S be the stripped
      columns and P the product of (x - g_s) over s in S.  Dual to
      F^k / span(S) are the polynomials of degree < k vanishing on S, P
      times those of degree < k2, and on them column j acts as P(g_j) times
      column j of the [n, k2] code on the same generators, with P(g_j) != 0
      off S.  So the reduced spans are those of that code, whatever S is,
      and the determinant decides whether they meet, which does not depend
      on the order of the sets.  ``_mds3_configs`` lists each open
      (k2, reduced) once, and each is certified once.
    * If all pass, so does every triple, and ``_mds3_count`` gives their
      number: a kept triple has an empty triple intersection, so it puts
      each column in one of seven cells (in exactly two sets, one set or
      none), the filter reads only the cell sizes, and the triples with
      given cell sizes number the multinomial n! / (cells!).  The stream
      lists each unordered triple once, sizes nondecreasing, so the ordered
      sum over a size profile is divided by the 2 or 6 orders of its equal
      sizes; all are distinct, as a kept triple never repeats a set
      (A_i = A_j has c_ij = s_i, and c_ij + s_l <= k with s_l = 2k - 2 s_i
      would need s_i >= k).
    * If one fails, the stream is walked with the verdicts memoized, so the
      first failing triple, its position and witness are the plain sweep's.

    ``evaluated`` counts determinants: pairings at k = 3, configurations
    otherwise.
    """
    if code.kind != "rs":
        raise WrongKindError("the fast MDS(3) path requires a Reed-Solomon code")
    t0 = time.perf_counter()
    assert code.generators is not None
    n, k = code.n, code.k
    gens = code.generators
    count = 0
    if k == 3:
        ops = field_ops(code.field)
        mul, one = ops.mul, ops.one
        pairs = list(itertools.combinations(range(n), 2))
        index = {pair: i for i, pair in enumerate(pairs)}
        enc = [ops.encode(g) for g in gens]
        # each pair's sum s and product p, the last two entries of its row
        sp = [[ops.encode(gens[a] + gens[b]), mul(enc[a], enc[b])] for a, b in pairs]
        deltas: Dict[Tuple[int, int], list] = {}

        def delta(i, j):
            # (s_j - s_i, p_j - p_i)
            got = deltas.get((i, j))
            if got is None:
                got = deltas[(i, j)] = ops.sub_multiple(sp[j], sp[i], one, 0)
            return got

        for six in itertools.combinations(range(n), 6):
            for pairing in _pairings_of_six(six):
                count += 1
                i = index[pairing[0]]
                ds2, dp2 = delta(i, index[pairing[1]])
                ds3, dp3 = delta(i, index[pairing[2]])
                if mul(ds2, dp3) == mul(ds3, dp2):
                    witness = SetTuple(pairing, n, k)
                    return _report("mds3-rs", False, count, t0, witness, evaluated=count)
        return _report("mds3-rs", True, count, t0, evaluated=count)
    ctx = _ProductMatrixContext(code)
    verdicts: Dict[tuple, bool] = {}

    def verdict(k2, reduced) -> bool:
        key = (k2, frozenset(reduced))
        if key not in verdicts:
            verdicts[key] = _product_matrix_det_nonzero(ctx, reduced, k2)
        return verdicts[key]

    if all(verdict(k2, reduced) for k2, reduced in _mds3_configs(n, k)):
        count = _mds3_count(n, k)
        return _report("mds3-rs", True, count, t0, evaluated=len(verdicts))
    for count, (sets, (k2, reduced)) in enumerate(_mds3_triples(n, k), 1):
        if reduced is not None and not verdict(k2, reduced):
            witness = SetTuple(sets, n, k)
            return _report("mds3-rs", False, count, t0, witness, evaluated=len(verdicts))
    raise AssertionError("every open configuration is some triple's reduction")


# -- the projective lower-bound witness ---------------------------------------------


class _Minors(dict):
    """(rows, cols) -> the minor on those index tuples of a matrix given by
    its encoded columns, computed on first use by Laplace expansion along
    its first column: division-free, and minors whose columns after the
    first agree share their cofactors."""

    def __init__(self, cols, ops):
        self.cols, self.ops = cols, ops

    def __missing__(self, key):
        rows, cc = key
        ops, col = self.ops, self.cols[cc[0]]
        if len(rows) == 1:
            got = col[rows[0]]
        else:
            got = ops.zero
            for i, r in enumerate(rows):
                if col[r]:
                    # add (-1)^i col[r] times the cofactor, as got - f * cofactor
                    f = col[r] if i % 2 else ops.neg(col[r])
                    cofactor = self[rows[:i] + rows[i + 1 :], cc[1:]]
                    got = ops.sub_multiple([got], [cofactor], f, 0)[0]
        self[key] = got
        return got


def lb_witness_projective(code: CodeSpec) -> CheckReport:
    """Distinctness of the projective points attached to the (k-1)-subsets
    A of 2..n-1; two subsets sharing a point give a concrete intersecting
    triple, and distinctness for all pairs forces the field-size lower
    bound C(n-2, k-1) - 1.

    The point of A is (det G[{0} | A] : det G[{1} | A]), two minors of the
    generator matrix G.  As G is MDS, G = B [I | X] with B invertible, and
    expanding along the unit column 0 or 1 gives -det B (w1, w2), where
    w1 = -det of rows 1..k-1 and w2 = det of rows 0, 2..k-1 of [I | X] on
    A make the point of the normalized form.  So the zero check and every
    cross product vanish on the same subsets and pairs, with no division;
    at Reed-Solomon k = 2 the point is (g_a - g_0, g_a - g_1).  Both minors
    expand along their first column and share the k cofactors on A.
    """
    t0 = time.perf_counter()
    n, k = code.n, code.k
    if k < 2 or n < k + 1:
        raise SizeConstraintError("need k >= 2 and n >= k+1")
    if not is_mds(code).ok:
        raise NotMDSError("projective witness requires an MDS code")
    bound = max(0, comb(n - 2, k - 1) - 1)
    detail = f"bound={bound}"
    ops, cols = _encoded_columns(code)
    minors, rows = _Minors(cols, ops), tuple(range(k))
    subsets = list(itertools.combinations(range(2, n), k - 1))
    pts = [(minors[rows, (0,) + a], minors[rows, (1,) + a]) for a in subsets]
    mul = ops.mul
    count = 0
    for i, (w1i, w2i) in enumerate(pts):
        if not w1i and not w2i:
            witness = SetTuple(((0, 1), subsets[i], subsets[i]), n, k)
            return _report("lb-witness", False, count, t0, witness, detail)
        for j in range(i + 1, len(pts)):
            count += 1
            w1j, w2j = pts[j]
            # the cross product w1i w2j - w2i w1j vanishes
            if mul(w1i, w2j) == mul(w2i, w1j):
                witness = SetTuple(((0, 1), subsets[i], subsets[j]), n, k)
                return _report("lb-witness", False, count, t0, witness, detail)
    q_ok = code.field.order >= bound
    detail += f" q_at_least_bound={q_ok}"
    return _report("lb-witness", q_ok, count, t0, None, detail)


# -- exhaustive search over tiny parameter spaces -------------------------------------


@dataclass
class SearchResult:
    count: int
    exemplars: List[CodeSpec]
    candidates: int
    blocks: int


def _nonsingular_blocks(k: int, w: int, values: list, ops) -> Iterator[List[tuple]]:
    """Every normalized k x w block whose square minors are all nonzero, in
    lexicographic row-major order over the order of values.

    A block is normalized when its first row and first column are all
    ``ops.one``; the other entries are drawn from values, the nonzero
    elements in the backend's encoding (a zero entry is a vanishing 1 x 1
    minor).  Rows are added one at a time; each minor of size >= 2 is
    checked once, when the last of its rows is added, so a failing prefix
    is never extended.  The empty block (w = 0) is normalized.
    """
    one = ops.one
    pool = [()]
    if w:
        pool = [(one,) + rest for rest in itertools.product(values, repeat=w - 1)]

    def minors_nonzero(block):
        i = len(block) - 1
        for size in range(2, min(i + 1, w) + 1):
            for rr in itertools.combinations(range(i), size - 1):
                for cc in itertools.combinations(range(w), size):
                    sub = [[block[r][j] for j in cc] for r in rr + (i,)]
                    if not _det_nonzero(ops, sub):
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

    yield from rec([(one,) * w])


def _first_hits(hits: set, k: int, w: int, values: list, ops, cap: int) -> List[list]:
    """The first cap blocks, in lexicographic row-major order over values,
    whose normalization is in hits.

    A prefix of rows is normalized by scaling the columns by the inverses
    of row 0's entries and then each row by the inverse of its first entry,
    so a row's normal form depends only on itself and row 0.  A prefix is
    kept only when its normal form is a prefix of some hit; every kept
    prefix then extends to a block whose normal form is that hit, so the
    walk makes at most cap * k * (q-1)^w prefix checks.
    """
    if not hits:
        return []
    prefixes = {hit[:i] for hit in hits for i in range(1, k + 1)}
    rows = list(itertools.product(values, repeat=w))
    found: List[list] = []

    def walk(block, norm, col_inv):
        for row in rows:
            if len(found) >= cap:
                return
            inv = col_inv if block else [ops.inv(a) for a in row]
            y = [ops.mul(a, s) for a, s in zip(row, inv)]
            lead = ops.inv(y[0]) if y else ops.one
            key = norm + (tuple(ops.mul(a, lead) for a in y),)
            if key in prefixes:
                if len(key) == k:
                    found.append(block + [row])
                else:
                    walk(block + [row], key, inv)

    walk([], (), None)
    return found


def exhaustive_code_search(
    n: int,
    k: int,
    q: int,
    budget: int = 10**6,
    exemplar_cap: int = 10,
) -> SearchResult:
    """Count MDS(3) codes among all systematic [n, k] codes over GF(q).

    An MDS(3) code is MDS, so every k-subset of its coordinates is an
    information set: the code has exactly one generator matrix [I | X] with
    the identity on coordinates 0..k-1.  Enumerating X at that one
    information set meets each code once, as a sweep over all C(n, k)
    placements with row-space deduplication would; `candidates` counts that
    sweep's space, C(n, k) * q^(k(n-k)).  The per-candidate decision is
    exact: the code must be MDS (X totally nonsingular) and every filtered
    (k-1)-sized triple must have trivial span intersection; once the code
    is MDS, only the triples ``_mds3_triples`` leaves open need checking.

    Scaling the rows and columns of X by nonzero scalars keeps the code MDS
    and MDS(3), and the torus (F*)^k x (F*)^(n-k), modulo its common
    scalar, acts freely on blocks without zeros, so each orbit holds
    (q-1)^(n-1) blocks and exactly one normalized block, whose first row
    and first column are ones.  Only normalized blocks are certified (their
    number is `blocks`), and `count` is the number of hits times
    (q-1)^(n-1); at k = n the block is empty and counts once.  The
    exemplars are the first exemplar_cap hits in lexicographic row-major
    order over the nonzero elements in canonical index order, rebuilt from
    the normalized hits by ``_first_hits``.  All arithmetic runs through
    the backend ``field_ops`` picks for GF(q).
    """
    if not 1 <= k <= n:
        raise SizeConstraintError(f"need 1 <= k <= n, got n={n} k={k}")
    if prime_power(q) is None:
        raise SizeConstraintError(f"{q} is not a prime power")
    w = n - k
    if q ** (k * w) > budget:
        raise BudgetExceededError(
            f"q^(k(n-k)) = {q ** (k * w)} exceeds budget {budget}"
        )
    field = field_of_order(q)
    ops = field_ops(field)
    values = [ops.encode(field.from_int(v)) for v in range(1, q)]
    tuples = None
    identity = [tuple(ops.one if i == j else ops.zero for j in range(k)) for i in range(k)]
    hits = set()
    blocks = 0
    for x_rows in _nonsingular_blocks(k, w, values, ops):
        blocks += 1
        if tuples is None:
            # the open triples, built once a block reaches the certificate
            tuples = [sets for sets, (_, red) in _mds3_triples(n, k) if red is not None]
        cols = identity + [tuple(row[j] for row in x_rows) for j in range(w)]
        if _first_intersecting(cols, k, tuples, ops)[1] is None:
            hits.add(tuple(x_rows))
    exemplars = [
        explicit_code(
            field, [[ops.decode(c) for c in identity[i] + x_rows[i]] for i in range(k)]
        )
        for x_rows in _first_hits(hits, k, w, values, ops, exemplar_cap)
    ]
    count = len(hits) * (q - 1) ** (n - 1 if w else 0)
    return SearchResult(count, exemplars, comb(n, k) * q ** (k * w), blocks)
