"""List-decoding and tensor-code consequences of the higher-order MDS checks.

Brute-force deciders for average-radius list decodability (a syndrome-bucket
search over weight-bounded vectors), the order-(ell+1) duality cross-check,
worst-case list decodability by the same bucketing of one Hamming ball, and
maximal recoverability of tensor codes against a randomized generic oracle.

Everything here is exhaustive verification at desk scale, not an efficient
decoder.  Grid cells are addressed row-major: cell (r, c) is column r*n + c
of the tensor parity-check matrix.

Every sweep computes through the backend ``field_ops`` picks for its field:
the list-decoding checks enumerate weight-bounded vectors with their
syndromes, one row operation each, and the tensor check uses the row
operations of the code field's backend and of the generic oracle field's.
Exhaustively, a family of correctable patterns is one 2^(m*n)-bit int: the
down-closure of the complements of the bases of the tensor generator's
columns; sampled, a pattern is decided by the rank of its parity-check
columns.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .codes import (
    GENERIC_ORACLE_FIELD,
    GENERIC_ORACLE_PRIME,
    CodeSpec,
    dual_code,
    explicit_code,
    generator_matrix,
)
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    RankLossError,
    SizeConstraintError,
)
from .fields import FieldSpec
from .linalg import MatrixF, eliminate, field_ops, null_basis, rref
from .mdscheck import CheckReport, is_mds_ell

__all__ = [
    "ErasurePattern",
    "TensorCodeSpec",
    "parse_pattern",
    "single_parity_code",
    "ld_mds_check",
    "duality_test",
    "worst_case_ld_check",
    "tensor_parity",
    "mr_check",
]


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased cells of an m x n grid, as 0-based (row, col) pairs."""

    m: int
    n: int
    cells: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        for r, c in self.cells:
            if not (0 <= r < self.m and 0 <= c < self.n):
                raise SizeConstraintError(
                    f"cell ({r},{c}) outside the {self.m}x{self.n} grid"
                )

    @classmethod
    def from_indices(cls, m: int, n: int, indices) -> "ErasurePattern":
        return cls(m, n, frozenset(divmod(i, n) for i in indices))

    def indices(self) -> Tuple[int, ...]:
        return tuple(sorted(r * self.n + c for r, c in self.cells))

    def format(self) -> str:
        return ";".join(f"{r},{c}" for r, c in sorted(self.cells))


def parse_pattern(text: str, m: int, n: int) -> ErasurePattern:
    """Parse the semicolon-separated "r,c;r,c" cell list; a malformed cell
    or one outside the m x n grid raises SizeConstraintError."""
    cells = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            r, c = map(int, chunk.split(","))
        except ValueError:
            raise SizeConstraintError(f"pattern cell {chunk!r} is not r,c")
        cells.add((r, c))
    return ErasurePattern(m, n, frozenset(cells))


@dataclass(frozen=True)
class TensorCodeSpec:
    """C_col (x) C_row: an [m, m-a] column code and an [n, n-b] row code."""

    col_code: CodeSpec
    row_code: CodeSpec

    def __post_init__(self):
        if self.col_code.field != self.row_code.field:
            raise FieldMismatchError("component codes must share a field")

    @property
    def m(self) -> int:
        return self.col_code.n

    @property
    def n(self) -> int:
        return self.row_code.n

    @property
    def a(self) -> int:
        return self.col_code.n - self.col_code.k

    @property
    def b(self) -> int:
        return self.row_code.n - self.row_code.k


def single_parity_code(field: FieldSpec, m: int) -> CodeSpec:
    """The [m, m-1] code of vectors whose coordinates sum to zero."""
    if m < 2:
        raise SizeConstraintError("need m >= 2")
    rows = []
    for i in range(m - 1):
        row = [field.zero] * m
        row[i] = field.one
        row[m - 1] = -field.one
        rows.append(row)
    return explicit_code(field, rows)


# -- average-radius list decodability ---------------------------------------------


def _weight_bounded_count(n: int, q: int, w_max: int) -> int:
    return sum(math.comb(n, w) * (q - 1) ** w for w in range(w_max + 1))


def _syndromes(code: CodeSpec, w_max: int):
    """(support, values, syndrome) for every vector of weight at most w_max,
    weight first, then supports in ``combinations`` order, then values in
    ``product`` order.  Values are canonical indices; the syndrome under the
    code's parity check is in the encoding of its field's backend.  The sums
    over a support's first w - 1 coordinates are computed once for every
    support that extends them, so each vector costs one row operation."""
    field, n = code.field, code.n
    ops = field_ops(field)
    h = generator_matrix(dual_code(code))
    cols = [[ops.encode(x) for x in h.col(j)] for j in range(n)]
    values = range(1, field.order)
    negs = [ops.neg(ops.encode(field.from_int(v))) for v in values]
    sub, zero = ops.sub_multiple, [ops.zero] * h.nrows
    yield (), (), zero
    for w in range(1, w_max + 1):
        # a head ending at the last coordinate extends to no support
        for head in itertools.combinations(range(n - 1), w - 1):
            sums = [zero]
            for p in head:
                sums = [sub(s, cols[p], f, 0) for s in sums for f in negs]
            heads = list(zip(itertools.product(values, repeat=w - 1), sums))
            for p in range(head[-1] + 1 if head else 0, n):
                supp, col = head + (p,), cols[p]
                for vals, s in heads:
                    for v, f in zip(values, negs):
                        yield supp, vals + (v,), sub(s, col, f, 0)


def _ld_sweep(code: CodeSpec, sizes: Sequence[int]):
    """Decide every list size in ``sizes`` in one sweep:
    ({size: (ok, vectors, failure detail)}, vectors walked).

    Size ell fails iff ell+1 distinct vectors share a syndrome with total
    weight at most ell*(n-k).  The sweep reads ``_syndromes`` up to the
    largest size's weight once; size ell reads its prefix up to weight
    ell*(n-k).  Its ``vectors`` is that prefix's length when it passes and
    the position of its failing vector when it fails.  Each bucket
    holds its syndrome's first max(sizes)+1 arrivals, the minimum-total
    choice since weights ascend, so its (ell+1)-th arrival decides it for
    size ell: the size fails if the total weight is at most ell*(n-k),
    else later arrivals can never fail it there.  A size ends at its first
    failing bucket, once all q^(n-k) syndrome classes are decided for it
    (H has full rank, so every class is reached), or where the stream
    passes its weight.  The sweep stops once every size below the smallest
    failed one has ended, so a larger size failing first never pre-empts a
    smaller one failing later.  The argument uses no MDS(ell) fact."""
    n, k = code.n, code.k
    if k == n:
        # weight budget ell*(n-k) = 0: only the zero vector qualifies
        return dict.fromkeys(sizes, (True, 1, None)), 0
    if k == 0:
        # the syndrome map is injective, buckets are singletons
        return dict.fromkeys(sizes, (True, 0, None)), 0
    r, q = n - k, code.field.order
    ends = {ell: _weight_bounded_count(n, q, ell * r) for ell in sizes}
    undecided = dict.fromkeys(sizes, q**r)
    results: Dict[int, tuple] = {}
    running, top = set(sizes), max(sizes)
    buckets: Dict[tuple, list] = {}
    stream = _syndromes(code, top * r)
    walked = 0
    for end in sorted(set(ends.values())):
        for seen, (supp, vals, syn) in enumerate(
            itertools.islice(stream, end - walked), walked + 1
        ):
            best = buckets.setdefault(tuple(syn), [])
            ell = len(best)
            if ell > top:
                continue
            best.append((supp, vals))
            if ell not in running:
                continue
            total = sum(len(s) for s, _ in best)
            if total <= ell * r:
                vecs = " | ".join(
                    str(tuple(dict(zip(s, v)).get(p, 0) for p in range(n)))
                    for s, v in best
                )
                results[ell] = False, seen, (
                    f"list size {ell}: {ell + 1} distinct vectors share "
                    f"a syndrome with total weight {total} <= {ell * r}: {vecs}"
                )
                running = {s for s in running if s < ell}
            else:
                undecided[ell] -= 1
                if undecided[ell]:
                    continue
                results[ell] = True, ends[ell], None
                running.discard(ell)
            if not running:
                return results, seen
            top = max(running)
        walked = end
        for ell in [s for s in running if ends[s] == end]:
            results[ell] = True, end, None
            running.discard(ell)
        if not running:
            break
    return results, walked


def ld_mds_check(
    code: CodeSpec, L: int, up_to: bool = True, budget: int = 10**6
) -> CheckReport:
    """Decide average-radius list decodability at list size L.

    Fails iff L+1 distinct vectors share a syndrome of the code's parity
    check with total weight at most L*(n-k).  With up_to=True the property
    is required at every list size 1..L.  One weight-ascending sweep up to
    weight L*(n-k) serves every size (see ``_ld_sweep``): a passing size
    stops once every syndrome class holds ell+1 vectors too heavy to fail,
    and reports its full prefix's count.  ``tuples`` is the sum of those
    per-size counts up to the first failing size, and ``evaluated`` counts
    the vectors the one sweep walked.  Every size's count is held to the
    budget before the sweep starts.  Vector entries in failure details are
    canonical element indices.
    """
    if L < 1:
        raise SizeConstraintError(f"need L >= 1, got {L}")
    prop = f"ld-mds(<={L})" if up_to else f"ld-mds({L})"
    sizes = range(1, L + 1) if up_to else (L,)
    n, k = code.n, code.k
    for ell in sizes if 0 < k < n else ():  # k = 0 or n sweeps nothing
        count = _weight_bounded_count(n, code.field.order, ell * (n - k))
        if count > budget:
            raise BudgetExceededError(
                f"{count} weight-bounded vectors exceed budget {budget}"
            )
    results, walked = _ld_sweep(code, sizes)
    total = 0
    for ell in sizes:
        ok, seen, detail = results[ell]
        total += seen
        if not ok:
            return CheckReport(prop, False, total, detail=detail, evaluated=walked)
    return CheckReport(prop, True, total, evaluated=walked)


def duality_test(code: CodeSpec, ell: int, budget: int = 10**6) -> CheckReport:
    """Cross-check order-(ell+1) structure against list decodability of the dual.

    Runs is_mds_ell(code, ell+1) and ld_mds_check(dual, <=ell) independently
    and passes iff the verdicts agree; a disagreement would falsify one of
    the two implementations, so the detail always records both verdicts.
    """
    if ell < 1:
        raise SizeConstraintError(f"need ell >= 1, got {ell}")
    prop = f"duality(ell={ell})"
    if code.k == 0:
        return CheckReport(prop, True, 0, detail="zero-dimensional code")
    left = is_mds_ell(code, ell + 1)
    right = ld_mds_check(dual_code(code), ell, up_to=True, budget=budget)
    detail = f"mds({ell + 1})={left.verdict} ld-mds(<={ell})={right.verdict}"
    return CheckReport(
        prop, left.ok == right.ok, left.tuples + right.tuples, detail=detail
    )


# -- worst-case list decodability --------------------------------------------------


def worst_case_ld_check(
    code: CodeSpec,
    L: int,
    radius_num: int,
    radius_den: int,
    budget: int = 10**6,
) -> CheckReport:
    """Decide (L, rho)-worst-case list decodability, rho = radius_num/radius_den.

    Passes iff every point of F_q^n has at most L codewords within Hamming
    distance t = floor(rho*n).  The codewords within t of a point y are
    y - e for the vectors e of weight at most t with He = Hy, so the list
    size at y is the size of y's syndrome bucket in the radius-t ball around
    zero, and the work is that one ball.  A failure names the first point to
    collect more than L codewords in a sweep of the balls around every
    codeword, in message order; the sweep visits only the ball vectors of
    buckets larger than L.  Tuples count the ball points of that sweep up to
    the failing codeword, or of every codeword on a pass.  Both q^n and q^k
    times the ball size must stay within the budget.
    """
    if L < 0:
        raise SizeConstraintError(f"need L >= 0, got {L}")
    if radius_num < 0 or radius_den <= 0:
        raise SizeConstraintError("radius must be a nonnegative rational")
    n, k = code.n, code.k
    field = code.field
    q = field.order
    t = min((radius_num * n) // radius_den, n)
    ball = _weight_bounded_count(n, q, t)
    if q**n > budget or q**k * ball > budget:
        raise BudgetExceededError(
            f"{q}^{n} points or {q}^{k}*{ball} ball sweeps exceed budget {budget}"
        )
    prop = f"worst-case-ld(L={L},rho={radius_num}/{radius_den})"
    sizes = collections.Counter(tuple(syn) for _, _, syn in _syndromes(code, t))
    worst = max(sizes.values())
    if worst <= L:
        return CheckReport(
            prop, True, q**k * ball, detail=f"radius {t}, max list size {worst}"
        )
    ops = field_ops(field)
    enc = [ops.encode(field.from_int(v)) for v in range(q)]
    hot = []
    for supp, vals, syn in _syndromes(code, t):
        if sizes[tuple(syn)] > L:
            e = [ops.zero] * n
            for p, v in zip(supp, vals):
                e[p] = enc[v]
            hot.append(e)
    sub, minus = ops.sub_multiple, [ops.neg(a) for a in enc]
    words = [[ops.zero] * n]
    for row in generator_matrix(code).rows:
        g = [ops.encode(x) for x in row]
        words = [sub(c, g, f, 0) for c in words for f in minus]
    counts: Dict[tuple, int] = {}
    for (i, word), e in itertools.product(enumerate(words), hot):
        y = tuple(sub(word, e, minus[1], 0))  # word + e
        counts[y] = counts.get(y, 0) + 1
        if counts[y] > L:
            break
    near = [c for c in words if sum(a != b for a, b in zip(c, y)) <= t]

    def indices(v) -> str:
        return str(tuple(ops.decode(a).to_int() for a in v))

    detail = (
        f"center {indices(y)} has {len(near)} > {L} codewords within "
        f"radius {t}: " + " | ".join(map(indices, near))
    )
    return CheckReport(prop, False, (i + 1) * ball, detail=detail)


# -- tensor codes -------------------------------------------------------------------


def _tensor_layout(hcol_rows, hrow_rows, m: int, n: int, zero):
    """Stacked constraint rows on row-major cells: per-column checks, then per-row."""
    rows = []
    for c in range(n):
        for h in hcol_rows:
            row = [zero] * (m * n)
            for r in range(m):
                row[r * n + c] = h[r]
            rows.append(row)
    for r in range(m):
        for h in hrow_rows:
            row = [zero] * (m * n)
            for c in range(n):
                row[r * n + c] = h[c]
            rows.append(row)
    return rows


def tensor_parity(spec: TensorCodeSpec) -> MatrixF:
    """Parity-check matrix of C_col (x) C_row on row-major cell coordinates.

    Stacks the column-code checks applied to every grid column over the
    row-code checks applied to every grid row, row-reduces, and drops zero
    rows; the result has rank m*n - (m-a)*(n-b).
    """
    field = spec.col_code.field
    m, n = spec.m, spec.n
    hcol = generator_matrix(dual_code(spec.col_code))
    hrow = generator_matrix(dual_code(spec.row_code))
    stacked = _tensor_layout(hcol.rows, hrow.rows, m, n, field.zero)
    reduced, pivots = rref(MatrixF(field, stacked))
    expected = m * n - (m - spec.a) * (n - spec.b)
    if len(pivots) != expected:
        raise RankLossError(
            f"tensor parity rank {len(pivots)}, expected {expected}"
        )
    return MatrixF(field, [list(reduced.rows[i]) for i in range(len(pivots))])


def _parity_columns(hcol_rows, hrow_rows, m: int, n: int, ops):
    """Columns of the stacked tensor parity check, one list per cell."""
    rows = _tensor_layout(hcol_rows, hrow_rows, m, n, ops.zero)
    return [[row[j] for row in rows] for j in range(m * n)]


def _actual_checks(spec: TensorCodeSpec, ops):
    """The component parity checks in the encoding of the backend ops."""
    return tuple(
        [[ops.encode(x) for x in row] for row in generator_matrix(dual_code(code)).rows]
        for code in (spec.col_code, spec.row_code)
    )


def _generic_checks(m, n, a, b, rng):
    """Random component parity checks over the generic oracle's prime."""
    p = GENERIC_ORACLE_PRIME
    hcol = [[rng.randrange(p) for _ in range(m)] for _ in range(a)]
    hrow = [[rng.randrange(p) for _ in range(n)] for _ in range(b)]
    return hcol, hrow


def _bit_set_selector(i: int, cells: int) -> int:
    """The 2^cells-bit int with bit e set iff cell i is in pattern mask e."""
    width = 1 << i
    sel = ((1 << width) - 1) << width
    span = width << 1
    while span < 1 << cells:
        sel |= sel << span
        span <<= 1
    return sel


def _correctable_bits(hcol, hrow, m: int, n: int, ops) -> int:
    """The correctable erasure patterns of ker(hcol) (x) ker(hrow), as one
    int with bit e set when the cells of mask e are correctable.

    E is correctable iff no nonzero codeword lies inside E, iff the columns
    of the generator null_basis(hcol) (x) null_basis(hrow) off E have full
    rank; so the family is the down-closure of the complements of the bases
    of the generator's column matroid.  The bases are found depth first with
    the backend's row operations: candidates are kept reduced against the
    current independent set, one that reduces to zero is dropped from the
    whole subtree, and a branch whose candidates cannot reach the rank is cut.

    The last two columns of a basis take no row operation.  A kept candidate
    is zero at the lead position of every column already chosen, so at depth
    rank - 2 it is a nonzero vector on the two coordinates left, and two
    candidates complete a basis iff those 2-vectors are not parallel.  So
    each candidate gets one direction key, its entry at the second of those
    coordinates over its entry at the first (None when that one is zero),
    computed with one inverse and one product in the backend's encoding,
    which is canonical; every pair whose keys differ is marked.  ``free``
    holds the coordinates that are no chosen column's lead.
    """
    gcol, grow = null_basis(hcol, m, ops), null_basis(hrow, n, ops)
    rank = len(gcol) * len(grow)
    mul, inv = ops.mul, ops.inv
    columns = [
        [mul(u[r], v[c]) for u in gcol for v in grow]
        for r in range(m)
        for c in range(n)
    ]
    cells = m * n
    full = (1 << cells) - 1
    marks = bytearray(((1 << cells) + 7) >> 3)

    def mark(basis):
        comp = full ^ basis
        marks[comp >> 3] |= 1 << (comp & 7)

    def rec(mask, depth, free, cand):
        if depth == rank - 2:
            u, v = free
            keys = [
                (j, mul(col[v], inv(col[u])) if col[u] else None) for j, col in cand
            ]
            for pos, (j, key) in enumerate(keys):
                pair = mask | 1 << j
                for j2, key2 in keys[pos + 1 :]:
                    if key != key2:
                        mark(pair | 1 << j2)
            return
        for pos, (j, col) in enumerate(cand):
            if depth + len(cand) - pos < rank:
                break
            lead = next(i for i, x in enumerate(col) if x)
            top = ops.scale(col, inv(col[lead]), lead)
            survivors = []
            for j2, col2 in cand[pos + 1 :]:
                if col2[lead]:
                    col2 = ops.sub_multiple(col2, top, col2[lead], lead)
                    if not any(col2):
                        continue
                survivors.append((j2, col2))
            if depth + 1 + len(survivors) >= rank:
                rest = tuple(i for i in free if i != lead)
                rec(mask | 1 << j, depth + 1, rest, survivors)

    nonzero = [(j, col) for j, col in enumerate(columns) if any(col)]
    if rank >= 2:
        rec(0, 0, tuple(range(rank)), nonzero)
    elif rank:  # every nonzero column is a basis
        for j, _ in nonzero:
            mark(1 << j)
    else:
        mark(0)
    bits = int.from_bytes(marks, "little")
    for i in range(cells):
        bits |= (bits & _bit_set_selector(i, cells)) >> (1 << i)
    return bits


def _majority(families: Sequence[int]) -> int:
    """Bits set in more than half of the ints: a bit-sliced vote count,
    least significant slice first, compared against len // 2 + 1."""
    slices: List[int] = []
    for carry in families:
        for i, s in enumerate(slices):
            slices[i], carry = s ^ carry, s & carry
        if carry:
            slices.append(carry)
    need = len(families) // 2 + 1
    if need >> len(slices):
        return 0
    # equal starts as every bit; need's top bit masks it to a slice
    above, equal = 0, -1
    for i in reversed(range(len(slices))):
        if need >> i & 1:
            equal &= slices[i]
        else:
            above |= equal & slices[i]
            equal &= ~slices[i]
    return above | equal


def _first_pattern(bits: int) -> int:
    """The set bit e of bits whose pattern has the fewest cells, ties going
    to the lower sorted cell list (the lowest cell where two masks differ
    belongs to it); one scan of the binary string, lowest bit first."""
    s = bin(bits)[:1:-1]
    best = e = s.find("1")
    size = best.bit_count()
    while True:
        e = s.find("1", e + 1)
        if e < 0:
            return best
        k = e.bit_count()
        if k < size or (k == size and e & (e ^ best) & -(e ^ best)):
            best, size = e, k


def _cells_of(mask: int, cells: int) -> List[int]:
    return [j for j in range(cells) if mask >> j & 1]


def _cols_rank(columns, idxs, ops) -> int:
    return len(eliminate([list(columns[j]) for j in idxs], ops)[0])


def _decided_majority(families: Iterable[int], trials: int) -> int:
    """``_majority`` of the ``trials`` ints that ``families`` yields, read
    lazily: once one int has been yielded need = trials // 2 + 1 times it is
    the majority, because its bits are set in at least need of the ints and
    every other bit in at most trials - need < need, so the rest are never
    read.  When no int reaches need, the vote is over all of them."""
    need = trials // 2 + 1
    counts: Dict[int, int] = {}
    seen = []
    for family in families:
        counts[family] = counts.get(family, 0) + 1
        if counts[family] == need:
            return family
        seen.append(family)
    return _majority(seen)


# majority-vote generic families, cached by shape; the oracle is seeded, so
# every spec of the same shape shares one family, and the cache is bounded
# because a family is one 2^(m*n)-bit int (128 KB at twenty cells)
@functools.lru_cache(maxsize=8)
def _generic_family(m, n, a, b, trials, seed) -> int:
    """The majority over ``trials`` seeded random component codes of their
    correctable families.  The trials draw in order from one
    ``random.Random(seed)``, and the vote stops as soon as one family has
    been produced trials // 2 + 1 times (see ``_decided_majority``), so
    when the trials agree only that many run."""
    rng = random.Random(seed)
    ops = field_ops(GENERIC_ORACLE_FIELD)
    families = (
        _correctable_bits(*_generic_checks(m, n, a, b, rng), m, n, ops)
        for _ in range(trials)
    )
    return _decided_majority(families, trials)


def mr_check(
    spec: TensorCodeSpec,
    budget: int = 10**6,
    trials: int = 5,
    seed: int = 0,
) -> CheckReport:
    """Maximal recoverability: correctable patterns match the generic oracle.

    A pattern E is correctable iff no nonzero codeword of C_col (x) C_row
    lies inside E, i.e. iff the E-indexed columns of the tensor parity check
    are independent.  The actual family of correctable patterns is compared
    against the family for random component codes over a large prime field
    (majority over `trials` seeded runs).  All 2^(m*n) patterns are decided
    when that count is within budget: each family is one 2^(m*n)-bit int,
    the down-closure of the complements of the bases of the tensor
    generator's columns.  Otherwise a seeded uniform sample of `budget`
    patterns is compared by column ranks of the parity check, with coverage
    in the detail; a budget of 0 samples nothing and is refused.  A
    negative budget or fewer than one trial is a size error.
    """
    m, n, a, b = spec.m, spec.n, spec.a, spec.b
    if a < 1 or b < 0:
        raise SizeConstraintError("need a >= 1 and b >= 0")
    if trials < 1:
        raise SizeConstraintError(f"need trials >= 1, got {trials}")
    if budget < 0:
        raise SizeConstraintError(f"need budget >= 0, got {budget}")
    cells = m * n
    prop = f"mr-tensor(m={m},n={n},a={a},b={b})"
    act_ops = field_ops(spec.row_code.field)

    if 2**cells <= budget:
        act = _correctable_bits(*_actual_checks(spec, act_ops), m, n, act_ops)
        gen = _generic_family(m, n, a, b, trials, seed)
        diff = act ^ gen
        if diff:
            e = _first_pattern(diff)
            side = (
                "correctable generically but not by this code"
                if gen >> e & 1
                else "correctable by this code but not generically"
            )
            pattern = ErasurePattern.from_indices(m, n, _cells_of(e, cells))
            detail = (
                f"mode=exhaustive; pattern {pattern.format() or '(empty)'} "
                f"{side}; {diff.bit_count()} disagreements"
            )
            return CheckReport(prop, False, 2**cells, detail=detail)
        detail = (
            f"mode=exhaustive; {act.bit_count()} of {2**cells} patterns correctable"
        )
        return CheckReport(prop, True, 2**cells, detail=detail)

    # sampling mode
    if budget == 0:
        raise BudgetExceededError(f"budget 0 samples none of {2**cells} patterns")
    act_cols = _parity_columns(*_actual_checks(spec, act_ops), m, n, act_ops)
    rng = random.Random(seed)
    gen_ops = field_ops(GENERIC_ORACLE_FIELD)
    gen_runs = [
        _parity_columns(
            *_generic_checks(m, n, a, b, random.Random(seed + 1 + i)), m, n, gen_ops
        )
        for i in range(trials)
    ]
    need = trials // 2 + 1
    for _ in range(budget):
        idxs = _cells_of(rng.getrandbits(cells), cells)
        act = _cols_rank(act_cols, idxs, act_ops) == len(idxs)
        # the vote stops once it reaches need or can no longer reach it
        votes = 0
        for done, cols in enumerate(gen_runs, 1):
            votes += _cols_rank(cols, idxs, gen_ops) == len(idxs)
            if votes >= need or votes + trials - done < need:
                break
        gen = votes >= need
        if act != gen:
            pattern = ErasurePattern.from_indices(m, n, idxs)
            side = (
                "correctable generically but not by this code"
                if gen
                else "correctable by this code but not generically"
            )
            detail = (
                f"mode=sampled {budget}/{2**cells}; pattern "
                f"{pattern.format() or '(empty)'} {side}"
            )
            return CheckReport(prop, False, budget, detail=detail)
    detail = f"mode=sampled; {budget} of {2**cells} patterns agree"
    return CheckReport(prop, True, budget, detail=detail)
