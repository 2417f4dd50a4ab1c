"""List-decoding and tensor-code consequences of the higher-order MDS checks.

Brute-force deciders for average-radius list decodability (a syndrome-bucket
search over weight-bounded vectors), the order-(ell+1) duality cross-check,
worst-case list decodability by Hamming-ball enumeration, and maximal
recoverability of tensor codes against a randomized generic oracle.

Everything here is exhaustive verification at desk scale, not an efficient
decoder.  Grid cells are addressed row-major: cell (r, c) is column r*n + c
of the tensor parity-check matrix.

The sweeps work on canonical element indices: the list-decoding checks read
the field's index tables, and the tensor check uses the row operations of
linalg's backends (the table backend for the code's field, the mod-p backend
for the generic oracle's prime).  Exhaustively, a family of correctable
patterns is one 2^(m*n)-bit int: the down-closure of the complements of the
bases of the tensor generator's columns; sampled, a pattern is decided by
the rank of its parity-check columns.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .codes import (
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
from .linalg import MatrixF, ModPOps, TableOps, eliminate, null_basis, rref
from .mdscheck import CheckReport, _report, is_mds_ell

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


def _ld_single(code: CodeSpec, ell: int, budget: int):
    """One list size: (ok, vectors enumerated, failure detail)."""
    n, k = code.n, code.k
    if k == n:
        # weight budget ell*(n-k) = 0: only the zero vector qualifies
        return True, 1, None
    if k == 0:
        # the syndrome map is injective, buckets are singletons
        return True, 0, None
    w_max = ell * (n - k)
    q = code.field.order
    # guard before touching the int backend: its tables are q^2 entries
    count = _weight_bounded_count(n, q, w_max)
    if count > budget:
        raise BudgetExceededError(
            f"{count} weight-bounded vectors exceed budget {budget}"
        )
    tables = code.field.index_tables()
    add, mul = tables.add, tables.mul
    h = generator_matrix(dual_code(code))
    hrows = [[x.to_int() for x in row] for row in h.rows]
    nonzero = range(1, q)
    # buckets hold the first ell+1 arrivals; weight-ascending enumeration
    # makes those the minimum-total choice, so each bucket is decided once
    buckets: Dict[Tuple[int, ...], List[Tuple[int, Tuple[int, ...]]]] = {}
    seen = 0
    for w in range(w_max + 1):
        for supp in itertools.combinations(range(n), w):
            for vals in itertools.product(nonzero, repeat=w):
                seen += 1
                syn = []
                for hrow in hrows:
                    acc = 0
                    for p, v in zip(supp, vals):
                        acc = add[acc][mul[hrow[p]][v]]
                    syn.append(acc)
                best = buckets.setdefault(tuple(syn), [])
                if len(best) > ell:
                    continue
                vec = [0] * n
                for p, v in zip(supp, vals):
                    vec[p] = v
                best.append((w, tuple(vec)))
                if len(best) == ell + 1:
                    total = sum(b[0] for b in best)
                    if total <= w_max:
                        vecs = " | ".join(str(b[1]) for b in best)
                        detail = (
                            f"list size {ell}: {ell + 1} distinct vectors share "
                            f"a syndrome with total weight {total} <= {w_max}: "
                            f"{vecs}"
                        )
                        return False, seen, detail
    return True, seen, None


def ld_mds_check(
    code: CodeSpec, L: int, up_to: bool = True, budget: int = 10**6
) -> CheckReport:
    """Decide average-radius list decodability at list size L.

    Fails iff L+1 distinct vectors share a syndrome of the code's parity
    check with total weight at most L*(n-k); the search enumerates vectors
    in weight-ascending order and buckets them by syndrome.  With up_to=True
    the property is required at every list size 1..L.  Vector entries in
    failure details are canonical element indices.
    """
    t0 = time.perf_counter()
    if L < 1:
        raise SizeConstraintError(f"need L >= 1, got {L}")
    prop = f"ld-mds(<={L})" if up_to else f"ld-mds({L})"
    sizes = range(1, L + 1) if up_to else (L,)
    total = 0
    for ell in sizes:
        ok, seen, detail = _ld_single(code, ell, budget)
        total += seen
        if not ok:
            return _report(prop, False, total, t0, detail=detail)
    return _report(prop, True, total, t0)


def duality_test(code: CodeSpec, ell: int, budget: int = 10**6) -> CheckReport:
    """Cross-check order-(ell+1) structure against list decodability of the dual.

    Runs is_mds_ell(code, ell+1) and ld_mds_check(dual, <=ell) independently
    and passes iff the verdicts agree; a disagreement would falsify one of
    the two implementations, so the detail always records both verdicts.
    """
    t0 = time.perf_counter()
    if ell < 1:
        raise SizeConstraintError(f"need ell >= 1, got {ell}")
    prop = f"duality(ell={ell})"
    if code.k == 0:
        return _report(prop, True, 0, t0, detail="zero-dimensional code")
    left = is_mds_ell(code, ell + 1)
    right = ld_mds_check(dual_code(code), ell, up_to=True, budget=budget)
    detail = f"mds({ell + 1})={left.verdict} ld-mds(<={ell})={right.verdict}"
    return _report(
        prop, left.ok == right.ok, left.tuples + right.tuples, t0, detail=detail
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
    distance floor(rho*n).  Implemented by sweeping a radius-floor(rho*n)
    ball around every codeword, so the work is q^k times the ball size;
    both that product and q^n must stay within the budget.
    """
    t0 = time.perf_counter()
    if L < 0:
        raise SizeConstraintError(f"need L >= 0, got {L}")
    if radius_num < 0 or radius_den <= 0:
        raise SizeConstraintError("radius must be a nonnegative rational")
    n, k = code.n, code.k
    q = code.field.order
    t = min((radius_num * n) // radius_den, n)
    ball = _weight_bounded_count(n, q, t)
    # guard before touching the int backend: its tables are q^2 entries
    if q**n > budget or q**k * ball > budget:
        raise BudgetExceededError(
            f"{q}^{n} points or {q}^{k}*{ball} ball sweeps exceed budget {budget}"
        )
    prop = f"worst-case-ld(L={L},rho={radius_num}/{radius_den})"
    tables = code.field.index_tables()
    add, mul = tables.add, tables.mul
    g = generator_matrix(code)
    grows = [[x.to_int() for x in row] for row in g.rows]
    codewords = []
    for msg in itertools.product(range(q), repeat=k):
        cw = []
        for j in range(n):
            acc = 0
            for i in range(k):
                acc = add[acc][mul[msg[i]][grows[i][j]]]
            cw.append(acc)
        codewords.append(tuple(cw))
    counts: Dict[Tuple[int, ...], int] = {}
    swept = 0
    offender = None
    for cw in codewords:
        for w in range(t + 1):
            for supp in itertools.combinations(range(n), w):
                for vals in itertools.product(range(1, q), repeat=w):
                    swept += 1
                    y = list(cw)
                    for p, v in zip(supp, vals):
                        y[p] = add[y[p]][v]
                    y = tuple(y)
                    c = counts.get(y, 0) + 1
                    counts[y] = c
                    if c > L and offender is None:
                        offender = y
        if offender is not None:
            break
    if offender is not None:
        near = [cw for cw in codewords if sum(a != b for a, b in zip(cw, offender)) <= t]
        detail = (
            f"center {offender} has {len(near)} > {L} codewords within "
            f"radius {t}: " + " | ".join(str(cw) for cw in near)
        )
        return _report(prop, False, swept, t0, detail=detail)
    worst = max(counts.values()) if counts else 0
    return _report(
        prop, True, swept, t0, detail=f"radius {t}, max list size {worst}"
    )


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


def _parity_columns(hcol_rows, hrow_rows, m: int, n: int):
    """Columns of the stacked tensor parity check, one list per cell."""
    rows = _tensor_layout(hcol_rows, hrow_rows, m, n, 0)
    return [[row[j] for row in rows] for j in range(m * n)]


def _actual_checks(spec: TensorCodeSpec):
    """The component parity checks as canonical indices of the code's field."""
    return tuple(
        [[x.to_int() for x in row] for row in generator_matrix(dual_code(code)).rows]
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
    """
    gcol, grow = null_basis(hcol, m, ops), null_basis(hrow, n, ops)
    rank = len(gcol) * len(grow)
    mul = ops.mul
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

    def rec(mask, depth, cand):
        if depth == rank - 1:
            # every reduced candidate completes a basis
            for j, _ in cand:
                mark(mask | 1 << j)
            return
        for pos, (j, col) in enumerate(cand):
            if depth + len(cand) - pos < rank:
                break
            lead = next(i for i, x in enumerate(col) if x)
            top = ops.scale(col, ops.inv(col[lead]), lead)
            survivors = []
            for j2, col2 in cand[pos + 1 :]:
                if col2[lead]:
                    col2 = ops.sub_multiple(col2, top, col2[lead], lead)
                    if not any(col2):
                        continue
                survivors.append((j2, col2))
            if depth + 1 + len(survivors) >= rank:
                rec(mask | 1 << j, depth + 1, survivors)

    if rank:
        rec(0, 0, [(j, col) for j, col in enumerate(columns) if any(col)])
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


# majority-vote generic families, cached by shape; the oracle is seeded, so
# every spec of the same shape shares one family, and the cache is bounded
# because a family is one 2^(m*n)-bit int (128 KB at twenty cells)
@functools.lru_cache(maxsize=8)
def _generic_family(m, n, a, b, trials, seed) -> int:
    rng = random.Random(seed)
    ops = ModPOps(GENERIC_ORACLE_PRIME)
    families = [
        _correctable_bits(*_generic_checks(m, n, a, b, rng), m, n, ops)
        for _ in range(trials)
    ]
    return _majority(families)


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
    in the detail.
    """
    t0 = time.perf_counter()
    m, n, a, b = spec.m, spec.n, spec.a, spec.b
    if a < 1 or b < 0:
        raise SizeConstraintError("need a >= 1 and b >= 0")
    cells = m * n
    prop = f"mr-tensor(m={m},n={n},a={a},b={b})"
    q = spec.row_code.field.order
    # the int backend precomputes q^2-entry tables; a pattern decision costs
    # on the order of 100 int ops, so keep the table cost inside that scale
    if q * q > 100 * budget:
        raise BudgetExceededError(
            f"field order {q} needs {q * q} table entries, over budget {budget}"
        )
    act_ops = TableOps(spec.row_code.field)

    if 2**cells <= budget:
        act = _correctable_bits(*_actual_checks(spec), m, n, act_ops)
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
            return _report(prop, False, 2**cells, t0, detail=detail)
        detail = (
            f"mode=exhaustive; {act.bit_count()} of {2**cells} patterns correctable"
        )
        return _report(prop, True, 2**cells, t0, detail=detail)

    # sampling mode
    act_cols = _parity_columns(*_actual_checks(spec), m, n)
    rng = random.Random(seed)
    gen_ops = ModPOps(GENERIC_ORACLE_PRIME)
    gen_runs = [
        _parity_columns(
            *_generic_checks(m, n, a, b, random.Random(seed + 1 + i)), m, n
        )
        for i in range(trials)
    ]
    for _ in range(budget):
        idxs = _cells_of(rng.getrandbits(cells), cells)
        act = _cols_rank(act_cols, idxs, act_ops) == len(idxs)
        votes = sum(
            _cols_rank(cols, idxs, gen_ops) == len(idxs) for cols in gen_runs
        )
        gen = 2 * votes > trials
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
            return _report(prop, False, budget, t0, detail=detail)
    detail = f"mode=sampled; {budget} of {2**cells} patterns agree"
    return _report(prop, True, budget, t0, detail=detail)
