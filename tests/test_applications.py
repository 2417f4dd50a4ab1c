"""Tests for list-decodability deciders and tensor-code recoverability."""

import itertools
import math
import random

import pytest

from mdskit import applications
from mdskit.applications import (
    ErasurePattern,
    TensorCodeSpec,
    _actual_checks,
    _cells_of,
    _cols_rank,
    _correctable_bits,
    _decided_majority,
    _first_pattern,
    _generic_checks,
    _generic_family,
    _majority,
    _parity_columns,
    duality_test,
    ld_mds_check,
    mr_check,
    parse_pattern,
    single_parity_code,
    tensor_parity,
    worst_case_ld_check,
)
from mdskit.codes import (
    GENERIC_ORACLE_FIELD,
    CodeSpec,
    dual_code,
    explicit_code,
    generator_matrix,
    parse_code,
    rs_code,
)
from mdskit.errors import (
    BudgetExceededError,
    FieldMismatchError,
    SizeConstraintError,
)
from mdskit.fields import field_make, field_of_order
from mdskit.linalg import MatrixF, TableOps, field_ops, rank
from mdskit.mdscheck import is_mds, is_mds_ell
from reference_ops import CountingOps

F2 = field_make(2, [])
F3 = field_make(3, [])
F5 = field_make(5, [])
F7 = field_make(7, [])
F4 = field_make(2, [2])
F8 = field_make(2, [3])
F9 = field_make(3, [2])
F11 = field_make(11, [])


def _rs(field, n, k):
    return rs_code(field, [field.element(i) for i in range(n)], k)


def _random_code(rng, field, q, n, k):
    while True:
        rows = [[field.from_int(rng.randrange(q)) for _ in range(n)] for _ in range(k)]
        if rank(MatrixF(field, rows)) == k:
            return explicit_code(field, rows)


# a [4,2] code over F3 with equal columns 0 and 2: not MDS, so not LD-MDS(1) dual
BAD42 = explicit_code(F3, [[1, 0, 1, 0], [0, 1, 0, 1]])


def _extended_rs_63():
    # Vandermonde on all five points of F5 plus the (0,0,1) column
    rows = [
        [F5.element(p) ** i for p in range(5)] + [F5.element(1 if i == 2 else 0)]
        for i in range(3)
    ]
    return explicit_code(F5, rows)


# -- erasure patterns ---------------------------------------------------------------


def test_pattern_bounds_checked():
    ErasurePattern(2, 3, frozenset({(1, 2)}))
    with pytest.raises(SizeConstraintError):
        ErasurePattern(2, 3, frozenset({(2, 0)}))
    with pytest.raises(SizeConstraintError):
        ErasurePattern(2, 3, frozenset({(0, -1)}))


def test_pattern_text_roundtrip():
    p = parse_pattern("1,2;0,0;1,0", 2, 3)
    assert p.cells == frozenset({(1, 2), (0, 0), (1, 0)})
    assert p.format() == "0,0;1,0;1,2"
    assert parse_pattern(p.format(), 2, 3) == p
    assert parse_pattern("", 2, 3).cells == frozenset()
    assert parse_pattern("", 2, 3).format() == ""


@pytest.mark.parametrize("text", ["1;2", "a,b", "0,1,2"])
def test_malformed_pattern_raises(text):
    with pytest.raises(SizeConstraintError):
        parse_pattern(text, 2, 3)


def test_pattern_indices_row_major():
    p = ErasurePattern(3, 5, frozenset({(0, 1), (2, 4)}))
    assert p.indices() == (1, 14)
    assert ErasurePattern.from_indices(3, 5, (1, 14)) == p


# -- single parity code -------------------------------------------------------------


def test_single_parity_code_shape():
    c = single_parity_code(F5, 4)
    assert (c.n, c.k) == (4, 3)
    assert is_mds(c).ok
    # all generator rows sum to zero
    g = c.matrix
    for row in g.rows:
        total = F5.zero
        for v in row:
            total = total + v
        assert total.is_zero()
    with pytest.raises(SizeConstraintError):
        single_parity_code(F5, 1)


# -- average-radius list decodability ------------------------------------------------


def test_mds_codes_are_ld1():
    for code in (_rs(F7, 5, 2), _rs(F5, 4, 2), _extended_rs_63()):
        assert is_mds(code).ok
        assert ld_mds_check(code, 1).ok


def test_full_code_vacuous_pass():
    full = _rs(F7, 4, 4)
    r = ld_mds_check(full, 2)
    assert r.ok and r.tuples <= 2


def test_zero_dimensional_code_passes():
    zero = rs_code(F5, [F5.element(i) for i in range(4)], 0)
    assert ld_mds_check(zero, 2).ok


def test_single_size_prop_naming():
    r = ld_mds_check(_rs(F7, 5, 2), 2, up_to=False)
    assert r.prop == "ld-mds(2)"
    r = ld_mds_check(_rs(F7, 5, 2), 2, up_to=True)
    assert r.prop == "ld-mds(<=2)"


def test_ld_failure_witness_on_bad_dual():
    # equal generator columns give two weight-1 vectors with equal syndromes
    r = ld_mds_check(dual_code(BAD42), 1)
    assert not r.ok
    assert "total weight 2 <= 2" in r.detail
    assert "(1, 0, 0, 0)" in r.detail and "(0, 0, 1, 0)" in r.detail


def test_extended_rs_63_fails_ld2():
    # MDS but not MDS(3) over F5, so the average-radius property fails at L=2
    ext = _extended_rs_63()
    assert not ld_mds_check(ext, 2, up_to=False).ok
    assert not ld_mds_check(ext, 2, up_to=True).ok


def test_ld_budget_and_validation():
    with pytest.raises(BudgetExceededError):
        ld_mds_check(_rs(F7, 5, 2), 2, budget=10)
    with pytest.raises(SizeConstraintError):
        ld_mds_check(_rs(F7, 5, 2), 0)


# -- duality ------------------------------------------------------------------------


def test_duality_rs52():
    r = duality_test(_rs(F7, 5, 2), 2)
    assert r.ok
    assert r.detail == "mds(3)=pass ld-mds(<=2)=pass"


def test_duality_agreement_on_failing_code():
    r = duality_test(BAD42, 1)
    assert r.ok
    assert r.detail == "mds(2)=fail ld-mds(<=1)=fail"


def test_duality_full_and_zero_codes():
    assert duality_test(_rs(F5, 3, 3), 1).ok
    zero = rs_code(F5, [F5.element(i) for i in range(3)], 0)
    assert duality_test(zero, 1).ok


def test_duality_validation():
    with pytest.raises(SizeConstraintError):
        duality_test(_rs(F7, 5, 2), 0)


def test_duality_agreement_random_pool():
    rng = random.Random(5)
    tested = 0
    while tested < 15:
        q, field = rng.choice(((2, F2), (3, F3), (5, F5)))
        n = rng.randrange(3, 6)
        k = rng.randrange(1, n)
        code = _random_code(rng, field, q, n, k)
        r = duality_test(code, 2)
        assert r.ok, f"disagreement on [{n},{k}] over F{q}: {r.detail}"
        tested += 1


def test_duality_agreement_small_k_over_extension_fields():
    # k in {1, 2} with n from k (dual of dimension 0) up: scaled
    # Reed-Solomon codes, and the same with a zero column or with one column
    # a multiple of another, over GF(4) and GF(9)
    rng = random.Random(12)
    verdicts = set()
    for field, q in ((F4, 4), (F9, 9)):
        for k in (1, 2):
            for n in range(k, min(q, 6) + 1):
                points = [field.from_int(a) for a in rng.sample(range(q), n)]
                scale = [field.from_int(rng.randrange(1, q)) for _ in range(n)]
                rows = [
                    [s * e for s, e in zip(scale, row)]
                    for row in generator_matrix(rs_code(field, points, k)).rows
                ]
                damaged = [rows]
                if n > k:
                    c = field.from_int(rng.randrange(1, q))
                    damaged.append([row[:-1] + [field.zero] for row in rows])
                    damaged.append([row[:-1] + [c * row[0]] for row in rows])
                for gen in damaged:
                    code = explicit_code(field, gen)
                    for ell in (1, 2):
                        r = duality_test(code, ell)
                        assert r.ok, f"[{n},{k}] over GF({q}), ell={ell}: {r.detail}"
                        verdicts.add(r.detail.split()[0])
    assert verdicts == {"mds(2)=pass", "mds(2)=fail", "mds(3)=pass", "mds(3)=fail"}


# -- worst-case list decodability ----------------------------------------------------


def test_worst_case_radius_zero_passes():
    for code in (_rs(F7, 5, 2), BAD42):
        assert worst_case_ld_check(code, 1, 0, 1).ok


def test_worst_case_unique_decoding_radius():
    # L=1 at rho=(n-k)/(2n): the unique-decoding radius floor((d-1)/2)
    code = _rs(F7, 5, 2)
    r = worst_case_ld_check(code, 1, code.n - code.k, 2 * code.n)
    assert r.ok


def test_worst_case_failure_witness():
    r = worst_case_ld_check(_rs(F3, 3, 2), 1, 2, 3)
    assert not r.ok
    assert "> 1 codewords within radius 2" in r.detail


def test_worst_case_monotone_in_radius():
    # once the radius grows enough to fail, shrinking it restores the pass
    code = _rs(F3, 3, 2)
    verdicts = [worst_case_ld_check(code, 1, num, 3).ok for num in (0, 1, 2)]
    assert verdicts == sorted(verdicts, reverse=True)
    assert verdicts[0] and not verdicts[2]


def test_worst_case_budget_and_validation():
    with pytest.raises(BudgetExceededError):
        worst_case_ld_check(_rs(F7, 5, 2), 1, 1, 3, budget=100)
    with pytest.raises(SizeConstraintError):
        worst_case_ld_check(_rs(F7, 5, 2), -1, 1, 3)
    with pytest.raises(SizeConstraintError):
        worst_case_ld_check(_rs(F7, 5, 2), 1, 1, 0)


def test_average_pass_implies_worst_case_pass():
    # non-vacuous at L=1: MDS gives the average-radius pass
    code = _rs(F7, 5, 2)
    n, k = code.n, code.k
    assert ld_mds_check(code, 1, up_to=False).ok
    assert worst_case_ld_check(code, 1, n - k, 2 * n).ok
    # extended RS [6,3]: average fails at L=2 and so does worst-case
    ext = _extended_rs_63()
    avg = ld_mds_check(ext, 2, up_to=False)
    wc = worst_case_ld_check(ext, 2, 1, 3)
    assert (not avg.ok) or wc.ok
    assert not avg.ok and not wc.ok


@pytest.mark.slow
def test_average_implies_worst_case_random_pool():
    rng = random.Random(7)
    tested = 0
    while tested < 25:
        q, field = rng.choice(((2, F2), (3, F3), (5, F5)))
        n = rng.randrange(3, 6)
        k = rng.randrange(1, n)
        code = _random_code(rng, field, q, n, k)
        avg = ld_mds_check(code, 2, up_to=False)
        wc = worst_case_ld_check(code, 2, 2 * (n - k), 3 * n)
        assert (not avg.ok) or wc.ok
        tested += 1


# -- the list-decoding sweeps against the table-indexing references ---------------


def _ld_single_reference(code, ell):
    """One list size of ld_mds_check as a sweep that sums each syndrome
    entry by entry in the field's index tables: (ok, vectors, detail)."""
    n, k = code.n, code.k
    if k == n:
        return True, 1, None
    if k == 0:
        return True, 0, None
    w_max = ell * (n - k)
    q = code.field.order
    tables = TableOps(code.field)
    add, mul = tables.add_table, tables.mul_table
    h = generator_matrix(dual_code(code))
    hrows = [[x.to_int() for x in row] for row in h.rows]
    buckets = {}
    seen = 0
    for w in range(w_max + 1):
        for supp in itertools.combinations(range(n), w):
            for vals in itertools.product(range(1, q), repeat=w):
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


def _ld_reference(code, L, up_to):
    total = 0
    for ell in range(1, L + 1) if up_to else (L,):
        ok, seen, detail = _ld_single_reference(code, ell)
        total += seen
        if not ok:
            return False, total, detail
    return True, total, None


def _worst_case_reference(code, L, num, den):
    """worst_case_ld_check as a sweep of the radius-t ball around every
    codeword, counting the codewords near each point in the field's index
    tables: (ok, swept, detail)."""
    n, k = code.n, code.k
    q = code.field.order
    t = min((num * n) // den, n)
    tables = TableOps(code.field)
    add, mul = tables.add_table, tables.mul_table
    grows = [[x.to_int() for x in row] for row in generator_matrix(code).rows]
    codewords = []
    for msg in itertools.product(range(q), repeat=k):
        cw = []
        for j in range(n):
            acc = 0
            for i in range(k):
                acc = add[acc][mul[msg[i]][grows[i][j]]]
            cw.append(acc)
        codewords.append(tuple(cw))
    counts = {}
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
        return False, swept, detail
    return True, swept, f"radius {t}, max list size {max(counts.values())}"


def _sweep_pool(field, rng, max_n):
    """For every 2 <= n <= max_n and 0 <= k <= n: a Reed-Solomon code with
    scaled columns when n <= q, else a random code, and a random code with
    a zero column or a repeated one."""
    q = field.order
    codes = []
    for n in range(2, max_n + 1):
        codes.append(CodeSpec(field, n, 0, "explicit", matrix=MatrixF(field, [])))
        for k in range(1, n + 1):
            if n <= q:
                points = [field.from_int(a) for a in rng.sample(range(q), n)]
                scale = [field.from_int(rng.randrange(1, q)) for _ in range(n)]
                g = generator_matrix(rs_code(field, points, k))
                codes.append(
                    explicit_code(field, [[s * e for s, e in zip(scale, r)] for r in g.rows])
                )
            else:
                codes.append(_random_code(rng, field, q, n, k))
            if k < n:
                code = _random_code(rng, field, q, n, k)
                rows = [list(r) for r in generator_matrix(code).rows]
                last = [field.zero] * k if rng.random() < 0.5 else [r[0] for r in rows]
                rows = [r[:-1] + [x] for r, x in zip(rows, last)]
                if rank(MatrixF(field, rows)) == k:
                    codes.append(explicit_code(field, rows))
    return codes


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_list_decoding_sweeps_match_table_references(q):
    field = field_of_order(q)
    rng = random.Random(q)
    budget = 7000
    verdicts = set()
    for code in _sweep_pool(field, rng, 5 if q <= 3 else 4):
        n, k = code.n, code.k
        for L in (1, 2, 3):
            for up_to in (True, False):
                try:
                    r = ld_mds_check(code, L, up_to=up_to, budget=budget)
                except BudgetExceededError:
                    continue
                want = _ld_reference(code, L, up_to)
                assert (r.ok, r.tuples, r.detail) == want, (n, k, L, up_to)
                verdicts.add(("ld", r.ok))
        for num, den in ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)):
            t = min(num * n // den, n)
            ball = sum(math.comb(n, w) * (q - 1) ** w for w in range(t + 1))
            if q**n > budget or q**k * ball > budget:
                continue
            for L in (0, 1, 2, 3):
                r = worst_case_ld_check(code, L, num, den, budget=budget)
                want = _worst_case_reference(code, L, num, den)
                assert (r.ok, r.tuples, r.detail) == want, (n, k, L, num, den)
                verdicts.add(("wc", r.ok, L > 0))
    assert verdicts == {
        ("ld", True), ("ld", False), ("wc", True, True), ("wc", False, True),
        ("wc", False, False),
    }


def _grs(field, n, k, seed):
    rng = random.Random(seed)
    scale = [field.from_int(rng.randrange(1, field.order)) for _ in range(n)]
    rows = generator_matrix(_rs(field, n, k)).rows
    return explicit_code(field, [[s * e for s, e in zip(scale, r)] for r in rows])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("dual", [False, True], ids=["grs", "dual"])
def test_ld_early_exit_matches_full_sweep_reference(k, dual):
    # passing shapes above the pool's budget, where the sweep stops once
    # every syndrome class is decided; tuples still count the full sweep
    code = _grs(F7, 5, k, seed=k)
    code = dual_code(code) if dual else code
    for up_to in (True, False):
        r = ld_mds_check(code, 2, up_to=up_to)
        assert r.ok and r.evaluated < r.tuples, up_to
        assert (r.ok, r.tuples, r.detail) == _ld_reference(code, 2, up_to), up_to


def test_ld_failing_code_matches_full_sweep_reference():
    # with up_to, size 2 fails at vector 171 inside size 1's 1,545-vector
    # prefix, and the sweep finishes that prefix before it reports
    ext = _extended_rs_63()
    for up_to, walked in ((True, 1545), (False, 171)):
        r = ld_mds_check(ext, 2, up_to=up_to)
        assert not r.ok and r.evaluated == walked
        assert (r.ok, r.tuples, r.detail) == _ld_reference(ext, 2, up_to)


def test_ld_smaller_size_failing_later_is_reported():
    # size 2 meets a failing bucket at vector 171, size 1 fails at 218:
    # the report names size 1, and the sweep stops there
    rows = [[1, 4, 1, 4, 3, 2], [2, 4, 3, 4, 0, 0], [4, 2, 0, 4, 3, 0]]
    code = explicit_code(F5, rows)
    assert ld_mds_check(code, 2, up_to=False).evaluated == 171
    r = ld_mds_check(code, 2, up_to=True)
    assert r.detail.startswith("list size 1:")
    assert (r.ok, r.tuples, r.evaluated) == (False, 218, 218)
    assert (r.ok, r.tuples, r.detail) == _ld_reference(code, 2, True)


def test_ld_evaluated_counts_vectors_walked():
    r = ld_mds_check(_rs(F5, 5, 3), 2, up_to=True)
    assert (r.ok, r.tuples, r.evaluated) == (True, 2282, 199)
    # at L = 1 the zero class of an MDS code holds only the zero vector
    # within weight n-k, so it is never decided and the sweep runs to the end
    r = ld_mds_check(_rs(F5, 5, 3), 1)
    assert (r.ok, r.tuples, r.evaluated) == (True, 181, 181)


def test_ld_up_to_budget_refuses_before_any_sweep(monkeypatch):
    # the size-1 sweep (2,551 vectors) fits the budget, the size-2 one does not
    calls = []
    sweep = applications._syndromes
    monkeypatch.setattr(
        applications, "_syndromes", lambda *a: calls.append(a) or sweep(*a)
    )
    with pytest.raises(
        BudgetExceededError, match=r"^16807 weight-bounded vectors exceed budget 10000$"
    ):
        ld_mds_check(_rs(F7, 5, 2), 2, budget=10000)
    # the smallest list size over the budget names its count, as a sweep would
    with pytest.raises(BudgetExceededError, match=r"^2551 weight-bounded"):
        ld_mds_check(_rs(F7, 5, 2), 2, budget=2000)
    assert calls == []


def test_list_decoding_over_a_large_prime_builds_no_tables(no_large_tables):
    f = field_make(10007)
    r = ld_mds_check(rs_code(f, [f.from_int(0), f.from_int(1)], 1), 1)
    assert (r.ok, r.tuples) == (True, 20013)


# -- tensor codes --------------------------------------------------------------------


def _spec_3x5(row_code):
    return TensorCodeSpec(single_parity_code(row_code.field, 3), row_code)


def test_tensor_spec_derived_shape():
    spec = _spec_3x5(_rs(F5, 5, 3))
    assert (spec.m, spec.n, spec.a, spec.b) == (3, 5, 1, 2)


def test_tensor_spec_field_mismatch():
    with pytest.raises(FieldMismatchError):
        TensorCodeSpec(single_parity_code(F5, 3), _rs(F7, 5, 3))


def test_tensor_parity_rank():
    for col_m, row in ((2, _rs(F5, 4, 2)), (3, _rs(F5, 5, 3))):
        spec = TensorCodeSpec(single_parity_code(row.field, col_m), row)
        h = tensor_parity(spec)
        m, n, a, b = spec.m, spec.n, spec.a, spec.b
        assert h.ncols == m * n
        assert h.nrows == m * n - (m - a) * (n - b)
        assert rank(h) == h.nrows


def test_empty_and_single_column_patterns_correctable():
    spec = _spec_3x5(_rs(F5, 5, 3))
    h = tensor_parity(spec)
    # empty pattern: nothing to solve for
    assert rank(MatrixF(F5, [[] for _ in range(h.nrows)])) == 0
    # one full grid column with a=1: the per-column parity pins all m cells
    cells = ErasurePattern(3, 5, frozenset({(r, 0) for r in range(3)}))
    cols = [[h.rows[i][j] for j in cells.indices()] for i in range(h.nrows)]
    assert rank(MatrixF(F5, cols)) == len(cells.cells)


def test_mr_pass_on_rs_row_code():
    r = mr_check(_spec_3x5(_rs(F5, 5, 3)))
    assert r.ok
    assert "mode=exhaustive" in r.detail


def test_mr_fail_on_degenerate_row_code():
    bad = explicit_code(F5, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 0]])
    r = mr_check(_spec_3x5(bad))
    assert not r.ok
    assert "correctable generically" in r.detail


def test_mr_matches_mds_order_m3():
    # row codes passing MDS(3) pass mr, failing ones fail it
    rng = random.Random(11)
    col = single_parity_code(F7, 3)
    npass = nfail = 0
    while npass < 3 or nfail < 3:
        row = _random_code(rng, F7, 7, 5, 3)
        verdict = is_mds_ell(row, 3).ok
        if (verdict and npass >= 3) or (not verdict and nfail >= 3):
            continue
        assert mr_check(TensorCodeSpec(col, row)).ok == verdict
        npass += verdict
        nfail += not verdict


def test_mr_matches_mds_order_m2():
    # m=2, a=1: maximal recoverability reduces to the row code being MDS
    rng = random.Random(3)
    col = single_parity_code(F5, 2)
    for _ in range(6):
        row = _random_code(rng, F5, 5, 4, 2)
        assert mr_check(TensorCodeSpec(col, row)).ok == is_mds(row).ok


def test_mr_sampling_mode_agrees():
    spec = TensorCodeSpec(single_parity_code(F5, 2), _rs(F5, 4, 2))
    full = mr_check(spec)
    sampled = mr_check(spec, budget=200)
    assert "mode=sampled" in sampled.detail
    assert sampled.ok == full.ok
    assert sampled.tuples == 200


def test_mr_zero_dimensional_row_code():
    # the tensor code is {0}: every one of the 2^6 patterns is correctable
    row, _ = parse_code("field p=5\ncode n=3 k=0 kind=explicit\n")
    r = mr_check(TensorCodeSpec(single_parity_code(F5, 2), row))
    assert r.ok and r.detail == "mode=exhaustive; 64 of 64 patterns correctable"


def test_mr_over_a_field_above_the_table_limit_builds_no_tables(no_large_tables):
    f = field_make(67)
    row = rs_code(f, [f.from_int(a) for a in (0, 1, 2, 3)], 2)
    r = mr_check(TensorCodeSpec(single_parity_code(f, 2), row))
    assert r.ok and "mode=exhaustive" in r.detail


def test_generic_family_cache_is_bounded():
    first = _generic_family(2, 3, 1, 1, 3, 0)
    assert _generic_family(2, 3, 1, 1, 3, 0) is first
    for seed in range(1, 12):
        _generic_family(2, 3, 1, 1, 3, seed)
    assert _generic_family.cache_info().currsize <= 8


def test_mr_validation():
    full_col = _rs(F5, 3, 3)
    with pytest.raises(SizeConstraintError):
        mr_check(TensorCodeSpec(full_col, _rs(F5, 5, 3)))


@pytest.mark.parametrize(
    "kwargs", [{"budget": -1}, {"trials": 0}, {"trials": -2}],
    ids=["budget_negative", "trials_zero", "trials_negative"],
)
def test_mr_rejects_malformed_budget_and_trials(kwargs):
    with pytest.raises(SizeConstraintError):
        mr_check(_spec_3x5(_rs(F5, 5, 3)), **kwargs)


def test_mr_sampling_with_no_pattern_is_refused():
    with pytest.raises(BudgetExceededError):
        mr_check(_spec_3x5(_rs(F5, 5, 3)), budget=0)


# -- correctable families against the parity-column reference ------------------------


def _reference_family(columns, ops):
    """Every linearly independent set of parity-check columns, as masks:
    depth first, candidates kept reduced against the current set, and one
    that reduces to zero dropped from the whole subtree."""
    family = set()

    def rec(mask, cand):
        family.add(mask)
        for pos, (j, col) in enumerate(cand):
            lead = next(i for i, x in enumerate(col) if x)
            top = ops.scale(col, ops.inv(col[lead]), lead)
            survivors = []
            for j2, col2 in cand[pos + 1 :]:
                if col2[lead]:
                    col2 = ops.sub_multiple(col2, top, col2[lead], lead)
                    if not any(col2):
                        continue
                survivors.append((j2, col2))
            rec(mask | 1 << j, survivors)

    rec(0, [(j, col) for j, col in enumerate(columns) if any(col)])
    return family


def _as_bits(masks):
    bits = 0
    for e in masks:
        bits |= 1 << e
    return bits


def _vote(families, trials):
    votes = {}
    for family in families:
        for e in family:
            votes[e] = votes.get(e, 0) + 1
    return {e for e, v in votes.items() if 2 * v > trials}


def _row_codes(field):
    """An MDS row code, a non-MDS one (columns 0 and 3 equal), one with a
    zero column and a full one (b = 0)."""
    o, z = field.one, field.zero
    return [
        single_parity_code(field, 4),
        explicit_code(field, [[o, z, o, o], [z, o, o, z]]),
        explicit_code(field, [[o, z, o, z], [z, o, o, z]]),
        explicit_code(field, [[o, z, z], [z, o, z], [z, z, o]]),
    ]


@pytest.mark.parametrize("field", [F2, F4, F5, F7, F9], ids=lambda f: f"gf{f.order}")
def test_correctable_bits_match_parity_column_reference(field):
    rng = random.Random(field.order)
    cols = [
        single_parity_code(field, 2),
        single_parity_code(field, 3),
        explicit_code(field, [[field.one] * 3]),  # repetition code: a = 2
    ]
    ops = field_ops(field)
    for col in cols:
        for row in _row_codes(field) + [_random_code(rng, field, field.order, 4, 2)]:
            spec = TensorCodeSpec(col, row)
            m, n = spec.m, spec.n
            checks = _actual_checks(spec, ops)
            want = _reference_family(_parity_columns(*checks, m, n, ops), ops)
            assert _correctable_bits(*checks, m, n, ops) == _as_bits(want)


@pytest.mark.parametrize(
    "shape", [(2, 3, 1, 1), (3, 3, 1, 1), (2, 4, 1, 2), (3, 4, 2, 1), (3, 3, 1, 0), (3, 4, 1, 3)]
)
def test_generic_correctable_bits_match_parity_column_reference(shape):
    m, n, a, b = shape
    ops = field_ops(GENERIC_ORACLE_FIELD)
    rng = random.Random(sum(shape))
    for _ in range(2):
        checks = _generic_checks(m, n, a, b, rng)
        want = _reference_family(_parity_columns(*checks, m, n, ops), ops)
        assert _correctable_bits(*checks, m, n, ops) == _as_bits(want)


@pytest.mark.parametrize("trials", range(6))
def test_majority_matches_dict_vote(trials):
    # random codes over GF(2) disagree with each other, so the vote has ties
    rng = random.Random(trials)
    ops = field_ops(F2)
    col = single_parity_code(F2, 2)
    families = []
    for _ in range(trials):
        spec = TensorCodeSpec(col, _random_code(rng, F2, 2, 4, 2))
        checks = _actual_checks(spec, ops)
        families.append(_reference_family(_parity_columns(*checks, 2, 4, ops), ops))
    got = _majority([_as_bits(f) for f in families])
    assert got == _as_bits(_vote(families, trials))


@pytest.mark.parametrize("trials", range(6))
def test_generic_family_matches_dict_vote(trials):
    m, n, a, b = 2, 4, 1, 2
    rng = random.Random(99)
    ops = field_ops(GENERIC_ORACLE_FIELD)
    families = [
        _reference_family(_parity_columns(*_generic_checks(m, n, a, b, rng), m, n, ops), ops)
        for _ in range(trials)
    ]
    assert _generic_family(m, n, a, b, trials, 99) == _as_bits(_vote(families, trials))


def test_first_pattern_is_fewest_cells_then_lowest_cells():
    rng = random.Random(5)
    for cells in (1, 3, 6, 9):
        for _ in range(40):
            bits = rng.getrandbits(1 << cells) | 1 << rng.randrange(1 << cells)
            want = min(
                (e for e in range(1 << cells) if bits >> e & 1),
                key=lambda e: (bin(e).count("1"), _cells_of(e, cells)),
            )
            assert _first_pattern(bits) == want


@pytest.mark.parametrize("field", [F7, F8, F9, F11], ids=lambda f: f"gf{f.order}")
def test_mr_matches_mds_order_m4(field):
    # m = 4, n = 4: all 2^16 patterns are decided; rows that pass MDS(4)
    # pass mr and rows that fail it fail mr, for [4, 2] and [4, 3] rows
    rng = random.Random(field.order)
    col = single_parity_code(field, 4)
    for k in (2, 3):
        seen = set()
        while len(seen) < 2:
            row = _random_code(rng, field, field.order, 4, k)
            verdict = is_mds_ell(row, 4).ok
            if verdict in seen:
                continue
            r = mr_check(TensorCodeSpec(col, row))
            assert "mode=exhaustive" in r.detail
            assert r.ok == verdict
            seen.add(verdict)


def _counted(families, consumed):
    for family in families:
        consumed.append(family)
        yield family


@pytest.mark.parametrize("trials", range(7))
def test_decided_majority_reads_need_agreeing_families(trials):
    family = 0b1011_0110
    consumed = []
    got = _decided_majority(_counted([family] * trials, consumed), trials)
    assert got == _majority([family] * trials)
    assert len(consumed) == min(trials // 2 + 1, trials)


@pytest.mark.parametrize("trials", range(7))
def test_decided_majority_matches_majority_on_disagreeing_families(trials):
    # the GF(2) families of test_majority_matches_dict_vote, which disagree
    rng = random.Random(trials)
    ops = field_ops(F2)
    col = single_parity_code(F2, 2)
    families = []
    for _ in range(trials):
        spec = TensorCodeSpec(col, _random_code(rng, F2, 2, 4, 2))
        checks = _actual_checks(spec, ops)
        families.append(_correctable_bits(*checks, 2, 4, ops))
    assert _decided_majority(iter(families), trials) == _majority(families)


def test_generic_family_runs_need_trials_when_they_agree(monkeypatch):
    # at the shape of the search workload's mr_check jobs the trials agree,
    # so 3 of 5 run; 3 of 4 as well, and every one of 1
    runs = []

    def counted(*args):
        runs.append(args)
        return _correctable_bits(*args)

    monkeypatch.setattr(applications, "_correctable_bits", counted)
    for trials, want in ((5, 3), (4, 3), (1, 1)):
        _generic_family.cache_clear()
        runs.clear()
        _generic_family(3, 5, 1, 2, trials, 0)
        assert len(runs) == want
    _generic_family.cache_clear()


F3_REPEATED = explicit_code(F3, [[1, 0, 1, 1], [0, 1, 0, 2]])  # col 2 = col 0


@pytest.mark.parametrize(
    "field, backend, col_m, row",
    [
        (F5, "TableOps", 2, lambda f, rng: _random_code(rng, f, 5, 4, 2)),
        (F3, "TableOps", 3, lambda f, rng: F3_REPEATED),
        (field_make(11, [2]), "PackedOps", 3, lambda f, rng: _random_code(rng, f, 121, 4, 2)),
        (field_make(67), "ModPOps", 2, lambda f, rng: _random_code(rng, f, 67, 4, 2)),
        (field_make(3, [2, 2]), "LevelOps", 3, lambda f, rng: _random_code(rng, f, 81, 4, 2)),
        (field_make(2, [2, 2, 2, 2]), "LevelOps", 2,
         lambda f, rng: _random_code(rng, f, 1 << 16, 4, 2)),
    ],
    ids=["rank2_gf5", "repeated_gf3", "packed_gf121", "modp_gf67", "level_gf81",
         "level_gf65536"],
)
def test_pair_step_matches_reference_on_every_backend(field, backend, col_m, row):
    # the last two basis columns come from non-parallel pairs; repeated
    # columns, a repetition column code and repeated rows of the row code
    # give the pair step parallel residuals
    ops = field_ops(field)
    assert type(ops).__name__ == backend
    rng = random.Random(field.order)
    o = field.one
    for col in (single_parity_code(field, col_m), explicit_code(field, [[o] * col_m])):
        for _ in range(2):
            spec = TensorCodeSpec(col, row(field, rng))
            m, n = spec.m, spec.n
            checks = _actual_checks(spec, ops)
            want = _reference_family(_parity_columns(*checks, m, n, ops), ops)
            assert _correctable_bits(*checks, m, n, ops) == _as_bits(want)
    # a row code whose columns come in parallel pairs
    g = generator_matrix(row(field, rng)).rows
    doubled = explicit_code(field, [list(r) + [x * (o + o) for x in r] for r in g])
    spec = TensorCodeSpec(single_parity_code(field, 2), doubled)
    checks = _actual_checks(spec, ops)
    want = _reference_family(_parity_columns(*checks, 2, spec.n, ops), ops)
    assert _correctable_bits(*checks, 2, spec.n, ops) == _as_bits(want)


def test_pair_step_takes_no_row_operation_at_rank_two():
    # rank (m - a)(n - b) = 2: the basis search is the pair step alone, so
    # every scale and sub_multiple call belongs to the two null bases
    ops = CountingOps(field_ops(F5))
    spec = TensorCodeSpec(single_parity_code(F5, 2), _rs(F5, 4, 2))
    checks = _actual_checks(spec, ops)
    _correctable_bits(*checks, 2, 4, ops)
    bases = CountingOps(field_ops(F5))
    applications.null_basis(checks[0], 2, bases)
    applications.null_basis(checks[1], 4, bases)
    for name in ("scale", "sub_multiple"):
        assert ops.calls[name] == bases.calls[name]
    # one inverse per candidate with a nonzero first coordinate, at most 8
    assert ops.calls["inv"] - bases.calls["inv"] <= 8


def _sampled_all_trials(spec, budget, trials, seed):
    """mr_check's sampled mode with every trial voting on every pattern:
    (ok, detail)."""
    m, n, a, b = spec.m, spec.n, spec.a, spec.b
    cells = m * n
    ops, gen_ops = field_ops(spec.row_code.field), field_ops(GENERIC_ORACLE_FIELD)
    act_cols = _parity_columns(*_actual_checks(spec, ops), m, n, ops)
    gen_runs = [
        _parity_columns(
            *_generic_checks(m, n, a, b, random.Random(seed + 1 + i)), m, n, gen_ops
        )
        for i in range(trials)
    ]
    rng = random.Random(seed)
    for _ in range(budget):
        idxs = _cells_of(rng.getrandbits(cells), cells)
        act = _cols_rank(act_cols, idxs, ops) == len(idxs)
        votes = sum(_cols_rank(cols, idxs, gen_ops) == len(idxs) for cols in gen_runs)
        gen = 2 * votes > trials
        if act != gen:
            side = (
                "correctable generically but not by this code"
                if gen
                else "correctable by this code but not generically"
            )
            pattern = ErasurePattern.from_indices(m, n, idxs).format() or "(empty)"
            return False, f"mode=sampled {budget}/{2**cells}; pattern {pattern} {side}"
    return True, f"mode=sampled; {budget} of {2**cells} patterns agree"


@pytest.mark.parametrize("budget, seed", [(40, 0), (150, 3), (400, 7)])
@pytest.mark.parametrize("trials", [1, 2, 4, 5])
def test_sampled_vote_matches_all_trials_vote(budget, seed, trials):
    bad = explicit_code(F5, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 0]])
    verdicts = set()
    for row in (_rs(F5, 5, 3), bad):
        spec = _spec_3x5(row)
        r = mr_check(spec, budget=budget, trials=trials, seed=seed)
        assert (r.ok, r.detail) == _sampled_all_trials(spec, budget, trials, seed)
        verdicts.add(r.ok)
    assert verdicts == {True, False}
