"""Code objects, the generic-zero predicate and its oracle, file format."""

import itertools
import random

import pytest

from mdskit.codes import (
    GENERIC_ORACLE_PRIME,
    CodeSpec,
    SetTuple,
    dual_code,
    explicit_code,
    format_code,
    generic_intersection_dim,
    generator_matrix,
    generically_zero,
    parse_code,
    puncture,
    rs_code,
    rs_generator_matrix,
    set_partitions,
)
from mdskit.errors import (
    DegreeMismatchError,
    RankLossError,
    SizeConstraintError,
    WrongKindError,
)
from mdskit.fields import field_make, is_prime
from mdskit.linalg import MatrixF, det, rank

F4 = field_make(2, [2])
F5 = field_make(5)
F7 = field_make(7)


def test_generic_oracle_prime_constant():
    assert GENERIC_ORACLE_PRIME > 2**31
    assert is_prime(GENERIC_ORACLE_PRIME)
    for n in range(2**31, GENERIC_ORACLE_PRIME):
        assert not is_prime(n)


# -- generator matrices ----------------------------------------------------------


def test_rs_generator_matrix_frozen():
    c = rs_code(F7, [0, 1, 2], 2)
    m = rs_generator_matrix(c)
    assert [[e.to_int() for e in row] for row in m.rows] == [[1, 1, 1], [0, 1, 2]]


def test_rs_k1_all_ones():
    c = rs_code(F7, [0, 3, 5, 6], 1)
    m = rs_generator_matrix(c)
    assert [[e.to_int() for e in row] for row in m.rows] == [[1, 1, 1, 1]]


def test_rs_rank_full():
    c = rs_code(F7, [1, 2, 3], 3)
    assert rank(rs_generator_matrix(c)) == 3


def test_rs_requires_distinct():
    with pytest.raises(SizeConstraintError):
        rs_code(F7, [1, 2, 2], 2)


def test_rs_generator_matrix_wrong_kind():
    c = explicit_code(F7, [[1, 0], [0, 1]])
    with pytest.raises(WrongKindError):
        rs_generator_matrix(c)


def test_explicit_requires_full_rank():
    with pytest.raises(RankLossError):
        explicit_code(F7, [[1, 2, 3], [2, 4, 6]])


# -- duals ------------------------------------------------------------------------


def test_dual_frozen_example():
    c = rs_code(F7, [0, 1, 2], 2)
    d = dual_code(c)
    assert (d.n, d.k) == (3, 1)
    assert [[e.to_int() for e in row] for row in d.matrix.rows] == [[1, 5, 1]]


def test_dual_orthogonality_and_rank():
    rng = random.Random(3)
    for _ in range(20):
        gens = rng.sample(range(7), 5)
        k = rng.randrange(1, 5)
        c = rs_code(F7, gens, k)
        d = dual_code(c)
        assert d.k == c.n - c.k
        g = generator_matrix(c)
        h = generator_matrix(d)
        prod = h @ g.transpose()
        assert all(e.is_zero() for row in prod.rows for e in row)
        assert rank(h) == d.k


def test_double_dual_same_row_space():
    c = explicit_code(F7, [[1, 2, 3, 4], [0, 1, 0, 2]])
    dd = dual_code(dual_code(c))
    from mdskit.linalg import rref

    assert rref(generator_matrix(c))[0] == rref(generator_matrix(dd))[0]


def test_dual_of_full_code_is_zero():
    c = rs_code(F7, [0, 1, 2], 3)
    d = dual_code(c)
    assert d.k == 0 and d.n == 3


def test_dual_of_zero_code_is_full():
    # a parsed [3, 0] code's generator matrix has no rows, nor columns
    zero, _ = parse_code("field p=5\ncode n=3 k=0 kind=explicit\n")
    d = dual_code(zero)
    assert (d.n, d.k) == (3, 3)
    assert d.matrix == MatrixF.identity(F5, 3)


# -- puncturing --------------------------------------------------------------------


def test_puncture_identity():
    c = rs_code(F7, [0, 1, 2, 3, 4, 5], 2)
    assert puncture(c, range(6)).generators == c.generators


def test_puncture_rs_sublist():
    c = rs_code(F7, [0, 1, 2, 3, 4, 5], 2)
    p = puncture(c, [0, 1, 2])
    assert p.n == 3 and p.k == 2
    assert tuple(g.to_int() for g in p.generators) == (0, 1, 2)


def test_puncture_rank_loss():
    c = rs_code(F7, [0, 1, 2, 3], 3)
    with pytest.raises(RankLossError):
        puncture(c, [0, 1])
    e = explicit_code(F7, [[1, 0, 1, 0], [0, 1, 0, 0]])
    with pytest.raises(RankLossError):
        puncture(e, [0, 2])


def test_punctured_mds_is_mds():
    # every k x k minor of a punctured RS code is still a Vandermonde minor
    c = rs_code(F7, [1, 2, 3, 4, 5], 2)
    p = puncture(c, [0, 2, 4])
    m = generator_matrix(p)
    for cols in itertools.combinations(range(p.n), p.k):
        assert not det(m.submatrix(range(p.k), cols)).is_zero()


# -- set partitions and the predicate ------------------------------------------------


def test_set_partitions_bell_counts():
    bell = [1, 1, 2, 5, 15, 52]
    for n in range(6):
        assert len(list(set_partitions(range(n)))) == bell[n]


def test_partition_blocks_cover():
    for part in set_partitions(range(4)):
        flat = sorted(i for block in part for i in block)
        assert flat == [0, 1, 2, 3]


def test_generically_zero_disjoint_triple():
    t = SetTuple(((0, 1), (2, 3), (4, 5)), n=6, k=3)
    assert generically_zero(t)


def test_generically_zero_common_point():
    t = SetTuple(((0, 1), (0, 2), (0, 3)), n=6, k=3)
    assert not generically_zero(t)


def test_generically_zero_pair_overflow():
    # |A1 & A2| + |A3| = 2 + 2 > k = 3
    t = SetTuple(((0, 1), (0, 1), (2, 3)), n=6, k=3)
    assert not generically_zero(t)
    # relabeling the ground set preserves the verdict
    perm = {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}
    t2 = SetTuple(tuple(tuple(perm[i] for i in a) for a in t.sets), n=6, k=3)
    assert generically_zero(t2) == generically_zero(t)


def test_generically_zero_permutation_invariant():
    rng = random.Random(11)
    for _ in range(40):
        tup = _random_tuple(rng, n=7, k=3, ell=3)
        base = generically_zero(tup)
        for perm in itertools.permutations(tup.sets):
            assert generically_zero(SetTuple(perm, 7, 3)) == base


def _random_tuple(rng, n, k, ell):
    want = (ell - 1) * k
    while True:
        sizes = [rng.randrange(0, min(k, n) + 1) for _ in range(ell)]
        if sum(sizes) == want:
            break
    sets = tuple(tuple(rng.sample(range(n), s)) for s in sizes)
    return SetTuple(sets, n, k)


def test_ell3_fast_path_matches_partitions():
    # the pairwise shortcut for three sets must agree with the full
    # partition sweep; compare via a 4-set embedding with an empty slot
    rng = random.Random(23)
    for _ in range(200):
        tup = _random_tuple(rng, n=8, k=3, ell=3)
        fast = generically_zero(tup)
        slow = _partitions_verdict(tup)
        assert fast == slow


def _partitions_verdict(tup):
    k = tup.k
    sets = [set(a) for a in tup.sets]
    for part in set_partitions(range(len(sets))):
        total = 0
        for block in part:
            inter = set(sets[block[0]])
            for j in block[1:]:
                inter &= sets[j]
            total += len(inter)
        if total > (len(part) - 1) * k:
            return False
    return True


def test_generically_zero_size_validation():
    with pytest.raises(SizeConstraintError):
        generically_zero(SetTuple(((0, 1), (2,)), n=4, k=2))  # sum 3 != 2
    with pytest.raises(SizeConstraintError):
        generically_zero(SetTuple(((0, 1, 2), (3,), (4, 5)), n=6, k=2))


def test_generic_oracle_agrees_with_predicate():
    rng = random.Random(5)
    for ell in (2, 3, 4):
        for _ in range(12):
            tup = _random_tuple(rng, n=6, k=2, ell=ell)
            want_zero = generically_zero(tup)
            dim = generic_intersection_dim(tup, trials=3, seed=1)
            assert (dim == 0) == want_zero, f"{tup.sets}"


# -- file format --------------------------------------------------------------------


def test_code_file_roundtrip_rs():
    c = rs_code(F4, [F4.from_int(i) for i in range(4)], 2)
    txt = format_code(c, provenance={"construction": "demo", "q": 4})
    assert txt.startswith("# construction=demo\n# q=4\n")
    back, meta = parse_code(txt)
    assert meta == {"construction": "demo", "q": "4"}
    assert back.kind == "rs" and back.n == 4 and back.k == 2
    assert back.generators == c.generators
    assert back.field == c.field


def test_code_file_roundtrip_explicit():
    c = explicit_code(F5, [[1, 2, 3], [0, 1, 4]])
    back, _ = parse_code(format_code(c))
    assert back.matrix == c.matrix


def test_code_file_zero_dual_roundtrip():
    d = dual_code(rs_code(F5, [0, 1, 2], 3))
    back, _ = parse_code(format_code(d))
    assert back.k == 0 and back.n == 3


def test_parse_code_validates():
    c = rs_code(F5, [0, 1, 2], 2)
    txt = format_code(c).replace("gen 1", "gen 0")  # duplicate generator 0
    with pytest.raises(SizeConstraintError):
        parse_code(txt)


def test_parse_code_rejects_row_width_mismatch():
    txt = "field p=3\ncode n=9 k=2 kind=explicit\nrow 1 0 1\nrow 0 1 1\n"
    with pytest.raises(DegreeMismatchError):
        parse_code(txt)
