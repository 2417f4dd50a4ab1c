"""Field tower arithmetic: frozen derived values, axioms, serialization."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdskit.errors import (
    BudgetExceededError,
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    NotPrimeError,
    ReduciblePolynomialError,
)
from mdskit.fields import (
    FieldElement,
    FieldSpec,
    LevelOps,
    ModPOps,
    PackedOps,
    Packing,
    TableOps,
    _binomial_irreducible,
    _mult_order,
    _p_divmod,
    _p_gcd,
    _p_mulmod,
    _p_submul,
    _p_trim,
    _poly_inverse_mod,
    _power,
    extend_binomial_chain,
    field_make,
    field_of_order,
    field_ops,
    find_irreducible,
    format_element,
    format_field,
    frobenius,
    is_prime,
    parse_element,
    parse_field,
    poly_is_irreducible,
    prime_factors,
)
from reference_ops import CountingOps, FieldOps, ben_or_per_round, p_powmod

F2 = field_make(2)
F3 = field_make(3)
F7 = field_make(7)
F11 = field_make(11)


# -- primality and factoring --------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(2147483659)  # smallest prime above 2^31


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]
    assert prime_factors(4096) == [2]


# -- frozen derived values ----------------------------------------------------


def _int_poly_divides(p, den, num):
    # plain-int trial division oracle, independent of the field machinery
    num = list(num)
    dd = len(den) - 1
    inv = pow(den[-1], -1, p)
    while True:
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd or not num:
            break
        f = num[-1] * inv % p
        sh = len(num) - 1 - dd
        for j in range(dd + 1):
            num[sh + j] = (num[sh + j] - f * den[j]) % p
    return not num


def test_find_irreducible_deg7_gf11_frozen():
    # lexicographically smallest monic irreducible of degree 7 over GF(11),
    # constant term most significant in the candidate order
    coeffs = find_irreducible(F11, 7)
    vec = [c.coeffs[0] for c in coeffs]
    assert vec == [1, 0, 0, 0, 0, 0, 3, 1]
    # oracle: no monic factor of degree 1..3 divides it
    for d in range(1, 4):
        for tail in itertools.product(range(11), repeat=d):
            assert not _int_poly_divides(11, list(tail) + [1], vec)
    # oracle: every lex-smaller candidate is reducible
    smaller = [[1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1, 1], [1, 0, 0, 0, 0, 0, 2, 1]]
    for cand in smaller:
        found = any(
            _int_poly_divides(11, list(tail) + [1], cand)
            for d in range(1, 4)
            for tail in itertools.product(range(11), repeat=d)
        )
        assert found, f"{cand} should be reducible"


def test_find_irreducible_deg2_gf3():
    coeffs = find_irreducible(F3, 2)
    assert [c.coeffs[0] for c in coeffs] == [1, 0, 1]  # x^2 + 1


def test_find_irreducible_deg3_gf2():
    coeffs = find_irreducible(F2, 3)
    assert [c.coeffs[0] for c in coeffs] == [1, 0, 1, 1]  # x^3 + x^2 + 1


def test_find_irreducible_deg1_is_x():
    coeffs = find_irreducible(F7, 1)
    assert coeffs[0].is_zero() and coeffs[1] == F7.one


# -- cube root of 2 tower over GF(7) -------------------------------------------


@pytest.fixture(scope="module")
def f7g():
    return F7.extend(3, [-2, 0, 0, 1])  # x^3 - 2


def test_gamma_cubed_is_two(f7g):
    g = f7g.gen()
    assert g * g * g == f7g.element(2)
    assert g**3 == 2


def test_gamma_seventh_power(f7g):
    # g^7 = (g^3)^2 * g = 4g
    g = f7g.gen()
    assert g**7 == g * 4
    assert frobenius(g) == g * 4


def test_x3_minus_2_accepted_by_generic_test(f7g):
    coeffs = [F7.element(-2), F7.zero, F7.zero, F7.one]
    assert poly_is_irreducible(F7, coeffs)


def test_inverse_matches_fermat(f7g):
    for n in range(1, 60, 7):
        a = f7g.from_int(n)
        if a.is_zero():
            continue
        assert a.inverse() == a ** (f7g.order - 2)
        assert a * a.inverse() == f7g.one


# -- element representation and enumeration ------------------------------------


def test_from_int_roundtrip(f7g):
    for n in (0, 1, 6, 7, 48, 342):
        assert f7g.from_int(n).to_int() == n
    with pytest.raises(ValueError):
        f7g.from_int(343)
    with pytest.raises(ValueError):
        f7g.from_int(-1)


def test_enumeration_order():
    F9 = F3.extend(2)
    seen = [e.coeffs for e in F9.elements()]
    assert seen == [(a, b) for b in range(3) for a in range(3)]


def test_first_order8_element_of_gf9():
    F9 = F3.extend(2)
    orders = [(n, _mult_order(F9.from_int(n))) for n in range(1, 9)]
    first8 = next(n for n, o in orders if o == 8)
    assert first8 == 4
    assert F9.from_int(4).coeffs == (1, 1)


def test_mult_order_gf8():
    F8 = F2.extend(3)
    for n in range(2, 8):
        assert _mult_order(F8.from_int(n)) == 7
    assert _mult_order(F8.one) == 1


def test_int_constant_embedding(f7g):
    assert f7g.element(9) == f7g.element(2)
    assert (f7g.element(3) + 4).is_zero()


def test_int_equality_agrees_with_hash(f7g):
    a = F7.element(3)
    assert a == 3 and hash(a) == hash(3)
    assert len({a, 3}) == 1
    assert {3: "int"}[a] == "int" and {a: "elem"}[3] == "elem"
    # only the representative 0 <= n < p is equal
    assert a != 10 and F7.element(-1) != -1
    # elements of an extension that lie in the prime field follow the rule
    two = f7g.gen() ** 3
    assert two == 2 and len({two, 2}) == 1
    assert f7g.gen() != 0 and f7g.gen() != f7g.gen().coeffs[1]


# -- field axioms (property) ----------------------------------------------------


_TOWERS = [
    field_make(5, [2]),
    field_make(7, [(3, [-2, 0, 0, 1])]),
    field_make(2, [3, 2]),  # two-level tower GF(64)
    field_make(13),
]


@settings(max_examples=60, deadline=None)
@given(
    fi=st.integers(0, len(_TOWERS) - 1),
    na=st.integers(0, 10**6),
    nb=st.integers(0, 10**6),
    nc=st.integers(0, 10**6),
)
def test_field_axioms(fi, na, nb, nc):
    f = _TOWERS[fi]
    a = f.from_int(na % f.order)
    b = f.from_int(nb % f.order)
    c = f.from_int(nc % f.order)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == f.zero
    assert a * f.one == a
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == f.one


@settings(max_examples=40, deadline=None)
@given(fi=st.integers(0, len(_TOWERS) - 1), na=st.integers(0, 10**6))
def test_frobenius_is_homomorphism(fi, na):
    f = _TOWERS[fi]
    a = f.from_int(na % f.order)
    b = f.from_int((na * 7919 + 13) % f.order)
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)
    # p-power map fixes the prime subfield
    assert frobenius(f.element(na % f.p)) == f.element(na % f.p)


def test_frobenius_order():
    f = field_make(2, [3, 2])
    a = f.from_int(37)
    out = a
    for _ in range(f.D):
        out = frobenius(out)
    assert out == a


# -- towers and lifting ----------------------------------------------------------


def test_lift_is_ring_embedding():
    F9 = F3.extend(2)
    top = F9.extend(2)
    a = F9.from_int(5)
    b = F9.from_int(7)
    assert top.lift(a * b) == top.lift(a) * top.lift(b)
    assert top.lift(a + b) == top.lift(a) + top.lift(b)
    with pytest.raises(FieldMismatchError):
        top.lift(F7.element(3))


def test_gen_levels():
    f = field_make(2, [3, 2])
    u = f.gen(0)
    v = f.gen(1)
    assert v == f.gen()
    assert u.coeffs.index(1) == 1 and sum(u.coeffs) == 1
    assert v.coeffs.index(1) == 3 and sum(v.coeffs) == 1


def test_binomial_chain_relations():
    F9 = F3.extend(2)
    c = F9.from_int(4)
    T = extend_binomial_chain(F9, c, 8, 3)
    assert T.D == 2 * 8**3
    assert T.gen() ** 8 == T.lift(T.base.gen())
    assert T.lift(T.tower()[2].gen()) ** 8 == T.lift(c)


def test_binomial_criterion_matches_generic_test():
    # every binomial x^d - g over GF(7) and GF(9), d = 2..5
    for f in (F7, F3.extend(2)):
        q = f.order
        for n in range(1, q):
            g = f.from_int(n)
            e = _mult_order(g)
            for d in range(2, 6):
                coeffs = [-g] + [f.zero] * (d - 1) + [f.one]
                assert poly_is_irreducible(f, coeffs) == _binomial_irreducible(
                    q, e, d
                ), f"disagreement at q={q} g={n} d={d}"


def test_chain_rejects_bad_constant():
    F9 = F3.extend(2)
    with pytest.raises(ReduciblePolynomialError):
        extend_binomial_chain(F9, F9.one, 8, 1)  # ord 1: x^8 - 1 splits
    with pytest.raises(ReduciblePolynomialError):
        F7.extend(4, [-3, 0, 0, 0, 1])  # 4 | 4 but 7 != 1 mod 4


def test_deep_chain_rejects_wrong_level_size():
    F9 = F3.extend(2)
    c = F9.from_int(4)
    T = extend_binomial_chain(F9, c, 8, 2)
    # x^3 - gen over the 128-bit-plus field: composed degree 3*64 has prime 3,
    # but ord(c) = 8 is not divisible by 3
    with pytest.raises(ReduciblePolynomialError):
        T.extend(3, [-T.gen(), T.zero, T.zero, T.one])


def test_big_field_refuses_generic_verification():
    F9 = F3.extend(2)
    T = extend_binomial_chain(F9, F9.from_int(4), 8, 3)
    with pytest.raises(BudgetExceededError):
        T.extend(2, [T.gen() + 1, T.one, T.one])


def test_found_and_supplied_binomials_share_one_certificate():
    # GF(3)'s smallest irreducible quadratic is the binomial x^2 + 1
    found = field_make(3, [2])
    supplied = F3.extend(2, [1, 0, 1])
    assert found.mod_tail == supplied.mod_tail
    assert found._chain == supplied._chain == (F3, (2,), 2, 2)
    with pytest.raises(ReduciblePolynomialError):
        F3.extend(2, [2, 0, 1])  # x^2 - 1
    T = extend_binomial_chain(F3.extend(2), F3.extend(2).from_int(4), 8, 3)
    assert T.order_bits() > 128
    with pytest.raises(BudgetExceededError):
        T.extend(2, [-(T.gen() + 1), T.zero, T.one])


def test_found_polynomial_is_tested_once_per_candidate(monkeypatch):
    import mdskit.fields as fields_mod

    F9 = F3.extend(2)
    calls = []
    real = fields_mod.poly_is_irreducible

    def spy(field, coeffs):
        calls.append([c.to_int() for c in coeffs])
        return real(field, coeffs)

    monkeypatch.setattr(fields_mod, "poly_is_irreducible", spy)
    want = [c.to_int() for c in find_irreducible(F9, 4)]
    searched, calls[:] = list(calls), []
    ext = F9.extend(4)
    assert calls == searched and calls[-1] == want
    assert [FieldElement(F9, t).to_int() for t in ext.mod_tail] == want[:-1]


# -- constructor validation -------------------------------------------------------


def test_field_make_rejects_composite():
    with pytest.raises(NotPrimeError):
        field_make(15)


def test_extend_rejects_reducible():
    with pytest.raises(ReduciblePolynomialError):
        F3.extend(2, [2, 0, 1])  # x^2 + 2 = (x-1)(x+1)


def test_extend_rejects_malformed():
    with pytest.raises(DegreeMismatchError):
        F3.extend(2, [1, 0, 1, 1])
    with pytest.raises(DegreeMismatchError):
        F3.extend(2, [1, 0, 2])  # not monic


def test_cross_field_operations_raise():
    with pytest.raises(FieldMismatchError):
        F7.element(1) + F3.element(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        F7.element(3) / F7.zero
    with pytest.raises(DivisionByZeroError):
        field_make(5, [2]).zero.inverse()


# -- serialization -----------------------------------------------------------------


def test_field_text_roundtrip(f7g):
    txt = format_field(f7g)
    assert txt.splitlines()[0] == "field p=7"
    assert txt.splitlines()[1] == "ext d=3 poly=5,0,0,1"
    assert parse_field(txt) == f7g


def test_two_level_field_roundtrip():
    f = field_make(2, [3, 2])
    g = parse_field(format_field(f))
    assert g == f
    assert g.D == 6


def test_element_text_roundtrip(f7g):
    for n in (0, 5, 77, 342):
        a = f7g.from_int(n)
        assert parse_element(f7g, format_element(a)) == a
    with pytest.raises(DegreeMismatchError):
        parse_element(f7g, "1,2")


def test_parse_field_reverifies():
    txt = "field p=3\next d=2 poly=2,0,1\n"
    with pytest.raises(ReduciblePolynomialError):
        parse_field(txt)


def test_chain_field_roundtrip_is_cheap():
    F9 = F3.extend(2)
    T = extend_binomial_chain(F9, F9.from_int(4), 8, 4)
    assert T.D == 8192
    back = parse_field(format_field(T))
    assert back == T


# -- polynomial layer: independent oracles --------------------------------------


def _mobius(n):
    out, m = 1, n
    for r in prime_factors(n):
        m //= r
        if m % r == 0:
            return 0
        out = -out
    return out


@pytest.mark.parametrize(
    "p,e,degrees",
    [(2, 1, range(1, 11)), (3, 1, range(1, 8)), (2, 2, range(1, 6)),
     (5, 1, range(1, 6)), (7, 1, range(1, 5)), (3, 2, range(1, 5))],
)
def test_irreducible_count_matches_gauss_formula(p, e, degrees):
    f = field_make(p, [e] if e > 1 else [])
    q = f.order
    els = list(f.elements())
    for d in degrees:
        want = sum(_mobius(t) * q ** (d // t) for t in range(1, d + 1) if d % t == 0) // d
        got = sum(
            poly_is_irreducible(f, list(tail) + [f.one])
            for tail in itertools.product(els, repeat=d)
        )
        assert got == want, f"GF({q}) degree {d}"


def _has_monic_factor(f, poly, max_deg):
    # trial division with FieldElement arithmetic by every monic polynomial
    # of degree 1..max_deg
    els = list(f.elements())
    for dd in range(1, max_deg + 1):
        for tail in itertools.product(els, repeat=dd):
            den = list(tail) + [f.one]
            num = list(poly)
            while len(num) - 1 >= dd:
                c = num[-1]
                sh = len(num) - 1 - dd
                for j in range(dd + 1):
                    num[sh + j] = num[sh + j] - c * den[j]
                num.pop()
            if all(a.is_zero() for a in num):
                return True
    return False


@pytest.mark.parametrize(
    "p,e,d", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3), (7, 1, 4), (3, 2, 2)]
)
def test_find_irreducible_is_first_candidate_without_small_factor(p, e, d):
    f = field_make(p, [e] if e > 1 else [])
    els = list(f.elements())
    # candidate order: constant term most significant, zero constant skipped
    for tail in itertools.product(els[1:], *[els] * (d - 1)):
        cand = list(tail) + [f.one]
        if not _has_monic_factor(f, cand, d // 2):
            break
    assert find_irreducible(f, d) == cand


# canonical indices of find_irreducible's result, pinned from the
# coefficient-tuple implementation that preceded the backend one
_PINNED_IRREDUCIBLES = {
    (41, 1, 25): [1] + [0] * 22 + [1, 15, 1],
    (59, 1, 25): [1] + [0] * 23 + [9, 1],
    (5, 2, 9): [1, 0, 0, 0, 0, 0, 0, 1, 8, 1],
    (5, 2, 13): [1] + [0] * 11 + [13, 1],
    (3, 2, 4): [1, 0, 3, 1, 1],
    (11, 1, 7): [1, 0, 0, 0, 0, 0, 3, 1],
}


@pytest.mark.parametrize(
    "key", sorted(_PINNED_IRREDUCIBLES), ids=lambda k: "gf%d^%d-deg%d" % k
)
def test_find_irreducible_pinned(key, monkeypatch):
    import mdskit.fields as fields_mod

    p, e, d = key
    f = field_make(p, [e] if e > 1 else [])
    assert [c.to_int() for c in find_irreducible(f, d)] == _PINNED_IRREDUCIBLES[key]
    # and the same search with one gcd per Ben-Or round
    monkeypatch.setattr(fields_mod, "poly_is_irreducible", ben_or_per_round)
    assert [c.to_int() for c in find_irreducible(f, d)] == _PINNED_IRREDUCIBLES[key]


_F9 = F3.extend(2)
_INVERSE_FIELDS = [
    _F9,
    field_make(3, [4]),  # GF(81): packed ints, inverses over GF(3)
    field_make(3, [2, 4]),  # GF(3^8): inverses over GF(9) tables
    field_make(67, [25]),
    extend_binomial_chain(_F9, _F9.from_int(4), 4, 2),  # GF(9^16)
]


def _random_poly(f, rng, n):
    return [f.random_element(rng) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(fi=st.integers(0, len(_INVERSE_FIELDS) - 1), seed=st.integers(0, 10**9))
def test_inverse_and_backend_helpers_match_field_ops(fi, seed):
    f = _INVERSE_FIELDS[fi]
    rng = random.Random(seed)
    a = f.random_element(rng)
    if not a.is_zero():
        assert a * a.inverse() == f.one
    # the helpers f's inverse runs on, over its base field, through the
    # chosen backend and through FieldElements
    k = f.base
    mod = f.mod_tail
    tail = [FieldElement(k, t) for t in mod]
    x = _random_poly(k, rng, rng.randrange(0, 2 * f.degree))
    y = _random_poly(k, rng, rng.randrange(1, f.degree + 1))
    y[-1] = k.one if y[-1].is_zero() else y[-1]
    r = _random_poly(k, rng, f.degree)
    s = _random_poly(k, rng, f.degree)
    e = rng.randrange(1, 50)
    results = []
    for ops in (field_ops(k), FieldOps(k)):
        enc = lambda pol: [ops.encode(c) for c in pol]  # noqa: E731
        dec = lambda pol: [ops.decode(c) for c in pol]  # noqa: E731
        t = enc(tail)
        qu, re = _p_divmod(ops, enc(x), enc(y))
        out = [dec(qu), dec(re), dec(_p_submul(ops, enc(x), enc(r), enc(y)))]
        out.append(dec(_p_gcd(ops, enc(x), enc(y))))
        out.append(dec(_p_mulmod(ops, enc(r), enc(s), t)))
        out.append(dec(p_powmod(ops, enc(r), e, t)))
        if any(r):
            out.append(dec(_poly_inverse_mod(ops, enc(r), t + [ops.one])))
        results.append(out)
    assert results[0] == results[1]
    qu, re = results[0][:2]
    # x = qu * y + re, checked with FieldElement arithmetic
    prod = [k.zero] * max(len(x), len(qu) + len(y) - 1, len(re))
    for i, c in enumerate(qu):
        for j, d in enumerate(y):
            prod[i + j] = prod[i + j] + c * d
    for i, c in enumerate(re):
        prod[i] = prod[i] + c
    assert prod[: len(x)] == x and all(c.is_zero() for c in prod[len(x):])


# -- the Kronecker-packed backend against FieldElement arithmetic ----------------------

_PACKED_FIELDS = [
    field_make(3, [4]),
    field_make(7, [4]),
    field_make(11, [7]),
    field_make(59, [25]),
    # large primes at degree 2 (x^2 + 1, as p = 3 mod 4): 64-bit slots, and
    # slots too wide for struct
    field_make(2**31 - 1, [(2, [1, 0, 1])]),
    field_make(2**61 - 1, [(2, [1, 0, 1])]),
]


@st.composite
def _packed_element(draw, f):
    kind = draw(st.sampled_from(["zero", "one", "sparse", "dense"]))
    if kind == "zero":
        return f.zero
    if kind == "one":
        return f.one
    coeff = st.integers(0, f.p - 1)
    if kind == "dense":
        return f.element([draw(coeff) for _ in range(f.D)])
    c = [0] * f.D
    for _ in range(draw(st.integers(1, 2))):
        c[draw(st.integers(0, f.D - 1))] = draw(st.sampled_from([1, f.p - 1]) | coeff)
    return f.element(c)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_backend_matches_field_elements(data):
    f = data.draw(st.sampled_from(_PACKED_FIELDS))
    ops = field_ops(f)
    assert type(ops) is PackedOps
    a, b, c, d = (data.draw(_packed_element(f)) for _ in range(4))
    ea, eb, ec, ed = map(ops.encode, (a, b, c, d))
    assert ops.decode(ea) == a and ops.decode(ops.zero) == f.zero
    assert ops.decode(ops.one) == f.one
    # the encoding is canonical: equal ints exactly for equal elements
    assert (ea == eb) == (a == b) and bool(ea) == bool(a)
    assert ops.decode(ops.mul(ea, eb)) == a * b
    assert ops.decode(ops.neg(ea)) == -a
    if a:
        assert ops.decode(ops.inv(ea)) == a.inverse()
    else:
        with pytest.raises(DivisionByZeroError):
            ops.inv(ea)
    start = data.draw(st.integers(0, 2))
    row, top = [ea, eb, ec], [ec, ed, ea]
    got = ops.sub_multiple(row, top, eb, start)
    assert got[:start] == row[:start]
    assert list(map(ops.decode, got[start:])) == [
        x - b * y for x, y in zip([a, b, c][start:], [c, d, a][start:])
    ]
    got = ops.scale(row, ed, start)
    assert got[:start] == row[:start]
    assert list(map(ops.decode, got[start:])) == [d * x for x in [a, b, c][start:]]


def test_packing_is_built_once_per_field(monkeypatch):
    import mdskit.fields as fields_mod

    # made first: Ben-Or's test of its minimal polynomial packs residues too
    f = field_make(5, [4])
    built = []
    real = fields_mod.Packing

    def counting(p, tail):
        built.append((p, list(tail)))
        return real(p, tail)

    monkeypatch.setattr(fields_mod, "Packing", counting)
    rng = random.Random(5)
    for _ in range(3):
        ops = field_ops(f)
        x, y = (ops.encode(f.random_element(rng)) for _ in range(2))
        ops.mul(x, y)
    assert built == [(5, [t[0] for t in f.mod_tail])]


class _WrongInverse(ModPOps):
    """GF(p) arithmetic whose inverse is off by one."""

    def inv(self, a):
        return (pow(a, -1, self.p) + 1) % self.p


def test_division_with_a_wrong_inverse_raises():
    # the leading coefficient never cancels; a division must stop, not loop
    ops = _WrongInverse(field_make(7))
    with pytest.raises(DegreeMismatchError):
        _p_divmod(ops, [1, 2, 3, 4], [2, 3])
    with pytest.raises(DegreeMismatchError):
        _p_gcd(ops, [1, 2, 3, 4], [2, 3])
    with pytest.raises(DegreeMismatchError):
        _poly_inverse_mod(ops, [2, 3], [5, 0, 0, 1])


# -- Ben-Or over prime fields: packed residues against the generic layer ---------------


def _ben_or_reference(p, coeffs):
    # Ben-Or on the generic polynomial layer: x^(p^i) mod f by p_powmod over
    # ModPOps, one Horner product per step
    ops = ModPOps(field_make(p))
    f = _p_trim([c % p for c in coeffs])
    d = len(f) - 1
    if d < 1:
        return False
    lead_inv = pow(f[-1], -1, p)
    tail = [c * lead_inv % p for c in f[:-1]]
    h = [0, 1] + [0] * (d - 2)
    for _ in range(d // 2):
        h = p_powmod(ops, h, p, tail)
        hx = h[:]
        hx[1] = (hx[1] - 1) % p
        if len(_p_gcd(ops, tail + [1], hx)) != 1:
            return False
    return True


def _check_packed_ben_or(p, coeffs):
    """poly_is_irreducible against the reference, and every packed
    x^(p^i) mod f against p_powmod; returns the verdict."""
    f = field_make(p)
    got = poly_is_irreducible(f, [f.element(c) for c in coeffs])
    assert got == _ben_or_reference(p, coeffs), coeffs
    trimmed = _p_trim([c % p for c in coeffs])
    d = len(trimmed) - 1
    if d >= 2:
        lead_inv = pow(trimmed[-1], -1, p)
        tail = [c * lead_inv % p for c in trimmed[:-1]]
        k = Packing(p, tail)
        x = [0, 1] + [0] * (d - 2)
        packed, want = k.pack(x), x
        for _ in range(d // 2):
            packed = _power(k.mul, packed, p)
            want = p_powmod(ModPOps(f), want, p, tail)
            assert list(k.unpack(packed)) == want, coeffs
    return got


def _random_int_polys(rng, p, d, count):
    # degree exactly d, leading coefficient anywhere in 1..p-1
    return [
        [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        for _ in range(count)
    ]


@pytest.mark.parametrize("p", [41, 59])
def test_packed_ben_or_matches_generic_at_degree_25(p):
    rng = random.Random(p)
    irreducible = _PINNED_IRREDUCIBLES[(p, 1, 25)]
    polys = _random_int_polys(rng, p, 25, 10) + [
        irreducible,
        [3 * c % p for c in irreducible],  # not monic
        [0] + irreducible[1:],  # divisible by x
    ]
    verdicts = [_check_packed_ben_or(p, c) for c in polys]
    assert verdicts[-3:] == [True, True, False]


@pytest.mark.parametrize("p", [2, 3])
def test_packed_ben_or_matches_generic_on_narrow_slots(p):
    rng = random.Random(p)
    verdicts = set()
    for d in range(2, 11):
        for c in _random_int_polys(rng, p, d, 12) + [[0] * d + [1]]:
            verdicts.add(_check_packed_ben_or(p, c))
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [2, 41])
def test_ben_or_below_degree_two(p):
    cases = [
        ([], False), ([0], False), ([1], False), ([p - 1, 0, 0], False),
        ([1, 1], True), ([0, 1], True), ([1, p - 1, 0], True),
    ]
    for coeffs, want in cases:
        assert _check_packed_ben_or(p, coeffs) == want, coeffs


# -- Ben-Or's root test and gcd blocks against the per-round test ----------------------


def _poly_product(f, a, b):
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = out[i + j] + c * d
    return out


def _agrees_with_per_round(f, poly):
    got = poly_is_irreducible(f, poly)
    assert got == ben_or_per_round(f, poly), [c.to_int() for c in poly]
    return got


@pytest.mark.parametrize(
    "p,e,max_deg", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3), (7, 1, 3), (3, 2, 3)]
)
def test_ben_or_matches_per_round_on_every_small_polynomial(p, e, max_deg):
    f = field_make(p, [e] if e > 1 else [])
    els = list(f.elements())
    lead = els[-1]  # not one unless q = 2, so the monic scaling runs
    for d in range(max_deg + 1):
        for tail in itertools.product(els, repeat=d):
            poly = list(tail) + [f.one]
            _agrees_with_per_round(f, poly)
            _agrees_with_per_round(f, [c * lead for c in poly])


@pytest.mark.parametrize("p", [41, 59])
def test_ben_or_matches_per_round_at_degree_25(p):
    f = field_make(p)
    rng = random.Random(25 * p)
    polys = [
        [f.element(c) for c in cs] for cs in _random_int_polys(rng, p, 25, 30)
    ]
    # rootless and reducible, first caught by the blocks 2, 3-4, 5-8, 9-12,
    # and a square
    irr = {e: find_irreducible(f, e) for e in (2, 3, 7, 12, 13, 18, 21, 22, 23)}
    for e in (2, 3, 7, 12):
        polys.append(_poly_product(f, irr[e], irr[25 - e]))
    polys.append(_poly_product(f, _poly_product(f, irr[2], irr[2]), irr[21]))
    polys.append([f.element(c) for c in _PINNED_IRREDUCIBLES[(p, 1, 25)]])
    verdicts = [_agrees_with_per_round(f, poly) for poly in polys]
    assert verdicts[-6:] == [False] * 5 + [True]


def test_ben_or_matches_per_round_without_root_test():
    # GF(121) has no index tables: round 1 is a gcd, as are the blocks
    f = field_make(11, [2])
    assert type(field_ops(f)) is PackedOps
    rng = random.Random(121)

    def poly(d):
        return [f.random_element(rng) for _ in range(d)] + [f.one]

    polys = []
    for d in range(6, 10):
        polys += [poly(d) for _ in range(3)]
        polys += [_poly_product(f, poly(e), poly(d - e)) for e in (1, 2, 3)]
    polys.append(_poly_product(f, poly(2), poly(2)))
    polys.append(find_irreducible(f, 6))
    verdicts = [_agrees_with_per_round(f, poly) for poly in polys]
    assert verdicts[-1] and not any(verdicts[3:6])


# -- tower arithmetic against the sparse level-table multiply --------------------------
#
# The oracle below multiplies independently of the level-over-base
# arithmetic: term by term over exponent vectors, with x_i^(d_i) rewritten
# through a per-level table of lower monomials.


def _level_tables(f):
    t = len(f.dims)
    tables = []
    for i, level in enumerate(f.tower()[1:]):
        table = {}
        for j, coeff in enumerate(level.mod_tail):
            for subidx, c in enumerate(coeff):
                if not c:
                    continue
                exp = [0] * t
                rem = subidx
                for lv in range(i):
                    rem, exp[lv] = divmod(rem, f.dims[lv])
                exp[i] = j
                key = tuple(exp)
                table[key] = (table.get(key, 0) - c) % f.p
        tables.append(table)
    return tables


def level_table_mul(f, ca, cb):
    p, dims, t = f.p, f.dims, len(f.dims)
    if not dims:
        return ((ca[0] * cb[0]) % p,)

    def exp_of(idx):
        out = []
        for d in dims:
            idx, e = divmod(idx, d)
            out.append(e)
        return tuple(out)

    ea = [(exp_of(i), x) for i, x in enumerate(ca) if x]
    eb = [(exp_of(j), y) for j, y in enumerate(cb) if y]
    acc = {}
    for xa, x in ea:
        for xb, y in eb:
            key = tuple(u + v for u, v in zip(xa, xb))
            acc[key] = (acc.get(key, 0) + x * y) % p
    work = [e for e in acc if any(e[i] >= dims[i] for i in range(t))]
    tables = _level_tables(f)
    while work:
        exp = work.pop()
        c = acc.pop(exp, 0)
        if not c:
            continue
        lev = t - 1
        while exp[lev] < dims[lev]:
            lev -= 1
        rest = list(exp)
        rest[lev] -= dims[lev]
        for bexp, bc in tables[lev].items():
            ne = tuple(r + b for r, b in zip(rest, bexp))
            nv = (acc.get(ne, 0) + c * bc) % p
            if nv:
                if ne not in acc and any(ne[i] >= dims[i] for i in range(t)):
                    work.append(ne)
                acc[ne] = nv
            else:
                acc.pop(ne, None)
    out = [0] * f.D
    for exp, c in acc.items():
        out[sum(e * s for e, s in zip(exp, f.strides))] = c
    return tuple(out)


def _sparse_element(f, rng, terms):
    c = [0] * f.D
    for _ in range(terms):
        c[rng.randrange(f.D)] = rng.randrange(1, f.p)
    return f.element(c)


_ORACLE_FIELDS = {
    "GF(7)": F7,
    "GF(9)": _F9,
    "GF(11^4)": field_make(11, [4]),
    "GF(3^8)=(2,4)": field_make(3, [2, 4]),
    "GF(7^6)=(2,3)": field_make(7, [2, 3]),
    "GF(2^12)=(3,2,2)": field_make(2, [3, 2, 2]),
    "GF(9^64)": extend_binomial_chain(_F9, _F9.from_int(4), 8, 2),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_FIELDS))
def test_products_and_inverses_match_level_table_oracle(name):
    f = _ORACLE_FIELDS[name]
    rng = random.Random(name)
    els = [f.zero, f.one] + ([f.gen(i) for i in range(len(f.dims))])
    els += [_sparse_element(f, rng, rng.randrange(1, 4)) for _ in range(8)]
    els += [f.random_element(rng) for _ in range(8 if f.D < 100 else 3)]
    for a in els:
        for b in els:
            assert (a * b).coeffs == level_table_mul(f, a.coeffs, b.coeffs)
        if a:
            assert level_table_mul(f, a.coeffs, a.inverse().coeffs) == f.one.coeffs
        else:
            with pytest.raises(DivisionByZeroError):
                a.inverse()


def _product_tables(f):
    els = list(f.elements())
    mul = [[level_table_mul(f, a.coeffs, b.coeffs) for b in els] for a in els]
    mul = [[FieldElement(f, c).to_int() for c in row] for row in mul]
    return mul, [0] + [row.index(1) for row in mul[1:]]


@pytest.mark.parametrize(
    "f",
    [field_of_order(q) for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81)]
    + [field_make(2, [2, 2]), field_make(2, [2, 3]), field_make(2, [3, 2])]
    + [F2, F7],
    ids=lambda f: f"{f!r}{list(f.dims)}",
)
def test_index_tables_match_product_built_tables(f):
    t = TableOps(f)
    els = list(f.elements())
    assert (t.mul_table, t.inv_table) == _product_tables(f)
    assert t.add_table == [[(a + b).to_int() for b in els] for a in els]
    assert t.neg_table == [(-a).to_int() for a in els]


# -- the level backend against FieldOps and the level-table multiply -------------------

_F5 = field_make(5)
LEVEL_TOWERS = {
    "GF(3)(2,3)": field_make(3, [2, 3]),  # over the table field GF(9)
    "GF(3)(4,2)": field_make(3, [4, 2]),  # over the packed field GF(81)
    "GF(2)(2,2,2)": field_make(2, [2, 2, 2]),  # over the table field GF(16)
    "GF(5)(3,2,2)": field_make(5, [3, 2, 2]),  # over a level backend
    "GF(5)(8,8,8)": extend_binomial_chain(_F5, _F5.from_int(2), 8, 3),
}


def _level_elements(f, rng):
    els = [f.zero, f.one, -f.one] + [f.gen(i) for i in range(len(f.dims))]
    els += [_sparse_element(f, rng, rng.randrange(1, 4)) for _ in range(5)]
    return els + [f.random_element(rng) for _ in range(5 if f.D < 100 else 1)]


@pytest.mark.parametrize("name", sorted(LEVEL_TOWERS))
def test_level_backend_matches_field_ops_and_level_tables(name):
    f = LEVEL_TOWERS[name]
    ops, ref = field_ops(f), FieldOps(f)
    assert type(ops) is LevelOps and ops is f._level()
    rng = random.Random(name)
    els = _level_elements(f, rng)
    enc = [ops.encode(a) for a in els]
    assert ops.zero == enc[0] == () and ops.one == enc[1]
    for a, x in zip(els, enc):
        assert ops.decode(x) == a
        assert bool(x) == bool(a) and (not x or len(x) == f.degree)
        assert ops.decode(ops.neg(x)) == -a
        if a:
            inv = ops.inv(x)
            assert ops.encode(ops.decode(inv)) == inv
            assert level_table_mul(f, a.coeffs, ops.decode(inv).coeffs) == f.one.coeffs
        else:
            with pytest.raises(DivisionByZeroError):
                ops.inv(x)
        for b, y in zip(els, enc):
            prod = ops.mul(x, y)
            assert ops.encode(ops.decode(prod)) == prod
            assert ops.decode(prod).coeffs == level_table_mul(f, a.coeffs, b.coeffs)
    # row operations from every start column, against FieldElement rows
    for _ in range(4):
        row, top = ([rng.randrange(len(els)) for _ in range(3)] for _ in range(2))
        c = rng.randrange(len(els))
        er, et = [enc[i] for i in row], [enc[i] for i in top]
        fr, ft = [els[i] for i in row], [els[i] for i in top]
        for start in range(4):
            got = ops.sub_multiple(er, et, enc[c], start)
            want = ref.sub_multiple(fr, ft, els[c], start)
            assert [ops.decode(v) for v in got] == want
            assert [ops.encode(w) for w in want] == got
            got = ops.scale(er, enc[c], start)
            want = ref.scale(fr, els[c], start)
            assert [ops.encode(w) for w in want] == got
    # a row minus itself is zero, and zero is ()
    assert ops.sub_multiple(enc, enc, ops.one, 0) == [()] * len(enc)


def test_level_mul_by_one_or_minus_one_skips_the_product():
    """A factor of +-1 gives the other factor or its negative, as
    ``_p_mulmod`` does, without a product through the level below."""
    f = LEVEL_TOWERS["GF(3)(2,3)"]
    ops = LevelOps(f)
    plain = ops.base
    assert ops.minus_one == ops.encode(-f.one)
    rng = random.Random(3)
    els = [ops.encode(f.random_element(rng)) for _ in range(6)]
    els += [ops.one, ops.minus_one, ops.encode(f.gen())]
    ops.base = counted = CountingOps(plain)
    for a in els:
        for unit in (ops.one, ops.minus_one):
            want = tuple(_p_mulmod(plain, a, unit, ops.tail))
            assert ops.mul(a, unit) == ops.mul(unit, a) == want
    assert counted.calls == dict.fromkeys(CountingOps.COUNTED, 0)


def test_level_encode_skips_zero_blocks(monkeypatch):
    """A one-term element of the binomial chain of general-ell (4, 2, 2)
    reaches the base encode of each level at most once."""
    from mdskit.constructions import ConstructionParams, construct

    params = ConstructionParams(name="general-ell", n=4, k=2, ell=2)
    f = construct(params).code.field
    chain, ops = [], field_ops(f)
    while isinstance(ops, LevelOps):
        chain.append(ops)
        ops = ops.base
    assert len(chain) == len(f.dims) - 1 and type(ops) is PackedOps
    calls = []
    for level, lo in enumerate(chain[1:] + [ops]):
        real = lo.encode
        monkeypatch.setattr(
            lo, "encode", lambda a, real=real, lv=level: calls.append(lv) or real(a)
        )
    rng = random.Random(4)
    one_term = [f.gen(), f.one, f.gen(0)] + [_sparse_element(f, rng, 1) for _ in range(3)]
    for a in one_term:
        calls.clear()
        x = chain[0].encode(a)
        assert sorted(set(calls)) == sorted(calls)
        assert chain[0].decode(x) == a


@pytest.mark.parametrize("f", [F7, LEVEL_TOWERS["GF(3)(2,3)"]], ids=repr)
def test_power_matches_repeated_products(f):
    rng = random.Random(7)
    for a in (f.one, f.random_element(rng), f.random_element(rng)):
        if not a:
            continue
        for e in range(-3, 21):
            want, step = f.one, a if e >= 0 else a.inverse()
            for _ in range(abs(e)):
                want = want * step
            assert a ** e == want
    assert f.zero ** 0 == f.one and f.zero ** 3 == f.zero
