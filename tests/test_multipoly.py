"""Polynomial layer tests.

The stored combiner data is cross-checked by an independent expansion:
the compressed symmetric-function form of the big combiner is expanded
through ordinary ring arithmetic and compared against the stored term
list at two unrelated primes, which pins every integer coefficient in
the range the data uses.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdskit.errors import (
    ArityMismatchError,
    BudgetExceededError,
    CharacteristicMismatchError,
    DegreeMismatchError,
    DegreeTooHighError,
    EvenCharacteristicError,
    NotPrimeError,
    WrongKindError,
)
from mdskit.fields import field_make
from mdskit.linalg import MatrixF, det
from mdskit.multipoly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    MonomialPacking,
    SparsePoly,
    _reduce_product,
    buchberger,
    certificate_polys,
    gamma_expand_det3,
    gb_reduce,
    pairing_ideal,
    parse_poly,
    verify_claim_q_identity,
    verify_groebner_claim,
)


def V(p, i, v=6):
    return SparsePoly.variable(p, v, i)


def rand_poly(rng, p, v, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = tuple(rng.randrange(max_deg + 1) for _ in range(v))
        terms[exp] = rng.randrange(p)
    return SparsePoly(p, v, terms)


# -- the tuple-keyed oracle ------------------------------------------------------------
#
# gb_reduce and buchberger run on packed monomials.  These references keep
# exponent tuples, compare them through MonomialOrder.key and divide them
# field by field, as plainly as possible; the Buchberger reference has no pair
# criteria.


def tuple_reduce(f, basis, order, stats=None):
    """Full normal form of f, each term reduced by the first basis element
    whose lead divides it; terms come highest-first off a lazy-deletion
    heap keyed by the negated order key.  Given a `stats` dict, it counts
    under "reappeared" the terms that cancelled and came back."""

    def neg_key(k):
        return tuple(-x if isinstance(x, int) else neg_key(x) for x in k)

    p = f.p
    leads = [(g.lead(order), g) for g in basis if not g.is_zero()]
    work = dict(f.terms)
    heap = [(neg_key(order.key(e)), e) for e in work]
    heapq.heapify(heap)
    cancelled = set()
    remainder = {}
    while heap:
        _, exp = heapq.heappop(heap)
        c = work.pop(exp, None)
        if c is None:
            continue  # stale entry: the term cancelled earlier
        for (lexp, lc), g in leads:
            if all(x <= y for x, y in zip(lexp, exp)):
                break
        else:
            remainder[exp] = c
            continue
        shift = tuple(x - y for x, y in zip(exp, lexp))
        factor = c * pow(lc, -1, p) % p
        for ge, gc in g.terms.items():
            e = tuple(x + y for x, y in zip(ge, shift))
            if e == exp:
                continue
            s = (work.get(e, 0) - factor * gc) % p
            if s:
                if e not in work:
                    heapq.heappush(heap, (neg_key(order.key(e)), e))
                    if stats is not None and e in cancelled:
                        stats["reappeared"] = stats.get("reappeared", 0) + 1
                work[e] = s
            else:
                work.pop(e, None)
                cancelled.add(e)
    return SparsePoly(p, f.v, remainder)


def tuple_s_poly(f, g, order):
    p = f.p
    (fe, fc), (ge, gc) = f.lead(order), g.lead(order)
    lcm = tuple(max(x, y) for x, y in zip(fe, ge))
    mf = SparsePoly(p, f.v, {tuple(x - y for x, y in zip(lcm, fe)): pow(fc, -1, p)})
    mg = SparsePoly(p, g.v, {tuple(x - y for x, y in zip(lcm, ge)): pow(gc, -1, p)})
    return mf * f - mg * g


def tuple_buchberger(gens, order):
    """Reduced Groebner basis: every S-pair but those of coprime leads
    (Buchberger's first criterion), the pair with the smallest lcm of leads
    first (the normal selection strategy), then minimal, interreduced, monic
    and sorted by lead."""

    def lcm_key(pair):
        a, b = (basis[i].lead(order)[0] for i in pair)
        return order.key(tuple(max(x, y) for x, y in zip(a, b)))

    basis = [g for g in gens if not g.is_zero()]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pair = min(pairs, key=lcm_key)
        pairs.remove(pair)
        a, b = basis[i].lead(order)[0], basis[j].lead(order)[0]
        if not any(x and y for x, y in zip(a, b)):
            continue
        r = tuple_reduce(tuple_s_poly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    minimal = []
    for g in sorted(basis, key=lambda g: order.key(g.lead(order)[0])):
        lead = g.lead(order)[0]
        if not any(
            all(x <= y for x, y in zip(m.lead(order)[0], lead)) for m in minimal
        ):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = tuple_reduce(g, [m for m in minimal if m is not g], order)
        reduced.append(r * pow(r.lead(order)[1], -1, r.p))
    return sorted(reduced, key=lambda g: order.key(g.lead(order)[0]))


# -- stored combiner data --------------------------------------------------------------


def compressed_big_combiner(p):
    """The symmetric-function form of the doubled big combiner, expanded
    independently from the stored term list."""
    x1, x2 = V(p, 0), V(p, 1)
    s2 = V(p, 2) + V(p, 3)
    pp2 = V(p, 2) * V(p, 3)
    s3 = V(p, 4) + V(p, 5)
    pp3 = V(p, 4) * V(p, 5)
    return (
        -2 * x1 * x2**3 * (s2 - s3)
        - x1 * x2**2 * (s2**2 - 2 * pp2 - s3**2 + 2 * pp3)
        + 2 * x1 * x2 * (s2 * pp2 - s3 * pp3)
        - x1 * (pp2 - pp3) * (pp2 + pp3)
        - 2 * x2**3 * (s2**2 - pp2 - s3**2 + pp3)
        - x2**2 * (s2 - s3) * (pp2 + pp3)
        + x2 * (3 * pp2**2 - 3 * pp3**2 + (s2 + s3) * (pp2 * s3 - s2 * pp3))
        - (pp2 * s3 - s2 * pp3) * (pp2 + pp3)
    )


@pytest.mark.parametrize("p", [101, 103])
def test_stored_combiner_matches_symmetric_form(p):
    # two primes far above every coefficient magnitude pin the integers
    polys = certificate_polys(p)
    assert polys["two_q0"] == compressed_big_combiner(p)
    x2 = V(p, 1)
    s2, s3 = V(p, 2) + V(p, 3), V(p, 4) + V(p, 5)
    pp2, pp3 = V(p, 2) * V(p, 3), V(p, 4) * V(p, 5)
    assert polys["g"] == x2 * (s2 - s3) - pp2 + pp3


def test_stored_combiner_shape():
    polys = certificate_polys(7)
    assert len(polys["two_q0"].terms) == 50
    assert len(polys["g"].terms) == 6
    assert polys["q2"] == V(7, 1) * polys["g"]
    assert (polys["q3"] * 2 + polys["g"]).is_zero()
    assert (polys["q0"] * 2) == polys["two_q0"]


def test_checksum_first_coefficient_divides_second():
    p0, p1, p2, p3 = pairing_ideal(7)
    e1 = sum((V(7, i) for i in range(6)), SparsePoly.zero(7, 6))
    assert p1 == p0 * e1


@pytest.mark.parametrize("p", [7, 11])
def test_combination_identity(p):
    assert verify_claim_q_identity(p) is True


def test_combination_identity_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristicError):
        verify_claim_q_identity(2)


def test_combination_identity_breaks_under_mutation():
    p = 7
    p0, p1, p2, p3 = pairing_ideal(p)
    polys = certificate_polys(p)
    h = SparsePoly.const(p, 6, 1)
    from mdskit.multipoly import PAIR_DIFFERENCE_SET

    for i, j in PAIR_DIFFERENCE_SET:
        h = h * (V(p, i - 1) - V(p, j - 1))
    good = polys["q0"] * p0 + polys["q2"] * p2 + polys["q3"] * p3
    assert good == h
    # bump one coefficient of one combiner
    mutated = polys["q0"] + SparsePoly(p, 6, {(0, 1, 1, 0, 0, 0): 1})
    assert mutated * p0 + polys["q2"] * p2 + polys["q3"] * p3 != h


# -- ring arithmetic -------------------------------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(20817)
    checks = 0
    for p in (2, 5, 7):
        zero = SparsePoly.zero(p, 3)
        one = SparsePoly.const(p, 3, 1)
        for _ in range(120):
            f = rand_poly(rng, p, 3)
            g = rand_poly(rng, p, 3)
            h = rand_poly(rng, p, 3)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + zero == f and f * one == f
            assert (f - g) + g == f
            assert f + (-f) == zero
            assert f**2 == f * f
            checks += 9
    assert checks >= 1000


def test_scalar_and_power_arithmetic():
    p = 5
    f = parse_poly("2*x1^2 + 3*x2^1 + 4", p, 2)
    assert f * 3 == parse_poly("1*x1^2 + 4*x2^1 + 2", p, 2)
    assert f * 0 == SparsePoly.zero(p, 2)
    assert f**0 == SparsePoly.const(p, 2, 1)
    assert f**3 == f * f * f


def test_mixed_characteristic_and_arity_rejected():
    with pytest.raises(CharacteristicMismatchError):
        SparsePoly.const(5, 2, 1) + SparsePoly.const(7, 2, 1)
    with pytest.raises(ArityMismatchError):
        SparsePoly.const(5, 2, 1) * SparsePoly.const(5, 3, 1)
    with pytest.raises(ArityMismatchError):
        gb_reduce(SparsePoly.const(5, 2, 1), [SparsePoly.const(5, 3, 1)])
    with pytest.raises(NotPrimeError):
        SparsePoly.const(6, 2, 1)


def test_foreign_operand_raises_type_error():
    x = V(5, 0, 2)
    for op in (
        lambda: x * 1.5,
        lambda: 1.5 * x,
        lambda: x + "a",
        lambda: "a" + x,
        lambda: x - 1.5,
        lambda: 1.5 - x,
        lambda: x * [1],
    ):
        with pytest.raises(TypeError):
            op()
    # ints still act as constants on either side
    assert 3 - x == SparsePoly.const(5, 2, 3) - x and 2 * x == x + x


def test_zero_polynomial_has_no_lead():
    with pytest.raises(DegreeMismatchError, match="zero polynomial"):
        SparsePoly.zero(7, 2).lead()


def test_negative_power_raises_degree_mismatch():
    x = SparsePoly.variable(5, 2, 0)
    with pytest.raises(DegreeMismatchError, match="negative power"):
        x ** -1
    assert x**0 == SparsePoly.const(5, 2, 1)


# -- evaluation ------------------------------------------------------------------------


def test_eval_is_ring_homomorphism_prime_field():
    rng = random.Random(3)
    p = 13
    for _ in range(200):
        f = rand_poly(rng, p, 3)
        g = rand_poly(rng, p, 3)
        pt = [rng.randrange(p) for _ in range(3)]
        assert (f * g + f).eval(pt) == (f.eval(pt) * g.eval(pt) + f.eval(pt)) % p


def test_eval_into_extension_field():
    F9 = field_make(3, [2])
    rng = random.Random(4)
    for _ in range(100):
        f = rand_poly(rng, 3, 2)
        g = rand_poly(rng, 3, 2)
        pt = [F9.random_element(rng), F9.random_element(rng)]
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)


def test_eval_agrees_between_int_and_element_points():
    F7 = field_make(7)
    rng = random.Random(5)
    for _ in range(50):
        f = rand_poly(rng, 7, 3)
        ints = [rng.randrange(7) for _ in range(3)]
        elems = [F7.from_int(a) for a in ints]
        assert F7.from_int(f.eval(ints)) == f.eval(elems)


def test_eval_errors():
    f = SparsePoly.variable(5, 2, 0)
    with pytest.raises(ArityMismatchError):
        f.eval([1])
    F9 = field_make(3, [2])
    with pytest.raises(CharacteristicMismatchError):
        f.eval([F9.one, F9.one])


# -- text format -----------------------------------------------------------------------


def test_format_exact_strings():
    p = 7
    assert SparsePoly.zero(p, 2).format() == "0"
    assert SparsePoly.const(p, 2, 3).format() == "3"
    f = V(p, 0, 2) + 2 * V(p, 1, 2)
    assert f.format() == "1*x1^1 + 2*x2^1"
    assert parse_poly("0", p, 2).is_zero()
    assert parse_poly("1*x1 + -1*x1", p, 2).is_zero()
    assert parse_poly("x1*x1", p, 2) == V(p, 0, 2) ** 2


def test_parse_format_roundtrip():
    rng = random.Random(6)
    for p in (5, 11):
        for _ in range(80):
            f = rand_poly(rng, p, 4)
            for order in (DEGREVLEX, LEX):
                assert parse_poly(f.format(order), p, 4) == f


# -- monomial orders -------------------------------------------------------------------


def test_monomial_order_conventions():
    # x1 > x2 > x3; under degrevlex x2^2 beats x1*x3, under lex it loses
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert DEGREVLEX.key(y2) > DEGREVLEX.key(xz)
    assert LEX.key(xz) > LEX.key(y2)
    # degree dominates in degrevlex
    assert DEGREVLEX.key((2, 0, 0)) > DEGREVLEX.key((0, 1, 0))
    # permuted lex reverses the roles
    rev = MonomialOrder("lex", perm=(2, 1, 0))
    assert rev.key((0, 0, 1)) > rev.key((1, 0, 0))
    with pytest.raises(Exception):
        MonomialOrder("grlex")


def test_monomial_order_rejects_non_permutation():
    # (0, 0, 2) would give x1 and x2 the same place and two monomials one key
    for perm in ((0, 0, 2), (1, 2, 3), (0, 2)):
        with pytest.raises(WrongKindError):
            MonomialOrder("lex", perm=perm)


def test_perm_length_must_match_arity():
    x, y, z = (V(5, i, 3) for i in range(3))
    short = MonomialOrder("lex", perm=(1, 0))
    with pytest.raises(ArityMismatchError):
        gb_reduce(x * y + z, [x - z], short)
    with pytest.raises(ArityMismatchError):
        buchberger([x - z, y], short)
    # lead and format used to compare x1 and x2 only and call x1 the lead
    f = parse_poly("x1 + x3^5", 5, 3)
    with pytest.raises(ArityMismatchError):
        f.lead(short)
    with pytest.raises(ArityMismatchError):
        f.format(short)
    with pytest.raises(ArityMismatchError):
        f.lead(MonomialOrder("degrevlex", perm=(3, 2, 1, 0)))
    assert f.lead(MonomialOrder("lex", perm=(2, 1, 0))) == ((0, 0, 5), 1)
    assert f.format(MonomialOrder("lex", perm=(2, 1, 0))) == "1*x3^5 + 1*x1^1"


def test_negative_exponent_rejected():
    with pytest.raises(DegreeMismatchError):
        SparsePoly(7, 2, {(-1, 0): 1})
    # a cancelled term is dropped before it is looked at, as for arity
    assert SparsePoly(7, 2, {(-1, 0): 7}).is_zero()


# -- twist expansion -------------------------------------------------------------------


def test_twist_expansion_matches_direct_determinant():
    p = 7
    ext = field_make(p, [4])
    gamma = ext.gen()
    coeffs = pairing_ideal(p, power=2)
    rng = random.Random(7)
    for _ in range(100):
        alpha = rng.sample(range(p), 6)
        betas = []
        for a in alpha:
            av = ext.from_int(a)
            betas.append(av + gamma * av * av)
        rows = []
        for i, j in ((0, 1), (2, 3), (4, 5)):
            rows.append([ext.one, betas[i] + betas[j], betas[i] * betas[j]])
        direct = det(MatrixF(ext, rows))
        pts = [ext.from_int(a) for a in alpha]
        expanded = ext.zero
        for k, ck in enumerate(coeffs):
            expanded = expanded + ck.eval(pts) * gamma**k
        assert expanded == direct


def test_twist_expansion_guards():
    p = 7
    t = SparsePoly.variable(p, 7, 6)
    x0 = SparsePoly.variable(p, 7, 0)
    good = [x0 + t * x0**2] * 6
    p0, p1, p2, p3 = gamma_expand_det3(good)
    assert all(q.v == 6 for q in (p0, p1, p2, p3))
    with pytest.raises(DegreeTooHighError):
        gamma_expand_det3([x0 + t * t * x0] * 6)
    with pytest.raises(ArityMismatchError):
        gamma_expand_det3([x0] * 5)


def test_twist_expansion_of_untwisted_slots_is_constant_in_twist():
    p = 11
    slots = [SparsePoly.variable(p, 7, i) for i in range(6)]
    p0, p1, p2, p3 = gamma_expand_det3(slots)
    assert p1.is_zero() and p2.is_zero() and p3.is_zero()
    # p0 is the plain pairing determinant; vanishes when two slots collide
    assert p0.eval([1, 2, 3, 4, 1, 2]) == 0
    assert p0.eval([1, 2, 1, 2, 3, 4]) == 0
    assert p0.eval([1, 2, 3, 4, 5, 6]) == 10


# -- division and Groebner bases -------------------------------------------------------


def test_reduce_by_monomial_ideal():
    p = 5
    x, y = V(p, 0, 2), V(p, 1, 2)
    basis = [x**2, y**2]
    f = x**3 + x * y**2 + x + 2
    assert gb_reduce(f, basis, LEX) == x + 2
    assert gb_reduce(f, [], LEX) == f


def test_reduce_is_idempotent_and_linear():
    rng = random.Random(8)
    p = 5
    for _ in range(60):
        basis = [rand_poly(rng, p, 3, 2, 3) for _ in range(2)]
        basis = [b for b in basis if not b.is_zero()]
        if not basis:
            continue
        f = rand_poly(rng, p, 3)
        g = rand_poly(rng, p, 3)
        rf = gb_reduce(f, basis, DEGREVLEX)
        assert gb_reduce(rf, basis, DEGREVLEX) == rf
        # reduction of a basis multiple is zero
        assert gb_reduce(basis[0] * g, basis, DEGREVLEX).is_zero()


def test_classic_lex_basis():
    p = 5
    x, y, z = (V(p, i, 3) for i in range(3))
    gb = buchberger([x**2 - y, x * y - z], LEX)
    expected = {x**2 - y, x * y - z, x * z - y**2, y**3 - z**2}
    assert set(gb) == expected


def test_buchberger_invariants_randomized():
    rng = random.Random(9)
    p = 5
    done = 0
    while done < 25:
        gens = [rand_poly(rng, p, 3, 2, 3) for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        order = DEGREVLEX if done % 2 == 0 else LEX
        gb = buchberger(gens, order, budget=20000)
        leads = [g.lead(order)[0] for g in gb]
        # leads are monic, pairwise non-dividing, tails irreducible
        for g in gb:
            assert g.lead(order)[1] == 1
            others = [h for h in gb if h is not g]
            tail = g - SparsePoly(p, 3, {g.lead(order)[0]: 1})
            assert gb_reduce(tail, others, order) == tail if not others else True
        for a, b in itertools.combinations(range(len(leads)), 2):
            assert not all(x <= y for x, y in zip(leads[a], leads[b]))
            assert not all(y <= x for x, y in zip(leads[a], leads[b]))
        # defining property: generators and S-pairs collapse to zero
        for g in gens:
            assert gb_reduce(g, gb, order).is_zero()
        for a, b in itertools.combinations(gb, 2):
            assert gb_reduce(tuple_s_poly(a, b, order), gb, order).is_zero()
        # random ideal combinations collapse to zero
        combo = SparsePoly.zero(p, 3)
        for g in gens:
            combo = combo + g * rand_poly(rng, p, 3, 2, 2)
        assert gb_reduce(combo, gb, order).is_zero()
        done += 1


def test_basis_is_order_canonical():
    p = 5
    x, y, z = (V(p, i, 3) for i in range(3))
    gens = [x**2 - y, x * y - z]
    a = buchberger(list(reversed(gens)), LEX)
    b = buchberger([gens[0] + gens[1], gens[1]], LEX)
    assert a == buchberger(gens, LEX) == b


def test_buchberger_budget():
    p = 5
    x, y, z = (V(p, i, 3) for i in range(3))
    with pytest.raises(BudgetExceededError):
        buchberger([x**2 - y, x * y - z], LEX, budget=0)


def test_repeated_pair_collapses_expansion():
    # equal first and second rows: every twist coefficient vanishes
    p = 7
    t = SparsePoly.variable(p, 7, 6)
    xs = [SparsePoly.variable(p, 7, i) for i in (0, 1, 0, 1, 4, 5)]
    slots = [x + t * x**2 for x in xs]
    assert all(q.is_zero() for q in gamma_expand_det3(slots))


ORDERS = {
    "degrevlex": lambda v, perm: DEGREVLEX,
    "lex": lambda v, perm: LEX,
    "permuted lex": lambda v, perm: MonomialOrder("lex", perm=perm),
}


@st.composite
def reduction_cases(draw):
    p = draw(st.sampled_from([2, 5, 7]))
    v = draw(st.integers(1, 6))
    order = ORDERS[draw(st.sampled_from(sorted(ORDERS)))](
        v, tuple(draw(st.permutations(range(v))))
    )

    def poly(min_terms, max_terms, degree):
        exps = st.tuples(*[st.integers(0, degree)] * v).filter(
            lambda e: sum(e) <= degree
        )
        coeffs = st.integers(1, p - 1)
        terms = st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms)
        return SparsePoly(p, v, draw(terms))

    # generators of degree at most 2 keep the reference Buchberger quick
    gens = [poly(1, 4, 2) for _ in range(draw(st.integers(2, 3)))]
    return order, gens, poly(0, 8, 4)


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
def test_packed_reduction_and_buchberger_match_tuple_oracle(case):
    order, gens, f = case
    # any basis: the same first-divisor rule gives the same remainder
    assert gb_reduce(f, gens, order) == tuple_reduce(f, gens, order)
    gb = buchberger(gens, order, budget=10**4)
    assert gb == tuple_buchberger(gens, order)
    assert gb_reduce(f, gb, order) == tuple_reduce(f, gb, order)
    g = gens[0] + f
    assert _reduce_product([f, g], gb, order) == tuple_reduce(f * g, gb, order)


def _spy_packings(monkeypatch):
    caps = []
    packing = MonomialOrder.packing

    def spy(self, v, cap):
        pk = packing(self, v, cap)
        caps.append(pk.cap)
        return pk

    monkeypatch.setattr(MonomialOrder, "packing", spy)
    return caps


def test_overflow_repacks_wider(monkeypatch):
    # x > y under lex, so x - y^3 turns x^4*y into y^13: an exponent above
    # every input exponent and above the first packing's cap
    p = 5
    x, y, z = (V(p, i, 3) for i in range(3))
    caps = _spy_packings(monkeypatch)
    rem = gb_reduce(x**4 * y, [x - y**3], LEX)
    assert rem == y**13 == tuple_reduce(x**4 * y, [x - y**3], LEX)
    assert caps[0] < 13 <= caps[-1]
    caps.clear()
    gb = buchberger([x - y**3, x**3], LEX)
    assert gb == [y**9, x - y**3] == tuple_buchberger([x - y**3, x**3], LEX)
    assert caps[0] < 9 <= caps[-1]
    # degrevlex never raises a degree in a reduction, but an lcm of two
    # leads can outgrow twice the generators' degree
    caps.clear()
    gens = [y**3 + x * z, y**3 + x * y + y**2]
    gb = buchberger(gens, DEGREVLEX)
    assert gb == tuple_buchberger(gens, DEGREVLEX)
    assert len(caps) == 2 and caps[0] < caps[1]


LAZY_PRIMES = [2, 3, 7, 2**31 - 1]


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("p", LAZY_PRIMES)
def test_lazy_kernel_matches_tuple_oracle_when_terms_cancel(p, order):
    # f = a*g + b*h + r over shared monomials: the quotient terms of g and h
    # hit the same monomials, so terms cancel to 0 mod p and come back within
    # one reduction, which the unreduced coefficients must survive
    rng = random.Random(p)
    monomials = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]

    def dense_poly(n):
        return SparsePoly(p, 3, {e: rng.randrange(1, p) for e in rng.sample(monomials, n)})

    reappeared = 0
    for _ in range(12):
        g, h = dense_poly(4), dense_poly(4)
        a, b, r = dense_poly(5), dense_poly(5), dense_poly(5)
        f = a * g + b * h + r
        stats = {}
        want = tuple_reduce(f, [g, h], order, stats)
        reappeared += stats.get("reappeared", 0)
        assert gb_reduce(f, [g, h], order) == want
        gb = buchberger([g, h], order, budget=10**4)
        assert gb == tuple_buchberger([g, h], order)
        assert gb_reduce(f, gb, order) == tuple_reduce(f, gb, order)
    assert reappeared > 0


def _spy_encodes(monkeypatch):
    calls = []
    encode_terms = MonomialPacking.encode_terms

    def spy(self, terms):
        calls.append(self.cap)
        return encode_terms(self, terms)

    monkeypatch.setattr(MonomialPacking, "encode_terms", spy)
    return calls


def test_overflow_restart_reuses_memoized_divisors(monkeypatch):
    # y^14 packs the basis at cap 15 first; x^4*y then starts at cap 7,
    # overflows (it reduces to y^13) and restarts at cap 15, where the
    # divisor of x - y^3 is already memoized
    p = 5
    x, y = V(p, 0, 2), V(p, 1, 2)
    basis = [x - y**3]
    wide = y**14 + x
    assert gb_reduce(wide, basis, LEX) == tuple_reduce(wide, basis, LEX)
    caps = _spy_packings(monkeypatch)
    encodes = _spy_encodes(monkeypatch)
    f = x**4 * y
    assert gb_reduce(f, basis, LEX) == y**13 == tuple_reduce(f, basis, LEX)
    # f at cap 7, the divisor at cap 7, f again at cap 15: no divisor at 15
    assert caps == [7, 15] and encodes == [7, 7, 15]
    encodes.clear()
    assert gb_reduce(f, basis, LEX) == y**13
    assert encodes == [7, 15]


def test_divisor_memo_is_per_packing(monkeypatch):
    p = 7
    x, y, z = (V(p, i, 3) for i in range(3))
    basis = buchberger([x**2 - y * z, x * y - z**2, y**2 - x * z], DEGREVLEX)
    before = [(hash(g), SparsePoly(p, 3, g.terms)) for g in basis]
    rng = random.Random(11)
    for order in (DEGREVLEX, LEX, DEGREVLEX):
        for _ in range(10):
            f = rand_poly(rng, p, 3, 3, 8)
            assert gb_reduce(f, basis, order) == tuple_reduce(f, basis, order)
    # f of degree 7, then 8, crosses a field width: cap 7, then cap 15
    caps = _spy_packings(monkeypatch)
    for f in (x**7 + y**3 * z, x**8 + y**2 * z**6):
        for order in (DEGREVLEX, LEX):
            assert gb_reduce(f, basis, order) == tuple_reduce(f, basis, order)
    assert caps == [7, 7, 15, 15]
    # serving as a divisor leaves hash, equality and printing alone
    for g, (h, copy) in zip(basis, before):
        assert hash(g) == h == hash(copy) and g == copy
        assert repr(g) == repr(copy) and g.format(LEX) == copy.format(LEX)


def test_packing_is_shared_per_field_width():
    assert DEGREVLEX.packing(3, 4) is DEGREVLEX.packing(3, 7)
    assert DEGREVLEX.packing(3, 7) is not DEGREVLEX.packing(3, 8)
    assert DEGREVLEX.packing(3, 7) is not LEX.packing(3, 7)
    assert DEGREVLEX.packing(3, 7) is not DEGREVLEX.packing(4, 7)
    assert DEGREVLEX.packing(3, 8).cap == 15


def test_buchberger_pair_count_pinned():
    # the pair order and the Gebauer-Moeller criteria decide how many
    # S-pairs the budget counts; these counts were taken from the
    # tuple-keyed implementation
    cyclic4 = [
        parse_poly(s, 7, 4)
        for s in (
            "x1 + x2 + x3 + x4",
            "x1*x2 + x2*x3 + x3*x4 + x4*x1",
            "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2",
            "x1*x2*x3*x4 + 6",
        )
    ]
    for gens, order, pairs in (
        (_claim_ideal_gens(), DEGREVLEX, 18),
        (cyclic4, DEGREVLEX, 8),
        (cyclic4, LEX, 16),
    ):
        with pytest.raises(BudgetExceededError):
            buchberger(gens, order, budget=pairs - 1)
        buchberger(gens, order, budget=pairs)


@pytest.mark.parametrize(
    "p,gens,want,pairs",
    [
        # (x1*x2)^2 is in the ideal, so 2 is: the unit ideal
        (3, ("x1^2*x2^2 + 2", "x1*x2", "x2^2"), ["1"], 2),
        # x2^2 = x1 modulo the second generator, so x2 * x1^2*x2 gives x1^3
        (
            2,
            ("x1^2*x2^2", "x1 + x2^2", "x1^2*x2"),
            ["1*x2^2 + 1*x1^1", "1*x1^2*x2^1", "1*x1^3"],
            3,
        ),
    ],
)
def test_chain_criterion_keeps_pairs_with_equal_lcm(p, gens, want, pairs):
    # an old pair whose lcm equals the lcm of one of its members with the
    # new lead must stay; dropping it too loses the last basis element
    gens = [parse_poly(s, p, 2) for s in gens]
    gb = buchberger(gens, DEGREVLEX)
    assert [g.format(DEGREVLEX) for g in gb] == want
    assert gb == tuple_buchberger(gens, DEGREVLEX)
    with pytest.raises(BudgetExceededError):
        buchberger(gens, DEGREVLEX, budget=pairs - 1)
    buchberger(gens, DEGREVLEX, budget=pairs)


# -- the certified memberships ---------------------------------------------------------


def _claim_ideal_gens():
    p0, p1, p2, p3 = pairing_ideal(7, power=2)
    return [p0 + p3 * 2, p1, p2]


@pytest.mark.slow
def test_vanishing_sum_membership_claim():
    assert verify_groebner_claim() == "pass"


def test_claim_ideal_is_proper():
    gb = buchberger(_claim_ideal_gens(), DEGREVLEX, budget=10**6)
    one = SparsePoly.const(7, 6, 1)
    assert not gb_reduce(one, gb, DEGREVLEX).is_zero()


@pytest.mark.slow
def test_char2_membership():
    from mdskit.multipoly import verify_char2_membership

    assert verify_char2_membership() is True


@pytest.mark.slow
def test_char2_dropped_factor_remainder_reported():
    # with one factor removed, membership is not asserted either way: the
    # remainder is computed factor by factor, reported through its size,
    # and must be a fixed point of reduction
    from mdskit.multipoly import pairing_ideal as pi

    p = 2
    gens = list(pi(p, power=3))
    gb = buchberger(gens, DEGREVLEX, budget=10**6)
    factors = [
        V(p, i) + V(p, j) for i, j in itertools.combinations(range(6), 2)
    ] + [
        V(p, i) + V(p, j) + V(p, k)
        for i, j, k in itertools.combinations(range(6), 3)
    ]
    rem = _reduce_product(factors[1:], gb, DEGREVLEX)
    assert gb_reduce(rem, gb, DEGREVLEX) == rem
    # the normal form is unique: another factor order reduces to it again
    assert _reduce_product(factors[:0:-1], gb, DEGREVLEX) == rem
    # proper ideal: the constant does not reduce away
    assert not gb_reduce(SparsePoly.const(p, 6, 1), gb, DEGREVLEX).is_zero()
