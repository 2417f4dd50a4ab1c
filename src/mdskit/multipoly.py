"""Sparse multivariate polynomials over prime fields.

Provides exact ring arithmetic, lex/degrevlex monomial orders, the
symbolic expansion of the three-row pairing determinant in a degree-one
twist parameter, multivariate division, and Buchberger's algorithm with
Gebauer-Moeller pair pruning.  Everything here works coefficient-exactly
over F_p; evaluation may land in any extension of F_p.

`SparsePoly` keeps its terms in a dict keyed by exponent tuples.  Division
(`gb_reduce`) and Buchberger (`buchberger`) pack each monomial into one int
for the chosen order (`MonomialOrder.packing`) on entry and unpack on exit:
comparing, multiplying and dividing monomials there are int comparison,
addition and one subtract-and-mask, and the working heaps hold plain ints.

A packing is shared per (order, arity, field width), and a `SparsePoly` is
immutable, so each polynomial memoizes its degree and its packed divisor per
packing: a basis is packed once, on its first `gb_reduce`, not on every call.
The division kernel (`_reduce`) keeps its working coefficients unreduced and
reduces a term mod p only when it is popped, in the manner of Monagan and
Pearce's heap division; every monomial it adds lies below the one just
popped, so each enters the heap at most once and no entry goes stale."""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    CharacteristicMismatchError,
    DegreeMismatchError,
    DegreeTooHighError,
    EvenCharacteristicError,
    NotPrimeError,
    WrongKindError,
)
from .fields import FieldElement, is_prime

__all__ = [
    "MonomialOrder",
    "SparsePoly",
    "parse_poly",
    "gamma_expand_det3",
    "verify_claim_q_identity",
    "verify_groebner_claim",
    "verify_char2_membership",
    "buchberger",
    "gb_reduce",
    "pairing_ideal",
    "PAIR_DIFFERENCE_SET",
]

Exp = Tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """lex or degrevlex over x1, ..., xv, with x1 the most significant.  It
    owns the packed encoding that gb_reduce and buchberger run on
    (`packing`)."""

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex"):
            raise WrongKindError(f"unknown monomial order {self.kind!r}")

    def key(self, exp: Exp):
        """Comparable key; larger key means larger monomial."""
        if self.kind == "lex":
            return exp
        return (sum(exp), tuple(-x for x in reversed(exp)))

    def packing(self, v: int, cap: int) -> "MonomialPacking":
        """The packing of monomials in v variables whose exponents and total
        degree are at most `cap` (rounded up to one less than a power of
        two); one shared object per order, v and field width."""
        return _packing(self, v, max(cap, 0).bit_length() + 1)


@functools.lru_cache(maxsize=64)
def _packing(order: MonomialOrder, v: int, bits: int) -> "MonomialPacking":
    return MonomialPacking(order, v, (1 << (bits - 1)) - 1)


class MonomialPacking:
    """Monomials of one order and arity as single ints.

    Every field is `bits` wide and its top bit is a guard that a valid
    monomial keeps clear, so a field holds 0..cap with cap = 2**(bits-1)-1.
    For an exponent vector e = (e_0, ..., e_{v-1}):

    - lex: field v-1-i holds e_i, so e_0 is most significant;
    - degrevlex: field v holds the total degree and field i holds
      cap - e_i, so the int is base + deg*W**v - sum e_i*W**i (W =
      2**bits), ordered by the key (deg, -e_{v-1}, ..., -e_0).

    Either way a monomial is base + sum e_i*units[i], so int order is the
    monomial order, the product of a and b is a + b - base, and a divides b
    iff (b - a + base) & mask == 0.  A product of two valid monomials that
    exceeds cap anywhere sets a guard bit: that is how overflow shows.
    """

    __slots__ = ("cap", "units", "base", "mask", "_shifts", "_flip")

    def __init__(self, order: MonomialOrder, v: int, cap: int):
        bits = max(cap, 0).bit_length() + 1
        self.cap = cap = (1 << (bits - 1)) - 1
        if order.kind == "lex":
            fields, self.base, self._flip = v, 0, 0
            self._shifts = tuple(bits * (v - 1 - i) for i in range(v))
            self.units = tuple(1 << s for s in self._shifts)
        else:
            fields, self._flip = v + 1, cap
            self.base = sum(cap << (bits * i) for i in range(v))
            self._shifts = tuple(bits * i for i in range(v))
            self.units = tuple((1 << (bits * v)) - (1 << s) for s in self._shifts)
        self.mask = sum((cap + 1) << (bits * k) for k in range(fields))

    def encode(self, exp: Exp) -> int:
        """Pack an exponent vector within cap; a product of two such
        vectors may exceed it, and then sets a guard bit."""
        return self.base + sum(map(operator.mul, exp, self.units))

    def decode(self, m: int) -> Exp:
        # cap - x == cap ^ x for 0 <= x <= cap
        cap, flip = self.cap, self._flip
        return tuple(((m >> s) & cap) ^ flip for s in self._shifts)

    def encode_terms(self, terms: Dict[Exp, int]) -> Dict[int, int]:
        return {self.encode(e): c for e, c in terms.items()}

    def decode_terms(self, terms: Dict[int, int]) -> Dict[Exp, int]:
        return {self.decode(m): c for m, c in terms.items()}


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class SparsePoly:
    """Polynomial over F_p in v variables, term dict exp -> coeff.

    A SparsePoly is immutable: every operation returns a new one and nothing
    changes `terms` in place.  That is what lets it memoize, in `_memo`, its
    degree and its packed divisor per packing; the memo takes no part in
    equality, hashing or printing."""

    __slots__ = ("p", "v", "terms", "_memo")

    def __init__(self, p: int, v: int, terms: Optional[Dict[Exp, int]] = None):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        self.v = v
        clean: Dict[Exp, int] = {}
        if terms:
            for exp, c in terms.items():
                c %= p
                if c:
                    if len(exp) != v:
                        raise ArityMismatchError(
                            f"exponent vector of length {len(exp)}, expected {v}"
                        )
                    if exp and min(exp) < 0:
                        raise DegreeMismatchError(f"negative exponent in {exp!r}")
                    clean[tuple(exp)] = c
        self.terms = clean
        self._memo = None

    # constructors

    @classmethod
    def _from_clean(cls, p: int, v: int, terms: Dict[Exp, int]) -> "SparsePoly":
        """Wrap a term dict that arithmetic on valid polynomials produced
        (nonnegative exponent tuples of length v, coefficients 1..p-1),
        skipping the validation that __init__ gives outside input."""
        out = cls.__new__(cls)
        out.p, out.v, out.terms, out._memo = p, v, terms, None
        return out

    @classmethod
    def zero(cls, p: int, v: int) -> "SparsePoly":
        return cls(p, v)

    @classmethod
    def const(cls, p: int, v: int, c: int) -> "SparsePoly":
        return cls(p, v, {tuple([0] * v): c})

    @classmethod
    def variable(cls, p: int, v: int, i: int) -> "SparsePoly":
        if not 0 <= i < v:
            raise ArityMismatchError(f"variable index {i} out of range")
        e = [0] * v
        e[i] = 1
        return cls(p, v, {tuple(e): 1})

    # helpers

    def _check(self, other: "SparsePoly"):
        if self.p != other.p:
            raise CharacteristicMismatchError(
                f"characteristics {self.p} and {other.p}"
            )
        if self.v != other.v:
            raise ArityMismatchError(f"arities {self.v} and {other.v}")

    def is_zero(self) -> bool:
        return not self.terms

    def _memoized(self, key, make):
        """The memo entry for `key` (the degree, or a packing's divisor),
        made by `make()` on first use."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def degree(self) -> int:
        return self._memoized(
            "degree", lambda: max((sum(e) for e in self.terms), default=0)
        )

    def var_degree(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def lead(self, order: MonomialOrder = DEGREVLEX) -> Tuple[Exp, int]:
        if not self.terms:
            raise DegreeMismatchError("the zero polynomial has no lead term")
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    # arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            other = SparsePoly.const(self.p, self.v, other)
        elif not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePoly._from_clean(p, self.v, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._from_clean(
            self.p, self.v, {e: self.p - c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = SparsePoly.const(self.p, self.v, other)
        elif not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.p
            return SparsePoly(
                self.p, self.v, {e: (x * c) % self.p for e, x in self.terms.items()}
            )
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        p = self.p
        out: Dict[Exp, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePoly._from_clean(p, self.v, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DegreeMismatchError(f"negative power {n}")
        result = SparsePoly.const(self.p, self.v, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.p == other.p and self.v == other.v and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.v, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SparsePoly(p={self.p}, {self.format()})"

    def eval(self, point: Sequence) -> Union[int, FieldElement]:
        """Evaluate at a point of F_p (plain ints) or any extension
        (FieldElements of a field with the same characteristic)."""
        if len(point) != self.v:
            raise ArityMismatchError(
                f"point of length {len(point)}, expected {self.v}"
            )
        if point and isinstance(point[0], FieldElement):
            field = point[0].field
            if field.p != self.p:
                raise CharacteristicMismatchError(
                    f"field characteristic {field.p}, polynomial {self.p}"
                )
            pows: Dict[Tuple[int, int], FieldElement] = {}

            def power(i, e):
                got = pows.get((i, e))
                if got is None:
                    got = point[i] ** e
                    pows[(i, e)] = got
                return got

            total = field.zero
            for exp, c in self.terms.items():
                term = field.from_int(c)
                for i, e in enumerate(exp):
                    if e:
                        term = term * power(i, e)
                total = total + term
            return total
        total = 0
        for exp, c in self.terms.items():
            t = c
            for i, e in enumerate(exp):
                if e:
                    t = (t * pow(int(point[i]), e, self.p)) % self.p
            total = (total + t) % self.p
        return total

    # text format

    def format(self, order: MonomialOrder = DEGREVLEX) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[exp]
            factors = [str(c)]
            for i, e in enumerate(exp):
                if e:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def parse_poly(text: str, p: int, v: int) -> SparsePoly:
    """Parse the `c*x1^e1*...` format; coefficients may be any integers
    (reduced mod p), exponents ^1 may be omitted."""
    terms: Dict[Exp, int] = {}
    text = text.strip()
    if text in ("", "0"):
        return SparsePoly.zero(p, v)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        exp = [0] * v
        coeff = 1
        seen_coeff = False
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                if "^" in factor:
                    name, e = factor.split("^")
                else:
                    name, e = factor, "1"
                idx = int(name[1:]) - 1
                if not 0 <= idx < v:
                    raise ArityMismatchError(f"variable {name} out of range")
                exp[idx] += int(e)
            else:
                coeff = coeff * int(factor)
                seen_coeff = True
        if not seen_coeff and all(e == 0 for e in exp):
            raise WrongKindError(f"cannot parse term {chunk!r}")
        key = tuple(exp)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return SparsePoly(p, v, {e: c for e, c in terms.items() if c})


# -- the gamma-expansion of the pairing determinant ----------------------------------


def gamma_expand_det3(
    betas: Sequence[SparsePoly],
) -> Tuple[SparsePoly, SparsePoly, SparsePoly, SparsePoly]:
    """Expand det[(1, b_i+b_j, b_i*b_j)] rows (1,2),(3,4),(5,6) in the last
    variable (the twist parameter) and return its four coefficient
    polynomials, each with one fewer variable.

    Every beta must have degree <= 1 in the last variable.
    """
    if len(betas) != 6:
        raise ArityMismatchError("need exactly six slot polynomials")
    v = betas[0].v
    p = betas[0].p
    for b in betas:
        betas[0]._check(b)
        if b.var_degree(v - 1) > 1:
            raise DegreeTooHighError(
                "slot polynomial has twist degree above one"
            )
    s = []
    pr = []
    for i, j in ((0, 1), (2, 3), (4, 5)):
        s.append(betas[i] + betas[j])
        pr.append(betas[i] * betas[j])
    # det of rows (1, s_r, pr_r), expanded along the all-ones column
    d = (
        s[1] * pr[2]
        - s[2] * pr[1]
        - s[0] * pr[2]
        + s[2] * pr[0]
        + s[0] * pr[1]
        - s[1] * pr[0]
    )
    out: List[Dict[Exp, int]] = [{}, {}, {}, {}]
    for exp, c in d.terms.items():
        gdeg = exp[-1]
        if gdeg > 3:
            raise DegreeTooHighError("twist degree above three in expansion")
        out[gdeg][exp[:-1]] = c
    return tuple(SparsePoly(p, v - 1, t) for t in out)  # type: ignore[return-value]


# -- transcribed certificate data ------------------------------------------------------

# pairs whose differences form the certified product, 1-based as printed
PAIR_DIFFERENCE_SET = (
    (3, 6),
    (2, 4),
    (2, 6),
    (3, 5),
    (4, 5),
    (4, 6),
    (2, 5),
    (2, 3),
)


def _load_certificate_text() -> Dict[str, str]:
    data = (
        resources.files("mdskit").joinpath("data/q_certificate.txt").read_text()
    )
    out = {}
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, expr = line.split("=", 1)
        out[name.strip()] = expr.strip()
    return out


def certificate_polys(p: int) -> Dict[str, SparsePoly]:
    """The transcribed combiner polynomials reduced mod p: g, two_q0, and
    the derived q0, q2, q3 (the latter need odd characteristic)."""
    raw = _load_certificate_text()
    g = parse_poly(raw["g"], p, 6)
    two_q0 = parse_poly(raw["two_q0"], p, 6)
    out = {"g": g, "two_q0": two_q0}
    if p % 2 != 0:
        inv2 = pow(2, -1, p)
        x2 = SparsePoly.variable(p, 6, 1)
        out["q0"] = two_q0 * inv2
        out["q2"] = x2 * g
        out["q3"] = g * (p - inv2)
    return out


def _twist_slots(p: int, power: int) -> List[SparsePoly]:
    """The six slot polynomials x_i + t*x_i^power in seven variables,
    t being the last."""
    t = SparsePoly.variable(p, 7, 6)
    out = []
    for i in range(6):
        xi = SparsePoly.variable(p, 7, i)
        out.append(xi + t * xi**power)
    return out


def pairing_ideal(p: int, power: int = 2) -> Tuple[SparsePoly, ...]:
    """The four twist coefficients of the pairing determinant for slots
    x_i + t*x_i^power over F_p."""
    return gamma_expand_det3(_twist_slots(p, power))


def verify_claim_q_identity(p: int = 7) -> bool:
    """Check the certified combination h = Q0*p0 + Q2*p2 + Q3*p3 against
    the transcribed combiners, plus the p1 = p0*(x1+...+x6) checksum.

    The identity has integer-over-2 coefficients, so it must hold at every
    odd characteristic.
    """
    if p % 2 == 0:
        raise EvenCharacteristicError("the certificate divides by two")
    p0, p1, p2, p3 = pairing_ideal(p, power=2)
    e1 = SparsePoly.zero(p, 6)
    for i in range(6):
        e1 = e1 + SparsePoly.variable(p, 6, i)
    if p1 != p0 * e1:
        return False
    polys = certificate_polys(p)
    h = SparsePoly.const(p, 6, 1)
    for i, j in PAIR_DIFFERENCE_SET:
        h = h * (
            SparsePoly.variable(p, 6, i - 1) - SparsePoly.variable(p, 6, j - 1)
        )
    combo = polys["q0"] * p0 + polys["q2"] * p2 + polys["q3"] * p3
    return combo == h


# -- multivariate division and Buchberger ----------------------------------------------
#
# Both run on packed monomials (MonomialPacking): a polynomial is a dict from
# packed monomial to coefficient, and a divisor is (lead - base, 1/lc, tail)
# with every tail monomial stored as its offset from the lead, so that one
# int addition moves it under the quotient monomial.


class _Overflow(Exception):
    """A product left the packing's range."""


def _run_packed(order: MonomialOrder, v: int, cap: int, run):
    """(packing, run(packing)) for the packing that holds `cap`, made one
    bit per field wider after each overflow; `run` starts from scratch."""
    pk = order.packing(v, cap)
    while True:
        try:
            return pk, run(pk)
        except _Overflow:
            pk = order.packing(v, 2 * pk.cap + 1)


def _divisor(terms: Dict[int, int], pk: MonomialPacking, p: int):
    lead = max(terms)
    tail = [(m - lead, c) for m, c in terms.items() if m != lead]
    return lead - pk.base, pow(terms[lead], -1, p), tail


def _reduce(work: Dict[int, int], divisors, p: int, mask: int) -> Dict[int, int]:
    """Normal form of the packed polynomial `work` (consumed) modulo the
    divisors, the first divisor whose lead divides a term reducing it.

    Terms are consumed highest-first off a heap of negated packed monomials.
    Coefficients in `work` stay unreduced integers: a term is reduced mod p
    only when it is popped, and dropped if that gives 0.  Every monomial a
    divisor's tail adds lies below the one just popped, so a monomial enters
    the heap once, when it first enters `work`, and every pop is live.
    A new monomial with a guard bit set is an overflow: it is checked where
    it first enters `work`, so no overflowed int ever meets a valid one."""
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder: Dict[int, int] = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m) % p
        if not c:
            continue
        for adj, inv, tail in divisors:
            if not (m - adj) & mask:
                break
        else:
            remainder[m] = c
            continue
        factor = c * inv % p
        for off, gc in tail:
            t = m + off
            old = work.get(t)
            if old is None:
                if t & mask:
                    raise _Overflow
                push(heap, -t)
                work[t] = -factor * gc
            else:
                work[t] = old - factor * gc
    return remainder


def gb_reduce(
    f: SparsePoly, basis: Sequence[SparsePoly], order: MonomialOrder = DEGREVLEX
) -> SparsePoly:
    """Full normal form of f modulo the basis: no remainder term is
    divisible by any basis lead term.

    f is packed for the order in fields that hold the largest total degree
    of f and the basis; a reduction that outgrows them (possible under lex,
    never under degrevlex) starts again one bit per field wider.  Each basis
    polynomial is packed into a divisor once per packing and keeps it in its
    memo, so a basis reused across calls is not packed again."""
    polys = [g for g in basis if not g.is_zero()]
    for g in polys:
        f._check(g)
    p = f.p
    cap = max(g.degree() for g in [f, *polys])

    def run(pk: MonomialPacking) -> Dict[int, int]:
        divisors = [
            g._memoized(pk, lambda: _divisor(pk.encode_terms(g.terms), pk, p))
            for g in polys
        ]
        return _reduce(pk.encode_terms(f.terms), divisors, p, pk.mask)

    pk, remainder = _run_packed(order, f.v, cap, run)
    return SparsePoly._from_clean(p, f.v, pk.decode_terms(remainder))


def buchberger(
    generators: Sequence[SparsePoly],
    order: MonomialOrder = DEGREVLEX,
    budget: int = 10**6,
) -> List[SparsePoly]:
    """Reduced Groebner basis via Buchberger with Gebauer-Moeller pair
    pruning; raises BudgetExceeded when more than `budget` S-pairs get
    processed.

    Runs packed from start to finish, in fields that hold twice the
    generators' largest total degree; an lcm or product that outgrows them
    starts the run again one bit per field wider."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise WrongKindError("need at least one nonzero generator")
    for g in gens:
        gens[0]._check(g)
    p, v = gens[0].p, gens[0].v
    pk, basis = _run_packed(
        order,
        v,
        2 * max(g.degree() for g in gens),
        lambda pk: _buchberger(gens, pk, p, budget),
    )
    return [SparsePoly._from_clean(p, v, pk.decode_terms(g)) for g in basis]


def _buchberger(
    gens: Sequence[SparsePoly], pk: MonomialPacking, p: int, budget: int
) -> List[Dict[int, int]]:
    """The reduced basis as monic packed polynomials sorted by lead; raises
    _Overflow when a monomial outgrows the packing."""
    mask, base = pk.mask, pk.base
    basis: List[Dict[int, int]] = []  # monic packed polynomials
    divisors = []
    leads: List[int] = []
    lead_exps: List[Exp] = []  # the leads unpacked, for lcms
    # heap of (lcm, -serial, i, j): the least lcm first and, among equal
    # lcms, the pair made last
    pairs: List[Tuple[int, int, int, int]] = []
    serial = itertools.count()

    def divides(a: int, b: int) -> bool:
        return not (b - a + base) & mask

    def add_element(h: Dict[int, int]):
        lt_h = max(h)
        inv = pow(h[lt_h], -1, p)
        h = {m: c * inv % p for m, c in h.items()}
        new_idx = len(basis)
        exp_h = pk.decode(lt_h)
        lcms = []
        for e in lead_exps:
            l = pk.encode(tuple(map(max, e, exp_h)))
            if l & mask:
                raise _Overflow
            lcms.append(l)
        # Gebauer-Moeller update of the pair set: drop new pairs whose lcm
        # is properly divisible by another new lcm, keep one pair per lcm,
        # and drop pairs with coprime leads
        by_lcm: Dict[int, int] = {}
        for i, l in enumerate(lcms):
            if l in by_lcm or any(l2 != l and divides(l2, l) for l2 in lcms):
                continue
            by_lcm[l] = i
        new_pairs = [
            (l, i) for l, i in by_lcm.items() if l != leads[i] + lt_h - base
        ]
        # chain criterion on old pairs
        pairs[:] = [
            (l, s, i, j)
            for l, s, i, j in pairs
            if not divides(lt_h, l) or lcms[i] == l or lcms[j] == l
        ]
        heapq.heapify(pairs)
        for l, i in new_pairs:
            heapq.heappush(pairs, (l, -next(serial), i, new_idx))
        basis.append(h)
        divisors.append(_divisor(h, pk, p))
        leads.append(lt_h)
        lead_exps.append(exp_h)

    def s_poly(l: int, i: int, j: int) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for k, sign in ((i, 1), (j, -1)):
            shift = l - leads[k]
            for m, c in basis[k].items():
                if m == leads[k]:
                    continue
                t = m + shift
                if t & mask:
                    raise _Overflow
                s = (out.get(t, 0) + sign * c) % p
                if s:
                    out[t] = s
                else:
                    del out[t]
        return out

    for g in gens:
        r = _reduce(pk.encode_terms(g.terms), divisors, p, mask)
        if r:
            add_element(r)

    processed = 0
    while pairs:
        l, _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budget:
            raise BudgetExceededError(
                f"Buchberger pair budget {budget} exhausted"
            )
        r = _reduce(s_poly(l, i, j), divisors, p, mask)
        if r:
            add_element(r)

    # minimalize: drop elements whose lead is divisible by another lead
    # (of two equal leads the first stays)
    n = len(basis)
    minimal = [
        idx
        for idx in range(n)
        if not any(
            divides(leads[other], leads[idx])
            for other in range(n)
            if other != idx and (leads[other] != leads[idx] or other < idx)
        )
    ]
    # fully reduce each element against the others
    reduced: List[Dict[int, int]] = []
    for idx in minimal:
        others = [divisors[o] for o in minimal if o != idx]
        r = _reduce(dict(basis[idx]), others, p, mask)
        if r:
            inv = pow(r[max(r)], -1, p)
            reduced.append({m: c * inv % p for m, c in r.items()})
    reduced.sort(key=max)
    return reduced


# -- the certified ideal memberships ---------------------------------------------------


def _vandermonde_product(p: int, v: int = 6) -> SparsePoly:
    out = SparsePoly.const(p, v, 1)
    for i, j in itertools.combinations(range(v), 2):
        out = out * (
            SparsePoly.variable(p, v, j) - SparsePoly.variable(p, v, i)
        )
    return out


def verify_groebner_claim(budget: int = 10**6) -> str:
    """Membership of (x1+...+x6) * prod_{i<j}(x_j - x_i) in the ideal
    (p0 + 2*p3, p1, p2) over F_7, the twist cubing to 2.

    Returns "pass", "fail", or "inconclusive" (both monomial orders ran
    out of pair budget).
    """
    p = 7
    p0, p1, p2, p3 = pairing_ideal(p, power=2)
    gens = [p0 + p3 * 2, p1, p2]
    e1 = SparsePoly.zero(p, 6)
    for i in range(6):
        e1 = e1 + SparsePoly.variable(p, 6, i)
    target = e1 * _vandermonde_product(p)
    for order in (DEGREVLEX, LEX):
        try:
            gb = buchberger(gens, order, budget)
        except BudgetExceededError:
            continue
        rem = gb_reduce(target, gb, order)
        return "pass" if rem.is_zero() else "fail"
    return "inconclusive"


def _reduce_product(
    factors: Sequence[SparsePoly],
    basis: Sequence[SparsePoly],
    order: MonomialOrder = DEGREVLEX,
) -> SparsePoly:
    """Normal form of the product of the factors modulo a Groebner basis of
    that order, one factor at a time: NF(a*b) = NF(NF(a)*b) holds exactly
    because the normal form modulo a Groebner basis is unique, and it keeps
    every intermediate reduced instead of expanding the whole product."""
    out = gb_reduce(factors[0], basis, order)
    for f in factors[1:]:
        out = gb_reduce(out * f, basis, order)
    return out


def verify_char2_membership(budget: int = 10**6) -> bool:
    """Membership of prod_{i<j}(x_i+x_j) * prod_{i<j<k}(x_i+x_j+x_k) in
    the ideal of all four twist coefficients over F_2, slots x + t*x^3."""
    p = 2
    gens = list(pairing_ideal(p, power=3))
    x = [SparsePoly.variable(p, 6, i) for i in range(6)]
    factors = [x[i] + x[j] for i, j in itertools.combinations(range(6), 2)]
    factors += [
        x[i] + x[j] + x[k] for i, j, k in itertools.combinations(range(6), 3)
    ]
    gb = buchberger(gens, DEGREVLEX, budget)
    return _reduce_product(factors, gb, DEGREVLEX).is_zero()
