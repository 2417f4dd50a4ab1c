"""Finite fields and extension towers with exact arithmetic.

A field is either a prime field GF(p) or an extension of another field by a
monic irreducible polynomial, so towers of arbitrary depth are built one
level at a time.  An element is a dense tuple of base-p coefficients in
reduced normal form, ordered mixed-radix with the bottom tower level varying
fastest; the top level therefore sees an element as contiguous blocks over
the field one level down.

Four arithmetic backends serve every computation on lists of field
elements, here and in :mod:`mdskit.linalg`; :func:`field_ops` picks one from
the field alone, builds it once and keeps it on the FieldSpec:

* :class:`TableOps` computes with a small field's canonical indices through
  lookup tables; it serves every field of order at most
  :data:`TABLE_ORDER_LIMIT`, prime or not;
* :class:`ModPOps` computes with ints modulo a prime; it serves every larger
  prime field;
* :class:`PackedOps` computes with Kronecker-packed ints, one fixed-width
  slot per coefficient, so that a product is one int multiply followed by a
  fold with x^(D+j) mod f and a per-slot reduction mod p; it serves every
  larger single-level extension of a prime field;
* :class:`LevelOps` computes with an extension level's elements as
  polynomials over the level below, in the base field's backend: a product
  is a multiply modulo the minimal polynomial, an inverse extended Euclid
  modulo it.  Zero coefficients are skipped, which keeps sparse elements of
  the deep binomial towers cheap.  It serves the larger multi-level towers,
  and the FieldElement product and inverse of every extension level.

Each has an ``encode``/``decode`` pair to and from FieldElements, two row
operations (subtract a multiple of one list from another, scale a list)
and multiply, negate and inverse.  A polynomial over a field is a list of
coefficients in its backend's encoding, and all polynomial arithmetic runs
through those operations: the product and inverse of a tower level and
the irreducibility test.

Irreducibility of a supplied minimal polynomial is verified at construction
time.  Over small fields Ben-Or's test is used: gcd(x^(q^i) - x, f) = 1 for
every i up to half the degree, with i = 1 decided by a root test on a field
with index tables and the later i in doubling blocks, one gcd per block.
Over a prime field the powers x^(p^i) mod f are Kronecker-packed residues
(:class:`Packing`, built from p and f), so a square-and-multiply step is
one int product; over an extension base they are polynomial products
through the base field's backend.  The gcds run through the backend in
both cases.  Binomial levels x^d - g are additionally recognized as tower
steps of a composed binomial y^t - c over the small field at the bottom of
the chain, and certified through the classical criterion for
irreducibility of binomials; that is the only verification that stays
affordable once the field below is itself astronomically large.
"""

from __future__ import annotations

import itertools
import operator
import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetExceededError,
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    NotPrimeError,
    ReduciblePolynomialError,
    SizeConstraintError,
)

__all__ = [
    "FieldSpec",
    "FieldElement",
    "field_make",
    "find_irreducible",
    "poly_is_irreducible",
    "frobenius",
    "is_prime",
    "prime_factors",
    "prime_power",
    "field_of_order",
    "format_field",
    "parse_field",
    "format_element",
    "parse_element",
    "LevelOps",
    "TableOps",
    "ModPOps",
    "PackedOps",
    "TABLE_ORDER_LIMIT",
    "field_ops",
]

# deterministic witness set for Miller-Rabin below 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# generic gcd-based irreducibility testing is refused above this field size
_GENERIC_TEST_BITS = 128

# Fields up to this order, prime or not, get lookup tables.  Building them
# costs about q FieldElement multiplications and a few q^2 list lookups, once
# per FieldSpec: measured 0.5 ms at q = 9, 3.6 ms at 49, 3.9 ms at 64, 7 ms
# at 81 and 33 ms at 256, against 8-29 ms for one 12 x 12 determinant over
# FieldElements at those orders (2-core x86-64 Linux, Python 3.11).  The
# q^2 cost grows past the work of a budgeted sweep: 0.20 s and 64 MB at
# q = 1009, 0.76 s and 186 MB at 2003.
TABLE_ORDER_LIMIT = 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64 (Miller-Rabin)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n in increasing order (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, e) with q = p**e and p prime, or None when q is not a prime power."""
    ps = prime_factors(q) if q >= 2 else []
    if len(ps) != 1:
        return None
    p, e = ps[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def _binomial_irreducible(q: int, e: int, t: int) -> bool:
    # x^t - c irreducible over GF(q) iff every prime r | t satisfies
    # r | e and r does not divide (q-1)/e, where e = ord(c); and if 4 | t
    # then q = 1 mod 4.
    cofactor = (q - 1) // e
    for r in prime_factors(t):
        if e % r != 0 or cofactor % r == 0:
            return False
    if t % 4 == 0 and q % 4 != 1:
        return False
    return True


class FieldElement:
    """An element of a FieldSpec, held as a dense coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FieldSpec", coeffs: Tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            f = self.field
            g = other.field
            if f is not g and f._sig != g._sig:
                raise FieldMismatchError(
                    f"elements of {f!r} and {g!r} cannot be combined"
                )
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)),
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        if not f.dims:
            return FieldElement(f, (self.coeffs[0] * o.coeffs[0] % f.p,))
        ops = f._level()
        return ops.decode(ops.mul(ops.encode(self), ops.encode(o)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "FieldElement":
        f = self.field
        if not any(self.coeffs):
            raise DivisionByZeroError(f"zero has no inverse in {f!r}")
        if not f.dims:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        ops = f._level()
        return ops.decode(ops.inv(ops.encode(self)))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return _power(operator.mul, self, e) if e else self.field.one

    def _prime_value(self) -> Optional[int]:
        # the representative in 0..p-1 when the element lies in the prime field
        c = self.coeffs
        return None if any(c[1:]) else c[0]

    def __eq__(self, other) -> bool:
        # an int n is equal only to the prime-field element whose
        # representative is n itself (0 <= n < p), so that hashes agree
        if isinstance(other, int):
            return self._prime_value() == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.field is other.field or self.field._sig == other.field._sig
        ) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        n = self._prime_value()
        if n is not None:
            return hash(n)
        return hash((self.field._sig_hash, self.coeffs))

    def to_int(self) -> int:
        """Canonical index: base-p digits, lowest coefficient least significant."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.field!r}>"


class FieldSpec:
    """A prime field or one extension level of a tower.

    Do not call the constructor directly; use :func:`field_make`, or
    :meth:`FieldSpec.extend` on an existing field.
    """

    def __init__(
        self,
        p: int,
        base: Optional["FieldSpec"],
        degree: int,
        mod_tail: Optional[Tuple[Tuple[int, ...], ...]],
        chain: Optional[tuple],
    ):
        self.p = p
        self.base = base
        self.degree = degree          # extension degree over base (1 for prime)
        self.mod_tail = mod_tail      # low d coefficients of the monic minpoly
        self._chain = chain           # (anchor, c_coeffs, ord_c, composed_deg)
        if base is None:
            self.D = 1
            self.dims: Tuple[int, ...] = ()
            self.strides: Tuple[int, ...] = ()
        else:
            self.D = base.D * degree
            self.dims = base.dims + (degree,)
            self.strides = base.strides + (base.D,)
        self._sig = self._signature()
        self._sig_hash = hash(self._sig)
        self._order: Optional[int] = None
        self._level_ops: Optional[LevelOps] = None
        self._ops = None
        self.zero = FieldElement(self, (0,) * self.D)
        one = [0] * self.D
        one[0] = 1
        self.one = FieldElement(self, tuple(one))

    # -- identity -----------------------------------------------------------

    def _signature(self):
        tails = []
        f: Optional[FieldSpec] = self
        while f is not None and f.base is not None:
            tails.append((f.degree, f.mod_tail))
            f = f.base
        return (self.p, tuple(reversed(tails)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self is other or self._sig == other._sig

    def __hash__(self) -> int:
        return self._sig_hash

    def __repr__(self) -> str:
        if self.D == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.D})"

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.p ** self.D
        return self._order

    def order_bits(self) -> float:
        """Approximate log2 of the field order, cheap even for deep towers."""
        return self.D * self.p.bit_length()

    def tower(self) -> List["FieldSpec"]:
        """All levels bottom-up, starting at the prime field, ending at self."""
        out = []
        f: Optional[FieldSpec] = self
        while f is not None:
            out.append(f)
            f = f.base
        return out[::-1]

    # -- element construction -------------------------------------------------

    def element(self, value: Union[int, Sequence[int], FieldElement]) -> FieldElement:
        """Make an element: int means an integer constant (image of Z), a
        sequence of length D means raw base-p coefficients."""
        if isinstance(value, FieldElement):
            if value.field is self or value.field._sig == self._sig:
                return value
            return self.lift(value)
        if isinstance(value, int):
            c = [0] * self.D
            c[0] = value % self.p
            return FieldElement(self, tuple(c))
        coeffs = tuple(int(v) % self.p for v in value)
        if len(coeffs) != self.D:
            raise DegreeMismatchError(
                f"expected {self.D} coefficients, got {len(coeffs)}"
            )
        return FieldElement(self, coeffs)

    def from_int(self, n: int) -> FieldElement:
        """Element with canonical index n (base-p digits), 0 <= n < order."""
        if n < 0:
            raise ValueError("canonical index must be nonnegative")
        digits = []
        for _ in range(self.D):
            n, r = divmod(n, self.p)
            digits.append(r)
        if n:
            raise ValueError("canonical index out of range")
        return FieldElement(self, tuple(digits))

    def elements(self) -> Iterator[FieldElement]:
        """Enumerate the whole field in canonical index order (small fields)."""
        if self.order_bits() > 32:
            raise BudgetExceededError(f"refusing to enumerate {self!r}")
        for n in range(self.order):
            yield self.from_int(n)

    def lift(self, elem: FieldElement) -> FieldElement:
        """Embed an element of a lower tower level into this field."""
        sub = elem.field
        if len(sub.dims) <= len(self.dims) and (
            sub._sig == self.tower()[len(sub.dims)]._sig
        ):
            return FieldElement(self, elem.coeffs + (0,) * (self.D - sub.D))
        raise FieldMismatchError(f"{sub!r} is not a level of {self!r}")

    def gen(self, level: Optional[int] = None) -> FieldElement:
        """The adjoined generator of the given extension level (default: top)."""
        if not self.dims:
            raise DegreeMismatchError("prime field has no extension generator")
        idx = self.strides[-1 if level is None else level]
        c = [0] * self.D
        c[idx] = 1
        return FieldElement(self, tuple(c))

    def random_element(self, rng) -> FieldElement:
        return FieldElement(
            self, tuple(rng.randrange(self.p) for _ in range(self.D))
        )

    # -- arithmetic kernels ---------------------------------------------------

    def _level(self) -> "LevelOps":
        """The backend of this extension level, as polynomials over the
        level below, built on first use."""
        if self._level_ops is None:
            self._level_ops = LevelOps(self)
        return self._level_ops

    # -- extension ------------------------------------------------------------

    def extend(
        self,
        degree: int,
        minpoly: Optional[Sequence] = None,
    ) -> "FieldSpec":
        """Extend by a monic irreducible polynomial of the given degree.

        minpoly lists all degree+1 coefficients low-to-high; entries may be
        ints (integer constants) or elements of this field.  When omitted,
        the lexicographically smallest monic irreducible is found and used.
        Irreducibility is always verified; binomial tower steps x^d - g are
        certified through the composed-binomial criterion, everything else
        through the gcd test (refused over astronomically large fields).
        """
        if degree < 1:
            raise DegreeMismatchError("extension degree must be at least 1")
        if minpoly is None:
            coeffs = find_irreducible(self, degree)
        else:
            coeffs = [self.element(v) for v in minpoly]
            if len(coeffs) != degree + 1:
                raise DegreeMismatchError(
                    f"need {degree + 1} coefficients for degree {degree}, "
                    f"got {len(coeffs)}"
                )
            if coeffs[-1] != self.one:
                raise DegreeMismatchError("minimal polynomial must be monic")
        chain = self._binomial_chain(coeffs, degree)
        # find_irreducible already ran the generic test on what it found
        if chain is None and minpoly is not None:
            if self.order_bits() > _GENERIC_TEST_BITS:
                raise BudgetExceededError(
                    f"generic irreducibility test over {self!r} is infeasible; "
                    "use binomial tower steps"
                )
            if not poly_is_irreducible(self, coeffs):
                raise ReduciblePolynomialError(
                    f"supplied degree-{degree} polynomial is reducible over {self!r}"
                )
        return FieldSpec(
            self.p, self, degree, tuple(e.coeffs for e in coeffs[:-1]), chain
        )

    def _binomial_chain(self, coeffs: List[FieldElement], degree: int):
        """Chain metadata (anchor, c_coeffs, ord_c, composed_deg) of a
        binomial x^degree - g, certified by the classical criterion for
        binomials, or None when the polynomial is not a binomial.

        Over a small field the binomial is its own chain; over a larger one
        g must be the generator of a certified binomial tower, which
        composes to one binomial over that tower's anchor.  Raises
        ReduciblePolynomialError when the criterion fails, and
        BudgetExceededError when neither case applies.
        """
        tail = coeffs[:-1]
        if degree < 2 or not tail[0] or any(tail[1:]):
            return None
        g = -tail[0]
        if self.order_bits() <= _GENERIC_TEST_BITS:
            anchor, c0, e, t = self, g.coeffs, _mult_order(g), degree
        elif self._chain is not None and g.coeffs == self.gen().coeffs:
            anchor, c0, e, t = self._chain
            t *= degree
        else:
            raise BudgetExceededError(
                f"cannot verify a binomial over {self!r}: the constant is "
                "not the generator of a certified binomial tower"
            )
        if not _binomial_irreducible(anchor.order, e, t):
            raise ReduciblePolynomialError(
                f"binomial of composed degree {t} over {anchor!r} is reducible"
            )
        return (anchor, c0, e, t)


class Packing:
    """Residues modulo a monic f of degree D > 1 over GF(p), as
    Kronecker-packed ints.

    The residue c_0 + c_1 x + ... + c_{D-1} x^(D-1) is the int
    sum c_i 2^(w i) with every c_i in 0..p-1, so the encoding is canonical
    and zero is 0.  A product of two residues has 2D - 1 slots of at most
    D (p-1)^2; folding its D - 1 high slots back with ``fold[j]``, the packed
    x^(D+j) mod f, adds at most (D-1)(p-1)^2 to a low slot, and adding a
    third residue at most p - 1 more.  The slot width w holds that bound,
    rounded up to 8, 16, 32 or 64 bits when it fits, so that ``struct``
    splits and joins the slots in one call.

    Nothing here needs f to be irreducible.  A single-level extension of a
    prime field computes through it (see :class:`PackedOps`), and so does
    Ben-Or's test over a prime field, for the products of x^(p^i) mod f.
    """

    __slots__ = (
        "p", "shift", "lo_bytes", "hi_bytes", "mask", "fold", "modulus",
        "split_lo", "split_hi", "join",
    )

    def __init__(self, p: int, tail: Sequence[int]):
        # tail: the D low coefficients of f, in 0..p-1
        d = len(tail)
        assert d > 1
        self.p = p
        bound = (2 * d - 1) * (p - 1) ** 2 + p - 1
        bits = bound.bit_length()
        nbytes = next((s for s in (1, 2, 4, 8) if 8 * s >= bits), -(-bits // 8))
        if nbytes <= 8:
            code = {1: "B", 2: "H", 4: "I", 8: "Q"}[nbytes]
            lo, hi = struct.Struct(f"<{d}{code}"), struct.Struct(f"<{d - 1}{code}")
            self.split_lo, self.split_hi, self.join = lo.unpack, hi.unpack, lo.pack
        else:
            self.split_lo = self.split_hi = _byte_slots(nbytes)
            self.join = lambda *cs: b"".join(c.to_bytes(nbytes, "little") for c in cs)
        self.lo_bytes, self.hi_bytes = d * nbytes, (d - 1) * nbytes
        self.shift = 8 * self.lo_bytes
        self.mask = (1 << self.shift) - 1
        # x^D = -tail, then x^(D+j+1) = x * x^(D+j) reduced the same way
        self.modulus = list(tail) + [1]
        power = [-c % p for c in tail]
        fold = []
        for _ in range(d - 1):
            fold.append(power)
            top = power[-1]
            power = [(low - top * c) % p for low, c in zip([0] + power[:-1], tail)]
        self.fold = [self.pack(pw) for pw in fold]

    def pack(self, cs: Sequence[int]) -> int:
        """The packed int of D coefficients in 0..p-1, lowest first."""
        return int.from_bytes(self.join(*cs), "little")

    def unpack(self, a: int) -> Tuple[int, ...]:
        """The D coefficients of a packed residue, lowest first."""
        return self.split_lo(a.to_bytes(self.lo_bytes, "little"))

    def mul(self, a: int, b: int) -> int:
        """The packed residue of a * b."""
        return self.reduce(a * b)

    def reduce(self, x: int) -> int:
        """The packed residue of x: up to 2D - 1 nonnegative slots within
        the bound above, such as a product of two packed residues."""
        p = self.p
        hi = x >> self.shift
        if hi:
            hs = [h % p for h in self.split_hi(hi.to_bytes(self.hi_bytes, "little"))]
            x = sum(map(operator.mul, hs, self.fold), x & self.mask)
        cs = self.split_lo(x.to_bytes(self.lo_bytes, "little"))
        return int.from_bytes(self.join(*[c % p for c in cs]), "little")


def _byte_slots(nbytes: int):
    def split(b: bytes) -> Tuple[int, ...]:
        return tuple(
            int.from_bytes(b[i : i + nbytes], "little")
            for i in range(0, len(b), nbytes)
        )

    return split


def _mult_order(a: FieldElement) -> int:
    """Order of a in the multiplicative group (field must be small)."""
    if a.is_zero():
        raise DivisionByZeroError("zero has no multiplicative order")
    q1 = a.field.order - 1
    order = q1
    for r in prime_factors(q1):
        while order % r == 0 and (a ** (order // r)) == a.field.one:
            order //= r
    return order


# -- elimination backends ----------------------------------------------------------


class TableOps:
    """Entries are canonical indices of a small field: element i is
    ``field.from_int(i)``, so 0 is zero and 1 is one.  Arithmetic is lookup.

    ``add_table`` and ``mul_table`` are q x q tables, ``neg_table`` and
    ``inv_table`` have q entries (``inv_table[0]`` is a placeholder).  The
    sums are built one base-p digit at a time, lowest first.  Products and
    inverses come from the powers of one generator g of the multiplicative
    group, as g^(log a + log b) and g^(-log a).  Building costs about q field
    multiplications and a few q^2 list lookups.
    """

    zero, one = 0, 1
    encode = staticmethod(FieldElement.to_int)

    def __init__(self, field: FieldSpec):
        els = list(field.elements())
        q, p = len(els), field.p
        add = [[0]]
        for _ in range(field.D):
            # index a is a % p + p * (a // p), and digits add mod p
            m = len(add) * p
            add = [
                [(a + b) % p + p * add[a // p][b // p] for b in range(m)]
                for a in range(m)
            ]
        g = next(a for a in els[1:] if _mult_order(a) == q - 1)
        power, log = [], [0] * q
        x = field.one
        for i in range(q - 1):
            n = x.to_int()
            power.append(n)
            log[n] = i
            x = x * g
        twice, logs = power + power, log[1:]
        self.add_table = add
        self.mul_table = [[0] * q] + [[0] + [twice[i + j] for j in logs] for i in logs]
        self.neg_table = [(-a).to_int() for a in els]
        self.inv_table = [0] + [power[-i] for i in logs]
        self.neg, self.inv = self.neg_table.__getitem__, self.inv_table.__getitem__
        self.decode = field.from_int

    def mul(self, a, b):
        return self.mul_table[a][b]

    def sub_multiple(self, row, top, f, start):
        add, times = self.add_table, self.mul_table[self.neg_table[f]]
        out = row[:]
        for j in range(start, len(row)):
            b = top[j]
            if b:
                out[j] = add[row[j]][times[b]]
        return out

    def scale(self, row, c, start):
        times = self.mul_table[c]
        out = row[:]
        for j in range(start, len(row)):
            out[j] = times[row[j]]
        return out


class ModPOps:
    """Entries are ints modulo the prime p of ``field``, a prime field, kept
    in 0..p-1."""

    zero, one = 0, 1
    encode = staticmethod(FieldElement.to_int)

    def __init__(self, field: FieldSpec):
        self.p = field.p
        self.field = field

    def decode(self, a):
        return FieldElement(self.field, (a,))

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def sub_multiple(self, row, top, f, start):
        p = self.p
        out = row[:]
        for j in range(start, len(row)):
            b = top[j]
            if b:
                out[j] = (row[j] - f * b) % p
        return out

    def scale(self, row, c, start):
        p = self.p
        out = row[:]
        for j in range(start, len(row)):
            out[j] = c * row[j] % p
        return out


class PackedOps:
    """Entries are Kronecker-packed ints of a single-level extension of a
    prime field (see :class:`Packing`): a product is one int multiply
    followed by one fold and one pass of per-slot reduction mod p."""

    zero, one = 0, 1

    def __init__(self, field: FieldSpec):
        self.field = field
        self.p = field.p
        k = Packing(field.p, [t[0] for t in field.mod_tail])
        self.pack, self.unpack, self.mul = k.pack, k.unpack, k.mul
        self._reduce = k.reduce
        self.base, self.modulus = field_ops(field.base), k.modulus

    def encode(self, a: FieldElement) -> int:
        return self.pack(a.coeffs)

    def decode(self, a: int) -> FieldElement:
        return FieldElement(self.field, self.unpack(a))

    def neg(self, a):
        p = self.p
        return self.pack([-c % p for c in self.unpack(a)])

    def inv(self, a):
        # extended Euclid modulo the minimal polynomial, on ints mod p
        cs = list(self.unpack(a))
        u = _poly_inverse_mod(self.base, cs, self.modulus)
        return self.pack(u + [0] * (len(cs) - len(u)))

    def sub_multiple(self, row, top, f, start):
        # row - f * top as row + (-f) * top, reduced once per entry
        nf = self.neg(f)
        red = self._reduce
        out = row[:]
        for j in range(start, len(row)):
            b = top[j]
            if b:
                out[j] = red(row[j] + nf * b)
        return out

    def scale(self, row, c, start):
        red = self._reduce
        out = row[:]
        for j in range(start, len(row)):
            out[j] = red(c * row[j])
        return out


class LevelOps:
    """Entries are elements of one extension level, as polynomials over the
    level below: the tuple of the ``degree`` coefficients, lowest first, in
    the encoding of the base field's backend, and () for zero.  A product
    is a multiply modulo the minimal polynomial and an inverse is extended
    Euclid modulo it, both through the base backend.

    ``encode`` converts only the nonzero blocks, so an element with one
    nonzero block per level of a deep binomial chain costs one base
    ``encode`` per level."""

    zero = ()

    def __init__(self, field: FieldSpec):
        self.field = field
        self.base = base = field_ops(field.base)
        self._zero_row = (base.zero,) * field.degree
        self.one = (base.one,) + self._zero_row[1:]
        self.minus_one = (base.neg(base.one),) + self._zero_row[1:]
        self.tail = [base.encode(FieldElement(field.base, t)) for t in field.mod_tail]

    def encode(self, a: FieldElement) -> tuple:
        c, sub = a.coeffs, self.field.base
        s, enc, zero = sub.D, self.base.encode, self.base.zero
        out = []
        for j in range(0, len(c), s):
            block = c[j : j + s]
            out.append(enc(FieldElement(sub, block)) if any(block) else zero)
        return tuple(out) if any(out) else ()

    def decode(self, a: tuple) -> FieldElement:
        if not a:
            return self.field.zero
        dec, zero = self.base.decode, self.field.base.zero.coeffs
        blocks = (dec(b).coeffs if b else zero for b in a)
        return FieldElement(self.field, tuple(itertools.chain.from_iterable(blocks)))

    def mul(self, a, b):
        if not a or not b:
            return ()
        # a factor of one or minus one needs no product through the levels
        one, minus_one = self.one, self.minus_one
        if a == one:
            return b
        if b == one:
            return a
        if a == minus_one:
            return self.neg(b)
        if b == minus_one:
            return self.neg(a)
        # in a field a product of nonzero elements is nonzero, so never ()
        return tuple(_p_mulmod(self.base, a, b, self.tail))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def inv(self, a):
        u = _poly_inverse_mod(self.base, a, self.tail + [self.base.one])
        return tuple(u) + self._zero_row[len(u) :]

    def sub_multiple(self, row, top, f, start):
        # each product modulo the minimal polynomial, then subtracted
        # coefficient by coefficient over the base
        base, mul = self.base, self.mul
        out = row[:]
        for j in range(start, len(row)):
            prod = mul(f, top[j])
            if prod:
                d = list(row[j] or self._zero_row)
                d = base.sub_multiple(d, prod, base.one, 0)
                out[j] = tuple(d) if any(d) else ()
        return out

    def scale(self, row, c, start):
        mul = self.mul
        out = row[:]
        for j in range(start, len(row)):
            out[j] = mul(c, row[j])
        return out


def field_ops(field: FieldSpec):
    """The backend for entries of this field, built on first use and kept
    on the FieldSpec: index tables for a field of order at most
    TABLE_ORDER_LIMIT, ints mod p for a larger prime field, packed ints for
    a larger single-level extension of a prime field, and polynomials over
    the level below for the larger multi-level towers."""
    if field._ops is None:
        # the order is at least 2^D, so testing D first keeps p ** D from
        # being computed for a deep tower
        small = field.D < TABLE_ORDER_LIMIT.bit_length()
        if small and field.order <= TABLE_ORDER_LIMIT:
            field._ops = TableOps(field)
        elif field.D == 1:
            field._ops = ModPOps(field)
        elif len(field.dims) == 1:
            field._ops = PackedOps(field)
        else:
            field._ops = field._level()
    return field._ops


# -- polynomial arithmetic over a field, through a backend -----------------------------
#
# A polynomial is a list of coefficients in a backend's encoding, lowest
# degree first, trimmed so that its last entry is nonzero (zero is []).
# Residues modulo a monic polynomial of degree d are instead padded to
# length d; the monic modulus is given by its d low coefficients, its tail.


def _p_trim(pol: list) -> list:
    while pol and not pol[-1]:
        pol.pop()
    return pol


def _p_submul(ops, a: list, q: list, b: list) -> list:
    """a - q*b."""
    lb = len(b)
    out = a + [ops.zero] * (len(q) + lb - 1 - len(a))
    for i, c in enumerate(q):
        if c:
            out[i : i + lb] = ops.sub_multiple(out[i : i + lb], b, c, 0)
    return _p_trim(out)


def _p_divmod(ops, a: list, b: list) -> Tuple[list, list]:
    """Quotient and remainder of a by a nonzero trimmed b."""
    db = len(b) - 1
    lead_inv = ops.inv(b[-1])
    r = _p_trim(list(a))
    q = [ops.zero] * max(0, len(r) - db)
    while len(r) > db:
        shift = len(r) - 1 - db
        f = q[shift] = ops.mul(r[-1], lead_inv)
        r[shift:] = ops.sub_multiple(r[shift:], b, f, 0)
        if r[-1]:
            # a wrong inverse would otherwise repeat this step forever
            raise DegreeMismatchError(
                "a division step left the leading coefficient in place: "
                "the backend's inverse is wrong"
            )
        _p_trim(r)
    return q, r


def _p_gcd(ops, a: list, b: list) -> list:
    a, b = _p_trim(list(a)), _p_trim(list(b))
    while b:
        a, b = b, _p_divmod(ops, a, b)[1]
    return a


def _p_mulmod(ops, a: list, b: list, tail: list) -> list:
    """a*b modulo the monic polynomial with this tail (Horner on a)."""
    zero = ops.zero
    out = [zero] * len(tail)
    for c in reversed(a):
        top = out[-1]
        out = [zero] + out[:-1]
        if top:  # x^d = -tail
            out = ops.sub_multiple(out, tail, top, 0)
        if c:
            out = ops.sub_multiple(out, b, ops.neg(c), 0)
    return out


def _power(mul, a, e: int):
    """a^e (e >= 1) by square-and-multiply with the product mul."""
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def _poly_inverse_mod(ops, a: list, modulus: list) -> list:
    """Inverse of a modulo an irreducible polynomial (extended Euclid)."""
    r0, s0 = _p_trim(list(modulus)), []
    r1, s1 = _p_trim(list(a)), [ops.one]
    if not r1:
        raise DivisionByZeroError("zero has no inverse")
    while len(r1) > 1:
        q, rem = _p_divmod(ops, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _p_submul(ops, s0, q, s1)
        if not r1:
            raise ReduciblePolynomialError(
                "element shares a factor with the modulus"
            )
    return ops.scale(s1, ops.inv(r1[0]), 0)


def _has_root(ops: TableOps, tail: list) -> bool:
    """Whether the monic polynomial with this tail vanishes at some element,
    by Horner at every index of a small field."""
    add, rtail = ops.add_table, tail[::-1]
    for times in ops.mul_table:
        v = 1
        for c in rtail:
            v = add[times[v]][c]
        if not v:
            return True
    return False


def poly_is_irreducible(field: FieldSpec, coeffs: Sequence[FieldElement]) -> bool:
    """Ben-Or's test: f of degree d is irreducible over GF(q) iff
    gcd(x^(q^i) - x, f) = 1 for all 1 <= i <= d/2.  coeffs run low-to-high;
    f is made monic first, and a polynomial of degree < 1 is not irreducible.

    Two shortcuts decide exactly what the rounds one by one decide:

    * Round 1 is a root test on a field with index tables
      (:class:`TableOps`): x^q - x is the product of x - a over all a in
      GF(q), so gcd(x^q - x, f) = 1 iff f has no root, and Horner at the q
      points decides it without powering or a gcd.  Without a root, f of
      degree 2 or 3 is irreducible.  A larger field runs round 1 as a gcd.
    * Rounds 2, 3-4, 5-8, ... are doubling blocks, each decided by one gcd
      of f with the product of its residues x^(q^i) - x mod f.  Every
      irreducible factor of f is prime, so it divides the product iff it
      divides one residue: the gcd is 1 iff every round's gcd is.  A zero
      product gives gcd f, and so reducible, as a zero residue does.

    x^(q^i) mod f comes from x^(q^(i-1)) by square-and-multiply.  Over a
    prime field each product is one int multiply of packed residues modulo
    f (:class:`Packing`); over an extension field it is ``_p_mulmod``
    through ``field_ops(field)``.  The gcd runs through ``field_ops(field)``
    either way."""
    ops = field_ops(field)
    f = _p_trim([ops.encode(c) for c in coeffs])
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    tail = ops.scale(f[:-1], ops.inv(f[-1]), 0)
    rooted = isinstance(ops, TableOps)
    if rooted:
        if _has_root(ops, tail):
            return False
        if d <= 3:
            return True
    f = tail + [ops.one]
    x = [ops.zero, ops.one] + [ops.zero] * (d - 2)
    q = field.order
    if field.D == 1:
        # residues as packed ints: a product is one int multiply and a fold
        k = Packing(field.p, tail)
        mul, h = k.mul, k.pack(x)
        neg_x = k.pack([0, field.p - 1] + [0] * (d - 2))
        less_x = lambda u: k.reduce(u + neg_x)  # noqa: E731
        residue = lambda u: list(k.unpack(u))  # noqa: E731
    else:
        h, residue = x, list
        mul = lambda u, v: _p_mulmod(ops, u, v, tail)  # noqa: E731
        less_x = lambda u: ops.sub_multiple(u, x, ops.one, 1)  # noqa: E731
    h = _power(mul, h, q)
    if not rooted and len(_p_gcd(ops, f, residue(less_x(h)))) != 1:
        return False
    end = 1
    while end < d // 2:
        start, end = end + 1, min(2 * end, d // 2)
        h = _power(mul, h, q)
        prod = less_x(h)
        for _ in range(start, end):
            h = _power(mul, h, q)
            prod = mul(prod, less_x(h))
        if len(_p_gcd(ops, f, residue(prod))) != 1:
            return False
    return True


def find_irreducible(field: FieldSpec, degree: int) -> List[FieldElement]:
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are ordered by the tuple
    (c_0, c_1, ..., c_{d-1}) under the canonical element order, constant
    term most significant.  Returns all degree+1 coefficients low-to-high.
    """
    if degree < 1:
        raise DegreeMismatchError("degree must be at least 1")
    if field.order_bits() > _GENERIC_TEST_BITS:
        raise BudgetExceededError(f"refusing irreducible search over {field!r}")
    one = field.one
    if degree == 1:
        return [field.zero, one]
    q = field.order
    # constant term 0 would make the polynomial divisible by x
    for c0_idx in range(1, q):
        c0 = field.from_int(c0_idx)
        for rest in itertools.product(range(q), repeat=degree - 1):
            coeffs = [c0] + [field.from_int(i) for i in rest] + [one]
            if poly_is_irreducible(field, coeffs):
                return coeffs
    raise ReduciblePolynomialError(
        f"no irreducible of degree {degree} over {field!r}"
    )  # unreachable: irreducibles exist over every finite field


def field_make(p: int, extensions: Sequence = ()) -> FieldSpec:
    """Build GF(p), then apply extension levels bottom-up.

    Each entry of extensions is either an int degree (the smallest monic
    irreducible of that degree is found and used) or a pair
    (degree, minpoly-coefficients).
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    f = FieldSpec(p, None, 1, None, None)
    for ext in extensions:
        if isinstance(ext, int):
            f = f.extend(ext)
        else:
            degree, poly = ext
            f = f.extend(degree, poly)
    return f


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q = p^e: GF(p), extended by the smallest monic
    irreducible of degree e when e > 1."""
    pp = prime_power(q)
    if pp is None:
        raise NotPrimeError(f"{q} is not a prime power")
    p, e = pp
    return field_make(p, [e] if e > 1 else [])


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power Frobenius map."""
    return a ** a.field.p


def extend_binomial_chain(
    field: FieldSpec, c: FieldElement, degree: int, levels: int
) -> FieldSpec:
    """Stack `levels` binomial extensions x^degree - (previous generator),
    anchored at x^degree - c over a small field.  Every level is certified
    through the composed-binomial criterion."""
    f = field
    g = field.element(c)
    for _ in range(levels):
        f = f.extend(degree, [-g] + [f.zero] * (degree - 1) + [f.one])
        g = f.gen()
    return f


# -- serialization ------------------------------------------------------------


def format_field(field: FieldSpec) -> str:
    """Multi-line text form: a `field p=` line then one `ext` line per level.

    Each ext line flattens the full monic minimal polynomial (degree+1
    coefficients low-to-high, each itself a base-p coefficient block of the
    level below) into one comma-separated integer list.
    """
    lines = [f"field p={field.p}"]
    for level in field.tower()[1:]:
        assert level.mod_tail is not None
        flat: List[str] = []
        for coeff in level.mod_tail:
            flat.extend(str(v) for v in coeff)
        base = level.base
        assert base is not None
        lead = [0] * base.D
        lead[0] = 1
        flat.extend(str(v) for v in lead)
        lines.append(f"ext d={level.degree} poly={','.join(flat)}")
    return "\n".join(lines) + "\n"


def _key_values(line: str, keys: Sequence[str]) -> Dict[str, str]:
    """The key=value items after a line's first word: exactly keys, each
    once, so a misspelt, repeated or extra key is refused, not ignored."""
    items = line.split()[1:]
    out = dict(kv.split("=", 1) for kv in items if "=" in kv)
    if len(out) != len(items) or sorted(out) != sorted(keys):
        raise ValueError(f"{line!r} needs exactly the keys {', '.join(keys)}")
    return out


def parse_field(text: str) -> FieldSpec:
    """Inverse of format_field; re-verifies every level on load."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "field":
        raise ValueError("field text must start with a `field p=` line")
    p = int(_key_values(lines[0], ("p",))["p"])
    f = field_make(p)
    for ln in lines[1:]:
        if ln.split()[0] != "ext":
            raise ValueError(f"unexpected line in field text: {ln!r}")
        parts = _key_values(ln, ("d", "poly"))
        d = int(parts["d"])
        flat = _parse_digits(parts["poly"], p)
        if len(flat) != (d + 1) * f.D:
            raise DegreeMismatchError(
                f"ext line needs {(d + 1) * f.D} integers, got {len(flat)}"
            )
        coeffs = [
            FieldElement(f, tuple(flat[j * f.D : (j + 1) * f.D]))
            for j in range(d + 1)
        ]
        f = f.extend(d, coeffs)
    return f


def format_element(a: FieldElement) -> str:
    return ",".join(str(v) for v in a.coeffs)


def _parse_digits(text: str, p: int) -> List[int]:
    # base-p coefficients; anything outside 0..p-1 is refused, not reduced,
    # so the callers build FieldElements from them as they are
    vals = [int(v) for v in text.strip().split(",")]
    for v in vals:
        if not 0 <= v < p:
            raise SizeConstraintError(f"coefficient {v} is outside 0..{p - 1}")
    return vals


def parse_element(field: FieldSpec, text: str) -> FieldElement:
    vals = _parse_digits(text, field.p)
    if len(vals) != field.D:
        raise DegreeMismatchError(
            f"element of {field!r} needs {field.D} coefficients, got {len(vals)}"
        )
    return FieldElement(field, tuple(vals))
