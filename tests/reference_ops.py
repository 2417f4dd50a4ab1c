"""Test backends and reference kernels.

FieldOps is an elimination backend whose entries are FieldElements.  It
computes with FieldElement arithmetic, independently of the integer and
level backends that ``field_ops`` picks, so the tests compare every
backend's elimination and polynomial arithmetic against it.  CountingOps
wraps any backend and counts its calls, so the tests can pin the work an
algorithm does.

ben_or_per_round and rs_k3_sweep are the plain forms of two certification
kernels, one gcd per Ben-Or round and one dict-memoized pass over the
pairings, which the tests compare the library's shortcuts against.
"""

import itertools
import operator

from mdskit.fields import Packing, _p_gcd, _p_mulmod, _p_trim, _power, field_ops
from mdskit.mdscheck import _pairings_of_six


class FieldOps:
    """Entries are FieldElements of one field."""

    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def __init__(self, field):
        self.zero, self.one = field.zero, field.one

    @staticmethod
    def encode(a):
        return a

    decode = encode

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def sub_multiple(row, top, f, start):
        out = row[:]
        for j in range(start, len(row)):
            b = top[j]
            if b:  # a zero in the pivot row leaves the entry as it is
                out[j] = row[j] - f * b
        return out

    @staticmethod
    def scale(row, c, start):
        out = row[:]
        for j in range(start, len(row)):
            if row[j]:
                out[j] = c * row[j]
        return out


class CountingOps:
    """Wraps a backend and counts the calls of its field and row
    operations; every other attribute is the backend's own."""

    COUNTED = ("mul", "inv", "scale", "sub_multiple")

    def __init__(self, ops):
        self._ops = ops
        self.calls = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            setattr(self, name, self._counted(name, getattr(ops, name)))

    def _counted(self, name, fn):
        def call(*args):
            self.calls[name] += 1
            return fn(*args)

        return call

    def __getattr__(self, name):
        return getattr(self._ops, name)


def p_powmod(ops, a, e, tail):
    """a^e (e >= 1) modulo the monic polynomial with this tail."""
    return _power(lambda u, v: _p_mulmod(ops, u, v, tail), a, e)


def ben_or_per_round(field, coeffs):
    """Ben-Or's test with one gcd(x^(q^i) - x, f) per round i <= d/2, over
    packed residues on a prime field and ``_p_mulmod`` otherwise."""
    ops = field_ops(field)
    f = _p_trim([ops.encode(c) for c in coeffs])
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    tail = ops.scale(f[:-1], ops.inv(f[-1]), 0)
    f = tail + [ops.one]
    x = [ops.zero, ops.one] + [ops.zero] * (d - 2)
    q = field.order
    if field.D == 1:
        k = Packing(field.p, tail)
        h = k.pack(x)
        step = lambda u: _power(k.mul, u, q)  # noqa: E731
        residue = lambda u: list(k.unpack(u))  # noqa: E731
    else:
        h, residue = x, list
        step = lambda u: p_powmod(ops, u, q, tail)  # noqa: E731
    for _ in range(d // 2):
        h = step(h)
        if len(_p_gcd(ops, f, ops.sub_multiple(residue(h), x, ops.one, 1))) != 1:
            return False
    return True


def rs_k3_sweep(code):
    """The k = 3 pairing sweep of an RS code: (ok, pairings examined, the
    first failing pairing or None, determinants evaluated)."""
    ops = field_ops(code.field)
    mul, one, n, gens = ops.mul, ops.one, code.n, code.generators
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    enc = [ops.encode(g) for g in gens]
    sp = [[ops.encode(gens[a] + gens[b]), mul(enc[a], enc[b])] for a, b in pairs]
    deltas = {}

    def delta(i, j):
        got = deltas.get((i, j))
        if got is None:
            got = deltas[(i, j)] = ops.sub_multiple(sp[j], sp[i], one, 0)
        return got

    count = 0
    for six in itertools.combinations(range(n), 6):
        for pairing in _pairings_of_six(six):
            count += 1
            i = index[pairing[0]]
            ds2, dp2 = delta(i, index[pairing[1]])
            ds3, dp3 = delta(i, index[pairing[2]])
            if mul(ds2, dp3) == mul(ds3, dp2):
                return False, count, pairing, count
    return True, count, None, count
