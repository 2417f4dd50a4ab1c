"""Test backends.

FieldOps is an elimination backend whose entries are FieldElements.  It
computes with FieldElement arithmetic, independently of the integer and
level backends that ``field_ops`` picks, so the tests compare every
backend's elimination and polynomial arithmetic against it.  CountingOps
wraps any backend and counts its calls, so the tests can pin the work an
algorithm does.
"""

import operator


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
