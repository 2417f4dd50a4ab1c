"""FieldOps: an elimination backend whose entries are FieldElements.

It computes with FieldElement arithmetic, independently of the integer
and level backends that ``field_ops`` picks, so the tests compare every
backend's elimination and polynomial arithmetic against it.
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
