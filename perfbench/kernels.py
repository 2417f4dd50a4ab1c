"""Kernel sheet: FieldElement multiply and inverse per field shape, and det
per order, each the median of several timed repetitions on seeded inputs.

Field shapes: GF(13) and GF(3^2) feed the oracle workload; GF(11^4) (the
k3-n4 field at n=10,11) and GF(67^25) (the k5-weak field at n=8) feed the
family workload.
"""

from __future__ import annotations

import random
import statistics
import time

from jobs import mk

# name -> (field text, operations per timed repetition, about 10 ms each)
FIELDS = {
    "gf13": ("field p=13\n", 8000),
    "gf9": ("field p=3\next d=2 poly=1,0,1\n", 800),
    "gf11e4": ("field p=11\next d=4 poly=1,0,0,4,1\n", 200),
    "gf67e25": ("field p=67\next d=25 poly=1" + ",0" * 23 + ",27,1\n", 8),
}
DET_FIELDS = ("gf13", "gf9")
DET_ORDERS = (6, 9, 12)
REPS = 7


def _nonzero(field, rng):
    while True:
        a = field.from_int(rng.randrange(field.order))
        if not a.is_zero():
            return a


def _per_op_us(fn, pairs):
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((time.perf_counter() - start) / len(pairs) * 1e6)
    return statistics.median(times)


def measure(seed):
    """Every kernel metric as {name: value}."""
    rng = random.Random(f"kernels:{seed}")
    fields = {name: mk.parse_field(text) for name, (text, _) in FIELDS.items()}
    out = {}
    for name, field in fields.items():
        pairs = [(_nonzero(field, rng), _nonzero(field, rng)) for _ in range(FIELDS[name][1])]
        out[f"fields.mul_us.{name}"] = _per_op_us(lambda a, b: a * b, pairs)
        out[f"fields.inverse_us.{name}"] = _per_op_us(lambda a, b: a.inverse(), pairs)
    for name in DET_FIELDS:
        field = fields[name]
        for order in DET_ORDERS:
            mats = [
                mk.MatrixF(field, [[_nonzero(field, rng) for _ in range(order)] for _ in range(order)])
                for _ in range(REPS)
            ]
            times = []
            for m in mats:
                start = time.perf_counter()
                mk.det(m)
                times.append((time.perf_counter() - start) * 1e3)
            out[f"linalg.det_ms.{name}.{order}"] = statistics.median(times)
    return out
