"""Speed probe: a short fixed pure-Python workload that does not import mdskit,
sampled all through a worker's run to scale its times to one machine speed.

The host's speed drifts while a run lasts.  A job takes up to a third longer
while the machine is busy than while it is quiet, the state changes several
times a second, and the share of busy time differs from one minute to the
next, so two runs of the same code can differ by 25%.  The probe does the
kinds of work mdskit's time goes to (arithmetic on small field-element
objects, Gaussian elimination over them, multiplying sparse dict polynomials,
enumerating tuples with table lookups), so it slows down with the machine in
the same proportion as mdskit's jobs.

A ``Sampler`` runs the probe from a SIGALRM handler after every
``interval_s`` of work, also in the middle of a job, and keeps the time it
spends there off its own clock: ``clock()`` and ``cpu()`` read wall and CPU
time less the time spent in the probe.  run.py then scales each job's time
by ``NOMINAL_MS`` over the mean of the samples taken while the job ran.
The code under test never runs inside the probe, so a change to mdskit moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import itertools
import random
import signal
import time

# About the probe's median time on the 2-vCPU machine the baseline was
# measured on, while that machine was quiet; scaled times are the times the
# jobs take at that speed.
NOMINAL_MS = 1.0
INTERVAL_S = 0.025

_P = 13  # GF(13^2) = GF(13)[x] / (x^2 - 2); 2 is not a square mod 13


class _Elt:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, o):
        a0, a1 = self.c
        b0, b1 = o.c
        return _Elt(((a0 * b0 + 2 * a1 * b1) % _P, (a0 * b1 + a1 * b0) % _P))

    def __sub__(self, o):
        return _Elt(tuple((x - y) % _P for x, y in zip(self.c, o.c)))

    def inverse(self):
        a0, a1 = self.c
        n = pow((a0 * a0 - 2 * a1 * a1) % _P, _P - 2, _P)
        return _Elt((a0 * n % _P, -a1 * n % _P))


def _rank(rows):
    m = [[_Elt(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if any(m[r][col].c)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col].inverse()
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _poly_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = (out.get(e, 0) + ca * cb) % 7
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _tuple_count(rows, table):
    hits = 0
    for cols in itertools.combinations(range(len(rows[0])), 3):
        a, b, c = ([row[j] for j in cols] for row in rows)
        d = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
             + a[2] * (b[0] * c[1] - b[1] * c[0]))
        hits += table[d % 5]
    return hits


class Probe:
    """The probe's fixed inputs, and one timed run of it."""

    def __init__(self):
        rng = random.Random(0)
        self.matrix = tuple(tuple((rng.randrange(_P), rng.randrange(_P)) for _ in range(7))
                            for _ in range(7))
        self.polys = [{tuple(rng.randrange(4) for _ in range(4)): rng.randrange(1, 7)
                       for _ in range(10)} for _ in range(2)]
        self.rows = tuple(tuple(rng.randrange(5) for _ in range(9)) for _ in range(3))

    def run(self):
        return (_rank(self.matrix) + len(_poly_mul(*self.polys))
                + _tuple_count(self.rows, (0, 1, 1, 1, 1)))

    def sample_ms(self):
        """One timed run in milliseconds, with the garbage collector off, so
        that a collection the code under test left pending does not land in
        the probe; the probe leaves no cyclic garbage behind."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.run()
            return (time.perf_counter() - start) * 1e3
        finally:
            if enabled:
                gc.enable()


class Sampler:
    """Samples the probe after every ``interval_s`` of work, from SIGALRM."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.probe = Probe()
        self.samples = []  # (clock() when the sample was taken, probe ms)
        self.spent = 0.0  # wall seconds spent in the handler
        self.spent_cpu = 0.0  # CPU seconds spent in the handler

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        entered, cpu = time.perf_counter(), time.process_time()
        self.samples.append((entered - self.spent, self.probe.sample_ms()))
        self.spent_cpu += time.process_time() - cpu
        self.spent += time.perf_counter() - entered
        # one-shot and re-armed here, so the handler never runs inside itself
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def clock(self):
        """perf_counter() less the time spent in the probe."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample was taken in between
                return now - spent

    def cpu(self):
        """process_time() less the CPU time spent in the probe."""
        while True:
            spent = self.spent_cpu
            now = time.process_time()
            if spent == self.spent_cpu:
                return now - spent
