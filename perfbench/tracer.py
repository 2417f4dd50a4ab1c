"""Span tracer for the benchmark's traced run.

The tracer wraps mdskit's public functions from outside the package: every
module that binds a traced function, by definition or by ``from .x import
y``, gets the wrapper.  Each call of a wrapped function is a span (name,
start, end, parent, job).  A span's self time is its duration minus the time
its children cover.  Hot operators (FieldElement ``*``, ``+``/``-`` and
``inverse``; SparsePoly ``*``) are too frequent for spans; they only count
calls and time, and that time counts as covered in the enclosing span.

Spans are kept in memory up to ``span_cap`` rows and written out at the end;
the per-name aggregates cover every call whether or not its row was kept.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function): traced as spans
TRACED = [
    ("fields", "find_irreducible"),
    ("fields", "poly_is_irreducible"),
    ("linalg", "det"),
    ("linalg", "rref"),
    ("linalg", "subspace_intersection_dim"),
    ("linalg", "block_mds_matrix"),
    ("codes", "generically_zero"),
    ("codes", "generic_intersection_dim"),
    ("codes", "parse_code"),
    ("codes", "format_code"),
    ("mdscheck", "is_mds"),
    ("mdscheck", "is_mds_ell"),
    ("mdscheck", "is_mds3_rs_fast"),
    ("mdscheck", "exhaustive_code_search"),
    ("multipoly", "buchberger"),
    ("multipoly", "gb_reduce"),
    ("constructions", "construct"),
    ("constructions", "greedy_sidon"),
    ("applications", "mr_check"),
    ("applications", "ld_mds_check"),
    ("applications", "worst_case_ld_check"),
    ("applications", "duality_test"),
    ("cli", "main"),
]

# (module, class, methods, counter name): counted, not spanned.  __rsub__ is
# left alone because it calls the wrapped __sub__.
HOT = [
    ("fields", "FieldElement", ("__mul__", "__rmul__"), "fields.mul"),
    ("fields", "FieldElement", ("__add__", "__radd__", "__sub__"), "fields.addsub"),
    ("fields", "FieldElement", ("inverse",), "fields.inverse"),
    ("multipoly", "SparsePoly", ("__mul__", "__rmul__"), "multipoly.SparsePoly.mul"),
]


class Tracer:
    """Records spans and hot-operator counters for one process."""

    def __init__(self, clock=time.perf_counter, span_cap=100_000):
        self.clock = clock
        self.span_cap = span_cap
        self.spans = []  # [name, start, end, parent row or -1, job]
        self.stack = []  # open frames: [name, start, covered, row or -1]
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.hot = {}  # counter name -> [calls, total_s]
        self.counts = {}  # named work counts filled by the hooks
        self.inside = {}  # name -> open frames of that name
        self.dropped = 0
        self.job = None
        self._job_self = 0.0
        self._job_top = 0.0

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job):
        self.job = job
        self._job_self = 0.0
        self._job_top = 0.0

    def end_job(self, wall):
        """Close the job; returns (self time in spans and hot operators,
        time outside any span).  Together they make up ``wall``."""
        if self.stack:
            raise RuntimeError(f"job {self.job} ended inside span {self.stack[-1][0]}")
        self.job = None
        return self._job_self, wall - self._job_top

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, hook=None):
        """Wrap fn so that every call is a span; hook(tracer, args, result)."""
        clock, stack, spans, inside = self.clock, self.stack, self.spans, self.inside
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        inside.setdefault(name, 0)

        def traced(*args, **kwargs):
            row = -1
            if len(spans) < self.span_cap:
                row = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][3] if stack else -1, self.job])
            else:
                self.dropped += 1
            frame = [name, 0.0, 0.0, row]
            stack.append(frame)
            inside[name] += 1
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inside[name] -= 1
                dur = end - start
                own = dur - frame[2]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                self._job_self += own
                if stack:
                    stack[-1][2] += dur
                else:
                    self._job_top += dur
                if row >= 0:
                    spans[row][1] = start
                    spans[row][2] = end
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Wrap a hot operator: calls and time, no span."""
        clock, stack = self.clock, self.stack
        cell = self.hot.setdefault(name, [0, 0.0])

        def counted(*args):
            start = clock()
            result = fn(*args)
            dur = clock() - start
            cell[0] += 1
            cell[1] += dur
            self._job_self += dur
            if stack:
                stack[-1][2] += dur
            else:
                self._job_top += dur
            return result

        counted.__wrapped__ = fn
        return counted

    # -- output -------------------------------------------------------------

    def write(self, path):
        """One JSON array per span: [id, name, start, end, parent, job]."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, job]) + "\n")


# -- hooks: work counts measured where the work happens ---------------------------


def _det(tr, args, result):
    tr.count("linalg.det.order_sum", args[0].nrows)


def _poly_is_irreducible(tr, args, result):
    if tr.inside["fields.find_irreducible"]:
        tr.count("fields.find_irreducible.candidates")


def _generically_zero(tr, args, result):
    tr.count("codes.generically_zero.pass", bool(result))
    if tr.inside["mdscheck.is_mds_ell"]:
        tr.count("mdscheck.is_mds_ell.enumerated")
        tr.count("mdscheck.is_mds_ell.evaluated", bool(result))


def _report_tuples(name):
    def hook(tr, args, result):
        tr.count(name, result.tuples)

    return hook


def _search(tr, args, result):
    tr.count("mdscheck.exhaustive_code_search.candidates", result.candidates)
    tr.count("mdscheck.exhaustive_code_search.hits", result.count)


def _buchberger(tr, args, result):
    tr.count("multipoly.buchberger.basis_size", len(result))


def _gb_reduce(tr, args, result):
    tr.count("multipoly.gb_reduce.in_terms", len(args[0].terms))
    tr.count("multipoly.gb_reduce.out_terms", len(result.terms))


HOOKS = {
    "linalg.det": _det,
    "fields.poly_is_irreducible": _poly_is_irreducible,
    "codes.generically_zero": _generically_zero,
    "mdscheck.is_mds_ell": _report_tuples("mdscheck.is_mds_ell.tuples"),
    "mdscheck.is_mds3_rs_fast": _report_tuples("mdscheck.is_mds3_rs_fast.tuples"),
    "mdscheck.exhaustive_code_search": _search,
    "multipoly.buchberger": _buchberger,
    "multipoly.gb_reduce": _gb_reduce,
    "applications.ld_mds_check": _report_tuples("applications.ld_mds_check.vectors"),
    "applications.worst_case_ld_check": _report_tuples("applications.worst_case_ld_check.swept"),
}


def install(tracer, package="mdskit"):
    """Wrap every traced function in every loaded module of the package that
    binds it, and the hot operators on their classes.  Returns the patches,
    each (target, attribute, original, wrapper), for ``switch``."""
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    wrappers = {}
    for mod_name, attr in TRACED:
        orig = getattr(sys.modules[f"{package}.{mod_name}"], attr)
        name = f"{mod_name}.{attr}"
        wrappers[id(orig)] = (orig, tracer.span(name, orig, HOOKS.get(name)))
    patches = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((mod, attr, value, hit[1]))
    for mod_name, cls_name, methods, name in HOT:
        cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
        done = {}
        for meth in methods:
            orig = vars(cls)[meth]
            if id(orig) not in done:
                done[id(orig)] = tracer.counter(name, orig)
            patches.append((cls, meth, orig, done[id(orig)]))
    switch(patches, True)
    return patches


def switch(patches, on):
    """Bind every patched name to its wrapper (on) or back to the original."""
    for target, attr, orig, wrapper in patches:
        setattr(target, attr, wrapper if on else orig)
