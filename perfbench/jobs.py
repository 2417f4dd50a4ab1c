"""Workloads of the mdskit benchmark: planning, inputs, calls and checks.

A workload runs in passes.  Each pass runs in a fresh interpreter and is a
list of jobs: ``plan`` turns (workload, seed, pass) into plain job
descriptors, ``prepare`` builds their inputs before timing starts,
``run_job`` calls mdskit and ``check_job`` compares the outcome with an
expectation pinned from the seed commit (pool jobs) or with an independent
path through mdskit (generated jobs).

Every pass of a workload has the same make-up; the seed picks the order of
pool jobs and generates the inputs of the others.  mdskit functions are
looked up through the ``mdskit`` package at call time, so the traced run can
replace them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(SRC))
import mdskit as mk  # noqa: E402
import mdskit.cli  # noqa: E402,F401  (mk.cli)

if Path(mk.__file__).resolve().parent != SRC / "mdskit":
    raise ImportError(f"mdskit imported from {mk.__file__}, not from {SRC}")

WORKLOADS = ("family", "oracle", "search", "certify")


# -- pools -----------------------------------------------------------------------

# (member, construct arguments, check arguments).  A job is one member:
# construct --out, then check of that file, both through cli.main.  The
# heavy members of the full family list (k3-n4 n=12,13; k4-general n=9,10;
# k5-weak(5) at degree 12 and 25; k5-weak n=8; general-ell (5,2,3)) take
# 2.5-80 s each at the seed commit and do not fit a pass; k3-n4 n=11 and
# k5-weak(5) at degree 10 repeat the paths of k3-n4 n=10 and of degrees 9, 13.
FAMILY_POOL = [
    (f"k3-n4:n={n}", ["--name", "k3-n4", "--n", str(n)], ["--property", "mds3"])
    for n in range(7, 11)
] + [
    ("k3-n3:n=7", ["--name", "k3-n3", "--n", "7"], ["--property", "mds3"]),
    ("k4-general:n=8", ["--name", "k4-general", "--n", "8"], ["--property", "mds3"]),
] + [
    (
        f"k5-weak:n=5,degree={d}",
        ["--name", "k5-weak", "--n", "5", "--degree", str(d)],
        ["--property", "mds3"],
    )
    for d in (9, 13)
] + [
    (f"k5-weak:n={n}", ["--name", "k5-weak", "--n", str(n)], ["--property", "mds3"])
    for n in (6, 7)
] + [
    (
        "general-ell:n=4,k=2,ell=2",
        ["--name", "general-ell", "--n", "4", "--k", "2", "--ell", "2"],
        ["--property", "mdsell", "--ell", "2"],
    ),
    (
        "general-ell:n=6,k=2,ell=2,degree=8",
        ["--name", "general-ell", "--n", "6", "--k", "2", "--ell", "2", "--degree", "8"],
        ["--property", "mdsell", "--ell", "2"],
    ),
]

# (n, k, q); (6,3,4) and (6,2,5) take 8 s and 15 s at the seed commit and
# are left out.
SEARCH_POOL = [(5, 2, 5), (6, 4, 4), (5, 3, 5)]

ORACLE_FIELDS = (7, 9, 11, 13)

# (q, n, k) of the Reed-Solomon codes in every oracle pass.  The cost of the
# order-3 check is set by the shape, not by the points the seed picks, so a
# fixed list keeps passes alike; the [6, 4] shapes (1.2-4 s each) are left out.
# The four costliest jobs (two each of [7, 4] over GF(9) and [8, 4] over
# GF(11), about 0.8 s each) cost alike and are 4 of the 47 jobs of a pass, so
# the tail percentile falls inside that group; the next costliest job takes
# a fifth of their time.
RS3_SHAPES = [
    (7, 5, 3), (7, 5, 4), (7, 7, 3), (9, 5, 3), (9, 7, 3), (9, 7, 4),
    (9, 7, 4), (9, 8, 2), (11, 5, 4), (11, 8, 3), (11, 8, 4), (11, 8, 4),
    (13, 5, 4), (13, 6, 2), (13, 8, 3),
]

# (q, n, k) of the list-decoding jobs in every search pass.  Over GF(5) and
# GF(7) the codes are generalized Reed-Solomon, whose check cost is set by the
# shape; a random code there costs 1 ms or 300 ms by whether it happens to be
# MDS.  Over GF(2) and GF(3) the codes are random and cost about 1 ms.  The
# repeated shapes put the median job inside a group of jobs of one cost, not
# between two groups of different cost.
DUALITY_SHAPES = [(2, 4, 2), (2, 5, 2), (3, 4, 2), (3, 5, 3)] + [(7, 5, 2)] * 6 + [
    (7, 5, 3), (7, 5, 3), (7, 5, 3), (5, 5, 3)]
AVGWC_SHAPES = [(2, 5, 2), (2, 5, 3), (3, 4, 2), (3, 5, 2)] + [(5, 5, 2)] * 6 + [
    (7, 5, 2), (7, 5, 2)]

# Shapes of the other oracle jobs in every pass; the seed picks the points,
# scalings, set tuples and matrix entries.  Fixed shapes keep the cost of a
# pass and the job at the median alike from seed to seed.
BLOCK_SHAPES = [(11, 3, 7, 3), (13, 3, 7, 3), (13, 4, 8, 3), (9, 2, 5, 3)] * 4  # (q, k, n, ell)
GENERIC_SHAPES = [(7, 3, 2), (8, 4, 2), (5, 2, 3), (6, 3, 3)] * 2  # (n, k, ell)
DUAL3_SHAPES = [(q, 4, 2) for q in ORACLE_FIELDS] * 2  # (q, n, k)
# mr_check jobs per search pass: one passing row code and four failing ones,
# which cost alike and hold the tail job of a pass
MR3_JOBS = 5
# Reduction jobs of every certify pass as (kind, jobs, terms, degree): random
# polynomials of 50 terms (about 20 ms each), ideal members with factors of
# 10 terms (180 ms) and random polynomials of 120 terms (250 ms).  The jobs of
# a group share one set of monomials and the seed draws the coefficients;
# these sizes were picked because their cost varies little with the
# coefficients (smaller members cost 45 or 90 ms by their draw).  With the two
# fixed jobs above them, the group sizes put the median job of a pass in the
# middle of the members and the tail job among the large polynomials, each
# inside a group rather than between two groups of different cost.
REDUCTION_GROUPS = [("normal", 5, 50, 8), ("member", 8, 10, 4), ("normal", 3, 120, 11)]


def pool_keys():
    """Every job key with a pinned expectation."""
    keys = [key for key, _, _ in FAMILY_POOL]
    keys += [f"search:n={n},k={k},q={q}" for n, k, q in SEARCH_POOL]
    keys += ["verify-certificates", "buchberger"]
    return keys


# -- planning (pure Python, no mdskit) ---------------------------------------------


def _random_set_tuple(rng, n, k, ell):
    """ell nonempty sets of sizes <= min(k, n) summing to (ell-1)*k."""
    want = (ell - 1) * k
    cap = min(k, n)
    while True:
        sizes, left = [], want
        for i in range(ell):
            lo = max(1, left - (ell - 1 - i) * cap)
            hi = min(cap, left - (ell - 1 - i))
            if lo > hi:
                break
            s = rng.randint(lo, hi)
            sizes.append(s)
            left -= s
        if len(sizes) == ell and left == 0:
            return [sorted(rng.sample(range(n), s)) for s in sizes]


def _random_code(rng, q, n, k):
    """A full-rank k x n matrix as element indices: [I | X] with its columns
    shuffled, so every [n, k] code can come up."""
    rows = [
        [int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(n - k)]
        for i in range(k)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[perm[j]] for j in range(n)] for row in rows]


def _gen_mr3(rng, index):
    """Criterion 10, tensor part: row code 0 passes, the others fail."""
    if index == 0:
        # generalized Reed-Solomon: MDS(3), so mr passes
        return {"q": 7, "points": rng.sample(range(7), 5), "scale": [rng.randrange(1, 7) for _ in range(5)]}
    # [I | x | e_1]: the last column repeats the first, so the code is not
    # MDS and mr fails.  The repeat sits at a fixed place, so every seed's
    # failing codes stop at the same tuple and cost alike.
    return {"q": 7, "rows": [[int(i == j) for j in range(3)] + [rng.randrange(1, 7), int(i == 0)]
                             for i in range(3)]}


def _gen_code(rng, q, n, k):
    if q >= 5:
        return {"q": q, "k": k, "points": rng.sample(range(q), n), "scale": [rng.randrange(1, q) for _ in range(n)]}
    return {"q": q, "rows": _random_code(rng, q, n, k)}


def _random_poly(rng, shape, nterms, max_deg):
    """nterms terms in 6 variables over GF(7).  The monomials come from the
    fixed shape string and the coefficients from rng: the cost of reducing
    the polynomial is set by its monomials, so it stays alike across seeds."""
    monos = random.Random(shape)
    exps = set()
    while len(exps) < nterms:
        exp = [0] * 6
        for _ in range(monos.randint(0, max_deg)):
            exp[monos.randrange(6)] += 1
        exps.add(tuple(exp))
    return [(exp, rng.randrange(1, 7)) for exp in sorted(exps)]


def plan(workload, seed, pass_no):
    """The job descriptors of one pass; the same arguments give the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    if workload == "family":
        jobs = [
            {"key": key, "kind": "family", "construct": con, "check": chk}
            for key, con, chk in FAMILY_POOL
        ]
    elif workload == "oracle":
        jobs = [  # criterion 9(b)
            {"key": f"rs3#{i}", "kind": "rs3", "q": q, "k": k, "points": rng.sample(range(q), n)}
            for i, (q, n, k) in enumerate(RS3_SHAPES)
        ]
        jobs += [  # criterion 9(a)
            {"key": f"block#{i}", "kind": "block", "q": q, "k": k, "points": rng.sample(range(q), n),
             "scale": [rng.randrange(1, q) for _ in range(n)], "sets": _random_set_tuple(rng, n, k, ell)}
            for i, (q, k, n, ell) in enumerate(BLOCK_SHAPES)
        ]
        jobs += [  # criterion 10, order-3 self-duality
            {"key": f"dual3#{i}", "kind": "dual3", "q": q, "rows": _random_code(rng, q, n, k)}
            for i, (q, n, k) in enumerate(DUAL3_SHAPES)
        ]
        jobs += [  # criterion 9(c)
            {"key": f"generic#{i}", "kind": "generic", "n": n, "k": k, "sets": _random_set_tuple(rng, n, k, ell)}
            for i, (n, k, ell) in enumerate(GENERIC_SHAPES)
        ]
    elif workload == "search":
        jobs = [
            {"key": f"search:n={n},k={k},q={q}", "kind": "search", "nkq": [n, k, q]}
            for n, k, q in SEARCH_POOL
        ]
        jobs += [{"key": f"mr3#{i}", "kind": "mr3", **_gen_mr3(rng, i)} for i in range(MR3_JOBS)]
        for kind, shapes in (("duality", DUALITY_SHAPES), ("avgwc", AVGWC_SHAPES)):
            jobs += [
                {"key": f"{kind}#{i}", "kind": kind, **_gen_code(rng, q, n, k)}
                for i, (q, n, k) in enumerate(shapes)
            ]
        rng.shuffle(jobs)
        # The mr_check jobs go first, the passing row first among them.  The
        # first mr_check fills a generic-family cache of about 100 MB, after
        # which every full garbage collection is slow; every other job of the
        # pass runs after it and pays those pauses, so a change to the cache
        # or to its garbage-collection cost moves every job's time alike.
        jobs.sort(key=lambda job: job["key"] if job["kind"] == "mr3" else "~")
        return jobs
    else:
        # the basis comes first: the reduction jobs of the pass use it
        head = [
            {"key": "verify-certificates", "kind": "certificates"},
            {"key": "buchberger", "kind": "buchberger"},
        ]
        rng.shuffle(head)
        rest = []
        for kind, count, terms, degree in REDUCTION_GROUPS:
            group = f"{kind}{terms}"
            for i in range(count):
                if kind == "member":
                    job = {"factors": [_random_poly(rng, f"{group}.{j}", terms, degree) for j in range(3)]}
                else:
                    job = {"poly": _random_poly(rng, group, terms, degree)}
                rest.append({"key": f"{group}#{i}", "kind": kind, **job})
        rng.shuffle(rest)
        return head + rest
    rng.shuffle(jobs)
    return jobs


# -- inputs ----------------------------------------------------------------------


def _fields():
    return {
        2: mk.field_make(2),
        3: mk.field_make(3),
        5: mk.field_make(5),
        7: mk.field_make(7),
        9: mk.field_make(3, [2]),
        11: mk.field_make(11),
        13: mk.field_make(13),
    }


def _explicit(field, rows):
    return mk.explicit_code(field, [[field.from_int(v) for v in row] for row in rows])


def _scaled_rs(field, job):
    """Generator matrix of a Reed-Solomon code with scaled columns."""
    k = job.get("k", 3)
    code = mk.rs_code(field, [field.from_int(p) for p in job["points"]], k)
    scale = [field.from_int(s) for s in job["scale"]]
    rows = mk.generator_matrix(code).rows
    return mk.MatrixF(field, [[s * e for s, e in zip(scale, row)] for row in rows])


def _sparse(terms):
    return mk.SparsePoly(7, 6, {tuple(e): c for e, c in terms})


def prepare(workload, jobs):
    """Build each job's mdskit inputs; returns the per-pass state."""
    state = {"inputs": {}}
    if workload in ("oracle", "search"):
        state["fields"] = _fields()
    if workload == "certify":
        p0, p1, p2, p3 = mk.pairing_ideal(7, power=2)
        state["generators"] = [p0 + p3 * 2, p1, p2]
    for job in jobs:
        kind = job["kind"]
        field = state["fields"][job["q"]] if "q" in job else None
        if kind == "block":
            inp = (_scaled_rs(field, job), [tuple(a) for a in job["sets"]])
        elif kind == "rs3":
            inp = mk.rs_code(field, [field.from_int(p) for p in job["points"]], job["k"])
        elif "points" in job:  # mr3, duality, avgwc over GF(5), GF(7)
            inp = mk.explicit_code(field, _scaled_rs(field, job).rows)
        elif kind in ("dual3", "mr3", "duality", "avgwc"):
            inp = _explicit(field, job["rows"])
        elif kind == "generic":
            inp = mk.SetTuple(tuple(tuple(a) for a in job["sets"]), job["n"], job["k"])
        elif kind == "member":
            f = [_sparse(t) for t in job["factors"]]
            g = state["generators"]
            inp = f[0] * g[0] + f[1] * g[1] + f[2] * g[2]
        elif kind == "normal":
            inp = _sparse(job["poly"])
        else:
            inp = None
        state["inputs"][job["key"]] = inp
    return state


# -- calls -----------------------------------------------------------------------


def _cli(argv):
    """mdskit.cli.main in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = mk.cli.main(argv)
    return rc, out.getvalue()


def _run_family(job):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"code-{os.getpid()}.txt"
    try:
        rc1, out1 = _cli(["construct", *job["construct"], "--format", "jsonl", "--out", str(path)])
        data = path.read_bytes() if rc1 == 0 else b""
        rc2, out2 = _cli(["check", str(path), *job["check"], "--format", "jsonl"])
    finally:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
    event = json.loads(out1) if rc1 == 0 else {}
    event.pop("out", None)
    return {
        "rc": [rc1, rc2],
        "event": event,
        "sha256": hashlib.sha256(data).hexdigest(),
        "check": out2,
    }


def run_job(job, state):
    """Call mdskit for one job; returns a JSON-able outcome."""
    kind = job["kind"]
    inp = state["inputs"][job["key"]]
    if kind == "family":
        return _run_family(job)
    if kind == "search":
        n, k, q = job["nkq"]
        rc, out = _cli(["search", "--n", str(n), "--k", str(k), "--q", str(q), "--format", "jsonl"])
        return {"rc": rc, "out": out}
    if kind == "certificates":
        rc, out = _cli(["verify-certificates", "--format", "jsonl"])
        return {"rc": rc, "out": out}
    if kind == "buchberger":
        gb = mk.buchberger(state["generators"], mk.DEGREVLEX)
        state["basis"] = gb
        text = "\n".join(g.format() for g in gb)
        return {"size": len(gb), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if kind == "member":
        return {"zero": mk.gb_reduce(inp, state["basis"]).is_zero()}
    if kind == "normal":
        r = mk.gb_reduce(inp, state["basis"])
        return {"idempotent": mk.gb_reduce(r, state["basis"]) == r}
    if kind == "block":
        g, sets = inp
        k = g.nrows
        block_zero = mk.det(mk.block_mds_matrix(g, sets)).is_zero()
        spans = [g.submatrix(range(k), a) for a in sets]
        return {"pair": [block_zero, mk.subspace_intersection_dim(spans) > 0]}
    if kind == "rs3":
        return {"pair": [mk.is_mds3_rs_fast(inp).ok, mk.is_mds_ell(inp, 3).ok]}
    if kind == "dual3":
        return {"pair": [mk.is_mds_ell(inp, 3).ok, mk.is_mds_ell(mk.dual_code(inp), 3).ok]}
    if kind == "generic":
        return {"pair": [mk.generically_zero(inp), mk.generic_intersection_dim(inp) == 0]}
    if kind == "mr3":
        col = mk.single_parity_code(inp.field, 3)
        return {"pair": [mk.mr_check(mk.TensorCodeSpec(col, inp)).ok, mk.is_mds_ell(inp, 3).ok]}
    if kind == "duality":
        # duality_test runs is_mds_ell(C, 3) and ld_mds_check(dual, <=2) and
        # passes iff the two verdicts agree
        return {"agree": mk.duality_test(inp, 2).ok}
    if kind == "avgwc":
        n, k = inp.n, inp.k
        avg = mk.ld_mds_check(inp, 2, up_to=False).ok
        wc = mk.worst_case_ld_check(inp, 2, 2 * (n - k), 3 * n).ok
        # average-radius list decodability implies the worst-case property
        return {"implies": (not avg) or wc}
    raise ValueError(f"unknown job kind {kind!r}")


# -- checks ----------------------------------------------------------------------


def load_expected(path=EXPECTED):
    with open(path) as fh:
        return json.load(fh)


def check_job(job, outcome, expected):
    """None when the outcome is right, otherwise a one-line reason."""
    kind = job["kind"]
    if kind in ("family", "search", "certificates", "buchberger"):
        want = expected.get(job["key"])
        if want is None:
            return "no pinned expectation"
        if outcome != want:
            return f"got {json.dumps(outcome, sort_keys=True)}, pinned {json.dumps(want, sort_keys=True)}"
        return None
    if "pair" in outcome:
        a, b = outcome["pair"]
        return None if a == b else f"independent paths disagree: {a} vs {b}"
    (name, value), = outcome.items()
    return None if value is True else f"{name} is {value}"
