"""mdskit benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run starts a fresh worker process per pass and runs
passes until the next one would end after ``--seconds``; it prints every
end-to-end metric.  With ``--trace 1`` it runs the kernel sheet and then
pairs of fresh processes that each run pass 0, one tracing the even jobs and
the other the odd ones, until ``--seconds``; it prints every per-layer
metric.  Every job's outcome is checked.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The run exits 1
when any job failed and 2 when the program or the benchmark cannot run;
results and traces go to perfbench/results/.

Every time is scaled to the speed probe's nominal speed (probe.py): a job's
time is multiplied by probe.NOMINAL_MS over the mean probe time around it,
and a set-up time by NOMINAL_MS over the mean probe time during it.  The
unscaled figures are printed on the ``info`` line and kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("family", "oracle", "search", "certify")

# setup-only processes started before each pass; with the pass's own worker
# they spread the set-up samples over the run instead of its first seconds
SETUP_SAMPLES_PER_PASS = 2
WORKER_TIMEOUT_S = 170
# speed-probe samples this close to a job set its scale
PROBE_WINDOW_S = 0.1
# Tail percentile per workload: the highest whole percentile that leaves at
# least ten jobs beyond it at the fewest passes a 30 s run usually makes at
# the seed commit (3, 4, 2 and 3 passes of 12, 47, 34 and 18 jobs).  It is
# fixed so that runs with another job count report the same statistic; each
# run prints how many jobs lie beyond it.
TAIL_PERCENTILE = {"family": 74, "oracle": 95, "search": 86, "certify": 83}

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SPANNED = [
    "fields.find_irreducible", "fields.poly_is_irreducible",
    "linalg.det", "linalg.rref", "linalg.subspace_intersection_dim", "linalg.block_mds_matrix",
    "codes.generically_zero", "codes.generic_intersection_dim", "codes.parse_code", "codes.format_code",
    "mdscheck.is_mds", "mdscheck.is_mds_ell", "mdscheck.is_mds3_rs_fast", "mdscheck.exhaustive_code_search",
    "multipoly.buchberger", "multipoly.gb_reduce",
    "constructions.construct", "constructions.greedy_sidon",
    "applications.mr_check", "applications.ld_mds_check", "applications.worst_case_ld_check",
    "applications.duality_test",
    "cli.main",
]
COUNTED = ["fields.mul", "fields.addsub", "fields.inverse", "multipoly.SparsePoly.mul"]
KERNEL_FIELDS = ("gf13", "gf9", "gf11e4", "gf67e25")

# derived per-layer metrics: name -> (unit, numerator count, denominator count
# or None); "<name>.calls" denominators are span call counts
DERIVED = {
    "fields.find_irreducible.candidates_per_call": (
        "count", "fields.find_irreducible.candidates", "fields.find_irreducible.calls"),
    "linalg.det.mean_order": ("rows", "linalg.det.order_sum", "linalg.det.calls"),
    "codes.generically_zero.pass_ratio": (
        "ratio", "codes.generically_zero.pass", "codes.generically_zero.calls"),
    "mdscheck.is_mds_ell.tuples": ("count", "mdscheck.is_mds_ell.tuples", None),
    "mdscheck.is_mds_ell.eval_ratio": (
        "ratio", "mdscheck.is_mds_ell.evaluated", "mdscheck.is_mds_ell.enumerated"),
    "mdscheck.is_mds3_rs_fast.tuples": ("count", "mdscheck.is_mds3_rs_fast.tuples", None),
    "mdscheck.exhaustive_code_search.candidates": (
        "count", "mdscheck.exhaustive_code_search.candidates", None),
    "mdscheck.exhaustive_code_search.hit_ratio": (
        "ratio", "mdscheck.exhaustive_code_search.hits", "mdscheck.exhaustive_code_search.candidates"),
    "multipoly.buchberger.basis_size": (
        "count", "multipoly.buchberger.basis_size", "multipoly.buchberger.calls"),
    "multipoly.gb_reduce.in_terms": ("count", "multipoly.gb_reduce.in_terms", None),
    "multipoly.gb_reduce.out_terms": ("count", "multipoly.gb_reduce.out_terms", None),
    "applications.ld_mds_check.vectors": ("count", "applications.ld_mds_check.vectors", None),
    "applications.worst_case_ld_check.swept": (
        "count", "applications.worst_case_ld_check.swept", None),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANNED + COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, (unit, _, _) in DERIVED.items():
        units[name] = unit
    for f in KERNEL_FIELDS:
        units[f"fields.mul_us.{f}"] = "us"
        units[f"fields.inverse_us.{f}"] = "us"
    for f in ("gf13", "gf9"):
        for order in (6, 9, 12):
            units[f"linalg.det_ms.{f}.{order}"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    units["env.speed_probe_ms"] = "ms"
    return units


class BenchError(Exception):
    pass


# -- environment -------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def source_digest():
    """sha256 over the package sources, to name the code measured when the
    checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdskit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# -- workers ----------------------------------------------------------------------


def spawn(args):
    """Run worker.py in a fresh interpreter; returns its JSON and the
    CLOCK_MONOTONIC time it was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_pass(workload, seed, pass_no, parity=None):
    args = ["--workload", workload, "--seed", str(seed), "--pass", str(pass_no)]
    out, started = spawn(args + ([] if parity is None else ["--trace-parity", str(parity)]))
    out["setup_s"] = out["ready"] - started
    scale_jobs(out["jobs"], out["probes"])
    return out


def setup_sample(workload, seed):
    """(set-up time, speed-probe samples taken during it)."""
    out, started = spawn(["--workload", workload, "--seed", str(seed), "--setup-only"])
    return out["ready"] - started, out["setup_probe_ms"]


# -- scaling to the probe's nominal speed ------------------------------------------


def scale_jobs(jobs, probes):
    """Give each job ``scale``: probe.NOMINAL_MS over the mean of the
    speed-probe samples taken from PROBE_WINDOW_S before the job starts to
    PROBE_WINDOW_S after it ends, or of all the pass's samples when none is
    that close."""
    for job in jobs:
        lo, hi = job["start"] - PROBE_WINDOW_S, job["end"] + PROBE_WINDOW_S
        near = [ms for t, ms in probes if lo <= t <= hi]
        job["scale"] = probe.NOMINAL_MS / statistics.mean(near or [ms for _, ms in probes])


# -- statistics -------------------------------------------------------------------


def percentile(values, p):
    """The p-th percentile, linear between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_stat(values, p):
    """(value at percentile p, samples strictly above it)."""
    value = percentile(values, p)
    return value, sum(v > value for v in values)


def per_layer(trace, kernels, overhead):
    agg, hot, counts = trace["agg"], trace["hot"], trace["counts"]
    base = {}
    for name in SPANNED:
        calls, _, own = agg[name]
        base[f"{name}.calls"] = calls
        base[f"{name}.self_s"] = own
    for name in COUNTED:
        calls, total = hot[name]
        base[f"{name}.calls"] = calls
        base[f"{name}.self_s"] = total
    metrics = dict(base)
    for name, (_, num, den) in DERIVED.items():
        top = counts.get(num, 0)
        if den is None:
            metrics[name] = top
        else:
            bottom = base.get(den, counts.get(den, 0))
            metrics[name] = top / bottom if bottom else 0.0
    metrics.update(kernels)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# -- runs -------------------------------------------------------------------------


def measured_run(workload, seed, seconds, samples):
    deadline = time.monotonic() + seconds
    passes, setups, longest = [], [], 0.0
    while not passes or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        setups += [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(workload, seed, len(passes)))
        longest = max(longest, time.monotonic() - start)
    samples += [ms for _, probes in setups for ms in probes]
    samples += [ms for p in passes for _, ms in p["probes"]]
    setups += [(p["setup_s"], p["setup_probe_ms"]) for p in passes]
    jobs = [j for p in passes for j in p["jobs"]]
    pct = TAIL_PERCENTILE[workload]

    def summary(scaled):
        def f(job, field):
            return job[field] * (job["scale"] if scaled else 1.0)

        def setup(seconds, probes):
            return seconds * probe.NOMINAL_MS / statistics.mean(probes) if scaled else seconds

        times = [f(j, "ms") for j in jobs]
        tail, beyond = tail_stat(times, pct)
        return {
            "wall_s": statistics.median(sum(f(j, "ms") for j in p["jobs"]) / 1e3 for p in passes),
            "cpu_s": statistics.median(sum(f(j, "cpu_ms") for j in p["jobs"]) / 1e3 for p in passes),
            "verdict_ms.p50": statistics.median(times),
            "verdict_ms.tail": tail,
            "setup_s": statistics.median(setup(*s) for s in setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }, beyond

    metrics, beyond = summary(scaled=True)
    info = {
        "passes": len(passes),
        "jobs": len(jobs),
        "tail_percentile": pct,
        "jobs_beyond_tail": beyond,
        "setup_samples": len(setups),
        "probe_samples": len(samples),
        "unscaled": summary(scaled=False)[0],
    }
    return metrics, jobs, info, dict(END_TO_END)


def merge_traces(passes):
    """Sum the aggregates of the traced passes of one pair."""
    merged = {"agg": {}, "hot": {}, "counts": {}}
    for p in passes:
        for part in ("agg", "hot"):
            for name, cell in p["trace"][part].items():
                into = merged[part].setdefault(name, [0] * len(cell))
                for i, v in enumerate(cell):
                    into[i] += v
        for name, v in p["trace"]["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + v
    return merged


def overhead_ratio(passes):
    """Traced over untraced time of the same jobs across one pair.  Each
    process's traced jobs give one ratio, against the same jobs untraced in
    the other process; a constant difference of speed between the two
    processes divides one ratio and multiplies the other, so it cancels out of
    their geometric mean."""
    first, second = (p["jobs"] for p in passes)
    product = 1.0
    for traced, plain in ((first, second), (second, first)):
        pairs = [(t["ms"] * t["scale"], u["ms"] * u["scale"]) for t, u in zip(traced, plain) if t["traced"]]
        product *= sum(t for t, _ in pairs) / sum(u for _, u in pairs)
    return math.sqrt(product)


def traced_run(workload, seed, seconds, samples):
    """The kernel sheet, then pairs of fresh processes that each run pass 0:
    one traces the even jobs, the other the odd ones, until the next pair
    would end after ``seconds``.  A pair traces every job once and times it
    once untraced, each half in either process, so a difference of speed
    between the two processes cancels out of the pair's overhead ratio.  The
    per-layer metrics are those of the first pair, so they cover
    exactly one pass and the counts repeat for a given seed; the overhead
    ratio is the median over pairs."""
    deadline = time.monotonic() + seconds
    kernels, _ = spawn(["--kernels", "--seed", str(seed)])
    pairs, longest = [], 0.0
    while not pairs or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        pairs.append([run_pass(workload, seed, 0, parity=parity) for parity in (0, 1)])
        longest = max(longest, time.monotonic() - start)
    samples += [ms for pair in pairs for p in pair for _, ms in p["probes"]]
    ratios = [overhead_ratio(pair) for pair in pairs]
    overhead = statistics.median(ratios)
    first = pairs[0]
    metrics = per_layer(merge_traces(first), kernels["kernels"], overhead)
    jobs = [j for pair in pairs for p in pair for j in p["jobs"]]
    info = {
        "jobs": len(jobs),
        "pairs": len(pairs),
        "overhead_ratios": ratios,
        # tracing only adds work, so a ratio under 1 is noise, not a measurement
        "overhead_resolved": overhead >= 1.0,
        "trace_files": [p["trace"]["file"] for p in first],
        "spans_kept": sum(p["trace"]["spans"] for p in first),
        "spans_dropped": sum(p["trace"]["dropped"] for p in first),
        "unattributed_s": sum(j["unattributed_s"] for p in first for j in p["jobs"] if j["traced"]),
    }
    return metrics, jobs, info, per_layer_units()


def main(argv=None):
    ap = argparse.ArgumentParser(description="mdskit benchmark run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mdskit" / "__init__.py").is_file():
        print(f"perfbench: no mdskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    run = traced_run if args.trace else measured_run
    samples = []  # every speed-probe sample the workers took
    try:
        metrics, jobs, info, units = run(args.workload, args.seed, args.seconds, samples)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["speed_probe_ms"] = statistics.median(samples)
    if args.trace:
        metrics["env.speed_probe_ms"] = env["speed_probe_ms"]

    failed = [j for j in jobs if j["error"]]
    error_rate = len(failed) / len(jobs)
    for j in failed:
        print(f"FAILED {j['key']}: {j['error']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    if not args.trace:
        print(
            f"verdict_ms.tail is p{info['tail_percentile']} over {info['jobs']} jobs, "
            f"{info['jobs_beyond_tail']} beyond it"
        )
    elif not info["overhead_resolved"]:
        print("trace.overhead_ratio is below 1: unresolved, the machine's drift exceeds the overhead")
    print(f"error_rate {error_rate:.6f} ({len(failed)} of {len(jobs)} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "info": info,
        "error_rate": error_rate,
        "metrics": metrics,
        "jobs": jobs,
    }
    path = RESULTS / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
