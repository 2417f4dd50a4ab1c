"""Run one pass of a workload in a fresh interpreter; print one JSON line.

    python3 perfbench/worker.py --workload oracle --seed 1 --pass 0 [--trace-parity 0]
    python3 perfbench/worker.py --workload oracle --seed 1 --pass 0 --setup-only
    python3 perfbench/worker.py --kernels --seed 1

run.py starts this once per pass, so per-process state (field tables,
generic-family caches, any memo) starts cold in every pass, as it does for a
command-line call.  ``ready`` is the CLOCK_MONOTONIC reading just before the
first timed job, less the time spent in the speed probe until then; run.py
subtracts the time it started the process.

The speed probe (probe.py) is sampled from the start of the process to the
end of the pass.  Job times are read on the sampler's clock, which leaves
out the time spent in the probe; each job carries its start and end on that
clock, and the pass carries every sample, so run.py can scale each job by the
samples taken while it ran.

With ``--trace-parity P`` the tracer is installed and switched on for the
jobs whose index in the pass has parity P and off for the others, so one
pair of processes (P = 0 and P = 1) traces every job of the pass once and
times every job once untraced.
"""

import argparse
import json
import resource
import sys
import time

import probe


def run_pass(args, sampler):
    import jobs as J

    plan = J.plan(args.workload, args.seed, args.pass_no)
    state = J.prepare(args.workload, plan)
    expected = J.load_expected(args.expected or J.EXPECTED)
    tracer = None
    if args.trace_parity is not None:
        import tracer as T

        tracer = T.Tracer(clock=sampler.clock)
        patches = T.install(tracer)
    ready = time.monotonic() - sampler.spent
    # a set-up shorter than the sampling interval is scaled by one sample after it
    setup_probe_ms = [ms for _, ms in sampler.samples] or [sampler.probe.sample_ms()]
    if args.setup_only:
        return {"ready": ready, "setup_probe_ms": setup_probe_ms}

    records = []
    for index, job in enumerate(plan):
        traced = tracer is not None and index % 2 == args.trace_parity
        if tracer:
            T.switch(patches, traced)
        if traced:
            tracer.begin_job(job["key"])
        cpu = sampler.cpu()
        start = sampler.clock()
        try:
            why = J.check_job(job, J.run_job(job, state), expected)
        except Exception as exc:  # a job that raises is a failed job
            why = f"raised {type(exc).__name__}: {exc}"
        end = sampler.clock()
        wall = end - start
        rec = {"key": job["key"], "kind": job["kind"], "start": start, "end": end,
               "ms": wall * 1e3, "cpu_ms": (sampler.cpu() - cpu) * 1e3, "error": why}
        if tracer:
            rec["traced"] = traced
        if traced:
            own, outside = tracer.end_job(wall)
            rec["self_s"], rec["unattributed_s"] = own, outside
            if abs(own + outside - wall) > 1e-6 * (1 + wall) or outside < -1e-6:
                rec["error"] = rec["error"] or (
                    f"trace accounting: self {own:.6f} s + unattributed "
                    f"{outside:.6f} s != wall {wall:.6f} s"
                )
        records.append(rec)
    sampler.stop()
    out = {
        "ready": ready,
        "setup_probe_ms": setup_probe_ms,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "probes": sampler.samples,
    }
    if tracer:
        J.RESULTS.mkdir(exist_ok=True)
        path = J.RESULTS / (
            f"trace-{args.workload}-s{args.seed}-p{args.pass_no}-{args.trace_parity}.jsonl")
        tracer.write(path)
        out["trace"] = {
            "file": str(path.relative_to(J.ROOT)),
            "spans": len(tracer.spans),
            "dropped": tracer.dropped,
            "agg": tracer.agg,
            "hot": tracer.hot,
            "counts": tracer.counts,
        }
    return out


def main():
    sampler = probe.Sampler()
    ap = argparse.ArgumentParser(description="one benchmark pass")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--trace-parity", type=int, choices=(0, 1),
                    help="trace the jobs whose index in the pass has this parity")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--kernels", action="store_true")
    ap.add_argument("--expected", help="pinned expectations (default perfbench/expected.json)")
    args = ap.parse_args()
    if args.kernels:
        import kernels

        out = {"kernels": kernels.measure(args.seed)}
    else:
        sampler.start()
        try:
            out = run_pass(args, sampler)
        finally:
            sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
