"""Pin the expected outcome of every pool job from the current source tree.

    python3 perfbench/pin.py            # rewrite perfbench/expected.json

expected.json was written from the seed commit.  Rewrite it only when a
change is meant to alter a verdict, a count or a construct file's bytes;
run.py compares every pool job with it on every pass.
"""

import json
import sys

import jobs as J


def pool_jobs():
    by_key = {}
    for workload in ("family", "search", "certify"):
        for job in J.plan(workload, 0, 0):
            if job["key"] in J.pool_keys():
                by_key[job["key"]] = (workload, job)
    return [by_key[key] for key in J.pool_keys()]


def main():
    pinned = {}
    for workload, job in pool_jobs():
        state = J.prepare(workload, [job])
        pinned[job["key"]] = J.run_job(job, state)
        print(job["key"], json.dumps(pinned[job["key"]], sort_keys=True), flush=True)
    with open(J.EXPECTED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
