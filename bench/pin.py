"""Pin the default seed's outputs as bench/reference.json.

    python3 bench/pin.py

Runs every job of every workload once on the default seed, refuses to pin
if any output fails its check, and writes the fingerprints that run.py
compares the default seed against: a digest of each output, and for
montessus the floats, which are compared within check.FLOAT_RTOL and
check.FLOAT_ATOL. Re-pin only in a change that means to alter padelab's
output, and name the changed outputs in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from check import check_job, fingerprint
from run import DEFAULT_SEED, REFERENCE, Zygote, jobs_digest
from workloads import WORKLOADS, generate


def main() -> int:
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    zygote = Zygote()
    try:
        for name in WORKLOADS:
            jobs = generate(name, DEFAULT_SEED)
            outputs = []
            for i, job in enumerate(jobs):
                result = zygote.run(job.argv, False)
                problem = result["error"] or check_job(job, result["code"], result["stdout"],
                                                       result["stderr"])
                if problem:
                    print(f"not pinned: {name} job {i}: {problem}", file=sys.stderr)
                    return 1
                outputs.append(fingerprint(job, result["code"], result["stdout"]))
            pinned["workloads"][name] = {"jobs": jobs_digest(jobs), "outputs": outputs}
    finally:
        zygote.close()
    with open(REFERENCE, "w") as fh:
        json.dump(pinned, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
