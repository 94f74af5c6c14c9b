"""padelab benchmark: seeded command-line jobs, timed one at a time.

    python3 bench/run.py --workload tables --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the program under test is
padelab as found in src/ there, imported in a fresh interpreter.

The benchmark is closed-loop with one client: it sends a job, waits for
the answer, then sends the next. A workload is a fixed-size job list
made from the seed (workloads.py). The list is run in passes, each job
timed once per pass in its own forked process (zygote.py; a fresh fork
server per pass), until the next pass would end after --seconds. A job's
time is its fastest pass; each timing metric is built from those per-job
times, which filters out the interference of a shared, noisy machine.
Each pass also times SETUP_SLOTS cold starts at fixed places spread
through it, so the cold starts sample the same phases of the machine as
the jobs; a slot's time is its fastest pass, like a job's.

With --trace 0 the last line reports the end-to-end metrics:

    jobs_per_s    jobs / sum of per-job times
    job_s_p50     median per-job time
    job_s_p90     90th percentile per-job time (100+ jobs per workload)
    setup_s       median over the slots of a fresh interpreter's time
                  through import padelab.cli, which every command-line
                  call pays
    job_mem_mb    growth of a job's anonymous memory, from the start of
                  the job to the peak (zygote.py): the mean over the jobs
                  of a pass, median over the passes

With --trace 1 it runs every job untraced and traced back to back, in
MIN_PASSES or more passes, and reports the per-layer metrics of
tracing.py, with the traced and untraced job time beside them; the
record line gives the tracing overhead, their ratio less one. The spans
go to bench/out/.

Every job's first output is checked by check.py, independently of
padelab, and later passes must repeat it byte for byte. On the default
seed the outputs are also compared with bench/reference.json.
`attempted` counts jobs, `failed` the jobs with any problem; their ratio
is the error rate. A job marked as hitting a known padelab defect
(workloads.KNOWN_DEFECTS) may fail as the defect does without being
counted as failed; if it succeeds, its output is checked like any other.
The record line counts how many of those jobs failed as known.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from check import check_job, reference_problem
from tracing import layer_metrics
from workloads import WORKLOADS, generate
from zygote import read_frame, write_frame

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Every interpreter the benchmark starts keeps its bytecode cache under
# OUT_DIR. After warm_bytecode_cache, every cold start, fork server and job
# loads cached bytecode, as an installed package does, whether or not the
# checkout has a cache or the environment forbids one. A process that
# compiled a module from source would also leave its heap, and so the
# jobs' memory growth, different.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))

DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_SLOTS = 3

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("setup_s", "s"),
    ("job_mem_mb", "MB"),
)


class Zygote:
    """The fork server process, one per pass."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "zygote.py"), SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=CHILD_ENV,
        )
        self.env = read_frame(self.proc.stdout.fileno())

    def run(self, argv, traced: bool) -> dict:
        """The child's result, or an error result if it ended without one."""
        write_frame(self.proc.stdin.fileno(), (list(argv), traced))
        result = read_frame(self.proc.stdout.fileno())
        if isinstance(result, int):
            return {"code": None, "seconds": 0.0, "stdout": "", "stderr": "", "memory_kb": 0,
                    "error": f"job process ended with status {result} and no result"}
        read_frame(self.proc.stdout.fileno())
        return result

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cold_start_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import padelab.cli"], env=CHILD_ENV, cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def warm_bytecode_cache(jobs) -> None:
    """Import padelab, and run one job of each kind, once and untimed."""
    cold_start_seconds()
    zygote = Zygote()
    try:
        for job in {job.kind: job for job in jobs}.values():
            zygote.run(job.argv, False)
    finally:
        zygote.close()


def calibration_ms() -> float:
    """A fixed pure-Python loop; its spread shows how noisy the machine is."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "padelab"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def jobs_digest(jobs) -> str:
    return hashlib.sha256(json.dumps([j.argv for j in jobs]).encode()).hexdigest()[:20]


def run_passes(jobs, seconds: float, trace: bool) -> tuple:
    """Run whole passes until the next would end after `seconds`.

    Each pass has a fresh fork server, so that the passes of a job do not
    all share one server's hash seed and memory layout. Untraced, each
    pass runs every job once and takes SETUP_SLOTS cold starts at fixed
    places spread through it. Traced, each pass runs every job untraced
    and traced back to back, in an order that alternates from pass to
    pass, so both times of a job see the same state of the machine; there
    are no cold starts. Returns the untraced results, untraced[pass][job],
    the traced ones (empty unless traced), the cold starts,
    setup[pass][slot], and the fork server's environment.
    """
    slots = set() if trace else {len(jobs) * k // SETUP_SLOTS for k in range(SETUP_SLOTS)}
    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        order = ((False, True), (True, False))[len(untraced) % 2] if trace else (False,)
        runs = {False: [], True: []}
        setup.append([])
        zygote = Zygote()
        try:
            for i, job in enumerate(jobs):
                if i in slots:
                    setup[-1].append(cold_start_seconds())
                for kind in order:
                    runs[kind].append(zygote.run(job.argv, kind))
        finally:
            zygote.close()
        untraced.append(runs[False])
        if trace:
            traced.append(runs[True])
        done = len(untraced)
        if done >= MIN_PASSES and (time.perf_counter() - start) * (done + 1) / done > seconds:
            return untraced, traced, setup, zygote.env


def find_problems(name: str, jobs, passes, seed: int) -> dict:
    """job index -> first problem found in its outputs."""
    problems = {}
    reference = None
    if seed == DEFAULT_SEED and os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    for i, job in enumerate(jobs):
        first = passes[0][i]
        problem = first["error"] or check_job(job, first["code"], first["stdout"], first["stderr"])
        if problem is None and any((r["code"], r["stdout"]) != (first["code"], first["stdout"])
                                   for p in passes[1:] for r in [p[i]]):
            problem = "output changed between passes"
        if problem is None and reference is not None:
            ref = reference["workloads"].get(name)
            if ref is None or ref["jobs"] != jobs_digest(jobs):
                problem = "job list differs from the pinned reference; re-pin with bench/pin.py"
            else:
                problem = reference_problem(ref["outputs"][i], job, first["code"],
                                            first["stdout"])
        if problem is not None:
            problems[i] = problem
    return problems


def end_to_end_metrics(passes, setup: list) -> dict:
    best = [min(p[i]["seconds"] for p in passes) for i in range(len(passes[0]))]
    setup_best = [min(s[k] for s in setup) for k in range(SETUP_SLOTS)]
    memory_kb = [statistics.fmean(r["memory_kb"] for r in p) for p in passes]
    values = {
        "jobs_per_s": len(best) / sum(best),
        "job_s_p50": statistics.median(best),
        "job_s_p90": statistics.quantiles(best, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_best),
        "job_mem_mb": statistics.median(memory_kb) / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_metrics(jobs, untraced, traced, name: str, seed: int) -> tuple:
    """Per-layer metrics from paired untraced and traced passes."""
    summaries, spans, problems = [], [], {}
    for i in range(len(jobs)):
        if any("summary" not in p[i] for p in traced):
            problems[i] = "traced job left no trace"
            continue
        fastest = min((p[i] for p in traced), key=lambda r: r["seconds"])
        counts = {json.dumps({k: v for k, v in p[i]["summary"].items() if k != "self_ns"},
                             sort_keys=True) for p in traced}
        if len(counts) > 1:
            problems[i] = "traced counts changed between passes"
        summaries.append(fastest["summary"])
        spans.append((i, fastest["seconds"], fastest["spans"]))
    untraced_s = sum(min(p[i]["seconds"] for p in untraced) for i in range(len(jobs)))
    traced_s = sum(min(p[i]["seconds"] for p in traced) for i in range(len(jobs)))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, seconds, job_spans in spans:
            fh.write(json.dumps({"job": i, "argv": jobs[i].argv, "seconds": seconds,
                                 "spans": job_spans}) + "\n")
    return layer_metrics(summaries, untraced_s, traced_s), problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = generate(name, seed)
    warm_bytecode_cache(jobs)
    calibration = [calibration_ms() for _ in range(3)]
    passes, traced, setup, env = run_passes(jobs, seconds, trace)
    calibration += [calibration_ms() for _ in range(3)]
    problems = find_problems(name, jobs, passes + traced, seed)
    if trace:
        metrics, trace_problems = traced_metrics(jobs, passes, traced, name, seed)
        problems = {**trace_problems, **problems}
        overhead = (metrics["trace.traced_jobs_s"]["value"]
                    / metrics["trace.untraced_jobs_s"]["value"] - 1)
    else:
        metrics = end_to_end_metrics(passes, setup)
    defect_codes = [passes[0][i]["code"] for i, job in enumerate(jobs)
                    if "known_defect" in job.facts and i not in problems]
    record = {
        "workload": name, "seed": seed, "jobs": len(jobs), "passes": len(passes),
        "error_rate": len(problems) / len(jobs),
        "known_defect_jobs": {"failed_as_known": defect_codes.count(1),
                              "succeeded": defect_codes.count(0)},
        "env": dict(env, nproc=os.cpu_count(), git_revision=git_revision(),
                    source_sha256=source_digest()),
        "calibration_ms": {"before": statistics.median(calibration[:3]),
                           "after": statistics.median(calibration[3:]),
                           "spread": (max(calibration) - min(calibration))
                           / statistics.median(calibration)},
    }
    if trace:
        record["trace_overhead_frac"] = overhead
    for i, problem in sorted(problems.items())[:5]:
        print(f"failed job {i} ({' '.join(jobs[i].argv)[:120]}): {problem}", file=sys.stderr)
    return {"record": record, "correct": not problems, "attempted": len(jobs),
            "failed": len(problems), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padelab", "cli.py")):
        print(f"error: no padelab sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    for name, result in results.items():
        print("# " + json.dumps(result["record"], sort_keys=True))
        for metric, m in result["metrics"].items():
            print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"# {name} error_rate = {result['record']['error_rate']:.6g} fraction")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
