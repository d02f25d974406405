"""One workload in one fresh process: set up, warm up, then time or trace.

Started by ``run.py``, which fixes the BLAS thread count in the
environment.  The last line on stdout is one JSON object for ``run.py``.
Input generation, the ``gc.collect()`` before each job and every check
of an output stay outside the timed part.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import ququat from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, SRC)
    import ququat

    if os.path.dirname(os.path.dirname(os.path.abspath(ququat.__file__))) != SRC:
        raise ImportError(f"ququat was imported from {ququat.__file__}, not from {SRC}")
    return ququat


# failures and failed checks printed to stderr per run; all are counted
REPORT_LIMIT = 5


class Runner:
    """Runs rounds of jobs, timing each job and checking its output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.job_times: list[float] = []
        self.timed_s = 0.0
        self.problems: list[str] = []

    def run_round(self, jobs) -> None:
        for job in jobs:
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:  # a refused operation is counted, and the run goes on
                elapsed = time.perf_counter() - t0
                out = None
                self.failed += 1
                if self.failed <= REPORT_LIMIT:
                    traceback.print_exc(file=sys.stderr)
            else:
                elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.timed_s += elapsed
            job.output = out
            if out is None:
                continue
            if job.counts_as_job:
                self.job_times.append(elapsed)
            self.report(job.check(out))

    def report(self, problems) -> None:
        for p in problems[: max(0, REPORT_LIMIT - len(self.problems))]:
            print(f"check failed: {p}", file=sys.stderr)
        self.problems += problems


def timed_rounds(workload, runner: Runner, seconds: float) -> int:
    """Whole rounds until ``seconds`` of wall time have passed; returns the count."""
    wrapped = tracer.wrapped_attributes()
    if wrapped:
        raise RuntimeError(f"tracer wrappers present in an untraced run: {wrapped}")
    start = time.perf_counter()
    rounds = 0
    while True:
        runner.run_round(workload.round(rounds))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm = Runner()
    warm.run_round(workload.warmup())
    warm.report(workload.untimed_checks())
    runner = Runner()
    runner.problems = warm.problems
    # Objects from imports and set-up move to the permanent generation, so
    # the collection before each job only sees what the jobs allocated.
    gc.collect()
    gc.freeze()

    result = {"setup_s": setup_s, "warmup_failed": warm.failed}
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        try:
            for r in range(workload.trace_rounds):
                runner.run_round(workload.round(r))
        finally:
            tr.uninstall()
        result["metrics"] = tr.metrics()
        result["rounds"] = workload.trace_rounds
    else:
        result["rounds"] = timed_rounds(workload, runner, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jobs = len(runner.job_times)
    result.update({
        "correct": not runner.problems and warm.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "jobs": jobs,
        "timed_s": runner.timed_s,
        "jobs_per_s": jobs / runner.timed_s if runner.timed_s > 0 else 0.0,
        "job_p50_s": statistics.median(runner.job_times) if jobs else 0.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
