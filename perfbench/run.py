"""The ququat benchmark: one workload per call, in fresh single-process Pythons.

    python3 perfbench/run.py --workload simulate-local --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of stdout is the end-to-end result::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {
        "jobs_per_s": {...}, "job_p50_s": {...}, "setup_s": {...}, "peak_rss_mb": {...}}}

With ``--trace 1`` a separate process runs a fixed number of rounds with
the tracer installed and reports the per-layer metrics instead.  The line
before the result describes the machine and the run.  Exits 1 without a
result when a process fails or ququat cannot be imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("simulate-local", "gate-wide", "state-sweep", "closure-search")
BLAS_THREADS = 1
# set-up is timed in this many fresh processes, the measured one included
SETUP_SAMPLES = 5
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra, deadline: float) -> dict:
    """Run worker.py once; return its last stdout line as JSON."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    try:
        if args.trace:
            out = spawn(args, [], deadline)
            metrics = out["metrics"]
        else:
            setups = [spawn(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            out = spawn(args, [], deadline)
            setups.append(out["setup_s"])
            metrics = {
                "jobs_per_s": {"value": out["jobs_per_s"], "unit": "jobs/s"},
                "job_p50_s": {"value": out["job_p50_s"], "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    info = {key: out[key] for key in ("rounds", "jobs", "timed_s", "jobs_per_s", "peak_rss_mb")}
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, **machine_info())
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
