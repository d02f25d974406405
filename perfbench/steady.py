"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steady.py --seeds 1-10 [--workload gate-wide ...]

Runs ``run.py`` once per workload and seed, one run at a time, from the
root of the checkout, and prints for every metric the median, the first
and third quartiles and the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
BENCHMARK.json.  With ``--out FILE`` the raw results are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        results[workload] = runs
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed share={sorted(failed)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:52s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds.get(metric)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
