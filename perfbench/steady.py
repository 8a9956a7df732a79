#!/usr/bin/env python3
"""Steadiness check: runs the benchmark twice over seeds 1-10 on each
workload and reports, per end-to-end metric and sweep, the median and the
quartile spread (Q3 - Q1, from statistics.quantiles(values, n=4), as a share
of the median), then how far the second sweep's median moved from the
first's, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                           # every workload
    python3 perfbench/steady.py --workload index-serve    # one workload

A spread above a third of the bound, and a spread or a drift above the bound
(for `setup_s` only the drift), are flagged. Exits 1 if a run fails or is
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SWEEPS = 2


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        sweeps = []
        for sweep in range(SWEEPS):
            runs = []
            for seed in SEEDS:
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                values = " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items())
                print(f"{w} sweep {sweep + 1} seed {seed}: ok {values}", flush=True)
            sweeps.append(runs)
        print(f"\n{w}: {SWEEPS} sweeps of seeds {SEEDS.start}-{SEEDS.stop - 1}")
        print(f"  {'metric':16} {'median 1':>12} {'spread 1':>9} {'median 2':>12} "
              f"{'spread 2':>9} {'worse':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for runs in sweeps:
                values = [r[name] for r in runs]
                q = statistics.quantiles(values, n=4)
                meds.append(statistics.median(values))
                spreads.append((q[2] - q[0]) / meds[-1])
            drift = worse(m, meds[0], meds[1])
            flag = ""
            if drift > bound or (name != "setup_s" and max(spreads) > bound):
                flag = "  > bound"
            elif max(spreads) > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:16} {meds[0]:12.6g} {spreads[0]:9.4f} {meds[1]:12.6g} "
                  f"{spreads[1]:9.4f} {drift:7.3f} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()
