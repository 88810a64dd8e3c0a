#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload N times, one seed each,
and prints for every end-to-end metric the median, quartiles, min, max and
the quartile spread as a share of the median, next to the metric's bound
in BENCHMARK.json. Under each run it prints that run's unscaled wall-time
p50s and the host's slowness. With --traced it also makes one traced run
per seed and reports the tracing overhead (traced median over untraced
median, minus 1).

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads static-1k,wire-wal]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))


def run(workload, seed, seconds, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    traced_e2e = {}
    for line in lines:
        if line.startswith("traced end-to-end: "):
            for pair in line.split(": ", 1)[1].split():
                name, value = pair.split("=")
                traced_e2e[name] = float(value)
    return result, traced_e2e, lines


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, traced, shares = {}, {}, set()
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, _, lines = run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output check failed")
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
            # The unscaled figures beside them: wall-time p50s and the
            # host's slowness (see README, "CPU time, scaled by a yardstick").
            print("    " + "; ".join(
                line.split(" p99 ")[0] for line in lines
                if line.startswith(("wall ", "host slowness:"))), flush=True)
            if args.traced:
                _, e2e, _ = run(workload, seed, args.seconds, 1)
                for name, v in e2e.items():
                    traced.setdefault(name, []).append(v)
        print(f"== {workload}: {args.runs} runs in {time.time() - started:.0f} s, "
              f"failed shares {sorted(shares, key=str)}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
              f" {'spread':>7} {'bound':>6}")
        for name, vs in values.items():
            med, q1, q3, spread = summary(vs)
            bound = bounds.get(name)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {min(vs):>12.6g}"
                  f" {max(vs):>12.6g} {spread:>7.3f} {bound:>6}")
        for name, vs in traced.items():
            overhead = statistics.median(vs) / statistics.median(values[name]) - 1
            print(f"tracing overhead {name}: {overhead:+.3f}")
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")


if __name__ == "__main__":
    main()
