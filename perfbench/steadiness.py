#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of runs of one commit.

Run from the repository root:

    python3 perfbench/steadiness.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steadiness.py --sets 1 --seeds 5 --workloads telemetry_ingest

For each workload, each set runs the benchmark command from BENCHMARK.json
once per seed. For every end-to-end metric it prints each set's median and
spread (the distance between the first and third quartile as a share of the
median, from statistics.quantiles(values, n=4)), the metric's bound, and how
far the second median moved from the first in the worse direction. A spread
above a third of the bound, or a shift above the bound, is flagged. Seeds
run from 1. Both sets use the same seeds, so the exact counts (pages_per_query, failed) must repeat run
for run, and the share of failed operations must be the same in every run;
any difference is flagged. Exits 1 if anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

EXACT = ("pages_per_query",)


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    return result, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    opts = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    command = spec["command"]
    workloads = opts.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = list(range(1, opts.seeds + 1))
    flagged = []

    for workload in workloads:
        sets = []
        for s in range(opts.sets):
            runs = []
            for seed in seeds:
                result, elapsed = run_once(command, workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    flagged.append(f"{workload} seed {seed}: correct is false")
                runs.append((seed, result, elapsed))
                print(f"  set {s + 1} {workload} seed {seed}: {elapsed:.1f} s, "
                      f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
            sets.append(runs)

        print(f"\n{workload}")
        print(f"  {'metric':<40} {'median1':>14} {'spread1':>8} {'median2':>14} "
              f"{'spread2':>8} {'shift':>7} {'bound':>6}")
        for m in metrics:
            name = m["name"]
            cols = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for _, r, _ in runs]
                cols.append((statistics.median(values), spread(values) if len(values) > 1 else 0.0))
            bound = m["bound"]
            shift = 0.0
            if len(cols) > 1 and cols[0][0]:
                worse = cols[1][0] - cols[0][0] if m["better"] == "lower" else cols[0][0] - cols[1][0]
                shift = worse / abs(cols[0][0])
            notes = []
            if any(sp > bound / 3 for _, sp in cols):
                notes.append("SPREAD")
            if shift > bound:
                notes.append("SHIFT")
            if notes:
                flagged.append(f"{workload} {name}: {' '.join(notes)}")
            line = f"  {name:<40} {cols[0][0]:>14.6g} {cols[0][1]:>8.4f}"
            if len(cols) > 1:
                line += f" {cols[1][0]:>14.6g} {cols[1][1]:>8.4f} {shift:>7.4f}"
            else:
                line += " " * 38
            line += f" {bound:>6} {' '.join(notes)}"
            print(line)

        for i, seed in enumerate(seeds):
            first = sets[0][i][1]
            for other in sets[1:]:
                second = other[i][1]
                pairs = [("failed", first["failed"], second["failed"])]
                pairs += [(k, first["metrics"][k]["value"], second["metrics"][k]["value"])
                          for k in EXACT]
                for key, a, b in pairs:
                    if a != b:
                        flagged.append(f"{workload} seed {seed}: {key} {a} != {b}")
        share = {r["failed"] / r["attempted"] for runs in sets for _, r, _ in runs}
        if len(share) > 1:
            flagged.append(f"{workload}: the share of failed operations differs between runs: {share}")
        print(f"  run time: max {max(e for runs in sets for _, _, e in runs):.1f} s\n", flush=True)

    if flagged:
        print("flagged:")
        for f in flagged:
            print("  " + f)
        return 1
    print("steady: every spread below a third of its bound, every shift within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
