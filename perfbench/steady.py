#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs the benchmark command from BENCHMARK.json as two (or more) sets of
runs, each run with its own seed, and prints for every workload and
end-to-end metric each set's median and quartiles, the spread (Q3 - Q1
as a share of the median) and whether the sets agree within the metric's
bound: every spread except setup_s's within the bound, and no later
set's median worse than the first set's by more than the bound.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads serve-jobs

Run it from the root of the repository. Raw results are written to
.bench_build/steady.json. Exits 1 when a set disagrees or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("raw: "):  # unscaled figures, for comparison
            f = line.split()[1:]
            result["raw"] = {f[i]: float(f[i + 1]) for i in range(0, len(f), 2)}
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect output {lines[-1]}")
    return result["metrics"], result.get("raw", {}), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs to compare")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--seconds", type=float, default=0, help="override run_seconds")
    ap.add_argument("--seed-base", type=int, default=100)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list of per-run values
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(opts.sets)]
    raw = [{w: {} for w in workloads} for _ in range(opts.sets)]
    for s in range(opts.sets):
        for i in range(opts.runs):
            for w in workloads:  # interleaved, so host drift hits every workload alike
                seed = opts.seed_base + 1000 * s + i
                got, unscaled, wall = run_once(bench["command"], w, seed, seconds)
                for m in metrics:
                    values[s][w][m].append(got[m]["value"])
                for m, v in unscaled.items():
                    raw[s][w].setdefault(m, []).append(v)
                print(f"set {s} run {i} {w} seed {seed}: {wall:.1f}s", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':20} {'metric':17} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'/bound':>6} {'vs set0':>8}  verdict")
    for w in workloads:
        for name, m in metrics.items():
            base = None
            for s in range(opts.sets):
                q1, med, q3, sp = spread(values[s][w][name])
                if base is None:
                    base = med
                change = (med - base) / base
                worse = change if m["better"] == "lower" else -change
                good = worse <= m["bound"] and (name == "setup_s" or sp <= m["bound"])
                ok = ok and good
                print(f"{w:20} {name:17} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:7.3f} {sp / m['bound']:6.2f} {change:+8.3f}  {'agree' if good else 'DISAGREE'}")
    print("\nunscaled wall-clock figures (the runs' raw: lines), spread per set:")
    for w in workloads:
        for name, vals in raw[0][w].items():
            spreads = " ".join(f"{spread(raw[s][w][name])[3]:7.3f}" for s in range(opts.sets))
            print(f"{w:20} {name:17} {spreads}")
    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump({"seconds": seconds, "values": values, "raw": raw}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
