#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For every workload in BENCHMARK.json and every seed, runs the benchmark's
command untraced, then (with --trace) once traced on the first seed.  For
each end-to-end metric it prints the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound.  Seeds are interleaved across
workloads so that slow phases of a shared machine fall on all of them.

    python3 perfbench/validate.py --seeds 1-10 --trace \\
        --out perfbench/results/dev-seeds.json
    python3 perfbench/validate.py --seeds 1001-1010 \\
        --out perfbench/results/held-out-seeds.json

Run from the repository root.  Exits 1 if any run fails or reports
correct: false.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))]
    started = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr[-2000:])
        return None, wall
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, "context": context, **result}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seeds = parse_seeds(args.seeds)
    runs = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            r, wall = run(bench, w, seed, False)
            ok &= bool(r and r["correct"])
            print(f"{w:14s} seed {seed:5d} {wall:6.1f}s "
                  + ("FAILED" if r is None else f"correct={r['correct']} failed={r['failed']}"),
                  flush=True)
            if r:
                runs[w].append(r)
    traced = {}
    if args.trace:
        for w in workloads:
            r, wall = run(bench, w, seeds[0], True)
            ok &= bool(r and r["correct"])
            print(f"{w:14s} traced seed {seeds[0]} {wall:6.1f}s", flush=True)
            if r:
                traced[w] = r
    summary = {}
    for w in workloads:
        summary[w] = {}
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            if len(values) < 2:
                continue
            s = spread(values)
            summary[w][m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                     "spread": s, "bound": m["bound"],
                                     "min": min(values), "max": max(values)}
            flag = "" if s <= m["bound"] / 3 else (" >bound/3" if s <= m["bound"] else " >BOUND")
            print(f"  {m['name']:12s} median {statistics.median(values):12.4f} {m['unit']:5s}"
                  f" spread {s:.4f} bound {m['bound']}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "run_seconds": bench["run_seconds"],
                       "summary": summary, "runs": runs, "traced": traced}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
