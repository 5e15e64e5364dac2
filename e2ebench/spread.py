#!/usr/bin/env python3
"""Spread report: runs the benchmark repeatedly and gives, per workload
and end-to-end metric, the median and the quartile distance as a share
of the median -- the evidence the bounds in BENCHMARK.json are set from.

Run from the root of a checkout:

    python3 e2ebench/spread.py --workloads org-audit,session-churn --seeds 1-10
    python3 e2ebench/spread.py --seeds 1-10 --save .bench_build/set1.json
    python3 e2ebench/spread.py --seeds 11-20 --compare .bench_build/set1.json

Each run gets its own seed. A spread is marked when it exceeds a third of
the metric's bound (setup_s is exempt from the spread check); with
--compare, a median worse than the saved set's by more than the bound is
marked too.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    for line in lines:
        if line.startswith("# diagnostics "):
            d = json.loads(line[len("# diagnostics "):])
            print(f"# {workload} seed {seed}: calibration_ms {d['calibration_ms']} "
                  f"calibration_mem_ms {d['calibration_mem_ms']} "
                  f"steal_pct {d['steal_pct']:.2f} loadavg {d['loadavg_end']}", file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save", help="write the raw values here")
    ap.add_argument("--compare", help="a file written by --save to compare medians against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    raw = {}
    for w in names:
        raw[w] = {}
        for s in seeds(args.seeds):
            for k, v in run_once(bench, w, s).items():
                raw[w].setdefault(k, []).append(v)
            print(f"# {w} seed {s} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    base = None
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)

    print(f"{'workload':<15} {'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}  flags")
    for w, metrics in raw.items():
        for k in sorted(metrics):
            med, spread = summarize(metrics[k])
            bound = bounds.get(k, 0)
            flags = []
            if k != "setup_s" and spread > bound / 3:
                flags.append("spread>bound/3")
            if k != "setup_s" and spread > bound:
                flags.append("SPREAD>BOUND")
            if base and k in base.get(w, {}):
                old = statistics.median(base[w][k])
                delta = (med - old) / old
                flags.append(f"vs saved {delta:+.3f}")
                if delta > bound:
                    flags.append("WORSE>BOUND")
            print(f"{w:<15} {k:<22} {med:>12.4f} {spread:>8.4f} {bound:>6}  {' '.join(flags)}")


if __name__ == "__main__":
    main()
