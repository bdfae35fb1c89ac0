#!/usr/bin/env python3
"""Steadiness check: run one workload N times back to back and report how
much each metric moves.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-hot-cold --runs 10 --seconds 30

Run i uses seed --seed + i (pass --same-seed to repeat one seed). For each
metric it prints the median, the interquartile range as a share of the
median (quartiles as Python's statistics.quantiles(values, n=4) gives
them), and (max - min) / median. With --bounds it also marks every
end-to-end metric whose IQR share is above a third of its bound in
BENCHMARK.json. It exits nonzero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {p.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bounds", default="", help="BENCHMARK.json to check IQR shares against")
    args = ap.parse_args()

    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        res = run_once(args.workload, seed, args.seconds, args.trace)
        if not res["correct"] or res["failed"]:
            raise SystemExit(f"seed {seed}: incorrect result {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# run {i + 1}/{args.runs} seed {seed}: attempted {res['attempted']}", file=sys.stderr)

    print(f"{'metric':28} {'median':>14} {'iqr/med':>9} {'range/med':>10} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        iqr = (q[2] - q[0]) / med if med else float("nan")
        rng = (max(v) - min(v)) / med if med else float("nan")
        flag = ""
        if name in bounds:
            flag = f"{bounds[name]:6.3f}" + (" !" if name != "setup_s" and iqr > bounds[name] / 3 else "")
        print(f"{name:28} {med:14.6g} {iqr:9.4f} {rng:10.4f} {flag}")
        print(f"  values: {' '.join(f'{x:.6g}' for x in v)}")


if __name__ == "__main__":
    main()
