#!/usr/bin/env python3
"""Build the perfbench Go module from source and run one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload anneal-cdd --seed 1 --seconds 15 --trace 0

The Go build cache, temporary files and trace output stay under
.bench_build/ in the working directory. The last line of standard output
is the result JSON; the exit code is the benchmark's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.abspath(".bench_build")
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-refs", os.path.join(HERE, "refs.json"),
        "-out", build,
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
