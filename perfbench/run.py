#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

perfbench/ is a Go module of its own that builds the repository's packages
from source through a replace directive. This script builds it into
.bench_build/ (Go's build cache, temporary files and settings included, so
nothing is written outside the checkout), runs it with the arguments given,
and exits with its exit code. The benchmark prints its result as the last
line of standard output; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    module = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=module, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
