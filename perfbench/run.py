#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-bfs --seed 1 --seconds 20 --trace 0

Every build product (the binary, the Go build cache, Go's config and
telemetry files) goes under .bench_build/ in the current directory, so the
benchmark reads and writes only inside the checkout. Arguments are passed
through to the binary; its exit code is this script's exit code.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(build, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
