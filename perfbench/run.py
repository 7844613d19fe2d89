#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload websearch_dcp --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary. The Go build cache, the binary and
all outputs live under .bench_build/ in the checkout, so the benchmark
reads and writes nothing outside it. The exit code is the binary's, or
non-zero without a result line when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # Keep the toolchain's own config and telemetry files in the
        # checkout too, and never fetch another toolchain or module.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    return env


def build(env):
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main():
    env = go_env()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BIN] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
