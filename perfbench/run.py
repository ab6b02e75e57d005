#!/usr/bin/env python3
"""Build and run the drrgossip end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload complete-aggregates --seed 1 --seconds 16 --trace 0

The Go program in this directory is built from source against the
checkout's drrgossip module (the parent directory). Every build
artefact, the Go build cache and the Go configuration directory live
under the build directory (CARGO_TARGET_DIR if set, else .bench_build),
so nothing outside the checkout is read or written. The benchmark's
standard output is passed through unchanged; its last line is the JSON
result. The exit status is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
