#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 28 --trace 0

Everything the build and the run write stays inside the checkout, under
.bench_build/. The wrapper exits non-zero, without printing a result, when
the checkout has no simulator sources to build against.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "core"))
            and os.path.isfile(os.path.join(bench, "go.mod"))):
        sys.stderr.write("perfbench: run from the repository root; simulator sources not found\n")
        return 2
    # A harness may name the build directory the way it would for Cargo.
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, out)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "",
        # The go command keeps its telemetry counters under the user config
        # directory; point that into the build directory too.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    env["PERFBENCH_WORK"] = os.path.join(out, "work")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
