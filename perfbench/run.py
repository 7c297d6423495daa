#!/usr/bin/env python3
"""Build colord's benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload hit --seed 1 --seconds 20 --trace 0

All arguments go to the benchmark (see main.go); `--workload all` runs hit,
miss, churn and gateway one after another, each printing its full report and
result line. The build cache, the binary, temporary files and traced spans
live under .bench_build/ in the current directory ($CARGO_TARGET_DIR when
set), so a run reads and writes nothing outside the checkout. Build output
goes to standard error; standard output is the benchmark's report, ending
with one JSON result line.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    args = ["--tmp", tmp, "--trace-dir", os.path.join(build, "trace")] + sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if i < len(args) and args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in ("hit", "miss", "churn", "gateway")]
    for a in runs:
        code = subprocess.run([binary] + a, cwd=root, env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
