#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <virus_rbf|matern_cube|shaheen_dist> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error; standard output carries only the benchmark's own
lines, the last of which is the JSON result. The exit code is the build's
when it fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# One process, 2 executor threads and a 2-thread rayon pool.
THREADS = "2"


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["RAYON_NUM_THREADS"] = THREADS
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
