#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload home_day --seed 42 --seconds 36 --trace 0

Run from the repository root. `--trace 0` runs `perfbench` and prints the
end-to-end metrics; `--trace 1` runs `perfbench-traced`, which also writes
the span log to `<target>/perfbench-trace/<workload>-seed<seed>.jsonl` and
prints the per-layer metrics. The build goes to `$CARGO_TARGET_DIR`, or
`.bench_build` when it is unset. The exit code is the benchmark's: 0 when
every output check passed, 1 when one failed, 2 for bad arguments; a failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path


def flag(args, name):
    """The value following `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(here / "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    traced = flag(args, "--trace") == "1"
    exe = target / "release" / ("perfbench-traced" if traced else "perfbench")
    if traced:
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.jsonl"
        args = args + ["--trace-file", str(target / "perfbench-trace" / name)]
    return subprocess.run([str(exe)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
