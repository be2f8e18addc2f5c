#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Two builds of the benchmark package are kept
side by side under $CARGO_TARGET_DIR (default .bench_build): `timed`, with
the program's telemetry compiled out, and `traced`, with the `trace`
feature arming it. `--trace 0` runs the timed build and passes its output
through. `--trace 1` first runs the timed build with the same arguments,
then the traced build, handing it the untraced `latency_s.p50` so that it
can report the tracing overhead; the traced build's output is passed
through.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    cmd += features
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "e2ebench")


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] != "0"
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        timed = build(os.path.join(base, "timed"), [])
        traced = build(os.path.join(base, "traced"), ["--features", "trace"])
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if not trace:
        return subprocess.run([timed] + args).returncode

    untraced = args[:]
    untraced[untraced.index("--trace") + 1] = "0"
    first = subprocess.run([timed] + untraced, stdout=subprocess.PIPE, text=True)
    if first.returncode != 0:
        sys.stdout.write(first.stdout)
        return first.returncode
    p50 = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]["latency_s.p50"]["value"]
    return subprocess.run([traced] + args + ["--baseline-p50", repr(p50)]).returncode


if __name__ == "__main__":
    sys.exit(main())
