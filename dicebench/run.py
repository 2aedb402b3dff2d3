#!/usr/bin/env python3
"""Build the program under test and the benchmark, then run one workload.

Usage (from the repository root):

    python3 dicebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds, in release mode and offline, the repository's `dice-serve` and
`dice-fabric` binaries and the benchmark package in this directory, into
`$CARGO_TARGET_DIR` (default `.bench_build`). Then runs the benchmark binary
with the same arguments. Its last stdout line is the result JSON; build
output and the human-readable table go to stderr.

Exits non-zero without printing a result when the repository's sources are
not beside this directory or a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, packages, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    for p in packages:
        cmd += ["-p", p]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840)
    return done.returncode == 0


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("dicebench: the repository's Cargo.toml and crates/ are not beside "
              "this directory; nothing to build", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    if not build(root_manifest, ["dice-serve", "dice-fabric"], target_dir):
        print("dicebench: building dice-serve and dice-fabric failed", file=sys.stderr)
        return 2
    if not build(os.path.join(HERE, "Cargo.toml"), [], target_dir):
        print("dicebench: building the benchmark failed", file=sys.stderr)
        return 2
    bin_dir = os.path.join(target_dir, "release")
    cmd = [os.path.join(bin_dir, "dicebench"), *sys.argv[1:], "--bin-dir", bin_dir]
    return subprocess.run(cmd, cwd=ROOT, timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())
