#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run it.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo's build output goes to standard error,
so the benchmark's last line of standard output stays its JSON result. The
exit code is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build the release binary; return its path, or exit on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(target, "release", "wallbench")


def main():
    exe = build()
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
