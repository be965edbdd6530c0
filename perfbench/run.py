#!/usr/bin/env python3
"""Builds and runs the layer-attributed benchmark (see README.md).

    python3 perfbench/run.py --workload ycsb-a|churn|churn-epoch|ship \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only rebuild
what changed. Build output goes to stderr. The benchmark's last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it name the platform and the output checks. Traced runs
(--trace 1) also leave trace.json (Chrome trace) and layers.txt under
<build dir>/runs/<workload>-s<seed>-t1/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb-a", "churn", "churn-epoch", "ship")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds; returns the binary path or exits 1."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        top, sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + sha
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    run_dir = os.path.join(out, "runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    # A relative run directory keeps the daemon's UNIX socket path short.
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.relpath(run_dir, ROOT),
               "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
