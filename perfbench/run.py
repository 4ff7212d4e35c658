#!/usr/bin/env python3
"""Repository benchmark of the DyC reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-start|steady-run|server-zipf \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the DyC libraries from src/ plus the dycbench program)
in Release mode under $CARGO_TARGET_DIR, or .bench_build when unset, then
runs one workload. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (the Chrome trace-event
JSON of the spans goes to <build dir>/traces/). See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-start", "steady-run", "server-zipf")
# Environment overrides that select a different program; a run refuses to
# start when one is set, so two runs cannot silently measure different code.
PINNED_ENV = ("DYC_EMIT_PLAN", "DYC_BACKEND", "DYC_VM_ENGINE")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "dycbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_hash():
    """SHA-256 over the library sources, so a result names its program even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated runner must not leave its build or dycbench behind:
    # SystemExit unwinds through subprocess.run, which kills the child and
    # waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    for var in PINNED_ENV:
        if var in os.environ:
            die(f"{var} is set; unset it so runs are comparable")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the DyC sources (src/) are not next to perfbench/")
    if args.seconds <= 0:
        die("--seconds must be positive")

    build_dir = os.path.join(build_root(), "dycbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "dycbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--commit", commit_id(),
           "--source-hash", source_hash()]
    if args.trace:
        trace_dir = os.path.join(build_root(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
