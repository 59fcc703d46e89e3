#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check [--seed N]

The first call configures and builds perfbench/ (which builds libcnfet from
the repository's own CMakeLists) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later calls only rebuild
what changed. Build output goes to stderr. The benchmark binary then runs
with the given arguments and its stdout passes through unchanged: its last
line is the result JSON. A traced run also writes its spans to
<build root>/traces/<workload>-seed<N>.json.

Exits non-zero without printing a result when the build fails, for example
outside a repository checkout.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERFBENCH_DIR)
WORKLOADS = ("routed_rca10k", "opt_rand5k", "mc_tier1", "serve_mix")
# The load the benchmark may put on the host: build jobs, like the
# workloads' threads and connections, stay at or below this.
MAX_JOBS = 4


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(REPO_ROOT, root)


def run_quiet(command):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(command, cwd=REPO_ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    return result.returncode == 0


def build(build_dir):
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "-S", PERFBENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]):
        return None
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs]):
        return None
    binary = os.path.join(build_dir, "cnfet_perfbench")
    return binary if os.path.isfile(binary) else None


def commit_id():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                                capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else "unknown"


def source_digest():
    """SHA-256 over the library sources, the root build file and the
    benchmark's own files: identifies the code measured even where the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [os.path.join(REPO_ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, _, names in os.walk(os.path.join(REPO_ROOT, top)):
            files.extend(os.path.join(directory, name) for name in names)
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, REPO_ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_child(command):
    """Runs the benchmark binary, stopping it if this script is stopped."""
    child = subprocess.Popen(command, cwd=REPO_ROOT)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seconds is None
                                or args.trace is None):
        parser.error("--workload, --seconds and --trace are required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.self_check:
        return run_child([binary, "--self-check", "--seed", str(args.seed)])
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id(), "--source-digest", source_digest()]
    if args.trace:
        command += ["--trace-out", os.path.join(
            root, "traces", f"{args.workload}-seed{args.seed}.json")]
    return run_child(command)


if __name__ == "__main__":
    sys.exit(main())
