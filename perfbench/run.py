#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the default Quasar manager.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the repository's src/ tree) in
Release into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set, then runs one workload for the given host-time
budget. Everything the benchmark prints goes to standard output; its
last line is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 1 the traced run's spans are also written to
<build dir>/spans-<workload>-<seed>.jsonl.

Workloads and metrics are described in BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("churn-10k", "trace-google", "flash-crowd")
# A run measures for --seconds and then finishes its last repetition;
# the slowest repetition (trace-google) takes about 8 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


# The process group of the running child, killed if this script is.
_child = None


def _stop_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run_child(cmd, timeout, merge_stderr):
    """Run cmd in its own process group; kill the whole group on
    timeout. Returns (exit code, stdout bytes)."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if merge_stderr else None,
        start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail("{} did not finish within {} s".format(cmd[0], timeout))
    code = _child.returncode
    _child = None
    return code, out


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr only on failure."""
    code, out = run_child(cmd, timeout, merge_stderr=True)
    if code != 0:
        sys.stderr.write(out.decode(errors="replace"))
        fail("build step failed: " + " ".join(cmd))


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no quasar sources next to perfbench/; run from a full "
             "checkout of the repository")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", str(out), "-j", jobs,
                   "--target", "perfbench"], BUILD_TIMEOUT_S)
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", str(HERE / "data")]
    if args.trace:
        cmd += ["--spans-out",
                str(out / "spans-{}-{}.jsonl".format(args.workload,
                                                     args.seed))]
    code, out = run_child(cmd, RUN_TIMEOUT_S, merge_stderr=False)
    text = out.decode(errors="replace")
    if code != 0:
        sys.stdout.write(text)
        fail("perfbench exited with code {}".format(code))
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(text)
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
