#!/usr/bin/env python3
"""Builds Spangle's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload raster --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds a
Release tree (lock-rank checks off) under $CARGO_TARGET_DIR, default
.bench_build; later runs only rebuild what changed. The last line of
standard output is the result JSON; build output and progress go to
standard error. Each run also leaves a full record (and, with --trace 1,
a span file) under <build dir>/runs.

Extra flags (--scale, --corrupt, --out-dir) pass through to the binary;
the self-test uses them.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    tree = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", tree,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(tree, "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(binary, argv, out):
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out, "tmp")  # spill files stay in the tree
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Own process group: the executor daemons it forks join it, so none
    # outlives the run even when the benchmark dies without reaping them.
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %ds" % RUN_TIMEOUT_S)
        stdout = None
    stop_group(proc)
    if stdout is None:
        return 1, None
    lines = stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else None


def stop_group(proc):
    """Kills whatever is left of the run's process group and waits until
    it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log("processes of group %d still running" % proc.pid)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("Spangle sources (src/) not found next to perfbench/")
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if "--out-dir" not in extra:
        argv += ["--out-dir", os.path.join(out, "runs")]
    code, last = run(binary, argv + extra, out)
    if code != 0 or last is None:
        log("benchmark exited with code %s" % code)
        return code or 1
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
