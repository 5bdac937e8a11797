#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny scale.

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py untraced and traced, and checks
that the result line has exactly the result keys and every metric
BENCHMARK.json names (with its unit), that no operation failed, and that
the traced run wrote its run record and span file. It then runs each
workload with --corrupt, which perturbs one answer, and checks that the
correctness checks catch it. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.05"


def run(workload, trace, out_dir, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace, "--scale", SCALE, "--out-dir", out_dir] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int), what
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, "%s: metrics differ from BENCHMARK.json: %s" % (
        what, sorted(set(got) ^ set(expected)))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (what, name)
        assert isinstance(m["value"], (int, float)), (what, name)
        assert math.isfinite(m["value"]), (what, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, target, "selftest")

    for w in [w["name"] for w in spec["workloads"]]:
        result = run(w, "0", out_dir)
        check_schema(result, e2e, w + " untraced")
        assert result["correct"] and result["failed"] == 0, (w, result)
        for name, m in result["metrics"].items():
            assert m["value"] > 0, "%s: %s is not positive" % (w, name)

        result = run(w, "1", out_dir)
        check_schema(result, layers, w + " traced")
        assert result["correct"] and result["failed"] == 0, (w, result)
        for suffix in (".json", ".spans.json"):
            path = os.path.join(out_dir, "%s-seed7-trace1%s" % (w, suffix))
            with open(path) as f:
                json.load(f)

        result = run(w, "0", out_dir, "--corrupt")
        assert not result["correct"] and result["failed"] >= 1, (
            "%s: a perturbed answer went unnoticed" % w)
        print("ok  %s" % w, flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
