"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and traced,
and asserts that the last stdout line is the result object with exactly the
keys correct, attempted and failed and metrics, that the run is correct, and
that every end-to-end (untraced) or per-layer (traced) metric is present with
its declared unit. Then copies only BENCHMARK.json and the benchmark's
directories into an empty directory and asserts that the benchmark exits
non-zero there without printing a result. Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def check_result(proc, declared, label):
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: not correct: {proc.stdout[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{label}: metrics {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} reported as {got!r}, unit {m['unit']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w['name']} trace {trace}"
            proc = run(ROOT, "--workload", w["name"], "--trace", trace, "--size", "tiny")
            found = check_result(proc, declared, label)
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found

    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--trace", "0")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
        print(f"bare copy exits {proc.returncode} without a result: "
              f"{'ok' if proc.returncode and not last[0].startswith('{') else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
