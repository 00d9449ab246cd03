"""fdprecode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it needs only Python with numpy and scipy,
and imports fdprecode from the checkout's ``src`` (nothing to build).

With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` is the
median of several fresh interpreters timed from start until fdprecode is
imported and the workload's decoder tables are built; then one fresh worker
process repeats the workload's cycle of CLI calls for S seconds, and
``cycle_s`` is the median cycle wall time and ``peak_rss_mb`` that process's
peak resident memory. With ``--trace 1`` the worker alternates untraced and
traced cycles and the per-layer metrics come from the traced ones.

Every CLI call's exit code and output are checked (see workloads.py); a call
that fails counts in ``failed``. The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it give machine facts, the per-call-kind rates by name and
unit, and any failures. Work files go under ``.perfbench-work/`` in the
checkout and are removed at exit. Exit code 0 means a result was printed.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 5
DEADLINE_S = 170.0  # whole run, inside the benchmark's 180 s limit per run

END_TO_END = {"cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("FDPRECODE_THREADS", None)
    # at most the two threads the workloads ask for: no native thread pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def remaining(t0):
    left = DEADLINE_S - (time.perf_counter() - t0)
    if left <= 0:
        raise BenchError("out of time")
    return left


def time_setup(workload, t0):
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "setup", "--workload", workload],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], remaining(t0))[0]:
            raise BenchError("setup probe ran out of time")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=remaining(t0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def run_worker(args, workdir, t0):
    cmd = [sys.executable, WORKER, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=remaining(t0))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        raise BenchError("worker ran out of time") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as f:
        return json.load(f)


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fdprecode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def leg_rates(result):
    """Per-call-kind figures (workloads.LEGS) as medians over untraced cycles."""
    per_cycle = {}
    for cycle in result["cycles"]:
        if cycle["traced"]:
            continue
        walls, units = {}, {}
        for key, wall in cycle["calls"].items():
            leg = result["legs"][key]
            walls[leg] = walls.get(leg, 0.0) + wall
            if cycle["units"].get(key) is not None:
                units[leg] = units.get(leg, 0) + cycle["units"][key]
        for leg, wall in walls.items():
            value = units[leg] / wall if leg in units else wall
            per_cycle.setdefault(leg, []).append(value)
    return {leg: statistics.median(v) for leg, v in per_cycle.items()}


def trace_metrics(result, workdir):
    spans = tracing.read_spans(os.path.join(workdir, "spans.jsonl"))
    traced = [i for i, c in enumerate(result["cycles"]) if c["traced"]]
    per_cycle, problems = [], []
    for i in traced:
        m, p = tracing.aggregate([s for s in spans if s["cycle"] == i])
        per_cycle.append(m)
        problems += p
    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    untraced = [c["wall_s"] for c in result["cycles"] if not c["traced"]]
    metrics["trace.overhead_ratio"] = (statistics.median(result["cycles"][i]["wall_s"]
                                                         for i in traced)
                                       / statistics.median(untraced))
    return metrics, problems


def bench(args, workdir, t0):
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "size": args.size, "cpu_count": os.cpu_count(),
             "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
             "git_commit": git_commit(), "source_sha256": source_digest()}
    setup = []
    if not args.trace:
        setup = [time_setup(args.workload, t0) for _ in range(SETUP_STARTS)]
    result = run_worker(args, workdir, t0)
    facts.update(result["versions"])
    facts["reference_pinned"] = result["pinned"]
    print("machine " + json.dumps(facts, sort_keys=True))
    legs = leg_rates(result)
    for leg, value in legs.items():
        print(f"leg {leg} {value!r} {workloads.LEGS[leg]}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"leg fail_ratio {fail_ratio!r} ratio")
    for f in result["failures"]:
        print(f"failure cycle {f['cycle']} {f['call']}: {'; '.join(f['problems'])}")

    untraced = [c["wall_s"] for c in result["cycles"] if not c["traced"]]
    problems = []
    if args.trace:
        layer, problems = trace_metrics(result, workdir)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        for p in problems:
            print(f"trace accounting: {p}")
    else:
        values = {"cycle_s": statistics.median(untraced), "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail = {"cycles": len(result["cycles"]), "cycle_walls": untraced, "setup_walls": setup}
    print("detail " + json.dumps(detail))
    return {"correct": result["failed"] == 0 and not problems,
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description="Run one fdprecode benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' is for the smoke test; references apply to 'full' only")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fdprecode", "cli.py")):
        print(f"error: no fdprecode sources under {ROOT}/src", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        report = bench(args, workdir, t0)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
