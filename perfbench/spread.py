"""Spread report: run workloads repeatedly and compare each metric's spread to its bound.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed-base 1]
                                [--seconds S] [--trace 0|1] [--json OUT]

Runs ``perfbench/run.py`` once per seed (seed-base, seed-base + 1, ...) for
each workload, one run at a time, then prints per metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median against the metric's bound from BENCHMARK.json.
The per-call-kind figures from each run's ``leg`` lines are reported the
same way, without a bound. ``--json`` saves every value, so two reports can be
compared median against median. Exits 1 if a run fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    legs = {}
    for line in lines:
        words = line.split()
        if line.startswith("leg "):
            legs[words[1]] = float(words[2])

    return result, legs


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every measured value here")
    args = parser.parse_args()

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_specs}
    units = {**workloads.LEGS, "fail_ratio": "ratio", **{m["name"]: m["unit"] for m in metric_specs}}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values, legs = {}, {}
        for i in range(args.runs):
            seed = args.seed_base + i
            result, leg_values = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: not correct ({result['failed']} failed)")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in leg_values.items():
                legs.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        raw[workload] = {"metrics": values, "legs": legs}
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in list(values.items()) + list(legs.items()):
            if len(vals) < 2:
                continue
            q1, med, q3, spread = summarize(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound else "OVER"
                verdict += " (< bound/3)" if spread < bound / 3 else ""
                ok = ok and spread <= bound
            unit = units.get(name, "")
            print(f"  {name + ' [' + unit + ']':32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else f'{bound:6.2f}'} {verdict}")
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
