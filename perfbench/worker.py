"""Benchmark worker: a fresh interpreter that runs one workload in-process.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --workdir DIR

`setup` imports fdprecode from the checkout's ``src``, resolves the
workload's constellations, builds its decoder tables and prints ``ready``;
run.py times it from process start to that line.

`run` repeats the workload's cycle of ``fdprecode.cli.main(argv)`` calls
for about S seconds (a cycle starts only if it should end less than half a
cycle after S), gates every call's output, and writes
``result.json`` (and, when tracing, ``spans.jsonl``) into DIR. With tracing
on, untraced and traced cycles alternate, so both walls come from one
process and every traced CSV is compared with the untraced ones.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def import_program():
    """Import fdprecode from this checkout, refusing any other copy."""
    import fdprecode
    import fdprecode.cli
    where = os.path.realpath(fdprecode.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"fdprecode imported from {where}, not from {SRC}")
    return fdprecode


def setup(workload):
    fdprecode = import_program()
    from fdprecode.detector import FastMLDecoder, codeword_matrix
    if workload == "design":
        for name in workloads.DESIGN_PRESETS:
            fdprecode.preset(*(int(v) for v in name.split("x")))
    else:
        nt = {"study-nt3": 3, "cer-nt8": 8, "cer-nt16": 16}[workload]
        cs = fdprecode.preset(nt, 1)
        FastMLDecoder(fdprecode.sum_constellation(cs))
        if workload == "study-nt3":
            codeword_matrix(cs)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def invoke(main, argv):
    """Run one CLI call in-process; returns (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback is a failed call, not a benchmark crash
        code = f"exception {type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    return code, out.getvalue() + err.getvalue(), wall


def run(args):
    fdprecode = import_program()
    import numpy
    import scipy

    refs = {}
    if args.size == "full":
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
            refs = json.load(f).get(args.workload, {}).get(str(args.seed), {})
    pinned = bool(refs)
    workloads.write_inputs(args.workload, args.size, args.workdir)
    calls = workloads.build(args.workload, args.seed, args.size, args.workdir)

    tracer = tracing.Tracer() if args.trace else None
    first_csv = {}
    cycles = []
    attempted = failed = 0
    failures = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(tracer) and len(cycles) % 2 == 1
        patches = None
        if traced:
            tracer.cycle = len(cycles)
            patches = tracing.install(tracer)
        earlier = {}
        walls = {}
        units = {}
        try:
            for call in calls:
                code, stdout, wall = invoke(fdprecode.cli.main, call.argv)
                csv_text = None
                if call.gate in ("simulate", "dmin") and code == call.expect:
                    with contextlib.suppress(OSError), open(call.out, encoding="ascii") as f:
                        csv_text = f.read()
                earlier[call.key] = (stdout, csv_text)
                walls[call.key] = wall
                problems = workloads.check_call(call, code, stdout, csv_text, pinned, earlier)
                if csv_text is not None:
                    units[call.key] = workloads.units_done(call, csv_text)
                    if call.key in refs and csv_text != refs[call.key]:
                        problems.append("CSV differs from the stored reference")
                    if first_csv.setdefault(call.key, csv_text) != csv_text:
                        problems.append("CSV differs from this run's first cycle"
                                        + (" (traced vs untraced)" if tracer else ""))
                attempted += 1
                if problems:
                    failed += 1
                    failures.append({"cycle": len(cycles), "call": call.key, "problems": problems})
        finally:
            if patches:
                tracing.uninstall(patches)
        cycles.append({"traced": traced, "wall_s": sum(walls.values()),
                       "calls": walls, "units": units})
        if len(cycles) == 1:  # the memory one pass needs, before allocator retention creeps
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # start another cycle only if it should end less than half a cycle late
        ends_late = time.perf_counter() + cycles[-1]["wall_s"] / 2 >= deadline
        if ends_late and (not tracer or len(cycles) >= 2):
            break

    if tracer:
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    result = {
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "pinned": pinned, "cycles": cycles, "csv": first_csv,
        "legs": {c.key: c.leg for c in calls},
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "fdprecode": fdprecode.__version__},
    }
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workload)
    else:
        run(args)


if __name__ == "__main__":
    main()
