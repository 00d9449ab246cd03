"""The benchmark's four workloads: CLI invocations, their sizes and their gates.

A workload is one cycle of `fdprecode` command lines, each run in-process by
the worker through ``fdprecode.cli.main(argv)``. Every call names the
correctness gate its output must pass; a call fails when its exit code is not
the expected one or its gate reports a problem. Inputs depend only on the
seed (the design workload has no random inputs, so the seed orders its
calls). Sizes are fixed per size class, never scaled by run length, so CSVs
are comparable across runs and against the stored references.
"""

import math
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("study-nt3", "cer-nt8", "cer-nt16", "design")

# informational per-call-kind figures, printed by name with their unit
LEGS = {
    "trials_per_s": "1/s",
    "trials_per_s_2t": "1/s",
    "baseline_trials_per_s": "1/s",
    "samples_per_s": "1/s",
    "check_s": "s",
    "optimize_s": "s",
}

# KS p-value floor: 0.01 where the seed's output is pinned by a
# stored reference, and a level a true chi-square sample misses once per
# million seeds elsewhere, so an unpinned seed cannot fail by chance
KS_P_PINNED = 0.01
KS_P_UNPINNED = 1e-6

# exact minimum sum distances of the presets that fit the enumeration budget
# (3x4 and 4x4 collide under the odd-integer QAM convention and must FAIL)
DESIGN_PRESETS = {
    "3x1": (0, 1.35), "3x2": (0, 0.5), "3x4": (1, 0.0),
    "4x1": (0, 1.0), "4x2": (0, 0.25), "4x4": (1, 0.0),
    "8x1": (0, 0.25), "8x2": (0, 0.015625), "16x1": (0, 0.015625),
}

# constellation inputs written by the worker: acceptance criterion 7's base
# (the third set must come back rotated by pi/4 and scaled by 0.675), and
# nt copies of 16-QAM with odd-integer levels
C7_BASE = "3 1\n1 -1 0\n1 1 0\n2 0 -1\n2 0 1\n3 -1 0\n3 1 0\n"


def qam16_base(nt):
    levels = (-3, -1, 1, 3)
    return f"{nt} 4\n" + "".join(f"{i} {u} {v}\n" for i in range(1, nt + 1)
                                  for u in levels for v in levels)


SIZES = {
    "full": {
        "study-nt3": {"trials": 262144, "target": 200, "count": 1 << 20},
        "cer-nt8": {"trials": 262144, "target": 5000},
        "cer-nt16": {"trials": 65536},
        "design": {"presets": tuple(DESIGN_PRESETS), "c7": (0.025, math.pi / 36),
                   "qam16": (4, 0.05, math.pi / 18)},
    },
    "tiny": {
        "study-nt3": {"trials": 4096, "target": None, "count": 4096},
        "cer-nt8": {"trials": 2048, "target": None},
        "cer-nt16": {"trials": 256},
        "design": {"presets": ("3x1", "3x4", "4x2"), "c7": (0.025, math.pi / 36),
                   "qam16": (3, 0.05, math.pi / 18)},
    },
}

# Trial counts each point must end with. At full size every stopping decision
# is far from the threshold (the nearest is over 13 standard deviations away),
# so the work done is the same for every seed: 3x1 nr=2 proposed errors per
# 131072-trial group are about 4100, 600 and 41 at 9, 12 and 15 dB, the
# unprecoded baseline's 9200, 3200 and 1000; 8x1's are 16900 and 860 at 25
# and 30 dB.
PLANS = {
    "full": {
        "study-nt3": {"proposed": (131072, 131072, 262144), "baseline": (131072,) * 3},
        "cer-nt8": {"proposed": (131072, 262144)},
        "cer-nt16": {"proposed": (65536,)},
    },
    "tiny": {
        "study-nt3": {"proposed": (4096,) * 3, "baseline": (4096,) * 3},
        "cer-nt8": {"proposed": (2048,) * 2},
        "cer-nt16": {"proposed": (256,)},
    },
}


@dataclass
class Call:
    key: str                  # unique within the cycle; names the output file
    leg: str | None           # LEGS entry this call's time feeds
    argv: list
    gate: str                 # gate kind, see check_call
    expect: int = 0           # expected exit code
    out: str | None = None    # CSV or constellation file the call writes
    same_as: str | None = None  # key of a call whose CSV this one must equal
    info: dict = field(default_factory=dict)


def _simulate(preset, nr, snr, trials, target, seed, threads, scheme, out):
    argv = ["simulate", "--preset", preset, "--nr", str(nr), "--snr", snr,
            "--trials", str(trials), "--seed", str(seed), "--threads", str(threads),
            "--scheme", scheme, "--out", out]
    if target is not None:
        argv += ["--target-errors", str(target)]
    return argv


def build(workload, seed, size, workdir):
    """The ordered calls of one cycle; `workdir` holds inputs and outputs."""
    p = SIZES[size][workload]
    plan = PLANS[size].get(workload, {})
    calls = []
    if workload == "study-nt3":
        for key, threads, scheme, leg in (
                ("proposed-1t", 1, "proposed", "trials_per_s"),
                ("proposed-2t", 2, "proposed", "trials_per_s_2t"),
                ("baseline-1t", 1, "unprecoded_vblast", "baseline_trials_per_s")):
            out = f"{workdir}/{key}.csv"
            kind = "baseline" if scheme != "proposed" else "proposed"
            calls.append(Call(key, leg, _simulate("3x1", 2, "9:15:3", p["trials"], p["target"],
                                                  seed, threads, scheme, out),
                              "simulate", out=out, info={"plan": plan[kind]},
                              same_as="proposed-1t" if key == "proposed-2t" else None))
        out = f"{workdir}/dmin.csv"
        calls.append(Call("dmin", "samples_per_s",
                          ["dmin-pdf", "--preset", "3x1", "--nr", "2", "--count", str(p["count"]),
                           "--bins", "60", "--seed", str(seed), "--threads", "1", "--out", out],
                          "dmin", out=out, info={"count": p["count"], "bins": 60}))
    elif workload == "cer-nt8":
        for key, threads, leg in (("proposed-1t", 1, "trials_per_s"),
                                  ("proposed-2t", 2, "trials_per_s_2t")):
            out = f"{workdir}/{key}.csv"
            calls.append(Call(key, leg, _simulate("8x1", 1, "25:30:5", p["trials"], p["target"],
                                                  seed, threads, "proposed", out),
                              "simulate", out=out, info={"plan": plan["proposed"]},
                              same_as="proposed-1t" if threads == 2 else None))
    elif workload == "cer-nt16":
        out = f"{workdir}/proposed-1t.csv"
        calls.append(Call("proposed-1t", "trials_per_s",
                          _simulate("16x1", 1, "50", p["trials"], None, seed, 1, "proposed", out),
                          "simulate", out=out, info={"plan": plan["proposed"]}))
    elif workload == "design":
        blocks = []
        for name in p["presets"]:
            expect, anchor = DESIGN_PRESETS[name]
            blocks.append([Call(f"check-{name}", "check_s", ["check-constellation", name],
                                "check", expect=expect, info={"anchor": anchor})])
        b_step, phi_step = p["c7"]
        out = f"{workdir}/c7-opt.txt"
        blocks.append([Call("optimize-c7", "optimize_s",
                            ["optimize-constellation", "--constellation-file",
                             f"{workdir}/c7-base.txt", "--budget", "2.455625",
                             "--b-step", repr(b_step), "--phi-step", repr(phi_step), "--out", out],
                            "optimize-c7", info={"b_step": b_step, "phi_step": phi_step})])
        _, b_step, phi_step = p["qam16"]
        out = f"{workdir}/qam16-opt.txt"
        blocks.append([
            Call("optimize-qam16", "optimize_s",
                 ["optimize-constellation", "--constellation-file", f"{workdir}/qam16-base.txt",
                  "--budget", "10.7", "--b-step", repr(b_step), "--phi-step", repr(phi_step),
                  "--out", out], "optimize-qam16"),
            Call("recheck-qam16", "check_s", ["check-constellation", out], "recheck",
                 same_as="optimize-qam16"),
        ])
        random.Random(seed).shuffle(blocks)
        calls = [c for block in blocks for c in block]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def write_inputs(workload, size, workdir):
    if workload == "design":
        nt = SIZES[size]["design"]["qam16"][0]
        for name, text in (("c7-base.txt", C7_BASE), ("qam16-base.txt", qam16_base(nt))):
            with open(f"{workdir}/{name}", "w", encoding="ascii") as f:
                f.write(text)


def units_done(call, csv_text):
    """Trials or samples a call completed, for its leg's rate."""
    if call.gate == "simulate":
        return sum(int(row.split(",")[1]) for row in csv_text.splitlines()[1:])
    if call.gate == "dmin":
        return call.info["count"]
    return None


def _float_after(pattern, text):
    m = re.search(pattern, text)
    return float(m.group(1)) if m else None


def check_call(call, code, stdout, csv_text, pinned, earlier):
    """Problems with one call's result; an empty list means it passed.

    `pinned` says whether a stored reference fixes this seed's output;
    `earlier` maps keys of calls already run this cycle to (stdout, csv).
    """
    problems = []
    if code != call.expect:
        problems.append(f"exit code {code}, expected {call.expect}")
        return problems
    if call.gate in ("simulate", "dmin") and csv_text is None:
        return ["no CSV written"]
    if call.gate == "simulate":
        rows = csv_text.splitlines()
        if rows[0] != "snr_db,trials,errors,cer,ci_lo,ci_hi":
            problems.append(f"bad CSV header {rows[0]!r}")
        trials = tuple(int(r.split(",")[1]) for r in rows[1:])
        if trials != tuple(call.info["plan"]):
            problems.append(f"trials per point {trials}, planned {call.info['plan']}")
    elif call.gate == "dmin":
        p_value = _float_after(r"p-value = (\S+),", stdout)
        floor = KS_P_PINNED if pinned else KS_P_UNPINNED
        if p_value is None or not p_value >= floor:
            problems.append(f"KS p-value {p_value} below {floor}")
        rows = csv_text.splitlines()[1:]
        if len(rows) != call.info["bins"] or sum(int(r.split(",")[2]) for r in rows) != call.info["count"]:
            problems.append("histogram does not hold every sample in the requested bins")
    elif call.gate == "check":
        d = _float_after(r"min sum distance: (\S+) ", stdout)
        if d != call.info["anchor"]:
            problems.append(f"min sum distance {d}, anchor {call.info['anchor']}")
        verdict = "FAIL" if call.expect else "PASS"
        if f"full diversity: {verdict}" not in stdout:
            problems.append(f"verdict is not {verdict}")
        if call.expect and "witness: codewords" not in stdout:
            problems.append("failing preset printed no witness")
    elif call.gate == "optimize-c7":
        b = _float_after(r"set 3: b = (\S+),", stdout)
        phi = _float_after(r"set 3: b = \S+, phi = (\S+) rad", stdout)
        if b is None or abs(b - 0.675) > call.info["b_step"] + 1e-12:
            problems.append(f"set 3 scale {b}, expected 0.675 within one grid step")
        if phi is None or abs(phi - math.pi / 4) > call.info["phi_step"] + 1e-12:
            problems.append(f"set 3 rotation {phi}, expected pi/4 within one grid step")
    elif call.gate == "optimize-qam16":
        d = _float_after(r"achieved min sum distance: (\S+)", stdout)
        if d is None or not d > 0:
            problems.append(f"achieved min sum distance {d}")
    elif call.gate == "recheck":
        if "full diversity: PASS" not in stdout:
            problems.append("optimized design does not re-check as PASS")
        achieved = _float_after(r"achieved min sum distance: (\S+)", earlier[call.same_as][0])
        d = _float_after(r"min sum distance: (\S+) ", stdout)
        if achieved is None or d != float(f"{achieved:.10g}"):
            problems.append(f"re-checked distance {d} differs from the optimizer's {achieved}")
    if call.same_as and call.gate != "recheck" and csv_text != earlier[call.same_as][1]:
        problems.append(f"CSV differs from {call.same_as}")
    return problems
