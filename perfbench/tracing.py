"""Outside-in span tracer for fdprecode and the per-layer metrics built from it.

`install` replaces the names that callers look up (module attributes such as
``fdprecode.simulator.gram_polar`` or ``fdprecode.cli.run_cer_sweep``, and the
``FastMLDecoder.decode_batch`` method) with timing wrappers, so the real
program runs unchanged underneath; `uninstall` puts the originals back.

Each call records one span: name, start, end, parent span, thread and a few
counts read from its arguments or result. Spans stay in memory, guarded by a
lock because the simulator calls the stream, channel, precoder and detector
layers from worker threads, and are written out as JSON lines when the run
ends. A span started on a worker thread with no open span of its own takes
as parent the sweep that fanned the work out.

`aggregate` turns the spans of one traced cycle into the per-layer metrics of
`PER_LAYER`. Busy times are summed over threads. Self time is a span's
duration minus the part of it that its children cover. This module imports
nothing from numpy, so run.py can aggregate without it.
"""

import functools
import json
import threading
import time

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("streams.philox_ms", "ms", "lower"),
    ("streams.uniform_ms", "ms", "lower"),
    ("streams.ndtri_ms", "ms", "lower"),
    ("streams.raw_bytes", "B", "lower"),
    ("channel.gram_ms", "ms", "lower"),
    ("channel.gram_out_bytes", "B", "lower"),
    ("precoder.angles_ms", "ms", "lower"),
    ("precoder.angles_calls", "count", "lower"),
    ("detector.decode_ms", "ms", "lower"),
    ("detector.decoded", "count", "higher"),
    ("detector.init_ms", "ms", "lower"),
    ("constellation.sum_ms", "ms", "lower"),
    ("constellation.check_ms", "ms", "lower"),
    ("constellation.pairs_checked", "count", "higher"),
    ("constellation.optimize_ms", "ms", "lower"),
    ("simulator.sweep_ms", "ms", "lower"),
    ("simulator.self_ms", "ms", "lower"),
    ("simulator.trials", "count", "higher"),
    ("simulator.errors", "count", "lower"),
    ("simulator.busy_ratio", "ratio", "higher"),
    ("simulator.baseline_self_ms", "ms", "lower"),
    ("simulator.dmin_ms", "ms", "lower"),
    ("simulator.ks_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# span name -> per-layer metric that sums its busy time
_BUSY_MS = {
    "streams.raw_block": "streams.philox_ms",
    "streams.uniform_open": "streams.uniform_ms",
    "streams.normal_from_uniform": "streams.ndtri_ms",
    "channel.gram_polar": "channel.gram_ms",
    "precoder.feedback_angles_batch": "precoder.angles_ms",
    "detector.decode_batch": "detector.decode_ms",
    "detector.FastMLDecoder": "detector.init_ms",
    "detector.codeword_matrix": "detector.init_ms",
    "constellation.sum_constellation": "constellation.sum_ms",
    "constellation.check_full_diversity": "constellation.check_ms",
    "constellation.optimize_rotations_scalings": "constellation.optimize_ms",
    "simulator.sample_dmin_pdf": "simulator.dmin_ms",
    "simulator.ks_test_chisq": "simulator.ks_ms",
    "cli.main": "cli.main_ms",
}

# span attribute -> per-layer count that sums it
_COUNTS = {
    "raw_bytes": "streams.raw_bytes",
    "gram_out_bytes": "channel.gram_out_bytes",
    "decoded": "detector.decoded",
    "pairs_checked": "constellation.pairs_checked",
}

SWEEP = "simulator.run_cer_sweep"


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans = []
        self.cycle = None    # tag stamped on every span, set by the caller per cycle
        self._fanout = None  # open span whose work runs on pool threads

    def call(self, name, fn, args, kwargs, attrs=None, fanout=False):
        """Run fn(*args, **kwargs) inside a span; attrs(args, kwargs, result) adds counts."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._fanout
        stack.append(span_id)
        outer_fanout = self._fanout
        if fanout:
            self._fanout = span_id
        result = None
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            if fanout:
                self._fanout = outer_fanout
            stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "thread": threading.get_ident(), "cycle": self.cycle}
            if ok and attrs is not None:
                record.update(attrs(args, kwargs, result))
            with self._lock:
                self.spans.append(record)

    def write(self, path):
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")


def _sweep_attrs(args, kwargs, curve):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return {"scheme": args[0].scheme, "threads": int(threads),
            "trials": int(curve.trials.sum()), "errors": int(curve.errors.sum())}


def install(tracer):
    """Wrap the looked-up names; returns the patch list for `uninstall`."""
    from fdprecode import cli, constellation, detector, simulator, streams

    patches = []

    def wrap(owner, attr, name, attrs=None, fanout=False):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs, fanout)

        setattr(owner, attr, traced)
        patches.append((owner, attr, original))

    wrap(streams, "raw_block", "streams.raw_block",
         lambda a, k, r: {"raw_bytes": int(r.nbytes)})
    wrap(streams, "uniform_open", "streams.uniform_open")
    wrap(streams, "normal_from_uniform", "streams.normal_from_uniform")
    wrap(simulator, "gram_polar", "channel.gram_polar",
         lambda a, k, r: {"gram_out_bytes": int(r[0].nbytes + r[1].nbytes)})
    wrap(simulator, "feedback_angles_batch", "precoder.feedback_angles_batch")
    wrap(simulator, "sum_constellation", "constellation.sum_constellation")
    wrap(simulator, "codeword_matrix", "detector.codeword_matrix")
    wrap(constellation, "sum_constellation", "constellation.sum_constellation")
    wrap(detector.FastMLDecoder, "decode_batch", "detector.decode_batch",
         lambda a, k, r: {"decoded": int(a[1].shape[0])})

    decoder_cls = simulator.FastMLDecoder

    class TracedFastMLDecoder(decoder_cls):
        def __init__(self, *args, **kwargs):
            tracer.call("detector.FastMLDecoder", super().__init__, args, kwargs)

    simulator.FastMLDecoder = TracedFastMLDecoder
    patches.append((simulator, "FastMLDecoder", decoder_cls))

    wrap(cli, "run_cer_sweep", SWEEP, _sweep_attrs, fanout=True)
    wrap(cli, "sample_dmin_pdf", "simulator.sample_dmin_pdf", fanout=True)
    wrap(cli, "ks_test_chisq", "simulator.ks_test_chisq")
    wrap(cli, "check_full_diversity", "constellation.check_full_diversity",
         lambda a, k, r: {"pairs_checked": int(r.pairs_checked)})
    wrap(cli, "optimize_rotations_scalings", "constellation.optimize_rotations_scalings")
    wrap(cli, "main", "cli.main")
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans):
    """Per-layer metrics of one traced cycle, plus accounting violations.

    Returns (metrics, problems). metrics holds every PER_LAYER name except
    trace.overhead_ratio, which needs the untraced wall time. problems lists
    1-thread sweeps whose direct children's busy time plus self time does not
    account for the sweep's duration.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    m = {name: 0.0 for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
    problems = []
    sweep_busy = 0.0
    sweep_capacity = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        kids = children.get(s["id"], [])
        self_time = dur - _covered(s["start"], s["end"], [(k["start"], k["end"]) for k in kids])
        name = s["name"]
        if name in _BUSY_MS:
            m[_BUSY_MS[name]] += dur * 1e3
        for attr, metric in _COUNTS.items():
            if attr in s:
                m[metric] += s[attr]
        if name == "precoder.feedback_angles_batch":
            m["precoder.angles_calls"] += 1
        elif name == "cli.main":
            m["cli.self_ms"] += self_time * 1e3
        elif name == SWEEP:
            kid_busy = sum(k["end"] - k["start"] for k in kids)
            if s["scheme"] == "proposed":
                m["simulator.sweep_ms"] += dur * 1e3
                m["simulator.self_ms"] += self_time * 1e3
                m["simulator.trials"] += s["trials"]
                m["simulator.errors"] += s["errors"]
                sweep_busy += kid_busy
                sweep_capacity += s["threads"] * dur
            else:
                m["simulator.baseline_self_ms"] += self_time * 1e3
            if s["threads"] == 1 and abs(kid_busy + self_time - dur) > 1e-9 * max(dur, 1.0):
                problems.append(f"1-thread sweep span {s['id']}: children {kid_busy:.9f} s "
                                f"+ self {self_time:.9f} s != duration {dur:.9f} s")
    m["simulator.busy_ratio"] = sweep_busy / sweep_capacity if sweep_capacity else 0.0
    return m, problems
