"""Configuration-driven command line for simulations and constellation tools.

Subcommands: simulate, check-constellation, optimize-constellation, dmin-pdf.
One option table, `OPTIONS`, is the only place a command-line value is
parsed, defaulted, bounded or required: it gives every option its parser,
default (`REQUIRED` for one that must be given) and help; `COMMANDS` lists
the options each subcommand takes. The tables build the flags (``--b-step``
sets ``b_step``), and `resolve_options` reads a flat ``key = value`` config
file or a previously written run manifest, whose keys are the option names.
Keys a command does not take are rejected (older manifests may carry a
`_RETIRED` key with its one old value), flags win over the file, and
every value, flag or file, goes through its option's parser. The parsers
bound only what the command line alone owns (`bins`, the least `count`);
every other range check stays with the library (`SimConfig`, `GridSpec`,
`sample_dmin_pdf`, and the simulator's thread pool for `threads`). `main`
parses with the one parser `build_parser` makes per process, resolves the
options and loads the constellation once, for every command.
Every file-producing command writes a JSON manifest next to its outputs
with the resolved options, so any output can be reproduced byte for byte
from the manifest alone.

Exit codes: 0 success / check passed, 1 domain failure (diversity fail,
infeasible design or codebook), 2 usage, configuration, or I/O error.
"""

import argparse
import functools
import json
import os
import platform
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, svgplot
from .constellation import (
    DEFAULT_DISTINCT_TOL,
    UNVERIFIED_PRESETS,
    GridSpec,
    average_energy,
    check_full_diversity,
    load_constellation,
    optimize_rotations_scalings,
    preset,
    save_constellation,
)
from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError
from .simulator import (
    KS_MIN_SAMPLES,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
)

_PRESET_RE = re.compile(r"^(\d+)[xX](\d+)$")
_MAX_SNR_POINTS = 10000
REQUIRED = object()  # the default of an option that must be given


def _fmt(value) -> str:
    """Text its option's parser reads back as the same value: shortest
    round-trip decimal for floats, comma lists for tuples, plain otherwise."""
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def parse_preset_id(text: str):
    m = _PRESET_RE.match(text.strip())
    if not m:
        raise ConfigurationError(f"preset must look like NTxBITS (e.g. 3x1), got {text!r}")
    return int(m.group(1)), int(m.group(2))


def parse_snr_grid(text: str):
    """Either a colon range A:B:STEP (inclusive ends) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"SNR range must be A:B:STEP, got {text!r}")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise ConfigurationError(f"SNR range needs B >= A and STEP > 0, got {text!r}")
        n = np.floor((b - a) / step + 1e-9) + 1
        if not n <= _MAX_SNR_POINTS:
            raise ConfigurationError(f"SNR range {text!r} exceeds {_MAX_SNR_POINTS} points")
        return tuple(a + i * step for i in range(int(n)))
    return tuple(float(p) for p in text.split(","))


def _int_in(lo: int, hi: float = float("inf")):
    """Parser of an integer in [lo, hi]."""
    def parse(text) -> int:
        if not lo <= (n := int(text)) <= hi:
            raise ValueError(f"must lie in [{lo}, {hi}], got {n}")
        return n
    return parse


# name -> (parser, default, flag help); a bool option is a switch flag
OPTIONS = {
    "config": (str, None, "flat key=value config file or a run manifest JSON"),
    "preset": (str, None, "built-in constellation, NTxBITS (e.g. 3x1)"),
    "constellation_file": (str, None, "constellation text file"),
    "out": (str, None, "output file path"),
    "nr": (int, 1, "receive antennas (default 1)"),
    "seed": (int, 0, "simulation seed in [0, 2**128) (default 0)"),
    "threads": (int, os.cpu_count() or 1, "worker threads (default: all cores)"),
    "plot": (bool, None, "also write an SVG plot"),
    "snr": (parse_snr_grid, REQUIRED, "SNR grid in dB: A:B:STEP or comma list"),
    "trials": (int, 100000, "max trials per SNR point"),
    "target_errors": (int, None, "stop a point early once this many errors are seen"),
    "scheme": (str, "proposed", "proposed (default) or unprecoded_vblast baseline"),
    "budget": (float, REQUIRED, "average-energy budget"),
    "b_step": (float, 0.025, "scale grid step over (0, 1] (default 0.025)"),
    "phi_step": (float, np.pi / 36, "rotation grid step in radians (default pi/36)"),
    "count": (_int_in(KS_MIN_SAMPLES), 100000, "number of channel draws (default 100000)"),
    "bins": (_int_in(1, 1 << 16), 60, "histogram bins (default 60)"),
    # no flag: recorded from the loaded constellation, see DERIVED
    "nt": (int, None, None),
    "bits": (int, None, None),
}

_SOURCE = ("config", "preset", "constellation_file")
_RUN = ("out", "nr", "seed", "threads", "plot")

# subcommand -> (help, option names in flag order)
COMMANDS = {
    "simulate": ("run a CER-vs-SNR sweep", _SOURCE + _RUN + (
        "snr", "trials", "target_errors", "scheme")),
    "check-constellation": ("exhaustive full-diversity check", _SOURCE),
    "optimize-constellation": ("grid-search scalings and rotations for a base design",
                               _SOURCE + ("out", "budget", "b_step", "phi_step")),
    "dmin-pdf": ("sample the normalized d^2_min distribution", _SOURCE + _RUN + ("count", "bins")),
}

# keys a manifest records from the run itself; a config may repeat them only if they match
DERIVED = {"simulate": ("nt", "bits"), "dmin-pdf": ("nt", "bits")}

# keys older manifests recorded that the command no longer takes: a config may
# repeat one only with the value it always had, and it is not recorded again
# (dmin-pdf used no scheme; simulate now always adds noise)
_RETIRED = {"dmin-pdf": {"scheme": "proposed"}, "simulate": {"noiseless": "False"}}

# flags for this invocation's own files, never read from a config
_LOCAL = ("config", "out", "plot")


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` text, or a run-manifest JSON (its config section)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            content = f.read()
        data = json.loads(content) if content.lstrip().startswith("{") else None
    except ValueError as e:  # undecodable text or malformed JSON
        raise ConfigurationError(f"{path}: {e}") from None
    if data is not None:
        section = data.get("config", data)
        if not isinstance(section, dict):
            raise ConfigurationError(f"{path}: the config section must be a JSON object")
        return {str(k): str(v) for k, v in section.items()}
    out = {}
    for ln_no, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{ln_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_options(args) -> dict:
    """The command's options: defaults, then the config file, then the flags.

    A config key the command does not take is an error, and so is a REQUIRED
    option left out. Every given value goes through its OPTIONS parser; one it
    refuses is an error naming the key. A check-constellation target names
    the preset or the constellation file, so it may come with neither.
    """
    names = [n for n in COMMANDS[args.command][1] if n not in _LOCAL]
    given = read_config_file(args.config) if args.config else {}
    for key, value in _RETIRED.get(args.command, {}).items():
        if (got := given.pop(key, value)) != value:
            raise ConfigurationError(
                f"{args.config}: {key} must be {value!r} for {args.command}, got {got!r}")
    for key in given:
        if key not in names and key not in DERIVED.get(args.command, ()):
            raise ConfigurationError(f"{args.config}: unknown key {key!r} for {args.command}")
    given.update((n, getattr(args, n)) for n in names if getattr(args, n) is not None)
    if target := getattr(args, "target", None):
        if "preset" in given or "constellation_file" in given:
            raise ConfigurationError(f"target {target!r} names a constellation, so give "
                                     "no preset or constellation_file as well")
        given["preset" if _PRESET_RE.match(target) else "constellation_file"] = target
    options = {n: OPTIONS[n][1] for n in names if OPTIONS[n][1] not in (None, REQUIRED)}
    for key, value in given.items():
        try:
            options[key] = OPTIONS[key][0](value)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"{key}: {e}") from None
    for n in names:
        if n not in options and OPTIONS[n][1] is REQUIRED:
            raise ConfigurationError(f"no {n} given ({OPTIONS[n][2]}): "
                                     f"use --{n.replace('_', '-')} or a config entry")
    return options


def _load_sets(options, command):
    """The constellation the options name; fills in and checks the DERIVED keys."""
    if "preset" in options and "constellation_file" in options:
        raise ConfigurationError("give either a preset or a constellation file, not both")
    if "preset" in options:
        sets = preset(*parse_preset_id(options["preset"]))
    elif "constellation_file" in options:
        sets = load_constellation(options["constellation_file"])
    else:
        raise ConfigurationError("no constellation given: use --preset or a constellation file")
    facts = {"nt": sets.nt, "bits": sets.bits_per_symbol}
    for key in DERIVED.get(command, ()):
        if options.setdefault(key, facts[key]) != facts[key]:
            raise ConfigurationError(f"{key} is {options[key]!r}, but this run has {facts[key]!r}")
    return sets


def _out_path(args, default: str) -> str:
    """The command's output path, refused before any work if it cannot be written."""
    out = args.out or default
    folder = os.path.dirname(out) or os.curdir
    if not os.path.isdir(folder):
        raise ConfigurationError(f"{out}: output directory {folder!r} does not exist")
    if os.path.isdir(out):
        raise ConfigurationError(f"{out}: output path is a directory")
    return out


def write_manifest(out_path: str, command: str, config: dict, outputs: list) -> str:
    import scipy  # here, so that importing the CLI does not load it

    manifest = {
        "tool": "fdprecode",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": config.get("seed"),
        # the thread count never changes an output, so a rerun picks its own
        "config": {k: _fmt(v) for k, v in config.items() if k != "threads"},
        "outputs": [str(p) for p in outputs],
        # CSV bytes also rest on the numerics of these (complex rounding in numpy)
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _finish(out: str, command: str, options: dict, svg: str | None = None) -> None:
    """Write the SVG, if any, beside `out`, then the manifest, and say what was written."""
    outputs = [out]
    if svg is not None:
        outputs.append(os.path.splitext(out)[0] + ".svg")
        with open(outputs[1], "w", encoding="utf-8") as f:
            f.write(svg)
    manifest = write_manifest(out, command, options, outputs)
    print(f"wrote {', '.join(outputs)} (manifest: {manifest})")


def cmd_simulate(args, options, sets) -> int:
    cfg = SimConfig(nr=options["nr"], constellation=sets,
                    snr_grid_db=options["snr"], trials_per_point=options["trials"],
                    seed=options["seed"], scheme=options["scheme"],
                    target_errors=options.get("target_errors"))
    out = _out_path(args, "cer.csv")
    curve = run_cer_sweep(cfg, threads=options["threads"])
    _write_csv(out, "snr_db,trials,errors,cer,ci_lo,ci_hi",
               zip(curve.snr_db, curve.trials, curve.errors, curve.cer, curve.ci_lo, curve.ci_hi))
    svg = None
    if args.plot and not curve.errors.any():
        print("note: no SNR point has an error, so there is no CER to plot", file=sys.stderr)
    elif args.plot:
        title = f"{cfg.nt}x{cfg.nr} CER, {cfg.bits_per_symbol} bits/symbol, {cfg.scheme}"
        svg = svgplot.cer_plot(curve.snr_db, curve.cer, cfg.nt * cfg.nr, title)
    _finish(out, "simulate", options, svg)
    try:
        slope = estimate_diversity_slope(curve, (1e-4, 1e-2))
        print(f"diversity slope over CER [1e-4, 1e-2]: {slope:.2f}")
    except ConfigurationError:
        pass
    return 0


def cmd_check_constellation(args, options, sets) -> int:
    report = check_full_diversity(sets)
    nt, bits = sets.nt, sets.bits_per_symbol
    source = f"preset:{nt}x{bits}" if "preset" in options else options["constellation_file"]
    print(f"constellation: {source} (nt={nt}, {bits} bits/symbol)")
    if "preset" in options and (nt, bits) in UNVERIFIED_PRESETS:
        print("note: this preset ships unverified; it fails sum-injectivity under "
              "the odd-integer QAM level convention")
    print(f"average energy: {average_energy(sets):.10g}")
    print(f"min sum distance: {report.min_sum_distance:.10g} "
          f"({report.pairs_checked} codeword pairs checked)")
    print(f"full diversity: {'PASS' if report.passes else 'FAIL'} "
          f"(tolerance {DEFAULT_DISTINCT_TOL:g})")
    if report.passes:
        return 0
    if report.witness:
        a, b = report.witness
        print(f"witness: codewords {a} and {b} have sum difference "
              f"{report.min_sum_distance:.10g}")
    return 1


def cmd_optimize_constellation(args, options, base) -> int:
    grid = GridSpec(b_step=options["b_step"], phi_step=options["phi_step"])
    out = _out_path(args, "optimized.txt")
    result = optimize_rotations_scalings(base, grid, options["budget"])
    save_constellation(result.sets, out)
    for i in range(base.nt):
        print(f"set {i + 1}: b = {_fmt(float(result.scales[i]))}, "
              f"phi = {_fmt(float(result.rotations[i]))} rad")
    print(f"achieved min sum distance: {_fmt(result.min_sum_distance)}")
    _finish(out, "optimize-constellation", options)
    return 0


def _sorted_histogram(samples: np.ndarray, bins: int):
    """`np.histogram(samples, bins)` of finite samples in non-decreasing order,
    with no sample-sized temporary: a bin's count is the distance between
    the insertion points of its edges, and the last bin holds the maximum."""
    edges = np.histogram_bin_edges(samples, bins)
    at = np.searchsorted(samples, edges)
    at[-1] = samples.size
    return np.diff(at), edges


def cmd_dmin_pdf(args, options, sets) -> int:
    nt, nr = sets.nt, options["nr"]
    out = _out_path(args, "dmin_pdf.csv")
    samples = sample_dmin_pdf(nt, nr, options["seed"], options["count"], threads=options["threads"])
    samples.sort()  # in place, once: the KS test and the binning read sorted input as is
    dof = 2 * nt * nr
    stat, p_value = ks_test_chisq(samples, dof)

    counts, edges = _sorted_histogram(samples, options["bins"])
    density = counts / (samples.size * np.diff(edges))
    _write_csv(out, "bin_lo,bin_hi,count,density", zip(edges[:-1], edges[1:], counts, density))
    svg = None
    if args.plot:
        from scipy.special import gammaln

        xs = np.linspace(max(edges[0], 1e-9), edges[-1], 400)
        half = dof / 2.0
        pdf = np.exp((half - 1) * np.log(xs) - xs / 2.0 - half * np.log(2.0) - gammaln(half))
        svg = svgplot.histogram_plot(edges, density, xs, pdf, f"normalized d^2_min, {nt}x{nr}",
                                     overlay_label=f"chi-square pdf, {dof} dof")
    print(f"KS statistic = {stat:.6g}, p-value = {p_value:.6g}, dof = {dof}")
    _finish(out, "dmin-pdf", options, svg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdprecode",
        description="Rank-one phase-feedback MIMO precoding: simulation and "
                    "constellation design tools.")
    parser.add_argument("--version", action="version", version=f"fdprecode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "check-constellation":
            p.add_argument("target", nargs="?", help="preset id (NTxBITS) or constellation file")
        for name in names:
            parse, _, flag_help = OPTIONS[name]
            switch = {"action": "store_true", "default": None} if parse is bool else {}
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=flag_help, **switch)
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    try:
        options = resolve_options(args)
        return args.func(args, options, _load_sets(options, args.command))
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        name = getattr(e, "filename", None)
        print(f"error: {e}" + (f" (path: {name})" if name and str(name) not in str(e) else ""),
              file=sys.stderr)
        return 2
    except (EnumerationBudgetError, InfeasibleDesignError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
