"""Configuration-driven command line for simulations and constellation tools.

Subcommands: simulate, check-constellation, optimize-constellation, dmin-pdf.
One option table, `OPTIONS`, gives every option its parser, default and
help; `COMMANDS` lists the options each subcommand takes. The tables build
the flags (``--b-step`` sets ``b_step``), and `resolve_options` reads a flat
``key = value`` config file or a previously written run manifest, whose keys
are the option names. Keys a command does not take are rejected, flags win
over the file, and every value, flag or file, goes through its option's
parser. Range checks stay with the library (`SimConfig`, `GridSpec`,
`sample_dmin_pdf`). Every file-producing command writes a JSON manifest next
to its outputs with the resolved options, so any output can be reproduced
byte for byte from the manifest alone.

Exit codes: 0 success / check passed, 1 domain failure (diversity fail,
infeasible design or codebook), 2 usage, configuration, or I/O error.
"""

import argparse
import json
import os
import platform
import re
import sys
from datetime import datetime, timezone

import numpy as np
import scipy
from scipy.special import gammaln

from . import __version__, svgplot
from .constellation import (
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
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
)

_PRESET_RE = re.compile(r"^(\d+)[xX](\d+)$")
_MAX_SNR_POINTS = 10000
_MAX_BINS = 1 << 16


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


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


# name -> (parser, default, flag help); a _parse_bool option is a switch flag
OPTIONS = {
    "config": (str, None, "flat key=value config file or a run manifest JSON"),
    "preset": (str, None, "built-in constellation, NTxBITS (e.g. 3x1)"),
    "constellation_file": (str, None, "constellation text file"),
    "out": (str, None, "output file path"),
    "nr": (int, 1, "receive antennas (default 1)"),
    "seed": (int, 0, "simulation seed in [0, 2**128) (default 0)"),
    "threads": (int, None, "worker threads (default: FDPRECODE_THREADS or all cores)"),
    "plot": (_parse_bool, None, "also write an SVG plot"),
    "snr": (parse_snr_grid, None, "SNR grid in dB: A:B:STEP or comma list"),
    "trials": (int, 100000, "max trials per SNR point"),
    "target_errors": (int, None, "stop a point early once this many errors are seen"),
    "scheme": (str, "proposed", "proposed (default) or unprecoded_vblast baseline"),
    "noiseless": (_parse_bool, False, "disable noise (sanity runs)"),
    "tol": (float, 1e-12, "distinctness tolerance (default 1e-12)"),
    "budget": (float, None, "average-energy budget"),
    "b_step": (float, 0.025, "scale grid step over (0, 1] (default 0.025)"),
    "phi_step": (float, np.pi / 36, "rotation grid step in radians (default pi/36)"),
    "count": (int, 100000, "number of channel draws (default 100000)"),
    "bins": (int, 60, "histogram bins (default 60)"),
    # no flag: recorded from the loaded constellation, see DERIVED
    "nt": (int, None, None),
    "bits": (int, None, None),
}

_SOURCE = ("config", "preset", "constellation_file")
_RUN = ("out", "nr", "seed", "threads", "plot")

# subcommand -> (help, option names in flag order)
COMMANDS = {
    "simulate": ("run a CER-vs-SNR sweep", _SOURCE + _RUN + (
        "snr", "trials", "target_errors", "scheme", "noiseless")),
    "check-constellation": ("exhaustive full-diversity check", _SOURCE + ("tol",)),
    "optimize-constellation": ("grid-search scalings and rotations for a base design",
                               _SOURCE + ("out", "budget", "b_step", "phi_step")),
    "dmin-pdf": ("sample the normalized d^2_min distribution", _SOURCE + _RUN + ("count", "bins")),
}

# keys a manifest records from the run itself; a config may repeat them only if they match
DERIVED = {"simulate": ("nt", "bits"), "dmin-pdf": ("nt", "bits", "scheme")}

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

    A config key the command does not take is an error. Every given value
    goes through its OPTIONS parser; one it refuses is an error naming the key.
    """
    names = [n for n in COMMANDS[args.command][1] if n not in _LOCAL]
    given = read_config_file(args.config) if args.config else {}
    for key in given:
        if key not in names and key not in DERIVED.get(args.command, ()):
            raise ConfigurationError(f"{args.config}: unknown key {key!r} for {args.command}")
    given.update((n, getattr(args, n)) for n in names if getattr(args, n) is not None)
    options = {n: OPTIONS[n][1] for n in names if OPTIONS[n][1] is not None}
    for key, value in given.items():
        try:
            options[key] = OPTIONS[key][0](value)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"{key}: {e}") from None
    return options


def _load_sets(options, command=None):
    """The constellation the options name; fills in and checks the DERIVED keys."""
    has_preset = "preset" in options
    has_file = "constellation_file" in options
    if has_preset and has_file:
        raise ConfigurationError("give either a preset or a constellation file, not both")
    if has_preset:
        nt, bits = parse_preset_id(options["preset"])
        sets, source = preset(nt, bits), f"preset:{nt}x{bits}"
    elif has_file:
        sets, source = load_constellation(options["constellation_file"]), options["constellation_file"]
    else:
        raise ConfigurationError("no constellation given: use --preset or a constellation file")
    facts = {"nt": sets.nt, "bits": sets.bits_per_symbol, "scheme": "proposed"}
    for key in DERIVED.get(command, ()):
        if options.setdefault(key, facts[key]) != facts[key]:
            raise ConfigurationError(f"{key} is {options[key]!r}, but this run has {facts[key]!r}")
    return sets, source


def _threads(options) -> int:
    if "threads" in options:
        name, value = "threads", options["threads"]
    else:
        name, value = "FDPRECODE_THREADS", os.environ.get("FDPRECODE_THREADS")
        if not value:
            return os.cpu_count() or 1
    try:
        n = int(value)
    except (TypeError, ValueError):
        n = 0
    if n < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return n


def write_manifest(out_path: str, command: str, config: dict, outputs: list) -> str:
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


def cmd_simulate(args) -> int:
    options = resolve_options(args)
    sets, _ = _load_sets(options, "simulate")
    if "snr" not in options:
        raise ConfigurationError("no SNR grid given: use --snr A:B:STEP or a config entry")
    cfg = SimConfig(nr=options["nr"], constellation=sets,
                    snr_grid_db=options["snr"], trials_per_point=options["trials"],
                    seed=options["seed"], scheme=options["scheme"],
                    target_errors=options.get("target_errors"), noiseless=options["noiseless"])
    curve = run_cer_sweep(cfg, threads=_threads(options))

    out = args.out or "cer.csv"
    with open(out, "w", encoding="ascii", newline="\n") as f:
        f.write("snr_db,trials,errors,cer,ci_lo,ci_hi\n")
        for k in range(curve.snr_db.size):
            f.write(f"{_fmt(float(curve.snr_db[k]))},{int(curve.trials[k])},"
                    f"{int(curve.errors[k])},{_fmt(float(curve.cer[k]))},"
                    f"{_fmt(float(curve.ci_lo[k]))},{_fmt(float(curve.ci_hi[k]))}\n")
    outputs = [out]
    if args.plot and not curve.errors.any():
        print("note: no SNR point has an error, so there is no CER to plot", file=sys.stderr)
    elif args.plot:
        svg_path = os.path.splitext(out)[0] + ".svg"
        title = f"{cfg.nt}x{cfg.nr} CER, {cfg.bits_per_symbol} bits/symbol, {cfg.scheme}"
        svg = svgplot.cer_plot(curve.snr_db, curve.cer, cfg.nt * cfg.nr, title)
        with open(svg_path, "w", encoding="utf-8") as f:
            f.write(svg)
        outputs.append(svg_path)
    manifest = write_manifest(out, "simulate", options, outputs)
    print(f"wrote {', '.join(outputs)} (manifest: {manifest})")
    try:
        slope = estimate_diversity_slope(curve, (1e-4, 1e-2))
        print(f"diversity slope over CER [1e-4, 1e-2]: {slope:.2f}")
    except ConfigurationError:
        pass
    return 0


def cmd_check_constellation(args) -> int:
    options = resolve_options(args)
    if args.target:
        if "preset" in options or "constellation_file" in options:
            raise ConfigurationError(f"target {args.target!r} names a constellation, so give "
                                     "no preset or constellation_file as well")
        key = "preset" if _PRESET_RE.match(args.target) else "constellation_file"
        options[key] = args.target
    sets, source = _load_sets(options)
    tol = options["tol"]
    report = check_full_diversity(sets, tol)
    print(f"constellation: {source} (nt={sets.nt}, {sets.bits_per_symbol} bits/symbol)")
    if source.startswith("preset:"):
        key = parse_preset_id(source.split(":", 1)[1])
        if key in UNVERIFIED_PRESETS:
            print("note: this preset ships unverified; it fails sum-injectivity under "
                  "the odd-integer QAM level convention")
    print(f"average energy: {average_energy(sets):.10g}")
    print(f"min sum distance: {report.min_sum_distance:.10g} "
          f"({report.pairs_checked} codeword pairs checked)")
    if report.passes:
        print(f"full diversity: PASS (tolerance {tol:g})")
        return 0
    print(f"full diversity: FAIL (tolerance {tol:g})")
    if report.witness:
        a, b = report.witness
        print(f"witness: codewords {a} and {b} have sum difference "
              f"{report.min_sum_distance:.10g}")
    return 1


def cmd_optimize_constellation(args) -> int:
    options = resolve_options(args)
    base, _ = _load_sets(options)
    if "budget" not in options:
        raise ConfigurationError("power budget required: use --budget")
    grid = GridSpec(b_step=options["b_step"], phi_step=options["phi_step"])
    result = optimize_rotations_scalings(base, grid, options["budget"])
    out = args.out or "optimized.txt"
    save_constellation(result.sets, out)
    manifest = write_manifest(out, "optimize-constellation", options, [out])
    for i in range(base.nt):
        print(f"set {i + 1}: b = {_fmt(float(result.scales[i]))}, "
              f"phi = {_fmt(float(result.rotations[i]))} rad")
    print(f"achieved min sum distance: {_fmt(result.min_sum_distance)}")
    print(f"wrote {out} (manifest: {manifest})")
    return 0


def cmd_dmin_pdf(args) -> int:
    options = resolve_options(args)
    sets, _ = _load_sets(options, "dmin-pdf")
    if not 1 <= options["bins"] <= _MAX_BINS:
        raise ConfigurationError(f"bins must lie in [1, {_MAX_BINS}], got {options['bins']}")
    nt, nr = sets.nt, options["nr"]
    samples = sample_dmin_pdf(nt, nr, options["seed"], options["count"], threads=_threads(options))
    dof = 2 * nt * nr
    stat, p_value = ks_test_chisq(samples, dof)

    counts, edges = np.histogram(samples, bins=options["bins"])
    density = counts / (samples.size * np.diff(edges))
    out = args.out or "dmin_pdf.csv"
    with open(out, "w", encoding="ascii", newline="\n") as f:
        f.write("bin_lo,bin_hi,count,density\n")
        for lo, hi, c, d in zip(edges[:-1], edges[1:], counts, density):
            f.write(f"{_fmt(float(lo))},{_fmt(float(hi))},{int(c)},{_fmt(float(d))}\n")
    outputs = [out]
    if args.plot:
        xs = np.linspace(max(edges[0], 1e-9), edges[-1], 400)
        half = dof / 2.0
        pdf = np.exp((half - 1) * np.log(xs) - xs / 2.0 - half * np.log(2.0) - gammaln(half))
        svg_path = os.path.splitext(out)[0] + ".svg"
        with open(svg_path, "w", encoding="utf-8") as f:
            f.write(svgplot.histogram_plot(
                edges, density, xs, pdf, f"normalized d^2_min, {nt}x{nr}",
                overlay_label=f"chi-square pdf, {dof} dof"))
        outputs.append(svg_path)
    manifest = write_manifest(out, "dmin-pdf", options, outputs)
    print(f"KS statistic = {stat:.6g}, p-value = {p_value:.6g}, dof = {dof}")
    print(f"wrote {', '.join(outputs)} (manifest: {manifest})")
    return 0


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
            switch = {"action": "store_true", "default": None} if parse is _parse_bool else {}
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=flag_help, **switch)
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
