"""Configuration-driven command line for simulations and constellation tools.

Subcommands: simulate, check-constellation, optimize-constellation, dmin-pdf.
Options may come from a flat ``key = value`` config file (or a previously
written run manifest); command-line flags always win. Every file-producing
command writes a JSON manifest next to its outputs with the fully resolved
configuration, so any output can be reproduced byte for byte from the
manifest alone.

Exit codes: 0 success / check passed, 1 domain failure (diversity fail,
infeasible design or codebook), 2 usage, configuration, or I/O error.
"""

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np
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
    SCHEMES,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
)

_PRESET_RE = re.compile(r"^(\d+)[xX](\d+)$")


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, float) or isinstance(value, np.floating):
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
        n = int(np.floor((b - a) / step + 1e-9)) + 1
        return tuple(a + i * step for i in range(n))
    return tuple(float(p) for p in text.split(","))


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` text, or a run-manifest JSON (its config section)."""
    with open(path, "r", encoding="utf-8") as f:
        content = f.read()
    if content.lstrip().startswith("{"):
        data = json.loads(content)
        section = data.get("config", data)
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


def resolve_options(args, flag_names: dict) -> dict:
    """Merge config-file keys with flags; flags win."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key, attr in flag_names.items():
        value = getattr(args, attr, None)
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _load_sets(options):
    has_preset = "preset" in options
    has_file = "constellation_file" in options
    if has_preset and has_file:
        raise ConfigurationError("give either a preset or a constellation file, not both")
    if has_preset:
        nt, bits = parse_preset_id(str(options["preset"]))
        return preset(nt, bits), f"preset:{nt}x{bits}"
    if has_file:
        path = str(options["constellation_file"])
        return load_constellation(path), path
    raise ConfigurationError("no constellation given: use --preset or a constellation file")


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
        "seed": int(config.get("seed", 0)),
        "config": {k: _fmt(v) for k, v in config.items()},
        "outputs": [str(p) for p in outputs],
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _resolved_sim_options(options, sets, source: str) -> dict:
    resolved = {
        "nt": sets.nt,
        "nr": int(options.get("nr", 1)),
        "bits": sets.bits_per_symbol,
        "snr": str(options["snr"]) if "snr" in options else None,
        "trials": int(options.get("trials", 100000)),
        "seed": int(options.get("seed", 0)),
        "scheme": str(options.get("scheme", "proposed")),
    }
    if resolved["snr"] is None:
        raise ConfigurationError("no SNR grid given: use --snr A:B:STEP or a config entry")
    if source.startswith("preset:"):
        resolved["preset"] = source.split(":", 1)[1]
    else:
        resolved["constellation_file"] = source
    if "target_errors" in options:
        resolved["target_errors"] = int(options["target_errors"])
    if "noiseless" in options:
        resolved["noiseless"] = _parse_bool(options["noiseless"]) if not isinstance(
            options["noiseless"], bool) else options["noiseless"]
    return resolved


def _sim_config(resolved, sets) -> SimConfig:
    return SimConfig(
        nt=resolved["nt"],
        nr=resolved["nr"],
        constellation=sets,
        snr_grid_db=parse_snr_grid(resolved["snr"]),
        trials_per_point=resolved["trials"],
        seed=resolved["seed"],
        scheme=resolved["scheme"],
        target_errors=resolved.get("target_errors"),
        noiseless=resolved.get("noiseless", False),
    )


def cmd_simulate(args) -> int:
    options = resolve_options(args, {
        "preset": "preset", "constellation_file": "constellation_file", "nr": "nr",
        "snr": "snr", "trials": "trials", "seed": "seed", "scheme": "scheme",
        "target_errors": "target_errors", "noiseless": "noiseless", "threads": "threads",
    })
    sets, source = _load_sets(options)
    resolved = _resolved_sim_options(options, sets, source)
    cfg = _sim_config(resolved, sets)
    curve = run_cer_sweep(cfg, threads=_threads(options))

    out = args.out or "cer.csv"
    with open(out, "w", encoding="ascii", newline="\n") as f:
        f.write("snr_db,trials,errors,cer,ci_lo,ci_hi\n")
        for k in range(curve.snr_db.size):
            f.write(f"{_fmt(float(curve.snr_db[k]))},{int(curve.trials[k])},"
                    f"{int(curve.errors[k])},{_fmt(float(curve.cer[k]))},"
                    f"{_fmt(float(curve.ci_lo[k]))},{_fmt(float(curve.ci_hi[k]))}\n")
    outputs = [out]
    if args.plot:
        svg_path = os.path.splitext(out)[0] + ".svg"
        title = (f"{resolved['nt']}x{resolved['nr']} CER, "
                 f"{resolved['bits']} bits/symbol, {resolved['scheme']}")
        with open(svg_path, "w", encoding="utf-8") as f:
            f.write(svgplot.cer_plot(curve.snr_db, curve.cer,
                                     resolved["nt"] * resolved["nr"], title))
        outputs.append(svg_path)
    manifest = write_manifest(out, "simulate", resolved, outputs)
    print(f"wrote {', '.join(outputs)} (manifest: {manifest})")
    try:
        slope = estimate_diversity_slope(curve, (1e-4, 1e-2))
        print(f"diversity slope over CER [1e-4, 1e-2]: {slope:.2f}")
    except ConfigurationError:
        pass
    return 0


def cmd_check_constellation(args) -> int:
    options = resolve_options(args, {
        "preset": "preset", "constellation_file": "constellation_file", "tol": "tol",
    })
    if "preset" not in options and "constellation_file" not in options and args.target:
        if _PRESET_RE.match(args.target):
            options["preset"] = args.target
        else:
            options["constellation_file"] = args.target
    sets, source = _load_sets(options)
    tol = float(options.get("tol", 1e-12))
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
    options = resolve_options(args, {
        "preset": "preset", "constellation_file": "constellation_file",
        "budget": "budget", "b_step": "b_step", "phi_step": "phi_step",
    })
    base, source = _load_sets(options)
    if "budget" not in options:
        raise ConfigurationError("power budget required: use --budget")
    budget = float(options["budget"])
    grid = GridSpec(b_step=float(options.get("b_step", 0.025)),
                    phi_step=float(options.get("phi_step", np.pi / 36)))
    result = optimize_rotations_scalings(base, grid, budget)
    out = args.out or "optimized.txt"
    save_constellation(result.sets, out)
    resolved = {
        "base": source, "budget": budget, "b_step": grid.b_step,
        "phi_step": grid.phi_step, "seed": 0,
    }
    manifest = write_manifest(out, "optimize-constellation", resolved, [out])
    for i in range(base.nt):
        print(f"set {i + 1}: b = {_fmt(float(result.scales[i]))}, "
              f"phi = {_fmt(float(result.rotations[i]))} rad")
    print(f"achieved min sum distance: {_fmt(result.min_sum_distance)}")
    print(f"wrote {out} (manifest: {manifest})")
    return 0


def cmd_dmin_pdf(args) -> int:
    options = resolve_options(args, {
        "preset": "preset", "constellation_file": "constellation_file", "nr": "nr",
        "count": "count", "bins": "bins", "seed": "seed", "threads": "threads",
    })
    sets, source = _load_sets(options)
    resolved = {
        "nt": sets.nt,
        "nr": int(options.get("nr", 1)),
        "bits": sets.bits_per_symbol,
        "count": int(options.get("count", 100000)),
        "bins": int(options.get("bins", 60)),
        "seed": int(options.get("seed", 0)),
        "scheme": "proposed",
    }
    if source.startswith("preset:"):
        resolved["preset"] = source.split(":", 1)[1]
    else:
        resolved["constellation_file"] = source
    if resolved["bins"] < 1:
        raise ConfigurationError(f"bins must be >= 1, got {resolved['bins']}")
    cfg = SimConfig(nt=resolved["nt"], nr=resolved["nr"], constellation=sets,
                    snr_grid_db=(0.0,), trials_per_point=1, seed=resolved["seed"])
    samples = sample_dmin_pdf(cfg, resolved["count"], threads=_threads(options))
    dof = 2 * resolved["nt"] * resolved["nr"]
    stat, p_value = ks_test_chisq(samples, dof)

    counts, edges = np.histogram(samples.samples, bins=resolved["bins"])
    density = counts / (samples.count * np.diff(edges))
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
                edges, density, xs, pdf,
                f"normalized d^2_min, {resolved['nt']}x{resolved['nr']}",
                overlay_label=f"chi-square pdf, {dof} dof"))
        outputs.append(svg_path)
    manifest = write_manifest(out, "dmin-pdf", resolved, outputs)
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

    def common(p, with_sim_flags=True):
        p.add_argument("--config", help="flat key=value config file or a run manifest JSON")
        p.add_argument("--preset", help="built-in constellation, NTxBITS (e.g. 3x1)")
        p.add_argument("--constellation-file", dest="constellation_file",
                       help="constellation text file")
        p.add_argument("--out", help="output file path")
        if with_sim_flags:
            p.add_argument("--nr", type=int, help="receive antennas (default 1)")
            p.add_argument("--seed", type=int, help="64-bit simulation seed (default 0)")
            p.add_argument("--threads", type=int,
                           help="worker threads (default: FDPRECODE_THREADS or all cores)")
            p.add_argument("--plot", action="store_true", help="also write an SVG plot")

    p_sim = sub.add_parser("simulate", help="run a CER-vs-SNR sweep")
    common(p_sim)
    p_sim.add_argument("--snr", help="SNR grid in dB: A:B:STEP or comma list")
    p_sim.add_argument("--trials", type=int, help="max trials per SNR point")
    p_sim.add_argument("--target-errors", dest="target_errors", type=int,
                       help="stop a point early once this many errors are seen")
    p_sim.add_argument("--scheme", choices=SCHEMES,
                       help="proposed (default) or unprecoded_vblast baseline")
    p_sim.add_argument("--noiseless", action="store_true",
                       help="disable noise (sanity runs)")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check-constellation",
                             help="exhaustive full-diversity check")
    p_check.add_argument("target", nargs="?",
                         help="preset id (NTxBITS) or constellation file")
    p_check.add_argument("--config", help="flat key=value config file")
    p_check.add_argument("--preset")
    p_check.add_argument("--constellation-file", dest="constellation_file")
    p_check.add_argument("--tol", type=float, help="distinctness tolerance (default 1e-12)")
    p_check.set_defaults(func=cmd_check_constellation)

    p_opt = sub.add_parser("optimize-constellation",
                           help="grid-search scalings and rotations for a base design")
    common(p_opt, with_sim_flags=False)
    p_opt.add_argument("--budget", type=float, help="average-energy budget")
    p_opt.add_argument("--b-step", dest="b_step", type=float,
                       help="scale grid step over (0, 1] (default 0.025)")
    p_opt.add_argument("--phi-step", dest="phi_step", type=float,
                       help="rotation grid step in radians (default pi/36)")
    p_opt.set_defaults(func=cmd_optimize_constellation)

    p_dmin = sub.add_parser("dmin-pdf",
                            help="sample the normalized d^2_min distribution")
    common(p_dmin)
    p_dmin.add_argument("--count", type=int, help="number of channel draws (default 100000)")
    p_dmin.add_argument("--bins", type=int, help="histogram bins (default 60)")
    p_dmin.set_defaults(func=cmd_dmin_pdf)
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
