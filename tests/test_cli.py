import argparse
import json
import pathlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprecode import cli
from fdprecode.cli import (
    COMMANDS,
    OPTIONS,
    build_parser,
    main,
    parse_preset_id,
    parse_snr_grid,
    read_config_file,
    resolve_options,
)
from fdprecode.constellation import (
    ConstellationSets,
    geometric_qam_family,
    load_constellation,
    qam_points,
    save_constellation,
    sum_constellation,
)
from fdprecode.detector import FastMLDecoder
from fdprecode.errors import ConfigurationError


def run(argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------------- parsing

def test_parse_preset_id():
    assert parse_preset_id("3x1") == (3, 1)
    assert parse_preset_id("16X4") == (16, 4)
    with pytest.raises(ConfigurationError):
        parse_preset_id("3-1")


def test_parse_snr_grid():
    assert parse_snr_grid("10:20:5") == (10.0, 15.0, 20.0)
    assert parse_snr_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_snr_grid("3,7,9.5") == (3.0, 7.0, 9.5)
    assert parse_snr_grid("12") == (12.0,)
    with pytest.raises(ConfigurationError):
        parse_snr_grid("10:20")
    with pytest.raises(ConfigurationError):
        parse_snr_grid("20:10:2")
    assert len(parse_snr_grid("0:9999:1")) == 10000
    for text in ("0:10000:1", "0:1:1e-300", "0:1e999:1", "0:nan:1"):
        with pytest.raises(ConfigurationError, match="exceeds"):
            parse_snr_grid(text)


def test_read_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\npreset = 3x1\nsnr = 8:12:2\ntrials= 500\n\nseed =9\n")
    assert read_config_file(p) == {"preset": "3x1", "snr": "8:12:2",
                                   "trials": "500", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset 3x1\n")
    with pytest.raises(ConfigurationError):
        read_config_file(bad)


# ------------------------------------------------------------------ simulate

def test_simulate_csv_schema(tmp_path, capsys):
    out = tmp_path / "cer.csv"
    code = run(["simulate", "--preset", "3x1", "--nr", "1", "--snr", "6:14:4",
                "--trials", "5000", "--seed", "5", "--threads", "2", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,trials,errors,cer,ci_lo,ci_hi"
    assert len(lines) == 4
    for line in lines[1:]:
        snr, trials, errors, cer, lo, hi = line.split(",")
        assert int(trials) == 5000
        assert 0 <= int(errors) <= 5000
        assert 0.0 <= float(lo) <= float(cer) <= float(hi) <= 1.0
    manifest = json.loads((tmp_path / "cer.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["preset"] == "3x1"
    assert manifest["outputs"] == [str(out)]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["numpy"] == np.__version__


def test_simulate_manifest_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    assert run(["simulate", "--preset", "3x1", "--snr", "8:12:2", "--trials", "20000",
                "--seed", "12", "--threads", "1", "--out", out1]) == 0
    out2 = tmp_path / "b.csv"
    assert run(["simulate", "--config", str(out1) + ".manifest.json", "--threads", "8",
                "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = 3x1\nsnr = 8:10:2\ntrials = 1000\nseed = 1\n")
    out = tmp_path / "c.csv"
    assert run(["simulate", "--config", cfg, "--trials", "2000", "--out", out]) == 0
    assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["config"]["trials"] == "2000"
    assert out.read_text().splitlines()[1].split(",")[1] == "2000"


def test_consecutive_calls_share_one_parser_but_no_values(tmp_path):
    assert build_parser() is build_parser()
    args = ["simulate", "--preset", "3x1", "--snr", "20", "--trials", "500", "--threads", "1"]
    assert run(args + ["--nr", "2", "--seed", "7", "--plot", "--out", tmp_path / "a.csv"]) == 0
    assert run(args + ["--out", tmp_path / "b.csv"]) == 0
    config = json.loads((tmp_path / "b.csv.manifest.json").read_text())["config"]
    assert (config["nr"], config["seed"]) == ("1", "0")
    assert not (tmp_path / "b.svg").exists()


def test_simulate_plot_writes_svg_without_touching_csv(tmp_path):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    args = ["simulate", "--preset", "3x1", "--snr", "6:10:2", "--trials", "3000",
            "--seed", "2", "--threads", "1"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2, "--plot"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    svg = tmp_path / "p2.svg"
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")


def test_simulate_plot_without_errors_skips_svg(tmp_path, capsys):
    # no SNR point has an error, so there is no CER to draw on a log axis
    out = tmp_path / "c.csv"
    assert run(["simulate", "--preset", "3x1", "--snr", "80", "--trials", "1000",
                "--threads", "1", "--plot", "--out", out]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "0"
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]
    assert not (tmp_path / "c.svg").exists()
    assert capsys.readouterr().err.startswith("note: ")


def test_simulate_missing_constellation_file_names_path(tmp_path, capsys):
    code = run(["simulate", "--constellation-file", tmp_path / "nope.txt",
                "--snr", "5:6:1", "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_simulate_requires_snr(tmp_path, capsys):
    assert run(["simulate", "--preset", "3x1", "--out", tmp_path / "x.csv"]) == 2
    assert "SNR" in capsys.readouterr().err


def test_simulate_infeasible_codebook_is_domain_failure(tmp_path, capsys):
    path = tmp_path / "big.txt"
    save_constellation(geometric_qam_family(16, 4, 0.5), path)
    code = run(["simulate", "--constellation-file", path, "--snr", "5:6:1", "--trials", "100",
                "--out", tmp_path / "x.csv"])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def test_baseline_budget_error_names_the_proposed_scheme(tmp_path, capsys):
    # 5 x 4 bits is 2^20 codewords: too many for the baseline's exhaustive
    # decoder, which has no sum-constellation decoder to fall back on
    path = tmp_path / "five.txt"
    save_constellation(geometric_qam_family(5, 16, 0.25), path)
    code = run(["simulate", "--constellation-file", path, "--scheme", "unprecoded_vblast",
                "--snr", "5", "--trials", "10", "--out", tmp_path / "x.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert "1048576 codewords" in err and "--scheme proposed" in err
    assert "sum-constellation" not in err


def test_simulate_one_antenna_equals_the_baseline(tmp_path):
    # nt = 1 feeds back no angle, so the precoded link is the unprecoded one
    path = tmp_path / "one.txt"
    save_constellation(ConstellationSets((qam_points(4),), 2), path)
    outs = {}
    for scheme in ("proposed", "unprecoded_vblast"):
        outs[scheme] = tmp_path / f"{scheme}.csv"
        assert run(["simulate", "--constellation-file", path, "--nr", "2", "--snr", "0:12:3",
                    "--trials", "200000", "--seed", "5", "--scheme", scheme,
                    "--out", outs[scheme]]) == 0
    proposed = outs["proposed"].read_text()
    assert proposed == outs["unprecoded_vblast"].read_text()
    assert min(int(row.split(",")[2]) for row in proposed.splitlines()[1:]) > 0


# --------------------------------------------------------- check-constellation

def test_check_passing_preset(capsys):
    assert run(["check-constellation", "3x1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1.35" in out
    assert "2.455625" in out


def test_check_failing_preset_prints_witness(capsys):
    assert run(["check-constellation", "3x4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness" in out
    assert "unverified" in out


def test_check_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("not a header\n")
    assert run(["check-constellation", p]) == 2
    # a byte that is not ASCII is one error line naming the file, not a traceback
    p.write_bytes(b"1 1\n1 -1 0\n1 1 \xff\n")
    capsys.readouterr()
    assert run(["check-constellation", p]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(p) in err[0]


def test_check_custom_file(tmp_path):
    p = tmp_path / "ok.txt"
    sets = ConstellationSets((np.array([-1.0, 1.0]), np.array([-1j, 1j])), 1)
    save_constellation(sets, p)
    assert run(["check-constellation", p]) == 0


@pytest.mark.parametrize("spacing, passes", [(2e-13, False), (1e-11, True)])
def test_checker_passes_exactly_what_the_simulator_decodes(tmp_path, capsys, spacing, passes):
    # set 3 is +-p, so the sums of codewords (1, ., -p) and (-1, ., p) lie `spacing` apart
    p = 1.0 + spacing / 2
    path = tmp_path / "sets.txt"
    path.write_text(f"3 1\n1 -1 0\n1 1 0\n2 0 -1\n2 0 1\n3 {-p!r} 0\n3 {p!r} 0\n")
    sums = sum_constellation(load_constellation(path))
    assert run(["check-constellation", path]) == (0 if passes else 1)
    out = capsys.readouterr().out
    assert float(out.split("min sum distance: ")[1].split()[0]) == pytest.approx(spacing, rel=1e-3)
    assert ("PASS" in out) == passes and ("witness" in out) != passes
    csv = tmp_path / "cer.csv"
    code = run(["simulate", "--constellation-file", path, "--snr", "10", "--trials", "64",
                "--threads", "1", "--out", csv])
    if passes:
        assert code == 0 and csv.exists()
        FastMLDecoder(sums)
    else:
        assert code == 2 and "not injective" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [path]
        with pytest.raises(ConfigurationError):
            FastMLDecoder(sums)


# ------------------------------------------------------ optimize-constellation

def test_optimize_recovers_rotated_set_and_roundtrips(tmp_path, capsys):
    base = tmp_path / "base.txt"
    save_constellation(ConstellationSets(
        (np.array([-1.0, 1.0]), np.array([-1j, 1j]), np.array([-1.0, 1.0])), 1), base)
    out = tmp_path / "opt.txt"
    code = run(["optimize-constellation", "--constellation-file", base,
                "--budget", "2.455625", "--b-step", "0.075",
                "--phi-step", np.pi / 12, "--out", out])
    assert code == 0
    got = load_constellation(out)
    expected = 0.675 * np.exp(1j * np.pi / 4) * np.array([-1.0, 1.0])
    assert np.allclose(sorted(got.sets[2], key=lambda z: z.real), expected, atol=1e-9)
    assert run(["check-constellation", out]) == 0


def test_optimize_infeasible_budget(tmp_path, capsys):
    base = tmp_path / "base.txt"
    save_constellation(ConstellationSets(
        (np.array([-1.0, 1.0]), np.array([-1j, 1j])), 1), base)
    code = run(["optimize-constellation", "--constellation-file", base,
                "--budget", "1.5", "--b-step", "1.0", "--out", tmp_path / "o.txt"])
    assert code == 1
    assert "no full-diversity point" in capsys.readouterr().err


# ----------------------------------------------------------------- dmin-pdf

def test_dmin_pdf_outputs(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run(["dmin-pdf", "--preset", "4x1", "--nr", "1", "--count", "30000",
                "--seed", "7", "--bins", "40", "--threads", "2", "--plot", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "KS statistic" in printed and "dof = 8" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,density"
    assert len(lines) == 41
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 30000
    ET.parse(tmp_path / "d.svg")


def test_dmin_pdf_rejects_zero_bins(tmp_path, capsys):
    assert run(["dmin-pdf", "--preset", "3x1", "--bins", "0",
                "--out", tmp_path / "d.csv"]) == 2
    assert "bins" in capsys.readouterr().err


def test_bad_thread_counts_exit_2(tmp_path, capsys):
    argv = ["simulate", "--preset", "3x1", "--snr", "10", "--trials", "64",
            "--out", tmp_path / "c.csv"]
    # a count the option parser reads is refused by the simulator's thread pool
    for value, message in (("0", "threads must be a positive integer"),
                           ("-3", "threads must be a positive integer"),
                           ("x", "threads: "), ("2.5", "threads: ")):
        assert run(argv + ["--threads", value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message), err
    assert not (tmp_path / "c.csv").exists()


def test_threads_environment_variable_is_not_read(tmp_path, monkeypatch):
    # the thread count comes only from --threads or a config key
    monkeypatch.setenv("FDPRECODE_THREADS", "x")
    assert run(["simulate", "--preset", "3x1", "--snr", "10", "--trials", "64",
                "--out", tmp_path / "c.csv"]) == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "8x1", "--snr", "30", "--trials", "1000000"],
    ["dmin-pdf", "--preset", "3x1", "--count", "4000000"],
    ["optimize-constellation", "--preset", "3x1", "--budget", "2.5"],
])
def test_unusable_out_path_exits_2_before_computing(tmp_path, monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    for name in ("run_cer_sweep", "sample_dmin_pdf", "optimize_rotations_scalings"):
        monkeypatch.setattr(cli, name, refuse)
    for out in (tmp_path / "missing" / "a.csv", tmp_path):
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert list(tmp_path.iterdir()) == []


def test_dmin_pdf_manifest_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert run(["dmin-pdf", "--preset", "3x1", "--count", "20000", "--seed", "3",
                "--out", out1]) == 0
    assert run(["dmin-pdf", "--config", str(out1) + ".manifest.json",
                "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dmin_pdf_manifest_records_no_scheme(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["dmin-pdf", "--preset", "3x1", "--count", "1000", "--out", out]) == 0
    config = json.loads((tmp_path / "d.csv.manifest.json").read_text())["config"]
    assert "scheme" not in config
    assert config["nt"] == "3" and config["bits"] == "1"


def test_dmin_pdf_old_manifest_with_scheme_reruns_identical(tmp_path):
    # dmin-pdf manifests used to record scheme = proposed; they still rerun
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert run(["dmin-pdf", "--preset", "3x1", "--count", "20000", "--seed", "3",
                "--out", out1]) == 0
    manifest = tmp_path / "d1.csv.manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["scheme"] = "proposed"
    manifest.write_text(json.dumps(data))
    assert run(["dmin-pdf", "--config", manifest, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "scheme" not in json.loads((tmp_path / "d2.csv.manifest.json").read_text())["config"]


# ------------------------------------------------------------ option handling

SIM = ["simulate", "--preset", "3x1", "--trials", "64", "--threads", "1"]
OPT = ["optimize-constellation", "--preset", "3x1", "--b-step", "0.5"]

# a simulate manifest and its CSV, both as written while simulate took
# `noiseless`; manifests of that time record noiseless = False
NOISY_SIMULATE_MANIFEST = {
    "command": "simulate",
    "config": {"bits": "1", "noiseless": "False", "nr": "2", "nt": "3", "preset": "3x1",
               "scheme": "proposed", "seed": "7", "snr": "4.0,6.0,8.0", "trials": "3000"},
    "outputs": ["lit.csv"], "seed": 7, "timestamp": "2026-10-19T19:33:38.119994+00:00",
    "tool": "fdprecode", "version": "0.1.0",
    "versions": {"numpy": "2.4.6", "python": "3.11.7", "scipy": "1.17.1"}}
NOISY_SIMULATE_CSV = (
    "snr_db,trials,errors,cer,ci_lo,ci_hi\n"
    "4.0,3000,630,0.21,0.19580039787368875,0.2249413343870003\n"
    "6.0,3000,333,0.111,0.1002527848792385,0.1227421594290651\n"
    "8.0,3000,121,0.04033333333333333,0.03386105069778884,0.04798130423036084\n")

# an optimize-constellation manifest as written before it recorded its inputs
OLD_OPTIMIZE_MANIFEST = json.dumps({
    "command": "optimize-constellation",
    "config": {"b_step": "0.1", "base": "preset:3x1", "budget": "2.5",
               "phi_step": "0.2", "seed": "0"},
    "outputs": ["o.txt"], "seed": 0, "tool": "fdprecode", "version": "0.1.0"})


@pytest.mark.parametrize("argv, config, key", [
    (SIM + ["--snr", "1,,2"], None, "snr"),
    (["simulate", "--snr", "10"], "preset = 3x1\ntrials = abc\n", "trials"),
    (["simulate"], '{"config": {"preset": "3x1", ', "run.cfg"),
    (SIM + ["--snr", "nan"], None, "snr"),
    (SIM + ["--snr", "4000"], None, "snr"),
    (SIM + ["--snr", "-4000"], None, "snr"),
    (["simulate", "--trials", "64"], "preset = 3x1\nsnr = 10\ntrails = 99\n", "trails"),
    (SIM + ["--snr", "10", "--seed", "-1"], None, "seed"),
    (SIM + ["--snr", "10", "--seed", str(1 << 128)], None, "seed"),
    (["optimize-constellation"], OLD_OPTIMIZE_MANIFEST, "base"),
    (["check-constellation", "3x1"], "tol = 0\n", "tol"),
    (SIM + ["--snr", "10"], "noiseless = True\n", "noiseless"),
    (["simulate"], json.dumps({"config": {**NOISY_SIMULATE_MANIFEST["config"],
                                          "noiseless": "True"}}), "noiseless"),
    (OPT + ["--budget", "nan"], None, "budget"),
    (OPT + ["--budget", "inf"], None, "budget"),
    (OPT[:3] + ["--budget", "3", "--b-step", "1e-300"], None, "b_step"),
    (OPT[:3] + ["--budget", "3", "--phi-step", "1e-300"], None, "phi_step"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000", "--bins", "1000000000000"], None, "bins"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000000000000"], None, "count"),
    (["dmin-pdf", "--preset", "3x1", "--count", "50"], None, "count"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000", "--seed", "-1"], None, "seed"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000", "--seed", str(1 << 128)], None, "seed"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000", "--nr", "0"], None, "nr"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000"], "scheme = unprecoded_vblast\n", "scheme"),
    (["simulate", "--preset", "3x1", "--nr", "10000000", "--snr", "10", "--trials", "1000"],
     None, "nr"),
    (["dmin-pdf", "--preset", "3x1", "--nr", "10000000", "--count", "1000"], None, "nr"),
    (["check-constellation", "3x1", "--preset", "4x1"], None, "preset"),
    (["check-constellation", "nofile.txt", "--preset", "3x2"], None, "preset"),
    (["check-constellation", "3x1"], "constellation_file = nofile.txt\n", "preset"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000"], "bins = 0\n", "bins"),
    (["dmin-pdf", "--preset", "3x1"], "count = 50\n", "count"),
    (["simulate", "--preset", "3x1", "--snr", "10", "--trials", "64"], "threads = 0\n", "threads"),
    (["dmin-pdf", "--preset", "3x1", "--count", "1000"], "threads = 0\n", "threads"),
], ids=["empty-snr-item", "trials-abc", "truncated-manifest", "snr-nan", "snr-huge",
        "snr-tiny", "unknown-key",
        "negative-seed", "wide-seed", "old-optimize-manifest", "check-config-tol",
        "config-noiseless", "manifest-noiseless-true",
        "budget-nan", "budget-inf", "b-step-tiny", "phi-step-tiny", "bins-huge",
        "count-huge", "dmin-count-small", "dmin-negative-seed", "dmin-wide-seed", "dmin-nr-zero", "dmin-scheme-baseline",
        "nr-huge", "dmin-nr-huge",
        "check-target-and-preset", "check-file-target-and-preset", "check-target-and-config-file",
        "config-bins-zero", "config-count-small", "config-threads-zero", "dmin-config-threads-zero"])
def test_bad_input_exits_2_naming_the_key(tmp_path, capsys, argv, config, key):
    written = []
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", cfg]
        written.append(cfg)
    if "out" in COMMANDS[argv[0]][1]:
        argv = argv + ["--out", tmp_path / "out.csv"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err
    assert sorted(tmp_path.iterdir()) == written


def test_optimize_manifest_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    assert run(["optimize-constellation", "--preset", "3x1", "--budget", "2.5",
                "--b-step", "0.1", "--out", out1]) == 0
    manifest = json.loads((tmp_path / "o1.txt.manifest.json").read_text())
    assert manifest["config"] == {"preset": "3x1", "budget": "2.5", "b_step": "0.1",
                                  "phi_step": repr(np.pi / 36)}
    assert run(["optimize-constellation", "--config", str(out1) + ".manifest.json",
                "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# a simulate manifest and its CSV, both as written before the option table
OLD_SIMULATE_MANIFEST = {
    "command": "simulate",
    "config": {"bits": "1", "nr": "2", "nt": "3", "preset": "3x1", "scheme": "proposed",
               "seed": "11", "snr": "6:10:2", "trials": "2000"},
    "outputs": ["lit.csv"], "seed": 11, "timestamp": "2026-10-18T05:15:24.211931+00:00",
    "tool": "fdprecode", "version": "0.1.0"}
OLD_SIMULATE_CSV = (
    "snr_db,trials,errors,cer,ci_lo,ci_hi\n"
    "6.0,2000,257,0.1285,0.11454272443866984,0.14388164169130105\n"
    "8.0,2000,98,0.049,0.04037353995030726,0.05935563669738288\n"
    "10.0,2000,36,0.018,0.01302999144428223,0.024818042134845595\n")


def test_old_simulate_manifest_reruns_byte_identical(tmp_path, capsys):
    manifest = tmp_path / "lit.csv.manifest.json"
    manifest.write_text(json.dumps(OLD_SIMULATE_MANIFEST))
    out = tmp_path / "again.csv"
    assert run(["simulate", "--config", manifest, "--threads", "2", "--out", out]) == 0
    assert out.read_text() == OLD_SIMULATE_CSV
    bad = json.loads(json.dumps(OLD_SIMULATE_MANIFEST))
    bad["config"]["nt"] = "4"
    manifest.write_text(json.dumps(bad))
    capsys.readouterr()
    assert run(["simulate", "--config", manifest, "--out", tmp_path / "bad.csv"]) == 2
    assert "nt" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()
    manifest.write_text(json.dumps(NOISY_SIMULATE_MANIFEST))
    assert run(["simulate", "--config", manifest, "--out", out]) == 0
    assert out.read_text() == NOISY_SIMULATE_CSV
    config = json.loads((tmp_path / "again.csv.manifest.json").read_text())["config"]
    assert "noiseless" not in config and config["seed"] == "7"


_VALUES = (st.sampled_from(["3x1", "16x1", "10", "8:12:2", "1,,2", "nan", "-1", "1e999",
                            "true", "0:1:1e-300", "1:0:1", "abc", "", "2.5", "proposed"])
           | st.integers().map(str) | st.floats().map(repr) | st.text(max_size=12)
           | st.tuples(st.floats(), st.floats(), st.floats()).map(lambda t: ":".join(map(repr, t))))
_LINES = st.lists(st.tuples(st.sampled_from(sorted(OPTIONS) + ["trails", "base"])
                            | st.text(max_size=8), _VALUES).map(" = ".join), max_size=8)
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                     | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3), max_leaves=6)
_CONFIG_TEXT = (_LINES.map("\n".join) | st.text(max_size=60)
                | st.dictionaries(st.sampled_from(sorted(OPTIONS)), _VALUES, max_size=6)
                .map(lambda d: json.dumps({"config": d}))
                | st.dictionaries(st.sampled_from(["config", *sorted(OPTIONS)]), _JSON, max_size=4)
                .map(json.dumps))


def test_config_text_resolves_or_raises_configuration_error(tmp_path):
    path = tmp_path / "fuzz.cfg"

    @settings(max_examples=400, deadline=None)
    @given(command=st.sampled_from(sorted(COMMANDS)), text=_CONFIG_TEXT)
    def check(command, text):
        path.write_text(text, encoding="utf-8")
        args = build_parser().parse_args([command, "--config", str(path)])
        try:
            options = resolve_options(args)
        except ConfigurationError:
            return
        assert set(options) <= set(OPTIONS)

    check()


def test_readme_command_line_names_only_real_flags():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {f for p in subparsers.choices.values() for a in p._actions for f in a.option_strings}
    assert len(named) >= 10
    assert sorted(named - flags) == []
