import ast
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import fdprecode


def test_star_import_binds_no_module():
    namespace = {}
    exec("from fdprecode import *", namespace)
    modules = sorted(n for n, v in namespace.items() if isinstance(v, types.ModuleType))
    assert modules == []
    assert len(set(fdprecode.__all__)) == len(fdprecode.__all__)
    assert all(n in namespace for n in fdprecode.__all__)


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in pathlib.Path(fdprecode.__file__).parent.glob("*.py")}


def _read_names(tree):
    """Names a module reads: bare loads, and attributes such as `streams.PURPOSE_CER`."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_exported_name_is_used_by_the_package():
    # an export only the tests call belongs in the tests (oracles.py)
    trees = _package_trees()
    loaded = set().union(*(_read_names(t) for name, t in trees.items() if name != "__init__"))
    assert sorted(set(fdprecode.__all__) - loaded) == []


def test_every_top_level_name_is_read_by_the_package():
    # a constant or function only the tests read belongs in the tests; cmd_*
    # are looked up by name in build_parser, and gram_polar stays for the tracer
    trees = _package_trees()
    loaded = set().union(*map(_read_names, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{n}" for n in names
                       if n not in loaded and not n.startswith(("cmd_", "__"))]
    assert sorted(unread) == ["channel.gram_polar"]


# a fresh interpreter, since this one has loaded scipy.special for other tests
_LAZY_SCIPY = textwrap.dedent("""
    import filecmp, os, sys
    import fdprecode, fdprecode.cli
    from fdprecode import SimConfig, preset, run_cer_sweep
    from fdprecode.cli import main
    out = sys.argv[1]
    assert main(["check-constellation", "3x1"]) == 0
    assert main(["optimize-constellation", "--preset", "3x1", "--budget", "2.5",
                 "--b-step", "0.5", "--out", os.path.join(out, "opt.txt")]) == 0
    assert "scipy.special" not in sys.modules
    # three batches on two pool threads: the first normal draw imports it on a worker
    cfg = SimConfig(nr=1, constellation=preset(3, 1), snr_grid_db=(6.0,),
                    trials_per_point=70000, seed=0)
    two = run_cer_sweep(cfg, threads=2)
    assert "scipy.special" in sys.modules
    one = run_cer_sweep(cfg, threads=1)
    assert (two.trials == one.trials).all() and (two.errors == one.errors).all()
    for threads in ("2", "1"):
        assert main(["simulate", "--preset", "3x1", "--snr", "6", "--trials", "70000",
                     "--threads", threads, "--out", os.path.join(out, threads + ".csv")]) == 0
    assert filecmp.cmp(os.path.join(out, "2.csv"), os.path.join(out, "1.csv"), shallow=False)
""")

# the commands that draw load it at their first draw, so a usage error loads nothing
_USAGE_ERROR = textwrap.dedent("""
    import sys
    from fdprecode.cli import main
    try:
        main(["dmin-pdf", "--no-such-flag"])
    except SystemExit:
        pass
    assert "scipy.special" not in sys.modules
""")


def test_design_commands_leave_scipy_special_unloaded(tmp_path):
    src = str(pathlib.Path(fdprecode.__file__).parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-c", _USAGE_ERROR], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# the manifest reads scipy's version only when it is written
_CLI_IMPORT = textwrap.dedent("""
    import json, os, sys
    import fdprecode.cli
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
    path = fdprecode.cli.write_manifest(os.path.join(sys.argv[1], "out"), "check-constellation", {}, [])
    import scipy
    assert json.load(open(path))["versions"]["scipy"] == scipy.__version__
""")


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    src = str(pathlib.Path(fdprecode.__file__).parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _CLI_IMPORT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
