import ast
import pathlib
import types

import fdprecode


def test_star_import_binds_no_module():
    namespace = {}
    exec("from fdprecode import *", namespace)
    modules = sorted(n for n, v in namespace.items() if isinstance(v, types.ModuleType))
    assert modules == []
    assert len(set(fdprecode.__all__)) == len(fdprecode.__all__)
    assert all(n in namespace for n in fdprecode.__all__)


def test_every_exported_name_is_used_by_the_package():
    # an export only the tests call belongs in the tests (oracles.py)
    loaded = set()
    for path in pathlib.Path(fdprecode.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            loaded |= {node.id for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(fdprecode.__all__) - loaded) == []
