import types

import fdprecode


def test_star_import_binds_no_module():
    namespace = {}
    exec("from fdprecode import *", namespace)
    modules = sorted(n for n, v in namespace.items() if isinstance(v, types.ModuleType))
    assert modules == []
    assert len(set(fdprecode.__all__)) == len(fdprecode.__all__)
    assert all(n in namespace for n in fdprecode.__all__)
