"""The package's public names."""
import types

import sytmaj


def test_all_is_explicit_and_resolves():
    names = sytmaj.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(sytmaj, name), types.ModuleType), name
    for module in ("shapes", "qpolys", "tableaux", "genfun", "deformed", "mutations", "zeros"):
        assert module not in names
    star: dict = {}
    exec("from sytmaj import *", star)
    assert set(star) - {"__builtins__"} == set(names)
