"""The package's public names."""
import ast
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

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


# public names that no module of the package loads; tests, scripts or the
# benchmark call them.  A new public name needs a caller in the package or
# a place in this list.
UNCALLED_PUBLIC_NAMES = {
    "canonical_orbit_tableaux", "corners_and_notches", "to_word",
    "word_descent_set", "word_inv",
}


def loaded_names() -> set[str]:
    """Every name and attribute name that a module of the package loads."""
    loaded = set()
    for path in Path(sytmaj.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def test_public_names_have_callers():
    assert set(sytmaj.__all__) - loaded_names() == UNCALLED_PUBLIC_NAMES


# public methods of the public classes that no module of the package loads,
# each with the reason it stays.  A method can still hide here: methods are
# matched by attribute name, so one counts as loaded when any attribute of
# that name is.  `Tableau.to_json` and `SupportPrediction.to_json` had no
# caller, yet looked called because `QPoly.to_json_str` and
# `SupportReport.to_json_str` call their own `to_json`.
UNCALLED_PUBLIC_METHODS = {
    "QPoly.coefficient": "one coefficient by degree; tests compare counts with it",
    "QPoly.eval_int": "evaluation at an integer q, for library users; tested",
    "QPoly.from_json": "reads back what `to_json_str` prints; tests parse CLI output",
    "BlockShape.as_skew": "the block-diagonal skew shape of the paper; tests check "
                          "that block_coordinates give one",
}


def test_public_methods_have_callers():
    loaded = loaded_names()
    uncalled = set()
    for cls in (getattr(sytmaj, name) for name in sytmaj.__all__):
        if not isinstance(cls, type):
            continue
        for name, attr in vars(cls).items():
            if not name.startswith("_") and name not in loaded and (
                    callable(attr) or isinstance(attr, (property, cached_property))):
                uncalled.add(f"{cls.__name__}.{name}")
    assert uncalled == set(UNCALLED_PUBLIC_METHODS)


def test_cli_import_leaves_multiprocessing_out():
    # the process pool is imported only when --threads asks for one
    code = "import sys, sytmaj.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(sytmaj.__file__).parent.parent)
    assert out.stdout == "False\n"


def test_only_verify_loads_counter():
    # closed forms hold their exponents as lists indexed by d; the oracles'
    # (maj, des) counts are the package's only Counters
    loaders = set()
    for path in Path(sytmaj.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "Counter"
                    or isinstance(node, ast.alias) and node.name == "Counter"):
                loaders.add(path.name)
    assert loaders == {"verify.py"}


def test_verify_imports_no_private_helper():
    # the oracles reach the library through its public names only
    tree = ast.parse((Path(sytmaj.__file__).parent / "verify.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
