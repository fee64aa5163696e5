"""The package's public names."""
import ast
import types
from pathlib import Path

import sytmaj
from sytmaj.tableaux import Tableau


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


# public Tableau methods that no module of the package loads, each with the
# reason it stays.  Methods are matched by attribute name, so one counts as
# loaded when any attribute of that name is.
UNCALLED_TABLEAU_METHODS: dict[str, str] = {}


def test_tableau_methods_have_callers():
    public = {name for name, attr in vars(Tableau).items()
              if not name.startswith("_") and (callable(attr) or isinstance(attr, property))}
    assert public - loaded_names() == set(UNCALLED_TABLEAU_METHODS)


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
