"""Import hygiene of the package: every name a ``src/twoec`` module imports
is used in that module.  A name listed in ``twoec.__all__`` counts as used
in ``__init__.py``, which imports it to re-export it.  And no helper is
dead: every function, method and class the package defines is named
somewhere else in it, apart from the few listed entry points."""
import ast
from pathlib import Path

import pytest

import twoec

SRC = Path(twoec.__file__).parent


def unused_imports(source: str, exported=()) -> list[str]:
    """The names ``source`` imports (``__future__`` features aside) and
    never reads, sorted; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(exported))


def test_unused_imports_finds_leftovers():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport os.path\n"
              "from typing import Iterable, Optional as Opt\n"
              "def f(x: Iterable) -> int:\n"
              "    return os.path.getsize(x)\n")
    assert unused_imports(source) == ["Opt", "itertools"]
    assert unused_imports("from .graph import MultiGraph\n", ["MultiGraph"]) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    exported = twoec.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(), exported) == []


# (module, name) defined in src/twoec and named nowhere else in it
ENTRY_POINTS = {
    # perfbench traces both by name
    ("graph", "find_bridges"), ("credit", "check_invariants"),
    # tools/dump_answers.py and the cut tests run the full cut scan
    ("preprocess", "enumerate_cuts"),
    # tools/dump_answers.py and the tests build this gadget
    ("gadgets", "bridge_chain"),
}


def unreferenced_defs(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of every function, method and class defined in
    ``sources`` (module name -> source) whose name no module reads, as a
    name or as an attribute; dunder methods are exempt."""
    defined: set[tuple[str, str]] = set()
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {(module, name) for module, name in defined if name not in read}


def test_unreferenced_defs_finds_dead_helpers():
    sources = {"a": ("class C:\n"
                     "    def __init__(self): self.m()\n"
                     "    def m(self): pass\n"
                     "    def dead(self): pass\n"
                     "def f(): return g()\n"),
               "b": "def g(): return C\n"}
    assert unreferenced_defs(sources) == {("a", "dead"), ("a", "f")}


def test_every_helper_is_named():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_defs(sources) == ENTRY_POINTS
