"""Import hygiene of the package: every name a ``src/twoec`` module imports
is used in that module.  A name listed in ``twoec.__all__`` counts as used
in ``__init__.py``, which imports it to re-export it."""
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
