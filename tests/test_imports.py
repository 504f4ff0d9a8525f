"""Import hygiene of the package: every name a ``src/twoec`` module imports
is used in that module.  A name listed in ``twoec.__all__`` counts as used
in ``__init__.py``, which imports it to re-export it.  And no helper is
dead: every function, method and class the package defines is named
somewhere else in it, apart from the few listed entry points.  And the list
of values a caller can set is pinned."""
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
    ``sources`` (module name -> source) that no module reads; dunder methods
    are exempt.  A method is read only as an attribute (``x.name``); a
    function or class as a name or as an attribute."""
    methods: set[tuple[str, str]] = set()
    others: set[tuple[str, str]] = set()
    names: set[str] = set()
    attrs: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        in_class = {id(st) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) for st in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    kind = (methods if isinstance(node, ast.FunctionDef)
                            and id(node) in in_class else others)
                    kind.add((module, node.name))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return ({d for d in methods if d[1] not in attrs}
            | {d for d in others if d[1] not in names | attrs})


def test_unreferenced_defs_finds_dead_helpers():
    sources = {"a": ("class C:\n"
                     "    def __init__(self): self.m()\n"
                     "    def m(self): pass\n"
                     "    def dead(self): pass\n"
                     "    def shadowed(self): pass\n"
                     "def f(): return g()\n"),
               "b": ("def g():\n"
                     "    shadowed = 1\n"
                     "    return C, shadowed\n")}
    assert unreferenced_defs(sources) == {("a", "dead"), ("a", "shadowed"),
                                          ("a", "f")}


def test_every_helper_is_named():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_defs(sources) == ENTRY_POINTS


# Every value a caller can set: each defaulted parameter of a function or
# method in src/twoec, and each field of the two configuration dataclasses.
# A new knob shows up as an edit to this list.
SETTABLE_VALUES = [
    "cli.main(argv)",
    "cover.min_triangle_free_cover(mode)",
    "decomp.CoverDecomposition.__init__(rich_vertices)",
    "decomp.instantiate_node_cycle(cap)",
    "decomp.segment_cycles(through)",
    "exchange.commit(cost_slack)",
    "exchange.commit(need_fewer_bridges)",
    "exchange.commit(need_fewer_components)",
    "exchange.commit(need_huge)",
    "exchange.commit(strict_structure)",
    "exchange.commit(waiver)",
    "gadgets._big_side_once(k)",
    "gadgets._big_side_pair(k)",
    "gadgets.bridge_chain(bridges)",
    "gadgets.hub_c4(hub_len)",
    "gadgets.loan_complex(bridges)",
    "gadgets.nice_c5_complex(pendants)",
    "gadgets.short_heavy_c5(hub_len)",
    "gadgets.shortcut_ring(k)",
    "gadgets.star_complex(chain)",
    "gadgets.star_complex(hub_len)",
    "gadgets.star_complex(n_blocks)",
    "gadgets.sub_wheel(members)",
    "graph.MultiGraph.__init__(edges)",
    "graph.biconnected_components(edge_subset)",
    "graph.connected_components(edge_subset)",
    "graph.connected_components(skip_vertices)",
    "graph.find_bridges(edge_subset)",
    "graph.is_two_edge_connected(edge_subset)",
    "graph.lowpoint_forest(eids)",
    "graph.lowpoint_forest(skip)",
    "graph.simple_cycles_upto(limit)",
    "graph.simple_cycles_upto(through)",
    "harness.SolverConfig(mode)",
    "harness.SolverConfig(profile)",
    "harness.SolverConfig(seed)",
    "harness.SolverConfig(with_oracle)",
    "harness.cover_pipeline(mode)",
    "harness.generate(seed)",
    "harness.verify(minimality)",
    "many.find_merge(segments)",
    "oracle._search(cut)",
    "oracle._simplify(copies)",
    "oracle.exact_min_2ecss(limit)",
    "oracle.exact_min_2ecss(node_budget)",
    "oracle.exact_min_cover(forbidden)",
    "oracle.exact_min_cover(node_budget)",
    "oracle.max_removable_inside(target)",
    "params.StructuredParams(alpha)",
    "params.StructuredParams(epsilon)",
    "params.StructuredParams(huge_threshold)",
    "preprocess.Reducer.__init__(inner)",
    "preprocess._side_graph(drop_cut_edges)",
    "preprocess._side_graph(dummy_edges)",
    "preprocess._step(children)",
    "preprocess.min_augment_to_2ec(pool)",
    "preprocess.red(inner)",
]
CONFIG_CLASSES = {"StructuredParams", "SolverConfig"}


def settable_values(module: str, source: str) -> list[str]:
    """``module.qualname(param)`` for each defaulted parameter of a function
    or method in ``source``, and ``module.Class(field)`` for each field of a
    class in ``CONFIG_CLASSES``."""
    out: list[str] = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                if node.name in CONFIG_CLASSES:
                    out.extend(f"{module}.{qual}({st.target.id})"
                               for st in node.body
                               if isinstance(st, ast.AnnAssign))
                visit(node.body, qual + ".")
            elif isinstance(node, ast.FunctionDef):
                qual = prefix + node.name
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d is not None]
                out.extend(f"{module}.{qual}({a.arg})" for a in defaulted)
                visit(node.body, qual + ".")

    visit(ast.parse(source).body, "")
    return out


def test_settable_values_finds_defaults_and_config_fields():
    source = ("class SolverConfig:\n"
              "    mode: str = 'auto'\n"
              "    seed: int\n"
              "class Other:\n"
              "    kept: int = 0\n"
              "    def run(self, a, b=1, *, c, d=2):\n"
              "        def inner(x=0): pass\n")
    assert settable_values("m", source) == [
        "m.SolverConfig(mode)", "m.SolverConfig(seed)", "m.Other.run(b)",
        "m.Other.run(d)", "m.Other.run.inner(x)"]


def test_settable_values_are_pinned():
    found = sorted(v for p in SRC.glob("*.py")
                   for v in settable_values(p.stem, p.read_text()))
    assert found == SETTABLE_VALUES
