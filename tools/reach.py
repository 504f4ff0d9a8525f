#!/usr/bin/env python3
"""Line reach of ``src/twoec``: which lines of each function a run executes.

    python3 tools/reach.py [--unreached] pytest [PYTEST ARGS ...]
    python3 tools/reach.py [--unreached] bench WORKLOAD

``pytest`` runs a pytest selection in this process, for example
``tests/test_few.py -k dispatch``.  ``bench`` solves one round of a
benchmark workload (seed 1), whose instances come from ``perfbench/``
imported read-only, as ``tools/dump_answers.py`` does.  Either runs under
``sys.settrace``, which makes it several times slower.

Each function of ``src/twoec``, nested ones included, gets one line
``reached/total  module.qualname``.  The lines of its lambdas,
comprehensions and generator expressions count as its own; its ``def``
line does not count.  ``--unreached`` lists only the functions with a line
the run never reached, each followed by those line numbers.  Standard library only (the ``pytest`` mode needs
pytest, as the test suite does).
"""
from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twoec"


def functions() -> tuple[dict, dict]:
    """The functions of ``src/twoec`` by compiling its files: a map from
    each code object's key (file, first line, name) to the key of the
    function its lines count for, and from each function's key to its
    qualified name and lines."""
    owner_of: dict[tuple, tuple] = {}
    found: dict[tuple, tuple[str, set[int]]] = {}

    def walk(code, qualname: str, owner) -> None:
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        lines = {line for _, _, line in code.co_lines() if line is not None}
        is_function = code.co_flags & inspect.CO_OPTIMIZED
        if owner is not None and code.co_name.startswith("<"):
            found[owner][1].update(lines)       # lambda or comprehension
        elif is_function:
            owner = key
            found[key] = (qualname, lines - {code.co_firstlineno})
        else:
            owner = None                        # module or class body
        owner_of[key] = owner
        for const in code.co_consts:
            if inspect.iscode(const):
                scope = ".<locals>." if is_function else "."
                walk(const, qualname + scope + const.co_name, owner)

    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, f"{path.stem}.{const.co_name}", None)
    return owner_of, found


def traced(run) -> dict:
    """Run ``run()`` under ``sys.settrace``; the lines reached, per code
    object of ``src/twoec``."""
    reached: dict = defaultdict(set)
    ours: dict[str, bool] = {}
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return local if ours[name] else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def run_pytest(args: list[str]) -> None:
    import pytest
    code = pytest.main(args)
    if code not in (0, 5):
        print(f"pytest exit code {code}", file=sys.stderr)


def run_bench(workload: str) -> None:
    """One round: parse and solve every instance, as the benchmark does."""
    sys.path.insert(1, str(ROOT / "perfbench"))
    import workloads
    from twoec import harness
    for inst in workloads.build(workload, 1, harness):
        config = harness.SolverConfig(profile="desk", mode=inst.mode,
                                      with_oracle=inst.with_oracle)
        harness.solve(harness.parse_graph(inst.text), config)


def main(argv: list[str]) -> int:
    unreached = argv[:1] == ["--unreached"]
    argv = argv[unreached:]
    if not argv or argv[0] not in ("pytest", "bench") or (
            argv[0] == "bench" and len(argv) != 2):
        sys.exit(__doc__.split("\n\n")[1])
    sys.path.insert(0, str(ROOT / "src"))
    from twoec import harness
    if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"twoec was imported from {harness.__file__}, not {ROOT / 'src'}")
    if argv[0] == "pytest":
        reached = traced(lambda: run_pytest(argv[1:]))
    else:
        reached = traced(lambda: run_bench(argv[1]))
    owner_of, found = functions()
    hits: dict[tuple, set[int]] = defaultdict(set)
    for code, lines in reached.items():
        key = (os.path.realpath(code.co_filename), code.co_firstlineno,
               code.co_name)
        if owner_of.get(key) is not None:
            hits[owner_of[key]] |= lines
    done = total = 0
    for key in sorted(found):
        qualname, lines = found[key]
        got = len(lines & hits[key])
        done += got
        total += len(lines)
        if not unreached:
            print(f"{got:4d}/{len(lines):<4d} {qualname}")
        elif got < len(lines):
            print(f"{got:4d}/{len(lines):<4d} {qualname}  lines",
                  ", ".join(map(str, sorted(lines - hits[key]))))
    print(f"{done}/{total} lines of src/twoec reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
