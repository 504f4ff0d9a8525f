"""The solver's answers and reports on both benchmark suites (seed 1) and on
the FEW/MANY exchange gadgets, row for row against the committed file
``tests/data/golden_solves.json``; and the cut scan
``preprocess.enumerate_cuts`` and the contractible-part finder
``preprocess.find_contractible`` on the ``reduce_exchange`` graphs against
``tests/data/golden_cuts.json``.  The rows
are those of ``tools/dump_answers.py``, whose scans of the ``sweep`` graphs
and of its random graphs take over a minute and stay in the tool.

A change meant to change answers regenerates both files with

    PYTHONPATH=src python3 tests/test_golden.py

and each file's diff, one row a line, shows which rows moved."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_solves.json"
GOLDEN_CUTS = ROOT / "tests" / "data" / "golden_cuts.json"
sys.path.insert(0, str(ROOT / "perfbench"))


def dump_tool():
    spec = importlib.util.spec_from_file_location(
        "dump_answers", ROOT / "tools" / "dump_answers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def solve_rows() -> list:
    """The dump tool's solve rows, as the file holds them."""
    rows, _ = dump_tool().solve_rows()
    return json.loads(json.dumps(rows))


def cut_rows() -> list:
    """[name, cut scan, contractible part] for each ``reduce_exchange``
    graph (seed 1), from the dump tool's ``scan_rows``."""
    import workloads
    from twoec import harness
    insts = workloads.build("reduce_exchange", 1, harness)
    scans, contractible = dump_tool().scan_rows(
        [harness.parse_graph(inst.text) for inst in insts])
    return json.loads(json.dumps([[inst.name, scan, part] for inst, scan, part
                                  in zip(insts, scans, contractible)]))


def check_rows(got: list, want: list, key: int) -> None:
    assert [row[:key] for row in got] == [row[:key] for row in want]
    for row, golden in zip(got, want):
        assert row == golden, row[:key]


def test_solves_match_golden_file():
    check_rows(solve_rows(), json.loads(GOLDEN.read_text()), 3)


def test_cut_scans_match_golden_file():
    check_rows(cut_rows(), json.loads(GOLDEN_CUTS.read_text()), 1)


def write_rows(path: Path, rows: list) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(row, sort_keys=True)
                                       for row in rows) + "\n]\n")
    print(f"{len(rows)} rows -> {path}")


if __name__ == "__main__":
    write_rows(GOLDEN, solve_rows())
    write_rows(GOLDEN_CUTS, cut_rows())
