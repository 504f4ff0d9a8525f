"""The solver's answers and reports on both benchmark suites (seed 1) and on
the FEW/MANY exchange gadgets, row for row against the committed file
``tests/data/golden_solves.json``.  The rows are those of
``tools/dump_answers.py`` without its cut scans, which take about a minute.

A change meant to change answers regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py

and the file's diff, one row a line, shows which rows moved."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_solves.json"
sys.path.insert(0, str(ROOT / "perfbench"))


def solve_rows() -> list:
    """The dump tool's solve rows, as the file holds them."""
    spec = importlib.util.spec_from_file_location(
        "dump_answers", ROOT / "tools" / "dump_answers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows, _ = tool.solve_rows()
    return json.loads(json.dumps(rows))


def test_solves_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = solve_rows()
    assert [row[:3] for row in got] == [row[:3] for row in want]
    for row, golden in zip(got, want):
        assert row == golden, row[:3]


if __name__ == "__main__":
    rows = solve_rows()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row, sort_keys=True)
                                         for row in rows) + "\n]\n")
    print(f"{len(rows)} rows -> {GOLDEN}")
