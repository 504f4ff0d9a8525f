#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a ``perfbench/results`` directory (or a copy of one) that
holds the untraced runs of one commit.  Runs of the two sides are paired by
workload and seed.  For each workload and end-to-end metric it prints each
side's median and quartiles, how many pairs the new side wins (ties count
for neither), and a verdict against the metric's bound in BENCHMARK.json:

- better: the new side wins at least 9 of 10 pairs and the medians differ by
  more than the base side's interquartile range;
- worse: the new median is worse than the base median by more than the bound;
- unresolved: neither, and either side's interquartile range is wider than
  the bound, unless every new run beats every base run;
- within bound: otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result, for the untraced runs in ``directory``."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> tuple[int, str]:
    sign = 1 if lower_is_better else -1
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    gain = sign * (bmed - nmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return wins, "better"
    if -gain > bound * abs(bmed):
        return wins, "worse"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    every_new_wins = all(sign * (a - b) > 0 for a in base for b in new)
    if spread > bound and not every_new_wins:
        return wins, "unresolved"
    return wins, "within bound"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base_runs, new_runs = (load_runs(Path(a)) for a in argv)
    for workload in [w["name"] for w in spec["workloads"]]:
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        if not base or not new:
            print(f"== {workload}: no runs on {'both sides' if not base and not new else 'one side'}")
            continue
        seeds = sorted(set(base) & set(new))
        print(f"== {workload}: {len(base)} base runs, {len(new)} new runs, "
              f"{len(seeds)} pairs")
        for side, runs in (("base", base), ("new", new)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            bad = sum(1 for r in runs.values() if not r["correct"])
            print(f"   {side}: attempted {att}, failed {fail}, incorrect runs {bad}")
        print(f"   {'metric':16s} {'unit':6s} {'base q1/med/q3':>26s} "
              f"{'new q1/med/q3':>26s} {'wins':>6s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base.values()]
            n = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(base[s]["metrics"][name]["value"],
                      new[s]["metrics"][name]["value"]) for s in seeds]
            wins, word = verdict(b, n, pairs, m["better"] == "lower", m["bound"])
            bq, nq = quartiles(b), quartiles(n)
            print(f"   {name:16s} {m['unit']:6s} {'/'.join(map(fmt, bq)):>26s} "
                  f"{'/'.join(map(fmt, nq)):>26s} {wins:>3d}/{len(pairs):<2d}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
