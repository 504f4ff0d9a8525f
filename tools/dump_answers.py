#!/usr/bin/env python3
"""Dump a checkout's answers on the benchmark suites, for an identity check.

    python3 tools/dump_answers.py CHECKOUT OUT.json

CHECKOUT is the root of a twoec checkout; its ``src/`` and ``perfbench/``
are imported.  For every instance of both benchmark workloads (seed 1) the
file holds ``[workload, name, mode, sorted(solution), report]``, the report
being ``RunReport.to_json()`` without ``wall_time``.  It also holds the cut
scan ``cuts.enumerate_cuts`` under the desk profile on those graphs and on
200 seeded ``random2ec`` graphs.  Two checkouts give the same answers and
reports iff their files are byte-identical.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

RANDOM_SCANS = 200
RANDOM_P = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from twoec import cuts, harness
    from twoec.params import desk_params
    if not Path(harness.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"twoec was imported from {harness.__file__}, not {root / 'src'}")

    solves, graphs = [], []
    for workload in workloads.WORKLOADS:
        for inst in workloads.build(workload, 1, harness):
            g = harness.parse_graph(inst.text)
            config = harness.SolverConfig(profile="desk", mode=inst.mode,
                                          with_oracle=inst.with_oracle)
            sol, rep = harness.solve(g, config)
            report = rep.to_json()
            del report["wall_time"]
            solves.append([workload, inst.name, inst.mode, sorted(sol), report])
            graphs.append(g)
    for i in range(RANDOM_SCANS):
        graphs.append(harness.generate("random2ec", seed=5000 + i, n=6 + i % 7,
                                       p=RANDOM_P[(i // 7) % 7]))
    scans = [[dataclasses.asdict(c) for c in cuts.enumerate_cuts(g, desk_params())]
             for g in graphs]
    with open(argv[1], "w") as out:
        json.dump({"solves": solves, "cut_scans": scans}, out, sort_keys=True)
    print(f"{len(solves)} solves, {len(scans)} cut scans -> {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
