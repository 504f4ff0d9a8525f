#!/usr/bin/env python3
"""Dump a checkout's answers on the benchmark suites, for an identity check.

    python3 tools/dump_answers.py CHECKOUT OUT.json

CHECKOUT is the root of a twoec checkout; its ``src/`` and ``perfbench/``
are imported.  For every instance of both benchmark workloads (seed 1) the
file holds ``[workload, name, mode, sorted(solution), report]``, the report
being ``RunReport.to_json()`` without ``wall_time``.  It also holds
``--mode few`` and ``--mode many`` solves of the exchange gadgets (the
benchmark never repays a loan or waives a bound; ``bridge_chain`` under FEW
repays one and ``short_heavy_c5`` under FEW takes a waiver), each as the
same row or, when the solve fails, ``[..., mode, None, exception name]``.
Last come the cut scan ``preprocess.enumerate_cuts`` and the
contractible-part finder ``preprocess.find_contractible`` (which the scan
skips), both under the desk profile, on the benchmark graphs and on 200
seeded ``random2ec`` graphs.  Two checkouts give the same answers and
reports iff their files are byte-identical.  Each section's wall seconds go to standard error.
``solve_rows`` gives the solve rows alone and ``scan_rows`` the scans of
given graphs; ``tests/test_golden.py`` checks the solve rows, and the scans
of the ``reduce_exchange`` graphs, against committed copies.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

RANDOM_SCANS = 200
RANDOM_P = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# (name, gadgets function, keyword arguments) solved under FEW and MANY
EXCHANGE_GADGETS = [
    ("bridge_chain", "bridge_chain", {}),
    ("loan_complex", "loan_complex", {}),
    ("nice_c5_complex", "nice_c5_complex", {}),
    ("nice_c5_complex-2", "nice_c5_complex", {"pendants": 2}),
    ("star_complex", "star_complex", {}),
    ("short_heavy_c5", "short_heavy_c5", {}),
    ("double_merge_host", "double_merge_host", {}),
    ("hub_c4-3", "hub_c4", {"k": 3}),
    ("hub_c4-6", "hub_c4", {"k": 6}),
    ("shortcut_ring-10", "shortcut_ring", {"k": 10}),
] + [(f"random2ec-{seed}", "random2ec", {"n": 12 + seed % 3, "p": 0.25,
                                          "seed": seed}) for seed in range(6)]


def report_row(harness, g, config) -> tuple[list[int], dict]:
    sol, rep = harness.solve(g, config)
    report = rep.to_json()
    del report["wall_time"]
    return sorted(sol), report


def solve_rows() -> tuple[list, list]:
    """The file's solve rows, and the benchmark graphs in row order, from
    the ``twoec`` and ``workloads`` (``perfbench/``) found on ``sys.path``."""
    import workloads
    from twoec import cli, gadgets, harness
    solves, graphs = [], []
    for workload in workloads.WORKLOADS:
        for inst in workloads.build(workload, 1, harness):
            g = harness.parse_graph(inst.text)
            config = harness.SolverConfig(profile="desk", mode=inst.mode,
                                          with_oracle=inst.with_oracle)
            solves.append([workload, inst.name, inst.mode,
                           *report_row(harness, g, config)])
            graphs.append(g)
    for name, builder, kwargs in EXCHANGE_GADGETS:
        g = getattr(gadgets, builder)(**kwargs)
        for mode in ("few", "many"):
            config = harness.SolverConfig(profile="desk", mode=mode)
            try:
                row = report_row(harness, g, config)
            except tuple(cli.ERROR_EXIT_CODES) as exc:
                row = [None, type(exc).__name__]
            solves.append(["exchange", name, mode, *row])
    return solves, graphs


def scan_rows(graphs) -> tuple[list, list]:
    """The file's cut scans and contractible parts of ``graphs``, as the
    file holds them."""
    from twoec import preprocess
    from twoec.params import desk_params
    scans = [[dataclasses.asdict(c)
              for c in preprocess.enumerate_cuts(g, desk_params())]
             for g in graphs]
    found = [preprocess.find_contractible(g, desk_params()) for g in graphs]
    return scans, [f and [sorted(f[0]), sorted(f[1])] for f in found]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from twoec import harness
    if not Path(harness.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"twoec was imported from {harness.__file__}, not {root / 'src'}")

    clock = perf_counter()

    def lap(section: str) -> None:
        nonlocal clock
        now = perf_counter()
        print(f"{section}: {now - clock:.1f} s", file=sys.stderr)
        clock = now

    solves, graphs = solve_rows()
    lap("solves")
    for i in range(RANDOM_SCANS):
        graphs.append(harness.generate("random2ec", seed=5000 + i, n=6 + i % 7,
                                       p=RANDOM_P[(i // 7) % 7]))
    scans, contractible = scan_rows(graphs)
    lap("cut scans and contractible finder")
    with open(argv[1], "w") as out:
        json.dump({"solves": solves, "cut_scans": scans,
                   "contractible": contractible}, out, sort_keys=True)
    print(f"{len(solves)} solves, {len(scans)} cut scans, "
          f"{sum(map(bool, contractible))} contractible parts -> {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
