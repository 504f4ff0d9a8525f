#!/usr/bin/env python3
"""Run one workload of the twoec benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

A run imports ``twoec`` from this checkout's ``src/``, builds the workload's
instances, then solves whole rounds of them, one after another in this
process (a closed loop), until ``--seconds`` have passed.  Each solve parses
the serialised graph with ``harness.parse_graph``, runs ``harness.solve`` on
the ``desk`` profile and checks the answer.  The last line of standard
output is the result as JSON; a copy goes to ``perfbench/results/``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the public functions of each layer are wrapped from outside (see spans.py)
and the metrics are per-layer calls and self seconds, per round.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5

# traced functions, by their name under ``twoec``: (name, count only,
# counter over the call's result)
TRACED = [
    ("harness.parse_graph", False, None),
    ("harness.solve", False, None),
    ("harness.cover_pipeline", False, None),
    ("harness.verify", False, None),
    ("preprocess.red", False, None),
    ("preprocess.find_cut_vertex", False, None),
    ("preprocess.find_loop_or_parallel", False, None),
    ("preprocess.find_contractible", False, None),
    ("preprocess.find_irrelevant_edge", False, None),
    ("preprocess.find_non_isolating_2vc", False, None),
    ("preprocess.find_large_3vc", False, None),
    ("preprocess.find_large_ck", False, None),
    ("preprocess.find_large_4vc", False, None),
    ("preprocess.classify_side_types", False, None),
    ("preprocess.Reducer.remove_2vc", False, None),
    ("preprocess.Reducer.remove_3vc", False, None),
    ("preprocess.Reducer.remove_ck_cut", False, None),
    ("preprocess.Reducer.remove_4vc", False, None),
    ("oracle.exact_min_2ecss", False, None),
    ("oracle.exact_min_cover", False, None),
    ("oracle.max_removable_inside", False, None),
    ("cover.min_triangle_free_cover", False, None),
    ("cover.canonicalize", False, ("steps", lambda r: r[2])),
    ("decomp.CoverDecomposition", False, None),
    ("credit.build_few_ledger", False, None),
    ("credit.build_many_ledger", False, None),
    ("credit.check_invariants", False, None),
    ("few.run_few", False, None),
    ("few.cover_bridges_step", False, None),
    ("few.glue_step", False, None),
    ("few.apply_candidate", False, ("accepted", lambda r: r is True)),
    ("many.run_many", False, None),
    ("many.build_core_square", False, None),
    ("many.find_merge", False, None),
    ("many.apply_many", False, ("accepted", lambda r: r is True)),
    ("graph.connected_components", True, None),
    ("graph.find_bridges", True, None),
]


def import_program():
    """A fresh import of ``twoec`` from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "twoec"]:
        del sys.modules[name]
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    harness = importlib.import_module("twoec.harness")
    if not Path(harness.__file__).resolve().is_relative_to(src):
        sys.exit(f"twoec was imported from {harness.__file__}, not {src}")
    return harness


def setup(workload: str, seed: int):
    """Import, generate and serialise once; returns the seconds it took."""
    t0 = perf_counter()
    harness = import_program()
    instances = workloads.build(workload, seed, harness)
    return perf_counter() - t0, harness, instances


def install_tracer(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "twoec"]
    for name, count_only, result_count in TRACED:
        module, *path = name.split(".")
        owner = sys.modules[f"twoec.{module}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        tracer.install(modules, owner, path[-1], name, count_only, result_count)


class Run:
    """Closed-loop rounds over one workload, with their measurements."""

    def __init__(self, harness, instances, tracer=None):
        self.harness = harness
        self.instances = instances
        self.tracer = tracer
        self.walls: list[float] = []
        self.solve_times: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, tuple[set[int], object]] = {}

    def round(self) -> None:
        h = self.harness
        t0 = perf_counter()
        for i, inst in enumerate(self.instances):
            self.attempted += 1
            if self.tracer:
                self.tracer.request = self.attempted
            config = h.SolverConfig(profile="desk", mode=inst.mode,
                                    with_oracle=inst.with_oracle)
            try:
                g = h.parse_graph(inst.text)
                s0 = perf_counter()
                sol, rep = h.solve(g, config)
                self.solve_times.append((inst.name, perf_counter() - s0))
            except Exception as exc:  # a failed solve is counted; the run goes on
                self.failed += 1
                print(f"FAILED {inst.name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            self.problems += [f"{inst.name}: {p}"
                              for p in workloads.problems(inst, g, sol, rep)]
            if self.first.setdefault(i, (sol, rep.opt))[0] != sol:
                self.problems.append(f"{inst.name}: answer changed between rounds")
        self.walls.append(perf_counter() - t0)

    def check_optima(self) -> None:
        """Compare the oracle's optimum with exhaustive search on the
        smallest instances."""
        for i, inst in enumerate(self.instances):
            if (inst.with_oracle and i in self.first
                    and len(inst.edges) <= workloads.EXHAUSTIVE_MAX_EDGES):
                want = workloads.exhaustive_opt(inst.n, inst.edges)
                if self.first[i][1] != want:
                    self.problems.append(f"{inst.name}: opt={self.first[i][1]}"
                                         f" but exhaustive search gives {want}")

    def solution_edges(self) -> int:
        return sum(len(sol) for sol, _ in self.first.values())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float, peak_kb: int) -> dict:
    return {
        "wall_s": metric(statistics.median(run.walls), "s"),
        "solution_edges": metric(run.solution_edges(), "count"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(run: Run, tracer: Tracer) -> dict:
    rounds = len(run.walls)
    wall = sum(run.walls)
    outside = wall - tracer.top_level_seconds()
    stats = tracer.summary()
    self_total = sum(s["self_s"] for s in stats.values())
    if abs(self_total + outside - wall) > 1e-6 * max(wall, 1.0):
        sys.exit(f"span self times {self_total} + outside {outside} != wall {wall}")
    out = {}
    for name, count_only, result_count in TRACED:
        if count_only:
            out[f"{name}.calls"] = metric(tracer.counts[f"{name}.calls"] / rounds,
                                          "count")
            continue
        s = stats.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = metric(s["calls"] / rounds, "count")
        out[f"{name}.self_s"] = metric(s["self_s"] / rounds, "s")
        if result_count:
            key = f"{name}.{result_count[0]}"
            out[key] = metric(tracer.counts[key] / rounds, "count")
    out["harness.solve.p50_s"] = metric(
        statistics.median([t for _, t in run.solve_times] or [0.0]), "s")
    out["trace.wall_s"] = metric(wall / rounds, "s")
    out["trace.outside_s"] = metric(outside / rounds, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # the desk profile's own oracle limit, whatever the environment says
    os.environ.pop("TWOEC_ORACLE_LIMIT", None)

    # set-up is timed SETUP_REPEATS times before the rounds and, in an
    # untraced run, as often after them, so that its median spans the run
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, harness, instances = setup(args.workload, args.seed)
        setup_times.append(seconds)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer)
    run = Run(harness, instances, tracer)
    start = perf_counter()
    while not run.walls or perf_counter() - start < args.seconds:
        run.round()
    run.check_optima()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not tracer:
        setup_times += [setup(args.workload, args.seed)[0]
                        for _ in range(SETUP_REPEATS)]

    metrics = (per_layer(run, tracer) if tracer else
               end_to_end(run, statistics.median(setup_times), peak_kb))
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "rounds": len(run.walls), "nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "problems": run.problems, "solve_s": run.solve_times,
                   "result": result}, fh, indent=1)
    if tracer:
        tracer.dump(RESULTS / f"{stem}.spans.json")
    for p in run.problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(run.walls)} rounds, "
          f"{run.attempted} solves, {run.failed} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
