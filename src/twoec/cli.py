"""Command line interface: solve / gen / verify."""
from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .credit import LedgerError
from .few import NoProgress
from .graph import GraphError
from .oracle import Infeasible, NotTwoEdgeConnected, TooLarge

# exit codes 0 (verified), 1 (not verified) and 2 (usage, from argparse) are
# taken; each typed failure gets its own code from 3 up
ERROR_EXIT_CODES = {GraphError: 3, NotTwoEdgeConnected: 4, TooLarge: 5,
                    Infeasible: 6, NoProgress: 7, LedgerError: 8}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twoec",
                                 description="2-edge-connected spanning "
                                             "subgraph approximation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a 2ECSS instance")
    sp.add_argument("file", help="edge-list file ('-' for stdin)")
    sp.add_argument("--profile", choices=["paper", "desk"], default="paper")
    sp.add_argument("--mode", choices=["auto", "few", "many", "exact"],
                    default="auto")
    sp.add_argument("--oracle", action="store_true",
                    help="also compute the exact optimum and the ratio")
    sp.add_argument("--json", dest="json_out", metavar="FILE",
                    help="write the run report as JSON")
    sp.add_argument("--trace", dest="trace_out", metavar="FILE",
                    help="write the reduction/step trace as JSON")
    sp.add_argument("--seed", type=int, default=0)

    gp = sub.add_parser("gen", help="generate an instance")
    gp.add_argument("kind")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--n", type=int, default=10)
    gp.add_argument("--p", type=float, default=0.3)
    gp.add_argument("--k", type=int, default=3)
    gp.add_argument("-o", "--output", metavar="FILE", default="-")

    vp = sub.add_parser("verify", help="verify a solution file")
    vp.add_argument("graph")
    vp.add_argument("solution")
    vp.add_argument("--minimal", action="store_true",
                    help="also check one-edge-removal minimality")
    return ap


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    """Runs one command; a typed failure prints ``{"error", "message"}`` as
    JSON on stderr and returns its code from ``ERROR_EXIT_CODES``."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(ERROR_EXIT_CODES) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return next(code for cls, code in ERROR_EXIT_CODES.items()
                    if isinstance(exc, cls))


def _run(args: argparse.Namespace) -> int:
    if args.command == "solve":
        g = harness.parse_graph(_read(args.file))
        config = harness.SolverConfig(profile=args.profile, mode=args.mode,
                                      seed=args.seed, with_oracle=args.oracle)
        sol, report = harness.solve(g, config)
        payload = report.to_json()
        trace = payload.pop("trace", None)
        steps = payload.pop("steps", None)
        payload["solution"] = sorted(sol)
        if args.json_out:
            _write(args.json_out, json.dumps(payload, indent=2) + "\n")
        if args.trace_out:
            _write(args.trace_out,
                   json.dumps({"reduction": trace, "steps": steps},
                              indent=2) + "\n")
        print(json.dumps({k: payload[k] for k in
                          ("n", "m", "solution_size", "opt", "ratio",
                           "branch", "verified", "waivers")}, indent=2))
        return 0 if report.verified else 1
    if args.command == "gen":
        g = harness.generate(args.kind, seed=args.seed, n=args.n, p=args.p,
                             k=args.k)
        _write(args.output, harness.serialize_graph(g))
        return 0
    if args.command == "verify":
        g = harness.parse_graph(_read(args.graph))
        h = harness.parse_solution(_read(args.solution))
        result = harness.verify(g, h, minimality=args.minimal)
        print(json.dumps(result, indent=2))
        return 0 if result["ok"] else 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
