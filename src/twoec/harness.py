"""End-to-end solver, instance generation, parsing, verification, reports."""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import gadgets, oracle
from .cover import canonicalize, min_triangle_free_cover
from .credit import LedgerError
from .few import NoProgress, run_few
from .graph import GraphError, MultiGraph, is_two_edge_connected
from .many import run_many
from .params import StructuredParams, get_profile
from .preprocess import red


@dataclass
class SolverConfig:
    profile: str = "paper"
    mode: str = "auto"                  # auto | few | many | exact
    seed: int = 0
    with_oracle: bool = False
    oracle_limit: Optional[int] = None
    beta_override: Optional[str] = None  # force few/many regardless of beta

    def params(self) -> StructuredParams:
        p = get_profile(self.profile)
        limit = self.oracle_limit
        env = os.environ.get("TWOEC_ORACLE_LIMIT")
        if limit is None and env:
            limit = int(env)
        if limit is not None:
            from dataclasses import replace
            p = replace(p, oracle_limit=limit)
        return p


def _frac(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


@dataclass
class RunReport:
    n: int = 0
    m: int = 0
    mode: str = "auto"
    profile: str = "paper"
    seed: int = 0
    h0_size: Optional[int] = None
    beta: Optional[Fraction] = None
    branch: Optional[str] = None
    step_counts: dict = field(default_factory=dict)
    pipeline_steps: int = 0
    waivers: int = 0
    solution_size: int = 0
    opt: Optional[int] = None
    ratio: Optional[Fraction] = None
    verified: bool = False
    wall_time: float = 0.0
    trace: Optional[dict] = None
    step_trace: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "n": self.n, "m": self.m, "mode": self.mode,
            "profile": self.profile, "seed": self.seed,
            "h0_size": self.h0_size,
            "beta": None if self.beta is None else
                    {"exact": _frac(self.beta), "decimal": float(self.beta)},
            "branch": self.branch,
            "step_counts": dict(sorted(self.step_counts.items())),
            "pipeline_steps": self.pipeline_steps,
            "waivers": self.waivers,
            "solution_size": self.solution_size,
            "opt": self.opt,
            "ratio": None if self.ratio is None else
                     {"exact": _frac(self.ratio), "decimal": float(self.ratio)},
            "verified": self.verified,
            "wall_time": round(self.wall_time, 6),
        }
        if self.trace is not None:
            out["trace"] = self.trace
        if self.step_trace:
            out["steps"] = self.step_trace
        return out


def cover_pipeline(g: MultiGraph, params: StructuredParams, mode: str = "auto",
                   beta_threshold: Optional[Fraction] = None, strict: bool = False,
                   opt_hint: Optional[int] = None) -> tuple[set[int], dict]:
    """Canonical cover, then the FEW or MANY transformation by the 4-cycle
    edge fraction; returns the solution and step statistics."""
    h_min, certified = min_triangle_free_cover(
        g, mode="exact", limit=max(params.oracle_limit, g.n))
    h0, dec0, canon_steps = canonicalize(g, h_min, params)
    m4 = dec0.c4_edge_count()
    beta = Fraction(m4, len(h0)) if h0 else Fraction(0)
    threshold = beta_threshold if beta_threshold is not None else params.beta_threshold
    if mode == "few":
        branch = "few"
    elif mode == "many":
        branch = "many"
    else:
        branch = "many" if beta > threshold else "few"
    stats = {"h0_size": len(h0), "beta": beta, "branch": branch,
             "canonicalize_steps": canon_steps, "cover_certified": certified}
    if branch == "few":
        sol, state = run_few(g, h0, params, strict=strict)
    else:
        sol, state = run_many(g, h0, params, opt_hint=opt_hint, strict=strict)
    stats["steps"] = [r.to_json() for r in state.trace]
    stats["waivers"] = sum(1 for r in state.trace if r.waiver)
    stats["info"] = state.info
    return sol, stats


def solve(g: MultiGraph, config: SolverConfig) -> tuple[set[int], RunReport]:
    t0 = time.time()
    if not is_two_edge_connected(g):
        raise oracle.NotTwoEdgeConnected("input graph is not 2-edge-connected")
    params = config.params()
    report = RunReport(n=g.n, m=g.m, mode=config.mode, profile=config.profile,
                       seed=config.seed)

    pipeline_stats: dict = {}

    def inner(sub: MultiGraph) -> set[int]:
        sol, stats = cover_pipeline(sub, params, mode="auto", strict=False)
        pipeline_stats.setdefault("inner_calls", []).append(stats)
        return sol

    opt: Optional[int] = None       # set when the solve itself is exact
    if config.mode == "exact":
        sol = oracle.exact_min_2ecss(g, limit=max(params.oracle_limit, g.n))
        report.branch = "exact"
        opt = len(sol)
    elif config.mode in ("few", "many"):
        sol, stats = cover_pipeline(g, params, mode=config.mode, strict=False)
        pipeline_stats["main"] = stats
        report.branch = stats["branch"]
    else:
        sol, trace = red(g, params, inner=inner)
        report.trace = trace.to_json()
        if trace.step == "BruteForce":
            opt = len(sol)
        # audit sidecar: exercise the cover machinery on the whole instance
        # and keep its solution when it happens to win
        try:
            side_sol, stats = cover_pipeline(g, params, mode="auto", strict=False)
            pipeline_stats["main"] = stats
            report.branch = stats["branch"]
            if oracle._two_ec_on(g, side_sol) and len(side_sol) < len(sol):
                sol = side_sol
        except (NoProgress, LedgerError, oracle.TooLarge, oracle.Infeasible):
            report.branch = "red-only"

    main = pipeline_stats.get("main")
    if main:
        report.h0_size = main["h0_size"]
        report.beta = main["beta"]
        counts: dict[str, int] = {}
        if main["canonicalize_steps"]:
            counts["canonicalize"] = main["canonicalize_steps"]
        for rec in main["steps"]:
            counts[rec["phase"]] = counts.get(rec["phase"], 0) + 1
        report.step_counts = counts
        report.pipeline_steps = sum(counts.values())
        report.waivers = main["waivers"]
        report.step_trace = main["steps"]

    ver = verify(g, sol)
    report.verified = ver["ok"]
    if not ver["ok"]:
        raise RuntimeError(f"solver produced an infeasible solution: {ver}")
    report.solution_size = len(sol)
    if config.with_oracle:
        if opt is None:
            try:
                opt = len(oracle.exact_min_2ecss(
                    g, limit=max(params.oracle_limit, g.n)))
            except oracle.TooLarge:
                pass
        report.opt = opt
        if opt is not None:
            report.ratio = Fraction(len(sol), opt)
    report.wall_time = time.time() - t0
    return sol, report


# ---------------------------------------------------------------------------
# generation / verification / io
# ---------------------------------------------------------------------------

def generate(kind: str, seed: int = 0, **kw) -> MultiGraph:
    """Instance generator; all kinds are post-verified 2EC."""
    if kind == "random2ec":
        return gadgets.random2ec(kw.get("n", 10), kw.get("p", 0.3), seed)
    if kind == "hub_c4":
        return gadgets.hub_c4(kw.get("k", 3), kw.get("hub_len", 9))
    if kind == "nice_c5_complex":
        return gadgets.nice_c5_complex(kw.get("pendants", 1))
    if kind == "loan_complex":
        return gadgets.loan_complex(kw.get("bridges", 3))
    if kind == "branch_fig":
        return gadgets.branch_fig()
    if kind == "star_complex":
        return gadgets.star_complex(kw.get("k", 3), kw.get("hub_len", 9),
                                    kw.get("chain", 1))
    if kind == "merge_triangle":
        return gadgets.merge_triangle()
    if kind == "short_heavy_c5":
        return gadgets.short_heavy_c5()
    if kind == "double_merge_host":
        return gadgets.double_merge_host()
    if kind == "shortcut_ring":
        return gadgets.shortcut_ring(kw.get("k", 5))
    if kind in gadgets.GADGETS:
        return gadgets.GADGETS[kind]()
    raise ValueError(f"unknown instance kind {kind!r}")


def verify(g: MultiGraph, h: set[int], minimality: bool = False) -> dict:
    out = {"ok": False, "subset": all(0 <= e < g.m for e in h)}
    if not out["subset"]:
        return out
    covered = {v for e in h for v in g.edges[e]}
    out["spanning"] = covered == set(range(g.n)) or g.n <= 1
    out["two_edge_connected"] = oracle._two_ec_on(g, h)
    out["ok"] = out["spanning"] and out["two_edge_connected"]
    if minimality and out["ok"]:
        out["minimal"] = oracle.minimal_2ecss_witness(g, h)
    return out


def _int_pair(line: str, error: str) -> tuple[int, int]:
    """The two integers on ``line``; ``GraphError(error)`` if it holds
    anything else."""
    try:
        u, v = (int(tok) for tok in line.split())
    except ValueError:
        raise GraphError(error) from None
    return u, v


def parse_graph(text: str) -> MultiGraph:
    """`n m` header then one `u v` line per edge; `#` starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty graph file")
    n, m = _int_pair(lines[0], f"bad header {lines[0]!r}; expected 'n m'")
    if n < 0:
        raise GraphError(f"bad header {lines[0]!r}; n is negative")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        u, v = _int_pair(line, f"bad edge line {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u} {v} out of range for n={n}")
        edges.append((u, v))
    return MultiGraph(n, edges)


def serialize_graph(g: MultiGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def serialize_solution(h: set[int]) -> str:
    return " ".join(str(e) for e in sorted(h)) + "\n"


def parse_solution(text: str) -> set[int]:
    return {int(tok) for tok in text.split()}
