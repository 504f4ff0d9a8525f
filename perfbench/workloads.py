"""The benchmark's workloads: which instances a round solves, in which mode,
and what each answer must satisfy.

Every workload is a fixed suite, and ``--seed`` sets only the order in which
a round visits it; README.md says why.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from check import two_ecss_problem

WORKLOADS = ("sweep", "reduce_exchange")

# criterion 1's stream: instance i has n, p drawn from Random(31337 + i) and
# graph seed 91000 + i; a round solves its first SWEEP_SIZE instances
SWEEP_SIZE = 60
# sweep instances this small also get their optimum from exhaustive search
EXHAUSTIVE_MAX_EDGES = 15

# planted gadget -> the branch its construction plants.  cycle8 and
# vertex4_case1 are left out: one solve of either outlasts a run, mostly in
# the audit sidecar (README.md).
PLANTED = {
    "vertex1": "SplitCutVertex",
    "parallel": "DropLoopOrParallel",
    "contractible": "ContractContractible",
    "irrelevant": "DropIrrelevant",
    "vertex2_b": "Remove2VC/B",
    "vertex2_c": "Remove2VC/C",
    "vertex2_both_large": "Remove2VC/both-large",
    "vertex3_b1": "Remove3VC/B1",
    "vertex3_c1": "Remove3VC/C1",
    "vertex3_c2i": "Remove3VC/C2i",
    "vertex3_c2ii": "Remove3VC/C2ii",
    "vertex3_c2iii": "Remove3VC/C2iii",
    "vertex3_c3": "Remove3VC/C3",
    "vertex3_both_large": "Remove3VC/both-large",
    "cycle4": "RemoveCkCut/k4",
    "vertex4_case2": "Remove4VC/case2",
}
# mid-size random graphs (n, p, graph seed): every detector scans n=18 and
# n=22 to exhaustion; n=20 has a contractible part
REDUCE_RANDOM = [(18, 0.2, 1), (20, 0.15, 1), (22, 0.15, 1)]

EXCHANGE = ([("hub_c4", k, mode) for k in (12, 24, 48) for mode in ("few", "many")]
            + [("shortcut_ring", k, "many") for k in (10, 12)])


@dataclass
class Instance:
    name: str
    n: int
    edges: list[tuple[int, int]]
    text: str                      # the serialised graph the solver parses
    mode: str
    with_oracle: bool = False
    planted: Optional[str] = None  # trace label the construction plants
    ring_k: Optional[int] = None   # shortcut_ring k: Hamiltonian, OPT = 4k


def build(workload: str, seed: int, harness) -> list[Instance]:
    """Generate and serialise the workload's instances, in the seed's order."""
    out: list[Instance] = []

    def add(name, g, mode, **kw):
        out.append(Instance(name, g.n, list(g.edges),
                            harness.serialize_graph(g), mode, **kw))

    if workload == "sweep":
        for i in range(SWEEP_SIZE):
            draw = random.Random(31337 + i)
            n = draw.randint(5, 12)
            p = draw.choice([0.3, 0.45, 0.6, 0.75, 0.9])
            g = harness.generate("random2ec", seed=91000 + i, n=n, p=p)
            add(f"random2ec-{i}-n{n}-p{p}", g, "auto", with_oracle=True)
    elif workload == "reduce_exchange":
        for kind, branch in PLANTED.items():
            add(kind, harness.generate(kind), "auto", planted=branch)
        for n, p, s in REDUCE_RANDOM:
            g = harness.generate("random2ec", seed=s, n=n, p=p)
            add(f"random2ec-n{n}-p{p}-s{s}", g, "auto")
        for kind, k, mode in EXCHANGE:
            add(f"{kind}-k{k}-{mode}", harness.generate(kind, k=k), mode,
                ring_k=k if kind == "shortcut_ring" else None)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out


def trace_labels(node: dict) -> list[str]:
    """Reduction trace labels: step, then /branch and /k<k> when present."""
    label = node["step"]
    if "branch" in node["detail"]:
        label += "/" + str(node["detail"]["branch"])
    if "k" in node["detail"]:
        label += f"/k{node['detail']['k']}"
    return [label] + [x for c in node["children"] for x in trace_labels(c)]


def problems(inst: Instance, g, sol: set[int], rep) -> list[str]:
    """Everything wrong with one answer; empty when it is correct."""
    out = []
    if g.n != inst.n or list(g.edges) != inst.edges:
        out.append("parse_graph did not return the serialised graph")
    why = two_ecss_problem(inst.n, inst.edges, sol)
    if why:
        out.append(why)
    if len(sol) < inst.n:
        out.append(f"|solution|={len(sol)} < n={inst.n}")
    if not rep.verified:
        out.append("the report is not verified")
    if inst.with_oracle:
        opt = rep.opt
        if opt is None or not inst.n <= opt <= len(sol) <= Fraction(5, 4) * opt:
            out.append(f"n={inst.n}, opt={opt}, |solution|={len(sol)} "
                       "break n <= opt <= |solution| <= 5/4 opt")
    if inst.planted and inst.planted not in trace_labels(rep.trace):
        out.append(f"trace lacks the planted branch {inst.planted}")
    if inst.ring_k and len(sol) > 5 * inst.ring_k:
        out.append(f"|solution|={len(sol)} > 5/4 * 4k for k={inst.ring_k}")
    return out


def exhaustive_opt(n: int, edges: list[tuple[int, int]]) -> int:
    """Size of a minimum 2ECSS, by trying every edge subset by size."""
    for size in range(n, len(edges) + 1):
        for comb in combinations(range(len(edges)), size):
            if two_ecss_problem(n, edges, comb) is None:
                return size
    raise ValueError("the graph is not 2-edge-connected")
