from fractions import Fraction

import pytest

from twoec import gadgets
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.oracle import TooLarge, _two_ec_on, exact_min_2ecss
from twoec.params import desk_params
from twoec.preprocess import (COMPATIBLE, InternalInvariantViolation, Reducer,
                              classify_side_types, find_contractible,
                              find_irrelevant_edge, find_large_3vc,
                              find_large_ck, find_non_isolating_2vc,
                              min_augment_to_2ec, red, side2_availability)

P = desk_params()


def inner_oracle(g):
    return exact_min_2ecss(g, limit=max(60, g.n))


def run(name):
    g = gadgets.GADGETS[name]()
    sol, trace = red(g, P, inner=inner_oracle)
    assert _two_ec_on(g, sol)
    return g, sol, trace


def branch_labels(trace):
    out = []
    for node in trace.walk():
        label = node.step
        if "branch" in node.detail:
            label += "/" + str(node.detail["branch"])
        if "k" in node.detail:
            label += f"/k{node.detail['k']}"
        out.append(label)
    return out


def audit_invariant(g, sol, trace):
    """Eq. reduce-invariant at the root: equality below the floor, otherwise
    alpha * opt + f(n); when the oracle cannot certify opt, the stronger
    bound alpha * n + f(n) is used (opt >= n for every 2ECSS)."""
    n = g.n
    if P.is_base_size(n):
        opt = len(exact_min_2ecss(g, limit=max(60, n)))
        assert len(sol) == opt
        return "exact"
    bound_weak = P.alpha * n + P.f(n)
    try:
        opt = len(exact_min_2ecss(g, limit=max(60, n), node_budget=1_500_000))
        assert Fraction(len(sol)) <= P.alpha * opt + P.f(n)
        return "opt"
    except TooLarge:
        assert Fraction(len(sol)) <= bound_weak
        return "lower-bound"


# -- detection units ---------------------------------------------------------

def test_thresholds_desk():
    assert P.size_floor == 16
    assert P.three_cut_side == 8
    assert P.ck_side(4) == 17
    assert P.ck_side(8) == 34
    assert P.four_cut_side_2 == 26


def test_find_cut_structures():
    g = gadgets.planted_vertex1()
    from twoec.preprocess import find_cut_vertex
    assert find_cut_vertex(g) is not None
    g = gadgets.planted_irrelevant()
    assert find_irrelevant_edge(g) is not None
    g = gadgets.planted_2vc_b()
    assert find_non_isolating_2vc(g) is not None
    g = gadgets.planted_3vc_both_large()
    trip = find_large_3vc(g, P)
    assert trip is not None
    v1, v2 = trip[1], trip[2]
    assert len(v1) >= 8 and len(v2) >= 8
    g = gadgets.planted_cycle_cut(4)
    ck = find_large_ck(g, P)
    assert ck is not None and len(ck[0]) == 4


def test_contractible_candidate():
    g = gadgets.planted_contractible()
    found = find_contractible(g, P)
    assert found is not None
    w, kept = found
    assert len(w) == 4 and len(kept) == 4


def test_min_augment_basic():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    f = min_augment_to_2ec(g, {0, 1}, 2)
    assert f is not None and _two_ec_on(g, {0, 1} | f)


# -- side type tables ---------------------------------------------------------

def test_side_types_c4_through_cut():
    # side: C4 u-x-y-v-u -> A = the 4 cycle edges, B = 3 (Hamiltonian path)
    g = MultiGraph(6, [(0, 2), (2, 3), (3, 1), (1, 0),
                       (0, 4), (4, 5), (5, 1)])
    table = classify_side_types(g, {2, 3}, [0, 1])
    assert table.opt_size("A") == 4
    assert table.opt_size("B") == 3
    t, sol = table.t_min()
    assert t == "B"


def test_side_types_single_path():
    # side: u - x - v path only: A and C absent, B = 2
    g = MultiGraph(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    table = classify_side_types(g, {2}, [0, 1])
    assert table.opt_size("A") is None
    assert table.opt_size("B") == 2
    assert table.opt_size("C") is None


def test_side_types_3cut_star_is_not_c1():
    # one interior vertex adjacent to u, v, w: the star leaves the interior
    # vertex with degree 3 but every leaf is a bare cut vertex, which is a
    # valid C1 tree; with only one interior vertex C1 = 3
    g = MultiGraph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    table = classify_side_types(g, {3}, [0, 1, 2])
    assert table.opt_size("C1") == 3
    assert table.opt_size("A") is None


def test_type_a_minimum_triggers_contraction():
    # a forced C4 side through a 2-cut: every completion keeps all 4 edges
    b = gadgets.Builder()
    u = b.vertex()
    v = b.vertex()
    x = b.vertex()
    y = b.vertex()
    b.edge(u, x)
    b.edge(x, v)
    b.edge(v, y)
    b.edge(y, u)
    blob = gadgets.sub_wheel(b, 8)
    b.edge(blob["spokes"][0], u)
    b.edge(blob["spokes"][2], u)
    b.edge(blob["spokes"][4], v)
    b.edge(blob["spokes"][6], v)
    g = b.graph()
    assert is_two_edge_connected(g)
    sol, trace = red(g, P, inner=inner_oracle)
    assert _two_ec_on(g, sol)
    labels = branch_labels(trace)
    assert any("ContractContractible" in l for l in labels)


# -- branch coverage -----------------------------------------------------------

EXPECTED_BRANCH = {
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
    "cycle8": "RemoveCkCut/k8",
    "vertex4_case1": "Remove4VC/case1",
    "vertex4_case2": "Remove4VC/case2",
}

FAST_KINDS = [k for k in EXPECTED_BRANCH
              if k not in ("cycle8", "vertex4_case1", "vertex4_case2")]


@pytest.mark.parametrize("kind", FAST_KINDS)
def test_branch_and_invariant(kind):
    g, sol, trace = run(kind)
    labels = branch_labels(trace)
    assert any(EXPECTED_BRANCH[kind] in l for l in labels), labels
    audit_invariant(g, sol, trace)


@pytest.mark.parametrize("kind", ["cycle8",
                                  pytest.param("vertex4_case1", marks=pytest.mark.slow),
                                  "vertex4_case2"])
def test_branch_and_invariant_slow(kind):
    g, sol, trace = run(kind)
    labels = branch_labels(trace)
    assert any(EXPECTED_BRANCH[kind] in l for l in labels), labels
    audit_invariant(g, sol, trace)


def test_dummy_edges_never_leak():
    for kind in ("vertex2_b", "vertex3_c2i", "vertex3_c2ii", "vertex3_c3"):
        g, sol, trace = run(kind)
        assert all(0 <= e < g.m for e in sol)


def test_cut_vertex_split_sums():
    g = gadgets.planted_vertex1()
    sol, trace = red(g, P, inner=inner_oracle)
    # two C9's sharing a vertex: optimum is both cycles
    assert len(sol) == 18
    assert trace.step == "SplitCutVertex"


def test_trace_json_roundtrip():
    g, sol, trace = run("vertex2_b")
    js = trace.to_json()
    assert js["step"] in ("Remove2VC", "SplitCutVertex", "DropLoopOrParallel")
    assert isinstance(js["children"], list)


def test_branch_f_budgets():
    """Joining edge sets respect the per-branch budgets."""
    budgets = {"vertex2_both_large": ("Remove2VC", 2),
               "vertex3_both_large": ("Remove3VC", 4),
               "vertex3_b1": ("Remove3VC", 1),
               "vertex3_c2i": ("Remove3VC", 1),
               "vertex3_c2ii": ("Remove3VC", 1),
               "vertex3_c3": ("Remove3VC", 4)}
    for kind, (step, cap) in budgets.items():
        g, sol, trace = run(kind)
        for node in trace.walk():
            if node.step == step and "f_edges" in node.detail:
                assert len(node.detail["f_edges"]) <= cap, (kind, node.detail)


def test_ck_cut_adds_exactly_k_cycle_edges():
    for k in (4,):
        g, sol, trace = run(f"cycle{k}")
        nodes = [n for n in trace.walk() if n.step == "RemoveCkCut"]
        assert nodes and len(nodes[0].detail["cycle_edges"]) == k


def test_4vc_case2_budget():
    g, sol, trace = run("vertex4_case2")
    nodes = [n for n in trace.walk()
             if n.step == "Remove4VC" and n.detail["branch"] == "case2"]
    assert nodes
    for node in nodes:
        assert node.detail["z_size"] <= node.detail["budget"]
