import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import cut_reference
from cut_reference import _components_without, reference_vertex_cuts
from twoec import gadgets, harness, oracle, preprocess
from twoec.graph import (MultiGraph, connected_components, find_bridges,
                         is_two_edge_connected, simple_cycles_upto,
                         two_edge_classes)
from twoec.oracle import TooLarge, _two_ec_on, exact_min_2ecss
from twoec.params import StructuredParams, desk_params, paper_params
from twoec.preprocess import (CONTRACTIBLE_CYCLE_MAX, CYCLE_CAP, T2_ORDER,
                              T3_ORDER, CutDescriptor, Reducer,
                              _c2_path_pair,
                              _class_connector, _contracted_side,
                              _grouping, _shape_of, _side_graph,
                              _sparse_witnesses, _vertex_cuts,
                              classify_side_types,
                              find_contractible, find_cut_vertex,
                              find_irrelevant_edge, find_large_3vc,
                              find_large_4vc, find_large_ck,
                              find_non_isolating_2vc, min_augment_to_2ec, red,
                              side2_availability)

P = desk_params()


def inner_oracle(g):
    return exact_min_2ecss(g)


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


def slack(params, n):
    """The paper's slack term f(n) = 4 epsilon n - 16 of the reduction
    invariant."""
    return 4 * params.epsilon * n - 16


def audit_invariant(g, sol, trace):
    """Eq. reduce-invariant at the root: equality below the floor, otherwise
    alpha * opt + f(n); when the oracle cannot certify opt, the stronger
    bound alpha * n + f(n) is used (opt >= n for every 2ECSS)."""
    n = g.n
    if P.is_base_size(n):
        opt = len(exact_min_2ecss(g))
        assert len(sol) == opt
        return "exact"
    bound_weak = P.alpha * n + slack(P, n)
    try:
        opt = len(exact_min_2ecss(g, node_budget=1_500_000))
        assert Fraction(len(sol)) <= P.alpha * opt + slack(P, n)
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
    assert P.four_cut_small_side == 9
    assert P.four_cut_min_opt == 18


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
    v1, v2 = trip.sides
    assert len(v1) >= 8 and len(v2) >= 8
    g = gadgets.planted_cycle_cut(4)
    ck = find_large_ck(g, P)
    assert ck is not None and len(ck.cycle_order) == 4


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


@pytest.mark.parametrize("seed", range(6))
def test_min_augment_larger_budget_same_answer(seed):
    """Once a budget j finds joining edges, every budget k > j returns the
    same set: the greedy phase and the patch sizes run in the same order
    under any budget.  The reducer's rejoining rows make one call with
    their largest budget on this ground."""
    rnd = random.Random(seed)
    g = gadgets.random2ec(rnd.randint(6, 9), 0.35, seed)
    found = 0
    for _ in range(8):
        base = {e for e in range(g.m) if rnd.random() < 0.55}
        answers = [min_augment_to_2ec(g, base, b) for b in range(7)]
        for j, f in enumerate(answers):
            if f is not None:
                found += 1
                assert all(later == f for later in answers[j + 1:]), (base, j)
                break
    assert found


# -- side types ---------------------------------------------------------------

def sizes_by_type(g, v1, cut):
    """Each type of the cut's order -> the size of its first optimum, from
    single-type queries, or None where the side has no solution of it."""
    sizes = {}
    for t in (T2_ORDER if len(cut) == 2 else T3_ORDER):
        typ, optima = classify_side_types(g, v1, cut, {t})
        sizes[t] = None if typ is None else len(optima[0])
    return sizes


def test_side_types_c4_through_cut():
    # side: C4 u-x-y-v-u -> A = the 4 cycle edges, B = 3 (Hamiltonian path)
    g = MultiGraph(6, [(0, 2), (2, 3), (3, 1), (1, 0),
                       (0, 4), (4, 5), (5, 1)])
    assert sizes_by_type(g, {2, 3}, [0, 1]) == {"A": 4, "B": 3, "C": None}
    t, sol = classify_side_types(g, {2, 3}, [0, 1], set(T2_ORDER))
    assert t == "B"


def test_side_types_single_path():
    # side: u - x - v path only: A and C absent, B = 2
    g = MultiGraph(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert sizes_by_type(g, {2}, [0, 1]) == {"A": None, "B": 2, "C": None}
    assert classify_side_types(g, {2}, [0, 1], {"A", "C"}) == (None, [])


def test_side_types_3cut_star_is_not_c1():
    # one interior vertex adjacent to u, v, w: the star leaves the interior
    # vertex with degree 3 but every leaf is a bare cut vertex, which is a
    # valid C1 tree; with only one interior vertex C1 = 3
    g = MultiGraph(5, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    sizes = sizes_by_type(g, {3}, [0, 1, 2])
    assert sizes["C1"] == 3
    assert sizes["A"] is None


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


def test_type_a_side_is_contracted_by_the_cut_rule():
    """The cut (0, 1) with the C4 0-2-1-3 as its small side and a 6-ring as
    its big side, handed to the reducer as built: vertices 2 and 3 each
    need both their edges, so every side solution is the whole C4, type A,
    and the rule contracts the side instead of rejoining it."""
    g = MultiGraph(10, [(0, 2), (2, 1), (1, 3), (3, 0)]
                   + [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
                   + [(0, 4), (0, 7), (1, 5), (1, 8)])
    cut = CutDescriptor("Vertex2", (0, 1), ((2, 3), tuple(range(4, 10))))
    sol, trace = Reducer(P).remove_2vc(g, cut)
    assert trace.step == "ContractContractible"
    assert trace.detail == {"vertices": [0, 1, 2, 3], "kept": 4,
                            "via": "type-A-side"}
    assert _two_ec_on(g, sol) and len(sol) == len(exact_min_2ecss(g))


def test_3vc_b2_side_rejoins_within_its_budget():
    """The cut (0, 1, 2) whose small side is the C4 0-3-1-4 and the
    triangle 2-5-6, with no edge between them: B2, two 2EC parts, is the
    only side type.  The big side, a 6-ring, is reduced with the cut
    contracted, and at most four edges rejoin the two."""
    g = MultiGraph(13, [(0, 3), (3, 1), (1, 4), (4, 0), (2, 5), (5, 6), (6, 2)]
                   + [(7 + i, 7 + (i + 1) % 6) for i in range(6)]
                   + [(0, 7), (1, 9), (2, 11), (2, 12)])
    cut = CutDescriptor("Vertex3", (0, 1, 2),
                        ((3, 4, 5, 6), tuple(range(7, 13))))
    sizes = sizes_by_type(g, {3, 4, 5, 6}, [0, 1, 2])
    assert [t for t, size in sizes.items() if size is not None] == ["B2"]
    sol, trace = Reducer(P).remove_3vc(g, cut)
    assert (trace.step, trace.detail["branch"]) == ("Remove3VC", "B2")
    assert trace.detail["opt1"] == 7
    assert len(trace.detail["f_edges"]) <= preprocess.SUBSTITUTES["B2"][1]
    assert _two_ec_on(g, sol)


# -- dense sides: the typing search's bound and budget -------------------------

def dense_side(k, p):
    """A dense block on 0..k-1 behind the 2-vertex cut {0, k // 2}: the ring
    plus each chord (i, j) with j >= i + 2, i outer and j inner, kept when a
    draw from Random(1) is below p, (0, k - 1) excepted; u = k is joined to
    0 and v = k + 1 to k // 2, and two paths of 24 inner vertices join u to
    v.  Every run of the chord loop draws, so k=10, p=0.5 has n=60, m=87."""
    rnd = random.Random(1)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, j) for i in range(k) for j in range(i + 2, k)
              if rnd.random() < p and (i, j) != (0, k - 1)]
    u, v = k, k + 1
    edges += [(u, 0), (v, k // 2)]
    n = k + 2
    for _ in range(2):
        path = [u, *range(n, n + 24), v]
        edges += list(zip(path, path[1:]))
        n += 24
    return MultiGraph(n, edges)


def solve_dense_side(monkeypatch, k, p):
    """An auto solve of ``dense_side(k, p)`` on desk: its report, its
    seconds, and what ``classify_side_types`` gave the block's side
    (a type, or TooLarge)."""
    block = (set(range(1, k)) - {k // 2}, [0, k // 2])
    typed = []
    real = preprocess.classify_side_types

    def recording(g, v1, cut, allowed):
        try:
            answer = real(g, v1, cut, allowed)
        except TooLarge:
            if (set(v1), list(cut)) == block:
                typed.append(TooLarge)
            raise
        if (set(v1), list(cut)) == block:
            typed.append(answer[0])
        return answer

    monkeypatch.setattr(preprocess, "classify_side_types", recording)
    t0 = time.perf_counter()
    _, report = harness.solve(dense_side(k, p),
                              harness.SolverConfig(profile="desk"))
    return report, time.perf_counter() - t0, typed


def report_labels(node):
    """Each trace node's step, with its branch when it has one."""
    branch = node["detail"].get("branch")
    yield node["step"] + ("" if branch is None else f"/{branch}")
    for child in node["children"]:
        yield from report_labels(child)


def test_dense_side_is_typed_exactly(monkeypatch):
    """k=10: the block's side is typed within the search budget, as B, and
    no step joins a side untyped."""
    report, seconds, typed = solve_dense_side(monkeypatch, 10, 0.5)
    assert (report.n, report.m) == (60, 87)
    assert report.verified and seconds < 10
    assert typed == ["B"]
    assert not any(l.endswith("/untyped") for l in report_labels(report.trace))


def test_dense_side_past_the_budget_is_joined_untyped(monkeypatch):
    """k=14, p=0.6: typing the block's side runs past ``oracle.NODE_BUDGET``
    and raises ``TooLarge``; the reducer joins the two sides as large ones,
    under the branch label ``untyped``, and the answer verifies."""
    report, seconds, typed = solve_dense_side(monkeypatch, 14, 0.6)
    assert typed == [TooLarge]
    assert "Remove2VC/untyped" in report_labels(report.trace)
    assert report.verified and seconds < 10


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


@pytest.mark.parametrize("kind", ["cycle8", "vertex4_case1", "vertex4_case2"])
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
    budgets = {"vertex2_b": ("Remove2VC", 2),
               "vertex2_c": ("Remove2VC", 2),
               "vertex2_both_large": ("Remove2VC", 2),
               "vertex3_both_large": ("Remove3VC", 4),
               "vertex3_b1": ("Remove3VC", 1),
               "vertex3_c1": ("Remove3VC", 4),
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


# -- the subset-scanning finders the cut generator replaced -------------------

def reference_find_cut_vertex(g):
    for v in range(g.n):
        comps = _components_without(g, {v})
        if len(comps) > 1:
            rest = sorted(set(range(g.n)) - {v} - set(comps[0]))
            return CutDescriptor("Vertex1", (v,), (tuple(comps[0]), tuple(rest)))
    return None


def reference_find_irrelevant_edge(g):
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        if len(_components_without(g, {u, v})) > 1:
            return CutDescriptor("IrrelevantEdge", (min(u, v), max(u, v)),
                                 edge=eid)
    return None


def reference_find_non_isolating_2vc(g):
    for u, v in itertools.combinations(range(g.n), 2):
        comps = _components_without(g, {u, v})
        if len(comps) < 2:
            continue
        if len(comps) == 2 and min(len(c) for c in comps) == 1:
            continue
        return CutDescriptor("Vertex2", (u, v), _grouping(comps, 2))
    return None


def reference_find_large_3vc(g, params):
    t = params.three_cut_side
    for trip in itertools.combinations(range(g.n), 3):
        grouping = _grouping(_components_without(g, trip), t)
        if grouping is not None:
            return CutDescriptor("Vertex3", trip, grouping)
    return None


def reference_find_large_4vc(g, params):
    t1 = params.four_cut_side_2
    for quad in itertools.combinations(range(g.n), 4):
        comps = _components_without(g, quad)
        if len(comps) < 2:
            continue
        grouping = _grouping(comps, t1)
        if grouping is not None:
            return CutDescriptor("Vertex4", quad, grouping, condition=1)
        small = _grouping(comps, 1)
        if small is None:
            continue
        v1 = small[0]
        if len(v1) > t1 - 2:
            continue
        g1p = _contracted_side(g, v1, quad)
        try:
            opt1 = len(oracle.exact_min_2ecss(g1p, limit=oracle.STRUCTURED_LIMIT))
        except (oracle.TooLarge, oracle.NotTwoEdgeConnected):
            continue
        if Fraction(opt1 + 4) <= params.alpha * opt1:
            return CutDescriptor("Vertex4", quad, small, condition=2)
    return None


def assert_finders_match(g, params):
    """Each finder returns the reference's record, field for field; returns
    which fired."""
    fired = []
    for find, ref in ((find_cut_vertex, reference_find_cut_vertex),
                      (find_irrelevant_edge, reference_find_irrelevant_edge),
                      (find_non_isolating_2vc, reference_find_non_isolating_2vc)):
        got = find(g)
        assert got == ref(g), find.__name__
        fired.append(got is not None)
    for find, ref in ((find_large_3vc, reference_find_large_3vc),
                      (find_large_4vc, reference_find_large_4vc)):
        got = find(g, params)
        assert got == ref(g, params), find.__name__
        fired.append(got is not None)
    return fired


# desk, and two looser profiles whose large-cut thresholds small graphs meet
CUT_PARAMS = [P, StructuredParams(alpha=Fraction(2), epsilon=Fraction(1, 2)),
              StructuredParams(alpha=Fraction(3, 2), epsilon=Fraction(1, 2))]


@pytest.mark.parametrize("params,least,small", [
    (paper_params(), 17, 9), (P, 18, 9), (CUT_PARAMS[1], 4, 2),
    (CUT_PARAMS[2], 8, 4)])
def test_four_cut_min_opt_is_the_least_opt1_that_fires(params, least, small):
    """Condition 2's test opt1 + 4 <= alpha * opt1 holds exactly from
    ``four_cut_min_opt`` on, and ``four_cut_small_side`` is half of it
    rounded up."""
    assert (params.four_cut_min_opt, params.four_cut_small_side) == \
        (least, small)
    for o in range(1, 201):
        assert (Fraction(o + 4) <= params.alpha * o) == (o >= least), o


def subset_scan(g, k):
    """(cut, components of G - cut) for every k-subset that leaves two or
    more components, by one BFS per subset."""
    return [(c, comps) for c in itertools.combinations(range(g.n), k)
            if len(comps := _components_without(g, c)) >= 2]


def built_cuts(g, k, side=1):
    """``_vertex_cuts(g, k, side)`` with every cut's components built."""
    return [(cut, split()) for cut, split in _vertex_cuts(g, k, side)]


# side bounds the scan is checked under: 1 (two or more components), the
# 2-cut finder's 2, and around the desk 3-cut and 4-cut small-side bounds
SIDES = (1, 2, 3, 8, 9)


def with_side(scan, side):
    """The (cut, components) pairs of ``scan`` whose components other than a
    largest hold ``side`` vertices or more together."""
    return [(c, comps) for c, comps in scan
            if sum(map(len, comps)) - max(map(len, comps)) >= side]


def test_vertex_cuts_match_subset_scan():
    """For every side bound, the generator yields exactly the k-subsets
    whose removal leaves components that, all but a largest one, hold that
    many vertices, in combinations order, each with the components of
    G - cut as the BFS gives them, on random multigraphs with self-loops,
    parallel edges and disconnected parts.  Both kinds of disconnected
    prefix occur: G - P with three or more components, and with two, one of
    them a single vertex that is then no cut."""
    rnd = random.Random(8080)
    many = lone = 0
    for _ in range(400):
        n = rnd.randint(1, 9)
        g = MultiGraph(n, [(rnd.randrange(n), rnd.randrange(n))
                           for _ in range(rnd.randint(0, 2 * n))])
        for k in (1, 2, 3, 4):
            scan = subset_scan(g, k)
            for side in SIDES:
                assert built_cuts(g, k, side) == with_side(scan, side), \
                    (g.edges, k, side)
            for prefix in itertools.combinations(range(n), k - 1):
                comps = _components_without(g, prefix)
                many += len(comps) > 2
                lone += len(comps) == 2 and any(
                    len(c) == 1 and c[0] > max(prefix, default=-1)
                    for c in comps)
    assert many > 0 and lone > 0


def counting_forests(monkeypatch):
    """Patch the lowpoint forests of the scan and of its reference; returns
    the {"scan": calls, "reference": calls} tally."""
    tally = {"scan": 0, "reference": 0}
    real = preprocess.lowpoint_forest

    def counted(key):
        def build(*args, **kw):
            tally[key] += 1
            return real(*args, **kw)
        return build

    monkeypatch.setattr(preprocess, "lowpoint_forest", counted("scan"))
    monkeypatch.setattr(cut_reference, "lowpoint_forest", counted("reference"))
    return tally


def relabelled(g, rnd):
    """G with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return MultiGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def scan_matches_reference(g, ks, sides, tally):
    """Assert that the scan under each side bound yields the reference's
    side-1 pairs that meet that bound (the reference builds a forest for
    every prefix whatever the bound); returns how many of these scans built
    fewer forests than the reference scan of their k."""
    fewer = 0
    for k in ks:
        tally["reference"] = 0
        scan = [(cut, split())
                for cut, split in reference_vertex_cuts(g, k, 1)]
        for side in sides:
            tally["scan"] = 0
            assert built_cuts(g, k, side) == with_side(scan, side), \
                (g.edges, k, side)
            fewer += tally["scan"] < tally["reference"]
    return fewer


# the side bounds of the differential tests: 1, the 2-cut finder's 2, and
# the desk 3-cut and 4-cut small-side bounds, 8 and 9
REF_SIDES = (1, 2, 8, 9)


def test_vertex_cuts_match_reference_random(monkeypatch):
    """The pruned scan yields the reference's (cut, components) pairs, in
    order, on relabelled ``random2ec`` graphs with n = 10..30, and skips
    some prefixes the reference builds a forest for."""
    tally = counting_forests(monkeypatch)
    rnd = random.Random(3131)
    fewer = 0
    for n in range(10, 31, 4):
        for p in (0.15, 0.3, 0.5):
            g = relabelled(gadgets.random2ec(n, p, n), rnd)
            fewer += scan_matches_reference(g, (1, 2, 3, 4), REF_SIDES, tally)
    assert fewer > 0


@pytest.mark.parametrize("name", [k for k, make in gadgets.GADGETS.items()
                                  if make().n <= 45])
def test_vertex_cuts_match_reference_gadget(name, monkeypatch):
    """The same on each planted gadget with n <= 45, up to k = 4."""
    tally = counting_forests(monkeypatch)
    assert scan_matches_reference(gadgets.GADGETS[name](), (4,), REF_SIDES,
                                  tally) > 0


def floored(out, r):
    """What N_out(C) adds to C's component in the prefix rule."""
    return max(0, out - r)


def prefix_rule_rejects(g, prefix, k, side, extra=floored):
    """Whether the prefix rule of ``_vertex_cuts`` rejects some head
    P = prefix[:i], by BFS: a component C of G[U], U the vertices below
    max(P) outside P, has more than n - k - side vertices once
    ``extra(|N_out(C)|, k - |P|)`` of its neighbours outside U and P are
    counted."""
    adj = g.adj()
    for i in range(1, len(prefix) + 1):
        head = set(prefix[:i])
        below = set(range(prefix[i - 1])) - head
        for comp in connected_components(g, None, set(range(g.n)) - below):
            out = {w for v in comp for w, _ in adj[v]} - below - head
            if len(comp) + extra(len(out), k - i) > g.n - k - side:
                return True
    return False


def test_vertex_cuts_build_forests_where_the_rule_allows(monkeypatch):
    """The scan builds a lowpoint forest for exactly the (k-1)-prefixes
    that some d may follow and no head of which the prefix rule rejects,
    in order, on ``random2ec`` graphs and on random multigraphs with
    self-loops and disconnected parts, under every side bound that leaves a
    cut possible.  The neighbour count rejects some prefix that the
    component sizes alone let through, and the sizes some prefix that the
    neighbour count without its floor of 0 lets through."""
    built = []
    real = preprocess.lowpoint_forest

    def record(g, eids=None, skip=()):
        built.append(tuple(skip))
        return real(g, eids, skip)

    monkeypatch.setattr(preprocess, "lowpoint_forest", record)
    rnd = random.Random(6060)
    graphs = [gadgets.random2ec(n, p, n) for n in (10, 13, 16)
              for p in (0.2, 0.4)]
    for _ in range(60):
        n = rnd.randint(4, 9)
        graphs.append(MultiGraph(n, [(rnd.randrange(n), rnd.randrange(n))
                                     for _ in range(rnd.randint(n, 2 * n))]))
    by_neighbours = by_size = 0
    for g in graphs:
        for k in (2, 3, 4):
            for side in range(1, g.n - k + 1):
                built.clear()
                list(_vertex_cuts(g, k, side))
                heads = [q for q in itertools.combinations(range(g.n), k - 1)
                         if q[-1] < g.n - 1]
                rejected = [prefix_rule_rejects(g, q, k, side) for q in heads]
                assert built == [q for q, no in zip(heads, rejected)
                                 if not no], (g.edges, k, side)
                sizes = [prefix_rule_rejects(g, q, k, side, lambda o, r: 0)
                         for q in heads]
                by_neighbours += sum(no and not by for no, by
                                     in zip(rejected, sizes))
                by_size += sum(by and not prefix_rule_rejects(
                    g, q, k, side, lambda o, r: o - r)
                    for q, by in zip(heads, sizes))
    assert by_neighbours > 0 and by_size > 0


def test_four_cut_scan_forest_counts(monkeypatch):
    """The 4-cut scan skips the prefixes no completion can fire from: on
    ``random2ec(22, 0.15, 1)`` it builds 97 lowpoint forests where the
    reference builds 1,330, and on the n=34 child of ``vertex4_case2`` 413
    where the reference builds 5,456.  The bounds leave headroom."""
    g = gadgets.GADGETS["vertex4_case2"]()
    found = find_large_4vc(g, P)
    child = _contracted_side(g, found.sides[1], found.vertices)
    assert child.n == 34
    tally = counting_forests(monkeypatch)
    for g, bound in ((gadgets.random2ec(22, 0.15, 1), 150), (child, 600)):
        tally["scan"] = 0
        assert find_large_4vc(g, P) is None
        assert tally["scan"] <= bound, (g.n, tally["scan"])


def test_four_cut_scan_at_n100():
    """No 4-vertex cut fires on ``random2ec`` n=100 (p=0.06, seed 1): the
    scan proves it from 5,496 forests, where the reference builds 156,849."""
    assert find_large_4vc(gadgets.random2ec(100, 0.06, 1), P) is None


def test_irrelevant_edge_builds_no_components(monkeypatch):
    """``find_irrelevant_edge`` asks only which pairs are cuts, so no cut's
    components are built; it still agrees with the reference."""
    def fail(*args):
        raise AssertionError("components built")
    monkeypatch.setattr(preprocess, "_split_forest", fail)
    rnd = random.Random(4242)
    graphs = [gadgets.planted_irrelevant(), gadgets.hub_c4(3)] + [
        gadgets.random2ec(rnd.randint(5, 10), 0.4, seed) for seed in range(20)]
    for g in graphs:
        assert find_irrelevant_edge(g) == reference_find_irrelevant_edge(g)


def test_large_4vc_splits_only_cuts_that_can_fire(monkeypatch):
    """``find_large_4vc`` builds the components of a cut only when its
    components other than a largest hold ``four_cut_small_side`` vertices:
    on ``random2ec`` n=22 that is no cut of the 254 that leave two or more
    components, and on ``vertex3_c3`` some of them, up to the cut it
    returns."""
    built = []
    real = preprocess._split_forest

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(preprocess, "_split_forest", counted)
    s2 = P.four_cut_small_side
    passing = {}
    for name, g in (("random2ec", gadgets.random2ec(22, 0.15, 1)),
                    ("vertex3_c3", gadgets.GADGETS["vertex3_c3"]())):
        built.clear()
        found = find_large_4vc(g, P)
        scan = subset_scan(g, 4)
        if found is not None:
            cuts = [c for c, _ in scan]
            scan = scan[:cuts.index(found.vertices) + 1]
        assert len(built) == len(with_side(scan, s2)), name
        passing[name] = (len(with_side(scan, s2)), len(scan))
    assert passing["random2ec"] == (0, 254)
    assert 0 < passing["vertex3_c3"][0] < passing["vertex3_c3"][1]


@pytest.mark.parametrize("name", [k for k in gadgets.GADGETS if k != "cycle8"])
def test_vertex_cuts_match_subset_scan_gadget(name):
    """The same (cut, components) pairs on each planted gadget, k <= 3, for
    every side bound."""
    g = gadgets.GADGETS[name]()
    for k in (1, 2, 3):
        scan = subset_scan(g, k)
        for side in SIDES:
            assert built_cuts(g, k, side) == with_side(scan, side), (k, side)


@pytest.mark.parametrize("n", range(5, 15))
def test_finders_match_reference_random(n):
    fired = [0] * 5
    for p in (0.2, 0.35, 0.5, 0.8):
        for seed in range(3):
            g = gadgets.random2ec(n, p, seed)
            for params in CUT_PARAMS:
                fired = [a + b for a, b in
                         zip(fired, assert_finders_match(g, params))]
    # irrelevant edges and 3-cuts on every n, 4-cuts once n allows them;
    # random2ec graphs have no cut vertex (the vertex1 gadget has one)
    assert fired[1] and fired[3] and (fired[4] or n < 10)


# cycle8 is left out: the reference 4-cut scan alone takes about two minutes
@pytest.mark.parametrize("name", [k for k in gadgets.GADGETS if k != "cycle8"])
def test_finders_match_reference_gadget(name):
    g = gadgets.GADGETS[name]()
    # some 2-vertex prefix disconnects G, so the 3-cut scan meets the
    # generator's disconnected case
    assert any(len(_components_without(g, pair)) >= 2
               for pair in itertools.combinations(range(g.n), 2))
    assert_finders_match(g, P)



# -- the large-cut finders without their side-size gates ----------------------

def ungated_find_large_3vc(g, params):
    t = params.three_cut_side
    for trip, split in _vertex_cuts(g, 3, 1):
        grouping = _grouping(split(), t)
        if grouping is not None:
            return CutDescriptor("Vertex3", trip, grouping)
    return None


def ungated_find_large_ck(g, params):
    cycles = simple_cycles_upto(g, 8, limit=CYCLE_CAP)
    for cyc in sorted((c for c in cycles if len(c) >= 4),
                      key=lambda c: (len(c), c)):
        grouping = _grouping(_components_without(g, cyc),
                             params.ck_side(len(cyc)))
        if grouping is not None:
            return CutDescriptor("CycleCut", tuple(sorted(cyc)), grouping,
                                 cycle_order=tuple(cyc))
    return None


def ungated_find_large_4vc(g, params):
    t1 = params.four_cut_side_2
    opt1_of = {}
    for quad, split in _vertex_cuts(g, 4, 1):
        comps = split()
        grouping = _grouping(comps, t1)
        if grouping is not None:
            return CutDescriptor("Vertex4", quad, grouping, condition=1)
        small = _grouping(comps, 1)
        v1 = small[0]
        if len(v1) > t1 - 2:
            continue
        key = frozenset(v1)
        if key not in opt1_of:
            try:
                opt1_of[key] = len(oracle.exact_min_2ecss(
                    _contracted_side(g, v1, quad),
                    limit=oracle.STRUCTURED_LIMIT))
            except (oracle.TooLarge, oracle.NotTwoEdgeConnected):
                opt1_of[key] = None
        opt1 = opt1_of[key]
        if opt1 is not None and Fraction(opt1 + 4) <= params.alpha * opt1:
            return CutDescriptor("Vertex4", quad, small, condition=2)
    return None


def reduce_exchange_graphs():
    """The benchmark's ``reduce_exchange`` graphs (seed 1)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from twoec import harness
    return [(inst.name, harness.parse_graph(inst.text))
            for inst in workloads.build("reduce_exchange", 1, harness)]


# n on both sides of each desk gate: 3-cuts at 19, 4-cut condition 2 at 22,
# 4-cycle cuts at 38, 4-cut condition 1 at 56 (each 4-cut scan near 56 takes
# about 2 s, so that gate gets one n on each side)
GATE_NS = [*range(18, 24), *range(36, 41), 55, 56]


def test_gated_finders_match_ungated():
    """The side-size gates drop only scans that cannot fire: each gated
    finder returns the ungated one's record on the ``reduce_exchange``
    graphs and on random graphs whose n straddles every desk gate."""
    assert [n for n in GATE_NS if n - 3 >= 2 * P.three_cut_side][0] == 19
    assert [n for n in GATE_NS if n - 4 >= 2 * P.four_cut_small_side][0] == 22
    assert [n for n in GATE_NS if n - 4 >= 2 * P.ck_side(4)][0] == 38
    assert [n for n in GATE_NS if n - 4 >= 2 * P.four_cut_side_2][0] == 56
    graphs = reduce_exchange_graphs()
    graphs += [(f"random2ec-{n}", gadgets.random2ec(n, 2 / n, n))
               for n in GATE_NS]
    fired = set()
    for name, g in graphs:
        for find, ref in ((find_large_3vc, ungated_find_large_3vc),
                          (find_large_ck, ungated_find_large_ck),
                          (find_large_4vc, ungated_find_large_4vc)):
            got = find(g, P)
            assert got == ref(g, P), (name, find.__name__)
            if got is not None:
                fired.add((got.kind, got.condition))
    assert fired == {("Vertex3", None), ("CycleCut", None), ("Vertex4", 1),
                     ("Vertex4", 2)}


# ---------------------------------------------------------------------------
# oracle calls the detectors make
# ---------------------------------------------------------------------------

def counting_oracle(monkeypatch):
    """Patch ``oracle.exact_min_2ecss``; returns the list of its arguments."""
    calls = []
    real = oracle.exact_min_2ecss

    def counted(g, *args, **kw):
        calls.append(g)
        return real(g, *args, **kw)

    monkeypatch.setattr(oracle, "exact_min_2ecss", counted)
    return calls


def greedy_closure_bound(g, v1, quad):
    """The size of a greedy 2ECSS of the closure G[V1 ∪ quad] | quad, an
    upper bound on its optimum; None when the closure is not 2EC."""
    closure = _contracted_side(g, v1, quad)
    if not is_two_edge_connected(closure):
        return None
    every = range(closure.m)
    return len(oracle.greedy_deletion(closure, set(every), every,
                                      oracle._bridge_cut(None)))


@pytest.mark.parametrize("name,shared", [("vertex3_c3", True),
                                         ("vertex4_case2", False)])
def test_find_large_4vc_one_oracle_call_per_side(name, shared, monkeypatch):
    """The condition-2 closure is solved once per distinct small side of
    the 4-cuts the finder reaches, not once per cut, only for small sides
    of ``four_cut_small_side`` vertices or more, and only when the side's
    greedy 2ECSS has ``four_cut_min_opt`` edges or more; no other side gets
    a call.  On ``vertex3_c3`` several of those cuts share a side, and every
    side's greedy bound is below four_cut_min_opt; ``vertex4_case2`` stops
    at its first."""
    g = gadgets.GADGETS[name]()
    calls = counting_oracle(monkeypatch)
    found = find_large_4vc(g, P)
    t1 = P.four_cut_side_2
    cuts = 0
    sides = set()
    solved = []
    for quad, split in _vertex_cuts(g, 4, 1):
        comps = split()
        if _grouping(comps, t1) is not None:
            break
        v1 = _grouping(comps, 1)[0]
        if P.four_cut_small_side <= len(v1) <= t1 - 2:
            cuts += 1
            if frozenset(v1) not in sides:
                sides.add(frozenset(v1))
                bound = greedy_closure_bound(g, v1, quad)
                if bound is not None and bound >= P.four_cut_min_opt:
                    solved.append(_contracted_side(g, v1, quad).edges)
        if found is not None and quad == found.vertices:
            break
    assert [c.edges for c in calls] == solved
    assert (len(sides) < cuts) == shared
    assert len(solved) == (found is not None)


def test_find_large_4vc_greedy_bound_skips_no_firing_side():
    """Under the two looser profiles (alpha 2 and 3/2) condition 2 fires on
    small ``random2ec`` graphs, and the greedy bound skips some small sides
    without an exact solve; the finder still returns the record of the
    reference, which solves every side exactly, so the bound never skips a
    side that fires."""
    fired = skipped = 0
    for n in range(10, 15):
        for p in (0.2, 0.35, 0.5, 0.8):
            for seed in range(3):
                g = gadgets.random2ec(n, p, seed)
                for params in CUT_PARAMS[1:]:
                    got = find_large_4vc(g, params)
                    assert got == reference_find_large_4vc(g, params), \
                        (n, p, seed, params.alpha)
                    fired += got is not None and got.condition == 2
                    for quad, split in _vertex_cuts(
                            g, 4, params.four_cut_small_side):
                        bound = greedy_closure_bound(
                            g, _grouping(split(), 1)[0], quad)
                        skipped += (bound is not None
                                    and bound < params.four_cut_min_opt)
    assert fired > 0 and skipped > 0


def reference_find_contractible(g, params):
    """``find_contractible`` with the oracle run on every candidate before
    the inside-edge test."""
    max_len = min(CONTRACTIBLE_CYCLE_MAX, int(params.size_floor))
    seen = set()
    for cyc in sorted(simple_cycles_upto(g, max_len, limit=20000),
                      key=lambda c: (len(c), sorted(c))):
        w = frozenset(cyc)
        if w in seen:
            continue
        seen.add(w)
        inside = [eid for eid, (u, v) in enumerate(g.edges)
                  if u in w and v in w and u != v]
        sub = _side_graph(g, set(w), set())
        try:
            opt_local = oracle.exact_min_2ecss(sub)
        except (oracle.NotTwoEdgeConnected, oracle.TooLarge):
            continue
        min_inside = len(inside) - oracle.max_removable_inside(g, inside)
        if Fraction(min_inside) >= Fraction(len(opt_local)) / params.alpha:
            return set(w), {sub.origin[e] for e in opt_local}
    return None


CONTRACTIBLE_GRAPHS = (
    [("gadget", name) for name in gadgets.GADGETS if name != "cycle8"]
    + [("random2ec", n) for n in range(6, 13, 2)])


def contractible_graphs(kind, key):
    if kind == "gadget":
        return [gadgets.GADGETS[key]()]
    return [gadgets.random2ec(key, p, seed) for p in (0.2, 0.5)
            for seed in range(2)]


@pytest.mark.parametrize("kind,key", CONTRACTIBLE_GRAPHS)
def test_find_contractible_one_oracle_call(kind, key, monkeypatch):
    """At most one ``exact_min_2ecss`` call per finder call, and the
    reference's witness, under desk and two looser profiles."""
    for g in contractible_graphs(kind, key):
        for params in CUT_PARAMS:
            want = reference_find_contractible(g, params)
            calls = counting_oracle(monkeypatch)
            assert find_contractible(g, params) == want
            assert len(calls) == (want is not None)
            monkeypatch.undo()


def witness_edges(g, up):
    """The edges of a witness from ``_sparse_witnesses``, as sorted pairs."""
    return sorted((v, x) for v in range(g.n) for x in up[v])


def test_bounded_removable_gives_the_exact_verdict():
    """With a target, ``max_removable_inside`` is a lower bound on the exact
    answer that gives ``find_contractible``'s test the same verdict, on every
    candidate of the gadgets and random2ec graphs under three profiles.
    Some candidates skip the search with a strictly lower bound.  Each
    sparse witness is a 2EC spanning subgraph of G, and every candidate one
    of them rejects (fewer than |w| / alpha edges inside w) has the exact
    verdict "not contractible"; some are rejected and some kept.  Two
    triangles joined by a bridge are not 2EC, so they have no witness and
    no candidate is rejected early."""
    bridged = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                             (3, 5)])
    graphs = [g for kind, key in CONTRACTIBLE_GRAPHS
              for g in contractible_graphs(kind, key)] + [bridged]
    skipped = searched = rejected = kept = 0
    for g in graphs:
        witnesses = _sparse_witnesses(g)
        assert len(witnesses) == (2 if g is not bridged else 0)
        for up in witnesses:
            edges = witness_edges(g, up)
            assert is_two_edge_connected(MultiGraph(g.n, edges))
            assert not Counter(edges) - Counter(g.edges)
        for params in CUT_PARAMS:
            max_len = min(CONTRACTIBLE_CYCLE_MAX, int(params.size_floor))
            for w in {frozenset(c) for c in simple_cycles_upto(g, max_len, limit=20000)}:
                inside = [eid for eid, (u, v) in enumerate(g.edges)
                          if u in w and v in w and u != v]
                target = Fraction(len(w)) / params.alpha
                exact = oracle.max_removable_inside(g, inside)
                bounded = oracle.max_removable_inside(g, inside, target)
                assert bounded <= exact
                assert (len(inside) - bounded >= target) == \
                    (len(inside) - exact >= target)
                skipped += bounded < exact
                searched += bounded == exact
                if any(sum(u in w and v in w for u, v in witness_edges(g, up))
                       < target for up in witnesses):
                    assert len(inside) - exact < target
                    rejected += 1
                else:
                    kept += 1
    assert skipped > 0 and searched > 0
    assert rejected > 0 and kept > 0


def test_short_cycle_vertex_sets_have_opt_size():
    """G[w] for the vertex set w of a 3-8 cycle is Hamiltonian, so its
    minimum 2ECSS has |w| edges; ``find_contractible`` relies on it.  Some
    planted gadgets have no cycle that short."""
    checked = 0
    for kind, key in CONTRACTIBLE_GRAPHS + [("gadget", "cycle8")]:
        for g in contractible_graphs(kind, key):
            for w in {frozenset(c) for c in simple_cycles_upto(g, 8, limit=20000)}:
                assert len(exact_min_2ecss(_side_graph(g, set(w), set()))) == len(w)
                checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# the side-type routines before they used the shared connectivity kernels
# ---------------------------------------------------------------------------

def reference_side_type_table(g, v1, cut):
    """(minima, all_optima): for each type of the cut's order, its first
    optimum and every optimum (every one only for a 3-vertex cut), in
    include-first order, by enumerating every subset of the side's edges
    on the whole host G, each leaf typed by ``_shape_of`` there."""
    verts = set(v1) | set(cut)
    order = T2_ORDER if len(cut) == 2 else T3_ORDER
    pool = sorted(e for e, (u, v) in enumerate(g.edges)
                  if u in verts and v in verts and u != v)
    collect_all = len(cut) == 3
    sizes, best = {}, {}
    alls = {t: [] for t in order}

    def rec(i, chosen, deg):
        deficit = sum(max(0, 2 - deg[v]) for v in v1)
        if i == len(pool):
            if deficit > 0:
                return
            shape = _shape_of(g, set(chosen), verts, list(cut))
            if shape is None:
                return
            sz = len(chosen)
            if shape not in sizes or sz < sizes[shape]:
                sizes[shape] = sz
                best[shape] = set(chosen)
                alls[shape] = [set(chosen)]
            elif collect_all and sz == sizes[shape]:
                alls[shape].append(set(chosen))
            return
        if deficit:
            gain = {v: 0 for v in v1}
            for e in pool[i:]:
                for x in g.edges[e]:
                    if x in gain:
                        gain[x] += 1
            if any(gain[v] < max(0, 2 - deg[v]) for v in v1):
                return
        e = pool[i]
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
        chosen.append(e)
        rec(i + 1, chosen, deg)
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        rec(i + 1, chosen, deg)

    rec(0, [], {v: 0 for v in verts})
    return ({t: best.get(t) for t in order},
            {t: alls.get(t, []) for t in order})


def reference_side_type(minima, all_optima, allowed):
    """``classify_side_types``'s answer under ``allowed`` from a side's
    ``reference_side_type_table``: the cheapest allowed type, ties to the
    stronger, or B1 when it costs at most one edge more than a cheapest
    other than A; with every optimum of C2 and C3, and the first of any
    other type."""
    sizes = {t: len(sol) for t, sol in minima.items()
             if sol is not None and t in allowed}
    if not sizes:
        return None, []
    typ = min(sizes, key=sizes.get)
    if typ != "A" and sizes.get("B1", sizes[typ] + 2) <= sizes[typ] + 1:
        typ = "B1"
    return typ, all_optima[typ] if typ in ("C2", "C3") else [minima[typ]]


def test_side_types_match_whole_host_enumeration(monkeypatch):
    """Every side ``classify_side_types`` meets while the ``vertex2_*`` and
    ``vertex3_*`` gadgets and the benchmark's ``reduce_exchange`` graphs
    are reduced gets, from its bounded search on the side's own graph, the
    answer of the exhaustive enumeration on the whole host: under the
    side's real ``allowed``, and for each type of its order alone.  Both
    cut sizes occur, a B1 taken over a cheaper type, and an answer with two
    or more optima."""
    met = []
    real = preprocess.classify_side_types

    def recording(g, v1, cut, allowed):
        met.append((g, set(v1), list(cut), set(allowed)))
        return real(g, v1, cut, allowed)

    monkeypatch.setattr(preprocess, "classify_side_types", recording)
    graphs = [gadgets.GADGETS[name]() for name in gadgets.GADGETS
              if name.startswith(("vertex2_", "vertex3_"))]
    graphs += [g for name, g in reduce_exchange_graphs()
               if not name.startswith(("hub_c4", "shortcut_ring"))]
    for g in graphs:
        red(g, P, inner=lambda sub: set(range(sub.m)))
    assert len(met) == 22
    several = False
    for g, v1, cut, allowed in met:
        minima, all_optima = reference_side_type_table(g, v1, cut)
        for types in [allowed] + [{t} for t in minima]:
            got = real(g, v1, cut, types)
            assert got == reference_side_type(minima, all_optima, types)
        several |= len(real(g, v1, cut, allowed)[1]) > 1
    assert {len(cut) for _, _, cut, _ in met} == {2, 3} and several


def test_side_types_match_enumeration_on_random_sides():
    """Seeded random sides of 2- and 3-vertex cuts (simple graphs on 5-7
    vertices, the cut first), each under a random set of allowed types,
    get the exhaustive enumeration's answer, and on some of them B1 is
    taken over a type one edge cheaper."""
    rnd = random.Random(32)
    types = sorted(set(T2_ORDER) | set(T3_ORDER))
    checked = b1_over_cheaper = 0
    for _ in range(400):
        n, k = rnd.randint(5, 7), rnd.choice([2, 3])
        pairs = {tuple(sorted(rnd.sample(range(n), 2)))
                 for _ in range(rnd.randint(n + 1, 12))}
        g = MultiGraph(n, sorted(pairs))
        v1, cut = set(range(k, n)), list(range(k))
        minima, all_optima = reference_side_type_table(g, v1, cut)
        for _ in range(3):
            allowed = set(rnd.sample(types, rnd.randint(1, len(types))))
            got = classify_side_types(g, v1, cut, allowed)
            assert got == reference_side_type(minima, all_optima, allowed)
            checked += got[0] is not None
            b1_over_cheaper += got[0] == "B1" and any(
                minima[t] is not None and len(minima[t]) < len(got[1][0])
                for t in allowed & set(minima))
    assert checked > 100 and b1_over_cheaper > 5


def reference_shape_of(g, eids, verts, cut):
    """``_shape_of`` with its own adjacency and two hand-written searches."""
    deg = {v: 0 for v in verts}
    adj = {v: [] for v in verts}
    for e in eids:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
        adj[u].append((v, e))
        adj[v].append((u, e))
    inner = verts - set(cut)
    if any(deg[v] < 2 for v in inner):
        return None
    comp_of = {}
    comps = []
    for s in sorted(verts):
        if s in comp_of:
            continue
        cidx = len(comps)
        stack = [s]
        comp_of[s] = cidx
        cset = {s}
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in comp_of:
                    comp_of[y] = cidx
                    cset.add(y)
                    stack.append(y)
        comps.append(cset)
    for cset in comps:
        if not cset & set(cut):
            return None
    bridges = find_bridges(g, eids)
    class_of = {}
    nb_adj = {v: [] for v in verts}
    for e in eids:
        if e in bridges:
            continue
        u, v = g.edges[e]
        nb_adj[u].append(v)
        nb_adj[v].append(u)
    classes = []
    for s in sorted(verts):
        if s in class_of:
            continue
        cidx = len(classes)
        stack = [s]
        class_of[s] = cidx
        cset = {s}
        while stack:
            x = stack.pop()
            for y in nb_adj[x]:
                if y not in class_of:
                    class_of[y] = cidx
                    cset.add(y)
                    stack.append(y)
        classes.append(cset)
    comp_classes = {ci: set() for ci in range(len(comps))}
    for v in verts:
        comp_classes[comp_of[v]].add(class_of[v])
    tree_deg = {c: 0 for c in range(len(classes))}
    for e in bridges:
        u, v = g.edges[e]
        tree_deg[class_of[u]] += 1
        tree_deg[class_of[v]] += 1
    cut_class = [class_of[c] for c in cut]
    for ci, cls in comp_classes.items():
        if len(cls) == 1:
            continue
        for c in cls:
            if tree_deg[c] <= 1 and c not in cut_class:
                return None
    ncomp = len(comps)
    if len(cut) == 2:
        u_cl, v_cl = cut_class
        if ncomp == 1:
            if len(comp_classes[0]) == 1:
                return "A"
            leaves = [c for c in comp_classes[0] if tree_deg[c] == 1]
            if all(tree_deg[c] <= 2 for c in comp_classes[0]) and \
                    set(leaves) <= {u_cl, v_cl} and u_cl != v_cl:
                return "B"
            return None
        if ncomp == 2:
            if all(len(comp_classes[ci]) == 1 for ci in range(2)) \
                    and u_cl != v_cl:
                return "C"
        return None
    u_cl, v_cl, w_cl = cut_class
    distinct = len({u_cl, v_cl, w_cl})
    if ncomp == 1:
        cls = comp_classes[0]
        if len(cls) == 1:
            return "A"
        leaves = [c for c in cls if tree_deg[c] == 1]
        if all(tree_deg[c] <= 2 for c in cls):
            ends = set(leaves)
            cut_at_ends = all(c in ends for c in set(cut_class))
            per_end = {e: sum(1 for c in cut_class if c == e) for e in ends}
            if cut_at_ends and all(v <= 2 for v in per_end.values()):
                if distinct == 3 and all(per_end.get(e, 0) >= 1 for e in ends):
                    return "B1"
                if distinct == 2:
                    return "B1"
        if distinct == 3:
            return "C1"
        return None
    if ncomp == 2:
        sizes = sorted(len(comp_classes[ci]) for ci in range(2))
        per_comp_cut = [sum(1 for c in cut if comp_of[c] == ci)
                        for ci in range(2)]
        if sizes == [1, 1] and sorted(per_comp_cut) == [1, 2] and distinct >= 2:
            return "B2"
        for ci in range(2):
            cls = comp_classes[ci]
            other = 1 - ci
            if len(comp_classes[other]) != 1 or per_comp_cut[other] != 1:
                continue
            if len(cls) < 2 or per_comp_cut[ci] != 2:
                continue
            leaves = [c for c in cls if tree_deg[c] == 1]
            if all(tree_deg[c] <= 2 for c in cls):
                here = [class_of[c] for c in cut if comp_of[c] == ci]
                if len(set(here)) == 2 and set(here) == set(leaves):
                    return "C2"
        return None
    if ncomp == 3:
        if all(len(comp_classes[ci]) == 1 for ci in range(3)) and distinct == 3 \
                and all(sum(1 for c in cut if comp_of[c] == ci) == 1
                        for ci in range(3)):
            return "C3"
    return None


def reference_side2_availability(g, v2, cut):
    """``side2_availability`` with a hand-built side graph and one search
    per cut vertex's class."""
    verts = sorted(set(v2) | set(cut))
    idx = {v: i for i, v in enumerate(verts)}
    edges = []
    for (u, v) in g.edges:
        if u in idx and v in idx:
            if u in cut and v in cut:
                continue
            edges.append((idx[u], idx[v]))
    full = MultiGraph(len(verts), edges)
    out = {"B", "B2", "C1", "C2", "C3", "C"}
    if is_two_edge_connected(full):
        return out | {"A", "B1"}
    bridges = find_bridges(full)
    nb = {}
    for eid, (u, v) in enumerate(full.edges):
        if eid in bridges:
            continue
        nb.setdefault(u, set()).add(v)
        nb.setdefault(v, set()).add(u)

    def cls(s):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nb.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    cut_local = [idx[c] for c in cut]
    classes = [cls(c) for c in cut_local]
    for i in range(len(cut_local)):
        for j in range(i + 1, len(cut_local)):
            if cut_local[j] in classes[i]:
                out.add("B1")
    return out


def reference_c2_path_pair(g, sol, verts, cut):
    """``_c2_path_pair`` with its own search over ``verts``."""
    adj = {v: [] for v in verts}
    for e in sol:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    comp_of = {}
    ci = 0
    for s in sorted(verts):
        if s in comp_of:
            continue
        stack = [s]
        comp_of[s] = ci
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp_of:
                    comp_of[y] = ci
                    stack.append(y)
        ci += 1
    groups = {}
    for c in cut:
        groups.setdefault(comp_of[c], []).append(c)
    pairs = [tuple(sorted(v)) for v in groups.values() if len(v) == 2]
    if len(pairs) == 1:
        return pairs[0]
    return None


def reference_class_connector(g, sol, verts, a, b):
    """``_class_connector`` finding the classes of a and b by its own
    search over the non-bridge edges of ``sol``."""
    bridges = find_bridges(g, sol)
    nb_adj = {v: [] for v in verts}
    for e in sol:
        if e in bridges:
            continue
        u, v = g.edges[e]
        nb_adj[u].append(v)
        nb_adj[v].append(u)

    def cls(s):
        out = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nb_adj[x]:
                if y not in out:
                    out.add(y)
                    stack.append(y)
        return out

    ca, cb = cls(a), cls(b)
    for e, (u, v) in enumerate(g.edges):
        if e in sol or u == v:
            continue
        if u not in verts or v not in verts:
            continue
        if (u in ca and v in cb) or (v in ca and u in cb):
            return e
    return None


def test_side_type_routines_match_reference(multigraph_cases):
    """On side subgraphs of the random multigraphs (a 2- or 3-vertex cut,
    the side's vertices, and the loop-free edges of an edge subset inside
    them), the side's type under every order of the cut, the big side's
    availability, the C2 path pair, and the class connector of every
    ordered pair of cut vertices are the reference's.  Every type label
    occurs, big sides that offer A, B1 without A and neither, and
    connectors inside one class and across two."""
    rnd = random.Random(4242)
    shapes = {2: set(), 3: set()}
    offers = set()
    connectors = {"shared": 0, "across": 0}
    for g, subsets in multigraph_cases:
        for k in (2, 3):
            if g.n < k + 1:
                continue
            cut = rnd.sample(range(g.n), k)
            verts = set(cut) | {v for v in range(g.n)
                                if v not in cut and rnd.random() < 0.7}
            for es in subsets:
                eids = {e for e in es if g.edges[e][0] != g.edges[e][1]
                        and set(g.edges[e]) <= verts}
                for order in itertools.permutations(cut):
                    want = reference_shape_of(g, eids, verts, list(order))
                    assert _shape_of(g, eids, verts, list(order)) == want
                    shapes[k].add(want)
                sub = MultiGraph(g.n, [g.edges[e] for e in es])
                want = reference_side2_availability(sub, verts - set(cut), cut)
                assert side2_availability(sub, verts - set(cut), cut) == want
                offers.add(frozenset(want & {"A", "B1"}))
                assert _c2_path_pair(g, eids, cut) == \
                    reference_c2_path_pair(g, eids, verts, cut)
                cls = two_edge_classes(g, eids)[1]
                for a, b in itertools.permutations(cut, 2):
                    want = reference_class_connector(g, eids, verts, a, b)
                    assert _class_connector(g, eids, cls, verts, a, b) == want
                    if want is not None:
                        connectors["shared" if cls[a] == cls[b] else "across"] += 1
    assert shapes[2] >= {"A", "B", "C"}
    assert shapes[3] >= {"A", "B1", "B2", "C1", "C2", "C3"}
    assert offers == {frozenset(), frozenset({"B1"}), frozenset({"A", "B1"})}
    assert min(connectors.values()) > 0, connectors
