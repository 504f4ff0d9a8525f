import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoec import harness
from twoec.gadgets import random2ec
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.oracle import (Infeasible, NotTwoEdgeConnected, TooLarge,
                          _cover_ok, _forced_edges, _simplify, _two_ec_on,
                          exact_min_2ecss, exact_min_cover,
                          is_alpha_contractible, minimal_2ecss_witness)


def cycle_graph(k):
    return MultiGraph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return MultiGraph(k, list(itertools.combinations(range(k), 2)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return MultiGraph(10, outer + inner + spokes)


def naive_min_2ecss(g):
    """Subset enumeration oracle for cross-checking the branch and bound."""
    best = None
    for size in range(g.n, g.m + 1):
        for comb in itertools.combinations(range(g.m), size):
            if _two_ec_on(g, comb):
                return set(comb)
    return best


def _reference_search(g, pool, forced, free, leaf_ok, exhausted, node_budget):
    """The oracles' branch and bound with the deficit and the suffix gain
    recounted at every node, O(n + m) each; the oracles must agree with it
    exactly, TooLarge included."""
    best = None
    best_size = len(pool) + 1
    if leaf_ok(pool):
        best = set(pool)
        best_size = len(pool)
    nodes = 0

    def rec(i, chosen, deg):
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > node_budget:
            raise TooLarge(exhausted)
        size = len(chosen)
        need = sum(max(0, 2 - d) for d in deg)
        if size + (need + 1) // 2 >= best_size:
            return
        if i == len(free):
            if need == 0 and leaf_ok(chosen):
                best = set(chosen)
                best_size = size
            return
        deficit = [max(0, 2 - d) for d in deg]
        if need > 0:
            gain = [0] * g.n
            for eid in free[i:]:
                u, v = g.edges[eid]
                gain[u] += 1
                gain[v] += 1
            if any(gain[v] < deficit[v] for v in range(g.n)):
                return
        eid = free[i]
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
        chosen.append(eid)
        rec(i + 1, chosen, deg)
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        rec(i + 1, chosen, deg)

    base = sorted(forced)
    deg0 = [0] * g.n
    for eid in base:
        u, v = g.edges[eid]
        deg0[u] += 1
        deg0[v] += 1
    rec(0, list(base), deg0)
    return best


def reference_min_2ecss(g, node_budget=4_000_000):
    """``exact_min_2ecss`` on a 2EC graph with n >= 3, by the reference search."""
    pool = _simplify(g)
    forced = _forced_edges(g, pool)
    free = [e for e in pool if e not in forced]
    best = _reference_search(g, pool, forced, free,
                             lambda eids: _two_ec_on(g, eids),
                             "oracle search budget exhausted", node_budget)
    if best is None:
        raise NotTwoEdgeConnected("no 2EC spanning subgraph found")
    return best


def reference_min_cover(g, forbidden=frozenset(), node_budget=4_000_000):
    """``exact_min_cover`` on a graph of minimum degree >= 2, by the
    reference search."""
    forbidden = frozenset(forbidden)
    pool = _simplify(g, copies=2)
    forced = _forced_edges(g, pool)
    free = [e for e in pool if e not in forced]
    best = _reference_search(g, pool, forced, free,
                             lambda eids: _cover_ok(g, forbidden, eids),
                             "cover search budget exhausted", node_budget)
    if best is None:
        raise Infeasible("no feasible cover under the forbidden-cycle rule")
    return best


def outcome(f, *args, **kw):
    try:
        return sorted(f(*args, **kw))
    except (TooLarge, Infeasible) as exc:
        return type(exc).__name__, str(exc)


DIFF_GRAPHS = [(n, p, seed) for seed, (n, p) in enumerate(
    itertools.product(range(5, 12), (0.3, 0.6, 0.9)))]
BUDGETS = (5, 40, 300, 4_000_000)


@pytest.mark.parametrize("n,p,seed", DIFF_GRAPHS)
def test_oracles_match_reference_search(n, p, seed):
    """Same edge sets, or the same TooLarge/Infeasible outcome, as the
    per-node reference search at every node budget."""
    g = random2ec(n, p, seed)
    for budget in BUDGETS:
        assert outcome(exact_min_2ecss, g, node_budget=budget) == \
            outcome(reference_min_2ecss, g, node_budget=budget)
        for forbidden in (set(), {3}, {3, 4}):
            assert outcome(exact_min_cover, g, forbidden, node_budget=budget) == \
                outcome(reference_min_cover, g, forbidden, node_budget=budget)


def test_c5_needs_all_edges():
    g = cycle_graph(5)
    assert exact_min_2ecss(g) == set(range(5))


def test_k4_hamiltonian():
    g = complete_graph(4)
    sol = exact_min_2ecss(g)
    assert len(sol) == 4
    assert _two_ec_on(g, sol)


def test_petersen_opt_11():
    # a 10-edge solution would be a Hamiltonian cycle, which Petersen lacks;
    # exhaustive enumeration over all 10-edge subsets confirms none is 2EC
    # spanning, and an 11-edge solution exists.
    sol = exact_min_2ecss(petersen())
    assert len(sol) == 11


def test_not_2ec_raises():
    with pytest.raises(NotTwoEdgeConnected):
        exact_min_2ecss(MultiGraph(3, [(0, 1), (1, 2)]))


@given(st.integers(4, 8), st.randoms())
@settings(max_examples=25, deadline=None)
def test_bnb_matches_naive(n, rnd):
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.append((min(u, v), max(u, v)))
    g = MultiGraph(n, edges)
    sol = exact_min_2ecss(g)
    naive = naive_min_2ecss(g)
    assert len(sol) == len(naive)


def pendant_pair():
    """A triangle with vertex 3 hanging on a parallel pair: 2EC, and every
    2ECSS needs both copies of the pair."""
    return MultiGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 3)])


def test_parallel_pair_needed():
    assert exact_min_2ecss(pendant_pair()) == set(range(5))
    assert exact_min_cover(pendant_pair(), {3}) == set(range(5))


@pytest.mark.parametrize("mode", ["auto", "exact", "few", "many"])
def test_solve_parallel_pair_needed(mode):
    sol, report = harness.solve(pendant_pair(),
                                harness.SolverConfig(profile="desk", mode=mode))
    assert report.verified
    assert sol == set(range(5))
    assert report.branch != "red-only"


def random_2ec_multigraphs(seed, count):
    """Seeded random 2EC multigraphs, n 3-6, with parallel copies and
    self-loops."""
    rnd = random.Random(seed)
    made = 0
    while made < count:
        n = rnd.randint(3, 6)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(n, n + 6))]
        g = MultiGraph(n, edges)
        if is_two_edge_connected(g):
            made += 1
            yield g


def test_multigraph_bnb_matches_naive():
    """The branch and bound returns a 2EC spanning subgraph of the
    exhaustive minimum's size, also where the simple skeleton is not 2EC."""
    needs_pair = 0
    for g in random_2ec_multigraphs(20251, 300):
        needs_pair += not _two_ec_on(g, _simplify(g))
        sol = exact_min_2ecss(g)
        assert _two_ec_on(g, sol)
        assert len(sol) == len(naive_min_2ecss(g))
    assert needs_pair > 0


def naive_min_cover(g, forbidden):
    """Smallest loop-free edge subset passing ``_cover_ok``, by subset
    enumeration; None when there is none."""
    ids = [e for e, (u, v) in enumerate(g.edges) if u != v]
    for size in range(len(ids) + 1):
        for comb in itertools.combinations(ids, size):
            if _cover_ok(g, frozenset(forbidden), list(comb)):
                return set(comb)
    return None


def test_multigraph_cover_matches_naive():
    """Minimum covers of random 2EC multigraphs under every forbidden set,
    against exhaustive search; some need a parallel pair, where the simple
    skeleton has no cover or only a larger one."""
    uses_pair = 0
    for g in random_2ec_multigraphs(20252, 300):
        for forbidden in (set(), {3}, {3, 4}):
            want = naive_min_cover(g, forbidden)
            if want is None:
                with pytest.raises(Infeasible):
                    exact_min_cover(g, forbidden)
                continue
            sol = exact_min_cover(g, forbidden)
            assert _cover_ok(g, frozenset(forbidden), list(sol))
            assert len(sol) == len(want), (g.edges, forbidden)
            uses_pair += len({g.edges[e] for e in sol}) < len(sol)
    assert uses_pair > 0


def test_cover_c4_triangle_free():
    g = cycle_graph(4)
    assert exact_min_cover(g, {3}) == set(range(4))


def test_cover_bowtie():
    # two triangles sharing vertex 2: outer degree-2 vertices force all edges
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    sol = exact_min_cover(g, {3})
    assert sol == set(range(6))


def test_cover_k4_forbid_34():
    g = complete_graph(4)
    assert len(exact_min_cover(g, {3})) == 4
    assert len(exact_min_cover(g, {3, 4})) == 5


def test_cover_monotone_in_forbidden():
    g = complete_graph(5)
    a = len(exact_min_cover(g, set()))
    b = len(exact_min_cover(g, {3}))
    c = len(exact_min_cover(g, {3, 4}))
    d = len(exact_min_2ecss(g))
    assert a <= b <= c <= d


def test_cover_infeasible():
    with pytest.raises(Infeasible):
        exact_min_cover(MultiGraph(3, [(0, 1), (1, 2)]))


def test_contractible_chordless_c4_gadget():
    # C4 0-1-2-3 with 1 and 3 of degree 2; 0 and 2 attach to an outer cycle
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (0, 4), (4, 5), (5, 2), (0, 6), (6, 7), (7, 2)]
    g = MultiGraph(8, edges)
    assert is_two_edge_connected(g)
    alpha = Fraction(5, 4) - Fraction(1, 100000)
    assert is_alpha_contractible(g, {0, 1, 2, 3}, alpha)


def test_contractible_whole_graph():
    g = cycle_graph(6)
    assert is_alpha_contractible(g, set(range(6)), Fraction(5, 4))


def test_not_contractible_with_escape():
    # K4 block whose vertices each have two outside connections: a 2ECSS can
    # avoid most internal edges
    edges = list(itertools.combinations(range(4), 2))  # K4 on 0..3
    k4 = set(range(len(edges)))
    hub = [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3), (3, 7), (7, 0)]
    g = MultiGraph(8, edges + hub)
    assert not is_alpha_contractible(g, k4, Fraction(5, 4))


def test_minimality_witness():
    g = complete_graph(4)
    sol = exact_min_2ecss(g)
    assert minimal_2ecss_witness(g, sol)
    assert not minimal_2ecss_witness(g, set(range(g.m)))
