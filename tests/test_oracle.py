import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoec import gadgets, graph, harness, oracle
from twoec.gadgets import random2ec
from twoec.graph import (MultiGraph, connected_components, degrees,
                         find_bridges, is_two_edge_connected,
                         two_edge_classes)
from twoec.oracle import (CUT_MAX_REACH, MAX_FREE_EDGES, STRUCTURED_LIMIT,
                          Infeasible, NotTwoEdgeConnected, TooLarge,
                          _bridge_cut, _cover_ok, _cycle_cut, _forced_edges,
                          _simplify, _two_ec_on, cover_floor,
                          exact_min_2ecss,
                          exact_min_cover, greedy_deletion,
                          max_removable_inside, minimal_2ecss_witness)


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
    """The oracles' branch and bound without their feasibility cuts, and with
    the deficit and the suffix gain recounted at every node, O(n + m) each.
    The oracles visit a subset of its nodes and return its answer (see
    ``assert_subset_contract``)."""
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
    """``exact_min_2ecss`` on a 2EC graph with n >= 3, by the reference search:
    a full search of the simple skeleton, then, when that finds nothing, of
    two copies per parallel class."""
    for copies in (1, 2):
        pool = _simplify(g, copies)
        forced = _forced_edges(g, pool)
        free = [e for e in pool if e not in forced]
        best = _reference_search(g, pool, forced, free,
                                 lambda eids: _two_ec_on(g, eids),
                                 "oracle search budget exhausted", node_budget)
        if best is not None:
            return best
    raise NotTwoEdgeConnected("no 2EC spanning subgraph found")


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


def assert_subset_contract(oracle_at, reference_at):
    """The oracle search visits a subset of the reference's nodes and keeps
    its incumbents.  So at each budget where the reference finishes, it
    gives the same outcome; where the reference raises TooLarge, it either
    raises TooLarge too or gives the reference's outcome at the full
    budget.  ``*_at`` map a node budget to an ``outcome``."""
    full = reference_at(BUDGETS[-1])
    for budget in BUDGETS:
        want = reference_at(budget)
        got = oracle_at(budget)
        if want[0] == "TooLarge":
            assert got in (want, full), budget
        else:
            assert got == want, budget


def assert_oracles_match_reference(g, forbidden_sets):
    """Both oracles, the cover under each forbidden set, uncapped as the
    reference is."""
    assert_subset_contract(
        lambda b: outcome(exact_min_2ecss, g, node_budget=b),
        lambda b: outcome(reference_min_2ecss, g, node_budget=b))
    for forbidden in forbidden_sets:
        assert_subset_contract(
            lambda b: outcome(exact_min_cover, g, forbidden, node_budget=b),
            lambda b: outcome(reference_min_cover, g, forbidden, node_budget=b))


@pytest.mark.parametrize("n,p,seed", DIFF_GRAPHS)
def test_oracles_match_reference_search(n, p, seed):
    assert_oracles_match_reference(random2ec(n, p, seed), (set(), {3}, {3, 4}))


SPARSE_GRAPHS = [(n, p, seed) for seed, (n, p) in enumerate(
    itertools.product((10, 13, 16), (0.1, 0.15, 0.2)), start=100)]


@pytest.mark.parametrize("n,p,seed", SPARSE_GRAPHS)
def test_oracles_match_reference_search_sparse(n, p, seed):
    """Sparse graphs, where few vertices lie on a short cycle and the 2EC
    cut's searches mostly give up, under every forbidden set."""
    assert_oracles_match_reference(random2ec(n, p, seed),
                                   (set(), {3}, {4}, {3, 4}))


def bridged_by_pair(n, p, seed):
    """Two ``random2ec`` graphs joined by two copies of one edge, with a
    third copy and a self-loop: the simple skeleton has a bridge."""
    a, b = random2ec(n, p, seed), random2ec(n, p, seed + 1)
    edges = a.edges + [(u + a.n, v + a.n) for u, v in b.edges]
    return MultiGraph(a.n + b.n, edges + [(0, a.n)] * 3 + [(1, 1)])


@pytest.mark.parametrize("seed", [500, 504, 510])
def test_oracles_match_reference_search_on_a_bridged_skeleton(seed):
    """The 2ECSS oracle skips the skeleton's search at its root, and its
    search of two copies per class (14-16 free edges) runs with the 2EC
    cut."""
    g = bridged_by_pair(5, 0.5, seed)
    assert not _two_ec_on(g, _simplify(g))
    sol = exact_min_2ecss(g)
    assert len({g.edges[e] for e in sol}) < len(sol)
    assert_oracles_match_reference(g, (set(), {3}, {4}, {3, 4}))


def live_state(g, dead):
    """``_search``'s view of H for a cut: adjacency over every edge of g,
    live flags, and live degrees, with the edge ids in ``dead`` excluded."""
    adj = [[] for _ in range(g.n)]
    live = bytearray(g.m)
    slack = [0] * g.n
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
        if eid not in dead:
            live[eid] = 1
            slack[u] += 1
            slack[v] += 1
    return adj, live, slack


def test_bridge_cut_reroutes_its_first_path():
    """s-t is excluded.  The BFS's first path s-x-y-t blocks every second
    path that avoids it, and the residual search reroutes over y-x: two
    edge-disjoint paths, s-x-q-t and s-p-y-t, so the node is kept.  Without
    q-t, t has one edge left and the node is pruned."""
    s, x, y, t, p, q = range(6)
    edges = [(s, x), (x, y), (y, t), (s, p), (p, y), (x, q), (q, t), (s, t)]
    prune = _bridge_cut(CUT_MAX_REACH)(*live_state(MultiGraph(6, edges), {7}))
    assert not prune(s, t)
    prune = _bridge_cut(CUT_MAX_REACH)(*live_state(MultiGraph(6, edges), {6, 7}))
    assert prune(s, t)


def test_capped_bridge_cut_gives_up_where_the_uncapped_prunes():
    """u = 0 hangs on two adjacent vertices of the 10-cycle 1-10, and the
    triangle 11-12-13 on the cycle's vertex 6 by 6-12 and on u by u-11,
    the excluded edge.  Then 6-12 alone separates u from 11, but the BFS
    from u reaches CUT_MAX_REACH vertices before 11: the capped test keeps
    the node and the uncapped one prunes it."""
    edges = [(i, i % 10 + 1) for i in range(1, 11)]
    edges += [(0, 1), (0, 10), (11, 12), (12, 13), (13, 11), (6, 12), (0, 11)]
    g = MultiGraph(14, edges)
    assert is_two_edge_connected(g) and g.n > CUT_MAX_REACH
    state = live_state(g, {g.m - 1})
    assert not _bridge_cut(CUT_MAX_REACH)(*state)(0, 11)
    assert _bridge_cut(None)(*state)(0, 11)


def reference_greedy_deletion(g, kept, order, ok):
    """``greedy_deletion`` as a whole-set pass: drop from ``kept``, in
    ``order``, each edge whose removal leaves ``ok(kept)`` true, keeping an
    edge with an end of degree 2 (self-loops count in no degree) untested."""
    deg = [0] * g.n
    for eid in kept:
        u, v = g.edges[eid]
        if u != v:
            deg[u] += 1
            deg[v] += 1
    for eid in order:
        u, v = g.edges[eid]
        if u != v and 2 in (deg[u], deg[v]):
            continue
        kept.discard(eid)
        if not ok(kept):
            kept.add(eid)
        elif u != v:
            deg[u] -= 1
            deg[v] -= 1
    return kept


GREEDY_FORBIDDEN = [frozenset(f) for f in ((), (3,), (4,), (3, 4))]


def greedy_inputs(g):
    """The greedy pass's three kinds of input on g, each as (name, kept,
    whole-set leaf test, drop test): every edge of a 2EC g, self-loops
    included (``preprocess._sparse_witnesses``); the 2EC pools of
    ``exact_min_2ecss``; the cover pool of ``exact_min_cover`` under each
    forbidden set where it is a feasible cover."""
    out = []
    two_ec = lambda eids: _two_ec_on(g, eids)
    if is_two_edge_connected(g):
        out.append(("witness", list(range(g.m)), two_ec, _bridge_cut(None)))
    for copies in (1, 2):
        pool = _simplify(g, copies)
        if g.n > 1 and _two_ec_on(g, pool):
            out.append(("2ecss", pool, two_ec, _bridge_cut(None)))
    pool = _simplify(g, copies=2)
    for forbidden in GREEDY_FORBIDDEN:
        if _cover_ok(g, forbidden, pool):
            out.append((f"cover {sorted(forbidden)}", pool,
                        lambda eids, f=forbidden: _cover_ok(g, f, eids),
                        _cycle_cut(forbidden) if forbidden else None))
    return out


def greedy_graphs(multigraph_cases):
    """Seeded random multigraphs with parallel copies and self-loops, and
    denser ``random2ec`` graphs, on which the cover cut has starts."""
    graphs = [g for g, _ in multigraph_cases]
    graphs += list(random_2ec_multigraphs(20254, 200))
    graphs += [random2ec(n, p, seed) for n in range(6, 13) for p in (0.3, 0.6)
               for seed in range(3)]
    return graphs + [pair_first(seed) for seed in range(3)]


def test_greedy_deletion_matches_whole_set_reference(multigraph_cases):
    """The local drop tests keep exactly the edges the whole-set pass keeps,
    in both id orders.  On every kind of input but the unforbidden cover,
    some drop that the degree rule allows is refused."""
    refused: dict[str, int] = {}
    for g in greedy_graphs(multigraph_cases):
        for name, kept, leaf_ok, drop in greedy_inputs(g):
            for order in (sorted(kept), sorted(kept, reverse=True)):
                want = reference_greedy_deletion(g, set(kept), order, leaf_ok)
                got = greedy_deletion(g, set(kept), order, drop)
                assert got == want, (name, g.edges, order)
                loose = greedy_deletion(g, set(kept), order, None)
                refused[name] = refused.get(name, 0) + (loose != want)
    assert refused.pop("cover []") == 0
    assert len(refused) == 5 and all(refused.values()), refused


def test_greedy_deletion_makes_no_whole_set_test(monkeypatch, multigraph_cases):
    """With every whole-set leaf test made to raise, the greedy pass still
    finishes on each kind of input, with the reference's answer."""
    runs = []
    for g in greedy_graphs(multigraph_cases)[::7]:
        for name, kept, leaf_ok, drop in greedy_inputs(g):
            order = sorted(kept, reverse=True)
            want = reference_greedy_deletion(g, set(kept), order, leaf_ok)
            runs.append((name, g, kept, order, drop, want))

    def fail(*args):
        raise AssertionError("whole-set leaf test")
    for module, name in ((oracle, "_two_ec_on"), (oracle, "_cover_ok"),
                         (oracle, "is_two_edge_connected"),
                         (graph, "is_two_edge_connected")):
        monkeypatch.setattr(module, name, fail)
    for name, g, kept, order, drop, want in runs:
        assert greedy_deletion(g, set(kept), order, drop) == want, name
    assert {name.split()[0] for name, *_ in runs} == {"witness", "2ecss", "cover"}


def pair_first(seed):
    """``random2ec`` on 0-7 plus x=8, y=9 joined by a parallel pair, x to 0
    and 1, y to 2 and 3.  The pair's ids come first, so the search decides
    them while the cover cut still runs; a minimum cover may keep the pair
    as a 2-cycle component, which no forbidden set here forbids."""
    base = random2ec(8, 0.6, 700 + seed)
    return MultiGraph(10, [(8, 9), (8, 9), (8, 0), (8, 1), (9, 2), (9, 3)]
                      + base.edges)


@pytest.mark.parametrize("seed", range(3))
def test_oracles_match_reference_search_with_a_pair_component(seed):
    assert_oracles_match_reference(pair_first(seed), ({3}, {3, 4}))


@pytest.mark.parametrize("n,p,seed", [(12, 0.9, 91015), (12, 0.75, 91025)])
def test_cuts_prune_dense_sweep_instances(n, p, seed):
    """Instances 15 and 25 of the ratio sweep: both oracles finish within a
    node budget at which the reference search runs out."""
    g = random2ec(n, p, seed)
    budget = 20_000
    with pytest.raises(TooLarge):
        reference_min_2ecss(g, node_budget=budget)
    with pytest.raises(TooLarge):
        reference_min_cover(g, {3}, node_budget=budget)
    assert exact_min_2ecss(g, node_budget=budget) == reference_min_2ecss(g)
    assert exact_min_cover(g, {3}, node_budget=budget) == reference_min_cover(g, {3})


def test_vertex_cap_binds_only_when_passed():
    """Without a limit the 2ECSS oracle solves a graph beyond the structured
    cap; with the cap it refuses it.  The cover oracle has no cap."""
    g = random2ec(15, 0.25, 1)
    pool = _simplify(g)
    free = [e for e in pool if e not in _forced_edges(g, pool)]
    assert g.n > STRUCTURED_LIMIT and len(free) > MAX_FREE_EDGES
    sol = exact_min_2ecss(g)
    assert len(sol) == g.n and _two_ec_on(g, sol)
    with pytest.raises(TooLarge, match="oracle cap"):
        exact_min_2ecss(g, limit=STRUCTURED_LIMIT)
    with pytest.raises(TypeError):
        exact_min_cover(g, {3}, limit=STRUCTURED_LIMIT)


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


def reference_two_ec_on(g, eids):
    """``_two_ec_on`` before it called the one-pass test: the degree
    pre-check, then components, then bridges."""
    eids = list(eids)
    deg = [0] * g.n
    for eid in eids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg) and g.n > 1:
        return False
    if len(connected_components(g, eids)) != 1:
        return False
    return not find_bridges(g, eids)


def reference_cover_ok(g, forbidden, eids):
    """``_cover_ok`` before the walk: a forbidden cycle found among the
    components, with their edges counted."""
    deg = [0] * g.n
    for eid in eids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg):
        return False
    if forbidden:
        comps = connected_components(g, eids)
        edge_count = {}
        comp_of = [0] * g.n
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        for eid in eids:
            ci = comp_of[g.edges[eid][0]]
            edge_count[ci] = edge_count.get(ci, 0) + 1
        for ci, comp in enumerate(comps):
            k = len(comp)
            if k in forbidden and edge_count.get(ci, 0) == k \
                    and all(deg[v] == 2 for v in comp):
                return False
    return True


def test_two_ec_on_matches_reference(multigraph_cases):
    verdicts = set()
    for g, subsets in multigraph_cases:
        for sub in subsets:
            want = reference_two_ec_on(g, sub)
            assert _two_ec_on(g, sub) == want, (g.edges, sub)
            verdicts.add(want)
    assert verdicts == {False, True}


FORBIDDEN_SETS = [frozenset(f) for f in ((), (3,), (4,), (3, 4), (2, 3, 4))]


def test_cover_ok_matches_reference(multigraph_cases):
    """Also with 2-cycles (parallel pairs) forbidden; some subsets fail only
    for a forbidden cycle."""
    cycle_rejects = 0
    for g, subsets in multigraph_cases:
        for sub in subsets:
            for forbidden in FORBIDDEN_SETS:
                want = reference_cover_ok(g, forbidden, sub)
                assert _cover_ok(g, forbidden, sub) == want, (g.edges, sub, forbidden)
                cycle_rejects += reference_cover_ok(g, (), sub) and not want
    assert cycle_rejects > 100


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


def test_cover_floor_is_at_most_the_reference_cover(multigraph_cases):
    """On seeded multigraphs with self-loops and parallel copies, the floor
    of the whole edge set bounds the reference's minimum cover, and meets it
    on some of them."""
    tight = 0
    for g, _ in multigraph_cases:
        if g.n and min(degrees(g, _simplify(g, copies=2))) < 2:
            continue
        floor = cover_floor(g, range(g.m))
        want = len(reference_min_cover(g, set()))
        assert floor <= want, g.edges
        tight += floor == want
    assert tight > 100


@pytest.mark.parametrize("name,floor", [("cycle8", 84), ("vertex2_both_large", 40),
                                        ("vertex3_c3", 42), ("vertex3_c2iii", 38)])
def test_cover_floor_is_the_optimum_on_gadgets(name, floor):
    """On these planted gadgets the floor is above n and is the size of the
    minimum triangle-free cover."""
    g = gadgets.GADGETS[name]()
    assert cover_floor(g, _simplify(g, copies=2)) == floor > g.n
    assert len(exact_min_cover(g, {3})) == floor


def two_matching_number(nx, g):
    """nu_2, the largest 2-matching of g's non-loop edges, from a maximum
    matching on Tutte's gadget: vertex v becomes two copies, edge e = uv the
    pair e_u - e_v, with e_u joined to both copies of u and e_v to both of
    v.  A maximum matching has |E| + nu_2 edges."""
    h = nx.Graph()
    loopless = [(eid, u, v) for eid, (u, v) in enumerate(g.edges) if u != v]
    for eid, u, v in loopless:
        h.add_edge(("e", eid, u), ("e", eid, v))
        for end in (u, v):
            for copy in (0, 1):
                h.add_edge(("e", eid, end), ("v", end, copy))
    return len(nx.max_weight_matching(h, maxcardinality=True)) - len(loopless)


def test_cover_floor_is_at_most_the_2_matching_bound(multigraph_cases):
    """The floor is at most 2n - nu_2 on every seeded multigraph, and equal
    to it on most of them."""
    nx = pytest.importorskip("networkx")
    tight = 0
    for g, _ in multigraph_cases:
        bound = 2 * g.n - two_matching_number(nx, g)
        floor = cover_floor(g, range(g.m))
        assert floor <= bound, g.edges
        tight += floor == bound
    assert tight > len(multigraph_cases) // 2


@pytest.mark.parametrize("name,budget", [("cycle8", 20_000),
                                         ("vertex2_both_large", 50_000)])
def test_cover_search_stops_at_the_floor(name, budget, monkeypatch):
    """A search that meets the floor stops at its first optimum: within a
    node budget at which the search with floor 0 runs out, it returns the
    set that search returns given room."""
    g = gadgets.GADGETS[name]()
    got = exact_min_cover(g, {3}, node_budget=budget)
    monkeypatch.setattr(oracle, "cover_floor", lambda g, pool: 0)
    with pytest.raises(TooLarge):
        exact_min_cover(g, {3}, node_budget=budget)
    assert exact_min_cover(g, {3}) == got


def reference_max_removable_inside(g, inside_edges):
    """The exhaustive search ``max_removable_inside`` replaced: subsets of
    ``inside_edges``, largest first, until removing one leaves G 2EC."""
    all_ids = set(range(g.m))
    for size in range(len(inside_edges), -1, -1):
        for comb in itertools.combinations(inside_edges, size):
            if _two_ec_on(g, all_ids - set(comb)):
                return size
    return 0


def test_max_removable_matches_reference():
    """The quotient search against the exhaustive one, on random 2EC
    multigraphs (parallel copies, self-loops) and random2ec graphs, with
    random inside sets.  Some inside edges lie within one 2EC class of the
    outside edges, and some answers are strictly between 0 and |inside|."""
    rnd = random.Random(5150)
    graphs = list(random_2ec_multigraphs(20253, 300))
    graphs += [random2ec(n, p, seed) for n in range(6, 13) for p in (0.3, 0.6)
               for seed in range(3)]
    within = partial = 0
    for g in graphs:
        for _ in range(3):
            inside = sorted(rnd.sample(range(g.m), rnd.randint(0, min(g.m, 10))))
            want = reference_max_removable_inside(g, inside)
            assert max_removable_inside(g, inside) == want, (g.edges, inside)
            outside = [e for e in range(g.m) if e not in inside]
            cls = two_edge_classes(g, outside)[1]
            for e in inside:
                u, v = g.edges[e]
                within += cls[u] == cls[v]
            partial += 0 < want < len(inside)
    assert within > 0 and partial > 0
    # two named traps of the search's greedy incumbent, which the random
    # inputs above hit only by chance
    for name, g, inside in MAX_REMOVABLE_CASES:
        outside = [e for e in range(g.m) if e not in inside]
        bridges, _, nclasses = two_edge_classes(g, outside)
        if name == "forced bridge":
            assert bridges
        else:
            assert nclasses == 1
        want = reference_max_removable_inside(g, inside)
        assert max_removable_inside(g, inside) == want, name


# (name, graph, inside edges).  "forced bridge": the outside edge 0-1 is a
# bridge of the outside edges, so the quotient search must keep it although
# both its ends have degree 3; dropping it leaves the 2EC 4-cycle 0-2-1-3,
# one edge below the smallest set that keeps it.  "one class": the outside
# 4-cycle is one 2EC class, so the quotient is a single vertex, a leaf whose
# degree deficit never reaches 0 in the search.
MAX_REMOVABLE_CASES = [
    ("forced bridge", MultiGraph(4, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]),
     [1, 2, 3, 4]),
    ("one class", MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), [4]),
]


def test_max_removable_not_2ec():
    """A triangle with a pendant edge is not 2EC: nothing is removable."""
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    for inside in ([], [0], [3], [0, 1, 2, 3]):
        assert reference_max_removable_inside(g, inside) == 0
        assert max_removable_inside(g, inside) == 0


def is_alpha_contractible(g, component_edges, alpha):
    """True iff every 2ECSS of G keeps at least |E(C)|/alpha edges with both
    endpoints inside V(C): the contractibility decision that
    ``preprocess.find_contractible`` makes on short cycles.

    The minimum number of inside edges over all 2ECSS equals
    |E(G[V(C)])| - max{|F| : F inside, G - F 2EC}.
    """
    if not component_edges:
        raise ValueError("component must have at least one edge")
    verts = set()
    for eid in component_edges:
        verts.update(g.edges[eid])
    if not is_two_edge_connected(_induced(g, verts, component_edges)):
        raise NotTwoEdgeConnected("candidate component is not 2EC")
    inside = [eid for eid, (u, v) in enumerate(g.edges)
              if u in verts and v in verts and u != v]
    min_inside = len(inside) - max_removable_inside(g, inside)
    return Fraction(min_inside) >= Fraction(len(component_edges)) / alpha


def _induced(g, verts, eids):
    order = sorted(verts)
    idx = {v: i for i, v in enumerate(order)}
    return MultiGraph(len(order), [(idx[g.edges[e][0]], idx[g.edges[e][1]])
                                   for e in sorted(eids)])


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


def reference_minimal_2ecss_witness(g, h):
    """``minimal_2ecss_witness`` as one whole-set test per edge of h."""
    for eid in sorted(h):
        if _two_ec_on(g, h - {eid}):
            return False
    return True


def test_minimality_witness_matches_reference(multigraph_cases):
    """On seeded multigraphs with parallel copies and self-loops: the
    fixture's edge subsets, 2EC or not, and minimal 2EC sets from greedy
    passes in both id orders.  Both verdicts occur on 2EC sets."""
    verdicts = set()
    for g, subsets in multigraph_cases:
        hs = [set(sub) for sub in subsets]
        if is_two_edge_connected(g):
            for order in (range(g.m), range(g.m - 1, -1, -1)):
                hs.append(greedy_deletion(g, set(range(g.m)), order,
                                          _bridge_cut(None)))
        for h in hs:
            want = reference_minimal_2ecss_witness(g, h)
            assert minimal_2ecss_witness(g, h) == want, (g.edges, h)
            if _two_ec_on(g, h):
                verdicts.add(want)
    assert verdicts == {False, True}
