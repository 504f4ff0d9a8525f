import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoec import gadgets
from twoec.decomp import CoverDecomposition
from twoec.graph import (GraphError, MultiGraph, biconnected_components,
                         connected_components, contract,
                         degrees, find_bridges, ham_path_exists,
                         is_two_edge_connected, lowpoint_forest,
                         simple_cycles_upto,
                         two_edge_classes)
from twoec.params import desk_params


def cycle_graph(k):
    return MultiGraph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    return MultiGraph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k):
    return MultiGraph(k, list(itertools.combinations(range(k), 2)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return MultiGraph(10, outer + inner + spokes)


def test_degrees_count_a_self_loop_twice():
    g = MultiGraph(4, [(0, 1), (1, 1), (1, 2), (0, 1), (2, 2)])
    assert degrees(g, range(g.m)) == [2, 5, 3, 0]
    assert degrees(g, [1, 3]) == [1, 3, 0, 0]
    assert degrees(g, []) == [0, 0, 0, 0]


def test_two_edge_connected_basics():
    assert is_two_edge_connected(cycle_graph(4))
    assert not is_two_edge_connected(path_graph(3))
    assert is_two_edge_connected(MultiGraph(1))
    assert is_two_edge_connected(MultiGraph(1, [(0, 0)]))
    assert not is_two_edge_connected(MultiGraph(2, [(0, 1)]))
    assert is_two_edge_connected(MultiGraph(2, [(0, 1), (0, 1)]))


def test_petersen_minus_edge_is_2ec():
    g = petersen()
    for drop in range(g.m):
        keep = [e for e in range(g.m) if e != drop]
        sub = MultiGraph(10, [g.edges[e] for e in keep])
        # independent oracle: removing each remaining edge, graph stays connected
        assert is_two_edge_connected(sub) == all(
            len(connected_components(sub, [x for x in range(sub.m) if x != r])) == 1
            for r in range(sub.m))


def cover_blocks(g):
    """(bridges, blocks) of all of g, from ``CoverDecomposition``."""
    dec = CoverDecomposition(g, range(g.m), desk_params())
    return dec.bridges, [b for c in dec.components for b in c.blocks]


def test_bridges_and_blocks_counts():
    # two triangles joined by one edge
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    bridges, blocks = cover_blocks(g)
    assert bridges == {6}
    assert len(blocks) == 2
    # C4: no bridges, one block
    bridges, blocks = cover_blocks(cycle_graph(4))
    assert not bridges and len(blocks) == 1
    # star K_{1,3}: three bridges, no blocks
    g = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    bridges, blocks = cover_blocks(g)
    assert len(bridges) == 3 and not blocks


@given(st.integers(4, 9), st.randoms())
@settings(max_examples=60, deadline=None)
def test_bridge_block_edge_partition(n, rnd):
    edges = []
    for u in range(1, n):
        edges.append((rnd.randrange(u), u))
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    g = MultiGraph(n, edges)
    bridges, blocks = cover_blocks(g)
    assert len(bridges) + sum(len(b.edges) for b in blocks) == g.m
    for eid in range(g.m):
        inside = sum(1 for b in blocks if eid in b.edges)
        assert (eid in bridges) != (inside == 1)


def test_contract_c6():
    g = cycle_graph(6)
    h, vmap = contract(g, {0, 1, 2})
    assert h.n == 4
    loops = [e for e in h.edges if e[0] == e[1]]
    assert len(loops) == 2
    assert h.origin is None and h.m == g.m


def test_contract_k4_parallel():
    g = complete_graph(4)
    h, _ = contract(g, {0, 1})
    assert h.n == 3
    pair_counts = {}
    for u, v in h.edges:
        if u != v:
            pair_counts[(u, v)] = pair_counts.get((u, v), 0) + 1
    assert sorted(pair_counts.values()) == [1, 2, 2]


def test_contract_all():
    g = cycle_graph(5)
    h, _ = contract(g, set(range(5)))
    assert h.n == 1 and h.m == 5
    assert all(u == v for u, v in h.edges)


def reference_contract(g, s):
    """Contract ``s`` into the vertex of its smallest member, by an own
    vertex map: (graph, vertex map)."""
    rep = min(s)
    vmap = [0] * g.n
    nxt = 0
    for v in range(g.n):
        if v in s and v != rep:
            continue
        vmap[v] = nxt
        nxt += 1
    for v in s:
        vmap[v] = vmap[rep]
    return MultiGraph(nxt, [(vmap[u], vmap[v]) for u, v in g.edges]), vmap


@pytest.mark.parametrize("g,s", [
    (cycle_graph(6), {0, 1, 2}), (complete_graph(4), {0, 1}),
    (cycle_graph(5), set(range(5))), (complete_graph(5), {1, 3}),
    (petersen(), {2, 7, 9}), (path_graph(4), {3}),
])
def test_contract_is_contract_many_of_one_group(g, s):
    """``contract`` against the reference: the same vertex map, and edge i
    of the result is edge i of g with its ends mapped, untagged."""
    ref, ref_vmap = reference_contract(g, s)
    h, vmap = contract(g, s)
    assert (h.n, h.edges, h.origin, vmap) == (ref.n, ref.edges, None, ref_vmap)


@pytest.mark.parametrize("group", [{-1, 0}, {0, 3}])
def test_contract_many_rejects_out_of_range_vertices(group):
    g = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="out of range"):
        contract(g, group)


def test_biconnected_segments():
    # two C4 components of a cover joined through a cut node pattern:
    # component-graph shaped test on a plain graph: bowtie has 2 blocks
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    comps = biconnected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [2, 3, 4]]
    # parallel edges are 2-vertex-connected
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    comps = biconnected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [1, 2]]


def reference_blocks(g, eids):
    """The maximal vertex sets of size >= 2 whose induced subgraph over
    ``eids`` is connected and has no cut vertex, by trying every set (as
    bitmasks, so n <= 8 stays cheap).  Sorted lists, in sorted order."""
    nbr = [0] * g.n
    for e in eids:
        u, v = g.edges[e]
        if u != v:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u

    def connected(mask):
        reach = frontier = mask & -mask
        while frontier:
            grown = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    grown |= nbr[v]
            frontier = grown & mask & ~reach
            reach |= frontier
        return reach == mask

    def members(mask):
        return [v for v in range(g.n) if mask >> v & 1]

    good = [mask for mask in range(1 << g.n) if len(members(mask)) >= 2
            and connected(mask)
            and all(connected(mask & ~(1 << v)) for v in members(mask))]
    return sorted(members(a) for a in good
                  if not any(a != b and a & b == a for b in good))


def test_biconnected_components_match_reference():
    """Random multigraphs with n <= 8, self-loops, parallel pairs and
    isolated vertices, over every edge and over a random edge subset."""
    rnd = random.Random(3131)
    seen = {"loop": 0, "parallel": 0, "isolated": 0, "several": 0}
    for _ in range(400):
        n = rnd.randint(0, 8)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 2 * n))]
        edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 2))
                  if edges]
        g = MultiGraph(n, edges)
        sub = [e for e in range(g.m) if rnd.random() < 0.7]
        for eids in (None, sub):
            got = sorted(sorted(b) for b in biconnected_components(g, eids))
            want = reference_blocks(g, range(g.m) if eids is None else eids)
            assert got == want, (g.edges, eids)
            seen["several"] += len(want) >= 2
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(g.edges)) < g.m
        seen["isolated"] += any(not adj for adj in g.adj())
    assert min(seen.values()) >= 40, seen


def test_simple_cycles_upto():
    g = complete_graph(4)
    cycles = simple_cycles_upto(g, 4)
    lens = sorted(len(c) for c in cycles)
    assert lens == [3, 3, 3, 3, 4, 4, 4]


def reference_simple_cycles_upto(g, max_len, limit=None, through=None):
    """``simple_cycles_upto`` before its distance prune: every path from the
    root grows until it has ``max_len`` vertices."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.simple_pairs():
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    out = []
    for root in range(g.n) if through is None else (through,):
        low = root if through is None else -1
        stack = [(root, [root], {root})]
        while stack:
            v, path, onpath = stack.pop()
            for w in adj[v]:
                if w == root and len(path) >= 3:
                    if path[1] < path[-1]:
                        out.append(list(path))
                        if limit is not None and len(out) >= limit:
                            return out
                elif w > low and w not in onpath and len(path) < max_len:
                    stack.append((w, path + [w], onpath | {w}))
    return out


def random_cycle_multigraph(rnd, n, p):
    """G(n, p) plus a few self-loops and parallel copies."""
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < p]
    edges += [(v, v) for v in range(n) if rnd.random() < 0.2]
    edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 3)) if edges]
    rnd.shuffle(edges)
    return MultiGraph(n, edges)


def cycle_differential_graphs():
    """Every gadget, then seeded random multigraphs: sparse and medium ones
    on up to 12 vertices and dense ones (p >= 0.8) on up to 8."""
    graphs = [make() for make in gadgets.GADGETS.values()]
    rnd = random.Random(2626)
    for p, top in ((0.2, 12), (0.4, 12), (0.6, 10), (0.8, 8), (0.9, 8), (1.0, 8)):
        graphs += [random_cycle_multigraph(rnd, rnd.randint(1, top), p)
                   for _ in range(6)]
    return graphs


def test_simple_cycles_match_reference_enumerator():
    """The distance-pruned search lists the reference's cycles item by item,
    in its order, for ``max_len`` 3-8, ``limit`` None/1/7/20000 and
    ``through`` None or each vertex, on every gadget and on random
    multigraphs with self-loops, parallel copies and dense cases."""
    graphs = cycle_differential_graphs()
    assert any(g.m > len(g.simple_pairs()) for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    capped = 0
    for g in graphs:
        for max_len in range(3, 9):
            for through in [None, *range(g.n)]:
                for limit in (None, 1, 7, 20000):
                    want = reference_simple_cycles_upto(g, max_len, limit, through)
                    assert simple_cycles_upto(g, max_len, limit, through) == want, \
                        (g.edges, max_len, limit, through)
                    capped += limit is not None and len(want) == limit
    assert capped > 100, capped


def brute_cycles_through(g, v):
    """Every simple cycle through v with at least three vertices, as the
    vertex sequence from v with the smaller second vertex first, found by
    trying every sequence of distinct vertices."""
    adj = {frozenset(e) for e in g.edges if e[0] != e[1]}
    others = [x for x in range(g.n) if x != v]
    out = set()
    for k in range(2, len(others) + 1):
        for rest in itertools.permutations(others, k):
            seq = (v,) + rest
            if seq[1] < seq[-1] and all(
                    frozenset((a, b)) in adj
                    for a, b in zip(seq, seq[1:] + (v,))):
                out.add(seq)
    return out


def test_simple_cycles_through_match_brute_force():
    """``through=v``: each simple cycle through v with at most L vertices
    exactly once, rooted at v with ``path[1] < path[-1]``, on seeded random
    multigraphs of up to 7 vertices (self-loops and parallel copies
    included), for every v and every L from 2 to n + 1."""
    rnd = random.Random(4242)
    found = 0
    for _ in range(300):
        n = rnd.randint(1, 7)
        edges = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 3 * n))]
        edges += [rnd.choice(edges) for _ in range(len(edges) // 4)]
        g = MultiGraph(n, edges)
        for v in range(n):
            brute = brute_cycles_through(g, v)
            found += len(brute)
            for max_len in range(2, n + 2):
                got = simple_cycles_upto(g, max_len, through=v)
                assert all(c[0] == v and c[1] < c[-1] for c in got), got
                assert len(got) == len({tuple(c) for c in got}), got
                assert ({tuple(c) for c in got}
                        == {c for c in brute if len(c) <= max_len}), g.edges
    assert found >= 1000, found


def test_ham_path():
    g = cycle_graph(4)
    assert ham_path_exists(g, {0, 1, 2, 3}, 0, 1) is not None
    assert ham_path_exists(g, {0, 1, 2, 3}, 0, 2) is None


def test_contract_decontract_identity():
    g = complete_graph(5)
    h, vmap = contract(g, {1, 3})
    # contraction keeps edge ids, so edge i decontracts to edge i of g
    assert h.origin is None and h.m == g.m
    assert all(h.edges[e] == tuple(sorted(vmap[x] for x in g.edges[e]))
               for e in range(g.m))


@given(st.integers(4, 9), st.randoms())
@settings(max_examples=40, deadline=None)
def test_bridges_match_removal_oracle(n, rnd):
    edges = []
    for u in range(1, n):
        edges.append((rnd.randrange(u), u))
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    g = MultiGraph(n, edges)
    fast = find_bridges(g)
    slow = {e for e in range(g.m)
            if len(connected_components(g, [x for x in range(g.m) if x != e])) > 1}
    assert fast == slow


def reference_components(g, edge_subset=None, skip_vertices=None):
    """``connected_components`` with its adjacency rebuilt from the edge
    list on every call, as before it walked ``g.adj()``."""
    skip = skip_vertices or set()
    adj = [[] for _ in range(g.n)]
    eids = range(g.m) if edge_subset is None else edge_subset
    for eid in eids:
        u, v = g.edges[eid]
        if u == v or u in skip or v in skip:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if s in skip or seen[s]:
            continue
        comp = [s]
        seen[s] = True
        dq = deque([s])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    dq.append(y)
        comps.append(sorted(comp))
    return comps


def reference_find_bridges(g, eids):
    """``find_bridges`` as its own lowpoint DFS, before it took the bridges
    of ``two_edge_classes``."""
    adj = [[] for _ in range(g.n)]
    for eid in eids:
        u, v = g.edges[eid]
        if u == v:
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * g.n
    low = [0] * g.n
    bridges = set()
    counter = itertools.count()
    for root in range(g.n):
        if disc[root] != -1 or not adj[root]:
            continue
        stack = [(root, -1, 0)]
        disc[root] = low[root] = next(counter)
        while stack:
            v, pe, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, pe, i + 1))
                w, eid = adj[v][i]
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = next(counter)
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif pe != -1:
                u, w2 = g.edges[pe]
                parent = w2 if u == v else u
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    bridges.add(pe)
    return bridges


def reference_is_two_edge_connected(g, edge_subset):
    """The two passes the one-pass test replaced: components, then bridges."""
    if g.n <= 1:
        return g.n == 1
    return (len(reference_components(g, edge_subset)) == 1
            and not reference_find_bridges(g, edge_subset))


def reference_two_edge_classes(g, eids):
    """Bridges, then the components of the other edges: the two passes
    ``two_edge_classes`` replaced.  Classes as a set of vertex sets."""
    bridges = reference_find_bridges(g, eids)
    comps = reference_components(g, [e for e in eids if e not in bridges])
    return bridges, {frozenset(c) for c in comps}


def test_components_match_reference(multigraph_cases):
    """Both adjacency paths, with and without removed vertices."""
    rnd = random.Random(77)
    for g, subsets in multigraph_cases:
        skip = set(rnd.sample(range(g.n), rnd.randint(0, min(g.n, 4))))
        for s in (None, skip):
            assert connected_components(g, None, s) == reference_components(g, None, s)
            for sub in subsets:
                assert connected_components(g, sub, s) == \
                    reference_components(g, sub, s)


def test_lowpoint_forest_subtrees_are_preorder_runs(multigraph_cases):
    """``order`` is a preorder with ``disc`` its inverse, and
    ``order[disc[v]:end[v]]`` is exactly v's descendants under ``parent``;
    a removed vertex has ``disc`` and ``end`` n."""
    rnd = random.Random(55)
    for g, subsets in multigraph_cases:
        skip = set(rnd.sample(range(g.n), rnd.randint(0, min(g.n, 3))))
        for eids in (None, subsets[-1]):
            order, parent, _, disc, _, end = lowpoint_forest(g, eids, skip)
            assert sorted(order) == sorted(set(range(g.n)) - skip)
            assert all(disc[v] == i for i, v in enumerate(order))
            below = {v: {v} for v in order}
            for v in reversed(order):
                if parent[v] != -1:
                    below[parent[v]] |= below[v]
            for v in order:
                run = order[disc[v]:end[v]]
                assert len(run) == len(below[v]) and set(run) == below[v]
            assert all(disc[v] == end[v] == g.n for v in skip)


def test_two_edge_connected_matches_reference(multigraph_cases):
    verdicts = set()
    for g, subsets in multigraph_cases:
        assert is_two_edge_connected(g) == \
            reference_is_two_edge_connected(g, range(g.m))
        for sub in subsets:
            want = reference_is_two_edge_connected(g, sub)
            assert is_two_edge_connected(g, sub) == want, (g.edges, sub)
            assert is_two_edge_connected(g, iter(sub)) == want
            verdicts.add((g.n > 2, want))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_two_edge_connected_reads_a_one_shot_subset():
    """A path is not 2EC when its edge ids come from an iterator either."""
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2), (0, 1)])
    assert not is_two_edge_connected(g, [0, 1])
    assert not is_two_edge_connected(g, iter([0, 1]))
    assert is_two_edge_connected(g, iter([0, 1, 2]))


def test_two_edge_classes_match_reference(multigraph_cases):
    split = 0
    for g, subsets in multigraph_cases:
        for sub in subsets:
            bridges, cls, k = two_edge_classes(g, iter(sub))
            classes = {}
            for v, c in enumerate(cls):
                classes.setdefault(c, set()).add(v)
            assert sorted(classes) == list(range(k))
            assert (bridges, {frozenset(c) for c in classes.values()}) == \
                reference_two_edge_classes(g, sub), (g.edges, sub)
            split += bool(bridges) and any(len(c) > 1 for c in classes.values())
    assert split > 100
