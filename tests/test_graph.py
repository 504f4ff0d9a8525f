import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoec.graph import (MultiGraph, biconnected_components, bridges_and_blocks,
                         connected_components, contract, find_bridges,
                         ham_path_exists, is_two_edge_connected,
                         simple_cycles_upto)


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


def test_bridges_and_blocks_counts():
    # two triangles joined by one edge
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    dec = bridges_and_blocks(g)
    assert dec.bridges == {6}
    assert len(dec.blocks) == 2
    # C4: no bridges, one block
    dec = bridges_and_blocks(cycle_graph(4))
    assert not dec.bridges and len(dec.blocks) == 1
    # star K_{1,3}: three bridges, no blocks
    g = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    dec = bridges_and_blocks(g)
    assert len(dec.bridges) == 3 and not dec.blocks


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
    dec = bridges_and_blocks(g)
    assert len(dec.bridges) + sum(len(b["edges"]) for b in dec.blocks) == g.m
    for eid in range(g.m):
        inside = sum(1 for b in dec.blocks if eid in b["edges"])
        assert (eid in dec.bridges) != (inside == 1)


def test_contract_c6():
    g = cycle_graph(6)
    h, vmap = contract(g, {0, 1, 2})
    assert h.n == 4
    loops = [e for e in h.edges if e[0] == e[1]]
    assert len(loops) == 2
    assert h.origin == list(range(6))


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


def test_simple_cycles_upto():
    g = complete_graph(4)
    cycles = simple_cycles_upto(g, 4)
    lens = sorted(len(c) for c in cycles)
    assert lens == [3, 3, 3, 3, 4, 4, 4]


def test_ham_path():
    g = cycle_graph(4)
    assert ham_path_exists(g, {0, 1, 2, 3}, 0, 1) is not None
    assert ham_path_exists(g, {0, 1, 2, 3}, 0, 2) is None


def test_contract_decontract_identity():
    g = complete_graph(5)
    h, _ = contract(g, {1, 3})
    assert sorted(h.origin) == list(range(g.m))
    # decontraction by origin maps every contracted edge back uniquely
    back = {h.origin[e] for e in range(h.m)}
    assert back == set(range(g.m))


@given(st.integers(4, 9), st.randoms())
@settings(max_examples=40, deadline=None)
def test_bridges_match_removal_oracle(n, rnd):
    from twoec.graph import is_connected
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
            if not is_connected(g, [x for x in range(g.m) if x != e])}
    assert fast == slow

