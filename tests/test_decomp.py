import random
from collections import deque

from twoec.decomp import (C4, C5, COMPLEX, LARGE2EC, RICH, Block,
                          BlockTree, Component, ComponentGraphView,
                          CoverDecomposition, segment_cycles)
from twoec.graph import (MultiGraph, connected_components, find_bridges,
                         simple_cycles_upto)
from twoec.params import desk_params

P = desk_params()


def build_two_c4s_bridged_host():
    """Host: two C4s joined by 3 edges; cover: the two C4s."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6)]
    g = MultiGraph(8, edges)
    return g, set(range(8))


def test_component_graph_parallel_edges():
    g, h = build_two_c4s_bridged_host()
    dec = CoverDecomposition(g, h, P)
    assert len(dec.components) == 2
    view = ComponentGraphView(g, dec)
    assert len(dec.components) == 2
    assert view.mg.m == 3
    assert len(view.segments) == 1


def test_spanning_cover_single_node():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
    dec = CoverDecomposition(g, set(range(5)), P)
    view = ComponentGraphView(g, dec)
    assert len(dec.components) == 1
    assert view.mg.m == 0


def test_hub_with_two_pendant_c4s_segments():
    # hub C9 + two C4s each attached to the hub only, by 2 edges each
    edges = [(i, (i + 1) % 9) for i in range(9)]
    edges += [(9, 10), (10, 11), (11, 12), (12, 9)]
    edges += [(13, 14), (14, 15), (15, 16), (16, 13)]
    edges += [(9, 0), (10, 2)]
    edges += [(13, 4), (14, 6)]
    g = MultiGraph(17, edges)
    h = set(range(17))
    dec = CoverDecomposition(g, h, P)
    assert len(dec.components) == 3
    view = ComponentGraphView(g, dec)
    assert len(dec.components) == 3
    assert len(view.segments) == 2
    assert all(len(s) == 2 for s in view.segments)
    tags = sorted(c.tag for c in dec.components)
    assert tags == [C4, C4, LARGE2EC]
    assert sum(1 for c in dec.components if c.huge) == 1


def test_complex_component_block_tree():
    # C5 block - bridge - lonely - bridge - C5 block
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),       # block A
             (0, 5),                                        # bridge
             (5, 6),                                        # bridge
             (6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]      # block B
    g = MultiGraph(11, edges)
    dec = CoverDecomposition(g, set(range(12)), P)
    comp = dec.components[0]
    assert comp.tag == COMPLEX
    assert len(comp.blocks) == 2
    assert comp.bridges == {5, 6}
    tree = BlockTree(g, comp)
    assert len(tree.nodes) == 3
    assert sorted(tree.nodes[i]["kind"] for i in range(3)) == ["block", "block", "lonely"]
    assert len(tree.pendant_blocks()) == 2


def test_rich_vertex_component():
    g = MultiGraph(7, [(0, 1), (1, 2), (2, 0),          # square-ish blob A
                       (0, 3), (3, 4),                  # host edges at the rich vertex
                       (4, 5), (5, 6), (6, 4)])         # blob B
    dec = CoverDecomposition(g, {0, 1, 2, 5, 6, 7}, P, rich_vertices={3})
    rich = [c for c in dec.components if c.is_rich]
    assert len(rich) == 1 and rich[0].tag == RICH


def test_large_tag_and_anchor_on_random_covers():
    """``LARGE2EC`` is exactly "2EC with at least 9 edges", and the anchor
    is the largest huge component, else the largest one, lower cid first."""
    import random
    from twoec.gadgets import random2ec
    rng = random.Random(5)
    for seed in range(60):
        g = random2ec(8 + seed % 12, 0.35, seed)
        h = {e for e in range(g.m) if rng.random() < 0.6}
        dec = CoverDecomposition(g, h, P)
        for c in dec.components:
            assert (c.tag == LARGE2EC) == (c.is_2ec and len(c.edges) >= 9)
        huge = [c for c in dec.components if c.huge]
        pool = huge or dec.components
        best = max(len(c.vertices) for c in pool)
        want = min(c.cid for c in pool if len(c.vertices) == best)
        assert dec.anchor().cid == want


def reference_bridges_and_blocks(g, edge_subset):
    """The two-pass block decomposition ``CoverDecomposition`` replaced:
    (bridges, blocks) of an edge set, a block being a component of its
    non-bridge edges, self-loops included, found by a BFS from each
    unseen vertex in ascending order."""
    eids = sorted(edge_subset)
    bridges = find_bridges(g, eids)
    adj = [[] for _ in range(g.n)]
    for eid in eids:
        if eid in bridges:
            continue
        u, v = g.edges[eid]
        adj[u].append((v, eid))
        if u != v:
            adj[v].append((u, eid))
    seen = [False] * g.n
    blocks = []
    for s in range(g.n):
        if seen[s] or not adj[s]:
            continue
        verts, edges = {s}, set()
        seen[s] = True
        dq = deque([s])
        while dq:
            x = dq.popleft()
            for y, eid in adj[x]:
                edges.add(eid)
                if not seen[y]:
                    seen[y] = True
                    verts.add(y)
                    dq.append(y)
        blocks.append(Block(verts, edges))
    return bridges, blocks


def walks_one_simple_cycle(g, vs, edges):
    """Whether ``edges`` is one simple cycle through all of ``vs`` (at least
    3), by walking it: every vertex has two distinct neighbours, no edge is
    a loop, and the walk from the smallest vertex returns after |vs| steps."""
    if len(vs) < 3 or len(edges) != len(vs):
        return False
    nbrs = {v: [] for v in vs}
    for e in edges:
        u, v = g.edges[e]
        if u == v:
            return False
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(a) != 2 or a[0] == a[1] for a in nbrs.values()):
        return False
    start = prev = min(vs)
    cur, steps = nbrs[start][0], 1
    while cur != start:
        prev, cur = cur, next(x for x in nbrs[cur] if x != prev)
        steps += 1
    return steps == len(vs)


def reference_cover_decomposition(dec):
    """The per-component build ``CoverDecomposition`` replaced: for each
    component of H, a scan of H for its edges and one
    ``reference_bridges_and_blocks`` pass.  Returns (comp_of_vertex,
    components); tags come from ``dec``'s classifier, which is unchanged."""
    g, h = dec.g, dec.h
    comp_of_vertex, components = {}, []
    for vs in map(set, connected_components(g, h)):
        cid = len(components)
        edges = {eid for eid in h
                 if g.edges[eid][0] in vs and g.edges[eid][1] in vs}
        bridges, blocks = reference_bridges_and_blocks(g, edges)
        blocks.sort(key=lambda b: min(b.vertices))
        is_rich = len(vs) == 1 and not edges and min(vs) in dec.rich_vertices
        is_2ec = bool(not bridges and len(blocks) <= 1 and not is_rich and edges)
        tag = dec._classify(vs, edges, bridges, is_rich, is_2ec)
        components.append(Component(
            cid=cid, vertices=vs, edges=edges, bridges=bridges, blocks=blocks,
            tag=tag, is_2ec=is_2ec, is_rich=is_rich,
            huge=len(vs) >= dec.params.huge_threshold))
        assert components[-1].is_cycle == walks_one_simple_cycle(g, vs, edges)
        for v in vs:
            comp_of_vertex[v] = cid
    return comp_of_vertex, components


def test_decomposition_matches_reference(multigraph_cases):
    """The one-pass build against the per-component one: ``comp_of_vertex``,
    every ``Component`` field and the ordered blocks (vertices, edges), on
    random multigraphs with self-loops, parallel copies and isolated
    vertices, each edge subset with a random set of rich vertices;
    ``is_cycle`` against a walk of the component's edges."""
    rnd = random.Random(6061)
    loop_only = multi_block = cycles = 0
    for g, subsets in multigraph_cases:
        for h in subsets:
            rich = {v for v in range(g.n) if rnd.random() < 0.3}
            dec = CoverDecomposition(g, h, P, rich_vertices=rich)
            comp_of_vertex, components = reference_cover_decomposition(dec)
            assert dec.comp_of_vertex == comp_of_vertex, (g.edges, h)
            assert dec.components == components, (g.edges, h)
            assert dec.bridges == {e for c in components for e in c.bridges}
            for c in components:
                loop_only += sum(
                    1 for b in c.blocks
                    if all(g.edges[e][0] == g.edges[e][1] for e in b.edges))
                multi_block += c.tag == COMPLEX and len(c.blocks) >= 2
                cycles += c.is_cycle
    assert loop_only > 0 and multi_block > 0 and cycles > 0


def cross_edges(view: ComponentGraphView) -> list[tuple[int, int, int]]:
    """(a, b, eid) for every host edge outside H between components a < b,
    in edge-id order, by a scan of the host graph."""
    comp = view.dec.comp_of_vertex
    return [(min(comp[u], comp[v]), max(comp[u], comp[v]), eid)
            for eid, (u, v) in enumerate(view.g.edges)
            if comp[u] != comp[v] and eid not in view.dec.h]


def segment_cycles_through(view: ComponentGraphView, seg: set[int],
                           node: int, max_len: int = 6) -> list[list[int]]:
    """Simple node cycles inside ``seg`` through ``node``; 2-node 'cycles'
    stand for parallel host edges."""
    nodes = sorted(seg)
    adj: dict[int, set[int]] = {x: set() for x in nodes}
    parallel_pairs: dict[tuple[int, int], list[int]] = {}
    for a, b, eid in cross_edges(view):
        if a in seg and b in seg:
            adj[a].add(b)
            adj[b].add(a)
            parallel_pairs.setdefault((a, b), []).append(eid)
    out: list[list[int]] = []
    for (a, b), ids in sorted(parallel_pairs.items()):
        if node in (a, b) and len(ids) >= 2:
            out.append([a, b])

    def dfs(path: list[int], seen: set[int]):
        cur = path[-1]
        for nxt in sorted(adj[cur]):
            if nxt == node and len(path) >= 3:
                out.append(list(path))
            elif nxt not in seen and len(path) < max_len:
                dfs(path + [nxt], seen | {nxt})

    dfs([node], {node})
    dedup = []
    seen_keys = set()
    for cyc in out:
        key = (frozenset(cyc), len(cyc))
        if key in seen_keys:
            continue
        seen_keys.add(key)
        dedup.append(cyc)
    dedup.sort(key=lambda c: (len(c), c))
    return dedup


def _all_segment_cycles(view: ComponentGraphView, seg: set[int],
                        max_len: int) -> list[list[int]]:
    seen: set[tuple] = set()
    out: list[list[int]] = []
    for node in sorted(seg):
        for cyc in segment_cycles_through(view, seg, node, max_len):
            key = (frozenset(cyc), len(cyc))
            if key in seen:
                continue
            seen.add(key)
            out.append(cyc)
    out.sort(key=lambda c: (len(c), c))
    return out


def random_view(rnd):
    """A component-graph view with many nodes: a random host multigraph
    (parallel copies included) under a sparse random cover."""
    n = rnd.randint(4, 14)
    edges = [(rnd.randrange(n), rnd.randrange(n))
             for _ in range(rnd.randint(n, 3 * n))]
    edges += [rnd.choice(edges) for _ in range(rnd.randint(0, n // 2))]
    g = MultiGraph(n, edges)
    h = {e for e in range(g.m) if rnd.random() < 0.15}
    return ComponentGraphView(g, CoverDecomposition(g, h, P))


def test_view_index_matches_edge_scan():
    """``edges_between`` and ``neighbors`` read the index built once; they
    answer what a scan of every node edge gives, on seeded random views."""
    rnd = random.Random(2727)
    for _ in range(300):
        view = random_view(rnd)
        for x in range(view.mg.n):
            assert view.neighbors(x) == sorted(
                {a + b - x for a, b, _ in cross_edges(view) if x in (a, b)})
            for y in range(view.mg.n):
                assert view.edges_between(x, y) == sorted(
                    eid for a, b, eid in cross_edges(view)
                    if (a, b) == (min(x, y), max(x, y)))


def test_segment_cycles_match_reference_dfs():
    """``segment_cycles`` against the per-node DFS and the all-roots wrapper
    it replaced, on 500 seeded random views: every node of a random
    segment (one of three or more nodes when there is one) as ``through``,
    and no ``through``, for ``max_len`` 2..8."""
    rnd = random.Random(1818)
    seen = {"parallel": 0, "shared_set": 0, "cases": 0}
    for _ in range(500):
        view = random_view(rnd)
        g = view.mg
        if not view.segments:
            continue
        seg = rnd.choice([s for s in view.segments if len(s) >= 3]
                         or view.segments)
        for max_len in range(2, 9):
            want = _all_segment_cycles(view, seg, max_len)
            assert segment_cycles(view, seg, max_len) == want
            seen["parallel"] += any(len(c) == 2 for c in want)
            raw = simple_cycles_upto(MultiGraph(
                g.n, [p for p in view.pairs if p[0] in seg and p[1] in seg]),
                max_len)
            seen["shared_set"] += len(raw) > len({frozenset(c) for c in raw})
            for node in sorted(seg):
                assert (segment_cycles(view, seg, max_len, through=node)
                        == segment_cycles_through(view, seg, node, max_len))
                seen["cases"] += 1
    assert min(seen["parallel"], seen["shared_set"]) >= 100, seen
    assert seen["cases"] >= 15000, seen
