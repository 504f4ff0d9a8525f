"""Multigraph representation and the structural queries used across the solver.

Vertices are dense integers 0..n-1.  Edges are indexed by position in the edge
list; parallel edges and self-loops are allowed.  Contraction produces a new
graph whose edges carry origin tags pointing back at the ancestor edge ids.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    pass


class MultiGraph:
    """Undirected multigraph with stable edge identities.

    ``edges[i]`` is an unordered pair (u, v); ``origin[i]`` optionally names
    the edge id this edge had before a contraction.
    """

    __slots__ = ("n", "edges", "origin", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 origin: Optional[Sequence[Optional[int]]] = None):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            self.edges.append((u, v) if u <= v else (v, u))
        if origin is not None:
            if len(origin) != len(self.edges):
                raise GraphError("origin tag list length mismatch")
            self.origin = list(origin)
        else:
            self.origin = None
        self._adj = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[tuple[int, int]]]:
        """Adjacency lists of (neighbor, edge_id); self-loops appear once."""
        if self._adj is None:
            a: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for eid, (u, v) in enumerate(self.edges):
                if u == v:
                    a[u].append((u, eid))
                else:
                    a[u].append((v, eid))
                    a[v].append((u, eid))
            self._adj = a
        return self._adj

    def degree(self, v: int) -> int:
        """Degree counting self-loops twice."""
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def simple_pairs(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v in self.edges if u != v}

    def edge_ids_between(self, u: int, v: int) -> list[int]:
        if u > v:
            u, v = v, u
        return [i for i, e in enumerate(self.edges) if e == (u, v)]

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# connectivity primitives
# ---------------------------------------------------------------------------

def connected_components(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None,
                         skip_vertices: Optional[set[int]] = None) -> list[list[int]]:
    """Components over the (possibly restricted) edge set; isolated vertices
    form their own components.  ``skip_vertices`` are removed entirely."""
    skip = skip_vertices or set()
    adj: list[list[int]] = [[] for _ in range(g.n)]
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


def is_connected(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None,
                 skip_vertices: Optional[set[int]] = None) -> bool:
    skip = skip_vertices or set()
    want = g.n - len(skip)
    if want <= 0:
        return True
    comps = connected_components(g, edge_subset, skip)
    return len(comps) == 1


def find_bridges(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> set[int]:
    """Bridge edge ids via iterative lowpoint DFS; parallel edges and
    self-loops are never bridges."""
    eids = list(range(g.m)) if edge_subset is None else list(edge_subset)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in eids:
        u, v = g.edges[eid]
        if u == v:
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * g.n
    low = [0] * g.n
    bridges: set[int] = set()
    counter = itertools.count()
    for root in range(g.n):
        if disc[root] != -1 or not adj[root]:
            continue
        # stack holds (vertex, parent_edge, iterator index)
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
            else:
                if pe != -1:
                    u, w2 = g.edges[pe]
                    parent = w2 if (u == v) else u
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add(pe)
    return bridges


def is_two_edge_connected(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> bool:
    """Connected and bridge-free; self-loops are ignored.  The 1-vertex graph
    counts as 2EC (contracted instances may collapse to a point)."""
    if g.n == 1:
        return True
    if g.n == 0:
        return False
    if not is_connected(g, edge_subset):
        return False
    return not find_bridges(g, edge_subset)


@dataclass
class BlockDecomposition:
    """Bridges plus maximal 2EC subgraphs ('blocks') of an edge set.

    ``block_of_vertex[v]`` is the block index of v or -1 for lonely vertices
    (vertices incident only to bridges) and vertices outside the edge set.
    """
    bridges: set[int]
    blocks: list[dict]                 # each: {"vertices": set, "edges": set}
    block_of_vertex: dict[int, int]


def bridges_and_blocks(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> BlockDecomposition:
    eids = list(range(g.m)) if edge_subset is None else sorted(edge_subset)
    bridges = find_bridges(g, eids)
    non_bridge = [e for e in eids if e not in bridges]
    # components of the bridge-free remainder that carry at least one edge
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in non_bridge:
        u, v = g.edges[eid]
        adj[u].append((v, eid))
        if u != v:
            adj[v].append((u, eid))
    seen = [False] * g.n
    blocks: list[dict] = []
    block_of_vertex: dict[int, int] = {}
    for s in range(g.n):
        if seen[s] or not adj[s]:
            continue
        verts = {s}
        edges: set[int] = set()
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
        idx = len(blocks)
        blocks.append({"vertices": verts, "edges": edges})
        for v in verts:
            block_of_vertex[v] = idx
    return BlockDecomposition(bridges=bridges, blocks=blocks,
                              block_of_vertex=block_of_vertex)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def contract(g: MultiGraph, s: set[int]) -> tuple[MultiGraph, list[int]]:
    """Contract vertex set ``s`` into one vertex.

    Returns (graph, vertex_map) where vertex_map[old] = new id.  Edges keep
    their relative order; origin[i] is the ancestor edge id.  Edges inside
    ``s`` become self-loops and are kept.
    """
    if not s:
        raise GraphError("cannot contract the empty set")
    if not all(0 <= v < g.n for v in s):
        raise GraphError("contraction set out of range")
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
    new_edges = []
    new_origin = []
    for eid, (u, v) in enumerate(g.edges):
        new_edges.append((vmap[u], vmap[v]))
        new_origin.append(g.origin[eid] if g.origin is not None else eid)
    return MultiGraph(nxt, new_edges, new_origin), vmap


def contract_many(g: MultiGraph, groups: list[set[int]]) -> tuple[MultiGraph, list[int]]:
    """Contract several disjoint vertex groups at once."""
    group_of = [-1] * g.n
    for i, grp in enumerate(groups):
        for v in grp:
            if group_of[v] != -1:
                raise GraphError("contraction groups overlap")
            group_of[v] = i
    vmap = [-1] * g.n
    nxt = 0
    assigned: dict[int, int] = {}
    for v in range(g.n):
        gi = group_of[v]
        if gi == -1:
            vmap[v] = nxt
            nxt += 1
        elif gi in assigned:
            vmap[v] = assigned[gi]
        else:
            assigned[gi] = nxt
            vmap[v] = nxt
            nxt += 1
    new_edges = []
    new_origin = []
    for eid, (u, v) in enumerate(g.edges):
        new_edges.append((vmap[u], vmap[v]))
        new_origin.append(g.origin[eid] if g.origin is not None else eid)
    return MultiGraph(nxt, new_edges, new_origin), vmap


# ---------------------------------------------------------------------------
# biconnected decomposition (segments of the component graph)
# ---------------------------------------------------------------------------

def biconnected_components(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> list[set[int]]:
    """Vertex sets of the biconnected components; parallel edges make a pair
    biconnected, self-loops are ignored.  Isolated vertices are skipped."""
    eids = list(range(g.m)) if edge_subset is None else list(edge_subset)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in eids:
        u, v = g.edges[eid]
        if u == v:
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * g.n
    low = [0] * g.n
    comps: list[set[int]] = []
    counter = itertools.count()
    estack: list[tuple[int, int]] = []
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
                    estack.append((v, w))
                    disc[w] = low[w] = next(counter)
                    stack.append((w, eid, 0))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                if pe != -1:
                    u, w2 = g.edges[pe]
                    parent = w2 if (u == v) else u
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        comp: set[int] = set()
                        while estack:
                            a, b = estack[-1]
                            if disc[a] >= disc[v]:
                                comp.update((a, b))
                                estack.pop()
                            else:
                                break
                        # the tree edge parent-v itself
                        if estack and estack[-1] == (parent, v):
                            estack.pop()
                        comp.update((parent, v))
                        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# simple cycle enumeration (bounded length)
# ---------------------------------------------------------------------------

def simple_cycles_upto(g: MultiGraph, max_len: int,
                       limit: Optional[int] = None) -> list[list[int]]:
    """Vertex sequences of simple cycles with 3..max_len vertices.

    Each cycle is reported once, rooted at its smallest vertex with the
    smaller second vertex first (canonical orientation).
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.simple_pairs():
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    out: list[list[int]] = []
    for root in range(g.n):
        stack = [(root, [root], {root})]
        while stack:
            v, path, onpath = stack.pop()
            for w in adj[v]:
                if w == root and len(path) >= 3:
                    if path[1] < path[-1]:
                        out.append(list(path))
                        if limit is not None and len(out) >= limit:
                            return out
                elif w > root and w not in onpath and len(path) < max_len:
                    stack.append((w, path + [w], onpath | {w}))
    return out


def path_edge_ids(g: MultiGraph, path: list[int]) -> Optional[tuple[int, ...]]:
    """Edge ids realizing a vertex path, lowest id per hop; None if broken."""
    out = []
    for a, b in zip(path, path[1:]):
        ids = g.edge_ids_between(a, b)
        if not ids:
            return None
        out.append(ids[0])
    return tuple(out)


def ham_path_exists(g: MultiGraph, vertices: set[int], u: int, v: int) -> Optional[list[int]]:
    """Hamiltonian u-v path inside the induced subgraph, or None."""
    if u == v or u not in vertices or v not in vertices:
        return None
    pairs = {(a, b) for a, b in g.simple_pairs()
             if a in vertices and b in vertices}
    adj: dict[int, list[int]] = {x: [] for x in vertices}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    for a in adj:
        adj[a].sort()
    target_len = len(vertices)

    def rec(x: int, path: list[int], seen: set[int]) -> Optional[list[int]]:
        if len(path) == target_len:
            return path if x == v else None
        for y in adj[x]:
            if y in seen:
                continue
            if y == v and len(path) + 1 < target_len:
                continue
            r = rec(y, path + [y], seen | {y})
            if r is not None:
                return r
        return None

    return rec(u, [u], {u})
