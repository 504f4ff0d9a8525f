"""Multigraph representation and the structural queries used across the solver.

Vertices are dense integers 0..n-1.  Edges are indexed by position in the edge
list; parallel edges and self-loops are allowed.  Contraction keeps edge ids:
edge i of a contracted graph is edge i of the graph it came from.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Optional


class GraphError(ValueError):
    pass


class MultiGraph:
    """Undirected multigraph with stable edge identities.

    ``edges[i]`` is an unordered pair (u, v); ``origin``, when a builder
    sets it, lists the parent edge id of each edge (None for a dummy edge).
    """

    __slots__ = ("n", "edges", "origin", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            self.edges.append((u, v) if u <= v else (v, u))
        self.origin: Optional[list[Optional[int]]] = None
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

def degrees(g: MultiGraph, eids: Iterable[int]) -> list[int]:
    """Degree of every vertex in the edges ``eids``; a self-loop counts
    twice."""
    deg = [0] * g.n
    edges = g.edges
    for eid in eids:
        u, v = edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def _subset_adj(g: MultiGraph, eids: Iterable[int]) -> list[list[tuple[int, int]]]:
    """Adjacency lists of (neighbor, edge_id) over ``eids``, self-loops
    dropped; ``eids`` is read once."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    edges = g.edges
    for eid in eids:
        u, v = edges[eid]
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    return adj


def connected_components(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None,
                         skip_vertices: Optional[set[int]] = None) -> list[list[int]]:
    """Components over the (possibly restricted) edge set; isolated vertices
    form their own components.  ``skip_vertices`` are removed entirely.
    Components come in order of their smallest vertex, each one sorted."""
    adj = g.adj() if edge_subset is None else _subset_adj(g, edge_subset)
    seen = [False] * g.n
    for v in skip_vertices or ():
        seen[v] = True                  # removed: never a component
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        dq = deque([s])
        while dq:
            x = dq.popleft()
            for y, _ in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    dq.append(y)
        comps.append(sorted(comp))
    return comps


def find_bridges(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> set[int]:
    """Bridge edge ids, from the lowpoint DFS of ``two_edge_classes``;
    parallel edges and self-loops are never bridges."""
    return two_edge_classes(g, range(g.m) if edge_subset is None else edge_subset)[0]


def lowpoint_forest(g: MultiGraph, eids: Optional[Iterable[int]] = None,
                    skip: Iterable[int] = ()
                    ) -> tuple[list[int], list[int], list[int], list[int],
                               list[int], list[int]]:
    """(order, parent, pedge, disc, low, end) of one iterative lowpoint DFS
    over the edge set ``eids`` (every edge when None) of G - skip.

    ``order`` is the preorder, roots ascending, so every tree and every
    subtree is a contiguous run of it; ``disc[v]`` is v's position there and
    ``end[v]``, set when v is popped, one past its subtree, which is
    ``order[disc[v]:end[v]]``.  A root has ``parent`` and ``pedge`` -1.  The
    DFS skips only the tree edge itself, by id, so a parallel copy of it is
    a back edge; self-loops change nothing.  A removed vertex is in no tree
    and has ``disc`` and ``end`` n."""
    adj = g.adj() if eids is None else _subset_adj(g, eids)
    n = g.n
    disc = [-1] * n
    end = [n] * n
    for v in skip:
        disc[v] = n                     # removed: never reached, never low
    low = [0] * n
    parent = [-1] * n
    pedge = [-1] * n
    order: list[int] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = len(order)
        order.append(root)
        # stack holds (vertex, edge to its DFS parent, neighbour iterator)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, pe, it = stack[-1]
            for w, eid in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    parent[w], pedge[w] = v, eid
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                end[v] = len(order)
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
    return order, parent, pedge, disc, low, end


def is_two_edge_connected(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> bool:
    """Connected and bridge-free; self-loops are ignored.  The 1-vertex graph
    counts as 2EC (contracted instances may collapse to a point).

    One iterative lowpoint DFS from vertex 0 that stops at the first bridge;
    ``edge_subset`` is read once.  Parallel copies are told apart by edge id,
    so a pair is never a bridge.  This is the exact oracles' leaf test, so
    it keeps its own DFS rather than reading ``lowpoint_forest``: the full
    forest ran 1.58x slower on a mix where half the subsets are not 2EC."""
    n = g.n
    if n <= 1:
        return n == 1
    adj = g.adj() if edge_subset is None else _subset_adj(g, edge_subset)
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    reached = 1
    # stack holds (vertex, edge to its DFS parent, neighbour iterator)
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, pe, it = stack[-1]
        for w, eid in it:
            if eid == pe:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = reached
                reached += 1
                stack.append((w, eid, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[v] > disc[parent]:
                    return False        # pe is a bridge
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return reached == n


def two_edge_classes(g: MultiGraph, eids: Iterable[int]
                     ) -> tuple[set[int], list[int], int]:
    """(bridges, cls, k) of the edge set ``eids``: its bridge ids, and its 2EC
    classes, the components left once the bridges are removed.  ``cls[v]`` is
    v's class in 0..k-1; a vertex on no edge of ``eids`` is a class alone.

    Off ``lowpoint_forest``: the tree edge into v is a bridge when
    low[v] > disc[parent].  In preorder, v starts a new class at a root or
    below a bridge, and otherwise joins its parent's."""
    order, parent, pedge, disc, low, _ = lowpoint_forest(g, eids)
    cls = [0] * g.n
    bridges: set[int] = set()
    k = 0
    for v in order:
        p = parent[v]
        if p != -1 and low[v] <= disc[p]:
            cls[v] = cls[p]
            continue
        if p != -1:
            bridges.add(pedge[v])
        cls[v] = k
        k += 1
    return bridges, cls, k


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def contract(g: MultiGraph, s: set[int]) -> tuple[MultiGraph, list[int]]:
    """Contract vertex set ``s`` into the vertex of its smallest member.

    Returns (graph, vertex_map) where vertex_map[old] = new id; the other
    vertices keep their order.  Edge ids are kept: edge i of the result is
    edge i of ``g``, and edges inside ``s`` become self-loops.  The result
    carries no origin tags.
    """
    if not s:
        raise GraphError("cannot contract the empty set")
    if not all(0 <= v < g.n for v in s):
        raise GraphError("contraction set out of range")
    first = min(s)
    vmap = [-1] * g.n
    nxt = 0
    for v in range(g.n):
        if v in s and v != first:
            vmap[v] = vmap[first]
        else:
            vmap[v] = nxt
            nxt += 1
    return MultiGraph(nxt, [(vmap[u], vmap[v]) for u, v in g.edges]), vmap


# ---------------------------------------------------------------------------
# biconnected decomposition (segments of the component graph)
# ---------------------------------------------------------------------------

def biconnected_components(g: MultiGraph, edge_subset: Optional[Iterable[int]] = None) -> list[set[int]]:
    """Vertex sets of the biconnected components; parallel edges make a pair
    biconnected, self-loops are ignored.  Isolated vertices are skipped.

    Off ``lowpoint_forest``: a child v with low[v] >= disc[parent] heads a
    block, which is its parent plus every vertex whose nearest head is v."""
    order, parent, _, disc, low, _ = lowpoint_forest(g, edge_subset)
    head = [-1] * g.n
    blocks: dict[int, set[int]] = {}
    for v in order:
        p = parent[v]
        if p == -1:
            continue
        if low[v] >= disc[p]:
            head[v] = v
            blocks[v] = {p, v}
        else:
            head[v] = head[p]
            blocks[head[v]].add(v)
    return list(blocks.values())


# ---------------------------------------------------------------------------
# simple cycle enumeration (bounded length)
# ---------------------------------------------------------------------------

def simple_cycles_upto(g: MultiGraph, max_len: int,
                       limit: Optional[int] = None,
                       through: Optional[int] = None) -> list[list[int]]:
    """Vertex sequences of simple cycles with 3..max_len vertices.

    Each cycle is reported once, rooted at its smallest vertex with the
    smaller second vertex first (canonical orientation).  With ``through``
    set, only the cycles through that vertex are reported, each rooted
    there in the same orientation.

    The paths from each root are pruned by distance: one BFS per root, over
    the vertices a path from it may use, gives dist[w], and w extends a path
    only when len(path) + dist[w] <= max_len.  Any cycle closed below w has
    at least that many vertices, so a pruned branch reports nothing and the
    list, its order and where ``limit`` cuts it are those of the unpruned
    depth-first search.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.simple_pairs():
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    out: list[list[int]] = []
    for root in range(g.n) if through is None else (through,):
        low = root if through is None else -1
        # dist[w] from root over the vertices above low, capped at max_len:
        # at the cap w is too far, or not reached, and never extends a path
        dist = [max_len] * g.n
        dist[root] = 0
        level = [root]
        for d in range(1, max_len):
            reached = []
            for v in level:
                for w in adj[v]:
                    if w > low and dist[w] == max_len:
                        dist[w] = d
                        reached.append(w)
            level = reached
        stack = [(root, [root], {root})]
        while stack:
            v, path, onpath = stack.pop()
            room = max_len - len(path)
            for w in adj[v]:
                if w == root and len(path) >= 3:
                    if path[1] < path[-1]:
                        out.append(list(path))
                        if limit is not None and len(out) >= limit:
                            return out
                elif dist[w] <= room and w not in onpath:
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
