"""Independent check of a 2ECSS answer.

It shares no code with ``twoec``: it reads the instance as ``n`` and an edge
list, and the answer as a collection of edge ids.  Parallel edges are
distinct edges, so the bridge test works on edge ids, not vertex pairs.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence


def two_ecss_problem(n: int, edges: Sequence[tuple[int, int]],
                     solution: Iterable[int]) -> Optional[str]:
    """Return why ``solution`` is not a 2-edge-connected spanning subgraph
    of the graph (``n`` vertices, ``edges`` indexed by id), or None."""
    sol = list(solution)
    if len(set(sol)) != len(sol):
        return "an edge id repeats"
    for e in sol:
        if not isinstance(e, int) or not 0 <= e < len(edges):
            return f"edge id {e!r} is out of range for m={len(edges)}"
    if n <= 1:
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in sol:
        u, v = edges[e]
        if u != v:
            adj[u].append((v, e))
            adj[v].append((u, e))
    for v in range(n):
        if len(adj[v]) < 2:
            return f"vertex {v} has {len(adj[v])} solution edges"
    bridge = _find_bridge(n, adj)
    if bridge == -1:
        return "the solution does not connect every vertex"
    if bridge is not None:
        return f"solution edge {bridge} is a bridge"
    return None


def _find_bridge(n: int, adj: list[list[tuple[int, int]]]) -> Optional[int]:
    """One bridge's edge id, -1 if the graph is disconnected, None if it is
    connected and bridgeless (iterative Tarjan lowpoints from vertex 0)."""
    disc = [-1] * n
    low = [0] * n
    disc[0] = low[0] = 0
    clock = 1
    # frames: (vertex, edge id used to enter it, next adjacency index)
    stack = [(0, -1, 0)]
    while stack:
        v, via, i = stack.pop()
        if i < len(adj[v]):
            stack.append((v, via, i + 1))
            w, e = adj[v][i]
            if e == via:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, e, 0))
            else:
                low[v] = min(low[v], disc[w])
        elif stack:
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] > disc[parent]:
                return via
    return -1 if clock < n else None
