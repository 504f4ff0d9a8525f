"""Exact exponential-time solvers used as ground truth and in the
preprocessing base cases."""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional

from .graph import (MultiGraph, connected_components, find_bridges,
                    is_two_edge_connected)


class NotTwoEdgeConnected(ValueError):
    pass


class TooLarge(ValueError):
    pass


class Infeasible(ValueError):
    pass


DEFAULT_LIMIT = 14
MAX_FREE_EDGES = 26


def _simplify(g: MultiGraph, copies: int = 1) -> list[int]:
    """Edge ids of a skeleton: self-loops dropped, the ``copies`` lowest-id
    edges of each parallel class kept."""
    seen: dict[tuple[int, int], int] = {}
    keep: list[int] = []
    for eid, (u, v) in enumerate(g.edges):
        if u == v or seen.get((u, v), 0) == copies:
            continue
        seen[(u, v)] = seen.get((u, v), 0) + 1
        keep.append(eid)
    return keep


def _forced_edges(g: MultiGraph, pool: list[int]) -> set[int]:
    """Edges incident to a degree-2 vertex (w.r.t. the pool) are in every
    solution that needs degree >= 2 everywhere."""
    deg = [0] * g.n
    for eid in pool:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    forced: set[int] = set()
    for eid in pool:
        u, v = g.edges[eid]
        if deg[u] <= 2 or deg[v] <= 2:
            forced.add(eid)
    return forced


def _two_ec_on(g: MultiGraph, eids: Iterable[int]) -> bool:
    eids = list(eids)
    deg = [0] * g.n
    for eid in eids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg) and g.n > 1:
        return False
    comps = connected_components(g, eids)
    if len(comps) != 1:
        return False
    return not find_bridges(g, eids)


def _search(g: MultiGraph, pool: list[int], forced: set[int], free: list[int],
            leaf_ok: Callable[[list[int]], bool], exhausted: str,
            node_budget: int) -> Optional[set[int]]:
    """Smallest ``leaf_ok`` subset of ``pool`` that contains ``forced``, by
    branch and bound over ``free`` (include first, in list order).

    Each node does O(1) bookkeeping.  ``need`` is the total degree deficit
    sum(max(0, 2 - deg[v])), and every included edge lowers it by at most 2,
    which gives the bound.  ``slack[v]`` is deg[v] plus the undecided edges
    at v; a node is infeasible once some slack is below 2.  Including an
    edge leaves every slack unchanged and excluding it lowers two, so only
    the exclude step can make a node infeasible, and only at its endpoints.
    """
    best: Optional[set[int]] = None
    best_size = len(pool) + 1
    if leaf_ok(pool):
        best = set(pool)
        best_size = len(pool)

    chosen = sorted(forced)
    deg = [0] * g.n
    for eid in chosen:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    ends = [g.edges[eid] for eid in free]
    slack = list(deg)
    for u, v in ends:
        slack[u] += 1
        slack[v] += 1
    nodes = 0

    def rec(i: int, need: int, feasible: bool) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > node_budget:
            raise TooLarge(exhausted)
        size = len(chosen)
        if size + (need + 1) // 2 >= best_size:
            return
        if i == len(free):
            if need == 0 and leaf_ok(chosen):
                best = set(chosen)
                best_size = size
            return
        if not feasible:
            return
        u, v = ends[i]
        # include first: with ids ascending this explores lexicographically
        lifted = (deg[u] < 2) + (deg[v] < 2)
        deg[u] += 1
        deg[v] += 1
        chosen.append(free[i])
        rec(i + 1, need - lifted, True)
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        slack[u] -= 1
        slack[v] -= 1
        rec(i + 1, need, slack[u] >= 2 and slack[v] >= 2)
        slack[u] += 1
        slack[v] += 1

    rec(0, sum(max(0, 2 - d) for d in deg), all(s >= 2 for s in slack))
    return best


def exact_min_2ecss(g: MultiGraph, limit: int = DEFAULT_LIMIT,
                    node_budget: int = 4_000_000) -> set[int]:
    """Minimum-cardinality 2EC spanning subgraph by branch and bound.

    Edges incident to degree-2 vertices are forced up front, so sparse
    instances well beyond ``limit`` vertices still solve quickly; the hard
    cap is the number of free (unforced) edges.

    The search runs on the simple skeleton first.  Only when that has no
    2EC spanning subgraph does it run again with two copies per parallel
    class: a minimal 2ECSS never needs a third copy.
    """
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnected(f"{g} is not 2-edge-connected")
    if g.n == 1:
        return set()
    if g.n == 2:
        ids = [eid for eid, (u, v) in enumerate(g.edges) if u != v]
        if len(ids) < 2:
            raise NotTwoEdgeConnected("two vertices need two parallel edges")
        return set(ids[:2])

    pool = _simplify(g)
    while True:
        forced = _forced_edges(g, pool)
        free = [e for e in pool if e not in forced]
        if g.n > limit and len(free) > MAX_FREE_EDGES:
            raise TooLarge(f"n={g.n} with {len(free)} free edges exceeds the oracle cap")
        best = _search(g, pool, forced, free, lambda eids: _two_ec_on(g, eids),
                       "oracle search budget exhausted", node_budget)
        if best is not None:
            return best
        wider = _simplify(g, copies=2)
        if len(wider) == len(pool):     # no parallel copy left to add
            break
        pool = wider
    raise NotTwoEdgeConnected("no 2EC spanning subgraph found")


def _cover_ok(g: MultiGraph, forbidden: frozenset[int], eids: list[int]) -> bool:
    """Every vertex has degree >= 2 in ``eids`` and no component is a cycle
    whose length is in ``forbidden``."""
    deg = [0] * g.n
    for eid in eids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg):
        return False
    if forbidden:
        comps = connected_components(g, eids)
        edge_count: dict[int, int] = {}
        comp_of = [0] * g.n
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        for eid in eids:
            edge_count[comp_of[g.edges[eid][0]]] = \
                edge_count.get(comp_of[g.edges[eid][0]], 0) + 1
        for ci, comp in enumerate(comps):
            k = len(comp)
            if k in forbidden and edge_count.get(ci, 0) == k \
                    and all(deg[v] == 2 for v in comp):
                return False
    return True


def exact_min_cover(g: MultiGraph, forbidden: frozenset[int] | set[int] = frozenset(),
                    limit: int = DEFAULT_LIMIT,
                    node_budget: int = 4_000_000) -> set[int]:
    """Minimum edge set giving every vertex degree >= 2 such that no
    connected component is a cycle of a forbidden length (subset of {3,4}).
    Self-loops are never used; a parallel pair may be."""
    forbidden = frozenset(forbidden)
    if not forbidden <= {3, 4}:
        raise ValueError("forbidden lengths must be within {3, 4}")
    # a minimum cover never holds a third copy of an edge: dropping it keeps
    # both ends at degree >= 2 and leaves no cycle component behind
    pool = _simplify(g, copies=2)
    deg_all = [0] * g.n
    for eid in pool:
        u, v = g.edges[eid]
        deg_all[u] += 1
        deg_all[v] += 1
    if any(d < 2 for d in deg_all):
        raise Infeasible("a vertex has degree below 2 in the host graph")

    forced = _forced_edges(g, pool)
    free = [e for e in pool if e not in forced]
    if g.n > limit and len(free) > MAX_FREE_EDGES:
        raise TooLarge(f"n={g.n} with {len(free)} free edges exceeds the oracle cap")

    best = _search(g, pool, forced, free, lambda eids: _cover_ok(g, forbidden, eids),
                   "cover search budget exhausted", node_budget)
    if best is None:
        raise Infeasible("no feasible cover under the forbidden-cycle rule")
    return best


def max_removable_inside(g: MultiGraph, inside_edges: list[int]) -> int:
    """Largest |F|, F a subset of ``inside_edges``, with G - F still 2EC."""
    from itertools import combinations
    all_ids = set(range(g.m))
    for size in range(len(inside_edges), -1, -1):
        for comb in combinations(inside_edges, size):
            if _two_ec_on(g, all_ids - set(comb)):
                return size
    return 0


def is_alpha_contractible(g: MultiGraph, component_edges: set[int],
                          alpha: Fraction) -> bool:
    """True iff every 2ECSS of G keeps at least |E(C)|/alpha edges with both
    endpoints inside V(C).

    The minimum number of inside edges over all 2ECSS equals
    |E(G[V(C)])| - max{|F| : F inside, G - F 2EC}.
    """
    if not component_edges:
        raise ValueError("component must have at least one edge")
    verts: set[int] = set()
    for eid in component_edges:
        u, v = g.edges[eid]
        verts.add(u)
        verts.add(v)
    if not is_two_edge_connected(_induced(g, verts, component_edges), None):
        raise NotTwoEdgeConnected("candidate component is not 2EC")
    inside = [eid for eid, (u, v) in enumerate(g.edges)
              if u in verts and v in verts and u != v]
    removable = max_removable_inside(g, inside)
    min_inside = len(inside) - removable
    return Fraction(min_inside) >= Fraction(len(component_edges)) / alpha


def _induced(g: MultiGraph, verts: set[int], eids: set[int]) -> MultiGraph:
    order = sorted(verts)
    idx = {v: i for i, v in enumerate(order)}
    edges = [(idx[g.edges[e][0]], idx[g.edges[e][1]]) for e in sorted(eids)]
    return MultiGraph(len(order), edges)


def minimal_2ecss_witness(g: MultiGraph, h: set[int]) -> bool:
    """True if no single edge of h can be removed keeping 2EC spanning."""
    for eid in sorted(h):
        if _two_ec_on(g, h - {eid}):
            return False
    return True
