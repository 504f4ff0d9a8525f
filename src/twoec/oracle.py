"""Exact exponential-time solvers used as ground truth and in the
preprocessing base cases."""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional

from .graph import (MultiGraph, degrees, is_two_edge_connected,
                    two_edge_classes)


class NotTwoEdgeConnected(ValueError):
    pass


class TooLarge(ValueError):
    pass


class Infeasible(ValueError):
    pass


# The vertex cap of the structured sub-solves (the small side of a large
# 4-vertex cut, MANY's pendant parts): ``exact_min_2ecss`` with this limit
# refuses a graph on more vertices with more than MAX_FREE_EDGES free edges.
STRUCTURED_LIMIT = 14
MAX_FREE_EDGES = 26
# the nodes an exact search visits before it raises ``TooLarge``
NODE_BUDGET = 4_000_000


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
    deg = degrees(g, pool)
    forced: set[int] = set()
    for eid in pool:
        u, v = g.edges[eid]
        if deg[u] <= 2 or deg[v] <= 2:
            forced.add(eid)
    return forced


def _two_ec_on(g: MultiGraph, eids: Iterable[int]) -> bool:
    eids = list(eids)
    if g.n > 1 and any(d < 2 for d in degrees(g, eids)):
        return False
    return is_two_edge_connected(g, eids)


# A cut's test runs only while at least CUT_MIN_LEFT edges are undecided:
# below that the subtree is too small to repay it.  In the search, each BFS
# of the 2EC cut gives up, keeping the node, once it has reached
# CUT_MAX_REACH vertices.
CUT_MIN_LEFT = 8
CUT_MAX_REACH = 8

# A cut reads H through (adj, live, slack), see ``_search``, and gives the
# test prune(u, v) for an exclude step, or None when it can never fire.
Adjacency = list[list[tuple[int, int]]]
Prune = Callable[[int, int], bool]
Cut = Callable[[Adjacency, bytearray, list[int]], Optional[Prune]]


def _bridge_cut(max_reach: Optional[int]) -> Cut:
    """The 2EC cut: prune when the excluded edge's ends u, v are left with
    no two edge-disjoint paths in H.  Then one edge at most separates them,
    so no subset of H is 2EC.  It is a unit flow of two augmentations: a BFS
    path from the end whose slack is 2, then a BFS of the residual graph,
    which walks a path edge only back against its flow.

    Each BFS gives up, keeping the node, once it has reached ``max_reach``
    vertices.  Uncapped (None), the test is exact on a 2EC H: H - e is 2EC
    iff (u, v) is not pruned.  If f is a bridge of H - e, it was not one of
    H, so e crosses f's cut and f alone separates u from v; and an edge
    that alone separates u from v in the connected H - e is a bridge."""
    def cut(adj: Adjacency, live: bytearray, slack: list[int]) -> Prune:
        # a BFS that has reached all n vertices has reached t
        cap = len(adj) if max_reach is None else max_reach

        def reach(s: int, t: int, head: dict[int, int]) -> Optional[dict]:
            """BFS from s over the live edges, an edge of ``head`` only from
            the end it names: {vertex: (parent, edge)} once t is reached,
            None if t is unreachable, {} once ``cap`` vertices are."""
            par: dict = {s: None}
            queue = [s]
            for x in queue:
                for w, eid in adj[x]:
                    if live[eid] and w not in par and head.get(eid, x) == x:
                        par[w] = (x, eid)
                        if w == t:
                            return par
                        queue.append(w)
                if len(par) >= cap:
                    return {}
            return None

        def prune(u: int, v: int) -> bool:
            if slack[u] != 2:
                u, v = v, u
            par = reach(u, v, {})
            if not par:
                return par is None
            head: dict[int, int] = {}
            x = v
            while x != u:
                parent, eid = par[x]
                head[eid] = x           # the flow runs parent -> x
                x = parent
            return reach(u, v, head) is None

        return prune

    return cut


def _cycle_cut(forbidden: frozenset[int]) -> Cut:
    """The cover cut for ``forbidden``: prune when an end of the excluded
    edge has live degree 2 and the walk from it through live-degree-2
    vertices closes a cycle of a forbidden length.  That cycle is a whole
    component of H, so every leaf needs all its edges and keeps it as a
    forbidden component.  Only a vertex on a forbidden-length cycle of H's
    edges when the cut is built can start one; with none, there is no cut."""
    longest = max(forbidden, default=0)

    def cut(adj: Adjacency, live: bytearray, slack: list[int]) -> Optional[Prune]:
        nbrs = [{w for w, _ in ws} for ws in adj]

        def on_cycle(s: int) -> bool:
            for a in nbrs[s]:
                if 3 in forbidden and nbrs[a] & nbrs[s]:
                    return True
                if 4 in forbidden and any(nbrs[c] & nbrs[s] - {a}
                                          for c in nbrs[a] if c != s):
                    return True
            return False

        starts = [on_cycle(s) for s in range(len(adj))]
        if not any(starts):
            return None

        def prune(u: int, v: int) -> bool:
            for s in (u, v):
                if not starts[s] or slack[s] != 2:
                    continue
                for w, e in adj[s]:
                    if live[e]:
                        break
                length = 1
                while w != s and slack[w] == 2 and length < longest:
                    for x, f in adj[w]:     # w's other live edge
                        if live[f] and f != e:
                            break
                    w, e = x, f
                    length += 1
                if w == s and length in forbidden:
                    return True
            return False

        return prune

    return cut


def _live_graph(g: MultiGraph, eids: Iterable[int]
                ) -> tuple[Adjacency, bytearray, list[int]]:
    """A cut's view of the non-loop edges of ``eids``, all live: adjacency
    lists, live flags and live degrees."""
    adj: Adjacency = [[] for _ in range(g.n)]
    live = bytearray(g.m)
    deg = [0] * g.n
    for eid in eids:
        u, v = g.edges[eid]
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
            live[eid] = 1
            deg[u] += 1
            deg[v] += 1
    return adj, live, deg


def greedy_deletion(g: MultiGraph, kept: set[int], order: Iterable[int],
                    drop: Optional[Cut]) -> set[int]:
    """Drop from ``kept``, in place and in ``order``, each edge whose loss
    leaves ``kept`` a leaf; returns ``kept``.  ``kept`` must be a leaf to
    start with (a spanning 2EC set, or a feasible cover without self-loops)
    and ``order`` a sequence of its edges.

    The pass makes no whole-set test.  It builds the adjacency of ``kept``
    once, with degrees that count no self-loop, and decides each edge
    locally:
    - a self-loop is dropped: the 2EC test ignores loops;
    - an edge with an end of degree 2 is kept: a leaf needs degree >= 2 at
      every vertex;
    - any other edge e = (u, v) is marked dead, and live again when the
      ``drop`` cut prunes (u, v).  With ``drop`` None it is always dropped.
    Each verdict is the whole-set test's, by induction on the drops:
    - 2EC, ``drop`` = ``_bridge_cut(None)``: exact on a 2EC set (see there).
    - Covers, ``drop`` = ``_cycle_cut(forbidden)``, None when ``forbidden``
      is empty.  The degree rule keeps every degree at 2 or more, and every
      component of kept - e that avoids u and v was one of kept, so a new
      forbidden-cycle component passes through u or v.  The cut's walk from
      that end, of degree 2, closes it, and its starts, the vertices on a
      forbidden-length cycle of ``kept``, include every vertex on one of a
      subset.  With ``forbidden`` empty, every degree-allowed drop keeps a
      cover."""
    adj, live, deg = _live_graph(g, kept)
    prune = None if drop is None else drop(adj, live, deg)
    for eid in order:
        u, v = g.edges[eid]
        if u == v:
            kept.discard(eid)
            continue
        if 2 in (deg[u], deg[v]):
            continue
        live[eid] = 0
        deg[u] -= 1
        deg[v] -= 1
        if prune is not None and prune(u, v):
            live[eid] = 1
            deg[u] += 1
            deg[v] += 1
        else:
            kept.discard(eid)
    return kept


class _Optimal(Exception):
    """Raised inside ``_search`` when it accepts a leaf of the floor's size."""


def _search(g: MultiGraph, pool: list[int], forced: set[int], free: list[int],
            leaf_ok: Callable[[Iterable[int]], bool], exhausted: str,
            node_budget: int, floor: int, drop: Optional[Cut],
            cut: Optional[Cut] = None) -> Optional[set[int]]:
    """Smallest ``leaf_ok`` subset of ``pool`` that contains ``forced``, by
    branch and bound over ``free`` (include first, in list order).

    ``pool`` itself is tested once, and None returned at once when it is no
    leaf: then no subset is one.  A superset of a spanning 2EC set is 2EC,
    and a superset S of a feasible cover T is a feasible cover, since a
    forbidden-cycle component of S has only degree-2 vertices, so T, with
    degree >= 2 everywhere, holds all of its edges and nothing else at its
    vertices, and has it as a component too.

    Each node does O(1) bookkeeping.  ``need`` is the total degree deficit
    sum(max(0, 2 - deg[v])), and every included edge lowers it by at most 2,
    which gives the bound.  ``slack[v]`` is deg[v] plus the undecided edges
    at v; a node is infeasible once some slack is below 2.  Including an
    edge leaves every slack unchanged and excluding it lowers two, so only
    the exclude step can make a node infeasible, and only at its endpoints.

    A ``cut`` adds a feasibility test on H, the chosen plus the undecided
    edges, so that ``slack`` is the live degree in H.  H is kept as
    adjacency lists over the pool in which an excluded edge is marked dead,
    and live again on backtrack.  ``_bridge_cut`` (for 2ECSS) prunes when H
    can no longer be 2EC, ``_cycle_cut`` (for covers) when H has a forbidden
    cycle as a component.  Either prunes only a node whose subtree has no
    feasible leaf, so the incumbents, and the set returned, are those of the
    search without it: the search visits a subset of its nodes.  That makes
    skipping a test sound too, so the test is gated: it runs on an exclude
    step that leaves both ends with slack >= 2 and one at exactly 2, with at
    least CUT_MIN_LEFT edges still undecided, when the bound has not
    already cut the node.

    The bound starts from a greedy incumbent I: ``greedy_deletion`` walks
    ``free`` in descending id order (``forced`` is never tried) and drops
    each edge whose loss leaves a leaf, which the cut ``drop`` decides
    exactly.  The search then starts with no best set and ``best_size`` =
    |I| + 1.  Since OPT <= |I| < ``best_size``, the bound cuts no subtree
    that holds the first optimum in search order, and only a strictly
    smaller leaf replaces the best, so the set returned is the one an
    unseeded search returns.  ``best_size`` is never above the unseeded
    search's, so the search visits a subset of its nodes and never newly
    exhausts the budget.  When nothing could be dropped, the pool itself is
    the incumbent, as without the seed: a one-vertex pool is a leaf whose
    ``need`` stays 2, so the search could not reach it as a leaf.

    The search stops at ``floor``, a size below which there is no leaf: it
    ends once it accepts a leaf of that size, raising ``_Optimal`` and
    catching it.  That leaf is the first optimum in search order, which the
    full search also returns, since only a strictly smaller leaf replaces
    the best; so the answer is the same and the nodes are a prefix of the
    full search's.  The test runs only at an accepted leaf, so a node costs
    nothing more.  On a seed-1 round of the benchmark's ``reduce_exchange``
    suite the cover searches, floored by ``cover_floor``, visit 81,506
    nodes against 394,258 without the stop, most of which only proved the
    answer optimal.
    """
    if not leaf_ok(pool):
        return None
    best: Optional[set[int]] = None
    greedy = greedy_deletion(g, set(pool), sorted(free, reverse=True), drop)
    if len(greedy) < len(pool):
        best_size = len(greedy) + 1
    else:
        best, best_size = greedy, len(pool)

    chosen = sorted(forced)
    deg = degrees(g, chosen)
    ends = [g.edges[eid] for eid in free]
    slack = degrees(g, chosen + free)
    prune: Optional[Prune] = None
    if cut is not None and len(free) > CUT_MIN_LEFT:
        adj, live, _ = _live_graph(g, pool)
        prune = cut(adj, live, slack)
    last = len(free) - CUT_MIN_LEFT     # the cut's test needs i < last
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
                if size <= floor:
                    raise _Optimal
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
        if prune is None:
            rec(i + 1, need, slack[u] >= 2 and slack[v] >= 2)
        else:
            live[free[i]] = 0
            # the child stops at once if this bound fails; the cut runs past it
            ok = (slack[u] >= 2 and slack[v] >= 2
                  and not ((slack[u] == 2 or slack[v] == 2) and i < last
                           and size + (need + 1) // 2 < best_size
                           and prune(u, v)))
            rec(i + 1, need, ok)
            live[free[i]] = 1
        slack[u] += 1
        slack[v] += 1

    try:
        rec(0, sum(max(0, 2 - d) for d in deg), all(s >= 2 for s in slack))
    except _Optimal:
        pass
    assert best is not None
    return best


def exact_min_2ecss(g: MultiGraph, limit: Optional[int] = None,
                    node_budget: int = NODE_BUDGET) -> set[int]:
    """Minimum-cardinality 2EC spanning subgraph by branch and bound.

    Edges incident to degree-2 vertices are forced up front.  With a
    ``limit``, a graph on more than ``limit`` vertices with more than
    MAX_FREE_EDGES free (unforced) edges raises ``TooLarge``; without one,
    only ``node_budget`` stops the search.

    The search runs on the simple skeleton when that is 2EC, and otherwise,
    without a search of the skeleton, on two copies per parallel class: a
    minimal 2ECSS never needs a third copy.  It prunes with the 2EC cut
    (``_bridge_cut``), and its greedy incumbent drops edges by the same
    test, uncapped.  It stops at the first leaf of n edges, a floor the
    degree bound already implies, so no flow is run for it.
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
        if limit is not None and g.n > limit and len(free) > MAX_FREE_EDGES:
            raise TooLarge(f"n={g.n} with {len(free)} free edges exceeds the oracle cap")
        best = _search(g, pool, forced, free, lambda eids: _two_ec_on(g, eids),
                       "oracle search budget exhausted", node_budget, g.n,
                       _bridge_cut(None), _bridge_cut(CUT_MAX_REACH))
        if best is not None:
            return best
        # the pool is not 2EC: widen it
        wider = _simplify(g, copies=2)
        if len(wider) == len(pool):     # no parallel copy left to add
            break
        pool = wider
    raise NotTwoEdgeConnected("no 2EC spanning subgraph found")


def _cover_ok(g: MultiGraph, forbidden: frozenset[int], eids: Iterable[int]) -> bool:
    """Every vertex has degree >= 2 in ``eids`` and no component is a cycle
    whose length is in ``forbidden``.

    Such a component has only degree-2 vertices, so it is found by walking
    from each degree-2 vertex through degree-2 vertices, at most
    max(forbidden) steps: a walk that closes is a whole component.  Lengths
    in ``forbidden`` are at least 2 (a parallel pair); a lone self-loop is
    never one."""
    deg = [0] * g.n
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in eids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
        if u != v:
            nbrs[u].append((v, eid))
            nbrs[v].append((u, eid))
    if any(d < 2 for d in deg):
        return False
    if not forbidden:
        return True
    longest = max(forbidden)
    walked = [False] * g.n
    for s in range(g.n):
        if walked[s] or deg[s] != 2 or not nbrs[s]:
            continue
        walked[s] = True
        v, e = nbrs[s][0]
        length = 1
        while v != s and deg[v] == 2 and length < longest:
            # v has two non-loop ends: it was entered along one of them
            walked[v] = True
            a, b = nbrs[v]
            v, e = b if a[1] == e else a
            length += 1
        if v == s and length in forbidden:
            return False
    return True


def cover_floor(g: MultiGraph, pool: Iterable[int]) -> int:
    """2n - floor(F/2), a lower bound on the size of every 2-edge cover
    (degree >= 2 at each vertex) made of non-loop edges of ``pool``.

    F is a maximum flow in the bipartite double cover of those edges: edge
    uv gives arcs u -> v' and v -> u' of capacity 1, and each vertex has
    capacity 2 on both sides.  A 2-matching M (degree <= 2 everywhere)
    gives a flow of 2|M|, so F/2 >= nu_2, the size of a largest one.  And a
    cover C has at least 2n - nu_2 edges (a Gallai-type identity): drop the
    edges of C whose ends both have degree >= 3 while there are any, then
    d - 2 edges at each vertex of degree d > 2; no edge is dropped twice, so
    what is left is a 2-matching of 2n - |C| edges or more.

    The flow starts greedy and grows by augmenting paths, one vertex at a
    time: when a vertex has no augmenting path, it never gets one later."""
    arcs: list[tuple[int, int]] = []
    for eid in pool:
        u, v = g.edges[eid]
        if u != v:
            arcs += [(u, v), (v, u)]
    out: list[list[int]] = [[] for _ in range(g.n)]     # arcs leaving u
    into: list[list[int]] = [[] for _ in range(g.n)]    # arcs with flow into w'
    load = [0] * g.n                                    # flow leaving u
    for a, (u, w) in enumerate(arcs):
        out[u].append(a)
        if load[u] < 2 and len(into[w]) < 2:
            load[u] += 1
            into[w].append(a)
    for s in range(g.n):
        while load[s] < 2:
            # a BFS over the left side: an idle arc x -> w' ends the path
            # when w' has room, and otherwise leads back along w''s flow
            par: dict[int, Optional[tuple[int, int]]] = {s: None}
            end = None
            queue = [s]
            for x in queue:
                for a in out[x]:
                    w = arcs[a][1]
                    if a in into[w]:
                        continue
                    if len(into[w]) < 2:
                        end = a
                        break
                    for b in into[w]:
                        if arcs[b][0] not in par:
                            par[arcs[b][0]] = (a, b)
                            queue.append(arcs[b][0])
                if end is not None:
                    break
            if end is None:
                break
            a = end
            while True:                 # flow onto the path's idle arcs
                into[arcs[a][1]].append(a)
                step = par[arcs[a][0]]
                if step is None:
                    break
                a, b = step             # and off its flowing ones
                into[arcs[b][1]].remove(b)
            load[s] += 1
    return 2 * g.n - sum(load) // 2


def exact_min_cover(g: MultiGraph, forbidden: frozenset[int] | set[int] = frozenset(),
                    node_budget: int = NODE_BUDGET) -> set[int]:
    """Minimum edge set giving every vertex degree >= 2 such that no
    connected component is a cycle of a forbidden length (subset of {3,4}).
    Self-loops are never used; a parallel pair may be.  The search prunes
    with the forbidden-cycle cut (``_cycle_cut``) and stops at the first
    cover of ``cover_floor``'s size.  Where the floor is the optimum, as on
    the planted gadgets ``cycle8`` and ``vertex2_both_large`` (84 and 40
    edges, with {3} forbidden), that is the first optimum the search meets:
    they take 1,477 and 35,243 nodes, against 1,071,637 and 185,955 to also
    prove it optimal."""
    forbidden = frozenset(forbidden)
    if not forbidden <= {3, 4}:
        raise ValueError("forbidden lengths must be within {3, 4}")
    # a minimum cover never holds a third copy of an edge: dropping it keeps
    # both ends at degree >= 2 and leaves no cycle component behind
    pool = _simplify(g, copies=2)
    if any(d < 2 for d in degrees(g, pool)):
        raise Infeasible("a vertex has degree below 2 in the host graph")

    forced = _forced_edges(g, pool)
    free = [e for e in pool if e not in forced]
    cycle_cut = _cycle_cut(forbidden) if forbidden else None
    best = _search(g, pool, forced, free, lambda eids: _cover_ok(g, forbidden, eids),
                   "cover search budget exhausted", node_budget,
                   cover_floor(g, pool), cycle_cut, cycle_cut)
    if best is None:
        raise Infeasible("no feasible cover under the forbidden-cycle rule")
    return best


def max_removable_inside(g: MultiGraph, inside_edges: list[int],
                         target: Optional[Fraction] = None) -> int:
    """Largest |F|, F a subset of ``inside_edges``, with G - F still 2EC.

    The edges outside, B, are always kept, so each 2EC class of B (a
    component of B minus its bridges) can be contracted: G - F is 2EC iff its
    quotient is.  An inside edge within one class is always removable; the
    fewest crossing inside edges to keep come from the branch and bound on
    the quotient, whose only other edges are B's bridges.

    With a ``target`` for that kept count, a 2EC G with fewer than
    ``target`` crossing inside edges keeps fewer than ``target`` whatever
    the search finds, so the search is skipped and the lower bound
    |inside| - |crossing| returned instead.

    The search runs without the 2EC cut: on these small quotients the cut
    saved no nodes worth its cost, and building H alone slowed them.  Its
    floor is the quotient's vertex count, which a 2EC spanning set on two
    or more vertices reaches, and 0 on one vertex."""
    inside = set(inside_edges)
    outside = [eid for eid in range(g.m) if eid not in inside]
    bridges, cls, nclasses = two_edge_classes(g, outside)
    kept_outside = sorted(bridges)
    crossing = [eid for eid in sorted(inside)
                if cls[g.edges[eid][0]] != cls[g.edges[eid][1]]]
    quotient = MultiGraph(nclasses,
                          [(cls[g.edges[eid][0]], cls[g.edges[eid][1]])
                           for eid in kept_outside + crossing])
    pool = list(range(quotient.m))
    if not _two_ec_on(quotient, pool):     # then no subset is 2EC either
        return 0
    if target is not None and len(crossing) < target:
        return len(inside) - len(crossing)
    forced = set(pool[:len(kept_outside)])
    free = pool[len(kept_outside):]
    kept = _search(quotient, pool, forced, free,
                   lambda eids: _two_ec_on(quotient, eids),
                   "removable-edge search budget exhausted",
                   2 ** (len(free) + 2), quotient.n if quotient.n > 1 else 0,
                   _bridge_cut(None))
    return len(inside) - (len(kept) - len(forced))


def minimal_2ecss_witness(g: MultiGraph, h: set[int]) -> bool:
    """True if no single edge of h can be removed keeping 2EC spanning.

    A non-2EC h has no 2EC subset.  On a 2EC h, the greedy pass with the
    uncapped 2EC cut (one adjacency of h, an exact local test per edge)
    drops an edge iff one is removable: every test before its first drop
    is a test on h itself."""
    if not _two_ec_on(g, h):
        return True
    return len(greedy_deletion(g, set(h), sorted(h), _bridge_cut(None))) == len(h)
