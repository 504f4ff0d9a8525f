"""Minimum triangle-free 2-edge covers and their canonical form.

``canonicalize`` runs the bounded exchange loop: swap up to two cover edges
for at most as many non-cover edges whenever that strictly reduces the
measure (|H|, #components, #bridges, #cut vertices inside 2EC components).
"""
from __future__ import annotations

import bisect
import itertools
from typing import Iterator

from . import oracle
from .decomp import CoverDecomposition
from .graph import MultiGraph, connected_components, degrees, lowpoint_forest
from .params import StructuredParams


# the cycle length no component of a triangle-free cover may have
TRIANGLE = frozenset({3})


class CoverError(ValueError):
    pass


def min_triangle_free_cover(g: MultiGraph, mode: str = "exact") -> tuple[set[int], bool]:
    """Returns (edge set, certified).  Exact mode delegates to the oracle;
    heuristic mode strips removable edges and patches triangle components."""
    if mode == "exact":
        return oracle.exact_min_cover(g, TRIANGLE), True
    # a self-loop never helps cover a vertex: drop loops before counting
    h = {eid for eid, (u, v) in enumerate(g.edges) if u != v}
    deg = degrees(g, h)
    if any(d < 2 for d in deg):
        raise oracle.Infeasible("host graph has a vertex of degree < 2")

    def triangle_comps(eids: set[int]) -> list[set[int]]:
        comps = connected_components(g, eids)
        out = []
        for comp in comps:
            cs = set(comp)
            ce = [e for e in eids if g.edges[e][0] in cs and g.edges[e][1] in cs]
            if len(cs) == 3 and len(ce) == 3:
                out.append(cs)
        return out

    changed = True
    while changed:
        changed = False
        for eid in sorted(h, reverse=True):
            u, v = g.edges[eid]
            if deg[u] > 2 and deg[v] > 2:
                h2 = h - {eid}
                if not triangle_comps(h2):
                    h = h2
                    deg[u] -= 1
                    deg[v] -= 1
                    changed = True
    # patch any remaining triangle components by the cheapest local swap
    for tri in triangle_comps(h):
        options = []
        for eid in sorted(set(range(g.m)) - h):
            u, v = g.edges[eid]
            if u == v:
                continue
            if (u in tri) != (v in tri):
                options.append(eid)
        if options:
            h.add(options[0])
    certified = len(h) == g.n
    return h, certified


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _measure(g: MultiGraph, h: set[int]) -> tuple[int, int, int, int]:
    """(|H|, #components, #bridges, #cut vertices of bridgeless components).

    Off ``lowpoint_forest`` over H, tree by tree: the tree edge into v is a
    bridge when low[v] > disc[parent], and heads a block at the parent when
    low[v] >= disc[parent].  A root is a cut vertex with two block heads
    below it, any other vertex with one.  In reverse preorder a vertex comes
    after all of its subtree and a root after its whole tree.
    """
    order, parent, _, disc, low, _ = lowpoint_forest(g, h)
    heads = [0] * g.n
    ncomp = nbridges = ncut = 0
    bridges = cuts = 0                  # of the tree being finished
    for v in reversed(order):
        p = parent[v]
        if p == -1:
            ncomp += 1
            nbridges += bridges
            if not bridges:
                ncut += cuts + (heads[v] >= 2)
            bridges = cuts = 0
            continue
        cuts += heads[v] > 0
        if low[v] > disc[p]:
            bridges += 1
        if low[v] >= disc[p]:
            heads[p] += 1
    return (len(h), ncomp, nbridges, ncut)


def _feasible_adds(g: MultiGraph, deg: list[int], incident: list[list[int]],
                   removed: tuple[int, ...], most: int) -> Iterator[tuple[int, ...]]:
    """The add sets of at most ``most`` (1 or 2, at most ``len(removed)``)
    edges for an exchange that removes ``removed`` (one or two cover edges)
    which keep every end of a removed edge at degree >= 2.

    Candidates are the pool edges at an end of a removed edge, ascending.
    Singles come first, then pairs in ``itertools.combinations`` order, so
    this yields exactly the full scan's add sets that pass the degree test,
    in the full scan's order.  ``deg`` is the degree in H and
    ``incident[v]`` lists the pool edges at v, ascending.
    """
    left: dict[int, int] = {}
    for er in removed:
        for v in g.edges[er]:
            left[v] = left.get(v, deg[v]) - 1
    need = {v: 2 - d for v, d in left.items() if d < 2}
    # an added edge is no self-loop, so it lifts at most two ends by one
    if sum(need.values()) > 2 * most:
        return
    if not need:
        cand = sorted({e for v in left for e in incident[v]})
        yield from ((e,) for e in cand)
        if most == 2:
            yield from itertools.combinations(cand, 2)
        return
    # every feasible add set has an edge at the first needy vertex x; short[e]
    # is what is still missing after adding e alone
    x = next(iter(need))
    short: dict[int, list[tuple[int, int]]] = {}
    for e in incident[x]:
        ends = g.edges[e]
        short[e] = rest = []
        for y, k in need.items():
            if y in ends:
                k -= 1
            if k:
                rest.append((y, k))
        if not rest:
            yield (e,)
    if most == 1:
        return
    pairs: set[tuple[int, int]] = set()
    cand: list[int] = []
    for a, rest in short.items():
        if not rest:                # a alone suffices: any second edge goes
            cand = cand or sorted({e for v in left for e in incident[v]})
            partners = cand
        elif len(rest) > 2 or any(r > 1 for _, r in rest):
            continue
        else:
            partners = [b for b in incident[rest[0][0]]
                        if all(y in g.edges[b] for y, _ in rest)]
        pairs.update((min(a, b), max(a, b)) for b in partners if b != a)
    yield from sorted(pairs)


def _removal_pairs(g: MultiGraph, hs: list[int], deg: list[int],
                   incident: list[list[int]], most: int
                   ) -> Iterator[tuple[int, int]]:
    """The pairs of ``itertools.combinations(hs, 2)``, in that order, that
    may have an add set of at most ``most`` edges; every pair for which
    ``_feasible_adds`` yields something is among them.

    For disjoint non-loop edges the ends of H-degree 2 are needy, and each
    added edge lifts at most two needy ends.  With tn needy ends in all, a
    pair is kept when tn <= 2; with two adds allowed, also when tn = 3 and
    the edge with two needy ends has a parallel pool copy, or tn = 4 and
    both have one, or when a pool edge joins a needy end of each edge.
    Pairs that share an end or hold a self-loop are always kept.
    """
    at: list[list[int]] = [[] for _ in range(g.n)]   # positions in hs
    needy: list[list[int]] = []
    # weight: needy ends left after a parallel copy covers both, so a pair
    # needs no cross edge iff its weights sum to <= 2 (a self-loop weighs 0)
    weight: list[int] = []
    for i, e in enumerate(hs):
        u, v = g.edges[e]
        at[u].append(i)
        if u == v:
            needy.append([])
            weight.append(0)
            continue
        at[v].append(i)
        needy.append([y for y in (u, v) if deg[y] == 2])
        w = len(needy[-1])
        if w == 2 and most == 2 and any(
                g.edges[p] in ((u, v), (v, u)) for p in incident[u]):
            w = 1
        weight.append(w)
    light = [[i for i, w in enumerate(weight) if w <= k] for k in range(3)]
    for i, e in enumerate(hs):
        rest = light[2 - weight[i]]
        later = rest[bisect.bisect_right(rest, i):]
        if weight[i]:
            extra = {j for y in g.edges[e] for j in at[y] if j > i}
            if most == 2:
                for x in needy[i]:
                    for p in incident[x]:
                        a, b = g.edges[p]
                        y = b if a == x else a
                        if deg[y] == 2:
                            extra.update(j for j in at[y] if j > i)
            if extra:
                later = sorted(extra.union(later))
        for j in later:
            yield e, hs[j]


def canonicalize(g: MultiGraph, h: set[int],
                 params: StructuredParams) -> tuple[set[int], CoverDecomposition, int]:
    """Exchange loop; returns (H, decomposition, steps taken).

    Candidates are tried in a fixed order and the first that lowers the
    measure is taken.  Skipped are only candidates that cannot lower it:
    every candidate once the measure is (n, 1, 0, 0), below which no
    triangle-free 2-edge cover measures; equal-size swaps while H is
    connected, bridgeless and free of cut vertices; and removal pairs
    without an add set (see ``_removal_pairs``).
    """
    if not oracle._cover_ok(g, TRIANGLE, h):
        raise CoverError("input is not a triangle-free 2-edge cover")
    h = set(h)
    step_cap = max(1, g.m) * max(1, g.n) ** 2
    cur = _measure(g, h)
    floor = (g.n, 1, 0, 0)
    steps = 0
    deg = degrees(g, h)

    def try_apply(remove: tuple[int, ...], add: tuple[int, ...]) -> bool:
        nonlocal h, cur, steps
        # every vertex has degree >= 2 in h, and the pool holds no self-loop,
        # so only an end of a removed edge can drop below 2
        for er in remove:
            for v in g.edges[er]:
                d = deg[v]
                for e in remove:
                    a, b = g.edges[e]
                    d -= (a == v) + (b == v)
                for e in add:
                    if v in g.edges[e]:
                        d += 1
                if d < 2:
                    return False
        h2 = (h - set(remove)) | set(add)
        if not oracle._cover_ok(g, TRIANGLE, h2):
            return False
        m2 = _measure(g, h2)
        if m2 >= cur:
            return False
        h = h2
        cur = m2
        for e in remove:
            u, v = g.edges[e]
            deg[u] -= 1
            deg[v] -= 1
        for e in add:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        steps += 1
        return True

    improved = True
    while improved and steps < step_cap and cur != floor:
        improved = False
        hs = sorted(h)
        # F_R of size 1, F_A empty: drop a redundant edge
        for er in hs:
            if try_apply((er,), ()):
                improved = True
                break
        if improved:
            continue
        # F_R of size 1 or 2, F_A of at most as many edges touching its ends;
        # on a measure (|H|, 1, 0, 0) only |F_A| < |F_R| can lower it, and
        # cur is fixed until the pass's first accepted step ends it
        shrink = cur[1:] == (1, 0, 0)
        incident: list[list[int]] = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if e not in h and u != v:
                incident[u].append(e)
                incident[v].append(e)
        singles = () if shrink else ((er,) for er in hs)
        for removed in itertools.chain(
                singles, _removal_pairs(g, hs, deg, incident, 2 - shrink)):
            if any(try_apply(removed, add) for add in _feasible_adds(
                    g, deg, incident, removed, len(removed) - shrink)):
                improved = True
                break
    dec = CoverDecomposition(g, h, params)
    return h, dec, steps
