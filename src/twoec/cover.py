"""Minimum triangle-free 2-edge covers and their canonical form.

``canonicalize`` runs the bounded exchange loop: swap up to two cover edges
for at most as many non-cover edges whenever that strictly reduces the
measure (|H|, #components, #bridges, #cut vertices inside 2EC components).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import oracle
from .decomp import (C4, COMPLEX, CYCLE_TAGS, LARGE2EC, BlockTree,
                     CoverDecomposition)
from .graph import MultiGraph, connected_components
from .params import StructuredParams


class CoverError(ValueError):
    pass


@dataclass
class CanonicalReport:
    clauses: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def ok_except_huge(self) -> bool:
        return all(v for k, v in self.clauses.items() if k != "huge_component")


def min_triangle_free_cover(g: MultiGraph, mode: str = "exact",
                            limit: int = oracle.DEFAULT_LIMIT) -> tuple[set[int], bool]:
    """Returns (edge set, certified).  Exact mode delegates to the oracle;
    heuristic mode strips removable edges and patches triangle components."""
    if mode == "exact":
        return oracle.exact_min_cover(g, {3}, limit=limit), True
    # a self-loop never helps cover a vertex: drop loops before counting
    h = {eid for eid, (u, v) in enumerate(g.edges) if u != v}
    deg = [0] * g.n
    for eid in h:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
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

def _is_triangle_free_cover(g: MultiGraph, h: set[int]) -> bool:
    deg = [0] * g.n
    for eid in h:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg):
        return False
    comps = connected_components(g, h)
    for comp in comps:
        if len(comp) != 3:
            continue
        cs = set(comp)
        ce = sum(1 for e in h if g.edges[e][0] in cs and g.edges[e][1] in cs)
        if ce == 3 and all(deg[v] == 2 for v in cs):
            return False
    return True


def _measure(g: MultiGraph, h: set[int]) -> tuple[int, int, int, int]:
    """(|H|, #components, #bridges, #cut vertices of bridgeless components).

    One iterative lowpoint DFS over H.  It skips only the parent *edge id*,
    so a parallel copy of a tree edge is a back edge and never a bridge.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in h:
        u, v = g.edges[eid]
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    disc = [-1] * g.n
    low = [0] * g.n
    is_cut = [False] * g.n
    counter = itertools.count()
    ncomp = nbridges = ncut = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        ncomp += 1
        disc[root] = low[root] = next(counter)
        children = bridges = cuts = 0
        # stack holds (vertex, parent edge, neighbour iterator)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, pe, it = stack[-1]
            for w, eid in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = next(counter)
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    break
                parent = stack[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] > disc[parent]:
                    bridges += 1
                if parent == root:
                    children += 1
                elif low[v] >= disc[parent] and not is_cut[parent]:
                    is_cut[parent] = True
                    cuts += 1
        nbridges += bridges
        if not bridges:
            ncut += cuts + (children >= 2)
    return (len(h), ncomp, nbridges, ncut)


def _feasible_adds(g: MultiGraph, deg: list[int], incident: list[list[int]],
                   removed: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The add sets for an exchange that removes ``removed`` (one or two
    cover edges) which keep every end of a removed edge at degree >= 2.

    Candidates are the pool edges at an end of a removed edge, ascending;
    at most ``len(removed)`` of them are added.  Singles come first, then
    pairs in ``itertools.combinations`` order, so this yields exactly the
    full scan's add sets that pass the degree test, in the full scan's
    order.  ``deg`` is the degree in H and ``incident[v]`` lists the pool
    edges at v, ascending.
    """
    left: dict[int, int] = {}
    for er in removed:
        for v in g.edges[er]:
            left[v] = left.get(v, deg[v]) - 1
    need = {v: 2 - d for v, d in left.items() if d < 2}
    # an added edge is no self-loop, so it lifts at most two ends by one
    if sum(need.values()) > 2 * len(removed):
        return
    if not need:
        cand = sorted({e for v in left for e in incident[v]})
        yield from ((e,) for e in cand)
        if len(removed) == 2:
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
    if len(removed) == 1:
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


def canonicalize(g: MultiGraph, h: set[int], params: StructuredParams,
                 max_steps: Optional[int] = None) -> tuple[set[int], CoverDecomposition, int]:
    """Exchange loop; returns (H, decomposition, steps taken)."""
    if not _is_triangle_free_cover(g, h):
        raise CoverError("input is not a triangle-free 2-edge cover")
    h = set(h)
    if max_steps is None:
        max_steps = max(1, g.m) * max(1, g.n) ** 2
    cur = _measure(g, h)
    steps = 0
    deg = [0] * g.n
    for eid in h:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1

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
        if not _is_triangle_free_cover(g, h2):
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
    while improved and steps < max_steps:
        improved = False
        hs = sorted(h)
        # F_R of size 1, F_A empty: drop a redundant edge
        for er in hs:
            if try_apply((er,), ()):
                improved = True
                break
        if improved:
            continue
        # F_R of size 1 or 2, F_A of at most as many edges touching its ends
        incident: list[list[int]] = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if e not in h and u != v:
                incident[u].append(e)
                incident[v].append(e)
        for removed in itertools.chain(((er,) for er in hs),
                                       itertools.combinations(hs, 2)):
            if any(try_apply(removed, add)
                   for add in _feasible_adds(g, deg, incident, removed)):
                improved = True
                break
    dec = CoverDecomposition(g, h, params)
    return h, dec, steps


def c4_merge_witness(g: MultiGraph, dec: CoverDecomposition
                     ) -> Optional[tuple[int, int, tuple, tuple]]:
    """Two C4 components mergeable into a C8 by a 2-out/2-in exchange."""
    c4s = [c for c in dec.components if c.tag == C4]
    pairs = g.simple_pairs()

    def gedge(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in pairs

    for i in range(len(c4s)):
        for j in range(i + 1, len(c4s)):
            a, b = c4s[i], c4s[j]
            ac, bc = a.cycle_order, b.cycle_order
            for x in range(4):
                a1, a2 = ac[x], ac[(x + 1) % 4]
                for y in range(4):
                    b1, b2 = bc[y], bc[(y + 1) % 4]
                    if (gedge(a1, b1) and gedge(a2, b2)) or \
                       (gedge(a1, b2) and gedge(a2, b1)):
                        return (a.cid, b.cid, (a1, a2), (b1, b2))
    return None


def is_canonical(g: MultiGraph, h: set[int], params: StructuredParams,
                 rich_vertices: Optional[set[int]] = None,
                 weak: bool = False) -> CanonicalReport:
    """Clause-by-clause canonicality verdicts; ``weak`` permits isolated rich
    vertices (degree-0) instead of requiring the full cover property."""
    dec = CoverDecomposition(g, h, params, rich_vertices)
    rep = CanonicalReport()
    rep.clauses["two_edge_cover"] = dec.is_two_edge_cover(allow_rich=weak)
    bad_comp = None
    for comp in dec.components:
        if comp.is_rich:
            continue
        if comp.tag == COMPLEX:
            continue
        if comp.tag in CYCLE_TAGS:
            continue
        if comp.tag == LARGE2EC:
            continue
        bad_comp = sorted(comp.vertices)
        break
    rep.clauses["non_complex_shape"] = bad_comp is None
    if bad_comp:
        rep.witnesses["non_complex_shape"] = bad_comp

    bad_pendant = None
    bad_nonpendant = None
    for comp in dec.components:
        if comp.tag != COMPLEX:
            continue
        tree = BlockTree(g, comp)
        pend = set(tree.pendant_blocks())
        for ni, node in enumerate(tree.nodes):
            if node["kind"] != "block":
                continue
            blk = node["block"]
            if ni in pend:
                from .credit import is_nice_c5_block
                if len(blk.vertices) >= 6 or is_nice_c5_block(g, dec, comp, blk):
                    continue
                bad_pendant = sorted(blk.vertices)
            else:
                if len(blk.edges) < 5:
                    bad_nonpendant = sorted(blk.vertices)
    rep.clauses["pendant_blocks"] = bad_pendant is None
    if bad_pendant:
        rep.witnesses["pendant_blocks"] = bad_pendant
    rep.clauses["non_pendant_blocks"] = bad_nonpendant is None
    if bad_nonpendant:
        rep.witnesses["non_pendant_blocks"] = bad_nonpendant

    merge = c4_merge_witness(g, dec)
    rep.clauses["no_mergeable_c4_pair"] = merge is None
    if merge:
        rep.witnesses["no_mergeable_c4_pair"] = merge

    rep.clauses["huge_component"] = any(c.huge for c in dec.components)
    return rep
