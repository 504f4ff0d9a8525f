"""Minimum triangle-free 2-edge covers and their canonical form.

``canonicalize`` runs the bounded exchange loop: swap up to two cover edges
for at most as many non-cover edges whenever that strictly reduces the
measure (|H|, #components, #bridges, #cut vertices inside 2EC components).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import oracle
from .decomp import C4, COMPLEX, CYCLE_TAGS, BlockTree, CoverDecomposition
from .graph import (MultiGraph, biconnected_components, connected_components,
                    find_bridges)
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
    h = set(range(g.m))
    deg = [0] * g.n
    for u, v in g.edges:
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
            if u == v or deg[u] > 2 and deg[v] > 2:
                if u == v:
                    h.discard(eid)
                    changed = True
                    continue
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

    A cut vertex of a connected graph is a vertex in two or more of its
    biconnected components, so one lowpoint pass counts them all.
    """
    comps = connected_components(g, h)
    bridges = find_bridges(g, h)
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    bridged = {comp_of[g.edges[e][0]] for e in bridges}
    blocks_at = [0] * g.n
    for block in biconnected_components(g, h):
        for v in block:
            blocks_at[v] += 1
    # a vertex in two blocks has a component of 3 or more vertices
    cutv = sum(1 for v in range(g.n)
               if blocks_at[v] >= 2 and comp_of[v] not in bridged)
    return (len(h), len(comps), len(bridges), cutv)


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

    def candidates(removed: tuple[int, ...]) -> list[int]:
        """Pool edges touching an end of a removed edge, ascending."""
        return sorted({e for er in removed for v in g.edges[er] for e in incident[v]})

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
        # F_R size 1, F_A size 1
        incident: list[list[int]] = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if e not in h and u != v:
                incident[u].append(e)
                incident[v].append(e)
        for er in hs:
            if any(try_apply((er,), (ea,)) for ea in candidates((er,))):
                improved = True
                break
        if improved:
            continue
        # F_R size 2, F_A up to 2 touching the removed endpoints
        for er1, er2 in itertools.combinations(hs, 2):
            cand = candidates((er1, er2))
            if any(try_apply((er1, er2), (ea1,)) for ea1 in cand) or \
                    any(try_apply((er1, er2), pair)
                        for pair in itertools.combinations(cand, 2)):
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
        if comp.is_2ec and len(comp.edges) >= 9:
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

    rep.clauses["huge_component"] = any(
        len(c.vertices) >= params.huge_threshold for c in dec.components)
    return rep
