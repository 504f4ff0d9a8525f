"""The canonical-form clauses of a cover, checked one by one.

``is_canonical`` reports, clause by clause, whether a cover has the shape
that ``cover.canonicalize`` aims for; the tests use it to check the
exchange loop's fixed points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from twoec.credit import is_nice_c5_block
from twoec.decomp import (C4, COMPLEX, CYCLE_TAGS, LARGE2EC, BlockTree,
                          CoverDecomposition)
from twoec.graph import MultiGraph
from twoec.params import StructuredParams


@dataclass
class CanonicalReport:
    clauses: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def ok_except_huge(self) -> bool:
        return all(v for k, v in self.clauses.items() if k != "huge_component")


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
            for a1, a2 in (g.edges[e] for e in sorted(a.edges)):
                for b1, b2 in (g.edges[e] for e in sorted(b.edges)):
                    if (gedge(a1, b1) and gedge(a2, b2)) or \
                       (gedge(a1, b2) and gedge(a2, b1)):
                        return (a.cid, b.cid, (a1, a2), (b1, b2))
    return None


def is_two_edge_cover(dec: CoverDecomposition, allow_rich: bool) -> bool:
    """Every vertex has degree at least 2 in the cover; ``allow_rich``
    excepts the rich vertices of degree 0."""
    deg = [0] * dec.g.n
    for eid in dec.h:
        for v in dec.g.edges[eid]:
            deg[v] += 1
    return all(d >= 2 or (allow_rich and d == 0 and v in dec.rich_vertices)
               for v, d in enumerate(deg))


def is_canonical(g: MultiGraph, h: set[int], params: StructuredParams,
                 rich_vertices: Optional[set[int]] = None,
                 weak: bool = False) -> CanonicalReport:
    """Clause-by-clause canonicality verdicts; ``weak`` permits isolated rich
    vertices (degree-0) instead of requiring the full cover property."""
    dec = CoverDecomposition(g, h, params, rich_vertices)
    rep = CanonicalReport()
    rep.clauses["two_edge_cover"] = is_two_edge_cover(dec, weak)
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
