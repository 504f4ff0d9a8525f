"""Priority-ordered scan for the structures a reduced instance must not
contain, reported as cut descriptors; empty means the graph is structured
except possibly for contractible subgraphs.  The order is the reduction's
own, ``preprocess.DETECTORS``."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graph import MultiGraph
from .params import StructuredParams
from .preprocess import (DETECTORS, _components_without, _grouping,
                         find_loop_or_parallel)


@dataclass
class CutDescriptor:
    kind: str                      # Vertex1 | LoopOrParallel | IrrelevantEdge |
                                   # Vertex2 | Vertex3 | CycleCut | Vertex4
    vertices: tuple[int, ...] = ()
    sides: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    large: bool = False
    cycle_order: Optional[tuple[int, ...]] = None
    edge: Optional[int] = None
    condition: Optional[int] = None


def _sorted_sides(v1, v2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(v1)), tuple(sorted(v2))


def _describe(kind: str, g: MultiGraph, found) -> CutDescriptor:
    """The descriptor of the witness a detector of this kind returned."""
    if kind == "Vertex1":
        comps = _components_without(g, {found})
        v2 = tuple(sorted(x for c in comps[1:] for x in c))
        return CutDescriptor(kind, (found,), sides=(tuple(comps[0]), v2))
    if kind in ("LoopOrParallel", "IrrelevantEdge"):
        return CutDescriptor(kind, tuple(sorted(set(g.edges[found]))),
                             edge=found)
    if kind == "Vertex2":
        grouping = _grouping(g, set(found), 1)
        return CutDescriptor(kind, found,
                             _sorted_sides(*grouping) if grouping else None)
    if kind == "Vertex4":
        return CutDescriptor(kind, found["cut"],
                             _sorted_sides(found["v1"], found["v2"]),
                             large=True, condition=found["condition"])
    cut, v1, v2 = found                 # Vertex3 or CycleCut
    return CutDescriptor(kind, tuple(sorted(cut)), _sorted_sides(v1, v2),
                         large=True,
                         cycle_order=tuple(cut) if kind == "CycleCut" else None)


def enumerate_cuts(g: MultiGraph, params: StructuredParams) -> list[CutDescriptor]:
    """First violating structure in the reduction's checking order, or []."""
    for kind, find, _apply in DETECTORS:
        if kind == "Contractible":
            continue                    # not a cut
        found = find(g, params)
        if found is not None:
            return [_describe(kind, g, found)]
    return []


def exhaustive_structured_check(g: MultiGraph, params: StructuredParams) -> bool:
    """Independent certificate used in tests: no multi-edges, no vertex cut
    of size <= 4 that the scan would flag, tested over every vertex subset."""
    if find_loop_or_parallel(g) is not None:
        return False
    for size in (1, 2, 3, 4):
        for cut in itertools.combinations(range(g.n), size):
            comps = _components_without(g, set(cut))
            if len(comps) < 2:
                continue
            if size == 1:
                return False
            if size == 2:
                u, v = cut
                if any(g.edges[e] == (min(u, v), max(u, v))
                       for e in range(g.m)):
                    return False        # irrelevant edge
                if not (len(comps) == 2 and min(len(c) for c in comps) == 1):
                    return False        # non-isolating 2-vertex cut
            if size == 3:
                if _grouping(g, set(cut), params.three_cut_side) is not None:
                    return False
            if size == 4:
                # cycle cuts on 4 vertices and condition-1 large 4-cuts
                sub = [e for e in range(g.m)
                       if set(g.edges[e]) <= set(cut) and
                       g.edges[e][0] != g.edges[e][1]]
                deg = {c: 0 for c in cut}
                for e in sub:
                    u, v = g.edges[e]
                    deg[u] += 1
                    deg[v] += 1
                if len(sub) >= 4 and all(d >= 2 for d in deg.values()):
                    if _grouping(g, set(cut), params.ck_side(4)) is not None:
                        return False
                if _grouping(g, set(cut), params.four_cut_side_2) is not None:
                    return False
    return True
