"""Structural decomposition of a 2-edge cover: components, blocks, bridges,
classification tags, and the contracted component graph with its segments."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graph import (MultiGraph, biconnected_components, connected_components,
                    degrees, simple_cycles_upto, two_edge_classes)
from .params import StructuredParams

# classification tags
C4, C5, C6, C7, C8 = "C4", "C5", "C6", "C7", "C8"
LARGE2EC = "Large2EC"
COMPLEX = "Complex"
RICH = "RichVertex"
OTHER = "Other"

CYCLE_TAGS = {C4: 4, C5: 5, C6: 6, C7: 7, C8: 8}


@dataclass
class Block:
    vertices: set[int]
    edges: set[int]

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass
class Component:
    cid: int
    vertices: set[int]
    edges: set[int]
    bridges: set[int]
    blocks: list[Block]
    tag: str
    is_2ec: bool
    is_rich: bool = False
    huge: bool = False

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    @property
    def is_cycle(self) -> bool:
        """A simple cycle: connected and bridgeless with as many edges as
        vertices, at least 3."""
        return self.is_2ec and len(self.edges) == len(self.vertices) >= 3


def cover_edge(g: MultiGraph, comp: Component, u: int, v: int
               ) -> Optional[int]:
    """The first edge of ``comp.edges``, in its iteration order, that joins
    u and v, or None."""
    return next((e for e in comp.edges if set(g.edges[e]) == {u, v}), None)


class CoverDecomposition:
    """Components of an edge subset H of the host graph, with per-component
    blocks, bridges, and classification."""

    def __init__(self, g: MultiGraph, h: set[int], params: StructuredParams,
                 rich_vertices: Optional[set[int]] = None):
        self.g = g
        self.h = set(h)
        self.params = params
        self.rich_vertices = set(rich_vertices or ())
        self._build()

    def _build(self) -> None:
        """One components pass and one bridges-and-2EC-classes pass over H;
        each edge then goes to its component, and to its component's bridges
        or to the block of its ends' 2EC class.  A block is a class holding
        a non-bridge edge; a self-loop belongs to its vertex's class."""
        g, h = self.g, self.h
        comps = connected_components(g, h)
        self.bridges, cls, _ = two_edge_classes(g, sorted(h))
        comp_of = self.comp_of_vertex = {v: cid for cid, comp in enumerate(comps)
                                         for v in comp}
        comp_edges: list[set[int]] = [set() for _ in comps]
        comp_bridges: list[set[int]] = [set() for _ in comps]
        class_edges: dict[int, set[int]] = {}
        for eid in h:
            u = g.edges[eid][0]
            comp_edges[comp_of[u]].add(eid)
            if eid in self.bridges:
                comp_bridges[comp_of[u]].add(eid)
            else:
                class_edges.setdefault(cls[u], set()).add(eid)
        comp_blocks: list[list[Block]] = [[] for _ in comps]
        block_of_class: dict[int, Block] = {}
        for v in range(g.n):            # ascending: blocks by smallest vertex
            if cls[v] not in class_edges:
                continue
            blk = block_of_class.get(cls[v])
            if blk is None:
                blk = block_of_class[cls[v]] = Block(set(), class_edges[cls[v]])
                comp_blocks[comp_of[v]].append(blk)
            blk.vertices.add(v)
        self.components: list[Component] = []
        for cid, comp in enumerate(comps):
            vs, edges, bridges, blocks = (set(comp), comp_edges[cid],
                                          comp_bridges[cid], comp_blocks[cid])
            is_rich = len(vs) == 1 and not edges and comp[0] in self.rich_vertices
            is_2ec = bool(not bridges and len(blocks) <= 1 and not is_rich and edges)
            tag = self._classify(vs, edges, bridges, is_rich, is_2ec)
            self.components.append(Component(
                cid=cid, vertices=vs, edges=edges, bridges=bridges,
                blocks=blocks, tag=tag, is_2ec=is_2ec, is_rich=is_rich,
                huge=len(vs) >= self.params.huge_threshold))

    @staticmethod
    def _classify(vs: set[int], edges: set[int], bridges: set[int],
                  is_rich: bool, is_2ec: bool) -> str:
        """A 2EC component with as many edges as vertices is a simple cycle
        (see ``Component.is_cycle``); C4..C8 get their own tags."""
        if is_rich:
            return RICH
        if bridges:
            return COMPLEX
        if is_2ec and len(edges) == len(vs) and 4 <= len(vs) <= 8:
            return f"C{len(vs)}"
        if is_2ec and len(edges) >= 9:
            return LARGE2EC
        return OTHER

    # -- convenience -------------------------------------------------------

    @property
    def complex_components(self) -> list[Component]:
        return [c for c in self.components if c.tag == COMPLEX]

    def anchor(self) -> Component:
        """The component the others are glued onto: the largest huge
        component, else the largest one; ties go to the lower cid."""
        huge = [c for c in self.components if c.huge]
        return max(huge or self.components,
                   key=lambda c: (len(c.vertices), -c.cid))

    def is_two_edge_cover(self) -> bool:
        """Every vertex has degree >= 2 in H, isolated rich vertices aside."""
        deg = degrees(self.g, self.h)
        for v in range(self.g.n):
            if deg[v] >= 2:
                continue
            if v in self.rich_vertices and deg[v] == 0:
                continue
            return False
        return True

    def c4_edge_count(self) -> int:
        return sum(len(c.edges) for c in self.components if c.tag == C4)


class BlockTree:
    """Tree T_C of a complex component: contract each block to a node; the
    remaining vertices (incident only to bridges) are lonely nodes."""

    def __init__(self, g: MultiGraph, comp: Component):
        self.g = g
        self.comp = comp
        self.nodes: list[dict] = []        # {"kind": "block"|"lonely", ...}
        node_of_vertex: dict[int, int] = {}
        for bi, blk in enumerate(comp.blocks):
            idx = len(self.nodes)
            self.nodes.append({"kind": "block", "block": blk})
            for v in blk.vertices:
                node_of_vertex[v] = idx
        for v in sorted(comp.vertices):
            if v not in node_of_vertex:
                idx = len(self.nodes)
                self.nodes.append({"kind": "lonely"})
                node_of_vertex[v] = idx
        self.node_of_vertex = node_of_vertex
        self.adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for eid in sorted(comp.bridges):
            u, v = g.edges[eid]
            a, b = node_of_vertex[u], node_of_vertex[v]
            self.adj[a].append((b, eid))
            self.adj[b].append((a, eid))

    def is_block(self, node: int) -> bool:
        return self.nodes[node]["kind"] == "block"

    def leaves(self) -> list[int]:
        return [i for i in range(len(self.nodes)) if len(self.adj[i]) == 1]

    def pendant_blocks(self) -> list[int]:
        return [i for i in self.leaves() if self.is_block(i)]

    def tree_path(self, a: int, b: int) -> tuple[list[int], list[int]]:
        """(node path, bridge edge-id path) between tree nodes a and b."""
        prev = {a: (None, None)}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                break
            for y, eid in self.adj[x]:
                if y not in prev:
                    prev[y] = (x, eid)
                    stack.append(y)
        if b not in prev:
            raise ValueError("nodes in different trees")
        nodes = [b]
        eids = []
        cur = b
        while prev[cur][0] is not None:
            eids.append(prev[cur][1])
            cur = prev[cur][0]
            nodes.append(cur)
        return nodes[::-1], eids[::-1]


class ComponentGraphView:
    """Contraction of the host graph by the cover's components, without
    self-loops; segments are its biconnected components.  ``pairs[(a, b)]``
    (a < b) holds the host edge ids between components a and b, ascending,
    and ``nbrs[a]`` the components adjacent to a, ascending."""

    def __init__(self, g: MultiGraph, dec: CoverDecomposition):
        self.g = g
        self.dec = dec
        ncomp = len(dec.components)
        ends: list[tuple[int, int]] = []    # one (a, b) per cross host edge
        self.pairs: dict[tuple[int, int], list[int]] = {}
        for eid, (u, v) in enumerate(g.edges):
            cu, cv = dec.comp_of_vertex[u], dec.comp_of_vertex[v]
            if cu == cv or eid in dec.h:
                continue
            a, b = min(cu, cv), max(cu, cv)
            ends.append((a, b))
            self.pairs.setdefault((a, b), []).append(eid)
        self.nbrs: list[list[int]] = [[] for _ in range(ncomp)]
        for a, b in sorted(self.pairs):     # a node's smaller neighbours first
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        self.mg = MultiGraph(ncomp, ends)
        segs = biconnected_components(self.mg)
        self.segments: list[set[int]] = sorted(segs, key=lambda s: sorted(s))
        seg_count = [0] * ncomp
        for s in self.segments:
            for node in s:
                seg_count[node] += 1
        self.cut_nodes = {i for i in range(ncomp) if seg_count[i] > 1}

    def edges_between(self, a: int, b: int) -> list[int]:
        """Host edge ids running between components a and b, ascending."""
        return self.pairs.get((min(a, b), max(a, b)), [])

    def neighbors(self, node: int) -> list[int]:
        return self.nbrs[node]

    def segments_of(self, node: int) -> list[set[int]]:
        return [s for s in self.segments if node in s]


def instantiate_node_cycle(view: ComponentGraphView, node_cycle: list[int],
                           cap: int = 48):
    """Host-edge tuples realizing a node cycle (bounded enumeration)."""
    hops = []
    k = len(node_cycle)
    for i in range(k):
        a, b = node_cycle[i], node_cycle[(i + 1) % k]
        ids = view.edges_between(a, b)
        if not ids:
            return
        hops.append(ids[:4])
    count = 0
    for combo in itertools.product(*hops):
        if len(set(combo)) != len(combo):
            continue
        yield combo
        count += 1
        if count >= cap:
            return


def segment_cycles(view: ComponentGraphView, seg: set[int], max_len: int,
                   through: Optional[int] = None) -> list[list[int]]:
    """Simple node cycles inside ``seg`` with at most ``max_len`` nodes,
    only those through ``through`` when it is set, sorted by (length,
    sequence).  A node set appears once, as its least sequence from
    ``simple_cycles_upto`` (rooted at ``through``, else at its smallest
    node); a 2-node 'cycle' [a, b] stands for parallel host edges."""
    inside = [(a, b) for a, b in view.pairs if a in seg and b in seg]
    least: dict[frozenset[int], list[int]] = {}
    for cyc in simple_cycles_upto(MultiGraph(view.mg.n, inside), max_len,
                                  through=through):
        key = frozenset(cyc)
        if key not in least or cyc < least[key]:
            least[key] = cyc
    out = list(least.values())
    out += [[a, b] for a, b in inside if len(view.pairs[(a, b)]) >= 2
            and through in (None, a, b)]
    out.sort(key=lambda c: (len(c), c))
    return out
