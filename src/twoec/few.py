"""Bridge covering with loan repayment and gluing (the low-4-cycle-count
phase).

Every step is an edge exchange committed only through ``apply_candidate``,
FEW's entry to the shared ``exchange.commit``: strictly fewer bridges (or
components), no new bridges, weak canonicity, every ledger invariant, and
cost - loan monotone non-increasing, all in exact rationals.  Each step is
one lazy stream of ``(adds, removes, label)`` candidates in the dispatch
order of the underlying case analysis, and the first one accepted is
committed; if none is, a fallback stream waives the bound (a BoundWaiver)
and keeps the run total.

Dispatch order.  Bridge covering, per complex component with a
bridge-covering path: ``cheap-path``/``path-repay``, ``helper2``-``4``,
``three-paths``, ``nice-c5-exchange``; then ``fallback-path``.  Gluing,
per segment holding the anchor L: for {L, A}, ``trivial-rich`` or
``trivial-large`` alone, else ``cycle-hamiltonian(-reroute)`` per
attachment pair, then ``two-segment-cycle``; for a wider segment,
``nontrivial(-long)-cycle``, then ``cycle-through-c4``.  Then
``fallback-attach`` and ``fallback-any``.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .credit import build_few_ledger
from .decomp import (C4, LARGE2EC, BlockTree, Component, ComponentGraphView,
                     CoverDecomposition, cover_edge, instantiate_node_cycle,
                     segment_cycles)
from .exchange import (ExchangeState, NoProgress, commit,
                       weakly_canonical_enough)
from .graph import MultiGraph, ham_path_exists, path_edge_ids
from .params import FEW_DELTA, StructuredParams


def apply_candidate(state: ExchangeState, adds: Iterable[int],
                    removes: Iterable[int], phase: str, label: str,
                    **flags) -> bool:
    """Validate and commit one exchange under weak canonicity; ``flags`` are
    those of ``exchange.commit``.  True when applied."""
    return commit(state, adds, removes, phase, label, weakly_canonical_enough,
                  **flags)


# ---------------------------------------------------------------------------
# bridge covering
# ---------------------------------------------------------------------------

@dataclass
class BridgePath:
    """A bridge-covering path for a complex component's tree T_C."""
    u: int                     # T_C node index
    v: int
    edge_ids: tuple[int, ...]  # host edges of the path
    br: int                    # bridges on the tree path between u and v
    bl: int                    # block nodes on that path, endpoints included
    covered: tuple[int, ...]   # bridge edge ids covered

    def cheap(self, delta: Fraction) -> bool:
        return (Fraction(1, 4) - delta) * self.br + self.bl - 2 >= 0


class ComponentContext:
    """G_C view for one complex component: blocks of C and every other
    component contracted; T_C spans the blocks and lonely vertices of C."""

    def __init__(self, g: MultiGraph, dec: CoverDecomposition, comp: Component):
        self.g = g
        self.dec = dec
        self.comp = comp
        self.tree = BlockTree(g, comp)
        # nodes: 0..len(tree.nodes)-1 are T_C nodes; then one per other component
        self.tnodes = len(self.tree.nodes)
        self.other_ids: list[int] = [c.cid for c in dec.components
                                     if c.cid != comp.cid]
        self.node_of_comp = {cid: self.tnodes + i
                             for i, cid in enumerate(self.other_ids)}
        # (node, host edge) pairs per node, sorted, for host edges outside H
        # and outside the contraction classes
        self.adj: list[list[tuple[int, int]]] = [
            [] for _ in range(self.tnodes + len(self.other_ids))]
        for eid, (u, v) in enumerate(g.edges):
            if eid in dec.h:
                continue
            a, b = self.node_of_vertex(u), self.node_of_vertex(v)
            if a != b:
                self.adj[a].append((b, eid))
                self.adj[b].append((a, eid))
        for nb in self.adj:
            nb.sort()

    def node_of_vertex(self, v: int) -> int:
        cid = self.dec.comp_of_vertex[v]
        if cid == self.comp.cid:
            return self.tree.node_of_vertex[v]
        return self.node_of_comp[cid]

    def bridge_paths_from(self, u: int) -> dict[int, BridgePath]:
        """Shortest bridge-covering path from T_C node u to every reachable
        T_C node (interior nodes are contracted other-components only)."""
        best: dict[int, BridgePath] = {}
        reached = {u: ()}      # node -> host edges of its BFS path from u
        dq = deque([u])
        while dq:
            x = dq.popleft()
            if x != u and x < self.tnodes:
                continue    # T_C nodes terminate a path
            for y, eid in self.adj[x]:
                if y not in reached:
                    reached[y] = reached[x] + (eid,)
                    dq.append(y)
        for y, path in reached.items():
            if y == u or y >= self.tnodes:
                continue
            nodes, bridge_eids = self.tree.tree_path(u, y)
            bl = sum(1 for n in nodes if self.tree.is_block(n))
            best[y] = BridgePath(u=u, v=y, edge_ids=path,
                                 br=len(bridge_eids), bl=bl,
                                 covered=tuple(bridge_eids))
        return best

    def all_bridge_paths(self) -> list[BridgePath]:
        out = []
        for u in range(self.tnodes):
            for v, bp in sorted(self.bridge_paths_from(u).items()):
                if bp.u < bp.v:
                    out.append(bp)
        # prefer many covered bridges, then short paths, then lexicographic
        out.sort(key=lambda b: (-b.br, len(b.edge_ids), b.edge_ids))
        return out


def _pair_candidates(ctx: ComponentContext, paths: list[BridgePath]):
    """Two-path exchanges in the spirit of the helper lemmas, as (adds,
    removes, label): both paths end in T_C; optionally one shared tree edge
    is removed."""
    tree = ctx.tree
    for p, q in itertools.combinations(paths, 2):
        if set(p.edge_ids) & set(q.edge_ids):
            continue
        shared = set(p.covered) & set(q.covered)
        union_edges = set(p.covered) | set(q.covered)
        nodes_p, _ = tree.tree_path(p.u, p.v)
        nodes_q, _ = tree.tree_path(q.u, q.v)
        adds = p.edge_ids + q.edge_ids
        if set(nodes_p) & set(nodes_q):
            if not shared and len(union_edges) >= 5:
                yield adds, (), "helper2"
        if len(shared) == 1:
            e = next(iter(shared))
            yield adds, (e,), "helper3"
            if len(union_edges) >= 5:
                yield adds, (e,), "helper4"


def _triple_candidates(ctx: ComponentContext, paths: list[BridgePath],
                       target: set[int]):
    """Three disjoint paths covering all target bridges with one or two tree
    edges removed (operations (ii)/(iii) of the two-leaf analysis); removed
    edges may also be covered ones."""
    short = [p for p in paths if p.br <= 7]
    for trio in itertools.combinations(short[:14], 3):
        eids = [set(p.edge_ids) for p in trio]
        if eids[0] & eids[1] or eids[0] & eids[2] or eids[1] & eids[2]:
            continue
        covered = set().union(*(p.covered for p in trio))
        missing = target - covered
        if len(missing) > 2:
            continue
        base = tuple(sorted(missing))
        options = {base}
        pool = sorted(covered | missing)
        if len(missing) <= 1:
            for extra in pool:
                cand = tuple(sorted(set(base) | {extra}))
                if len(cand) <= 2:
                    options.add(cand)
        for rem in sorted(options):
            yield trio, rem


def _nice_c5_exchanges(state: ExchangeState, comp: Component):
    """Matching-based exchanges around a pendant nice C5 block: add two host
    edges leaving the block, drop one block edge and one incident H edge."""
    g, dec = state.g, state.dec
    tree = BlockTree(g, comp)
    for ni in tree.pendant_blocks():
        blk = tree.nodes[ni]["block"]
        if len(blk.vertices) != 5:
            continue
        outs = [eid for eid, (u, v) in enumerate(g.edges)
                if eid not in dec.h and ((u in blk.vertices) != (v in blk.vertices))]
        for e1, e2 in itertools.combinations(outs, 2):
            ends1 = [x for x in g.edges[e1] if x in blk.vertices]
            ends2 = [x for x in g.edges[e2] if x in blk.vertices]
            if not ends1 or not ends2 or ends1 == ends2:
                continue
            rem_pool = sorted(blk.edges) + sorted(
                e for e in comp.bridges
                if any(x in blk.vertices for x in g.edges[e]))
            for r1, r2 in itertools.combinations(rem_pool, 2):
                yield (e1, e2), (r1, r2)


def _first_accepted(state: ExchangeState, candidates, phase: str,
                    **flags) -> bool:
    """Commit the first ``(adds, removes, label)`` of ``candidates`` that
    ``apply_candidate`` accepts under ``flags``; read the stream no further."""
    return any(apply_candidate(state, adds, removes, phase, label, **flags)
               for adds, removes, label in candidates)


def cover_bridges_step(state: ExchangeState) -> bool:
    """One bridge-covering step; True when a bridge was removed."""
    complexes = sorted(state.dec.complex_components,
                       key=lambda c: min(c.vertices))
    if not complexes:
        return False
    listed: list[list[BridgePath]] = []

    def candidates():
        for comp in complexes:
            ctx = ComponentContext(state.g, state.dec, comp)
            paths = ctx.all_bridge_paths()
            listed.append(paths)
            if not paths:
                continue
            for bp in paths:
                yield (bp.edge_ids, (),
                       "cheap-path" if bp.cheap(FEW_DELTA) else "path-repay")
            yield from _pair_candidates(ctx, paths)
            for trio, rem in _triple_candidates(ctx, paths, set(comp.bridges)):
                yield tuple(e for p in trio for e in p.edge_ids), rem, "three-paths"
            for adds, removes in _nice_c5_exchanges(state, comp):
                yield adds, removes, "nice-c5-exchange"

    if _first_accepted(state, candidates(), "bridge_cover",
                       need_fewer_bridges=True):
        return True
    # total fallback: any single bridge-covering path, waiving the bound;
    # nothing was committed above, so the listed paths still hold
    fallback = ((bp.edge_ids, (), "fallback-path")
                for paths in listed for bp in paths)
    if _first_accepted(state, fallback, "bridge_cover", need_fewer_bridges=True,
                       waiver=True, strict_structure=False):
        return True
    raise NoProgress("no bridge-covering step applies")


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def glue_step(state: ExchangeState) -> bool:
    """Merge the segment around the huge component; True on progress."""
    dec = state.dec
    if len(dec.components) <= 1:
        return False
    view = ComponentGraphView(state.g, dec)
    anchor = dec.anchor()
    L = anchor.cid
    candidates = (cand for seg in view.segments_of(L)
                  for cand in (_glue_trivial_segment if len(seg) == 2 else
                               _glue_wide_segment)(state, view, seg, L))
    if _first_accepted(state, candidates, "glue", need_fewer_components=True,
                       need_huge=anchor.huge):
        return True
    if _first_accepted(state, _glue_fallbacks(state, view, L), "glue",
                       need_fewer_components=True, waiver=True,
                       strict_structure=False):
        return True
    raise NoProgress("no gluing step applies")


def _glue_fallbacks(state: ExchangeState, view: ComponentGraphView, L: int):
    """Attach the smallest non-L component to L with two edges; as a last
    resort, any two independent cross edges between two components."""
    g = state.g
    order = sorted((c for c in state.dec.components if c.cid != L),
                   key=lambda c: (len(c.vertices), c.cid))
    for comp in order:
        for pair in itertools.combinations(view.edges_between(L, comp.cid), 2):
            u1 = [x for x in g.edges[pair[0]] if x in comp.vertices][0]
            u2 = [x for x in g.edges[pair[1]] if x in comp.vertices][0]
            if u1 != u2:
                yield pair, (), "fallback-attach"
    for ids in view.pairs.values():
        for pair in itertools.combinations(ids, 2):
            if len({x for e in pair for x in g.edges[e]}) >= 3:
                yield pair, (), "fallback-any"


def _glue_trivial_segment(state: ExchangeState, view: ComponentGraphView,
                          seg: set[int], L: int):
    A = next(x for x in seg if x != L)
    g = state.g
    compA = state.dec.components[A]
    ids = view.edges_between(L, A)
    # rich vertex or large component: two attachment edges suffice
    label = ("trivial-rich" if compA.is_rich else
             "trivial-large" if compA.tag == LARGE2EC else None)
    if label:
        for pair in itertools.combinations(ids, 2):
            ends = {x for e in pair for x in g.edges[e] if x in compA.vertices}
            if compA.is_rich or len(ends) >= 2:
                yield pair, (), label
        return
    # cycle component: good cycle with a Hamiltonian-path exchange
    for pair in itertools.combinations(ids, 2):
        endsA = sorted({x for e in pair for x in g.edges[e] if x in compA.vertices})
        if len(endsA) != 2:
            continue
        u, v = endsA
        # on a cycle, an edge joins u and v exactly when they are adjacent
        join = cover_edge(g, compA, u, v) if compA.is_cycle else None
        if join is not None:
            yield pair, (join,), "cycle-hamiltonian"
        path = ham_path_exists(g, compA.vertices, u, v)
        path_edges = path and path_edge_ids(g, path)
        if path_edges:
            yield (tuple(pair) + path_edges, tuple(sorted(compA.edges)),
                   "cycle-hamiltonian-reroute")
    # pendant C8-style: route through an adjacent segment of A
    for seg2 in view.segments_of(A):
        if seg2 != seg:
            yield from _two_segment_exchange(state, view, L, A, seg2)


def _two_segment_exchange(state: ExchangeState, view: ComponentGraphView,
                          L: int, A: int, seg2: set[int]):
    """Attach L to A and absorb a cycle of A's other segment (handles the
    pendant-C8 and cut-node cases)."""
    g = state.g
    compA = state.dec.components[A]
    idsLA = view.edges_between(L, A)
    for cyc in segment_cycles(view, seg2, 4, through=A):
        for combo in instantiate_node_cycle(view, cyc):
            for rem_extra in _cycle_removals_few(state, cyc, combo, skip={A}):
                for pair in itertools.combinations(idsLA, 2):
                    endsA = {x for e in pair for x in g.edges[e]
                             if x in compA.vertices}
                    if len(endsA) < 2:
                        continue
                    adds = tuple(pair) + combo
                    # one A-cycle edge may be dropped when a cycle edge and an
                    # attachment meet adjacent vertices of A
                    for remA in _removal_options_for_node(state, A, adds):
                        yield adds, rem_extra + remA, "two-segment-cycle"


def _removal_options_for_node(state: ExchangeState, node: int,
                              adds: tuple[int, ...]) -> list[tuple[int, ...]]:
    g = state.g
    comp = state.dec.components[node]
    opts: list[tuple[int, ...]] = [()]
    if not comp.is_cycle:
        return opts
    incident = sorted({x for e in adds for x in g.edges[e] if x in comp.vertices})
    for u, v in itertools.combinations(incident, 2):
        e = cover_edge(g, comp, u, v)
        if e is not None:
            opts.append((e,))
    return opts


def _cycle_removals_few(state: ExchangeState, node_cycle: list[int], combo,
                        skip: set[int]):
    yield ()
    g = state.g
    k = len(node_cycle)
    singles: list[int] = []
    for i, node in enumerate(node_cycle):
        comp = state.dec.components[node]
        if node in skip or not comp.is_cycle:
            continue
        e_in = combo[(i - 1) % k]
        e_out = combo[i]
        p = [x for x in g.edges[e_in] if x in comp.vertices]
        q = [x for x in g.edges[e_out] if x in comp.vertices]
        if p and q and p[0] != q[0]:
            e = cover_edge(g, comp, p[0], q[0])
            if e is not None:
                singles.append(e)
    for r in range(1, len(singles) + 1):
        for sub in itertools.combinations(singles, r):
            yield tuple(sub)


def _glue_wide_segment(state: ExchangeState, view: ComponentGraphView,
                       seg: set[int], L: int):
    g = state.g
    # C4 nodes first, then the rest, each once: a rejected candidate stays
    # rejected while the state is unchanged
    c4_nodes = [x for x in seg if state.dec.components[x].tag == C4 and x != L]
    targets = list(dict.fromkeys(c4_nodes + [x for x in sorted(seg) if x != L]))
    for cyc in segment_cycles(view, seg, 6, through=L):
        label = ("nontrivial-long-cycle" if len(cyc) >= 6 else
                 "nontrivial-cycle")
        for combo in instantiate_node_cycle(view, cyc):
            for removes in _cycle_removals_few(state, cyc, combo, skip={L}):
                yield combo, removes, label
    for A in targets:
        compA = state.dec.components[A]
        if not compA.is_cycle:
            continue
        # replace the component cycle by a Hamiltonian path between two
        # cycle-through-C4 style attachment points
        idsL = view.edges_between(L, A)
        others = [b for b in sorted(seg) if b not in (L, A)]
        for B in others:
            idsB = view.edges_between(A, B)
            idsLB = view.edges_between(L, B)
            if not idsL or not idsB or not idsLB:
                continue
            for e1 in idsL[:3]:
                for e2 in idsB[:3]:
                    for e3 in idsLB[:2]:
                        u = [x for x in g.edges[e1] if x in compA.vertices][0]
                        v = [x for x in g.edges[e2] if x in compA.vertices][0]
                        if u == v:
                            continue
                        path = ham_path_exists(g, compA.vertices, u, v)
                        pe = path and path_edge_ids(g, path)
                        if pe:
                            yield ((e1, e2, e3) + pe,
                                   tuple(sorted(compA.edges)), "cycle-through-c4")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_few(g: MultiGraph, h0: set[int], params: StructuredParams
            ) -> tuple[set[int], ExchangeState]:
    """Ledger build, bridge covering to bridgeless, gluing to one component."""
    dec0 = CoverDecomposition(g, h0, params)
    dec, led, info = build_few_ledger(g, dec0)
    state = ExchangeState(g, dec, led, params, info)
    guard = g.m + len(dec.components) + 4
    while state.bridge_ids() and guard > 0:
        cover_bridges_step(state)
        guard -= 1
    while len(state.dec.components) > 1 and guard > 0:
        glue_step(state)
        guard -= 1
    if guard <= 0:
        raise NoProgress("step budget exhausted")
    beta = info["beta"]
    bound = (Fraction(5, 4) - (1 - beta) * FEW_DELTA) * info["h0_size"]
    state.info["final_bound"] = bound
    state.info["final_bound_ok"] = Fraction(len(state.h)) <= bound
    state.info["waivers"] = state.info.get("waivers", []) + [
        r.label for r in state.trace if r.waiver]
    return set(state.h), state
