"""High-4-cycle-count machinery: merge search (single/double merges, short
heavy cycles), branching gluing paths, core-square construction, and the
final per-segment assembly.

Every structural change goes through ``apply_many``, MANY's entry to the
shared ``exchange.commit``: the decomposition and credit assignment are
rebuilt and the exchange commits only when components or bridges strictly
decrease, no new bridge appears, every component keeps a canonical shape,
and the exact-rational cost respects the step's slack (0 everywhere except
the single +2 step of the core construction).

Core-square dispatch order, one lazy stream whose first accepted proposal
is committed: per segment of 5+ nodes holding the huge component L, its
merge, then chords over a growing gluing path (phase ``gluing-path``);
merges per segment with a C_i and at most i nodes, per small segment with
two large or complex components, per big segment without L; with another
large or complex component, a merge anywhere, then a (3,1)-composed
double; the bridge-covering cycles through L, then ``bridge-chord``;
once, ``final-plus-two``; a merge anywhere.  A merge is labelled
``single(k,j)``, ``double(k,j)`` or ``short-heavy(n)``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from . import oracle
from .credit import CreditLedger, build_many_ledger, cost
from .decomp import (C4, COMPLEX, CYCLE_TAGS, LARGE2EC, BlockTree, Component,
                     ComponentGraphView, CoverDecomposition, cover_edge,
                     instantiate_node_cycle, segment_cycles)
from .exchange import ExchangeState, NoProgress, canonical_shape_ok, commit
from .graph import MultiGraph, connected_components, contract
from .params import MANY_DELTA, StructuredParams


@dataclass
class MergeCandidate:
    kind: str                       # single | double | short_heavy
    edges: tuple[int, ...]          # X
    shortcut_edges: tuple[int, ...]  # F(X)
    k: int                          # distinct components touched
    j: int                          # C4 components not shortcut
    covers_bridge: bool
    node_cycles: tuple[tuple[int, ...], ...]

    def bound(self, delta: Fraction) -> Optional[Fraction]:
        if self.kind == "single":
            return 2 + self.j - (1 - 4 * delta) * self.k
        if self.kind == "double":
            return 3 + self.j - (1 - 4 * delta) * self.k
        return None


class ManyState(ExchangeState):
    def __init__(self, g: MultiGraph, dec: CoverDecomposition,
                 led: CreditLedger, params: StructuredParams, info: dict):
        super().__init__(g, dec, led, params, info)
        self.plus_two_used = False
        self.merge_audits: list[dict] = []


def apply_many(state: ManyState, adds: Iterable[int], removes: Iterable[int],
               phase: str, label: str, **flags) -> bool:
    """Validate and commit one exchange under the canonical component
    shapes; ``flags`` are those of ``exchange.commit``.  True when applied."""
    return commit(state, adds, removes, phase, label, canonical_shape_ok,
                  **flags)


# ---------------------------------------------------------------------------
# merge candidates
# ---------------------------------------------------------------------------

def _touch_map(state: ManyState, edge_set: Iterable[int]) -> dict[int, list[int]]:
    """component id -> endpoint vertices of the candidate edges inside it."""
    touched: dict[int, list[int]] = {}
    for eid in edge_set:
        for v in state.g.edges[eid]:
            cid = state.dec.comp_of_vertex[v]
            touched.setdefault(cid, []).append(v)
    return touched


def _shortcut_edges(state: ManyState, touched: dict[int, list[int]]
                    ) -> tuple[dict[int, int], set[int]]:
    """Per touched C4: the shortcut H edge if two candidate edges enter at
    adjacent cycle vertices; also the set of non-shortcut C4 component ids.
    ``touched`` is the candidate's ``_touch_map``, as for the next two."""
    g, dec = state.g, state.dec
    shortcuts: dict[int, int] = {}
    open_c4: set[int] = set()
    for cid, verts in touched.items():
        comp = dec.components[cid]
        if comp.tag != C4:
            continue
        found = None
        for u, v in itertools.combinations(sorted(set(verts)), 2):
            e = cover_edge(g, comp, u, v)
            if e is not None:
                found = e if found is None else min(found, e)
        if found is not None:
            shortcuts[cid] = found
        else:
            open_c4.add(cid)
    return shortcuts, open_c4


def _complex_incidence_ok(state: ManyState, touched: dict[int, list[int]]) -> bool:
    for cid, verts in touched.items():
        comp = state.dec.components[cid]
        if comp.tag != COMPLEX:
            continue
        vs = set(verts)
        in_block = any(any(v in blk.vertices for blk in comp.blocks) for v in vs)
        if not in_block and len(vs) < 2:
            return False
    return True


def _covers_bridge(state: ManyState, touched: dict[int, list[int]]) -> bool:
    """Some complex component is touched in two or more nodes of its block
    tree: the tree path between them, which always exists, has a bridge."""
    for cid, verts in touched.items():
        comp = state.dec.components[cid]
        if comp.tag != COMPLEX:
            continue
        node_of = BlockTree(state.g, comp).node_of_vertex
        if len({node_of[v] for v in verts}) >= 2:
            return True
    return False


def evaluate_cycle(state: ManyState, combo: tuple[int, ...],
                   cycles: tuple[tuple[int, ...], ...],
                   double: bool) -> Optional[MergeCandidate]:
    touched = _touch_map(state, combo)
    k = len(touched)
    if not _complex_incidence_ok(state, touched):
        return None
    shortcuts, open_c4 = _shortcut_edges(state, touched)
    j = len(open_c4)
    covers = _covers_bridge(state, touched)
    heavy = any(state.dec.components[cid].tag in CYCLE_TAGS
                and state.dec.components[cid].tag != C4
                for cid in touched)
    f_edges = tuple(sorted(shortcuts.values()))
    if not double and len(combo) <= 6 and (heavy or covers):
        kind, f_edges = "short_heavy", ()
    elif double and k >= 5 and j <= 3 and k - j >= 4:
        kind = "double"
    elif not double and k >= 3 and j <= 2 and k - j >= 3:
        kind = "single"
    else:
        return None
    return MergeCandidate(kind=kind, edges=combo, shortcut_edges=f_edges, k=k,
                          j=j, covers_bridge=covers, node_cycles=cycles)


def find_merge(state: ManyState, segments: Optional[list[set[int]]] = None
               ) -> Optional[MergeCandidate]:
    """Bounded search for a short heavy cycle, then a single merge, then a
    composed double merge."""
    view = state.view()
    segs = segments if segments is not None else view.segments
    best_single: Optional[MergeCandidate] = None
    cycle_nodes: set[int] = set()
    for seg in segs:
        for cyc in segment_cycles(view, seg, min(8, len(seg) + 1)):
            cycle_nodes.update(cyc)
            for combo in instantiate_node_cycle(view, cyc):
                cand = evaluate_cycle(state, combo, (tuple(cyc),), double=False)
                if cand is None:
                    continue
                if cand.kind == "short_heavy":
                    return cand
                if best_single is None:
                    best_single = cand
    if best_single is not None:
        return best_single
    # doubles: two cycles meeting at exactly one shared node
    for node in sorted(cycle_nodes):
        partial = _partial_cycles_through(state, view, node)
        for a, b in itertools.combinations(partial, 2):
            if set(a[0]) & set(b[0]) != {node}:
                continue
            combo = tuple(sorted(set(a[1]) | set(b[1])))
            if len(combo) != len(a[1]) + len(b[1]):
                continue
            cand = evaluate_cycle(state, combo, (a[0], b[0]), double=True)
            if cand is not None:
                return cand
    return None


def _partial_cycles_through(state: ManyState, view: ComponentGraphView,
                            node: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(node tuple, instantiated edges) for cycles through a node in any of
    its segments (used to compose double merges)."""
    out = []
    for seg in view.segments_of(node):
        for cyc in segment_cycles(view, seg, 5, through=node):
            for combo in instantiate_node_cycle(view, cyc, cap=12):
                out.append((tuple(cyc), combo))
    return out


def apply_merge(state: ManyState, cand: MergeCandidate, phase: str) -> bool:
    """Commit (H + X) - F(X) with the closed-form audit."""
    before = cost(state.dec, state.led)
    cr_before = state.led.total_credit()
    label = {"single": f"single({cand.k},{cand.j})",
             "double": f"double({cand.k},{cand.j})",
             "short_heavy": f"short-heavy({len(cand.edges)})"}[cand.kind]
    ok = apply_many(state, cand.edges, cand.shortcut_edges, phase, label,
                    need_fewer_components=not cand.covers_bridge,
                    need_fewer_bridges=cand.covers_bridge and cand.kind == "short_heavy")
    if not ok:
        return False
    after = cost(state.dec, state.led)
    audit = {"kind": cand.kind, "k": cand.k, "j": cand.j,
             "x_size": len(cand.edges), "delta_cost": after - before}
    bound = cand.bound(MANY_DELTA)
    if bound is not None:
        audit["bound"] = bound
        audit["bound_ok"] = (after - before) <= bound <= 0
    else:
        cr_after = state.led.total_credit()
        audit["cr_drop"] = cr_before - cr_after
        audit["bound_ok"] = (cr_before - cr_after) >= len(cand.edges)
    state.merge_audits.append(audit)
    if not audit["bound_ok"]:
        state.trace[-1].waiver = True
    return True


def find_31_merge(state: ManyState, target_cid: int, seg: set[int]
                  ) -> Optional[MergeCandidate]:
    """A single (k, j)-merge with k in {3,4}, k - j >= 2, inside a 3- or
    4-node segment of large/C4 components, never shortcutting the target."""
    view = state.view()
    if len(seg) not in (3, 4) or target_cid not in seg:
        return None
    for cid in seg:
        comp = state.dec.components[cid]
        if comp.tag not in (C4, LARGE2EC):
            return None
    for cyc in segment_cycles(view, seg, 4, through=target_cid):
        for combo in instantiate_node_cycle(view, cyc):
            touched = _touch_map(state, combo)
            shortcuts, open_c4 = _shortcut_edges(state, touched)
            k, j = len(touched), len(open_c4)
            if target_cid not in shortcuts and k in (3, 4) and k - j >= 2:
                return MergeCandidate(kind="single", edges=combo,
                                      shortcut_edges=tuple(sorted(shortcuts.values())),
                                      k=k, j=j, covers_bridge=False,
                                      node_cycles=(tuple(cyc),))
    return None


def compose_double_from_31(state: ManyState, target_cid: int
                           ) -> Optional[MergeCandidate]:
    """Lemma-style composition: 31-merges for a component sitting in two
    qualifying segments combine into a double merge."""
    view = state.view()
    segs = view.segments_of(target_cid)
    if len(segs) < 2:
        return None
    found = (find_31_merge(state, target_cid, seg) for seg in segs)
    parts = list(itertools.islice(filter(None, found), 2))
    if len(parts) < 2:
        return None
    a, b = parts
    if set(a.edges) & set(b.edges):
        return None
    combo = tuple(sorted(set(a.edges) | set(b.edges)))
    return evaluate_cycle(state, combo, a.node_cycles + b.node_cycles,
                          double=True)


# ---------------------------------------------------------------------------
# gluing paths
# ---------------------------------------------------------------------------

@dataclass
class GluingPath:
    nodes: list[int]
    edges: list[int]          # host edge ids; edges[i] joins nodes[i], nodes[i+1]


def _node_pattern_ok(state: ManyState, node: int, e_in: Optional[int],
                     e_out: Optional[int]) -> bool:
    if e_in is None or e_out is None:
        return True
    g = state.g
    comp = state.dec.components[node]
    p = [x for x in g.edges[e_in] if x in comp.vertices]
    q = [x for x in g.edges[e_out] if x in comp.vertices]
    if not p or not q:
        return False
    u, v = p[0], q[0]
    if comp.tag == C4:
        if u == v:
            return False
        return cover_edge(g, comp, u, v) is not None
    if comp.tag == COMPLEX:
        in_block_u = any(u in blk.vertices for blk in comp.blocks)
        in_block_v = any(v in blk.vertices for blk in comp.blocks)
        if not in_block_u and not in_block_v and u == v:
            return False
    return True


def validate_gluing_path(state: ManyState, seg: set[int], path: GluingPath) -> bool:
    if len(set(path.nodes)) != len(path.nodes):
        return False
    if not set(path.nodes) <= seg:
        return False
    for i, node in enumerate(path.nodes):
        e_in = path.edges[i - 1] if i > 0 else None
        e_out = path.edges[i] if i < len(path.edges) else None
        if not _node_pattern_ok(state, node, e_in, e_out):
            return False
    return True


def start_gluing_path(state: ManyState, view: ComponentGraphView,
                      seg: set[int]) -> Optional[GluingPath]:
    for mid in sorted(seg):
        nbrs = [x for x in view.neighbors(mid) if x in seg]
        for a, b in itertools.combinations(nbrs, 2):
            for e1 in view.edges_between(a, mid)[:3]:
                for e2 in view.edges_between(mid, b)[:3]:
                    p = GluingPath(nodes=[a, mid, b], edges=[e1, e2])
                    if validate_gluing_path(state, seg, p):
                        return p
    return None


def extend_gluing_path(state: ManyState, view: ComponentGraphView,
                       seg: set[int], path: GluingPath) -> Optional[GluingPath]:
    for endpos in (len(path.nodes) - 1, 0):
        end = path.nodes[endpos]
        for x in sorted(set(view.neighbors(end)) & seg):
            if x in path.nodes:
                continue
            for eid in view.edges_between(end, x)[:4]:
                cand = (GluingPath([x] + path.nodes, [eid] + path.edges)
                        if endpos == 0 else
                        GluingPath(path.nodes + [x], path.edges + [eid]))
                if validate_gluing_path(state, seg, cand):
                    return cand
    return None


def gluing_path_merges(state: ManyState, seg: set[int]
                       ) -> Iterator[MergeCandidate]:
    """Merge candidates for a >= 5 node segment: the merge ``find_merge``
    finds in it, then the chords over a gluing path grown one node at a
    time, each searched only when asked for."""
    view = state.view()
    cand = find_merge(state, segments=[seg])
    if cand is not None:
        yield cand
    path = start_gluing_path(state, view, seg)
    while path is not None:
        # chords over the current path give single merges
        for i in range(len(path.nodes)):
            for jx in range(i + 2, len(path.nodes)):
                for ch in view.edges_between(path.nodes[i], path.nodes[jx]):
                    if ch in path.edges:
                        continue
                    cc = evaluate_cycle(state, tuple(path.edges[i:jx]) + (ch,),
                                        (tuple(path.nodes[i:jx + 1]),), double=False)
                    if cc is not None:
                        yield cc
        path = extend_gluing_path(state, view, seg, path) \
            if len(path.nodes) < len(seg) else None


# ---------------------------------------------------------------------------
# core-square construction
# ---------------------------------------------------------------------------

def core_square_report(state: ManyState) -> dict:
    dec = state.dec
    view = state.view()
    huge = [c for c in dec.components if c.huge]
    rep: dict[str, object] = {}
    rep["one_huge"] = len(huge) == 1
    L = huge[0].cid if len(huge) >= 1 else None
    rep["others_c4"] = all(c.tag == C4 for c in dec.components
                           if L is None or c.cid != L)
    if L is None:
        rep["l_small_segments"] = False
        rep["cut_component_shape"] = False
        rep["pendant_segments_3_or_4"] = False
        rep["ok"] = False
        return rep
    rep["l_small_segments"] = all(len(s) <= 2 for s in view.segments_of(L))
    cut_ok = True
    pendant_ok = True
    for c in dec.components:
        if c.cid == L or c.cid not in view.cut_nodes:
            continue
        segs = view.segments_of(c.cid)
        if len(segs) != 2:
            cut_ok = False
            continue
        withL = [s for s in segs if L in s]
        without = [s for s in segs if L not in s]
        if len(withL) != 1 or len(without) != 1:
            cut_ok = False
            continue
        s2 = without[0]
        if len(s2) > 4:
            cut_ok = False
        if any(x in view.cut_nodes and x != c.cid for x in s2):
            cut_ok = False
        if len(s2) not in (3, 4) or any(dec.components[x].tag != C4 for x in s2):
            pendant_ok = False
    rep["cut_component_shape"] = cut_ok
    rep["pendant_segments_3_or_4"] = pendant_ok
    rep["ok"] = all(rep[k] for k in ("one_huge", "others_c4", "l_small_segments",
                                     "cut_component_shape"))
    rep["L"] = L
    return rep


def _plus_two(state: ManyState, combo: tuple[int, ...]) -> bool:
    """Commit the one final-plus-two cycle, which may raise the cost by 2."""
    if not apply_many(state, combo, (), "core", "final-plus-two",
                      need_fewer_components=True, cost_slack=Fraction(2)):
        return False
    state.plus_two_used = True
    return True


def _core_steps(state: ManyState, view: ComponentGraphView, L: Optional[int]
                ) -> Iterator[Callable[[], bool]]:
    """The core-square rules' proposals in dispatch order, each a
    zero-argument commit.  Each search runs only when the stream reaches it
    and proposes at most one merge; nothing is committed before a proposal
    is accepted, so every search sees the cover the pass started from."""
    dec = state.dec

    def merge(cand: Optional[MergeCandidate], phase: str):
        if cand is not None:
            yield functools.partial(apply_merge, state, cand, phase)

    # 1. big segments holding the huge component: gluing-path merges
    for seg in view.segments:
        if L in seg and len(seg) >= 5:
            for cand in gluing_path_merges(state, seg):
                yield from merge(cand, "gluing-path")
    # per component: i for a C_i (5..8), else 0; large or complex
    ci = [CYCLE_TAGS[c.tag] if c.tag in CYCLE_TAGS and c.tag != C4 else 0
          for c in dec.components]
    big = [c.tag in (COMPLEX, LARGE2EC) for c in dec.components]
    # 2. segment with a C_i (5..8) and at most i components
    # 3. small segment holding two large-or-complex components
    # 4. big segment without a huge component
    for wanted in (lambda s: (lens := [ci[x] for x in s if ci[x]])
                   and len(s) <= min(lens),
                   lambda s: len(s) <= 4 and sum(big[x] for x in s) >= 2,
                   lambda s: len(s) >= 5 and L not in s):
        for seg in filter(wanted, view.segments):
            yield from merge(find_merge(state, segments=[seg]), "core")
    if L is not None:
        # 5. another large or complex component besides L
        others = [c.cid for c in dec.components if c.cid != L and big[c.cid]]
        if others:
            yield from merge(find_merge(state), "core")
            yield from merge(compose_double_from_31(state, others[0]), "core")
        # 6. bridges of L: short heavy cycles through L, then chords inside L
        comp = dec.components[L]
        if comp.bridges:
            for seg in view.segments_of(L):
                for cyc in segment_cycles(view, seg, 6):
                    if L not in cyc:
                        continue
                    for combo in instantiate_node_cycle(view, cyc):
                        cand = evaluate_cycle(state, combo, (tuple(cyc),),
                                              double=False)
                        if cand is not None and cand.covers_bridge:
                            yield from merge(cand, "core")
            for eid, (u, v) in enumerate(state.g.edges):
                if eid not in state.h and u != v and \
                        u in comp.vertices and v in comp.vertices:
                    yield functools.partial(apply_many, state, (eid,), (), "core",
                                            "bridge-chord", need_fewer_bridges=True)
        # 7. the final cycle through a segment of L of three or four
        # components, none a cut node: at most once, +2
        if not state.plus_two_used:
            yield from (functools.partial(_plus_two, state, combo)
                        for seg in view.segments_of(L)
                        if 3 <= len(seg) <= 4 and view.cut_nodes.isdisjoint(seg)
                        for cyc in segment_cycles(view, seg, 4) if set(cyc) == seg
                        for combo in instantiate_node_cycle(view, cyc))
    # a generic merge anywhere before giving up
    yield from merge(find_merge(state), "core")


def build_core_square(state: ManyState) -> None:
    """Commit the first accepted proposal of the ordered core-square rules
    until the cover is a bridgeless core-square configuration or no proposal
    is accepted; at most one +2 step.  Every commit lowers the number of
    components or of bridges and raises neither, so the loop ends."""
    while True:
        anchor = state.dec.anchor()
        L = anchor.cid if anchor.huge else None
        if L is not None and core_square_report(state)["ok"] \
                and not state.dec.components[L].bridges:
            return
        if not any(step() for step in _core_steps(state, state.view(), L)):
            return


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

def _optimal_part_replacement(state: ManyState, L: int, part: list[int]) -> bool:
    """Glue one pendant part optimally: contract everything else and solve
    exactly; replace when the optimum is at most 5|S| - 1 edges."""
    g = state.g
    verts = set()
    for cid in part:
        verts |= state.dec.components[cid].vertices
    rest = set(range(g.n)) - verts
    try:
        sol = oracle.exact_min_2ecss(contract(g, rest)[0],
                                     limit=oracle.STRUCTURED_LIMIT)
    except (oracle.TooLarge, oracle.NotTwoEdgeConnected):
        return False
    # contraction keeps edge ids, so the part's optimum is in g's ids
    opt_ids = {e for e in sol if any(v in verts for v in g.edges[e])}
    if len(opt_ids) > 5 * len(part) - 1:
        return False
    f_i = {e for e in state.h
           if g.edges[e][0] in verts and g.edges[e][1] in verts}
    adds = tuple(sorted(opt_ids - state.h))
    removes = tuple(sorted(f_i - opt_ids))
    return apply_many(state, adds, removes, "assembly", "optimal-part",
                      strict_structure=False, cost_slack=Fraction(0))


def _stitch_part(state: ManyState, L: int, part: list[int]) -> bool:
    """Iterated Hamiltonian-path gluing of one pendant part onto L: per
    component, a connecting cycle plus one dropped component edge."""
    g = state.g
    merged_vertices = set(state.dec.components[L].vertices)
    remaining = list(part)
    adds_total: list[int] = []
    removes_total: list[int] = []
    budget = len(part)
    h_now = set(state.h)

    def cross_edges(comp: Component) -> list[int]:
        """Unused host edges between comp and the merged vertices."""
        return [e for e, (u, v) in enumerate(g.edges)
                if e not in h_now and e not in adds_total
                and ((u in comp.vertices and v in merged_vertices)
                     or (v in comp.vertices and u in merged_vertices))]

    while remaining:
        placed = False
        for cid in list(remaining):
            comp = state.dec.components[cid]
            cross = cross_edges(comp)
            for e1, e2 in itertools.combinations(cross, 2):
                ends = sorted({x for e in (e1, e2) for x in g.edges[e]
                               if x in comp.vertices})
                if len(ends) != 2:
                    continue
                u, v = ends
                join = cover_edge(g, comp, u, v)
                if join is None:
                    continue
                adds_total += [e1, e2]
                removes_total.append(join)
                merged_vertices |= comp.vertices
                remaining.remove(cid)
                placed = True
                break
            if placed:
                break
        if not placed:
            # fall back: attach with two cross edges, no shortcut
            for cid in list(remaining):
                comp = state.dec.components[cid]
                cross = cross_edges(comp)
                if len(cross) >= 2:
                    adds_total += cross[:2]
                    merged_vertices |= comp.vertices
                    remaining.remove(cid)
                    placed = True
                    break
            if not placed:
                return False
    if len(adds_total) - len(removes_total) > budget:
        return False
    return apply_many(state, tuple(adds_total), tuple(removes_total),
                      "assembly", "stitch-part", strict_structure=False,
                      cost_slack=Fraction(4 * len(part), 1) * MANY_DELTA)


def run_many(g: MultiGraph, h0: set[int], params: StructuredParams
             ) -> tuple[set[int], ManyState]:
    dec = CoverDecomposition(g, h0, params)
    led, info = build_many_ledger(dec)
    info = dict(info)
    info["h0_size"] = len(h0)
    m4, mr = info["m4"], info["mr"]
    state = ManyState(g, dec, led, params, info)
    build_core_square(state)
    guard = len(state.dec.components) + 4
    while len(state.dec.components) > 1 and guard > 0:
        guard -= 1
        L = state.dec.anchor().cid
        # the first connected part of the component graph without L
        part = connected_components(state.view().mg, None, {L})[0]
        if _optimal_part_replacement(state, L, part):
            continue
        if not _stitch_part(state, L, part):
            raise NoProgress(f"cannot assemble part {part}")
    if not oracle._two_ec_on(g, state.h):
        raise NoProgress("assembled solution is not 2EC spanning")
    state.info["bound_terms"] = {
        "m4_term": (Fraction(5, 4) - MANY_DELTA) * m4,
        "mr_term": Fraction(5 * mr),
    }
    return set(state.h), state
