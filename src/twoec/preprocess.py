"""The recursive reduction to structured instances.

``red`` solves an instance of base size exactly.  Above it, the first entry
of ``DETECTORS`` (the checking order) whose finder fires reduces the graph,
and an instance that no entry matches is handed to the inner solver.  Every
step records a trace node sufficient to audit the size invariant afterwards.

A non-isolating 2-vertex cut, a large 3-vertex cut and condition 1 of a
large 4-vertex cut share one reassembly.  When both sides are large, each
side's closure G[V_i ∪ cut] | cut is reduced alone and the two are joined
with at most 2k - 2 edges for a k-vertex cut.  Otherwise the small side is
typed by one branch and bound (``classify_side_types``), cut where the
edges chosen plus half the inner degree deficit, or plus the components
left to join, exceed the cheapest allowed type found.  Type A is
contracted, and every other type is solved on the side, the big side is
reduced with the stand-in ``SUBSTITUTES`` names for it, and the two are
rejoined within that row's budget (C2 and C3 have their own stand-ins and
rejoining).  A side the search cannot type within ``oracle.NODE_BUDGET``
nodes is joined as a large one, under the branch label ``untyped``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from . import oracle
from .graph import (MultiGraph, connected_components, contract,
                    is_two_edge_connected, lowpoint_forest, simple_cycles_upto,
                    two_edge_classes)
from .params import StructuredParams

# 2-vertex-cut and 3-vertex-cut solution types, strongest first
T2_ORDER = ["A", "B", "C"]
T3_ORDER = ["A", "B1", "B2", "C1", "C2", "C3"]

# cycles of length <= 8 listed by one large-cycle-cut scan
CYCLE_CAP = 40000
# find_contractible looks for contractible parts among cycles this short
CONTRACTIBLE_CYCLE_MAX = 8


class ReductionError(RuntimeError):
    pass


@dataclass
class CutDescriptor:
    """What a cut finder reports and its ``Reducer`` method removes:
    ``vertices`` are the cut, sorted (an edge kind's ends), and ``sides``
    the two parts of V - cut, each sorted, that the reducer splits on."""
    kind: str                      # Vertex1 | LoopOrParallel | IrrelevantEdge |
                                   # Vertex2 | Vertex3 | CycleCut | Vertex4
    vertices: tuple[int, ...] = ()
    sides: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    cycle_order: Optional[tuple[int, ...]] = None
    edge: Optional[int] = None
    condition: Optional[int] = None


@dataclass
class TraceNode:
    step: str
    n: int
    m: int
    detail: dict = field(default_factory=dict)
    children: list["TraceNode"] = field(default_factory=list)
    result_size: int = -1

    def to_json(self) -> dict:
        return {"step": self.step, "n": self.n, "m": self.m,
                "detail": {k: (sorted(v) if isinstance(v, (set, frozenset)) else v)
                           for k, v in self.detail.items()},
                "result_size": self.result_size,
                "children": [c.to_json() for c in self.children]}

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


# ---------------------------------------------------------------------------
# detection helpers
# ---------------------------------------------------------------------------

def _vertex_cuts(g: MultiGraph, k: int, side: int
                 ) -> Iterator[tuple[tuple[int, ...],
                                     Callable[[], list[list[int]]]]]:
    """Every k-subset of V whose removal leaves components that, all but a
    largest one, hold ``side`` vertices or more together, as (cut, split) in
    ``itertools.combinations`` order: the cut a sorted tuple, split a
    zero-argument callable that builds the components of G - cut as
    ``connected_components`` lists them (a caller that needs only the cuts
    builds none).  With ``side`` = 1 these are the cuts that leave two or
    more components; a caller passes the least side its test can accept, so
    cuts whose sizes cannot fire are never split.

    A yielded S leaves no component of G - S above ``most`` = n - k - side.
    No vertex of U, those below max(P) and outside a prefix P, is in S, so a
    component C of G[U] shares a component of G - S with all but r = k - |P|
    of N_out(C), its neighbours outside U and P.  A candidate is skipped,
    forest and all, when |C| + |N_out(C)| - r > ``most`` for some C.  Tried
    candidates join U, so |C| > ``most`` ends the level, as does a sum over
    most + 1: it falls by at most the candidate leaving N_out(C).  At side
    9 the 4-cut scan builds 97 forests of 1,330 on ``random2ec(22, 0.15,
    1)``, and 413 of 5,456 on ``vertex4_case2``'s n=34 child.

    One lowpoint forest of G - P per (k-1)-prefix P replaces one BFS per
    k-subset (Tarjan 1972).  A child c of d with low[c] >= disc[d] heads a
    component of G - P - d: c's subtree, a contiguous run of the preorder.
    So the components of G - P - d, with their sizes read off the forest,
    are:
    - each other tree r: end[r] - disc[r];
    - each head child c of d: end[c] - disc[c];
    - the rest of d's tree, which holds its root unless d is that root: its
      size, minus 1, minus the heads' sizes (0 when d is the root).
    The side rule holds when no component exceeds ``most``.  Two trees above
    that leave no d; one leaves only its own vertices, those whose heads and
    rest are no larger; none leaves every d."""
    n = g.n
    most = n - k - side                 # the largest component allowed

    def forest(prefix):
        order, parent, _, disc, low, end = lowpoint_forest(g, skip=prefix)
        roots = []
        hsum = [0] * n                  # d's head subtrees: total size
        hmax = [0] * n                  # and the largest
        for v in order:
            p = parent[v]
            if p == -1:
                roots.append(v)
            elif low[v] >= disc[p]:
                s = end[v] - disc[v]
                hsum[p] += s
                if s > hmax[p]:
                    hmax[p] = s
        big = [r for r in roots if end[r] - disc[r] > most]
        if len(big) > 1:
            return
        if big:
            first, last = disc[big[0]], end[big[0]]
            need = last - first - 1 - most  # least head total: rest <= most
        for d in range(prefix[-1] + 1 if prefix else 0, n):
            if not big or (first <= disc[d] < last and hsum[d] >= need
                           and hmax[d] <= most):
                yield prefix + (d,), partial(_split_forest, order, disc, end,
                                             low, roots, d)

    def level(prefix, parent, size, out, big):
        # U as a union-find, copied once per level; out[C] holds C's
        # neighbours outside U and prefix, so N_out(C) at c is out[C] - {c}
        peak = max((size[u] + len(s) for u, s in out.items()), default=0)
        r = k - 1 - len(prefix)         # cut vertices to choose after c
        for c in range(prefix[-1] + 1 if prefix else 0, n - r):
            if big > most or peak - r - 1 > most:
                return
            if peak - r <= most or all(c in s for u, s in out.items()
                                       if size[u] + len(s) == peak):
                yield from forest(prefix + (c,)) if r == 1 else level(
                    prefix + (c,), parent[:], size[:],
                    {u: s - {c} for u, s in out.items()}, big)
            parent[c], size[c], mine = c, 1, set(up[c])   # c joins U
            for w, _ in adj[c]:
                if parent[w] == -1:
                    continue            # not in U: a prefix vertex or above c
                while parent[w] != w:
                    parent[w] = parent[parent[w]]
                    w = parent[w]
                if w != c:
                    theirs = out.pop(w)
                    if len(theirs) > len(mine):
                        mine, theirs = theirs, mine
                    mine |= theirs
                    parent[w] = c
                    size[c] += size[w]
            mine.discard(c)
            out[c] = mine
            big, peak = max(big, size[c]), max(peak, size[c] + len(mine))

    if k == 1:
        return forest(())
    adj = g.adj()
    up = [{w for w, _ in nbrs if w > v} for v, nbrs in enumerate(adj)]
    return level((), [-1] * n, [0] * n, {}, 0)


def _split_forest(order: list[int], disc: list[int], end: list[int],
                  low: list[int], roots: list[int], d: int) -> list[list[int]]:
    """The components of G - P - d, sorted, from preorder slices of the
    lowpoint forest of G - P (see ``_vertex_cuts``)."""
    comps = []
    for r in roots:
        if not disc[r] <= disc[d] < end[r]:
            comps.append(order[disc[r]:end[r]])
            continue
        # d's tree: the head subtrees, then the rest without d
        rest = order[disc[r]:disc[d]] + order[end[d]:end[r]]
        i = disc[d] + 1
        while i < end[d]:
            c = order[i]
            if low[c] >= disc[d]:
                comps.append(order[i:end[c]])
            else:
                rest += order[i:end[c]]
            i = end[c]
        comps.append(rest)      # empty when d is the root
    return sorted(sorted(comp) for comp in comps if comp)


def _grouping(comps: list[list[int]], side: int
              ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition of V - cut into sorted (V1, V2) along the boundaries of
    ``comps``, the components of G - cut, with |V1| >= side minimal and
    |V2| >= side."""
    if len(comps) < 2:
        return None
    total = sum(len(c) for c in comps)
    # achievable sums with a deterministic reconstruction
    reach: dict[int, tuple[int, ...]] = {0: ()}
    for idx, comp in enumerate(comps):
        sz = len(comp)
        for s in sorted(reach):
            t = s + sz
            if t not in reach:
                reach[t] = reach[s] + (idx,)
    best = None
    for s in sorted(reach):
        chosen = reach[s]
        if s >= side and total - s >= side and 0 < len(chosen) < len(comps):
            best = chosen
            break
    if best is None:
        return None
    v1 = sorted(v for idx in best for v in comps[idx])
    v2 = sorted(v for idx, c in enumerate(comps) if idx not in best for v in c)
    return tuple(v1), tuple(v2)


def find_cut_vertex(g: MultiGraph) -> Optional[CutDescriptor]:
    for (v,), split in _vertex_cuts(g, 1, 1):
        comps = split()
        rest = tuple(sorted(x for c in comps[1:] for x in c))
        return CutDescriptor("Vertex1", (v,), (tuple(comps[0]), rest))
    return None


def find_loop_or_parallel(g: MultiGraph) -> Optional[CutDescriptor]:
    seen: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(g.edges):
        if u == v or (u, v) in seen:
            return CutDescriptor("LoopOrParallel", tuple(sorted({u, v})),
                                 edge=eid)
        seen.add((u, v))
    return None


def find_irrelevant_edge(g: MultiGraph) -> Optional[CutDescriptor]:
    cuts = {pair for pair, _ in _vertex_cuts(g, 2, 1)}
    for eid, (u, v) in enumerate(g.edges):
        if u != v and (u, v) in cuts:
            return CutDescriptor("IrrelevantEdge", (u, v), edge=eid)
    return None


def find_non_isolating_2vc(g: MultiGraph) -> Optional[CutDescriptor]:
    """The first 2-vertex cut that does not cut off one vertex alone, with
    sides of two vertices or more (None if G - cut is three vertices).  Its
    components other than a largest hold two vertices or more exactly when
    they do not number two with one a single vertex."""
    for pair, split in _vertex_cuts(g, 2, 2):
        return CutDescriptor("Vertex2", pair, _grouping(split(), 2))
    return None


def find_large_3vc(g: MultiGraph, params: StructuredParams
                   ) -> Optional[CutDescriptor]:
    """The first 3-vertex cut whose sides both reach ``three_cut_side``.
    The sides share the n - 3 vertices off the cut, so none exists, and no
    cut is scanned, when n - 3 < 2 * three_cut_side (n < 19 on desk)."""
    t = params.three_cut_side
    if g.n - 3 < 2 * t:
        return None
    for trip, split in _vertex_cuts(g, 3, t):
        grouping = _grouping(split(), t)
        if grouping is not None:
            return CutDescriptor("Vertex3", trip, grouping)
    return None


def find_large_ck(g: MultiGraph, params: StructuredParams
                  ) -> Optional[CutDescriptor]:
    """The first cycle cut, shortest cycle first, whose sides both reach
    ``ck_side(k)`` for its length k.  A k-cycle leaves n - k vertices for
    the two sides, so only lengths with n - k >= 2 * ck_side(k) can fire
    and the others are not tried.  ck_side grows with k, so no length fits
    when 4 does not (n < 38 on desk; 5..8 need n >= 47, 58, 67, 76), and
    then the cycles are not listed at all."""
    side = {k: params.ck_side(k) for k in range(4, 9)
            if g.n - k >= 2 * params.ck_side(k)}
    if not side:
        return None
    cycles = simple_cycles_upto(g, 8, limit=CYCLE_CAP)
    by_len = sorted((c for c in cycles if len(c) in side),
                    key=lambda c: (len(c), c))
    for cyc in by_len:
        grouping = _grouping(connected_components(g, None, set(cyc)),
                             side[len(cyc)])
        if grouping is not None:
            return CutDescriptor("CycleCut", tuple(sorted(cyc)), grouping,
                                 cycle_order=tuple(cyc))
    return None


def find_large_4vc(g: MultiGraph, params: StructuredParams
                   ) -> Optional[CutDescriptor]:
    """The first 4-vertex cut meeting condition 1 (both sides reach
    ``four_cut_side_2``) or condition 2 (the small side V1 has at most
    four_cut_side_2 - 2 vertices and its closure's optimum opt1 has
    opt1 + 4 <= alpha * opt1).  V1 is a smallest component of G - cut, so
    n - 4 >= 2|V1|.  Condition 1 is tried only when n - 4 >= 2 *
    four_cut_side_2 (n >= 56 on desk).  Condition 2 needs |V1| >=
    ``four_cut_small_side`` (9 on desk): cuts with a smaller V1 are skipped
    before the closure is built, and none can fire when n - 4 < 2 *
    four_cut_small_side.  When neither condition can fire (n < 22 on desk)
    no cut is scanned.  The scan passes the smaller side bound of the
    conditions tried, so it splits no cut whose sizes meet neither.

    Condition 2 needs opt1 >= ``four_cut_min_opt`` (18 on desk).  A 2EC
    closure's greedy 2ECSS (``oracle.greedy_deletion``, exact drop test) is
    a 2EC spanning subgraph, so opt1 is at most its size; when that is below
    four_cut_min_opt the side cannot fire and gets no exact solve."""
    t1 = params.four_cut_side_2
    s2 = params.four_cut_small_side
    try1 = g.n - 4 >= 2 * t1
    try2 = g.n - 4 >= 2 * s2
    if not (try1 or try2):
        return None
    side = min(s for s, tried in ((t1, try1), (s2, try2)) if tried)
    opt1_of: dict[frozenset[int], Optional[int]] = {}
    for quad, split in _vertex_cuts(g, 4, side):
        comps = split()
        if try1:
            grouping = _grouping(comps, t1)
            if grouping is not None:
                return CutDescriptor("Vertex4", quad, grouping, condition=1)
        if not try2 or min(len(c) for c in comps) < s2:
            continue
        small = _grouping(comps, 1)
        v1 = small[0]
        if len(v1) > t1 - 2:
            continue
        # conservative condition-2 test: an optimal closure of the small side
        # plus at most 4 patch edges must fit in the alpha budget; opt1 is kept
        # per V1: every edge leaving V1 ends in the cut, so G[V1 + cut] | cut
        # differs between cuts only in self-loops, which the search drops
        key = frozenset(v1)
        if key not in opt1_of:
            opt1_of[key] = None
            closure = _contracted_side(g, v1, quad)
            every = range(closure.m)
            if is_two_edge_connected(closure) and len(oracle.greedy_deletion(
                    closure, set(every), every, oracle._bridge_cut(None))
                    ) >= params.four_cut_min_opt:
                try:
                    opt1_of[key] = len(oracle.exact_min_2ecss(
                        closure, limit=oracle.STRUCTURED_LIMIT))
                except (oracle.TooLarge, oracle.NotTwoEdgeConnected):
                    pass
        opt1 = opt1_of[key]
        if opt1 is None:
            continue
        if Fraction(opt1 + 4) <= params.alpha * opt1:
            return CutDescriptor("Vertex4", quad, small, condition=2)
    return None


def _sparse_witnesses(g: MultiGraph) -> list[list[list[int]]]:
    """Two sparse 2EC spanning subgraphs H of G, each by greedy deletion
    (``oracle.greedy_deletion`` with the exact 2EC drop test): every edge,
    in descending id order for the first and ascending for the second, is
    dropped when the rest stays 2EC.
    Each H is given as up[v], the neighbours x > v of v in H, one
    entry per edge.  There is none when G is not 2EC, since then no
    spanning subgraph is."""
    if not is_two_edge_connected(g):
        return []
    witnesses = []
    for ids in (range(g.m - 1, -1, -1), range(g.m)):
        kept = oracle.greedy_deletion(g, set(range(g.m)), ids,
                                      oracle._bridge_cut(None))
        up: list[list[int]] = [[] for _ in range(g.n)]
        for eid in kept:
            u, v = g.edges[eid]
            if u != v:
                up[u].append(v)
        witnesses.append(up)
    return witnesses


def find_contractible(g: MultiGraph, params: StructuredParams
                      ) -> Optional[tuple[set[int], set[int]]]:
    """A contractible candidate among short cycles: (vertex set, the edge ids
    of a minimum 2ECSS of the induced subgraph).

    A candidate w is contractible when every 2EC spanning subgraph keeps at
    least |w| / alpha edges inside w.  Each sparse witness H of
    ``_sparse_witnesses`` rejects w at once when it keeps fewer: G minus the
    inside edges off H contains H, so it is 2EC, and the fewest inside edges
    to keep is at most |H ∩ E(w)|, below the target.  Such a w is one that
    ``max_removable_inside`` would also reject, so only the candidates that
    every H keeps go to it, and the first that fires is unchanged.  When G
    is not 2EC there is no witness and no candidate is rejected early."""
    max_len = min(CONTRACTIBLE_CYCLE_MAX, int(params.size_floor))
    cycles = simple_cycles_upto(g, max_len, limit=20000)
    witnesses = _sparse_witnesses(g)
    num, den = params.alpha.numerator, params.alpha.denominator
    for w in sorted({frozenset(c) for c in cycles},
                    key=lambda w: (len(w), sorted(w))):
        # count < |w| / alpha, in integers
        if any(sum(x in w for v in w for x in up[v]) * num < len(w) * den
               for up in witnesses):
            continue
        inside = [eid for eid, (u, v) in enumerate(g.edges)
                  if u in w and v in w and u != v]
        # G[w] is Hamiltonian, so its minimum 2ECSS has exactly |w| edges
        target = Fraction(len(w)) / params.alpha
        min_inside = len(inside) - oracle.max_removable_inside(g, inside, target)
        if min_inside < target:
            continue
        sub = _side_graph(g, set(w), set())
        try:
            opt_local = oracle.exact_min_2ecss(sub)
        except (oracle.NotTwoEdgeConnected, oracle.TooLarge):
            continue
        return set(w), _map_back(sub, opt_local)
    return None


# ---------------------------------------------------------------------------
# graph builders: a child's origin tags name its parent's edge ids (None on
# a dummy edge); a child made by contraction alone keeps the ids, untagged
# ---------------------------------------------------------------------------

def _side_graph(g: MultiGraph, verts: set[int], cut: set[int],
                dummy_edges: Sequence[tuple] = (), drop_cut_edges: bool = False
                ) -> MultiGraph:
    """G[verts ∪ cut] plus named dummy vertices and dummy edges (origin
    None).  Names in ``dummy_edges`` refer to cut vertices (ints) or dummy
    names (strings)."""
    idx: dict = {v: i for i, v in enumerate(sorted(verts | cut))}
    edges = []
    origin: list[Optional[int]] = []
    for eid, (u, v) in enumerate(g.edges):
        if u in idx and v in idx:
            if drop_cut_edges and u in cut and v in cut:
                continue
            edges.append((idx[u], idx[v]))
            origin.append(eid)
    for a, b in dummy_edges:
        for x in (a, b):
            if x not in idx:
                idx[x] = len(idx)
        edges.append((idx[a], idx[b]))
        origin.append(None)
    child = MultiGraph(len(idx), edges)
    child.origin = origin
    return child


def _contracted_side(g: MultiGraph, v1, cut) -> MultiGraph:
    """G[V1 ∪ cut] | cut, with parent edge ids as origins: the contraction
    keeps the side graph's edge ids, so it takes the side graph's tags."""
    v1, cut = set(v1), set(cut)
    side = _side_graph(g, v1, cut)
    local_cut = {i for i, v in enumerate(sorted(v1 | cut)) if v in cut}
    child = contract(side, local_cut)[0]
    child.origin = side.origin
    return child


def _map_back(child: MultiGraph, sol: set[int]) -> set[int]:
    """Child solution -> parent edge ids, dummy edges dropped; an untagged
    child shares its parent's edge ids."""
    out = set()
    for e in sol:
        tag = child.origin[e] if child.origin is not None else e
        if tag is not None:
            out.add(tag)
    return out


def min_augment_to_2ec(g: MultiGraph, base: set[int], max_size: int,
                       pool: Optional[list[int]] = None) -> Optional[set[int]]:
    """Smallest F (connect greedily, then patch up to 2 edges) such that
    base ∪ F is 2EC spanning."""
    if oracle._two_ec_on(g, base):
        return set()
    if pool is None:
        pool = [e for e in range(g.m) if e not in base
                and g.edges[e][0] != g.edges[e][1]]
    chosen: list[int] = []
    cur = set(base)
    # greedy connectivity
    while True:
        comps = connected_components(g, cur)
        if len(comps) == 1:
            break
        comp_of = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        joined = False
        for e in pool:
            if e in cur:
                continue
            u, v = g.edges[e]
            if comp_of[u] != comp_of[v]:
                cur.add(e)
                chosen.append(e)
                joined = True
                break
        if not joined:
            return None
        if len(chosen) > max_size:
            return None
    if oracle._two_ec_on(g, cur):
        return set(chosen)
    rest = [e for e in pool if e not in cur]
    for size in (1, 2, 3):
        if len(chosen) + size > max_size:
            break
        for comb in itertools.combinations(rest, size):
            if oracle._two_ec_on(g, cur | set(comb)):
                return set(chosen) | set(comb)
    return None


# ---------------------------------------------------------------------------
# side solution types
# ---------------------------------------------------------------------------

def _shape_of(g: MultiGraph, eids: set[int], verts: set[int],
              cut: list[int]) -> Optional[str]:
    """Type of a side subgraph w.r.t. the cut vertices, or None."""
    # components over verts (isolated cut vertices are their own component),
    # each of which must hold a cut vertex
    comps = [set(c) for c in connected_components(g, eids) if c[0] in verts]
    if any(c.isdisjoint(cut) for c in comps):
        return None
    bridges, class_of, k = two_edge_classes(g, eids)
    # supernode trees: per component, nodes = 2EC classes, edges = bridges
    comp_classes = [{class_of[v] for v in c} for c in comps]
    tree_deg = [0] * k
    for e in bridges:
        u, v = g.edges[e]
        tree_deg[class_of[u]] += 1
        tree_deg[class_of[v]] += 1
    cut_class = {class_of[c] for c in cut}
    # every leaf class (tree degree <= 1 within a multi-class component)
    # must host a cut vertex, otherwise no 2EC completion exists; this also
    # rejects an inner vertex of degree below 2
    for cls in comp_classes:
        if len(cls) > 1 and any(tree_deg[c] <= 1 and c not in cut_class
                                for c in cls):
            return None
    # so a component's class tree has at most as many leaves as it holds cut
    # vertices: with one it is a single class, with two a path between them
    if len(comps) == 1:
        if len(comp_classes[0]) == 1:
            return "A"
        if len(cut) == 2:
            return "B"
        # three cut vertices in two classes sit at the two ends of a path
        return "B1" if len(cut_class) == 2 else "C1"
    if len(cut) == 2:
        return "C"
    if len(comps) == 3:
        return "C3"
    # one component with one cut vertex is 2EC; the other is too, or a path
    return "B2" if all(len(cls) == 1 for cls in comp_classes) else "C2"


# side-1 type -> side-2 types that can complete it (feasible combinations)
COMPATIBLE = {
    "A": {"A", "B1", "B2", "C1", "C2", "C3"},
    "B1": {"A", "B1", "B2", "C1", "C2"},
    "B2": {"A", "B1", "B2"},
    "C1": {"A", "B1", "C1"},
    "C2": {"A", "B1"},
    "C3": {"A"},
    "B": {"A", "B"},
    "C": {"A"},
}


def side2_availability(g: MultiGraph, v2: set[int], cut: list[int]) -> set[str]:
    """Which completion types the big side can offer, judged on its full
    edge set: 'A' needs the whole side 2EC, 'B1'/'B' need two cut vertices
    on a common cycle; the remaining types are not constrained here."""
    side = _side_graph(g, set(v2), set(cut), drop_cut_edges=True)
    _, cls, k = two_edge_classes(side, range(side.m))
    out = {"B", "B2", "C1", "C2", "C3", "C"}
    if k == 1:
        return out | {"A", "B1"}
    local = sorted(set(v2) | set(cut))
    if len({cls[local.index(c)] for c in cut}) < len(cut):
        out.add("B1")               # two cut vertices share a 2EC class
    return out


def classify_side_types(g: MultiGraph, v1: set[int], cut: list[int],
                        allowed: set[str]) -> tuple[Optional[str], list[set[int]]]:
    """The type the reducer gives the small side V1 of ``cut`` among the
    ``allowed`` types, with its optima in host edge ids, or (None, []) when
    no allowed type exists.  The type is the cheapest, ties going to the
    stronger (``T2_ORDER``/``T3_ORDER``), or B1 when it costs at most one
    edge more and the cheapest is not A.  C2 and C3 come with every optimum
    in search order, for their reassemblies to choose from, and any other
    type with its first.

    One include-first branch and bound over the loop-free edges of
    G[V1 ∪ cut] (``_side_graph``: vertices relabelled in order, edges in id
    order) types each leaf with ``_shape_of``.  ``need`` is the inner
    vertices' total degree deficit (cut vertices need none), which an edge
    lowers by at most 2.  ``parts`` counts the components of the chosen
    edges; an edge joins at most two, and a leaf has at most ``most``, since
    each component holds a cut vertex and A, B, B1 and C1 have one.  A node
    is cut when size + max(ceil(need/2), parts - most) exceeds the cheapest
    allowed type found so far, plus one while B1 one edge dearer could still
    win.  No node on the path to a leaf that the answer reads exceeds that,
    so the answer is the full enumeration's.  Past ``oracle.NODE_BUDGET``
    nodes the search raises ``TooLarge``."""
    order = [t for t in (T2_ORDER if len(cut) == 2 else T3_ORDER)
             if t in allowed]
    most = 1 if set(order) <= {"A", "B", "B1", "C1"} else len(cut)
    side = _side_graph(g, set(v1), set(cut))
    local = {v: i for i, v in enumerate(sorted(set(v1) | set(cut)))}
    lcut = [local[c] for c in cut]
    verts = set(range(side.n))
    want = [0] * side.n                 # the degree a leaf needs
    for v in v1:
        want[local[v]] = 2
    pool = [e for e, (u, v) in enumerate(side.edges) if u != v]
    ends = [side.edges[e] for e in pool]
    deg = [0] * side.n
    slack = [0] * side.n                # deg plus the undecided edges
    for u, v in ends:
        slack[u] += 1
        slack[v] += 1
    up = list(range(side.n))            # union-find of the chosen edges
    chosen: list[int] = []
    size_of: dict[str, int] = {}
    optima: dict[str, list[set[int]]] = {}
    bound = len(pool)                   # no leaf is larger
    nodes = 0

    def rec(i: int, size: int, need: int, parts: int) -> None:
        nonlocal bound, nodes
        nodes += 1
        if nodes > oracle.NODE_BUDGET:
            raise oracle.TooLarge("side type search budget exhausted")
        if size + (need + 1) // 2 > bound or size + parts - most > bound:
            return
        if i == len(pool):
            t = None if need else _shape_of(side, set(chosen), verts, lcut)
            if t not in order or size > size_of.get(t, size):
                return
            if size < size_of.get(t, size + 1):
                size_of[t], optima[t] = size, []
            if not optima[t] or t in ("C2", "C3"):
                optima[t].append(set(chosen))
            best = min(size_of.values())
            b1 = size_of.get("B1", best + 2)
            bound = best + ("B1" in order and b1 > best + 1)
            return
        u, v = ends[i]
        lifted = (deg[u] < want[u]) + (deg[v] < want[v])
        deg[u] += 1
        deg[v] += 1
        chosen.append(pool[i])
        a, b = u, v
        while up[a] != a:
            a = up[a]
        while up[b] != b:
            b = up[b]
        up[b] = a
        rec(i + 1, size + 1, need - lifted, parts - (a != b))
        up[b] = b
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        slack[u] -= 1
        slack[v] -= 1
        if slack[u] >= want[u] and slack[v] >= want[v]:
            rec(i + 1, size, need, parts)
        slack[u] += 1
        slack[v] += 1

    if all(s >= w for s, w in zip(slack, want)):
        rec(0, 0, sum(want), side.n)
    if not size_of:
        return None, []
    typ = min((t for t in order if t in size_of), key=size_of.__getitem__)
    if typ != "A" and size_of.get("B1", size_of[typ] + 2) <= size_of[typ] + 1:
        typ = "B1"
    return typ, [_map_back(side, sol) for sol in optima[typ]]


# the small side's type -> (the stand-in for it when the big side is reduced,
# a function of the cut vertices giving dummy edges, or None for the big
# side's closure G[V2 ∪ cut] | cut; the most edges that rejoin the two)
SUBSTITUTES: dict[str, tuple[Optional[Callable], int]] = {
    "B": (lambda u, v: [(u, "w"), (v, "w")], 2),    # a dummy vertex w
    "C": (lambda u, v: [(u, v)], 2),                # a dummy edge
    "B1": (None, 3),
    "B2": (None, 4),
    "C1": (None, 4),
}


# ---------------------------------------------------------------------------
# the checking order
# ---------------------------------------------------------------------------

# (kind, find, apply), tried in this order: ``find(g, params)`` returns a
# witness or None, and ``apply(reducer, g, witness)`` reduces on the first
# witness found.  Every witness is a ``CutDescriptor`` except the
# contractible part's (vertex set, kept edges).  The lambdas look finders and
# reducer methods up when called, so a wrapper installed on the module
# global or on the class sees every call.
DETECTORS: list[tuple[str, Callable, Callable]] = [
    ("Vertex1", lambda g, p: find_cut_vertex(g),
     lambda r, g, cut: r.split_cut_vertex(g, cut)),
    ("LoopOrParallel", lambda g, p: find_loop_or_parallel(g),
     lambda r, g, cut: r.drop_edge(g, cut, "DropLoopOrParallel")),
    ("Contractible", lambda g, p: find_contractible(g, p),
     lambda r, g, found: r.contract_part(g, *found)),
    ("IrrelevantEdge", lambda g, p: find_irrelevant_edge(g),
     lambda r, g, cut: r.drop_edge(g, cut, "DropIrrelevant")),
    ("Vertex2", lambda g, p: find_non_isolating_2vc(g),
     lambda r, g, cut: r.remove_2vc(g, cut)),
    ("Vertex3", lambda g, p: find_large_3vc(g, p),
     lambda r, g, cut: r.remove_3vc(g, cut)),
    ("CycleCut", lambda g, p: find_large_ck(g, p),
     lambda r, g, cut: r.remove_ck_cut(g, cut)),
    ("Vertex4", lambda g, p: find_large_4vc(g, p),
     lambda r, g, cut: r.remove_4vc(g, cut)),
]


def enumerate_cuts(g: MultiGraph, params: StructuredParams) -> list[CutDescriptor]:
    """The first cut in the checking order, as the reducer would get it, or
    [].  Contractible parts are not cuts and are skipped."""
    for kind, find, _apply in DETECTORS:
        found = None if kind == "Contractible" else find(g, params)
        if found is not None:
            return [found]
    return []


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------

def _step(sol: set[int], step: str, g: MultiGraph, detail: dict,
          children: Sequence[TraceNode] = ()) -> tuple[set[int], TraceNode]:
    """``sol`` with the trace node of the step on ``g`` that produced it."""
    return sol, TraceNode(step, g.n, g.m, detail, list(children), len(sol))


class Reducer:
    def __init__(self, params: StructuredParams,
                 inner: Optional[Callable[[MultiGraph], set[int]]] = None):
        self.params = params
        self.inner = inner

    # -- public entry -------------------------------------------------------

    def red(self, g: MultiGraph) -> tuple[set[int], TraceNode]:
        if not is_two_edge_connected(g):
            raise oracle.NotTwoEdgeConnected("reduction input is not 2EC")
        return self._red(g)

    # -- recursion ----------------------------------------------------------

    def _red(self, g: MultiGraph) -> tuple[set[int], TraceNode]:
        p = self.params
        if p.is_base_size(g.n):
            sol = oracle.exact_min_2ecss(g)
            return _step(sol, "BruteForce", g, {"size": len(sol)})
        for _kind, find, apply in DETECTORS:
            found = find(g, p)
            if found is not None:
                return apply(self, g, found)
        if self.inner is None:
            raise ReductionError(
                f"structured instance with n={g.n} but no inner solver")
        return _step(self.inner(g), "CallInner", g, {})

    def _reduce_child(self, child: MultiGraph) -> tuple[set[int], TraceNode]:
        """The child's solution in parent edge ids (dummy edges dropped), and
        its trace."""
        r, t = self._red(child)
        return _map_back(child, r), t

    def _reduce_sides(self, g: MultiGraph, cut, v1: set[int], v2: set[int]
                      ) -> tuple[set[int], list[TraceNode]]:
        """Reduce G[V1 ∪ cut] | cut and G[V2 ∪ cut] | cut; the union of
        their solutions in parent edge ids, and the two child traces."""
        h1, t1 = self._reduce_child(_contracted_side(g, v1, cut))
        h2, t2 = self._reduce_child(_contracted_side(g, v2, cut))
        return h1 | h2, [t1, t2]

    def _both_large(self, g: MultiGraph, step: str, branch: str, cut,
                    v1: set[int], v2: set[int]) -> tuple[set[int], TraceNode]:
        """Reduce both sides of a k-vertex cut on their own and join them
        with at most 2k - 2 edges."""
        sol, children = self._reduce_sides(g, cut, v1, v2)
        f = min_augment_to_2ec(g, sol, 2 * len(cut) - 2)
        if f is None:
            raise ReductionError(f"no joining edges for {step}/{branch}")
        return _step(sol | f, step, g, {"cut": list(cut), "branch": branch,
                                        "f_edges": sorted(f)}, children)

    # -- cut vertices, dropped edges and contractible parts ------------------

    def split_cut_vertex(self, g: MultiGraph, cut: CutDescriptor
                         ) -> tuple[set[int], TraceNode]:
        sol, children = self._reduce_sides(g, cut.vertices,
                                           *map(set, cut.sides))
        return _step(sol, "SplitCutVertex", g, {"cut": list(cut.vertices)},
                     children)

    def drop_edge(self, g: MultiGraph, cut: CutDescriptor, step: str
                  ) -> tuple[set[int], TraceNode]:
        e = cut.edge
        child = MultiGraph(g.n, [uv for i, uv in enumerate(g.edges) if i != e])
        child.origin = [i for i in range(g.m) if i != e]
        h, t = self._reduce_child(child)
        return _step(h, step, g, {"edge": e}, [t])

    def contract_part(self, g: MultiGraph, w: set[int], kept: set[int],
                      **via) -> tuple[set[int], TraceNode]:
        """Contract ``w`` to one vertex and add ``kept``, an optimal edge set
        inside it, to the child's solution."""
        h, t = self._reduce_child(contract(g, w)[0])
        return _step(h | set(kept), "ContractContractible", g,
                     {"vertices": sorted(w), "kept": len(kept), **via}, [t])

    # -- algorithms 2 and 3: non-isolating 2-vertex and large 3-vertex cuts --

    def remove_2vc(self, g: MultiGraph, found: CutDescriptor
                   ) -> tuple[set[int], TraceNode]:
        return self._remove_small_cut(g, found, "Remove2VC")

    def remove_3vc(self, g: MultiGraph, found: CutDescriptor
                   ) -> tuple[set[int], TraceNode]:
        return self._remove_small_cut(g, found, "Remove3VC")

    def _remove_small_cut(self, g: MultiGraph, found: CutDescriptor, step: str
                          ) -> tuple[set[int], TraceNode]:
        """Join two large sides, or type the small side V1: contract it when
        its type is A, and otherwise solve it alone, reduce the big side with
        a stand-in for it and rejoin the two.  A side the typing search
        cannot finish within its budget is joined as a large one."""
        if found.sides is None:
            raise ReductionError(f"{step}: no side of two vertices")
        v1, v2 = sorted(map(set, found.sides), key=len)
        cut = list(found.vertices)
        if Fraction(len(v1)) > self.params.size_floor:
            return self._both_large(g, step, "both-large", cut, v1, v2)
        avail2 = side2_availability(g, v2, cut)
        # types the big side can complete
        allowed = {t for t, fits in COMPATIBLE.items() if fits & avail2}
        try:
            typ, optima = classify_side_types(g, v1, cut, allowed)
        except oracle.TooLarge:
            # too dense to type: solve the side alone, as a large one
            return self._both_large(g, step, "untyped", cut, v1, v2)
        if typ == "A":
            # every completion spends at least opt_1^A inside the side, so
            # the side is alpha-contractible (the short-cycle candidate scan
            # cannot see subgraphs this large)
            return self.contract_part(g, v1 | set(cut), optima[0],
                                      via="type-A-side")
        if typ == "C2":
            return self._three_vc_c2(g, cut, v2, optima)
        if typ == "C3":
            return self._three_vc_c3(g, cut, v1, v2, optima)
        if typ not in SUBSTITUTES:
            raise ReductionError(f"{step} side admits no feasible type")
        stand_in, budget = SUBSTITUTES[typ]
        opt1 = optima[0]
        h2, t = self._reduce_child(
            _contracted_side(g, v2, cut) if stand_in is None else
            _side_graph(g, v2, set(cut), stand_in(*cut), drop_cut_edges=True))
        # one call with the row's budget: the greedy phase and the patch
        # sizes run in the same order under any budget, and a larger one only
        # tries more, so it returns what a smaller one would have found
        f = min_augment_to_2ec(g, set(opt1) | h2, budget)
        if f is None:
            raise ReductionError(f"{step}/{typ} reassembly failed")
        return _step(set(opt1) | h2 | f, step, g,
                     {"cut": cut, "branch": typ, "opt1": len(opt1),
                      "f_edges": sorted(f)}, [t])

    def _three_vc_c2(self, g, cut, v2, optima) -> tuple[set[int], TraceNode]:
        # the cut pairs joined by an optimum's path component; two distinct
        # pairs of the three cut vertices share exactly one
        pairs = {_c2_path_pair(g, sol, cut) for sol in optima} - {None}
        u, v, w = cut
        subcase, dummies = "iii", [(u, "y"), (v, "y"), (w, "y")]
        if len(pairs) == 1:
            [(u, v)] = pairs
            w = next(x for x in cut if x not in (u, v))
            subcase, dummies = "i", [(u, "y"), (v, "y"), (v, w)]
        elif len(pairs) == 2:
            [v] = set.intersection(*map(set, pairs))
            u, w = sorted(set().union(*pairs) - {v})
            subcase, dummies = "ii", [(u, "y"), (v, "z"), ("z", "y"), (w, "y")]
        h2, t = self._reduce_child(
            _side_graph(g, v2, set(cut), dummies, drop_cut_edges=True))
        best_sol = best_f = None
        for opt1 in optima:
            f = min_augment_to_2ec(g, set(opt1) | h2, 1)
            if f is None:
                continue
            cand = set(opt1) | h2 | f
            if best_sol is None or (len(cand), sorted(cand)) < (len(best_sol), sorted(best_sol)):
                best_sol, best_f = cand, f
        if best_sol is None:
            for opt1 in optima:
                f = min_augment_to_2ec(g, set(opt1) | h2, 3)
                if f is not None:
                    best_sol, best_f = set(opt1) | h2 | f, f
                    break
        if best_sol is None:
            raise ReductionError("C2 reassembly failed")
        return _step(best_sol, "Remove3VC", g,
                     {"cut": list(cut), "branch": f"C2{subcase}",
                      "f_edges": sorted(best_f)}, [t])

    def _three_vc_c3(self, g, cut, v1, v2, optima
                     ) -> tuple[set[int], TraceNode]:
        verts = v1 | set(cut)
        pick = None
        for opt1 in optima:
            cls = two_edge_classes(g, opt1)[1]
            for (a, b, c) in itertools.permutations(cut):
                e_ab = _class_connector(g, opt1, cls, verts, a, b)
                e_bc = _class_connector(g, opt1, cls, verts, b, c)
                if e_ab is not None and e_bc is not None:
                    pick = (opt1, (a, b, c), e_ab, e_bc)
                    break
            if pick:
                break
        if pick is None:
            raise ReductionError("no C3 solution with connecting edges")
        opt1, (a, b, c), e_ab, e_bc = pick
        h2, t = self._reduce_child(
            _side_graph(g, v2, set(cut), [(a, b), (a, b), (b, c), (b, c)],
                        drop_cut_edges=True))
        f = min_augment_to_2ec(g, set(opt1) | h2, 4,
                               pool=sorted({e_ab, e_bc} |
                                           set(range(g.m)) - set(opt1) - h2))
        if f is None:
            raise ReductionError("C3 reassembly failed")
        return _step(set(opt1) | h2 | f, "Remove3VC", g,
                     {"cut": list(cut), "branch": "C3",
                      "f_edges": sorted(f)}, [t])

    # -- algorithm 4: large cycle cuts ---------------------------------------

    def remove_ck_cut(self, g: MultiGraph, cut: CutDescriptor
                      ) -> tuple[set[int], TraceNode]:
        cyc = list(cut.cycle_order)
        v1, v2 = map(set, cut.sides)
        k = len(cyc)
        cyc_edges = []
        for i in range(k):
            a, b = cyc[i], cyc[(i + 1) % k]
            ids = g.edge_ids_between(a, b)
            if not ids:
                raise ReductionError("cycle cut vertices do not form a cycle")
            cyc_edges.append(ids[0])
        sol, children = self._reduce_sides(g, cyc, v1, v2)
        return _step(sol | set(cyc_edges), "RemoveCkCut", g,
                     {"cut": list(cyc), "k": k,
                      "cycle_edges": sorted(cyc_edges)}, children)

    # -- algorithm 5: large 4-vertex cuts -------------------------------------

    def remove_4vc(self, g: MultiGraph, found: CutDescriptor
                   ) -> tuple[set[int], TraceNode]:
        cut = set(found.vertices)
        v1, v2 = map(set, found.sides)
        if found.condition == 1:
            return self._both_large(g, "Remove4VC", "case1", found.vertices,
                                    v1, v2)
        # condition 2: recurse on the big side only, close the small side
        g1p = _contracted_side(g, v1, cut)
        opt1 = oracle.exact_min_2ecss(g1p)
        opt1_parent = _map_back(g1p, opt1)
        h2, t2 = self._reduce_child(_contracted_side(g, v2, cut))
        budget = int(self.params.alpha * len(opt1))
        extra = min_augment_to_2ec(g, h2 | opt1_parent,
                                   budget - len(opt1_parent),
                                   pool=sorted(set(range(g.m)) - h2))
        if extra is None or len(opt1_parent | extra) > budget:
            raise ReductionError("no Z within the alpha budget for 4VC case 2")
        z = opt1_parent | extra
        return _step(h2 | z, "Remove4VC", g,
                     {"cut": sorted(cut), "branch": "case2",
                      "z_size": len(z), "opt1": len(opt1),
                      "budget": budget}, [t2])


def _c2_path_pair(g: MultiGraph, sol: set[int], cut
                  ) -> Optional[tuple[int, int]]:
    """For a C2-shaped side solution, the two cut vertices joined by the
    path component."""
    groups = [[c for c in cut if c in comp]
              for comp in connected_components(g, sol)]
    pairs = [tuple(sorted(grp)) for grp in groups if len(grp) == 2]
    return pairs[0] if len(pairs) == 1 else None


def _class_connector(g: MultiGraph, sol: set[int], cls: list[int],
                     verts: set[int], a: int, b: int) -> Optional[int]:
    """An unused side edge joining the 2EC classes of a and b; ``cls`` are
    the classes of ``sol`` (from ``two_edge_classes``)."""
    ends = {cls[a], cls[b]}
    for e, (u, v) in enumerate(g.edges):
        if e in sol or u == v:
            continue
        if u not in verts or v not in verts:
            continue
        if {cls[u], cls[v]} == ends:
            return e
    return None


def red(g: MultiGraph, params: StructuredParams,
        inner: Optional[Callable[[MultiGraph], set[int]]] = None
        ) -> tuple[set[int], TraceNode]:
    """Reduce, solve, reassemble; returns (edge set, trace)."""
    sol, trace = Reducer(params, inner).red(g)
    if not oracle._two_ec_on(g, sol):
        raise ReductionError("reduction produced an infeasible solution")
    return sol, trace
