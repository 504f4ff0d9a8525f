"""The recursive reduction to structured instances.

``red`` solves an instance of base size exactly.  Above it, the first entry
of ``DETECTORS`` (the checking order) whose finder fires reduces the graph,
and an instance that no entry matches is handed to the inner solver.  Every
step records a trace node sufficient to audit the size invariant afterwards.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import oracle
from .graph import (MultiGraph, connected_components, contract, find_bridges,
                    is_two_edge_connected, simple_cycles_upto)
from .params import StructuredParams

# 2-vertex-cut and 3-vertex-cut solution types, strongest first
T2_ORDER = ["A", "B", "C"]
T3_ORDER = ["A", "B1", "B2", "C1", "C2", "C3"]

# cycles of length <= 8 listed by one large-cycle-cut scan
CYCLE_CAP = 40000


class ReductionError(RuntimeError):
    pass


class InternalInvariantViolation(RuntimeError):
    pass


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

def _components_without(g: MultiGraph, cut: set[int]) -> list[list[int]]:
    return connected_components(g, None, set(cut))


def _grouping(g: MultiGraph, cut: set[int], min1: int,
              min2: Optional[int] = None) -> Optional[tuple[set[int], set[int]]]:
    """Partition of V - cut into (V1, V2) along component boundaries with
    |V1| >= min1 minimal and |V2| >= min2 (defaults to min1)."""
    if min2 is None:
        min2 = min1
    comps = _components_without(g, cut)
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
        if s >= min1 and total - s >= min2 and 0 < len(chosen) < len(comps):
            best = chosen
            break
    if best is None:
        return None
    v1: set[int] = set()
    for idx in best:
        v1.update(comps[idx])
    v2 = {v for c in comps for v in c} - v1
    return v1, v2


def find_cut_vertex(g: MultiGraph) -> Optional[int]:
    for v in range(g.n):
        if len(_components_without(g, {v})) > 1:
            return v
    return None


def find_loop_or_parallel(g: MultiGraph) -> Optional[int]:
    seen: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            return eid
        if (u, v) in seen:
            return eid
        seen[(u, v)] = eid
    return None


def find_irrelevant_edge(g: MultiGraph) -> Optional[int]:
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        if len(_components_without(g, {u, v})) > 1:
            return eid
    return None


def find_non_isolating_2vc(g: MultiGraph) -> Optional[tuple[int, int]]:
    for u, v in itertools.combinations(range(g.n), 2):
        comps = _components_without(g, {u, v})
        if len(comps) < 2:
            continue
        if len(comps) == 2 and min(len(c) for c in comps) == 1:
            continue
        return (u, v)
    return None


def find_large_3vc(g: MultiGraph, params: StructuredParams
                   ) -> Optional[tuple[tuple[int, int, int], set[int], set[int]]]:
    t = params.three_cut_side
    for trip in itertools.combinations(range(g.n), 3):
        cut = set(trip)
        grouping = _grouping(g, cut, t)
        if grouping is not None:
            return trip, grouping[0], grouping[1]
    return None


def find_large_ck(g: MultiGraph, params: StructuredParams
                  ) -> Optional[tuple[list[int], set[int], set[int]]]:
    cycles = simple_cycles_upto(g, 8, limit=CYCLE_CAP)
    by_len = sorted((c for c in cycles if len(c) >= 4),
                    key=lambda c: (len(c), c))
    for cyc in by_len:
        k = len(cyc)
        t = params.ck_side(k)
        grouping = _grouping(g, set(cyc), t)
        if grouping is not None:
            return cyc, grouping[0], grouping[1]
    return None


def find_large_4vc(g: MultiGraph, params: StructuredParams) -> Optional[dict]:
    t1 = params.four_cut_side_2
    for quad in itertools.combinations(range(g.n), 4):
        cut = set(quad)
        comps = _components_without(g, cut)
        if len(comps) < 2:
            continue
        grouping = _grouping(g, cut, t1)
        if grouping is not None:
            return {"cut": quad, "condition": 1,
                    "v1": grouping[0], "v2": grouping[1]}
        small = _grouping(g, cut, 1, 1)
        if small is None:
            continue
        v1, v2 = small
        if len(v1) > t1 - 2:
            continue
        # conservative condition-2 test: an optimal closure of the small side
        # plus at most 4 patch edges must fit in the alpha budget
        g1p = _contracted_side(g, v1, quad)
        try:
            opt1 = len(oracle.exact_min_2ecss(g1p, limit=params.oracle_limit))
        except (oracle.TooLarge, oracle.NotTwoEdgeConnected):
            continue
        if Fraction(opt1 + 4) <= params.alpha * opt1:
            return {"cut": quad, "condition": 2, "v1": v1, "v2": v2,
                    "opt1": opt1}
    return None


def find_contractible(g: MultiGraph, params: StructuredParams
                      ) -> Optional[tuple[set[int], set[int]]]:
    """A contractible candidate among short cycles: (vertex set, the edge ids
    of a minimum 2ECSS of the induced subgraph)."""
    max_len = min(params.contractible_cycle_max, int(params.size_floor))
    cycles = simple_cycles_upto(g, max_len, limit=20000)
    seen: set[frozenset[int]] = set()
    for cyc in sorted(cycles, key=lambda c: (len(c), sorted(c))):
        w = frozenset(cyc)
        if w in seen:
            continue
        seen.add(w)
        inside = [eid for eid, (u, v) in enumerate(g.edges)
                  if u in w and v in w and u != v]
        sub = _side_graph(g, set(w), set())
        try:
            opt_local = oracle.exact_min_2ecss(sub, limit=16)
        except (oracle.NotTwoEdgeConnected, oracle.TooLarge):
            continue
        removable = oracle.max_removable_inside(g, inside)
        min_inside = len(inside) - removable
        if Fraction(min_inside) >= Fraction(len(opt_local)) / params.alpha:
            opt_parent = {sub.origin[e] for e in opt_local}
            return set(w), opt_parent
    return None


# ---------------------------------------------------------------------------
# graph builders (children carry parent edge ids as origins; dummies None)
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


def _contracted_side(g: MultiGraph, v1: set[int], cut) -> MultiGraph:
    """G[V1 ∪ cut] | cut, with parent edge ids as origins."""
    cut = set(cut)
    side = _side_graph(g, v1, cut)
    local_cut = {i for i, v in enumerate(sorted(v1 | cut)) if v in cut}
    return contract(side, local_cut)[0]


def _map_back(child: MultiGraph, sol: set[int]) -> set[int]:
    """Child solution -> parent edge ids, dummy edges dropped."""
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
    deg = {v: 0 for v in verts}
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    for e in eids:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
        adj[u].append((v, e))
        adj[v].append((u, e))
    inner = verts - set(cut)
    if any(deg[v] < 2 for v in inner):
        return None
    # components over verts (isolated cut vertices are their own component)
    comp_of: dict[int, int] = {}
    comps: list[set[int]] = []
    for s in sorted(verts):
        if s in comp_of:
            continue
        cidx = len(comps)
        stack = [s]
        comp_of[s] = cidx
        cset = {s}
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in comp_of:
                    comp_of[y] = cidx
                    cset.add(y)
                    stack.append(y)
        comps.append(cset)
    for cset in comps:
        if not cset & set(cut):
            return None
    bridges = find_bridges(g, eids)
    # 2EC classes: components after deleting bridges
    class_of: dict[int, int] = {}
    nb_adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in eids:
        if e in bridges:
            continue
        u, v = g.edges[e]
        nb_adj[u].append(v)
        nb_adj[v].append(u)
    classes: list[set[int]] = []
    for s in sorted(verts):
        if s in class_of:
            continue
        cidx = len(classes)
        stack = [s]
        class_of[s] = cidx
        cset = {s}
        while stack:
            x = stack.pop()
            for y in nb_adj[x]:
                if y not in class_of:
                    class_of[y] = cidx
                    cset.add(y)
                    stack.append(y)
        classes.append(cset)
    # supernode trees: per component, nodes = classes, edges = bridges
    comp_classes: dict[int, set[int]] = {}
    for ci in range(len(comps)):
        comp_classes[ci] = set()
    for v in verts:
        comp_classes[comp_of[v]].add(class_of[v])
    tree_deg: dict[int, int] = {c: 0 for c in range(len(classes))}
    for e in bridges:
        u, v = g.edges[e]
        tree_deg[class_of[u]] += 1
        tree_deg[class_of[v]] += 1
    cut_class = [class_of[c] for c in cut]
    # every leaf class (tree degree <= 1 within a multi-class component)
    # must host a cut vertex, otherwise no 2EC completion exists
    for ci, cls in comp_classes.items():
        if len(cls) == 1:
            continue
        for c in cls:
            if tree_deg[c] <= 1 and c not in cut_class:
                return None
    ncomp = len(comps)
    if len(cut) == 2:
        u_cl, v_cl = cut_class
        if ncomp == 1:
            if len(comp_classes[0]) == 1:
                return "A"
            # path check: exactly two leaves, which are C(u) and C(v)
            leaves = [c for c in comp_classes[0] if tree_deg[c] == 1]
            if all(tree_deg[c] <= 2 for c in comp_classes[0]) and \
                    set(leaves) <= {u_cl, v_cl} and u_cl != v_cl:
                return "B"
            return None
        if ncomp == 2:
            if all(len(comp_classes[ci]) == 1 for ci in range(2)) \
                    and u_cl != v_cl:
                return "C"
        return None
    # arity 3
    u_cl, v_cl, w_cl = cut_class
    distinct = len({u_cl, v_cl, w_cl})
    if ncomp == 1:
        cls = comp_classes[0]
        if len(cls) == 1:
            return "A"
        leaves = [c for c in cls if tree_deg[c] == 1]
        is_path = all(tree_deg[c] <= 2 for c in cls)
        if is_path:
            ends = set(leaves)
            cut_at_ends = all(c in ends for c in set(cut_class))
            per_end = {e: sum(1 for c in cut_class if c == e) for e in ends}
            if cut_at_ends and all(v <= 2 for v in per_end.values()):
                if distinct == 3 and all(per_end.get(e, 0) >= 1 for e in ends):
                    # u, v, w spread over exactly the two path ends
                    return "B1"
                if distinct == 2:
                    return "B1"
        if distinct == 3:
            return "C1"
        return None
    if ncomp == 2:
        sizes = sorted(len(comp_classes[ci]) for ci in range(2))
        per_comp_cut = [sum(1 for c in cut if comp_of[c] == ci)
                        for ci in range(2)]
        if sizes == [1, 1] and sorted(per_comp_cut) == [1, 2] and distinct >= 2:
            return "B2"
        # C2: one path component with a cut vertex at each end, one isolated
        for ci in range(2):
            cls = comp_classes[ci]
            other = 1 - ci
            if len(comp_classes[other]) != 1 or per_comp_cut[other] != 1:
                continue
            if len(cls) < 2 or per_comp_cut[ci] != 2:
                continue
            leaves = [c for c in cls if tree_deg[c] == 1]
            if all(tree_deg[c] <= 2 for c in cls):
                here = [class_of[c] for c in cut if comp_of[c] == ci]
                if len(set(here)) == 2 and set(here) == set(leaves):
                    return "C2"
        return None
    if ncomp == 3:
        if all(len(comp_classes[ci]) == 1 for ci in range(3)) and distinct == 3 \
                and all(sum(1 for c in cut if comp_of[c] == ci) == 1
                        for ci in range(3)):
            return "C3"
    return None


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
    verts = sorted(set(v2) | set(cut))
    idx = {v: i for i, v in enumerate(verts)}
    edges = []
    for (u, v) in g.edges:
        if u in idx and v in idx:
            if u in cut and v in cut:
                continue
            edges.append((idx[u], idx[v]))
    full = MultiGraph(len(verts), edges)
    out = {"B", "B2", "C1", "C2", "C3", "C"}
    if is_two_edge_connected(full):
        out |= {"A", "B1"}
        return out
    bridges = find_bridges(full)
    nb: dict[int, set[int]] = {}
    for eid, (u, v) in enumerate(full.edges):
        if eid in bridges:
            continue
        nb.setdefault(u, set()).add(v)
        nb.setdefault(v, set()).add(u)

    def cls(s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nb.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    cut_local = [idx[c] for c in cut]
    classes = [cls(c) for c in cut_local]
    for i in range(len(cut_local)):
        for j in range(i + 1, len(cut_local)):
            if cut_local[j] in classes[i]:
                out.add("B1")
    return out


class SideTypeTable:
    """Per-type minimum side subgraphs for a small cut side."""

    def __init__(self, g: MultiGraph, v1: set[int], cut: list[int],
                 collect_all: bool = False):
        self.g = g
        self.v1 = set(v1)
        self.cut = list(cut)
        self.verts = self.v1 | set(cut)
        self.pool = sorted(e for e, (u, v) in enumerate(g.edges)
                           if u in self.verts and v in self.verts and u != v)
        self.minima: dict[str, Optional[set[int]]] = {}
        self.all_optima: dict[str, list[set[int]]] = {}
        self._enumerate(collect_all)

    def _enumerate(self, collect_all: bool) -> None:
        order = T2_ORDER if len(self.cut) == 2 else T3_ORDER
        sizes: dict[str, int] = {}
        best: dict[str, set[int]] = {}
        alls: dict[str, list[set[int]]] = {t: [] for t in order}
        pool = self.pool
        n_inner = len(self.v1)

        def rec(i: int, chosen: list[int], deg: dict[int, int], worst: int):
            if len(chosen) > worst:
                return
            deficit = sum(max(0, 2 - deg[v]) for v in self.v1)
            if len(chosen) + (deficit + 1) // 2 > worst:
                return
            if i == len(pool):
                if deficit > 0:
                    return
                shape = _shape_of(self.g, set(chosen), self.verts, self.cut)
                if shape is None:
                    return
                sz = len(chosen)
                if shape not in sizes or sz < sizes[shape]:
                    sizes[shape] = sz
                    best[shape] = set(chosen)
                    alls[shape] = [set(chosen)]
                elif collect_all and sz == sizes[shape]:
                    alls[shape].append(set(chosen))
                return
            remaining = pool[i:]
            gain: dict[int, int] = {v: 0 for v in self.v1}
            if deficit:
                for e in remaining:
                    u, v = self.g.edges[e]
                    if u in gain:
                        gain[u] += 1
                    if v in gain:
                        gain[v] += 1
                if any(gain[v] < max(0, 2 - deg[v]) for v in self.v1):
                    return
            e = pool[i]
            u, v = self.g.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            chosen.append(e)
            rec(i + 1, chosen, deg, worst)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            rec(i + 1, chosen, deg, worst)

        worst = len(pool)
        rec(0, [], {v: 0 for v in self.verts}, worst)
        for t in order:
            self.minima[t] = best.get(t)
            self.all_optima[t] = alls.get(t, [])

    def opt_size(self, t: str) -> Optional[int]:
        sol = self.minima.get(t)
        return None if sol is None else len(sol)

    def t_min(self, available: Optional[set[str]] = None
              ) -> tuple[Optional[str], Optional[set[int]]]:
        order = T2_ORDER if len(self.cut) == 2 else T3_ORDER
        best_t, best_sol = None, None
        for t in order:
            if available is not None and t not in available:
                continue
            sol = self.minima.get(t)
            if sol is None:
                continue
            if best_sol is None or len(sol) < len(best_sol):
                best_t, best_sol = t, sol
        return best_t, best_sol


def classify_side_types(g: MultiGraph, v1: set[int], cut: list[int],
                        collect_all: bool = False) -> SideTypeTable:
    return SideTypeTable(g, v1, cut, collect_all)


# ---------------------------------------------------------------------------
# the checking order
# ---------------------------------------------------------------------------

# (kind, find, apply), tried in this order: ``find(g, params)`` returns a
# witness or None, and ``apply(reducer, g, witness)`` reduces on the first
# witness found.  ``cuts.enumerate_cuts`` walks the same list.  The lambdas
# look finders and reducer methods up when called, so a wrapper installed on
# the module global or on the class sees every call.
DETECTORS: list[tuple[str, Callable, Callable]] = [
    ("Vertex1", lambda g, p: find_cut_vertex(g),
     lambda r, g, v: r.split_cut_vertex(g, v)),
    ("LoopOrParallel", lambda g, p: find_loop_or_parallel(g),
     lambda r, g, e: r.drop_edge(g, e, "DropLoopOrParallel")),
    ("Contractible", lambda g, p: find_contractible(g, p),
     lambda r, g, found: r.contract_part(g, *found)),
    ("IrrelevantEdge", lambda g, p: find_irrelevant_edge(g),
     lambda r, g, e: r.drop_edge(g, e, "DropIrrelevant")),
    ("Vertex2", lambda g, p: find_non_isolating_2vc(g),
     lambda r, g, cut: r.remove_2vc(g, cut)),
    ("Vertex3", lambda g, p: find_large_3vc(g, p),
     lambda r, g, found: r.remove_3vc(g, *found)),
    ("CycleCut", lambda g, p: find_large_ck(g, p),
     lambda r, g, found: r.remove_ck_cut(g, *found)),
    ("Vertex4", lambda g, p: find_large_4vc(g, p),
     lambda r, g, info: r.remove_4vc(g, info)),
]


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
            sol = oracle.exact_min_2ecss(g, limit=max(p.oracle_limit, g.n))
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

    def _split_and_rejoin(self, g: MultiGraph, cut, v1: set[int], v2: set[int],
                          budget: Optional[int] = None, case: str = ""
                          ) -> tuple[set[int], set[int], list[TraceNode]]:
        """Reduce G[V1 ∪ cut] | cut and G[V2 ∪ cut] | cut, map both back
        and, given a ``budget``, join them with at most that many edges.
        Returns (solution, joining edges, the two child traces)."""
        h1, t1 = self._reduce_child(_contracted_side(g, v1, cut))
        h2, t2 = self._reduce_child(_contracted_side(g, v2, cut))
        f: Optional[set[int]] = set()
        if budget is not None:
            f = min_augment_to_2ec(g, h1 | h2, budget)
            if f is None:
                raise ReductionError(f"no joining edges for the {case}")
        return h1 | h2 | f, f, [t1, t2]

    # -- cut vertices, dropped edges and contractible parts ------------------

    def split_cut_vertex(self, g: MultiGraph, v: int
                         ) -> tuple[set[int], TraceNode]:
        comps = _components_without(g, {v})
        v1 = set(comps[0])
        v2 = {x for c in comps[1:] for x in c}
        h1, t1 = self._reduce_child(_side_graph(g, v1, {v}))
        h2, t2 = self._reduce_child(_side_graph(g, v2, {v}))
        return _step(h1 | h2, "SplitCutVertex", g, {"cut": [v]}, [t1, t2])

    def drop_edge(self, g: MultiGraph, e: int, step: str
                  ) -> tuple[set[int], TraceNode]:
        child = MultiGraph(g.n, [uv for i, uv in enumerate(g.edges) if i != e])
        child.origin = [i for i in range(g.m) if i != e]
        h, t = self._reduce_child(child)
        return _step(h, step, g, {"edge": e}, [t])

    def contract_part(self, g: MultiGraph, w: set[int], kept: set[int],
                      **via) -> tuple[set[int], TraceNode]:
        """Contract ``w`` to one vertex and add ``kept``, an optimal edge set
        inside it, to the child's solution."""
        child, _ = contract(g, w)
        child.origin = list(range(g.m))   # immediate-parent edge ids
        h, t = self._reduce_child(child)
        return _step(h | set(kept), "ContractContractible", g,
                     {"vertices": sorted(w), "kept": len(kept), **via}, [t])

    # -- algorithm 2: non-isolating 2-vertex cuts ---------------------------

    def remove_2vc(self, g: MultiGraph, cut: tuple[int, int]
                   ) -> tuple[set[int], TraceNode]:
        p = self.params
        u, v = cut
        grouping = _grouping(g, {u, v}, 2)
        if grouping is None:
            raise ReductionError("2-vertex cut lost its partition")
        v1, v2 = grouping
        if len(v1) > len(v2):
            v1, v2 = v2, v1
        if Fraction(len(v1)) > p.size_floor:
            sol, f, children = self._split_and_rejoin(
                g, {u, v}, v1, v2, 2, "2VC both-large case")
            return _step(sol, "Remove2VC", g,
                         {"cut": [u, v], "branch": "both-large",
                          "f_edges": sorted(f)}, children)
        avail2 = side2_availability(g, v2, [u, v])
        allowed = {t for t in T2_ORDER if COMPATIBLE[t] & avail2}
        table = classify_side_types(g, v1, [u, v])
        t_min, opt_min = table.t_min(available=allowed)
        if t_min == "A":
            # every completion spends at least opt_1^A inside the side, so
            # the side is alpha-contractible (the short-cycle candidate scan
            # cannot see subgraphs this large)
            return self.contract_part(g, v1 | {u, v}, opt_min,
                                      via="type-A-side")
        if t_min not in ("B", "C"):
            raise ReductionError(f"2VC side admits no feasible type: {table.minima}")
        dummies = [(u, "w"), (v, "w")] if t_min == "B" else [(u, v)]
        h2, t = self._reduce_child(
            _side_graph(g, v2, {u, v}, dummies, drop_cut_edges=True))
        f: set[int] = set()
        if t_min == "C":
            f = min_augment_to_2ec(g, set(opt_min) | h2, 1) or set()
        sol = set(opt_min) | h2 | f
        if not oracle._two_ec_on(g, sol):
            extra = min_augment_to_2ec(g, sol, 2)
            if extra is None:
                raise ReductionError("2VC reassembly failed")
            sol |= extra
            f = f | extra
        return _step(sol, "Remove2VC", g,
                     {"cut": [u, v], "branch": t_min,
                      "opt1": table.opt_size(t_min),
                      "f_edges": sorted(f)}, [t])

    # -- algorithm 3: large 3-vertex cuts ------------------------------------

    def remove_3vc(self, g: MultiGraph, trip: tuple[int, int, int],
                   v1: set[int], v2: set[int]) -> tuple[set[int], TraceNode]:
        p = self.params
        if len(v1) > len(v2):
            v1, v2 = v2, v1
        cut = list(trip)
        if Fraction(len(v1)) > p.size_floor:
            sol, f, children = self._split_and_rejoin(
                g, cut, v1, v2, 4, "3VC both-large case")
            return _step(sol, "Remove3VC", g,
                         {"cut": cut, "branch": "both-large",
                          "f_edges": sorted(f)}, children)
        avail2 = side2_availability(g, v2, cut)
        allowed = {t for t in T3_ORDER if COMPATIBLE[t] & avail2}
        table = classify_side_types(g, v1, cut, collect_all=True)
        t_min, opt_min = table.t_min(available=allowed)
        if t_min == "A":
            return self.contract_part(g, v1 | set(cut), opt_min,
                                      via="type-A-side")
        b1 = table.opt_size("B1") if "B1" in allowed else None
        use_b1 = (b1 is not None and opt_min is not None
                  and b1 <= len(opt_min) + 1)
        if use_b1:
            return self._three_vc_contract_branch(g, cut, v1, v2, table, "B1")
        if t_min in ("B2", "C1"):
            return self._three_vc_contract_branch(g, cut, v1, v2, table, t_min)
        if t_min == "C2":
            return self._three_vc_c2(g, cut, v1, v2, table)
        if t_min == "C3":
            return self._three_vc_c3(g, cut, v1, v2, table)
        raise ReductionError(f"3VC side admits no feasible type: "
                             f"{ {t: table.opt_size(t) for t in T3_ORDER} }")

    def _three_vc_contract_branch(self, g, cut, v1, v2, table, typ
                                  ) -> tuple[set[int], TraceNode]:
        opt1 = table.minima[typ]
        h2, t = self._reduce_child(_contracted_side(g, v2, cut))
        budget = {"B1": 1, "B2": 2, "C1": 2}[typ]
        f = min_augment_to_2ec(g, set(opt1) | h2, budget)
        if f is None:
            f = min_augment_to_2ec(g, set(opt1) | h2, budget + 2) or set()
        return _step(set(opt1) | h2 | f, "Remove3VC", g,
                     {"cut": list(cut), "branch": typ,
                      "opt1": len(opt1), "f_edges": sorted(f)}, [t])

    def _three_vc_c2(self, g, cut, v1, v2, table) -> tuple[set[int], TraceNode]:
        optima = table.all_optima["C2"]
        pairs = set()
        for sol in optima:
            pr = _c2_path_pair(g, sol, table.verts, cut)
            if pr is not None:
                pairs.add(pr)
        u, v, w = cut
        if len(pairs) == 1:
            a, b = sorted(next(iter(pairs)))
            third = [x for x in cut if x not in (a, b)][0]
            u, v, w = a, b, third
            subcase = "i"
            dummies = [(u, "y"), (v, "y"), (v, w)]
        elif len(pairs) == 2:
            inter = set.intersection(*(set(pp) for pp in pairs))
            if len(inter) == 1:
                vshared = next(iter(inter))
                others = sorted({x for pp in pairs for x in pp} - inter)
                u, w = others
                v = vshared
                subcase = "ii"
                dummies = [(u, "y"), (v, "z"), ("z", "y"), (w, "y")]
            else:
                subcase = "iii"
                dummies = [(u, "y"), (v, "y"), (w, "y")]
        else:
            subcase = "iii"
            dummies = [(u, "y"), (v, "y"), (w, "y")]
        h2, t = self._reduce_child(
            _side_graph(g, v2, set(cut), dummies, drop_cut_edges=True))
        best_sol = None
        best_f = None
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

    def _three_vc_c3(self, g, cut, v1, v2, table) -> tuple[set[int], TraceNode]:
        optima = table.all_optima["C3"]
        pick = None
        for opt1 in optima:
            for (a, b, c) in itertools.permutations(cut):
                e_ab = _class_connector(g, opt1, table.verts, a, b)
                e_bc = _class_connector(g, opt1, table.verts, b, c)
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

    def remove_ck_cut(self, g: MultiGraph, cyc: list[int], v1: set[int],
                      v2: set[int]) -> tuple[set[int], TraceNode]:
        k = len(cyc)
        cyc_edges = []
        for i in range(k):
            a, b = cyc[i], cyc[(i + 1) % k]
            ids = g.edge_ids_between(a, b)
            if not ids:
                raise ReductionError("cycle cut vertices do not form a cycle")
            cyc_edges.append(ids[0])
        sol, _, children = self._split_and_rejoin(g, cyc, v1, v2)
        return _step(sol | set(cyc_edges), "RemoveCkCut", g,
                     {"cut": list(cyc), "k": k,
                      "cycle_edges": sorted(cyc_edges)}, children)

    # -- algorithm 5: large 4-vertex cuts -------------------------------------

    def remove_4vc(self, g: MultiGraph, info: dict) -> tuple[set[int], TraceNode]:
        cut = set(info["cut"])
        v1, v2 = info["v1"], info["v2"]
        if info["condition"] == 1:
            sol, f, children = self._split_and_rejoin(
                g, cut, v1, v2, 2 * 4 - 2, "4VC case 1")
            return _step(sol, "Remove4VC", g,
                         {"cut": sorted(cut), "branch": "case1",
                          "f_edges": sorted(f)}, children)
        # condition 2: recurse on the big side only, close the small side
        g1p = _contracted_side(g, v1, cut)
        opt1 = oracle.exact_min_2ecss(
            g1p, limit=max(self.params.oracle_limit, g1p.n))
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


def _c2_path_pair(g: MultiGraph, sol: set[int], verts: set[int],
                  cut) -> Optional[tuple[int, int]]:
    """For a C2-shaped side solution, the two cut vertices joined by the
    path component."""
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in sol:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    comp_of: dict[int, int] = {}
    ci = 0
    for s in sorted(verts):
        if s in comp_of:
            continue
        stack = [s]
        comp_of[s] = ci
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp_of:
                    comp_of[y] = ci
                    stack.append(y)
        ci += 1
    groups: dict[int, list[int]] = {}
    for c in cut:
        groups.setdefault(comp_of[c], []).append(c)
    pairs = [tuple(sorted(v)) for v in groups.values() if len(v) == 2]
    if len(pairs) == 1:
        return pairs[0]
    return None


def _class_connector(g: MultiGraph, sol: set[int], verts: set[int],
                     a: int, b: int) -> Optional[int]:
    """An unused side edge joining the 2EC classes of a and b."""
    bridges = find_bridges(g, sol)
    nb_adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in sol:
        if e in bridges:
            continue
        u, v = g.edges[e]
        nb_adj[u].append(v)
        nb_adj[v].append(u)

    def cls(s: int) -> set[int]:
        out = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nb_adj[x]:
                if y not in out:
                    out.add(y)
                    stack.append(y)
        return out

    ca, cb = cls(a), cls(b)
    for e, (u, v) in enumerate(g.edges):
        if e in sol or u == v:
            continue
        if u not in verts or v not in verts:
            continue
        if (u in ca and v in cb) or (v in ca and u in cb):
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
