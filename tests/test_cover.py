import itertools
import random

import pytest

from twoec import cover, harness, oracle
from twoec.cover import (canonicalize, is_canonical, min_triangle_free_cover,
                         _is_triangle_free_cover, _measure)
from twoec.decomp import C4, C8, CoverDecomposition
from twoec.gadgets import random2ec
from twoec.graph import MultiGraph, connected_components, find_bridges
from twoec.params import desk_params

P = desk_params()


def cycle_graph(k):
    return MultiGraph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return MultiGraph(k, list(itertools.combinations(range(k), 2)))


def test_cover_c8():
    g = cycle_graph(8)
    h, cert = min_triangle_free_cover(g)
    assert h == set(range(8)) and cert


def test_cover_k4_is_c4():
    g = complete_graph(4)
    h, _ = min_triangle_free_cover(g)
    assert len(h) == 4
    dec = CoverDecomposition(g, h, P)
    assert dec.components[0].tag == C4


def test_cover_prism():
    # two triangles + three rungs: min triangle-free cover is the 6-cycle
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                       (0, 3), (1, 4), (2, 5)])
    h, _ = min_triangle_free_cover(g)
    assert len(h) == 6
    dec = CoverDecomposition(g, h, P)
    assert len(dec.components) == 1 and not dec.components[0].bridges


def test_heuristic_cover_is_feasible():
    g = complete_graph(6)
    h, cert = min_triangle_free_cover(g, mode="heuristic")
    assert _is_triangle_free_cover(g, h)
    exact, _ = min_triangle_free_cover(g, mode="exact")
    assert len(h) >= len(exact)


def test_canonicalize_removes_chord():
    # C4 plus a chord inside one component of a two-component host
    g = MultiGraph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2),
                       (4, 5), (5, 6), (6, 7), (7, 8), (8, 4),
                       (1, 4), (3, 6)])
    h0 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}   # C4 + chord + C5
    assert _is_triangle_free_cover(g, h0)
    h, dec, steps = canonicalize(g, h0, P)
    assert len(h) == len(h0) - 1
    assert steps >= 1
    assert 4 not in h      # the chord 0-2


def test_canonicalize_merges_two_c4s():
    # two C4s joined in G by two edges allowing a C8 rewiring
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5),
             (2, 6)]
    g = MultiGraph(8, edges)
    h0 = set(range(8))
    h, dec, steps = canonicalize(g, h0, P)
    assert len(h) == 8
    assert len(dec.components) == 1
    assert dec.components[0].tag == C8


def test_canonicalize_fixed_point():
    g = cycle_graph(8)
    h0 = set(range(8))
    h, dec, steps = canonicalize(g, h0, P)
    assert h == h0 and steps == 0


def test_is_canonical_reports():
    g = cycle_graph(9)
    rep = is_canonical(g, set(range(9)), P)
    assert rep.clauses["non_complex_shape"]
    assert rep.clauses["huge_component"]   # 9 vertices >= desk huge threshold
    assert rep.ok


def test_is_canonical_flags_mergeable_c4s():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5)]
    g = MultiGraph(8, edges)
    rep = is_canonical(g, set(range(8)), P)
    assert not rep.clauses["no_mergeable_c4_pair"]
    assert "no_mergeable_c4_pair" in rep.witnesses


def test_is_canonical_flags_bad_pendant():
    # complex component: a C4 pendant block attached by a bridge to a C9
    edges = ([(i, (i + 1) % 9) for i in range(9)] +         # C9 block 0..8
             [(8, 9)] +                                     # bridge
             [(9, 10), (10, 11), (11, 12), (12, 9)] +       # C4 block
             [(10, 0), (12, 4)])                            # host-only edges
    g = MultiGraph(13, edges)
    h = set(range(14))
    rep = is_canonical(g, h, P)
    assert not rep.clauses["pendant_blocks"]


def test_weakly_canonical_allows_rich_vertices():
    g = MultiGraph(7, [(0, 1), (1, 2), (2, 0),
                       (0, 3), (3, 4),
                       (4, 5), (5, 6), (6, 4)])
    h = {0, 1, 2, 5, 6, 7}
    rep_strict = is_canonical(g, h, P, rich_vertices={3}, weak=False)
    rep_weak = is_canonical(g, h, P, rich_vertices={3}, weak=True)
    assert not rep_strict.clauses["two_edge_cover"]
    assert rep_weak.clauses["two_edge_cover"]


def test_subdivision_fixes_edges_into_covers():
    from twoec.gadgets import fix_edges_by_subdivision
    from twoec.oracle import exact_min_cover
    g = complete_graph(5)
    fixed = fix_edges_by_subdivision(g, {0, 1})
    assert fixed.n == g.n + 2
    cover = exact_min_cover(fixed, {3})
    mids = set(range(g.n, fixed.n))
    for e, (u, v) in enumerate(fixed.edges):
        if u in mids or v in mids:
            assert e in cover


# ---------------------------------------------------------------------------
# the exchange loop against its full-scan reference
# ---------------------------------------------------------------------------

def reference_measure(g, h):
    """``_measure`` with cut vertices counted by one BFS per vertex."""
    comps = connected_components(g, h)
    bridges = find_bridges(g, h)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    bridged = {comp_of[g.edges[e][0]] for e in bridges}
    cutv = 0
    for ci, comp in enumerate(comps):
        if ci in bridged or len(comp) < 3:
            continue
        cs = set(comp)
        ce = [e for e in h if g.edges[e][0] in cs and g.edges[e][1] in cs]
        for v in comp:
            rest = [e for e in ce if v not in g.edges[e]]
            others = cs - {v}
            if others and len(connected_components(g, rest,
                                                    skip_vertices=set(range(g.n)) - others)) > 1:
                cutv += 1
    return (len(h), len(comps), len(bridges), cutv)


def reference_canonicalize(g, h):
    """``canonicalize``'s exchange loop with every vertex's degree checked for
    every candidate, the pool scanned for every F_R, and the measure from
    ``reference_measure``.  Returns (H, steps, candidates that passed the
    degree scan)."""
    h = set(h)
    max_steps = max(1, g.m) * max(1, g.n) ** 2
    cur = reference_measure(g, h)
    steps = checked = 0
    deg = [0] * g.n
    for eid in h:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1

    def try_apply(remove, add):
        nonlocal h, cur, steps, checked
        for v in range(g.n):
            d = deg[v]
            for e in remove:
                if v in g.edges[e]:
                    d -= (2 if g.edges[e][0] == g.edges[e][1] == v else 1)
            for e in add:
                if v in g.edges[e]:
                    d += 1
            if d < 2:
                return False
        checked += 1
        h2 = (h - set(remove)) | set(add)
        if not _is_triangle_free_cover(g, h2):
            return False
        m2 = reference_measure(g, h2)
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
        for er in hs:
            if try_apply((er,), ()):
                improved = True
                break
        if improved:
            continue
        pool = [e for e in range(g.m) if e not in h and g.edges[e][0] != g.edges[e][1]]
        for er in hs:
            u, v = g.edges[er]
            cand = [e for e in pool if u in g.edges[e] or v in g.edges[e]]
            if any(try_apply((er,), (ea,)) for ea in cand):
                improved = True
                break
        if improved:
            continue
        for er1, er2 in itertools.combinations(hs, 2):
            touched = set(g.edges[er1]) | set(g.edges[er2])
            cand = [e for e in pool
                    if g.edges[e][0] in touched or g.edges[e][1] in touched]
            if any(try_apply((er1, er2), (ea1,)) for ea1 in cand) or \
                    any(try_apply((er1, er2), pair)
                        for pair in itertools.combinations(cand, 2)):
                improved = True
                break
    return h, steps, checked


def test_measure_matches_reference():
    """Seeded random multigraphs, n 1-10, with self-loops and parallel
    edges, and random edge subsets of them."""
    rnd = random.Random(4711)
    cut_seen = 0
    for _ in range(3000):
        n = rnd.randint(1, 10)
        g = MultiGraph(n, [(rnd.randrange(n), rnd.randrange(n))
                           for _ in range(rnd.randint(0, 2 * n + 4))])
        h = {e for e in range(g.m) if rnd.random() < 0.7}
        want = reference_measure(g, h)
        assert _measure(g, h) == want, (g.edges, sorted(h))
        cut_seen += want[3] > 0
    assert cut_seen > 50


CANON_CASES = (
    [("random2ec", n, p, start) for n in range(6, 15, 2) for p in (0.3, 0.6)
     for start in ("min", "heuristic")]
    + [("hub_c4", k, None, "min") for k in (3, 6, 12)]
    + [("shortcut_ring", k, None, "min") for k in (5, 10)]
    + [(name, None, None, "min")
       for name in ("vertex1", "parallel", "vertex2_c", "vertex3_c1")]
    + [("hub_c4", 3, None, "all")])


@pytest.mark.parametrize("kind,size,p,start", CANON_CASES)
def test_canonicalize_matches_reference(kind, size, p, start, monkeypatch):
    """The same fixed point and step count as the full-scan loop, and the
    degree test lets exactly the same candidates on to the full check.
    Starts from the minimum triangle-free cover, the heuristic one, or all
    edges."""
    if kind == "random2ec":
        g = random2ec(size, p, seed=size)
    else:
        g = harness.generate(kind, k=size)
    if start == "all":
        h0 = set(range(g.m))
    else:
        h0 = min_triangle_free_cover(g, mode="exact" if start == "min" else start,
                                     limit=g.n)[0]
    full_checks = 0

    def counting(g_, h_):
        nonlocal full_checks
        full_checks += 1
        return _is_triangle_free_cover(g_, h_)

    monkeypatch.setattr(cover, "_is_triangle_free_cover", counting)
    h, _, steps = canonicalize(g, h0, P)
    ref_h, ref_steps, ref_checked = reference_canonicalize(g, h0)
    assert (sorted(h), steps) == (sorted(ref_h), ref_steps)
    assert full_checks - 1 == ref_checked      # less the entry check
