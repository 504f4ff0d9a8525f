import itertools
import random

import pytest

from canonical import is_canonical
from twoec import harness, oracle
from twoec.cover import (TRIANGLE, canonicalize, min_triangle_free_cover,
                         _feasible_adds, _measure, _removal_pairs)
from twoec.decomp import C4, C8, CoverDecomposition
from twoec.gadgets import random2ec
from twoec.graph import MultiGraph, connected_components, find_bridges
from twoec.params import desk_params

P = desk_params()


def _is_triangle_free_cover(g, h):
    """Every vertex has degree >= 2 in ``h`` and no component of ``h`` is a
    triangle: three vertices, three edges among them, each of degree 2."""
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


def test_cover_ok_matches_triangle_free_reference():
    """``oracle._cover_ok`` with the forbidden length 3, the test
    ``canonicalize`` uses, agrees with the component scan above on seeded
    multigraphs with self-loops and parallel edges; both verdicts occur, and
    so do rejections for a triangle alone."""
    rnd = random.Random(1618)
    verdicts = set()
    triangles = 0
    for _ in range(4000):
        n = rnd.randint(1, 8)
        g = MultiGraph(n, [(rnd.randrange(n), rnd.randrange(n))
                           for _ in range(rnd.randint(n, 3 * n + 2))])
        h = {e for e in range(g.m) if rnd.random() < 0.7}
        want = _is_triangle_free_cover(g, h)
        assert oracle._cover_ok(g, TRIANGLE, h) == want, (g.edges, sorted(h))
        verdicts.add(want)
        triangles += not want and oracle._cover_ok(g, frozenset(), h)
    assert verdicts == {True, False} and triangles > 0


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


def test_heuristic_cover_ignores_self_loops():
    # K4 on 1..4 plus vertex 0 of degree 2: the loop at 0 must not let one
    # of 0's two edges go
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 1), (0, 2)]
    h, _ = min_triangle_free_cover(MultiGraph(5, edges + [(0, 0)]),
                                   mode="heuristic")
    assert _is_triangle_free_cover(MultiGraph(5, edges), h)
    rng = random.Random(7)
    for seed in range(40):
        g = random2ec(6 + seed % 7, 0.4, seed)
        loops = [(v, v) for v in rng.sample(range(g.n), 1 + seed % 3)]
        looped = MultiGraph(g.n, list(g.edges) + loops)
        want = min_triangle_free_cover(g, mode="heuristic")
        assert min_triangle_free_cover(looped, mode="heuristic") == want
        assert _is_triangle_free_cover(g, want[0])


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


def fix_edges_by_subdivision(g: MultiGraph, edge_ids: set[int]) -> MultiGraph:
    """Split each chosen edge into a length-2 path; the two halves then sit
    in every 2-edge cover (the middle vertex has degree 2), which pins a
    seeded component."""
    edges = []
    nxt = g.n
    for eid, (u, v) in enumerate(g.edges):
        if eid in edge_ids and u != v:
            edges.append((u, nxt))
            edges.append((nxt, v))
            nxt += 1
        else:
            edges.append((u, v))
    return MultiGraph(nxt, edges)


def test_subdivision_fixes_edges_into_covers():
    g = complete_graph(5)
    fixed = fix_edges_by_subdivision(g, {0, 1})
    assert fixed.n == g.n + 2
    cover = oracle.exact_min_cover(fixed, {3})
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
    every candidate, the pool scanned for every F_R, the measure from
    ``reference_measure`` and no candidate skipped.  Returns (H, steps,
    checks): one (H after the exchange, accepted) per candidate that passed
    the degree scan, in the order tried."""
    h = set(h)
    max_steps = max(1, g.m) * max(1, g.n) ** 2
    cur = reference_measure(g, h)
    steps = 0
    checks = []
    deg = [0] * g.n
    for eid in h:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1

    def try_apply(remove, add):
        nonlocal h, cur, steps
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
        h2 = (h - set(remove)) | set(add)
        accepted = (_is_triangle_free_cover(g, h2)
                    and reference_measure(g, h2) < cur)
        checks.append((frozenset(h2), accepted))
        if not accepted:
            return False
        m2 = reference_measure(g, h2)
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
    return h, steps, checks


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


def assert_checks_follow_reference(checks, ref_checks):
    """The loop's full checks are a subsequence of the reference's, and
    every reference check left out was rejected there."""
    ref = iter(ref_checks)
    for h2 in checks:
        for ref_h2, accepted in ref:
            if ref_h2 == h2:
                break
            assert not accepted, sorted(ref_h2)
        else:
            raise AssertionError(f"{sorted(h2)} is not a reference candidate")
    assert not any(accepted for _, accepted in ref)


def compare_with_reference(g, h0, monkeypatch):
    """Runs ``canonicalize`` and the reference from ``h0``; returns how many
    candidates each fully checked."""
    checks = []

    real = oracle._cover_ok

    def recording(g_, forbidden, h_):
        checks.append(frozenset(h_))
        return real(g_, forbidden, h_)

    monkeypatch.setattr(oracle, "_cover_ok", recording)
    h, _, steps = canonicalize(g, h0, P)
    monkeypatch.undo()
    ref_h, ref_steps, ref_checks = reference_canonicalize(g, h0)
    assert (sorted(h), steps) == (sorted(ref_h), ref_steps)
    assert_checks_follow_reference(checks[1:], ref_checks)   # less the entry check
    return len(checks) - 1, len(ref_checks)


@pytest.mark.parametrize("kind,size,p,start", CANON_CASES)
def test_canonicalize_matches_reference(kind, size, p, start, monkeypatch):
    """The same fixed point and step count as the full-scan loop, and the
    candidates it checks in full are the reference's in the same order,
    less some that the reference rejected.  Starts from the minimum
    triangle-free cover, the heuristic one, or all edges."""
    if kind == "random2ec":
        g = random2ec(size, p, seed=size)
    else:
        g = harness.generate(kind, k=size)
    if start == "all":
        h0 = set(range(g.m))
    else:
        h0 = min_triangle_free_cover(g, mode="exact" if start == "min" else start)[0]
    compare_with_reference(g, h0, monkeypatch)


def looped_multigraph(rnd):
    """A ``random2ec`` graph on 4-9 vertices plus self-loops and parallel
    copies, its edges shuffled."""
    g = random2ec(rnd.randint(4, 9), rnd.choice((0.2, 0.4, 0.7)),
                  seed=rnd.randrange(10 ** 6))
    edges = list(g.edges)
    for _ in range(rnd.randint(1, g.n)):
        if rnd.random() < 0.5:
            edges.append(rnd.choice(edges))
        else:
            v = rnd.randrange(g.n)
            edges.append((v, v))
    rnd.shuffle(edges)
    return MultiGraph(g.n, edges)


def start_covers(g):
    """The minimum, heuristic and all-edges start covers that are
    triangle-free 2-edge covers."""
    out = [min_triangle_free_cover(g, mode=mode)[0]
           for mode in ("exact", "heuristic")]
    return [h for h in out + [set(range(g.m))] if _is_triangle_free_cover(g, h)]


def test_canonicalize_matches_reference_on_multigraphs(monkeypatch):
    """The reference contract on seeded multigraphs with self-loops and
    parallel copies, from every start cover; some candidates are skipped."""
    rnd = random.Random(2718)
    checked = ref_checked = starts = 0
    for _ in range(40):
        g = looped_multigraph(rnd)
        for h0 in start_covers(g):
            got, want = compare_with_reference(g, h0, monkeypatch)
            checked += got
            ref_checked += want
            starts += 1
    assert starts >= 100
    assert checked < ref_checked


def cover_state(g, h):
    """H-degrees with a self-loop counted twice, and the pool edges at each
    vertex, ascending."""
    deg = [0] * g.n
    for e in h:
        for v in g.edges[e]:
            deg[v] += 1
    incident = [[] for _ in range(g.n)]
    for e in range(g.m):
        u, v = g.edges[e]
        if e not in h and u != v:
            incident[u].append(e)
            incident[v].append(e)
    return deg, incident


def test_removal_pairs_keep_every_feasible_pair():
    """``_removal_pairs`` yields pairs of ``combinations`` order, once each,
    and among them every pair that has an add set of at most ``most``
    edges; it leaves some pairs out."""
    rnd = random.Random(1618)
    graphs = ([random2ec(n, p, seed=n) for n in range(6, 15, 2) for p in (0.3, 0.6)]
              + [harness.generate("hub_c4", k=k) for k in (3, 6)]
              + [looped_multigraph(rnd) for _ in range(30)])
    dropped = 0
    for g in graphs:
        for h in start_covers(g):
            deg, incident = cover_state(g, h)
            everything = list(itertools.combinations(sorted(h), 2))
            for most in (1, 2):
                pairs = list(_removal_pairs(g, sorted(h), deg, incident, most))
                kept = set(pairs)
                assert pairs == [p for p in everything if p in kept]
                feasible = [p for p in everything
                            if any(_feasible_adds(g, deg, incident, p, most))]
                assert kept.issuperset(feasible)
                dropped += len(everything) - len(pairs)
    assert dropped


FILTER_CASES = ([("random2ec", n, start) for n in range(6, 15, 2)
                 for start in ("min", "heuristic")]
                + [("hub_c4", k, start) for k in (3, 6)
                   for start in ("min", "heuristic")])


@pytest.mark.parametrize("kind,size,start", FILTER_CASES)
def test_feasible_adds_match_full_scan(kind, size, start):
    """For every removal of one or two cover edges, ``_feasible_adds`` yields
    exactly the full scan's add sets (singles, then pairs for two removed
    edges unless ``most`` is 1) that keep every vertex at degree >= 2, in
    the full scan's order."""
    if kind == "random2ec":
        graphs = [random2ec(size, p, seed=size) for p in (0.3, 0.6)]
    else:
        graphs = [harness.generate(kind, k=size)]
    kinds = {"skipped": 0, "pair": 0}
    for g in graphs:
        h = min_triangle_free_cover(g, mode="exact" if start == "min" else start)[0]
        deg, incident = cover_state(g, h)
        pool = [e for e in range(g.m) if e not in h and g.edges[e][0] != g.edges[e][1]]

        def passes(remove, add):
            for v in range(g.n):
                d = deg[v] - sum(g.edges[e].count(v) for e in remove) \
                    + sum(v in g.edges[e] for e in add)
                if d < 2:
                    return False
            return True

        removals = [(e,) for e in sorted(h)] + list(itertools.combinations(sorted(h), 2))
        for removed in removals:
            ends = {v for e in removed for v in g.edges[e]}
            cand = [e for e in pool if ends & set(g.edges[e])]
            scan = [(e,) for e in cand]
            if len(removed) == 2:
                scan += list(itertools.combinations(cand, 2))
            want = [add for add in scan if passes(removed, add)]
            assert list(_feasible_adds(g, deg, incident, removed,
                                       len(removed))) == want, removed
            singles = [add for add in want if len(add) == 1]
            assert list(_feasible_adds(g, deg, incident, removed, 1)) == singles
            kinds["skipped"] += bool(scan) and not want
            kinds["pair"] += any(len(add) == 2 for add in want)
    assert kinds["skipped"] and kinds["pair"]
