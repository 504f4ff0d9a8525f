import itertools
from fractions import Fraction

import pytest

from ledger_checks import assert_few_run_ok, assert_many_ledger_ok
from twoec import gadgets, harness, many
from twoec.cover import canonicalize, min_triangle_free_cover
from twoec.credit import build_many_ledger, cost
from twoec.decomp import C4, CoverDecomposition
from twoec.gadgets import Builder
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.many import (ManyState, apply_merge, build_core_square,
                        compose_double_from_31, core_square_report, find_merge,
                        gluing_path_merges, run_many, start_gluing_path,
                        extend_gluing_path)
from twoec.oracle import _two_ec_on, exact_min_2ecss
from twoec.params import desk_params

P = desk_params()


def make_state(g, h):
    dec = CoverDecomposition(g, h, P)
    led, info = build_many_ledger(dec)
    return ManyState(g, dec, led, P, dict(info))


def add_c4(edges, base):
    edges += [(base, base + 1), (base + 1, base + 2),
              (base + 2, base + 3), (base + 3, base)]
    return base, base + 1, base + 2, base + 3


def hub_c4(k, hub_len=9):
    """Huge hub cycle + k C4 petals, each attached to the hub only, by two
    edges meeting the petal at adjacent vertices."""
    edges = [(i, (i + 1) % hub_len) for i in range(hub_len)]
    n = hub_len
    for i in range(k):
        a, b, c, d = add_c4(edges, n)
        edges += [(a, (2 * i) % hub_len), (b, (2 * i + 1) % hub_len)]
        n += 4
    g = MultiGraph(n, edges)
    h = {e for e, (u, v) in enumerate(g.edges)
         if abs(u - v) in (1, hub_len - 1) and (u < hub_len) == (v < hub_len)
         or (u >= hub_len and v >= hub_len)}
    h = set()
    m = 0
    for e, (u, v) in enumerate(g.edges):
        both_hub = u < hub_len and v < hub_len
        both_petal = u >= hub_len and v >= hub_len
        if both_hub or both_petal:
            h.add(e)
    return g, h


def test_hub_c4_is_core_square_already():
    g, h = hub_c4(3)
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    before = cost(state.dec, state.led)
    build_core_square(state)
    rep = core_square_report(state)
    assert rep["ok"]
    assert rep["pendant_segments_3_or_4"]   # vacuous: no cut components
    assert cost(state.dec, state.led) <= before + 2
    assert not state.trace                   # nothing to do


def test_run_many_hub_c4():
    for k in (3, 4):
        g, h = hub_c4(k)
        opt = len(exact_min_2ecss(g))
        sol, state = run_many(g, h, P)
        assert_many_ledger_ok(state.info)
        assert _two_ec_on(g, sol)
        assert {v for e in sol for v in g.edges[e]} == set(range(g.n))
        # one stitched edge net per petal on top of H0
        assert len(sol) == len(h) + k
        assert len(sol) <= sum(state.info["bound_terms"].values()) + Fraction(opt, 35)


def triangle_of_c4s():
    """Three C4s pairwise joined by single edges entering at adjacent petal
    vertices: a single (3,0)-merge exists."""
    edges = []
    bases = []
    for i in range(3):
        bases.append(add_c4(edges, 4 * i))
    # connect: exit vertex b of petal i to entry vertex a of petal i+1
    for i in range(3):
        a_i, b_i, _, _ = bases[i]
        a_j, b_j, _, _ = bases[(i + 1) % 3]
        edges.append((b_i, a_j))
    g = MultiGraph(12, edges)
    return g, set(range(12))


def test_single_merge_3_0():
    g, h = triangle_of_c4s()
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    cand = find_merge(state)
    assert cand is not None
    assert cand.kind == "single" and cand.k == 3 and cand.j == 0
    before = cost(state.dec, state.led)
    assert apply_merge(state, cand, "merge")
    assert len(state.dec.components) == 1
    audit = state.merge_audits[-1]
    assert audit["bound_ok"]
    assert audit["delta_cost"] <= audit["bound"] <= 0
    assert cost(state.dec, state.led) <= before


def c5_short_heavy_host():
    """A C5 doubly attached to a huge hub: a length-2 short heavy cycle."""
    edges = [(i, (i + 1) % 9) for i in range(9)]
    edges += [(9, 10), (10, 11), (11, 12), (12, 13), (13, 9)]
    edges += [(9, 0), (11, 4)]
    g = MultiGraph(14, edges)
    return g, set(range(14))


def test_short_heavy_cycle():
    g, h = c5_short_heavy_host()
    state = make_state(g, h)
    cand = find_merge(state)
    assert cand is not None and cand.kind == "short_heavy"
    before_cr = state.led.total_credit()
    assert apply_merge(state, cand, "merge")
    audit = state.merge_audits[-1]
    assert audit["bound_ok"]
    assert audit["cr_drop"] >= audit["x_size"]


def double_merge_host():
    """Center C4 in two 3-node all-C4 segments; each segment only supports a
    (3,1)-merge, and the composition is a double (5,1)-merge."""
    edges = []
    z = add_c4(edges, 0)           # center: 0,1,2,3
    a1 = add_c4(edges, 4)
    a2 = add_c4(edges, 8)
    b1 = add_c4(edges, 12)
    b2 = add_c4(edges, 16)
    # segment 1 triangle: Z -> A1 -> A2 -> Z; shortcut A1 and A2, not Z
    edges += [(z[0], a1[0]), (a1[1], a2[0]), (a2[1], z[0])]
    # segment 2 triangle: Z -> B1 -> B2 -> Z, also through z[0]-ish vertices
    edges += [(z[2], b1[0]), (b1[1], b2[0]), (b2[1], z[2])]
    g = MultiGraph(20, edges)
    return g, set(range(20))


def test_compose_double_from_31():
    g, h = double_merge_host()
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    assert find_merge(state) is None or find_merge(state).kind == "double"
    cand = compose_double_from_31(state, 0)
    assert cand is not None
    assert cand.kind == "double" and cand.k == 5 and cand.j == 1
    assert apply_merge(state, cand, "merge")
    audit = state.merge_audits[-1]
    assert audit["bound_ok"]
    assert len(state.dec.components) == 1


def ring_of_c4s(shortcut_flags):
    """Ring of C4 petals; petal i is entered/left at adjacent vertices iff
    shortcut_flags[i]."""
    edges = []
    bases = []
    k = len(shortcut_flags)
    for i in range(k):
        bases.append(add_c4(edges, 4 * i))
    for i in range(k):
        a_i, b_i, c_i, d_i = bases[i]
        nxt = bases[(i + 1) % k]
        exit_v = b_i if shortcut_flags[i] else c_i
        edges.append((exit_v, nxt[0]))
    g = MultiGraph(4 * k, edges)
    return g, set(range(4 * k))


def test_gluing_path_improved_on_shortcut_ring():
    g, h = ring_of_c4s([True] * 5)
    state = make_state(g, h)
    seg = state.view().segments[0]
    assert len(seg) == 5
    assert any(apply_merge(state, cand, "gluing-path")
               for cand in gluing_path_merges(state, seg))
    assert len(state.dec.components) == 1


@pytest.mark.parametrize("k", [10, 12])
def test_many_on_a_tagged_graph_matches_untagged(k):
    """A reducer child carries origin tags naming its parent's edges; MANY's
    final assembly solves a part on a contraction, whose edge ids are the
    graph's own, so the tags change nothing."""
    g = gadgets.shortcut_ring(k)
    plain, _ = harness.cover_pipeline(g, P, mode="many")
    g.origin = [i + 1 for i in range(g.m)]
    tagged, _ = harness.cover_pipeline(g, P, mode="many")
    assert tagged == plain


def test_gluing_path_extension():
    # entering at the far vertex on three petals blocks every ring merge
    g, h = ring_of_c4s([True, True, True, False, False, False])
    state = make_state(g, h)
    view = state.view()
    seg = view.segments[0]
    assert find_merge(state, segments=[seg]) is None
    path = start_gluing_path(state, view, seg)
    assert path is not None
    longer = extend_gluing_path(state, view, seg, path)
    assert longer is not None
    assert len(longer.edges) == len(path.edges) + 1
    assert not any(apply_merge(state, cand, "gluing-path")
                   for cand in gluing_path_merges(state, seg))


def test_core_square_on_hub_with_c5():
    """Hub + one C5 in a small segment: the C_i absorption fires first."""
    edges = [(i, (i + 1) % 9) for i in range(9)]
    edges += [(9, 10), (10, 11), (11, 12), (12, 13), (13, 9)]   # C5
    edges += [(9, 0), (11, 4)]
    a = add_c4(edges, 14)
    edges += [(14, 2), (15, 3)]                                  # one C4 petal
    g = MultiGraph(18, edges)
    h = set(range(9)) | {9, 10, 11, 12, 13} | set()
    h = {e for e, (u, v) in enumerate(g.edges)
         if (u < 9 and v < 9) or (9 <= u < 14 and 9 <= v < 14)
         or (u >= 14 and v >= 14)}
    state = make_state(g, h)
    before = cost(state.dec, state.led)
    build_core_square(state)
    rep = core_square_report(state)
    assert rep["ok"]
    assert cost(state.dec, state.led) <= before + 2
    labels = [r.label for r in state.trace]
    assert any("short-heavy" in l for l in labels)


def test_many_with_large_component_behind_cut_c4():
    # hub (huge) + C4 cut component + large C9 behind it; core-square cannot
    # complete (a large non-C4 remains) and the assembly must still finish
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(10, 11), (11, 12), (12, 13), (13, 10)]
    edges += [(10, 0), (11, 1)]
    edges += [(14 + i, 14 + (i + 1) % 9) for i in range(9)]
    edges += [(14, 12), (15, 13)]
    g = MultiGraph(23, edges)
    assert is_two_edge_connected(g)
    h0 = {e for e, (u, v) in enumerate(g.edges)
          if (u < 10) == (v < 10) and (u < 14) == (v < 14)}
    sol, state = run_many(g, h0, P)
    assert _two_ec_on(g, sol)
    assert {v for e in sol for v in g.edges[e]} == set(range(g.n))
    assert not any(r.waiver for r in state.trace)


def test_composite_few_pipeline_strict(monkeypatch):
    from twoec.gadgets import Builder, add_c4_petal
    real_run_few = harness.run_few
    few_runs = []

    def recorded_run_few(*args):
        few_runs.append(real_run_few(*args))
        return few_runs[-1]

    monkeypatch.setattr(harness, "run_few", recorded_run_few)
    b = Builder()
    hub = b.vertices(12)
    b.cycle(hub)
    add_c4_petal(b, hub[0], hub[1])
    add_c4_petal(b, hub[3], hub[4])
    c5 = b.vertices(5)
    b.cycle(c5)
    b.edge(c5[0], hub[6])
    b.edge(c5[1], hub[7])
    c6 = b.vertices(6)
    b.cycle(c6)
    b.edge(c6[0], hub[9])
    b.edge(c6[1], hub[10])
    a = b.vertices(5)
    b.cycle(a)
    mid = b.vertex()
    c = b.vertices(5)
    b.edge(a[0], mid)
    b.edge(mid, c[0])
    b.cycle(c)
    b.edge(a[2], hub[2])
    b.edge(a[3], hub[5])
    b.edge(c[2], hub[8])
    b.edge(c[3], hub[11])
    g = b.graph()
    for mode in ("few", "many"):
        sol, stats = harness.cover_pipeline(g, P, mode=mode)
        assert _two_ec_on(g, sol)
        assert stats["waivers"] == 0
    [(_, few_state)] = few_runs
    assert_few_run_ok(few_state)


def test_gluing_path_complex_pattern_rule():
    # complex component: two C5 blocks around a lonely vertex; entering and
    # leaving the component at that same lonely vertex is forbidden
    from twoec.many import _node_pattern_ok
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),        # block A
             (0, 5), (5, 6),                                # bridges via 5
             (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),      # block B
             (11, 12), (12, 13), (13, 11),                  # other comp
             (5, 11), (5, 12), (2, 13), (8, 11)]
    g = MultiGraph(14, edges)
    h = set(range(12)) | {12, 13, 14}
    dec = CoverDecomposition(g, h, P)
    from twoec.credit import build_many_ledger
    led, info = build_many_ledger(dec)
    state = ManyState(g, dec, led, P, dict(info))
    comp = [c for c in dec.components if c.bridges][0]
    e_in = [e for e, (u, v) in enumerate(g.edges) if {u, v} == {5, 11}][0]
    e_out = [e for e, (u, v) in enumerate(g.edges) if {u, v} == {5, 12}][0]
    e_blk = [e for e, (u, v) in enumerate(g.edges) if {u, v} == {2, 13}][0]
    assert not _node_pattern_ok(state, comp.cid, e_in, e_out)
    assert _node_pattern_ok(state, comp.cid, e_in, e_blk)


def rejected_core_steps(monkeypatch, g, h):
    """Run ``build_core_square`` with every exchange turned down; (phase,
    label, flags set, count) runs of the proposals in the order made."""
    seen = []

    def reject(state, adds, removes, phase, label, **flags):
        seen.append((phase, label, tuple(sorted(f for f, on in flags.items() if on))))
        return False

    monkeypatch.setattr(many, "apply_many", reject)
    build_core_square(make_state(g, h))
    return [(*key, len(list(run))) for key, run in itertools.groupby(seen)]


def canonical_cover(g):
    return canonicalize(g, min_triangle_free_cover(g, mode="exact")[0], P)[0]


def hub_ring_host():
    """Huge hub in a 5-node segment with four C4 petals in a chain; the
    second petal is left at its far vertex and has a chord to the hub."""
    b = Builder()
    hub = b.vertices(9)
    h = set(b.cycle(hub))
    petals = [b.vertices(4) for _ in range(4)]
    for p in petals:
        h |= set(b.cycle(p))
    b.edge(hub[0], petals[0][0])
    for i, exit_v in enumerate((1, 2, 1)):
        b.edge(petals[i][exit_v], petals[i + 1][0])
    b.edge(petals[-1][1], hub[4])
    b.edge(petals[1][3], hub[2])
    return b.graph(), h


def second_large_host():
    """Huge hub C10 and a large C9 joined by two edges; the C9 also sits in
    two triangles of shortcut C4s, which compose into a double merge."""
    b = Builder()
    hub, x = b.vertices(10), b.vertices(9)
    h = set(b.cycle(hub)) | set(b.cycle(x))
    b.edge(hub[0], x[0])
    b.edge(hub[5], x[4])
    for t in range(2):
        p, q = b.vertices(4), b.vertices(4)
        h |= set(b.cycle(p)) | set(b.cycle(q))
        b.edge(x[2 + 4 * t], p[0])
        b.edge(p[1], q[0])
        b.edge(q[1], x[3 + 4 * t])
    return b.graph(), h


MERGE = ("need_fewer_components",)
COVER = ("need_fewer_bridges",)
PLUS_TWO = ("cost_slack", "need_fewer_components")


def test_core_dispatch_order(monkeypatch):
    """The proposals of one core-square pass with every one turned down:
    the gadget hosts under their canonical covers, then hand-built covers.
    ``hub_ring_host`` reaches rule 1 and ``second_large_host`` rule 5."""
    hosts = {}
    for name in ("loan_complex", "nice_c5_complex", "star_complex",
                 "short_heavy_c5", "double_merge_host", "merge_triangle"):
        g = getattr(gadgets, name)()
        hosts[name] = (g, canonical_cover(g))
    hosts.update({
        "bridge_chain": (gadgets.bridge_chain(), set(range(19))),
        "ring5": ring_of_c4s([True] * 5),
        "ring6": ring_of_c4s([True, True, True, False, False, False]),
        "double": double_merge_host(),
        "hub_ring": hub_ring_host(),
        "second_large": second_large_host()})
    got = {name: rejected_core_steps(monkeypatch, *host)
           for name, host in hosts.items()}
    assert got == {
        "loan_complex": [("core", "short-heavy(2)", MERGE, 3)],
        "nice_c5_complex": [("core", "short-heavy(2)", COVER, 11)],
        "star_complex": [("core", "short-heavy(2)", COVER, 11),
                         ("core", "short-heavy(3)", COVER, 8),
                         ("core", "final-plus-two", PLUS_TWO, 8),
                         ("core", "short-heavy(2)", COVER, 1)],
        "short_heavy_c5": [("core", "short-heavy(2)", MERGE, 2)],
        "double_merge_host": [("core", "double(5,1)", MERGE, 1)],
        "merge_triangle": [("core", "single(3,0)", MERGE, 1)],
        "bridge_chain": [("core", "bridge-chord", COVER, 5)],
        "ring5": [("core", "single(5,0)", MERGE, 2)],
        "ring6": [],
        "double": [("core", "double(5,1)", MERGE, 1)],
        "hub_ring": [("gluing-path", "single(3,0)", MERGE, 4),
                     ("gluing-path", "single(4,0)", MERGE, 1),
                     ("core", "single(3,0)", MERGE, 1)],
        "second_large": [("core", "double(5,0)", MERGE, 1),
                         ("core", "single(3,0)", MERGE, 1),
                         ("core", "double(5,0)", MERGE, 1),
                         ("core", "single(3,0)", MERGE, 1)]}
