import itertools
from fractions import Fraction

import pytest

from ledger_checks import assert_few_ledger_ok, assert_few_run_ok
from twoec.credit import build_few_ledger, check_invariants, cost
from twoec import few, gadgets
from twoec.decomp import ComponentGraphView, CoverDecomposition
from twoec.exchange import ExchangeState
from twoec.few import (ComponentContext, NoProgress, _glue_trivial_segment,
                       _glue_wide_segment, _nice_c5_exchanges,
                       _triple_candidates, cover_bridges_step, glue_step,
                       run_few)
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.oracle import _two_ec_on
from twoec.params import FEW_DELTA, desk_params

P = desk_params()


def make_state(g, h):
    dec0 = CoverDecomposition(g, h, P)
    dec, led, info = build_few_ledger(g, dec0)
    assert_few_ledger_ok(info)
    return ExchangeState(g, dec, led, P, info)


def find_bridge_paths(g, dec, comp):
    """All shortest bridge-covering paths plus the reachability sets R(u)."""
    ctx = ComponentContext(g, dec, comp)
    reach = {u: set(ctx.bridge_paths_from(u)) for u in range(ctx.tnodes)}
    return ctx.all_bridge_paths(), reach


def two_c6_blocks_one_bridge():
    edges = [(i, (i + 1) % 6) for i in range(6)]                 # block A 0..5
    edges += [(5, 6)]                                            # bridge
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]        # block B 6..11
    edges += [(4, 7)]                                            # host escape
    g = MultiGraph(12, edges)
    h = set(range(13))
    return g, h


def test_single_edge_cheap_path():
    g, h = two_c6_blocks_one_bridge()
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    before = cost(state.dec, state.led) - state.led.total_loan()
    assert len(state.bridge_ids()) == 1
    assert cover_bridges_step(state)
    assert len(state.bridge_ids()) == 0
    assert cost(state.dec, state.led) - state.led.total_loan() <= before
    assert state.trace[0].label in ("cheap-path", "path-repay")
    assert not check_invariants(g, state.dec, state.led)


def test_bridge_path_stats():
    g, h = two_c6_blocks_one_bridge()
    dec = CoverDecomposition(g, h, P)
    comp = dec.complex_components[0]
    paths, reach = find_bridge_paths(g, dec, comp)
    assert paths
    bp = paths[0]
    assert bp.br == 1 and bp.bl == 2
    assert bp.cheap(FEW_DELTA)


def two_block_loan_host():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(0, 5), (5, 6), (6, 7)]
    edges += [(7, 8), (8, 9), (9, 10), (10, 11), (11, 7)]
    edges += [(12 + i, 12 + (i + 1) % 9) for i in range(9)]
    edges += [(2, 12), (3, 14), (9, 16), (10, 18), (5, 13), (6, 17)]
    g = MultiGraph(21, edges)
    h = set(range(13)) | set(range(13, 22))
    return g, h


def test_loan_repaid_during_covering():
    g, h = two_block_loan_host()
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    assert state.led.total_loan() == Fraction(1, 2) + 10 * FEW_DELTA
    before = cost(state.dec, state.led) - state.led.total_loan()
    while len(state.bridge_ids()) > 0:
        assert cover_bridges_step(state)
    assert state.led.total_loan() == 0
    assert cost(state.dec, state.led) - state.led.total_loan() <= before
    assert not any(r.waiver for r in state.trace)


def hub_with_pendant_cycles():
    """Huge hub C9 + pendant C5 and C6, each 2-matched at adjacent vertices."""
    edges = [(i, (i + 1) % 9) for i in range(9)]                   # hub 0..8
    edges += [(9, 10), (10, 11), (11, 12), (12, 13), (13, 9)]      # C5 9..13
    edges += [(14, 15), (15, 16), (16, 17), (17, 18), (18, 19), (19, 14)]
    edges += [(9, 0), (10, 2)]                                     # C5 attach
    edges += [(14, 4), (15, 6)]                                    # C6 attach
    g = MultiGraph(20, edges)
    h = set(range(20))
    return g, h


def test_glue_pendant_cycles():
    g, h = hub_with_pendant_cycles()
    assert is_two_edge_connected(g)
    state = make_state(g, h)
    before = cost(state.dec, state.led)
    steps = 0
    while len(state.dec.components) > 1:
        assert glue_step(state)
        steps += 1
    assert steps == 2
    assert cost(state.dec, state.led) <= before
    assert not any(r.waiver for r in state.trace)
    assert _two_ec_on(g, state.h)


def nice_c5_rich_host():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(0, 5), (5, 6)]
    edges += [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]
    edges += [(11 + i, 11 + (i + 1) % 9) for i in range(9)]
    edges += [(2, 11), (3, 13), (8, 15), (9, 17)]
    g = MultiGraph(20, edges)
    h = set(range(12)) | set(range(12, 21))
    return g, h


def test_run_few_rich_vertex_end_to_end():
    g, h0 = nice_c5_rich_host()
    assert is_two_edge_connected(g)
    sol, state = run_few(g, h0, P)
    assert_few_run_ok(state)
    assert _two_ec_on(g, sol)
    assert len({v for e in sol for v in g.edges[e]}) == g.n
    assert state.info["final_bound_ok"]
    assert not any(r.waiver for r in state.trace)
    labels = [r.label for r in state.trace]
    assert "trivial-rich" in labels


def test_run_few_loan_host_end_to_end():
    g, h0 = two_block_loan_host()
    sol, state = run_few(g, h0, P)
    assert_few_run_ok(state)
    assert _two_ec_on(g, sol)
    assert state.info["final_bound_ok"]
    assert not any(r.waiver for r in state.trace)


def test_run_few_already_spanning():
    g = MultiGraph(9, [(i, (i + 1) % 9) for i in range(9)])
    sol, state = run_few(g, set(range(9)), P)
    assert_few_run_ok(state)
    assert sol == set(range(9))
    assert not state.trace


def test_monotone_metrics_on_gadgets():
    for builder in (two_c6_blocks_one_bridge, two_block_loan_host,
                    hub_with_pendant_cycles, nice_c5_rich_host):
        g, h0 = builder()
        dec0 = CoverDecomposition(g, h0, P)
        dec, led, info = build_few_ledger(g, dec0)
        assert_few_ledger_ok(info)
        state = ExchangeState(g, dec, led, P, info)
        metric = cost(state.dec, state.led) - state.led.total_loan()
        bridges = len(state.bridge_ids())
        while len(state.bridge_ids()) > 0:
            cover_bridges_step(state)
            assert len(state.bridge_ids()) < bridges
            bridges = len(state.bridge_ids())
            m2 = cost(state.dec, state.led) - state.led.total_loan()
            assert m2 <= metric
            assert not check_invariants(g, state.dec, state.led)
            metric = m2
        comps = len(state.dec.components)
        while len(state.dec.components) > 1:
            glue_step(state)
            assert len(state.dec.components) < comps
            comps = len(state.dec.components)
            m2 = cost(state.dec, state.led)
            assert m2 <= metric
            metric = m2


def test_cheap_expensive_formula():
    from twoec.few import BridgePath
    from fractions import Fraction
    d = Fraction(1, 100)
    assert not BridgePath(0, 1, (), br=4, bl=1, covered=()).cheap(d)
    assert BridgePath(0, 1, (), br=5, bl=1, covered=()).cheap(d)
    assert BridgePath(0, 1, (), br=1, bl=2, covered=()).cheap(d)


def test_bridge_chain_covering():
    from twoec import gadgets
    for nb in (5, 6, 7):
        g = gadgets.bridge_chain(bridges=nb)
        h0 = set(range(12 + nb))     # blocks plus the bridge chain
        state = make_state(g, h0)
        before = cost(state.dec, state.led) - state.led.total_loan()
        bridges = len(state.bridge_ids())
        assert bridges == nb
        while len(state.bridge_ids()) > 0:
            assert cover_bridges_step(state)
            assert len(state.bridge_ids()) < bridges
            bridges = len(state.bridge_ids())
        assert cost(state.dec, state.led) - state.led.total_loan() <= before
        assert state.led.total_loan() == 0
        assert not any(r.waiver for r in state.trace)


def test_run_few_on_square_free_seed():
    # no 4-cycles in the cover: the bound specializes to (5/4 - 1/100)|H0|
    from twoec.oracle import exact_min_cover
    g, _ = hub_with_pendant_cycles()
    h0 = exact_min_cover(g, {3, 4})
    sol, state = run_few(g, h0, P)
    assert_few_run_ok(state)
    assert _two_ec_on(g, sol)
    assert state.info["beta"] == 0
    assert state.info["final_bound"] == Fraction(5, 4) * len(h0) - Fraction(len(h0), 100)
    assert state.info["final_bound_ok"]


def test_find_bridge_paths_reachability():
    g, h = two_c6_blocks_one_bridge()
    dec = CoverDecomposition(g, h, P)
    comp = dec.complex_components[0]
    paths, reach = find_bridge_paths(g, dec, comp)
    # both block nodes reach each other through the escape edge
    assert any(reach[u] for u in reach)
    assert all(v in reach for v in range(len(reach)))


# ---------------------------------------------------------------------------
# the order of the candidate streams, on inputs that reach each family; the
# pinned candidates are those the per-family loops proposed before the
# streams replaced them
# ---------------------------------------------------------------------------

def c5_c8_one_bridge():
    """A C5 block and a C8 block joined by one bridge, with two host
    escapes: the pendant C5 has two edges leaving it outside H."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5)]
    edges += [(5 + i, 5 + (i + 1) % 8) for i in range(8)]
    edges += [(3, 7), (1, 9)]
    return MultiGraph(13, edges), set(range(14))


def add_cycle(edges, base, k):
    edges += [(base + i, base + (i + 1) % k) for i in range(k)]
    return list(range(base, base + k))


def hub_c4_triangle():
    """Hub C9 (the anchor) with a C4 A attached at two far vertices, so
    {hub, A} is a trivial segment no good cycle or Hamiltonian path glues,
    and A in a second segment, a triangle of C4s A, B, C."""
    edges = []
    add_cycle(edges, 0, 9)
    a, b, c = (add_cycle(edges, base, 4) for base in (9, 13, 17))
    edges += [(0, a[0]), (1, a[2])]
    edges += [(a[1], b[0]), (b[2], c[0]), (c[2], a[3])]
    edges += [(a[2], b[1]), (b[3], c[1]), (c[3], a[0])]
    return MultiGraph(21, edges), set(range(21))


def hub_two_c4s():
    """Hub C9 and two C4s A, B pairwise joined by two edges: one wide
    segment {hub, A, B}."""
    edges = []
    add_cycle(edges, 0, 9)
    a, b = (add_cycle(edges, base, 4) for base in (9, 13))
    edges += [(0, a[0]), (a[2], b[0]), (b[2], 4)]
    edges += [(2, a[1]), (a[3], b[1]), (b[3], 6)]
    return MultiGraph(17, edges), set(range(17))


def bridge_chain_state():
    return make_state(gadgets.bridge_chain(), set(range(19)))


def test_three_path_candidates():
    state = bridge_chain_state()
    comp, = state.dec.complex_components
    ctx = ComponentContext(state.g, state.dec, comp)
    got = [(tuple(e for p in trio for e in p.edge_ids), rem) for trio, rem in
           _triple_candidates(ctx, ctx.all_bridge_paths(), set(comp.bridges))]
    assert len(got) == 50
    assert got[:4] == [((20, 22, 23), ()), ((20, 22, 23), (12,)),
                       ((20, 22, 23), (13,)), ((20, 22, 23), (14,))]
    assert got[-1] == ((23, 19, 21), (18,))


def test_nice_c5_exchanges():
    state = make_state(*c5_c8_one_bridge())
    comp, = state.dec.complex_components
    got = list(_nice_c5_exchanges(state, comp))
    assert len(got) == 15
    assert got[:3] == [((14, 15), (0, 1)), ((14, 15), (0, 2)),
                       ((14, 15), (0, 3))]


def anchor_segment(state, size):
    view = ComponentGraphView(state.g, state.dec)
    L = state.dec.anchor().cid
    seg, = [s for s in view.segments_of(L) if len(s) == size]
    return view, seg, L


def test_two_segment_stream():
    state = make_state(*hub_c4_triangle())
    got = list(_glue_trivial_segment(state, *anchor_segment(state, 2)))
    assert {label for _, _, label in got} == {"two-segment-cycle"}
    assert len(got) == 78
    assert got[:3] == [((21, 22, 23, 26), (), "two-segment-cycle"),
                       ((21, 22, 23, 26), (9,), "two-segment-cycle"),
                       ((21, 22, 23, 26), (10,), "two-segment-cycle")]


def test_cycle_through_c4_stream():
    state = make_state(*hub_two_c4s())
    got = [c for c in _glue_wide_segment(state, *anchor_segment(state, 3))
           if c[2] == "cycle-through-c4"]
    assert len(got) == 8
    c4 = (9, 10, 11, 12)
    assert [c[:2] for c in got[:3]] == [((17, 21, 19, 9, 10, 11), c4),
                                        ((17, 21, 22, 9, 10, 11), c4),
                                        ((20, 18, 19, 9, 12, 11), c4)]


def rejected_dispatch(monkeypatch, step, state):
    """Run ``step`` with every candidate turned down; (label, flags, count)
    runs of the candidates in the order proposed."""
    seen = []

    def reject(state, adds, removes, phase, label, **flags):
        seen.append((label, tuple(sorted(flags))))
        return False

    monkeypatch.setattr(few, "apply_candidate", reject)
    with pytest.raises(NoProgress):
        step(state)
    return [(*key, len(list(run))) for key, run in itertools.groupby(seen)]


BRIDGE = ("need_fewer_bridges",)
GLUE = ("need_fewer_components", "need_huge")
WAIVED_BRIDGE = ("need_fewer_bridges", "strict_structure", "waiver")
WAIVED_GLUE = ("need_fewer_components", "strict_structure", "waiver")


def test_dispatch_order(monkeypatch):
    """The whole order of both steps, fallbacks included; fallback-any
    proposes each pair of components' edge pairs once."""
    assert rejected_dispatch(monkeypatch, cover_bridges_step,
                             bridge_chain_state()) == [
        ("path-repay", BRIDGE, 5), ("helper3", BRIDGE, 1),
        ("helper4", BRIDGE, 1), ("helper3", BRIDGE, 1), ("helper4", BRIDGE, 1),
        ("helper2", BRIDGE, 2), ("three-paths", BRIDGE, 50),
        ("fallback-path", WAIVED_BRIDGE, 5)]
    assert rejected_dispatch(monkeypatch, cover_bridges_step,
                             make_state(*c5_c8_one_bridge())) == [
        ("cheap-path", BRIDGE, 1), ("nice-c5-exchange", BRIDGE, 15),
        ("fallback-path", WAIVED_BRIDGE, 1)]
    assert rejected_dispatch(monkeypatch, glue_step,
                             make_state(*hub_c4_triangle())) == [
        ("two-segment-cycle", GLUE, 78), ("fallback-attach", WAIVED_GLUE, 1),
        ("fallback-any", WAIVED_GLUE, 4)]
    assert rejected_dispatch(monkeypatch, glue_step,
                             make_state(*hub_two_c4s())) == [
        ("nontrivial-cycle", GLUE, 26), ("cycle-through-c4", GLUE, 8),
        ("fallback-attach", WAIVED_GLUE, 2), ("fallback-any", WAIVED_GLUE, 3)]
