"""Acceptance suite: every criterion runs at its stated tolerance on the
`desk` profile and prints one pass/fail line."""
import itertools
import random
import time
from fractions import Fraction

import pytest

from twoec import gadgets, harness, oracle
from twoec.cover import canonicalize, is_canonical, min_triangle_free_cover
from twoec.credit import build_few_ledger, check_invariants, cost
from twoec.decomp import CoverDecomposition
from twoec.few import FewState, _bridge_count, cover_bridges_step, glue_step, run_few
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.many import ManyState, apply_merge, build_core_square, find_merge, run_many
from twoec.credit import build_many_ledger
from twoec.params import desk_params
from twoec.preprocess import red

P = desk_params()
DELTA_FEW = P.few_delta
DELTA_MANY = P.many_delta


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def non_hub_cover(g: MultiGraph, hub_len: int) -> set[int]:
    """Cover consisting of the hub cycle plus all component-internal edges."""
    h = set()
    for e, (u, v) in enumerate(g.edges):
        if (u < hub_len) == (v < hub_len):
            h.add(e)
    return h


# ---------------------------------------------------------------------------
# 1. feasibility + ratio sweep
# ---------------------------------------------------------------------------

def test_criterion_1_ratio_sweep():
    t0 = time.time()
    stepped = 0
    n_instances = 500
    for i in range(n_instances):
        rnd = random.Random(31337 + i)
        n = rnd.randint(5, 12)
        p = rnd.choice([0.3, 0.45, 0.6, 0.75, 0.9])
        g = harness.generate("random2ec", seed=91000 + i, n=n, p=p)
        sol, rep = harness.solve(
            g, harness.SolverConfig(profile="desk", mode="auto",
                                    with_oracle=True))
        assert rep.verified
        assert rep.ratio is not None and rep.ratio <= Fraction(5, 4)
        if rep.pipeline_steps > 0:
            stepped += 1
    wall = time.time() - t0
    ok = stepped >= n_instances * 30 // 100 and wall < 300
    print(f"  [sweep: {stepped}/{n_instances} stepped, {wall:.1f}s]")
    report(1, "feasibility and ratio sweep", ok)


# ---------------------------------------------------------------------------
# 2. cover optimality
# ---------------------------------------------------------------------------

def naive_min_cover(g: MultiGraph, forbidden: set[int]) -> int:
    for size in range(g.n, g.m + 1):
        for comb in itertools.combinations(range(g.m), size):
            deg = [0] * g.n
            for e in comb:
                u, v = g.edges[e]
                deg[u] += 1
                deg[v] += 1
            if any(d < 2 for d in deg):
                continue
            from twoec.graph import connected_components
            comps = connected_components(g, comb)
            bad = False
            for comp in comps:
                k = len(comp)
                if k not in forbidden:
                    continue
                cs = set(comp)
                ce = sum(1 for e in comb
                         if g.edges[e][0] in cs and g.edges[e][1] in cs)
                if ce == k and all(deg[v] == 2 for v in cs):
                    bad = True
                    break
            if not bad:
                return size
    raise AssertionError("no cover found")


def test_criterion_2_cover_optimality():
    checked = naive_checked = 0
    for i in range(200):
        rnd = random.Random(5000 + i)
        n = rnd.randint(5, 10)
        p = rnd.choice([0.25, 0.4, 0.6, 0.8])
        g = harness.generate("random2ec", seed=7000 + i, n=n, p=p)
        h3, cert3 = min_triangle_free_cover(g, mode="exact")
        assert cert3
        o3 = oracle.exact_min_cover(g, {3})
        assert len(h3) == len(o3)
        o0 = oracle.exact_min_cover(g, set())
        o34 = oracle.exact_min_cover(g, {3, 4})
        opt = oracle.exact_min_2ecss(g)
        assert len(o0) <= len(o3) <= len(o34) <= len(opt)
        heur, _ = min_triangle_free_cover(g, mode="heuristic")
        assert len(heur) >= len(h3)
        checked += 1
        if g.m <= 18 and naive_checked < 25:
            assert naive_min_cover(g, {3}) == len(h3)
            assert naive_min_cover(g, {3, 4}) == len(o34)
            naive_checked += 1
    print(f"  [cover: {checked} graphs, {naive_checked} naive cross-checks]")
    report(2, "cover optimality", checked == 200 and naive_checked >= 20)


# ---------------------------------------------------------------------------
# 3. canonical fixed point
# ---------------------------------------------------------------------------

def test_criterion_3_canonical_fixed_point():
    count = 0
    for i in range(100):
        rnd = random.Random(400 + i)
        if i % 5 == 0:
            g = harness.generate("hub_c4", k=2 + (i % 4), hub_len=9)
        elif i % 5 == 1:
            g = harness.generate("nice_c5_complex")
        else:
            n = rnd.randint(8, 12)
            g = harness.generate("random2ec", seed=61000 + i, n=n,
                                 p=rnd.choice([0.35, 0.5, 0.7]))
        h_min, _ = min_triangle_free_cover(g, mode="exact",
                                           limit=max(14, g.n))
        h, dec, steps = canonicalize(g, h_min, P)
        # the input is a minimum cover and the loop never adds edges, so the
        # canonical cover stays minimum
        assert len(h) == len(h_min)
        assert steps <= g.m * g.n ** 2
        rep = is_canonical(g, h, P)
        # the huge clause is parameterized: waived when no component can
        # reach the desk threshold
        assert rep.ok_except_huge(), rep.clauses
        count += 1
    report(3, "canonical fixed point", count == 100)


# ---------------------------------------------------------------------------
# 4. FEW ledger bound
# ---------------------------------------------------------------------------

def few_gadget_family():
    for b in (3, 4, 5):
        yield gadgets.loan_complex(bridges=b)
    for hub_len in (9, 10, 11, 12):
        for chain in (1, 2):
            for blocks in (2, 3, 4):
                yield gadgets.star_complex(blocks, hub_len, chain)
    for pendants in (1, 2, 3):
        yield gadgets.nice_c5_complex(pendants)
    for hub_len in (9, 11, 13, 15, 17):
        for k in (2, 3, 4, 5):
            yield gadgets.hub_c4(k, hub_len)


def cover_for(g: MultiGraph) -> set[int]:
    h, _ = min_triangle_free_cover(g, mode="exact", limit=max(20, g.n))
    # keep the gadget structure: use the raw minimum cover (already
    # triangle-free); canonicalization may merge components, which is fine
    return h


def test_criterion_4_few_ledger_bound():
    instances = list(few_gadget_family())[:50]
    assert len(instances) == 50
    seen = 0
    for g in instances:
        h0 = cover_for(g)
        dec0 = CoverDecomposition(g, h0, P)
        rep = is_canonical(g, h0, P)
        if not rep.ok_except_huge():
            h0, dec0, _ = canonicalize(g, h0, P)
            dec0 = CoverDecomposition(g, h0, P)
        beta = Fraction(dec0.c4_edge_count(), len(h0))
        dec, led, info = build_few_ledger(g, dec0, P)
        bound = (Fraction(5, 4) - (1 - beta) * DELTA_FEW) * len(h0)
        assert cost(dec, led) - led.total_loan() <= bound
        assert not check_invariants(g, dec, led)
        state = FewState(g, dec, led, P, info)
        while _bridge_count(state.dec) > 0:
            assert cover_bridges_step(state)
        assert state.led.total_loan() == 0
        assert not any(r.waiver for r in state.trace)
        seen += 1
    print(f"  [few ledger: {seen} instances]")
    report(4, "FEW ledger bound", seen == 50)


# ---------------------------------------------------------------------------
# 5. step monotonicity, zero waivers on the gadget suite
# ---------------------------------------------------------------------------

def test_criterion_5_step_monotonicity():
    waivers = 0
    checked_steps = 0
    # FEW phase gadgets
    for g in (gadgets.loan_complex(3), gadgets.nice_c5_complex(1),
              gadgets.nice_c5_complex(2), gadgets.star_complex(3),
              gadgets.star_complex(4)):
        h0 = cover_for(g)
        dec0 = CoverDecomposition(g, h0, P)
        dec, led, info = build_few_ledger(g, dec0, P)
        state = FewState(g, dec, led, P, info)
        metric = state.cost_minus_loan()
        bridges = _bridge_count(state.dec)
        while _bridge_count(state.dec) > 0:
            cover_bridges_step(state)
            assert _bridge_count(state.dec) < bridges
            bridges = _bridge_count(state.dec)
            m2 = state.cost_minus_loan()
            assert m2 <= metric
            metric = m2
            checked_steps += 1
        comps = len(state.dec.components)
        while len(state.dec.components) > 1:
            glue_step(state)
            assert len(state.dec.components) < comps
            comps = len(state.dec.components)
            m2 = cost(state.dec, state.led)
            assert m2 <= metric
            metric = m2
            checked_steps += 1
        waivers += sum(1 for r in state.trace if r.waiver)
    # MANY phase gadgets
    for g, h0 in many_merge_instances():
        dec = CoverDecomposition(g, h0, P)
        led, info = build_many_ledger(dec, P, strict=False)
        state = ManyState(g, dec, led, P, dict(info))
        comps = len(state.dec.components)
        c = cost(state.dec, state.led)
        while True:
            cand = find_merge(state)
            if cand is None:
                break
            assert apply_merge(state, cand)
            bridges_now = len(state.bridge_ids())
            assert len(state.dec.components) < comps or bridges_now < comps
            comps = len(state.dec.components)
            c2 = cost(state.dec, state.led)
            assert c2 <= c
            c = c2
            checked_steps += 1
        waivers += sum(1 for r in state.trace if r.waiver)
    print(f"  [monotonicity: {checked_steps} steps, {waivers} waivers]")
    report(5, "step monotonicity and zero waivers", waivers == 0
           and checked_steps > 0)


def many_merge_instances():
    g1 = gadgets.merge_triangle()
    yield g1, set(range(g1.m - 3))
    g2 = gadgets.short_heavy_c5()
    yield g2, {e for e, (u, v) in enumerate(g2.edges)
               if (u < 9) == (v < 9)}
    g3 = gadgets.shortcut_ring(5)
    yield g3, set(range(20))
    g4 = gadgets.branch_fig()
    yield g4, {e for e, (u, v) in enumerate(g4.edges)
               if abs(u - v) <= 3 and (u // 4 == v // 4)}


# ---------------------------------------------------------------------------
# 6. abc-merge arithmetic
# ---------------------------------------------------------------------------

def test_criterion_6_merge_arithmetic():
    audits = []
    for g, h0 in many_merge_instances():
        dec = CoverDecomposition(g, h0, P)
        led, info = build_many_ledger(dec, P, strict=False)
        state = ManyState(g, dec, led, P, dict(info))
        while True:
            cand = find_merge(state)
            if cand is None:
                break
            assert apply_merge(state, cand)
        audits.extend(state.merge_audits)
    singles = [a for a in audits if a["kind"] == "single"]
    doubles = [a for a in audits if a["kind"] == "double"]
    heavies = [a for a in audits if a["kind"] == "short_heavy"]
    ok = len(audits) > 0 and all(a["bound_ok"] for a in audits)
    for a in singles:
        assert a["delta_cost"] <= 2 + a["j"] - (1 - 4 * DELTA_MANY) * a["k"] <= 0
    for a in doubles:
        assert a["delta_cost"] <= 3 + a["j"] - (1 - 4 * DELTA_MANY) * a["k"] <= 0
    for a in heavies:
        assert a["cr_drop"] >= a["x_size"]
    print(f"  [merges: {len(singles)} single, {len(doubles)} double, "
          f"{len(heavies)} short-heavy]")
    report(6, "abc-merge arithmetic", bool(ok and singles and doubles and heavies))


# ---------------------------------------------------------------------------
# 7. core-square on the hub family
# ---------------------------------------------------------------------------

def test_criterion_7_core_square():
    ok = True
    for k in range(3, 9):
        g = gadgets.hub_c4(k, hub_len=9)
        h0 = non_hub_cover(g, 9)
        dec = CoverDecomposition(g, h0, P)
        assert is_canonical(g, h0, P).ok
        led, info = build_many_ledger(dec, P)
        state = ManyState(g, dec, led, P, dict(info))
        before = cost(state.dec, state.led)
        rep = build_core_square(state)
        after = cost(state.dec, state.led)
        ok = ok and rep["ok"] and rep["pendant_segments_3_or_4"]
        ok = ok and after <= before + 2
    report(7, "core-square construction", ok)


# ---------------------------------------------------------------------------
# 8. MANY end bound
# ---------------------------------------------------------------------------

def test_criterion_8_many_bound():
    ok = True
    for k in range(3, 7):
        g = gadgets.hub_c4(k, hub_len=9)
        h0 = non_hub_cover(g, 9)
        opt = len(oracle.exact_min_2ecss(g, limit=max(40, g.n)))
        sol, state = run_many(g, h0, P, opt_hint=opt)
        assert oracle._two_ec_on(g, sol)
        dec0 = CoverDecomposition(g, h0, P)
        m4 = dec0.c4_edge_count()
        mr = len(h0) - m4
        bound = ((Fraction(5, 4) - DELTA_MANY) * m4 + 5 * mr
                 + Fraction(opt, 35))
        ok = ok and Fraction(len(sol)) <= bound
        ok = ok and not any(r.waiver for r in state.trace)
    report(8, "MANY end bound", ok)


# ---------------------------------------------------------------------------
# 9. preprocessing invariant and branch coverage
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_preprocessing():
    from tests.test_preprocess import (EXPECTED_BRANCH, audit_invariant,
                                       branch_labels, inner_oracle)
    seen: set[str] = set()
    for kind, want in EXPECTED_BRANCH.items():
        g = gadgets.GADGETS[kind]()
        sol, trace = red(g, P, inner=inner_oracle)
        assert oracle._two_ec_on(g, sol)
        labels = branch_labels(trace)
        assert any(want in l for l in labels), (kind, labels)
        audit_invariant(g, sol, trace)
        seen.add(want)
    needed = {"Remove2VC/B", "Remove2VC/C", "Remove2VC/both-large",
              "Remove3VC/B1", "Remove3VC/C1", "Remove3VC/C2i",
              "Remove3VC/C2ii", "Remove3VC/C2iii", "Remove3VC/C3",
              "Remove3VC/both-large", "RemoveCkCut/k4", "RemoveCkCut/k8",
              "Remove4VC/case1", "Remove4VC/case2"}
    print(f"  [branches: {len(seen & needed)}/{len(needed)} cut branches]")
    report(9, "preprocessing invariant and branch coverage",
           needed <= seen)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism():
    ok = True
    cases = [harness.generate("random2ec", seed=123, n=11, p=0.5),
             harness.generate("random2ec", seed=77, n=9, p=0.7),
             harness.generate("hub_c4", k=3),
             harness.generate("nice_c5_complex")]
    for g in cases:
        cfg = harness.SolverConfig(profile="desk", mode="auto", seed=9,
                                   with_oracle=True)
        s1, r1 = harness.solve(g, cfg)
        s2, r2 = harness.solve(g, cfg)
        j1, j2 = r1.to_json(), r2.to_json()
        j1.pop("wall_time")
        j2.pop("wall_time")
        ok = ok and s1 == s2 and j1 == j2
    report(10, "determinism", ok)
