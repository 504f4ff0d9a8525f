"""The shared exchange engine against the two validate-and-commit routines
it replaced, and a guard on the names the benchmark traces."""
import ast
import copy
import importlib
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from canonical import is_two_edge_cover
from ledger_checks import assert_few_ledger_ok
from twoec import few, gadgets, many
from twoec.cover import canonicalize, min_triangle_free_cover
from twoec.credit import (FEW, MANY, build_few_ledger, check_invariants, cost,
                          derive_credits)
from twoec.decomp import COMPLEX, CYCLE_TAGS, CoverDecomposition
from twoec.exchange import ExchangeState, NoProgress, StepRecord
from twoec.params import FEW_DELTA, MANY_DELTA, desk_params

P = desk_params()
ROOT = Path(__file__).resolve().parent.parent

# why the reference routines turned an exchange down, per scheme
REJECTS: dict[str, Counter] = {FEW: Counter(), MANY: Counter()}


def _reject(scheme: str, reason: str) -> bool:
    REJECTS[scheme][reason] += 1
    return False


# ---------------------------------------------------------------------------
# the two routines as they were before the merge; only the reason of each
# rejection is recorded
# ---------------------------------------------------------------------------

def reference_weakly_canonical_enough(g, dec) -> bool:
    if not is_two_edge_cover(dec, allow_rich=True):
        return False
    for comp in dec.components:
        if comp.tag == COMPLEX:
            for blk in comp.blocks:
                if len(blk.edges) < 5:
                    return False
    return True


def reference_canonical_shape_ok(g, dec) -> bool:
    if not is_two_edge_cover(dec, allow_rich=True):
        return False
    for comp in dec.components:
        if comp.is_rich:
            continue
        if comp.tag == COMPLEX:
            for blk in comp.blocks:
                if len(blk.edges) < 5:
                    return False
        elif comp.tag not in CYCLE_TAGS and not (comp.is_2ec and len(comp.edges) >= 9):
            return False
    return True


def reference_apply_candidate(state, adds: Iterable[int], removes: Iterable[int],
                              phase: str, label: str, *,
                              need_fewer_bridges: bool = False,
                              need_fewer_components: bool = False,
                              need_huge: bool = False,
                              allow_cost_increase: bool = False,
                              strict_structure: bool = True) -> bool:
    g, params = state.g, state.params
    adds = tuple(sorted(set(adds)))
    removes = tuple(sorted(set(removes)))
    if not adds and not removes:
        return _reject(FEW, "empty")
    if set(adds) & state.h or not set(removes) <= state.h:
        return _reject(FEW, "not-applicable")
    h2 = (state.h | set(adds)) - set(removes)
    dec2 = CoverDecomposition(g, h2, params, state.dec.rich_vertices)
    old_bridges = state.bridge_ids()
    new_bridges = {e for c in dec2.components for e in c.bridges}
    if not new_bridges <= old_bridges:
        return _reject(FEW, "new-bridge")
    if need_fewer_bridges and not len(new_bridges) < len(old_bridges):
        return _reject(FEW, "bridges-not-fewer")
    if need_fewer_components and not len(dec2.components) < len(state.dec.components):
        return _reject(FEW, "components-not-fewer")
    if need_fewer_components and len(new_bridges) > len(old_bridges):
        return _reject(FEW, "unreachable")
    if need_huge and not any(c.huge for c in dec2.components):
        return _reject(FEW, "no-huge")
    if strict_structure and not reference_weakly_canonical_enough(g, dec2):
        return _reject(FEW, "structure")
    led2 = derive_credits(dec2, FEW, FEW_DELTA)
    led2.colors = {e: c for e, c in state.led.colors.items() if e in new_bridges}
    dcost = cost(dec2, led2) - cost(state.dec, state.led)
    min_repay: dict[int, Fraction] = {}
    for color, loan in state.led.loans.items():
        remaining = sum((led2.bridge_credit[e] for e in new_bridges
                         if led2.colors.get(e) == color), Fraction(0))
        min_repay[color] = max(Fraction(0), loan - remaining)
    forced = sum(min_repay.values(), Fraction(0))
    if not allow_cost_increase and dcost + forced > 0:
        return _reject(FEW, "cost")
    budget = max(Fraction(0), -dcost)
    loans2: dict[int, Fraction] = {}
    spent = Fraction(0)
    for color in sorted(state.led.loans):
        loan = state.led.loans[color]
        repay = min_repay[color]
        extra_room = loan - repay
        extra = min(extra_room, max(Fraction(0), budget - forced - spent))
        repay += extra
        spent += extra
        if loan - repay > 0:
            loans2[color] = loan - repay
    led2.loans = loans2
    if check_invariants(g, dec2, led2):
        return _reject(FEW, "invariants")
    dloan = led2.total_loan() - state.led.total_loan()
    state.dec = dec2
    state.led = led2
    state.trace.append(StepRecord(phase=phase, label=label, adds=adds,
                                  removes=removes, delta_cost=dcost,
                                  delta_loan=dloan,
                                  waiver=allow_cost_increase))
    return True


def reference_apply_many(state, adds: Iterable[int], removes: Iterable[int],
                         phase: str, label: str, *,
                         need_fewer_components: bool = False,
                         need_fewer_bridges: bool = False,
                         cost_slack: Fraction = Fraction(0),
                         strict_structure: bool = True,
                         waiver: bool = False) -> bool:
    g, params = state.g, state.params
    adds = tuple(sorted(set(adds)))
    removes = tuple(sorted(set(removes)))
    if set(adds) & state.h or not set(removes) <= state.h:
        return _reject(MANY, "not-applicable")
    h2 = (state.h | set(adds)) - set(removes)
    dec2 = CoverDecomposition(g, h2, params, state.dec.rich_vertices)
    old_bridges = state.bridge_ids()
    new_bridges = {e for c in dec2.components for e in c.bridges}
    if not new_bridges <= old_bridges:
        return _reject(MANY, "new-bridge")
    if need_fewer_components and not (len(dec2.components) < len(state.dec.components)
                                      or len(new_bridges) < len(old_bridges)):
        return _reject(MANY, "no-progress")
    if need_fewer_bridges and not len(new_bridges) < len(old_bridges):
        return _reject(MANY, "bridges-not-fewer")
    if strict_structure and not reference_canonical_shape_ok(g, dec2):
        return _reject(MANY, "structure")
    led2 = derive_credits(dec2, MANY, MANY_DELTA)
    dcost = cost(dec2, led2) - cost(state.dec, state.led)
    if not waiver and dcost > cost_slack:
        return _reject(MANY, "cost")
    state.dec = dec2
    state.led = led2
    state.trace.append(StepRecord(phase=phase, label=label, adds=adds,
                                  removes=removes, delta_cost=dcost,
                                  delta_loan=Fraction(0), waiver=waiver))
    return True


# ---------------------------------------------------------------------------
# differential test
# ---------------------------------------------------------------------------

HOSTS = [
    ("bridge_chain", gadgets.bridge_chain),
    ("loan_complex", gadgets.loan_complex),
    ("nice_c5_complex", gadgets.nice_c5_complex),
    ("star_complex", gadgets.star_complex),
    ("short_heavy_c5", gadgets.short_heavy_c5),
    ("double_merge_host", gadgets.double_merge_host),
    ("hub_c4-3", lambda: gadgets.hub_c4(3)),
    ("hub_c4-6", lambda: gadgets.hub_c4(6)),
] + [(f"random2ec-{seed}",
      lambda seed=seed: gadgets.random2ec(12 + seed % 3, 0.25, 100 + seed))
     for seed in range(4)]


class Differ:
    """Runs every proposed exchange through the new entry point and the
    reference on copies of the state, checks they agree, and keeps the new
    outcome."""

    def __init__(self, scheme: str, new, reference, rng: random.Random):
        self.scheme, self.new, self.reference, self.rng = scheme, new, reference, rng
        self.seen = Counter()

    def compare(self, state, adds, removes, phase, label, flags) -> tuple:
        ref_flags = dict(flags)
        if self.scheme == FEW and "waiver" in ref_flags:
            ref_flags["allow_cost_increase"] = ref_flags.pop("waiver")
        s_new, s_ref = copy.copy(state), copy.copy(state)
        s_new.trace, s_ref.trace = list(state.trace), list(state.trace)
        ok = self.new(s_new, adds, removes, phase, label, **flags)
        assert ok == self.reference(s_ref, adds, removes, phase, label,
                                    **ref_flags), (adds, removes, flags)
        assert sorted(s_new.h) == sorted(s_ref.h)
        assert vars(s_new.led) == vars(s_ref.led)
        assert [r.to_json() for r in s_new.trace] == \
            [r.to_json() for r in s_ref.trace]
        if ok:
            rec = s_new.trace[-1]
            self.seen["accept"] += 1
            self.seen["repay"] += rec.delta_loan < 0
            self.seen["waiver"] += rec.waiver
            self.seen["slack"] += flags.get("cost_slack", 0) != 0
        return ok, s_new

    def __call__(self, state, adds, removes, phase, label, **flags) -> bool:
        self.sweep(state)
        ok, s_new = self.compare(state, tuple(adds), tuple(removes),
                                 phase, label, flags)
        state.dec, state.led, state.trace = s_new.dec, s_new.led, s_new.trace
        return ok

    def sweep(self, state) -> None:
        """Every one-edge exchange and a dozen random ones, under random
        flags."""
        for eid in range(state.g.m):
            edge = ((eid,), ()) if eid not in state.h else ((), (eid,))
            self.compare(state, *edge, "single", "single", self.random_flags(state))
        for _ in range(12):
            self.random_exchange(state)

    def random_exchange(self, state) -> None:
        """One to three random edges in, out, or both (now and then one from
        the wrong side), under random flags.  Never empty: the merged routine
        turns an empty exchange down for MANY too, which no MANY caller
        proposes."""
        rng = self.rng
        h = sorted(state.h)
        rest = [e for e in range(state.g.m) if e not in state.h]
        shape = rng.random()
        adds = rng.sample(rest, min(len(rest), rng.randint(1, 3))) \
            if shape < 0.7 else []
        removes = rng.sample(h, min(len(h), rng.randint(1, 3))) \
            if shape >= 0.4 or not adds else []
        if rng.random() < 0.05:
            adds.append(rng.choice(h))
        self.compare(state, tuple(adds), tuple(removes), "random", "random",
                     self.random_flags(state))

    def random_flags(self, state) -> dict:
        rng = self.rng
        flags = {"need_fewer_bridges": rng.random() < 0.3,
                 "strict_structure": rng.random() < 0.7,
                 "waiver": rng.random() < 0.3}
        # FEW asks for fewer components only while gluing, without bridges
        if self.scheme == MANY or not state.bridge_ids():
            flags["need_fewer_components"] = rng.random() < 0.4
        if self.scheme == FEW:
            flags["need_huge"] = rng.random() < 0.2
        else:
            flags["cost_slack"] = Fraction(rng.choice((0, 0, 1, 2)))
        return flags


def starting_covers(name: str, g) -> list[set[int]]:
    """The raw minimum triangle-free cover and its canonical form; for
    ``bridge_chain`` also the cover that keeps its whole bridge chain."""
    h, _ = min_triangle_free_cover(g, mode="exact")
    covers = [h, canonicalize(g, h, P)[0]]
    if name == "bridge_chain":
        covers.append(set(range(12 + 7)))
    return [c for i, c in enumerate(covers) if c not in covers[:i]]


def test_merged_commit_matches_the_two_routines(monkeypatch):
    for counter in REJECTS.values():
        counter.clear()
    rng = random.Random(2026)
    differs = {FEW: Differ(FEW, few.apply_candidate, reference_apply_candidate, rng),
               MANY: Differ(MANY, many.apply_many, reference_apply_many, rng)}
    monkeypatch.setattr(few, "apply_candidate", differs[FEW])
    monkeypatch.setattr(many, "apply_many", differs[MANY])
    for name, build in HOSTS:
        g = build()
        for h0 in starting_covers(name, g):
            for run in (few.run_few, many.run_many):
                try:
                    run(g, h0, P)
                except NoProgress:
                    pass
    # a loan over its 2-leaf cap: only the ledger check turns down an
    # exchange that creates no bridge and frees no cost to repay the loan,
    # and only the forced repayment makes some cheap exchanges too dear
    g = gadgets.bridge_chain()
    dec, led, info = build_few_ledger(g, CoverDecomposition(g, set(range(19)), P))
    assert_few_ledger_ok(info)
    assert not differs[FEW](ExchangeState(g, dec, led, P, {}), (), (),
                            "empty", "empty")
    led.loans[0] = Fraction(1)
    state = ExchangeState(g, dec, led, P, {})
    rest = [e for e in range(g.m) if e not in state.h]
    for adds in itertools.combinations(rest, 2):
        for removes in [()] + [(e,) for e in sorted(state.h)]:
            differs[FEW].compare(state, adds, removes, "pairs", "pairs",
                                 differs[FEW].random_flags(state))
    few_seen, many_seen = differs[FEW].seen, differs[MANY].seen
    assert few_seen["accept"] and few_seen["repay"] and few_seen["waiver"]
    assert many_seen["accept"] and many_seen["waiver"] and many_seen["slack"]
    assert set(REJECTS[FEW]) >= {"empty", "not-applicable", "new-bridge",
                                 "bridges-not-fewer", "components-not-fewer",
                                 "no-huge", "structure", "cost", "invariants"}
    assert set(REJECTS[MANY]) >= {"not-applicable", "new-bridge", "no-progress",
                                  "bridges-not-fewer", "structure", "cost"}
    assert "unreachable" not in REJECTS[FEW]


# ---------------------------------------------------------------------------
# the benchmark's trace names
# ---------------------------------------------------------------------------

def traced_names() -> list[str]:
    """The first field of each ``TRACED`` entry in perfbench/run.py, read
    without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return [entry.elts[0].value for entry in traced.elts]


def test_traced_names_resolve():
    names = traced_names()
    assert "few.apply_candidate" in names and "many.apply_many" in names
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"twoec.{module}")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), name


# hub_c4 k=12 is the benchmark's smallest hub; at k=3 canonicalisation alone
# joins the petals to the hub and no exchange runs
TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
harness = run.import_program()
tracer = run.Tracer()
run.install_tracer(tracer)
g = harness.generate("hub_c4", k=12)
for mode in ("few", "many"):
    harness.solve(g, harness.SolverConfig(profile="desk", mode=mode))
print(json.dumps({"summary": tracer.summary(), "counts": tracer.counts}))
"""


def test_tracer_sees_both_entry_points():
    """The benchmark wraps ``few.apply_candidate`` and ``many.apply_many``
    by name; the commits must go through those names.  A fresh interpreter
    keeps the wrappers out of this test session."""
    out = subprocess.run([sys.executable, "-c", TRACE_SCRIPT,
                          str(ROOT / "perfbench")],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    got = json.loads(out.stdout.splitlines()[-1])
    for name in ("few.apply_candidate", "many.apply_many"):
        assert got["summary"][name]["calls"] >= 1
        assert got["counts"][f"{name}.accepted"] >= 1
    # a commit builds its credit maps with derive_credits, so it checks only
    # the loan half (credit.check_loans), which the benchmark does not trace
    assert "credit.check_invariants" not in got["summary"]
