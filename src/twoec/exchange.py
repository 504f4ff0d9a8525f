"""The exchange engine shared by FEW and MANY.

Both phases turn a triangle-free 2-edge cover into a 2ECSS by edge
exchanges.  ``commit`` validates one exchange against the rebuilt
decomposition and ledger and commits it, in exact rationals: no new bridge,
the step's progress (fewer bridges, or fewer components or bridges), an
optional huge component, the scheme's structure rule, cost plus forced loan
repayment within the step's slack (unless the bound is waived), and every
ledger invariant.  ``few.apply_candidate`` and ``many.apply_many`` are its
two entry points; each supplies its scheme's structure rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .credit import CreditLedger, check_loans, cost, derive_credits
from .decomp import (COMPLEX, CYCLE_TAGS, LARGE2EC, ComponentGraphView,
                     CoverDecomposition)
from .graph import MultiGraph
from .params import StructuredParams


class NoProgress(RuntimeError):
    pass


@dataclass
class StepRecord:
    phase: str
    label: str
    adds: tuple[int, ...]
    removes: tuple[int, ...]
    delta_cost: Fraction
    delta_loan: Fraction
    waiver: bool = False

    def to_json(self) -> dict:
        return {"phase": self.phase, "label": self.label,
                "adds": list(self.adds), "removes": list(self.removes),
                "delta_cost": str(self.delta_cost),
                "delta_loan": str(self.delta_loan),
                "waiver": self.waiver}


class ExchangeState:
    """The current cover's decomposition and ledger, and the committed steps."""

    def __init__(self, g: MultiGraph, dec: CoverDecomposition,
                 led: CreditLedger, params: StructuredParams, info: dict):
        self.g = g
        self.params = params
        self.dec = dec
        self.led = led
        self.info = info
        self.trace: list[StepRecord] = []

    @property
    def h(self) -> set[int]:
        return self.dec.h

    def bridge_ids(self) -> set[int]:
        return self.dec.bridges

    def view(self) -> ComponentGraphView:
        return ComponentGraphView(self.g, self.dec)


def weakly_canonical_enough(dec: CoverDecomposition) -> bool:
    """FEW's structure rule: the cover property (rich vertices excepted) and
    the block-size floor of complex components."""
    if not dec.is_two_edge_cover():
        return False
    return all(len(blk.edges) >= 5 for c in dec.components
               if c.tag == COMPLEX for blk in c.blocks)


def canonical_shape_ok(dec: CoverDecomposition) -> bool:
    """MANY's structure rule: weak canonicity, and every component is rich,
    complex, a C4..C8 or large."""
    return weakly_canonical_enough(dec) and all(
        c.is_rich or c.tag in CYCLE_TAGS or c.tag in (COMPLEX, LARGE2EC)
        for c in dec.components)


def commit(state: ExchangeState, adds: Iterable[int], removes: Iterable[int],
           phase: str, label: str,
           structure_ok: Callable[[CoverDecomposition], bool], *,
           need_fewer_bridges: bool = False,
           need_fewer_components: bool = False,
           need_huge: bool = False,
           cost_slack: Fraction = Fraction(0),
           strict_structure: bool = True,
           waiver: bool = False) -> bool:
    """Validate and commit one exchange; returns True when applied."""
    g = state.g
    adds = tuple(sorted(set(adds)))
    removes = tuple(sorted(set(removes)))
    if not adds and not removes:
        return False
    if set(adds) & state.h or not set(removes) <= state.h:
        return False
    h2 = (state.h | set(adds)) - set(removes)
    dec2 = CoverDecomposition(g, h2, state.params, state.dec.rich_vertices)
    old_bridges = state.bridge_ids()
    new_bridges = dec2.bridges
    if not new_bridges <= old_bridges:
        return False
    fewer_bridges = len(new_bridges) < len(old_bridges)
    if need_fewer_bridges and not fewer_bridges:
        return False
    # FEW asks for fewer components only while gluing, with no bridge left,
    # so the "or fewer bridges" half of this rule is MANY's alone
    if need_fewer_components and not (
            len(dec2.components) < len(state.dec.components) or fewer_bridges):
        return False
    if need_huge and not any(c.huge for c in dec2.components):
        return False
    if strict_structure and not structure_ok(dec2):
        return False
    led = state.led
    led2 = derive_credits(dec2, led.scheme, led.delta)
    led2.colors = {e: c for e, c in led.colors.items() if e in new_bridges}
    dcost = cost(dec2, led2) - cost(state.dec, led)
    # forced repayment keeps each loan below its color's remaining credits
    min_repay: dict[int, Fraction] = {}
    for color, loan in led.loans.items():
        remaining = sum((led2.bridge_credit[e] for e in new_bridges
                         if led2.colors.get(e) == color), Fraction(0))
        min_repay[color] = max(Fraction(0), loan - remaining)
    forced = sum(min_repay.values(), Fraction(0))
    if not waiver and dcost + forced > cost_slack:
        return False
    budget = max(Fraction(0), -dcost)
    spent = Fraction(0)
    for color in sorted(led.loans):
        loan = led.loans[color]
        repay = min_repay[color]
        extra = min(loan - repay, max(Fraction(0), budget - forced - spent))
        repay += extra
        spent += extra
        if loan - repay > 0:
            led2.loans[color] = loan - repay
    if check_loans(g, dec2, led2):
        return False
    dloan = led2.total_loan() - led.total_loan()
    state.dec = dec2
    state.led = led2
    state.trace.append(StepRecord(phase=phase, label=label, adds=adds,
                                  removes=removes, delta_cost=dcost,
                                  delta_loan=dloan, waiver=waiver))
    return True
