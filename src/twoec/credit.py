"""Exact-rational credit bookkeeping for both phases, plus validity checks
for every credit/loan invariant.  No floating point anywhere."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .decomp import (C4, COMPLEX, CYCLE_TAGS, LARGE2EC, BlockTree, Component,
                     CoverDecomposition)
from .graph import MultiGraph, degrees
from .params import FEW_DELTA, MANY_DELTA

FEW = "FEW"
MANY = "MANY"


@dataclass
class CreditLedger:
    scheme: str
    delta: Fraction
    component_credit: dict[int, Fraction] = field(default_factory=dict)   # keyed by comp.key
    block_credit: dict[tuple, Fraction] = field(default_factory=dict)     # keyed by block.key
    bridge_credit: dict[int, Fraction] = field(default_factory=dict)      # edge id
    rich_credit: dict[int, Fraction] = field(default_factory=dict)        # vertex
    colors: dict[int, int] = field(default_factory=dict)                  # bridge eid -> color
    loans: dict[int, Fraction] = field(default_factory=dict)              # color -> loan

    def total_credit(self) -> Fraction:
        return (sum(self.component_credit.values(), Fraction(0))
                + sum(self.block_credit.values(), Fraction(0))
                + sum(self.bridge_credit.values(), Fraction(0))
                + sum(self.rich_credit.values(), Fraction(0)))

    def total_loan(self) -> Fraction:
        return sum(self.loans.values(), Fraction(0))

    def bridge_credit_of_color(self, color: int) -> Fraction:
        return sum((cr for eid, cr in self.bridge_credit.items()
                    if self.colors.get(eid) == color), Fraction(0))


def component_scheme_credit(comp: Component, scheme: str, delta: Fraction) -> Fraction:
    """Credit of a component that is neither complex nor a rich vertex
    under the scheme."""
    if scheme == FEW:
        if comp.tag == C4:
            return Fraction(1)
        if comp.tag in CYCLE_TAGS:
            return (Fraction(1, 4) - delta) * CYCLE_TAGS[comp.tag]
        if comp.tag == LARGE2EC:
            return Fraction(2)
        return Fraction(1)          # non-canonical 2EC shapes; flagged elsewhere
    else:
        if comp.tag == C4:
            return 4 * (Fraction(1, 4) - delta)
        if comp.tag in CYCLE_TAGS:
            return Fraction(4 * CYCLE_TAGS[comp.tag])
        if comp.tag == LARGE2EC:
            return Fraction(2)
        return Fraction(1)


def derive_credits(dec: CoverDecomposition, scheme: str, delta: Fraction) -> CreditLedger:
    """Scheme-determined credits for the current structure (no loans)."""
    led = CreditLedger(scheme=scheme, delta=delta)
    bridge_cr = (Fraction(1, 4) - delta) if scheme == FEW else Fraction(4)
    for comp in dec.components:
        if comp.is_rich:
            led.rich_credit[min(comp.vertices)] = 2 * (Fraction(5, 4) - delta)
            continue
        if comp.tag == COMPLEX:
            led.component_credit[comp.key] = Fraction(1)
            for blk in comp.blocks:
                led.block_credit[blk.key] = Fraction(1)
            for eid in comp.bridges:
                led.bridge_credit[eid] = bridge_cr
        else:
            led.component_credit[comp.key] = component_scheme_credit(comp, scheme, delta)
    return led


def cost(dec: CoverDecomposition, led: CreditLedger) -> Fraction:
    return Fraction(len(dec.h)) + led.total_credit()


def is_nice_c5_block(g: MultiGraph, dec: CoverDecomposition, comp: Component,
                     block) -> bool:
    """Pendant C5 block whose two cycle-neighbors of the bridge vertex have
    degree 2 in the host graph."""
    if len(block.vertices) != 5 or len(block.edges) != 5:
        return False
    deg = degrees(g, block.edges)
    if any(deg[v] != 2 for v in block.vertices):
        return False
    bridge_verts = [v for eid in comp.bridges for v in g.edges[eid]
                    if v in block.vertices]
    if len(set(bridge_verts)) != 1:
        return False
    b1 = bridge_verts[0]
    host_deg = degrees(g, range(g.m))
    ends = [g.edges[eid] for eid in block.edges]
    return all(host_deg[u + v - b1] == 2 for u, v in ends if b1 in (u, v))


def apply_rich_transform(g: MultiGraph, dec: CoverDecomposition
                         ) -> tuple[CoverDecomposition, list[int]]:
    """FEW pre-pass: a complex component with exactly two blocks (both nice
    C5's) and exactly two bridges loses its bridges; the shared vertex
    becomes a rich vertex."""
    h = set(dec.h)
    rich = set(dec.rich_vertices)
    converted: list[int] = []
    for comp in dec.components:
        if comp.tag != COMPLEX or len(comp.blocks) != 2 or len(comp.bridges) != 2:
            continue
        if not all(is_nice_c5_block(g, dec, comp, b) for b in comp.blocks):
            continue
        ends: list[int] = []
        for eid in comp.bridges:
            ends.extend(g.edges[eid])
        shared = [v for v in set(ends) if ends.count(v) == 2]
        if len(shared) != 1:
            continue
        h -= comp.bridges
        rich.add(shared[0])
        converted.append(shared[0])
    if not converted:
        return dec, []
    return CoverDecomposition(g, h, dec.params, rich), converted


def build_few_ledger(g: MultiGraph, dec: CoverDecomposition
                     ) -> tuple[CoverDecomposition, CreditLedger, dict]:
    """Rich-vertex transform, scheme credits, colors, and initial loans.

    Returns the (possibly transformed) decomposition, the ledger, and an
    info dict carrying beta and the pre-transform size for bound audits.  A
    loan over its colour's bridge credits is clipped and recorded as a waiver.
    """
    delta = FEW_DELTA
    h0_size = len(dec.h)
    beta = Fraction(dec.c4_edge_count(), h0_size) if h0_size else Fraction(0)
    dec, rich_added = apply_rich_transform(g, dec)
    led = derive_credits(dec, FEW, delta)
    next_color = 0
    waivers: list[str] = []
    for comp in dec.components:
        if comp.tag != COMPLEX:
            continue
        color = next_color
        next_color += 1
        for eid in comp.bridges:
            led.colors[eid] = color
        nblocks = len(comp.blocks)
        k = sum(len(b.edges) for b in comp.blocks)
        loan = Fraction(0)
        if nblocks >= 5:
            loan = Fraction(0)
        elif nblocks == 4:
            loan = Fraction(0) if k >= 21 else 20 * delta if k == 20 else None
        elif nblocks == 3:
            loan = (Fraction(0) if k >= 17
                    else 16 * delta if k == 16
                    else Fraction(1, 4) + 15 * delta if k == 15 else None)
        elif nblocks == 2:
            if k >= 13:
                loan = Fraction(0)
            elif 10 <= k <= 12:
                loan = 3 - k * (Fraction(1, 4) - delta)
            else:
                loan = None
        else:
            loan = None
        if loan is None:
            # off-canonical structure (blocks below the size floor)
            need = nblocks + 1 - k * (Fraction(1, 4) - delta)
            loan = max(Fraction(0), need)
            waivers.append(f"component {min(comp.vertices)}: non-canonical block sizes")
        cap = led.bridge_credit_of_color(color)
        if loan > cap:
            waivers.append(f"color {color}: loan clipped {loan} -> {cap}")
            loan = cap
        if loan > 0:
            led.loans[color] = loan
    info = {"beta": beta, "h0_size": h0_size, "rich_added": rich_added,
            "waivers": waivers}
    bound = (Fraction(5, 4) - (1 - beta) * delta) * h0_size
    info["initial_bound_ok"] = (cost(dec, led) - led.total_loan()) <= bound
    return dec, led, info


def build_many_ledger(dec: CoverDecomposition) -> tuple[CreditLedger, dict]:
    """Scheme credits for MANY; ``info["bound_ok"]`` says whether the
    starting cost is within (5/4 - delta) m4 + 5 mr."""
    delta = MANY_DELTA
    led = derive_credits(dec, MANY, delta)
    m4 = dec.c4_edge_count()
    mr = len(dec.h) - m4
    bound = (Fraction(5, 4) - delta) * m4 + 5 * mr
    ok = cost(dec, led) <= bound
    return led, {"m4": m4, "mr": mr, "bound": bound, "bound_ok": ok}


def check_invariants(g: MultiGraph, dec: CoverDecomposition,
                     led: CreditLedger) -> list[str]:
    """Empty list iff every ledger invariant holds."""
    out: list[str] = []
    expect = derive_credits(dec, led.scheme, led.delta)
    for attr in ("component_credit", "block_credit", "bridge_credit", "rich_credit"):
        got, want = getattr(led, attr), getattr(expect, attr)
        if got != want:
            out.append(f"{attr} deviates from the scheme values")
    return out + check_loans(g, dec, led)


def check_loans(g: MultiGraph, dec: CoverDecomposition,
                led: CreditLedger) -> list[str]:
    """Empty list iff every loan and colour invariant holds; the credit maps
    are taken as given, as when ``derive_credits`` has just built them."""
    out: list[str] = []
    if led.scheme != FEW:
        return out
    comp_of_bridge: dict[int, Component] = {}
    for comp in dec.components:
        for eid in comp.bridges:
            comp_of_bridge[eid] = comp
    by_color: dict[int, list[int]] = {}
    for eid, color in led.colors.items():
        if eid in comp_of_bridge:
            by_color.setdefault(color, []).append(eid)
    for color, loan in sorted(led.loans.items()):
        if loan <= 0:
            continue
        eids = by_color.get(color, [])
        if not eids:
            out.append(f"color {color}: deficient but owns no bridges")
            continue
        comps = {id(comp_of_bridge[eid]) for eid in eids}
        if len(comps) != 1:
            out.append(f"color {color}: bridges spread over several components")
            continue
        comp = comp_of_bridge[eids[0]]
        tree = BlockTree(g, comp)
        nodes: set[int] = set()
        tree_edges = []
        for eid in eids:
            u, v = g.edges[eid]
            a, b = tree.node_of_vertex[u], tree.node_of_vertex[v]
            nodes.update((a, b))
            tree_edges.append((a, b))
        # connectivity of T_C(F)
        adj: dict[int, list[int]] = {x: [] for x in nodes}
        for a, b in tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {min(nodes)}
        stack = [min(nodes)]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            out.append(f"color {color}: T_C(F) is not connected")
            continue
        leaves = [x for x in nodes if len(adj[x]) == 1]
        if len(leaves) > 4:
            out.append(f"color {color}: T_C(F) has more than 4 leaves")
        if any(not tree.is_block(x) for x in leaves):
            out.append(f"color {color}: a T_C(F) leaf is a lonely node")
        delta = led.delta
        caps = {4: 20 * delta,
                3: Fraction(1, 4) + 11 * delta,
                2: Fraction(1, 2) + 10 * delta}
        nl = len(leaves)
        cap = caps.get(nl)
        if cap is not None and loan > cap:
            out.append(f"color {color}: loan {loan} over the {nl}-leaf cap {cap}")
        if nl == 2 and loan > 2 * (Fraction(1, 4) - delta):
            for x in leaves:
                if tree.is_block(x) and not is_nice_c5_block(
                        g, dec, comp, tree.nodes[x]["block"]):
                    out.append(f"color {color}: 2-leaf high loan without nice C5 leaves")
                    break
        if loan > led.bridge_credit_of_color(color):
            out.append(f"color {color}: loan exceeds remaining bridge credits")
    return out
