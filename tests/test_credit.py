from fractions import Fraction

import pytest

from ledger_checks import assert_few_ledger_ok, assert_many_ledger_ok
from twoec.credit import (FEW, MANY, build_few_ledger, build_many_ledger,
                          check_invariants, cost, derive_credits,
                          is_nice_c5_block)
from twoec.decomp import CoverDecomposition
from twoec.graph import MultiGraph
from twoec.params import desk_params

P = desk_params()
D_FEW = Fraction(1, 100)
D_MANY = Fraction(1, 28)


def single_c4_host():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return g, set(range(4))


def test_cost_c4_few():
    g, h = single_c4_host()
    dec = CoverDecomposition(g, h, P)
    led = derive_credits(dec, FEW, D_FEW)
    assert cost(dec, led) == 5          # 4 + 1


def test_cost_c5_few():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    dec = CoverDecomposition(g, set(range(5)), P)
    led = derive_credits(dec, FEW, D_FEW)
    assert cost(dec, led) == 5 + 5 * (Fraction(1, 4) - D_FEW)
    assert cost(dec, led) == Fraction(31, 5)   # 6.2


def test_cost_many_ten_c4s():
    edges = []
    for i in range(10):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    g = MultiGraph(40, edges)
    dec = CoverDecomposition(g, set(range(40)), P)
    led = derive_credits(dec, MANY, D_MANY)
    assert cost(dec, led) == 40 * (Fraction(5, 4) - D_MANY)


def test_many_single_c5_cost():
    g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    dec = CoverDecomposition(g, set(range(5)), P)
    led = derive_credits(dec, MANY, D_MANY)
    assert cost(dec, led) == 5 + 20


def nice_c5_complex_host():
    """Two nice C5 blocks joined through a middle vertex by two bridges, plus
    a hub C9 the pendant C5s attach to (keeps G 2EC)."""
    edges = []
    # block A: 0..4, b1 = 0 incident to bridge, so 1 and 4 must have host deg 2
    edges += [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]       # 0..4
    # bridges 0-5 and 5-6
    edges += [(0, 5), (5, 6)]
    # block B: 6..10, b1 = 6
    edges += [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]
    # hub C9: 11..19
    edges += [(11 + i, 11 + (i + 1) % 9) for i in range(9)]
    # attachments from b3/b4 vertices (2, 3) and (8, 9) to the hub
    edges += [(2, 11), (3, 13), (8, 15), (9, 17)]
    g = MultiGraph(20, edges)
    h = set(range(12)) | set(range(12, 21))   # both C5s + bridges + hub
    return g, h


def test_nice_c5_detection_and_rich_transform():
    g, h = nice_c5_complex_host()
    dec = CoverDecomposition(g, h, P)
    comp = [c for c in dec.components if c.bridges][0]
    assert len(comp.blocks) == 2 and len(comp.bridges) == 2
    assert all(is_nice_c5_block(g, dec, comp, b) for b in comp.blocks)
    dec2, led, info = build_few_ledger(g, dec)
    assert_few_ledger_ok(info)
    assert info["rich_added"] == [5]
    rich = [c for c in dec2.components if c.is_rich]
    assert len(rich) == 1
    assert led.rich_credit[5] == 2 * (Fraction(5, 4) - D_FEW)
    assert not check_invariants(g, dec2, led)


def three_c4s_host():
    edges = []
    for i in range(3):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    return MultiGraph(12, edges), set(range(12))


def test_few_ledger_three_c4s_no_loans():
    g, h = three_c4s_host()
    dec = CoverDecomposition(g, h, P)
    dec2, led, info = build_few_ledger(g, dec)
    assert_few_ledger_ok(info)
    assert not led.loans
    assert cost(dec2, led) == 15       # (5/4) * 12
    assert info["beta"] == 1


def two_block_loan_host():
    """Complex component: C5 - bridge - x - bridge - y - bridge - C5 (3
    bridges, blocks k = 10) plus a hub so the host is 2EC."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]        # block A 0..4
    edges += [(0, 5), (5, 6), (6, 7)]                       # bridges to block B
    edges += [(7, 8), (8, 9), (9, 10), (10, 11), (11, 7)]   # block B 7..11
    edges += [(12 + i, 12 + (i + 1) % 9) for i in range(9)]  # hub C9 12..20
    edges += [(2, 12), (3, 14), (9, 16), (10, 18), (5, 13), (6, 17)]
    g = MultiGraph(21, edges)
    h = set(range(13)) | set(range(13, 22))
    return g, h


def test_few_ledger_two_blocks_loan():
    g, h = two_block_loan_host()
    dec = CoverDecomposition(g, h, P)
    dec2, led, info = build_few_ledger(g, dec)
    assert_few_ledger_ok(info)
    # k = 10 edges in blocks: loan = 3 - 10(1/4 - delta) = 1/2 + 10 delta
    assert list(led.loans.values()) == [Fraction(1, 2) + 10 * D_FEW]
    assert not check_invariants(g, dec2, led)


def test_corrupted_loan_flags_violation():
    g, h = two_block_loan_host()
    dec = CoverDecomposition(g, h, P)
    dec2, led, info = build_few_ledger(g, dec)
    assert_few_ledger_ok(info)
    color = next(iter(led.loans))
    led.loans[color] = Fraction(10)
    problems = check_invariants(g, dec2, led)
    assert any("exceeds remaining bridge credits" in p for p in problems)


def test_many_ledger_bound():
    g, h = three_c4s_host()
    dec = CoverDecomposition(g, h, P)
    led, info = build_many_ledger(dec)
    assert_many_ledger_ok(info)
    assert cost(dec, led) == (Fraction(5, 4) - D_MANY) * 12


def test_many_complex_component_budget():
    # complex component: two C5 blocks and one bridge, 11 edges; the MANY
    # assignment charges 1 + 1 + 1 + 4 = 7 credits against a 5 * 11 budget
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5),
             (5, 6), (6, 7), (7, 8), (8, 9), (9, 5)]
    edges += [(10 + i, 10 + (i + 1) % 9) for i in range(9)]
    edges += [(2, 10), (3, 12), (7, 14), (8, 16)]
    g = MultiGraph(19, edges)
    from twoec.credit import derive_credits, MANY
    dec = CoverDecomposition(g, set(range(11)), P)
    comp = [c for c in dec.components if c.bridges][0]
    led = derive_credits(dec, MANY, D_MANY)
    cr = (led.component_credit[comp.key]
          + sum(led.block_credit[b.key] for b in comp.blocks)
          + sum(led.bridge_credit[e] for e in comp.bridges))
    assert cr == 1 + 1 + 1 + 4
    assert len(comp.edges) + cr <= 5 * len(comp.edges)
