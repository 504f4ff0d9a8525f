import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoec import gadgets
from twoec.cuts import CutDescriptor, enumerate_cuts, exhaustive_structured_check
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.params import desk_params
from twoec.preprocess import DETECTORS, find_contractible, red

P = desk_params()


def test_shared_vertex_is_vertex1():
    g = gadgets.planted_vertex1()
    out = enumerate_cuts(g, P)
    assert len(out) == 1 and out[0].kind == "Vertex1"


def test_parallel_edge_detected():
    g = gadgets.planted_parallel()
    out = enumerate_cuts(g, P)
    assert out[0].kind == "LoopOrParallel"


def test_irrelevant_edge_detected():
    g = gadgets.planted_irrelevant()
    out = enumerate_cuts(g, P)
    assert out[0].kind == "IrrelevantEdge"


def test_large_3vc_sides():
    g = gadgets.planted_3vc_both_large()
    out = enumerate_cuts(g, P)
    assert out[0].kind in ("Vertex2", "Vertex3")
    if out[0].kind == "Vertex3":
        assert out[0].large
        assert all(len(s) >= P.three_cut_side for s in out[0].sides)


def test_planted_cycle_cut_found():
    g = gadgets.planted_cycle_cut(4)
    out = enumerate_cuts(g, P)
    assert out[0].kind == "CycleCut"
    assert len(out[0].cycle_order) == 4
    assert all(len(s) >= P.ck_side(4) for s in out[0].sides)


def test_planted_4vc_case1_found():
    g = gadgets.planted_4vc_case1()
    out = enumerate_cuts(g, P)
    assert out[0].kind == "Vertex4" and out[0].condition == 1
    assert all(len(s) >= P.four_cut_side_2 for s in out[0].sides)


@given(st.integers(6, 12), st.randoms())
@settings(max_examples=30, deadline=None)
def test_empty_iff_exhaustively_structured(n, rnd):
    g = gadgets.random2ec(n, 0.6, rnd.randint(0, 10 ** 6))
    out = enumerate_cuts(g, P)
    certified = exhaustive_structured_check(g, P)
    if certified:
        assert out == []
    if not out:
        # the scan found nothing: the exhaustive checker may still reject for
        # reasons outside the scan (none at this size), so require agreement
        assert certified


# the reduction step that handles each cut kind
STEP = {"Vertex1": "SplitCutVertex", "LoopOrParallel": "DropLoopOrParallel",
        "IrrelevantEdge": "DropIrrelevant", "Vertex2": "Remove2VC",
        "Vertex3": "Remove3VC", "CycleCut": "RemoveCkCut",
        "Vertex4": "Remove4VC"}
# the benchmark's planted gadgets: all but cycle8 and vertex4_case1, whose
# reductions take minutes
PLANTED = [k for k in gadgets.GADGETS if k not in ("cycle8", "vertex4_case1")]


@pytest.mark.parametrize("case", PLANTED + [(18, 0.2, 1), (20, 0.15, 1),
                                             (22, 0.15, 1)],
                         ids=lambda c: c if isinstance(c, str)
                         else "random2ec-n{}-p{}-s{}".format(*c))
def test_cut_scan_agrees_with_reduction(case):
    """enumerate_cuts reports the cut the reduction's root step acts on; the
    contractible entry, which the scan skips, may act first."""
    if isinstance(case, str):
        g = gadgets.GADGETS[case]()
    else:
        n, p, seed = case
        g = gadgets.random2ec(n, p, seed)
    # the inner solver only has to be feasible: the root step is under test
    _, trace = red(g, P, inner=lambda sub: set(range(sub.m)))
    cuts = enumerate_cuts(g, P)
    order = [kind for kind, _, _ in DETECTORS]
    if cuts and order.index(cuts[0].kind) < order.index("Contractible"):
        expected = STEP[cuts[0].kind]
    elif find_contractible(g, P) is not None:
        expected = "ContractContractible"
    else:
        expected = STEP[cuts[0].kind] if cuts else "CallInner"
    assert trace.step == expected
    if expected in STEP.values():
        if "edge" in trace.detail:
            assert trace.detail["edge"] == cuts[0].edge
        else:
            assert sorted(trace.detail["cut"]) == sorted(cuts[0].vertices)
