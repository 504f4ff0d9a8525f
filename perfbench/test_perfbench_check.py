"""Tests of the benchmark's own answer checker and span accounting."""
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import two_ecss_problem  # noqa: E402
from spans import Tracer  # noqa: E402

# two triangles 0-1-2 and 3-4-5 joined by edges 6 (2-3) and 7 (0-5)
TWO_TRIANGLES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (0, 5)]


def test_accepts_a_cycle():
    assert two_ecss_problem(4, [(0, 1), (1, 2), (2, 3), (3, 0)], {0, 1, 2, 3}) is None


def test_accepts_two_parallel_edges():
    assert two_ecss_problem(2, [(0, 1), (0, 1)], {0, 1}) is None


def test_rejects_a_bridge():
    why = two_ecss_problem(6, TWO_TRIANGLES, {0, 1, 2, 3, 4, 5, 6})
    assert why == "solution edge 6 is a bridge"


def test_rejects_a_disconnected_solution():
    why = two_ecss_problem(6, TWO_TRIANGLES, {0, 1, 2, 3, 4, 5})
    assert why == "the solution does not connect every vertex"


def test_rejects_a_non_spanning_solution():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
    assert two_ecss_problem(4, edges, {0, 1, 2}) == "vertex 3 has 0 solution edges"


def test_rejects_out_of_range_edge_ids():
    edges = [(0, 1), (1, 2), (2, 0)]
    assert "out of range" in two_ecss_problem(3, edges, {0, 1, 3})
    assert "out of range" in two_ecss_problem(3, edges, {-1, 0, 1, 2})


def test_a_self_loop_does_not_count_as_degree():
    assert two_ecss_problem(2, [(0, 1), (0, 0), (1, 1)], {0, 1, 2}) is not None


TOY = """
import time

def leaf():
    time.sleep(0.002)
    return True

def outer():
    time.sleep(0.001)
    return leaf() and leaf()
"""


def test_self_times_and_outside_time_add_up_to_wall():
    toy = types.ModuleType("toy")
    exec(TOY, toy.__dict__)
    user = types.ModuleType("user")      # as if it ran `from toy import leaf`
    user.leaf = toy.leaf
    tracer = Tracer()
    tracer.install([toy, user], toy, "outer", "toy.outer")
    tracer.install([toy, user], toy, "leaf", "toy.leaf",
                   result_count=("hits", int))
    assert user.leaf is toy.leaf
    t0 = time.perf_counter()
    toy.outer()
    user.leaf()
    wall = time.perf_counter() - t0
    stats = tracer.summary()
    assert stats["toy.outer"]["calls"] == 1
    assert stats["toy.leaf"]["calls"] == 3
    assert tracer.counts["toy.leaf.hits"] == 3
    parents = [tracer.spans[p][0] if p >= 0 else None
               for _, _, _, p, _ in tracer.spans]
    assert parents == [None, "toy.outer", "toy.outer", None]
    outside = wall - tracer.top_level_seconds()
    self_total = sum(s["self_s"] for s in stats.values())
    assert outside >= 0
    assert abs(self_total + outside - wall) < 1e-9
    assert stats["toy.leaf"]["self_s"] >= 0.006
    assert 0.001 <= stats["toy.outer"]["self_s"] < stats["toy.leaf"]["self_s"]
