"""Reference scans for ``preprocess._vertex_cuts``: the breadth-first
components of G - cut, which the scan reads off its lowpoint forest instead,
and the scan itself without its prefix pruning."""
import itertools
from functools import partial

from twoec.graph import connected_components, lowpoint_forest
from twoec.preprocess import _split_forest


def _components_without(g, cut):
    """The components of G - cut: each sorted, ordered by smallest vertex."""
    return connected_components(g, None, set(cut))


def reference_vertex_cuts(g, k, side):
    """``_vertex_cuts(g, k, side)`` with one lowpoint forest per (k-1)-prefix
    that some d may follow, and no prefix skipped."""
    n = g.n
    for prefix in itertools.combinations(range(n), k - 1):
        lo = prefix[-1] + 1 if prefix else 0
        if lo == n:
            continue                    # no d may follow the prefix
        order, parent, _, disc, low, end = lowpoint_forest(g, skip=prefix)
        most = len(order) - 1 - side    # the largest component allowed
        roots = []
        hsum = [0] * n                  # d's head subtrees: total size
        hmax = [0] * n                  # and the largest
        for v in order:
            p = parent[v]
            if p == -1:
                roots.append(v)
            elif low[v] >= disc[p]:
                s = end[v] - disc[v]
                hsum[p] += s
                if s > hmax[p]:
                    hmax[p] = s
        big = [r for r in roots if end[r] - disc[r] > most]
        if len(big) > 1:
            continue
        if big:
            first, last = disc[big[0]], end[big[0]]
            need = last - first - 1 - most  # least head total: rest <= most
        for d in range(lo, n):
            if not big or (first <= disc[d] < last and hsum[d] >= need
                           and hmax[d] <= most):
                yield prefix + (d,), partial(_split_forest, order, disc, end,
                                             low, roots, d)
