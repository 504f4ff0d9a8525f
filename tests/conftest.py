import random

import pytest

from twoec.graph import MultiGraph


def random_multigraph(rnd):
    """A multigraph on 0-12 vertices: disjoint cycles over random blocks of
    vertices (a 1-cycle is a self-loop, a 2-cycle a parallel pair), a few
    vertices left isolated, and random extra edges, loops and parallel
    copies included.  One block spanning every vertex makes it 2EC."""
    n = rnd.randint(0, 12)
    order = rnd.sample(range(n), n)
    if order and rnd.random() < 0.3:
        order = order[:rnd.randint(0, n - 1)]          # isolated vertices
    edges = []
    while order:
        size = len(order) if rnd.random() < 0.4 else rnd.randint(1, len(order))
        block, order = order[:size], order[size:]
        edges += [(block[i], block[(i + 1) % size]) for i in range(size)]
    for _ in range(rnd.randint(0, n)):
        if edges and rnd.random() < 0.2:
            edges.append(rnd.choice(edges))
        else:
            edges.append((rnd.randrange(n), rnd.randrange(n)))
    rnd.shuffle(edges)
    return MultiGraph(n, edges)


def edge_subsets(rnd, g):
    """Every edge, every edge but one, and two random subsets."""
    out = [list(range(g.m))]
    if g.m:
        drop = rnd.randrange(g.m)
        out.append([e for e in range(g.m) if e != drop])
    for keep in (0.5, 0.85):
        out.append([e for e in range(g.m) if rnd.random() < keep])
    return out


@pytest.fixture(scope="session")
def multigraph_cases():
    """(graph, edge subsets) for 1,300 seeded random multigraphs, 100 for
    each n in 0..12."""
    rnd = random.Random(9090)
    cases = []
    by_n = {n: 0 for n in range(13)}
    while min(by_n.values()) < 100:
        g = random_multigraph(rnd)
        if by_n[g.n] < 100:
            by_n[g.n] += 1
            cases.append((g, edge_subsets(rnd, g)))
    return cases
