"""Instance generators: random 2EC graphs and the hand-built families that
exercise each pipeline stage (hub-and-petals, nice-C5 complex components,
planted cuts for every reduction branch, the branching-gluing-path figure).

Side blobs are built from subdivided wheels: every rim edge touches a
degree-2 subdivision vertex, so the blob has no non-isolating 2-vertex cut
while the exact solvers see mostly forced edges.
"""
from __future__ import annotations

import random
from typing import Optional

from .graph import MultiGraph, is_two_edge_connected


class Builder:
    def __init__(self):
        self.n = 0
        self.edges: list[tuple[int, int]] = []

    def vertex(self) -> int:
        v = self.n
        self.n += 1
        return v

    def vertices(self, k: int) -> list[int]:
        return [self.vertex() for _ in range(k)]

    def edge(self, u: int, v: int) -> int:
        self.edges.append((u, v))
        return len(self.edges) - 1

    def cycle(self, vs: list[int]) -> list[int]:
        return [self.edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def path(self, vs: list[int]) -> list[int]:
        return [self.edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def graph(self) -> MultiGraph:
        return MultiGraph(self.n, self.edges)


def sub_wheel(b: Builder, k: int,
              members: Optional[dict[int, int]] = None) -> dict:
    """Subdivided wheel: hub, k spoke vertices, k rim subdivision vertices.

    ``members`` maps spoke slots to existing vertex ids (used to place cut
    vertices on the rim).  Returns hub, the spoke vertices, and the edge ids
    of the rim cycle and spokes (member slots get no hub spoke).
    """
    members = members or {}
    hub = b.vertex()
    spokes = [members.get(i, None) for i in range(k)]
    spokes = [s if s is not None else b.vertex() for s in spokes]
    subs = b.vertices(k)
    rim_edges = []
    for i in range(k):
        rim_edges.append(b.edge(spokes[i], subs[i]))
        rim_edges.append(b.edge(subs[i], spokes[(i + 1) % k]))
    spoke_edges = [b.edge(hub, s) for i, s in enumerate(spokes)
                   if i not in members]
    own = [hub] + [s for i, s in enumerate(spokes) if i not in members] + subs
    return {"hub": hub, "spokes": spokes, "subs": subs,
            "rim_edges": rim_edges, "spoke_edges": spoke_edges,
            "vertices": own}


def add_c4_petal(b: Builder, host_a: int, host_b: int) -> dict:
    """C4 attached to two host vertices at adjacent petal vertices."""
    p = b.vertices(4)
    cyc = b.cycle(p)
    b.edge(p[0], host_a)
    b.edge(p[1], host_b)
    return {"vertices": p, "cycle_edges": cyc}


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def random2ec(n: int, p: float, seed: int) -> MultiGraph:
    """Random simple 2EC graph: a scrambled Hamiltonian cycle plus density-p
    chords (the cycle guarantees feasibility, rejection-free)."""
    rnd = random.Random(seed)
    order = list(range(n))
    rnd.shuffle(order)
    edges = {(min(a, b), max(a, b))
             for a, b in zip(order, order[1:] + order[:1])}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rnd.random() < p:
                edges.add((u, v))
    g = MultiGraph(n, sorted(edges))
    assert is_two_edge_connected(g)
    return g


def hub_c4(k: int, hub_len: int = 9) -> MultiGraph:
    """Huge hub cycle plus k C4 petals, each adjacent only to the hub."""
    b = Builder()
    hub = b.vertices(hub_len)
    b.cycle(hub)
    for i in range(k):
        add_c4_petal(b, hub[(2 * i) % hub_len], hub[(2 * i + 1) % hub_len])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def nice_c5_complex(pendants: int = 1) -> MultiGraph:
    """Hub cycle plus ``pendants`` copies of the two-nice-C5 complex
    component (each turns into a rich vertex in the FEW phase)."""
    b = Builder()
    hub = b.vertices(9)
    b.cycle(hub)
    for i in range(pendants):
        a = b.vertices(5)
        b.cycle(a)
        mid = b.vertex()
        b.edge(a[0], mid)
        c = b.vertices(5)
        b.edge(mid, c[0])
        b.cycle(c)
        base = (4 * i) % 9
        b.edge(a[2], hub[base])
        b.edge(a[3], hub[(base + 2) % 9])
        b.edge(c[2], hub[(base + 4) % 9])
        b.edge(c[3], hub[(base + 6) % 9])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def loan_complex(bridges: int = 3) -> MultiGraph:
    """Complex component with two C5 blocks and a lonely-vertex bridge chain
    (takes an initial loan), plus a hub for repayment paths."""
    assert bridges >= 1
    b = Builder()
    a = b.vertices(5)
    b.cycle(a)
    chain = [a[0]] + b.vertices(bridges - 1)
    c = b.vertices(5)
    chain.append(c[0])
    b.path(chain)
    b.cycle(c)
    hub = b.vertices(9)
    b.cycle(hub)
    b.edge(a[2], hub[0])
    b.edge(a[3], hub[2])
    b.edge(c[2], hub[4])
    b.edge(c[3], hub[6])
    for i, mid in enumerate(chain[1:-1]):
        b.edge(mid, hub[(8 + i) % 9])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def star_complex(n_blocks: int = 3, hub_len: int = 9, chain: int = 1
                 ) -> MultiGraph:
    """Complex component shaped as a star of nice-C5 pendant blocks around a
    central lonely vertex (``chain`` bridges per arm), plus a hub the blocks
    repay their loans through."""
    b = Builder()
    hub = b.vertices(hub_len)
    b.cycle(hub)
    center = b.vertex()
    for i in range(n_blocks):
        arm = [center] + b.vertices(chain - 1)
        c5 = b.vertices(5)
        b.path(arm + [c5[0]])
        b.cycle(c5)
        b.edge(c5[2], hub[(3 * i) % hub_len])
        b.edge(c5[3], hub[(3 * i + 2) % hub_len])
        for j, mid in enumerate(arm[1:]):
            b.edge(mid, hub[(3 * i + 4 + j) % hub_len])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def merge_triangle() -> MultiGraph:
    """Three C4s pairwise joined by single edges entering at adjacent petal
    vertices: a single (3,0)-merge."""
    b = Builder()
    bases = [b.vertices(4) for _ in range(3)]
    for p in bases:
        b.cycle(p)
    for i in range(3):
        b.edge(bases[i][1], bases[(i + 1) % 3][0])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def short_heavy_c5(hub_len: int = 9) -> MultiGraph:
    """A C5 doubly attached to a huge hub: a length-2 short heavy cycle."""
    b = Builder()
    hub = b.vertices(hub_len)
    b.cycle(hub)
    c5 = b.vertices(5)
    b.cycle(c5)
    b.edge(c5[0], hub[0])
    b.edge(c5[2], hub[4])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def double_merge_host() -> MultiGraph:
    """Center C4 in two 3-node all-C4 segments; each segment supports only a
    (3,1)-merge and the composition is a double (5,1)-merge."""
    b = Builder()
    z = b.vertices(4)
    b.cycle(z)
    for base_v in (z[0], z[2]):
        p1 = b.vertices(4)
        b.cycle(p1)
        p2 = b.vertices(4)
        b.cycle(p2)
        b.edge(base_v, p1[0])
        b.edge(p1[1], p2[0])
        b.edge(p2[1], base_v)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def shortcut_ring(k: int = 5) -> MultiGraph:
    """Ring of k C4 petals entered and left at adjacent vertices: a single
    (k, 0)-merge over the whole ring."""
    b = Builder()
    bases = [b.vertices(4) for _ in range(k)]
    for p in bases:
        b.cycle(p)
    for i in range(k):
        b.edge(bases[i][1], bases[(i + 1) % k][0])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


# ---------------------------------------------------------------------------
# planted-cut gadgets for the reduction branches
# ---------------------------------------------------------------------------

def _attach_spaced(b: Builder, blob: dict, targets: list[int], spacing: int
                   ) -> list[int]:
    """One edge from every target to distinct, evenly spaced spoke vertices."""
    out = []
    sp = blob["spokes"]
    for i, t in enumerate(targets):
        out.append(b.edge(sp[(i * spacing) % len(sp)], t))
    return out


def planted_vertex1() -> MultiGraph:
    """Two C9's sharing one cut vertex (n = 17 forces the cut branch)."""
    b = Builder()
    v = b.vertex()
    left = [v] + b.vertices(8)
    b.cycle(left)
    right = [v] + b.vertices(8)
    b.cycle(right)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_parallel() -> MultiGraph:
    """C18 with one doubled edge; the duplicate survives past the first
    checks and exercises the drop-parallel branch."""
    b = Builder()
    host = b.vertices(18)
    b.cycle(host)
    b.edge(host[0], host[1])
    return b.graph()


def planted_contractible() -> MultiGraph:
    """C16 host with a chordless C4 whose two private vertices have host
    degree 2: the C4 is alpha-contractible."""
    b = Builder()
    host = b.vertices(16)
    b.cycle(host)
    x = b.vertex()
    y = b.vertex()
    b.edge(host[0], x)
    b.edge(x, host[8])
    b.edge(host[8], y)
    b.edge(y, host[0])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_irrelevant() -> MultiGraph:
    """C18 plus one long chord: the chord's endpoints form a 2-vertex cut."""
    b = Builder()
    host = b.vertices(18)
    b.cycle(host)
    b.edge(host[0], host[9])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_2vc_b() -> MultiGraph:
    """Theta graph with arms 3/8/8: the small side's cheapest type is B."""
    b = Builder()
    u = b.vertex()
    v = b.vertex()
    for arm in (3, 8, 8):
        mid = b.vertices(arm - 1)
        b.path([u] + mid + [v])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_2vc_c() -> MultiGraph:
    """Small side: a C9 hanging on u with a single escape edge towards v;
    the cheapest side type is C."""
    b = Builder()
    u = b.vertex()
    v = b.vertex()
    ring = [u] + b.vertices(8)
    b.cycle(ring)
    b.edge(ring[4], v)
    blob = sub_wheel(b, 6)
    _attach_spaced(b, blob, [u, u, v, v], 1)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_2vc_both_large() -> MultiGraph:
    """{u, v} cut with two subdivided-wheel sides of 17 vertices each."""
    b = Builder()
    u = b.vertex()
    v = b.vertex()
    for _ in range(2):
        blob = sub_wheel(b, 8)
        _attach_spaced(b, blob, [u, u, v, v], 2)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def _big_side_once(b: Builder, u: int, v: int, w: int, k: int = 8) -> dict:
    """Big reusable 3VC side: one attachment per cut vertex (the side can
    only complete tree-like types)."""
    blob = sub_wheel(b, k)
    b.edge(blob["spokes"][0], u)
    b.edge(blob["spokes"][3], v)
    b.edge(blob["spokes"][6], w)
    return blob


def _big_side_pair(b: Builder, doubled: list[int], single: list[int],
                   k: int = 8) -> dict:
    """Big 3VC side offering richer completions: ``doubled`` cut vertices get
    two adjacent-rim attachments (a short private cycle), the others one."""
    blob = sub_wheel(b, k)
    slot = 0
    for x in doubled:
        b.edge(blob["spokes"][slot], x)
        b.edge(blob["spokes"][slot + 1], x)
        slot += 3
    for x in single:
        b.edge(blob["spokes"][slot], x)
        slot += 2
    return blob


def planted_3vc_b1() -> MultiGraph:
    """Small side: u and v on a forced subdivided rim, w reachable only over
    a hub bridge; the cheapest type is B1."""
    b = Builder()
    u, v, w = b.vertices(3)
    small = sub_wheel(b, 8, members={0: u, 4: v})
    b.edge(small["hub"], w)
    _big_side_once(b, u, v, w)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_3vc_c1() -> MultiGraph:
    """Small side: neutral core wheel joined to u, v, w through three forced
    lonely vertices; the unique side shape is C1."""
    b = Builder()
    u, v, w = b.vertices(3)
    core = sub_wheel(b, 6)
    for x, slot in ((u, 0), (v, 2), (w, 4)):
        lon = b.vertex()
        b.edge(x, lon)
        b.edge(lon, core["spokes"][slot])
    # doubled big-side attachments keep every cut vertex off the 2-vertex
    # cuts (a relay plus a single outer edge would form a non-isolating pair)
    _big_side_pair(b, doubled=[u, v, w], single=[])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_3vc_c2(subcase: str) -> MultiGraph:
    """Small sides driving the three C2 dummy constructions."""
    b = Builder()
    u, v, w = b.vertices(3)
    if subcase == "i":
        # u's blob reaches w only through a forced relay and never reaches v:
        # the path pair of every optimal C2 is (u, w)
        blob = sub_wheel(b, 7, members={0: u})
        lon = b.vertex()
        b.edge(w, lon)
        b.edge(lon, blob["spokes"][3])
        b.edge(blob["spokes"][5], v)     # idle connector keeps v contraction-safe
        _big_side_pair(b, doubled=[u, v, w], single=[])
    elif subcase == "ii":
        # v's blob reaches u and w once each: pairs (u,v) and (v,w)
        blob = sub_wheel(b, 7, members={0: v})
        b.edge(blob["spokes"][2], u)
        b.edge(blob["spokes"][4], w)
        _big_side_pair(b, doubled=[u, v], single=[w])
    else:
        # neutral blob reaching u, v, w once each: every pair occurs
        blob = sub_wheel(b, 6)
        b.edge(blob["spokes"][0], u)
        b.edge(blob["spokes"][2], v)
        b.edge(blob["spokes"][4], w)
        _big_side_pair(b, doubled=[u, v], single=[w])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_3vc_c3() -> MultiGraph:
    """Small side: u's blob with idle connectors to bare v and w; the three
    isolated supernodes are the cheapest shape, and the big side completes a
    type-A solution."""
    b = Builder()
    u, v, w = b.vertices(3)
    blob = sub_wheel(b, 7, members={0: u})
    b.edge(blob["spokes"][2], v)
    b.edge(blob["spokes"][4], w)
    _big_side_pair(b, doubled=[u, v, w], single=[], k=10)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_3vc_both_large() -> MultiGraph:
    b = Builder()
    u, v, w = b.vertices(3)
    for _ in range(2):
        blob = sub_wheel(b, 9)
        b.edge(blob["spokes"][0], u)
        b.edge(blob["spokes"][3], v)
        b.edge(blob["spokes"][6], w)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_cycle_cut(k: int) -> MultiGraph:
    """Large C_k cut: a k-cycle whose removal splits two subdivided wheels."""
    b = Builder()
    q = b.vertices(k)
    b.cycle(q)
    sides = {4: 9, 5: 11, 6: 14, 7: 16, 8: 18}[k]
    for _ in range(2):
        blob = sub_wheel(b, sides)
        _attach_spaced(b, blob, q, max(2, sides // k))
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_4vc_case1() -> MultiGraph:
    """Large 4-vertex cut, condition 1: four independent cut vertices and two
    sides of two subdivided wheels each (>= 26 vertices a side)."""
    b = Builder()
    c = b.vertices(4)
    for _ in range(4):
        blob = sub_wheel(b, 7)       # 15 vertices; two blobs per side
        _attach_spaced(b, blob, c, 2)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


def planted_4vc_case2() -> MultiGraph:
    """Large 4-vertex cut, condition 2: one middling side (19 vertices) whose
    contracted optimum is expensive, one huge side."""
    b = Builder()
    c = b.vertices(4)
    small = sub_wheel(b, 9)          # 19 vertices
    _attach_spaced(b, small, c, 2)
    big = sub_wheel(b, 16)           # 33 vertices
    _attach_spaced(b, big, c, 4)
    g = b.graph()
    assert is_two_edge_connected(g)
    return g


GADGETS = {
    "vertex1": planted_vertex1,
    "parallel": planted_parallel,
    "contractible": planted_contractible,
    "irrelevant": planted_irrelevant,
    "vertex2_b": planted_2vc_b,
    "vertex2_c": planted_2vc_c,
    "vertex2_both_large": planted_2vc_both_large,
    "vertex3_b1": planted_3vc_b1,
    "vertex3_c1": planted_3vc_c1,
    "vertex3_c2i": lambda: planted_3vc_c2("i"),
    "vertex3_c2ii": lambda: planted_3vc_c2("ii"),
    "vertex3_c2iii": lambda: planted_3vc_c2("iii"),
    "vertex3_c3": planted_3vc_c3,
    "vertex3_both_large": planted_3vc_both_large,
    "cycle4": lambda: planted_cycle_cut(4),
    "cycle8": lambda: planted_cycle_cut(8),
    "vertex4_case1": planted_4vc_case1,
    "vertex4_case2": planted_4vc_case2,
}


def bridge_chain(bridges: int = 7) -> MultiGraph:
    """Two C6 pendant blocks joined by a long lonely-vertex bridge chain,
    with direct escape edges shaping the reachability sets (drives the
    multi-path bridge-covering operations)."""
    b = Builder()
    block_a = b.vertices(6)
    b.cycle(block_a)
    chain = [block_a[0]] + b.vertices(bridges - 1)
    block_b = b.vertices(6)
    b.cycle(block_b)
    chain.append(block_b[0])
    b.path(chain)
    # escapes: u1->u3, u1->u4, u8->u5, u8->u6 and the long chord u3->u6
    b.edge(block_a[2], chain[2])
    b.edge(block_a[3], chain[3])
    b.edge(block_b[2], chain[-3])
    b.edge(block_b[3], chain[-4])
    if bridges >= 5:
        b.edge(chain[2], chain[-3])
    g = b.graph()
    assert is_two_edge_connected(g)
    return g

