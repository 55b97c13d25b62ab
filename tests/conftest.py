"""Shared builders and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: evenness
is checked by direct valency counting, connectivity by union-find over
explicit edge lists, span membership by Gaussian elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from typing import Iterator, List, Sequence, Tuple

import pytest

from spincomb import (
    EdgeSubset,
    Multigraph,
    build_graph,
    connected_components,
    eliminate_valency1,
    induced_subgraph,
    is_cyclic,
    smooth_valency2,
    valency,
)
from spincomb.errors import NotCyclicError, VanishingComponentError, WidthMismatchError
from spincomb.graphs import _valencies

Edge = Tuple[int, int]


# ---------------------------------------------------------------- named graphs

def loop_graph() -> Multigraph:
    return build_graph(1, [(0, 0)])


def split_graph(edge_count: int) -> Multigraph:
    return build_graph(2, [(0, 1)] * edge_count)


def tetrahedron() -> Multigraph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def fat_triangle() -> Multigraph:
    return build_graph(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)])


def triangle() -> Multigraph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def path_graph(n: int) -> Multigraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Multigraph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def relabeled(g: Multigraph, perm: Sequence[int]) -> Multigraph:
    edges = [
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges
    ]
    return build_graph(g.vertex_count, edges)


# ------------------------------------------------------------- random builders

def random_connected_graph(
    rng: random.Random, max_b1: int = 12, max_vertices: int = 10
) -> Multigraph:
    """Random spanning tree plus exactly b1 extra edges (loops allowed)."""
    nu = rng.randint(1, max_vertices)
    edges: List[Edge] = [(rng.randrange(v), v) for v in range(1, nu)]
    lo = 1 if nu == 1 else 0
    for _ in range(rng.randint(lo, max_b1)):
        a = rng.randrange(nu)
        b = rng.randrange(nu)
        edges.append((min(a, b), max(a, b)))
    return build_graph(nu, edges)


def random_graph(rng: random.Random, max_b1: int = 8) -> Multigraph:
    """Disjoint union of 1-3 random connected graphs."""
    parts = [
        random_connected_graph(rng, max_b1=max_b1, max_vertices=5)
        for _ in range(rng.randint(1, 3))
    ]
    edges: List[Edge] = []
    offset = 0
    for p in parts:
        edges.extend((a + offset, b + offset) for a, b in p.edges)
        offset += p.vertex_count
    return build_graph(offset, edges)


def random_tree(rng: random.Random, max_vertices: int = 6) -> Multigraph:
    nu = rng.randint(2, max_vertices)
    return build_graph(nu, [(rng.randrange(v), v) for v in range(1, nu)])


def random_multigraph(
    rng: random.Random, edge_count: int, max_vertices: int = 8
) -> Multigraph:
    """Exactly edge_count uniform endpoint pairs: loops, parallel edges and
    several components all occur.  Vertices no pair touches are dropped."""
    nu = rng.randint(1, max_vertices)
    pairs = [(rng.randrange(nu), rng.randrange(nu)) for _ in range(edge_count)]
    used = sorted({v for pair in pairs for v in pair})
    remap = {v: i for i, v in enumerate(used)}
    return build_graph(len(used), [(remap[a], remap[b]) for a, b in pairs])


def subdivided(g: Multigraph, rng: random.Random, most: int = 3) -> Multigraph:
    """Each edge replaced by a path through 0..most new vertices (a loop by
    a cycle through them), then the edge order shuffled."""
    n = g.vertex_count
    edges: List[Edge] = []
    for a, b in g.edges:
        k = rng.randint(0, most)
        path = [a] + list(range(n, n + k)) + [b]
        n += k
        edges.extend(zip(path, path[1:]))
    rng.shuffle(edges)
    return build_graph(n, edges)


def with_pendant_trees(g: Multigraph, rng: random.Random, most: int = 4) -> Multigraph:
    """g with 0..most new vertices, each hung by one edge on an earlier
    vertex (so the new ones grow trees on g), then the vertex labels and the
    edge order shuffled."""
    added = rng.randint(0, most)
    edges = list(g.edges)
    edges += [(rng.randrange(v), v) for v in range(g.vertex_count, g.vertex_count + added)]
    n = g.vertex_count + added
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return build_graph(n, [(perm[a], perm[b]) for a, b in edges])


def random_cubic_graph(rng: random.Random, b1: int) -> Multigraph:
    """A uniformly paired, simple, connected cubic graph on 2 * (b1 - 1)
    vertices (pairing model with rejection), so b1 >= 3; the edges come in
    the order of the pairing."""
    n = 2 * (b1 - 1)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]
        if any(a == b for a, b in edges) or len(set(edges)) < len(edges):
            continue
        if count_components(n, edges) == 1:
            return build_graph(n, edges)


def cycle_with_pendant_trees(n: int, rng: random.Random) -> Multigraph:
    """A cycle through the first n // 3 vertices; every later vertex hangs
    by one edge on a random earlier one.  b1 = 1: it reduces to the loop."""
    k = n // 3
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(rng.randrange(v), v) for v in range(k, n)]
    return build_graph(n, edges)


# ------------------------------------------------------------------- oracles

def count_components(vertex_count: int, edges: Sequence[Edge]) -> int:
    """Union-find component count; isolated vertices count as components."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = vertex_count
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def components_oracle(vertex_count: int, edges: Sequence[Edge]) -> List[List[int]]:
    """Union-find vertex sets, each sorted, in order of their lowest vertex;
    isolated vertices are sets of their own."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for v in range(vertex_count):  # each root first seen at its lowest vertex
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def bridge_oracle(g: Multigraph) -> List[int]:
    """Edges whose deletion increases the component count."""
    base = count_components(g.vertex_count, g.edges)
    out = []
    for eid in range(g.edge_count):
        rest = [e for i, e in enumerate(g.edges) if i != eid]
        if count_components(g.vertex_count, rest) > base:
            out.append(eid)
    return out


def articulation_oracle(g: Multigraph) -> List[int]:
    """Vertices whose deletion (with incident edges) increases components."""
    base = count_components(g.vertex_count, g.edges)
    out = []
    for v in range(g.vertex_count):
        keep = [i for i in range(g.vertex_count) if i != v]
        remap = {u: i for i, u in enumerate(keep)}
        rest = [(remap[a], remap[b]) for a, b in g.edges if v not in (a, b)]
        if count_components(g.vertex_count - 1, rest) > base:
            out.append(v)
    return out


def path_or_cycle(g: Multigraph, bits: int):
    """What the edges at ``bits`` form in g, by direct valency counting and
    a union-find: ("path", (x, y)) for a simple path between x < y,
    ("cycle", its vertices) for a simple cycle (a loop and a parallel pair
    included), None for anything else."""
    edges = [e for eid, e in enumerate(g.edges) if bits >> eid & 1]
    val: dict = {}
    for a, b in edges:
        val[a] = val.get(a, 0) + 1
        val[b] = val.get(b, 0) + 1
    ends = tuple(sorted(v for v, d in val.items() if d == 1))
    # untouched vertices count as components of their own
    connected = count_components(g.vertex_count, edges) == g.vertex_count - len(val) + 1
    if not edges or not connected or max(val.values()) > 2 or len(ends) not in (0, 2):
        return None
    return ("path", ends) if ends else ("cycle", frozenset(val))


def even_subset_bits_oracle(g: Multigraph) -> List[int]:
    """All even edge subsets by direct valency counting over all 2^delta."""
    out = []
    for bits in range(1 << g.edge_count):
        val = [0] * g.vertex_count
        for eid in range(g.edge_count):
            if bits >> eid & 1:
                a, b = g.edges[eid]
                val[a] += 1
                val[b] += 1
        if all(x % 2 == 0 for x in val):
            out.append(bits)
    return out


def gf2_rank(rows: List[int]) -> int:
    basis = {}  # top bit -> pivot row
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top in basis:
                row ^= basis[top]
            else:
                basis[top] = row
                rank += 1
                break
    return rank


def in_gf2_span(vec: int, rows: List[int]) -> bool:
    return gf2_rank(list(rows)) == gf2_rank(list(rows) + [vec])


def subgraph_betti_oracle(g: Multigraph, bits: int) -> int:
    """delta - nu + c of the subgraph induced by an edge bitmask."""
    chosen = [g.edges[i] for i in range(g.edge_count) if bits >> i & 1]
    verts = sorted({v for e in chosen for v in e})
    remap = {v: i for i, v in enumerate(verts)}
    edges = [(remap[a], remap[b]) for a, b in chosen]
    return len(edges) - len(verts) + count_components(len(verts), edges)


def dict_union_find_betti(g: Multigraph, bits: int) -> int:
    """delta - nu + c of the subgraph an edge bitmask induces, by a dict
    union-find that counts vertices and components as it goes; shares no
    code with the library's closing-edge count."""
    parent: dict = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_edges = 0
    n_comp = 0
    while bits:
        low = bits & -bits
        bits ^= low
        a, b = g.edges[low.bit_length() - 1]
        n_edges += 1
        for v in (a, b):
            if v not in parent:
                parent[v] = v
                n_comp += 1
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            n_comp -= 1
    return n_edges - len(parent) + n_comp


def restarting_decomposition(g: Multigraph, s: EdgeSubset) -> List[EdgeSubset]:
    """Circuit peeling that restarts after every peel: walk from the
    lowest-index remaining edge, always taking the lowest-index unused
    incident edge, until a vertex of the walk repeats; peel the enclosed
    cycle and start again from the lowest remaining edge."""
    if not is_cyclic(g, s):
        raise NotCyclicError("subset has a vertex of odd valency")
    inc: dict = {}
    for eid in s.indices():
        a, b = g.edges[eid]
        inc.setdefault(a, []).append(eid)
        if a != b:
            inc.setdefault(b, []).append(eid)
    for lst in inc.values():
        lst.sort()

    remaining = set(s.indices())
    width = g.edge_count
    parts: List[EdgeSubset] = []
    while remaining:
        start = min(remaining)
        a, b = g.edges[start]
        if a == b:
            remaining.discard(start)
            parts.append(EdgeSubset.from_indices(width, [start]))
            continue
        walk_edges = [start]
        position = {a: 0, b: 1}
        current = b
        while True:
            step = None
            for eid in inc[current]:
                if eid in remaining and eid not in walk_edges:
                    step = eid
                    break
            x, y = g.edges[step]
            nxt = y if x == current else x
            walk_edges.append(step)
            if nxt in position:
                circuit = walk_edges[position[nxt]:]
                remaining.difference_update(circuit)
                parts.append(EdgeSubset.from_indices(width, circuit))
                break
            position[nxt] = len(position)
            current = nxt
    return parts


def two_regular_connected(g: Multigraph, s: EdgeSubset) -> bool:
    """The definition of a circuit: s is nonempty, and the subgraph it
    induces is connected with every vertex of valency exactly 2."""
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    if not s:
        return False
    sub = induced_subgraph(g, s)
    if count_components(sub.vertex_count, sub.edges) != 1:
        return False
    return all(x == 2 for x in _valencies(sub)[0])


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    """Brute-force vertex bijection; intended for small graphs only."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    if sorted(valency(g, v) for v in range(g.vertex_count)) != sorted(
        valency(h, v) for v in range(h.vertex_count)
    ):
        return False
    target = sorted(h.edges)
    for perm in permutations(range(g.vertex_count)):
        mapped = sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges
        )
        if mapped == target:
            return True
    return False


def wick_mass(b1: int) -> Fraction:
    """Sum of 1/|Aut G| over connected multigraphs G with first Betti number
    b1 >= 2 and every valency at least 3, by Wick's theorem (Bessis,
    Itzykson & Zuber, Adv. Appl. Math. 1980), with no graph built.

    ``Aut`` counts half-edge automorphisms.  The mass is the coefficient of
    h^(b1 - 1) in log Z, where Z sums over the multisets of vertex
    valencies k >= 3, n_k vertices of valency k, the weight
    (2E - 1)!! / prod_k (k!^n_k n_k!) at h^(E - V), with 2E = sum k n_k and
    V = sum n_k.  A vertex of valency k adds (k - 2) / 2 to E - V, so the
    multisets with sum (k - 2) n_k <= 2 (b1 - 1) are all that reach it.
    """
    top = b1 - 1

    def multisets(k: int, budget: int) -> Iterator[Tuple[int, int, Fraction]]:
        """(2E, V, 1 / prod (j!^n_j n_j!)) over multisets of valencies j >= k
        with sum (j - 2) n_j <= budget."""
        if k - 2 > budget:
            yield 0, 0, Fraction(1)
            return
        for n in range(budget // (k - 2) + 1):
            weight = Fraction(1, factorial(k) ** n * factorial(n))
            for half_edges, vertices, rest in multisets(k + 1, budget - n * (k - 2)):
                yield half_edges + n * k, vertices + n, weight * rest

    z = [Fraction(0)] * (top + 1)  # coefficients of Z - 1 by power of h
    for half_edges, vertices, weight in multisets(3, 2 * top):
        if half_edges and half_edges % 2 == 0:
            pairings = prod(range(half_edges - 1, 0, -2))  # (2E - 1)!!
            z[half_edges // 2 - vertices] += pairings * weight

    def times(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
        return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(top + 1)]

    # log Z = sum_j (-1)^(j + 1) (Z - 1)^j / j; Z - 1 starts at h^1
    power, log = z, Fraction(0)
    for j in range(1, top + 1):
        log += Fraction((-1) ** (j + 1), j) * power[top]
        power = times(power, z)
    return log


def lowest_first_reduction(g: Multigraph) -> Multigraph:
    """Operations 1 and 2 at the lowest applicable vertex, one whole graph
    rebuilt per operation and every valency swept again after it, until none
    applies: the exact-output oracle for superstable_reduction (same labels,
    same edge order, same refusal of a tree component)."""
    for block in connected_components(g):
        vs = set(block)
        comp_edges = sum(1 for a, b in g.edges if a in vs)
        if comp_edges - len(block) + 1 == 0:
            raise VanishingComponentError(f"component {block} is a tree")
    while True:
        val, loop = _valencies(g)
        v = next((v for v, d in enumerate(val) if d == 1 or d == 2 and not loop[v]), None)
        if v is None:
            return g
        g = eliminate_valency1(g, v) if val[v] == 1 else smooth_valency2(g, v)


def random_order_reduction(g: Multigraph, rng: random.Random) -> Multigraph:
    """Operations 1 and 2 at a random applicable vertex, by the per-vertex
    valency, until none applies: the order-insensitivity oracle for
    superstable_reduction, which always takes the lowest vertex."""
    while True:
        candidates = [
            v
            for v in range(g.vertex_count)
            if valency(g, v) == 1
            or valency(g, v) == 2 and not any(a == b == v for a, b in g.edges)
        ]
        if not candidates:
            return g
        v = rng.choice(candidates)
        g = eliminate_valency1(g, v) if valency(g, v) == 1 else smooth_valency2(g, v)


def counter_order_oracle(basis: Sequence[int]) -> List[int]:
    """Cyclic sets in coefficient-counter order, decoded flat: set k is the
    XOR of the basis vectors at the set bits of k."""
    out = []
    for k in range(1 << len(basis)):
        bits = 0
        i = 0
        while k:
            if k & 1:
                bits ^= basis[i]
            k >>= 1
            i += 1
        out.append(bits)
    return out


def chunk_table_bettis(g: Multigraph) -> List[int]:
    """The b1 of every cyclic set in counter order over the oracle basis,
    by the loop that the coefficient walk replaced, over single edges: a
    fresh union-find per set, fed six edges at a time from per-graph tables
    of the endpoint pairs each bit pattern picks out; b1 is the count of
    edges whose ends already share a root."""
    pairs, n, basis = g.edges, g.vertex_count, cycle_basis_oracle(g)[1]
    tables = []
    for start in range(0, len(pairs), 6):
        table: List[Tuple[Edge, ...]] = [()]
        for pair in pairs[start:start + 6]:
            table += [chosen + (pair,) for chosen in table]
        tables.append(table)
    out = []
    for rest in counter_order_oracle(basis):
        parent = list(range(n))
        n1 = 0
        for table in tables:
            for a, b in table[rest & 63]:
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    n1 += 1
                else:
                    parent[a] = b
            rest >>= 6
        out.append(n1)
    return out


def cycle_basis_oracle(g: Multigraph) -> Tuple[int, List[int]]:
    """The lowest-index spanning forest and the fundamental cycles, as
    bitmasks: a greedy scan keeps each edge that joins two trees (trees
    tracked by a vertex label, relabelled on every merge), and each other
    edge, in index order, gives itself plus its BFS path in that forest."""
    label = list(range(g.vertex_count))
    forest: List[int] = []
    rest: List[int] = []
    for eid, (a, b) in enumerate(g.edges):
        if label[a] == label[b]:
            rest.append(eid)
        else:
            old, new = label[a], label[b]
            label = [new if x == old else x for x in label]
            forest.append(eid)
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for eid in forest:
        a, b = g.edges[eid]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    vectors = []
    for eid in rest:
        a, b = g.edges[eid]
        via = {a: None}  # vertex -> (previous vertex, forest edge)
        queue = [a]
        for u in queue:
            for w, fid in adj[u]:
                if w not in via:
                    via[w] = (u, fid)
                    queue.append(w)
        bits = 1 << eid
        while via[b] is not None:
            b, fid = via[b]
            bits |= 1 << fid
        vectors.append(bits)
    return sum(1 << eid for eid in forest), vectors


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
