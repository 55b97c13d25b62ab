"""The GF(2) cycle space of a multigraph.

Basis construction, membership, enumeration of all cyclic (= even) edge
sets, the one-pass profile of their Betti numbers and the set of them, the
eulerian test and circuit decomposition.  The b1 of each cyclic set comes
from one loop, :func:`_betti_pass`, over the series classes that the
reduction's smoothing pass forms (:func:`_series_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_, xor
from typing import Dict, Iterator, List, Tuple

from .errors import CapExceededError, NotCyclicError, WidthMismatchError
from .graphs import (
    Edge,
    EdgeSubset,
    Multigraph,
    ZeroChain,
    _closing_edges,
    _smooth,
    _valencies,
    connected_components,
    induced_subgraph,
)

#: Enumerating a cycle space of dimension above this is refused.
ENUMERATION_CAP = 30

#: Cyclic sets are read this many edges at a time, through a 2^_CHUNK-entry
#: table per chunk: wider tables cost more to build than small graphs save.
_CHUNK = 6


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental-cycle basis from a deterministic spanning forest."""

    graph_edge_count: int
    basis_vectors: Tuple[EdgeSubset, ...]
    spanning_forest: EdgeSubset

    @property
    def dimension(self) -> int:
        return len(self.basis_vectors)


def boundary(g: Multigraph, s: EdgeSubset) -> ZeroChain:
    """GF(2) sum of endpoint pairs; a loop contributes nothing."""
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    bits = 0
    for eid in s.indices():
        a, b = g.edges[eid]
        if a != b:
            bits ^= (1 << a) | (1 << b)
    return ZeroChain(bits, g.vertex_count)


def is_cyclic(g: Multigraph, s: EdgeSubset) -> bool:
    """True iff every vertex has even valency in the subgraph induced by s."""
    return boundary(g, s).is_zero


def cycle_basis(g: Multigraph) -> CycleBasis:
    """Fundamental cycles with respect to the lowest-edge-index spanning forest.

    Each non-forest edge e contributes forest-path(endpoints of e) + e;
    a loop contributes just itself.  One union-find pass over the edges in
    index order finds both: up[x] holds the forest edges from x to
    parent[x], and from x to its root once find(x) has run, so the forest
    path between two vertices of one tree is up[a] ^ up[b].
    """
    parent = list(range(g.vertex_count))
    up = [0] * g.vertex_count

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        for v in reversed(path):  # a root's up is 0
            up[v] ^= up[parent[v]]
            parent[v] = x
        return x

    width = g.edge_count
    forest_bits = 0
    vectors = []
    for eid, (a, b) in enumerate(g.edges):
        ra, rb = find(a), find(b)
        cycle = up[a] ^ up[b] ^ 1 << eid
        if ra != rb:
            parent[ra] = rb
            up[ra] = cycle
            forest_bits |= 1 << eid
        else:
            vectors.append(EdgeSubset(cycle, width))
    return CycleBasis(width, tuple(vectors), EdgeSubset(forest_bits, width))


def _basis_bits(g: Multigraph) -> List[int]:
    """The cycle basis as bitmasks, refused when longer than
    :data:`ENUMERATION_CAP`: the one place the cap is read."""
    basis = [v.bits for v in cycle_basis(g).basis_vectors]
    if len(basis) > ENUMERATION_CAP:
        raise CapExceededError(len(basis), ENUMERATION_CAP)
    return basis


def _counter_order(basis: List[int]) -> Iterator[int]:
    """All 2^len(basis) XOR combinations, in coefficient-counter order.

    Set k is the XOR of the basis vectors at the set bits of k.  From k - 1
    to k the counter flips bits 0..t, t the lowest set bit of k, so one XOR
    with the prefix sum basis[0] ^ ... ^ basis[t] makes each step.
    """
    prefix = list(accumulate(basis, xor))
    steps = (prefix[(k & -k).bit_length() - 1] for k in range(1, 1 << len(basis)))
    return accumulate(steps, xor, initial=0)


def _chunk_tables(edges: Tuple[Edge, ...]) -> List[List[Tuple[Edge, ...]]]:
    """For each run of _CHUNK consecutive edges, the endpoint pairs picked
    out by every bit pattern over it; a table doubles once per edge."""
    tables = []
    for start in range(0, len(edges), _CHUNK):
        table: List[Tuple[Edge, ...]] = [()]
        for edge in edges[start:start + _CHUNK]:
            table += [pairs + (edge,) for pairs in table]
        tables.append(table)
    return tables


def cyclic_sets(g: Multigraph) -> Iterator[EdgeSubset]:
    """All 2^b1 cyclic edge subsets (even sets), each exactly once, in
    coefficient-counter order.  A cycle space past
    :data:`ENUMERATION_CAP` is refused on the call."""
    width = g.edge_count
    return (EdgeSubset(bits, width) for bits in _counter_order(_basis_bits(g)))


def _series_classes(
    g: Multigraph, basis: List[int]
) -> Tuple[Tuple[Edge, ...], List[int], int, List[int]]:
    """The series classes of the edges on some cycle (the support of the
    basis): each class's endpoint pair after smoothing, its edge mask, the
    number of vertices the pairs are labelled over, and the basis with bit i
    standing for class i.

    The support has no vertex of valency 1, so :func:`graphs._smooth` only
    smooths, at the vertices whose support edges are two non-loop edges and
    so lie in the same cyclic sets (never at a loop's vertex): a chain of
    them becomes one pair, a whole cycle a loop.  Every cyclic set is a
    union of whole classes, and smoothing keeps its b1.  When nothing
    smooths, every edge is a class of its own, bridges included (no cyclic
    set holds one), and the vertices and the basis stay as they are.
    """
    edges = g.edges
    support = reduce(or_, basis, 0)
    ids = [eid for eid in range(len(edges)) if support >> eid & 1]
    on_cycles = Multigraph(g.vertex_count, tuple(edges[eid] for eid in ids))
    core = _smooth(on_cycles, [1 << eid for eid in ids])
    if core is None:
        return edges, [1 << eid for eid in range(len(edges))], g.vertex_count, basis
    n, pairs, masks = core
    packed = [sum(1 << i for i, m in enumerate(masks) if v & m) for v in basis]
    return pairs, masks, n, packed


def _betti_pass(g: Multigraph) -> Tuple[List[int], Iterator[int]]:
    """The cycle basis, cap-checked on the call, and the b1 of every cyclic
    set in the order of :func:`cyclic_sets`, computed as it is read: the
    sets run over the series classes (see :func:`_series_classes`), and a
    union-find over the class end vertices counts each b1."""
    basis = _basis_bits(g)
    pairs, _, n, packed = _series_classes(g, basis)

    # arguments, not closure cells: the loop reads them as fast locals
    def bettis(tables: List[List[Tuple[Edge, ...]]], base: List[int], mask: int) -> Iterator[int]:
        for rest in _counter_order(packed):
            parent = base[:]
            n1 = 0
            for table in tables:
                n1 += _closing_edges(parent, table[rest & mask])
                rest >>= _CHUNK
            yield n1

    return basis, bettis(_chunk_tables(pairs), list(range(n)), (1 << _CHUNK) - 1)


def betti_profile(g: Multigraph) -> Dict[int, Tuple[int, EdgeSubset]]:
    """One pass over the cycle space, by cyclic Betti number.

    Maps each m in B, in increasing order, to the number of cyclic sets D
    with b1(D) = m and the first such D in the order of :func:`cyclic_sets`.
    Only the counter index of each first set is kept; set k is the XOR of
    the basis vectors at the set bits of k.
    """
    basis, bettis = _betti_pass(g)
    counts: Dict[int, int] = {}
    first: Dict[int, int] = {}
    for n1 in bettis:
        if n1 in counts:
            counts[n1] += 1
        else:
            first[n1] = sum(counts.values())
            counts[n1] = 1
    width = g.edge_count

    def set_at(k: int) -> EdgeSubset:
        return EdgeSubset(reduce(xor, (v for i, v in enumerate(basis) if k >> i & 1), 0), width)

    return {m: (counts[m], set_at(first[m])) for m in sorted(counts)}


def _betti_sets(g: Multigraph) -> Iterator[Tuple[int, int]]:
    """Every cyclic set as (edge bits, b1), in the order of :func:`cyclic_sets`;
    the cap check runs on the call, the pass as the sets are read."""
    basis, bettis = _betti_pass(g)
    return zip(_counter_order(basis), bettis)


def cyclic_betti_set(g: Multigraph) -> frozenset:
    """The set of first Betti numbers of cyclic subgraphs."""
    return frozenset(betti_profile(g))


def is_eulerian(g: Multigraph) -> bool:
    """True iff all valencies are even, i.e. the full edge set is cyclic."""
    return is_cyclic(g, EdgeSubset.full(g.edge_count))


def is_circuit(g: Multigraph, s: EdgeSubset) -> bool:
    """Nonempty, connected, and every vertex of valency exactly 2."""
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    if not s:
        return False
    sub = induced_subgraph(g, s)
    if len(connected_components(sub)) != 1:
        return False
    return all(x == 2 for x in _valencies(sub)[0])


def circuit_decomposition(g: Multigraph, s: EdgeSubset) -> List[EdgeSubset]:
    """Edge-disjoint circuits whose union is s.

    Deterministic peeling: walk from the lowest-index remaining edge,
    always taking the lowest-index unused incident edge, until a vertex
    of the walk repeats; the enclosed cycle is peeled off.
    """
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
            parts.append(EdgeSubset(1 << start, width))
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
            # Even valencies guarantee a continuation before exhaustion.
            x, y = g.edges[step]
            nxt = y if x == current else x
            walk_edges.append(step)
            if nxt in position:
                i = position[nxt]
                circuit = walk_edges[i:]
                remaining.difference_update(circuit)
                parts.append(EdgeSubset.from_indices(width, circuit))
                break
            position[nxt] = len(position)
            current = nxt
    return parts
