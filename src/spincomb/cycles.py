"""The GF(2) cycle space of a multigraph.

Basis construction, membership, enumeration of all cyclic (= even) edge
sets, the one-pass profile of their Betti numbers and the set of them, the
eulerian test and circuit decomposition.  The basis is built once, on the
core that the reduction's smoothing pass leaves (:func:`_class_basis`):
each core edge stands for a series class of edges, and every cyclic set is
a union of whole classes.  The b1 of each cyclic set comes from one walk,
:func:`_betti_pass`, down the tree of basis coefficients over those
classes, with a union-find that is undone as the walk leaves each subtree.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain, compress
from operator import xor
from typing import Dict, Iterator, List, Tuple

from .errors import CapExceededError, NotCyclicError, WidthMismatchError
from .graphs import (
    Edge,
    EdgeSubset,
    Multigraph,
    ZeroChain,
    _set_field,
    _smooth,
    _Value,
)

#: Enumerating a cycle space of dimension above this is refused.
ENUMERATION_CAP = 30

#: The walk hands on the b1 of the sets below each node at this depth as one
#: list, so a pass holds at most 2^_SUBTREE values at once; above it, each
#: subtree starts from a fresh forest.
_SUBTREE = 12


class CycleBasis(_Value):
    """Fundamental-cycle basis from a deterministic spanning forest."""

    __slots__ = ("basis_vectors", "spanning_forest")

    def __init__(
        self, basis_vectors: Tuple[EdgeSubset, ...], spanning_forest: EdgeSubset
    ) -> None:
        _set_field(self, "basis_vectors", basis_vectors)
        _set_field(self, "spanning_forest", spanning_forest)

    @property
    def dimension(self) -> int:
        return len(self.basis_vectors)


def boundary(g: Multigraph, s: EdgeSubset) -> ZeroChain:
    """GF(2) sum of endpoint pairs; a loop contributes nothing.  Each
    vertex's parity is kept in a byte array, so the sum is O(n + m)."""
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    parity = bytearray(g.vertex_count)  # a loop flips its vertex twice
    for eid in s.indices():
        a, b = g.edges[eid]
        parity[a] ^= 1
        parity[b] ^= 1
    odd = compress(range(g.vertex_count), parity)
    return ZeroChain(EdgeSubset.from_indices(g.vertex_count, odd).bits, g.vertex_count)


def is_cyclic(g: Multigraph, s: EdgeSubset) -> bool:
    """True iff every vertex has even valency in the subgraph induced by s."""
    return boundary(g, s).is_zero


def cycle_basis(g: Multigraph) -> CycleBasis:
    """Fundamental cycles with respect to the lowest-edge-index spanning forest.

    Each non-forest edge e contributes forest-path(endpoints of e) + e;
    a loop contributes just itself.  Built on the core (:func:`_class_basis`,
    uncapped) and lifted to g; the path uses only edges below e, so each
    vector's highest edge is its non-forest edge.
    """
    width = g.edge_count
    vectors = _class_basis(g, capped=False)[3]
    closing = EdgeSubset.from_indices(width, (v.bit_length() - 1 for v in vectors))
    forest = EdgeSubset.full(width) ^ closing
    return CycleBasis(tuple(EdgeSubset(v, width) for v in vectors), forest)


def _class_basis(g: Multigraph, capped: bool) -> Tuple[int, Tuple[Edge, ...], List[int], List[int]]:
    """The cycle basis of g over its core (:func:`graphs._smooth`): the core's
    vertex count and edges, the basis with bit i for core edge i, and that
    basis lifted to g through each core edge's series class (the mask of the
    edges it replaced).  With ``capped``, a b1 above :data:`ENUMERATION_CAP`
    is refused before any mask or vector exists: the one place the cap is
    read.  Only the walk reads the class bits, and it calls capped, so an
    uncapped call leaves them out and returns no packed basis.

    A class passes only vertices without other edges, so every cyclic set is
    a union of whole classes.  In g's lowest-index spanning forest every edge
    of a class but its highest is a forest edge, and the highest is one iff
    the class's ends are not yet joined when it comes.  So the union-find
    pass over the core edges in order of their highest edge gives g's
    fundamental cycles in order: up[x] holds the forest classes from x to
    parent[x], and to the root once find(x) has run, and lift[x] their
    edges.  A core has at most 2 b1 vertices, so neither array is more than
    twice the basis.
    """
    n, pairs, core = _smooth(g)
    parent, up, lift = list(range(n)), [0] * n, [0] * n

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        for v in reversed(path):  # a root's up and lift are 0
            up[v] ^= up[parent[v]]
            lift[v] ^= lift[parent[v]]
            parent[v] = x
        return x

    if capped and len(pairs) > ENUMERATION_CAP:  # b1 is at most the edge count
        for a, b in pairs:
            parent[find(a)] = find(b)
        b1 = len(pairs) - n + sum(p == v for v, p in enumerate(parent))  # edges - nu + c
        if b1 > ENUMERATION_CAP:
            raise CapExceededError(b1, ENUMERATION_CAP)
        parent = list(range(n))
    members: List[List[int]] = [[] for _ in pairs]
    for eid, c in enumerate(core):
        if c >= 0:
            members[c].append(eid)
    packed, basis = [], []
    for c in sorted(range(len(pairs)), key=lambda c: members[c][-1]):
        ids, (a, b) = members[c], pairs[c]
        # the class's edge mask; most classes of a superstable graph are one edge
        mask = EdgeSubset.from_indices(g.edge_count, ids).bits if ids[1:] else 1 << ids[0]
        ra, rb = find(a), find(b)
        # uncapped, every up[x] stays 0
        cycle, edges = up[a] ^ up[b] ^ (1 << c if capped else 0), lift[a] ^ lift[b] ^ mask
        if ra != rb:
            parent[ra] = rb
            up[ra], lift[ra] = cycle, edges
        else:
            basis.append(edges)
            if capped:
                packed.append(cycle)
    return n, pairs, packed, basis


def _counter_order(basis: List[int]) -> Iterator[int]:
    """All 2^len(basis) XOR combinations, in coefficient-counter order.

    Set k is the XOR of the basis vectors at the set bits of k.  From k - 1
    to k the counter flips bits 0..t, t the lowest set bit of k, so one XOR
    with the prefix sum basis[0] ^ ... ^ basis[t] makes each step.
    """
    prefix = list(accumulate(basis, xor))
    steps = (prefix[(k & -k).bit_length() - 1] for k in range(1, 1 << len(basis)))
    return accumulate(steps, xor, initial=0)


def cyclic_sets(g: Multigraph) -> Iterator[EdgeSubset]:
    """All 2^b1 cyclic edge subsets (even sets), each exactly once, in
    coefficient-counter order.  A cycle space past
    :data:`ENUMERATION_CAP` is refused on the call."""
    width = g.edge_count
    basis = _class_basis(g, capped=True)[3]
    return (EdgeSubset(bits, width) for bits in _counter_order(basis))


def _levels(pairs: Tuple[Edge, ...], packed: List[int]) -> List[List[Tuple[int, int, int]]]:
    """For each basis vector, the classes it is the lowest to hold, as
    (class bit, end, end): the walk knows whether a set holds such a class
    once it has decided that vector's coefficient."""
    seen = 0
    levels = []
    for v in packed:
        new = v & ~seen
        seen |= v
        level = []
        while new:
            low = new & -new
            new ^= low
            a, b = pairs[low.bit_length() - 1]
            level.append((low, a, b))
        levels.append(level)
    return levels


def _join(
    level: List[Tuple[int, int, int]], cur: int, parent: List[int], size: List[int], log: List[int]
) -> int:
    """Join the classes of ``level`` that the set ``cur`` holds to the
    union-find forest ``parent``, the smaller tree under the larger
    (``size`` counts each root's vertices), and log each root it links;
    return how many of the classes close a cycle.  No path compression, so
    that undoing a link is resetting one parent and one size."""
    closed = 0
    for bit, a, b in level:
        if cur & bit:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                closed += 1
            else:
                if size[a] > size[b]:
                    a, b = b, a
                parent[a] = b
                size[b] += size[a]
                log.append(a)
    return closed


def _walk(
    levels: List[List[Tuple[int, int, int]]],
    packed: List[int],
    parent: List[int],
    size: List[int],
    log: List[int],
    j: int,
    acc: int,
    n1: int,
    out: List[int],
) -> None:
    """Append the b1 of every set below a node of the coefficient tree to
    ``out``, in counter order.

    The node has decided the coefficients of the basis vectors above j:
    ``acc`` is the XOR of those it takes, ``parent`` the forest of the
    classes they decide and ``n1`` how many of those closed a cycle.  Each
    child (coefficient 0, then 1) joins the classes of level j in its set,
    recurses and undoes its links.  Under level 0 the children are leaves:
    they split the classes of level 0 between them, and each joins its
    share in a copy of the forest that is then dropped, so it links
    without sizes and undoes nothing.
    """
    if j == 0:
        p0 = parent[:]
        p1 = parent[:]
        c0 = c1 = n1
        for bit, a, b in levels[0]:
            if acc & bit:
                while p0[a] != a:
                    a = p0[a]
                while p0[b] != b:
                    b = p0[b]
                if a == b:
                    c0 += 1
                else:
                    p0[a] = b
            else:
                while p1[a] != a:
                    a = p1[a]
                while p1[b] != b:
                    b = p1[b]
                if a == b:
                    c1 += 1
                else:
                    p1[a] = b
        out.append(c0)
        out.append(c1)
        return
    level = levels[j]
    mark = len(log)
    for cur in (acc, acc ^ packed[j]):
        closed = n1 + _join(level, cur, parent, size, log)
        _walk(levels, packed, parent, size, log, j - 1, cur, closed, out)
        while len(log) > mark:
            a = log.pop()
            size[parent[a]] -= size[a]
            parent[a] = a


def _subtree(
    levels: List[List[Tuple[int, int, int]]], packed: List[int], n: int, low: int, acc: int
) -> List[int]:
    """The b1 of the 2^low sets that take the basis vectors from ``low`` up
    whose XOR is ``acc``, in counter order: the classes those vectors decide
    join a fresh forest, and :func:`_walk` does the rest."""
    parent, size, log = list(range(n)), [1] * n, []
    n1 = 0
    for level in levels[low:]:
        n1 += _join(level, acc, parent, size, log)
    out: List[int] = []
    _walk(levels, packed, parent, size, log, low - 1, acc, n1, out)
    return out


def _betti_pass(g: Multigraph) -> Tuple[List[int], Iterator[int]]:
    """The cycle basis, cap-checked on the call, and the b1 of every cyclic
    set in the order of :func:`cyclic_sets`, computed as it is read.

    The sets run over the series classes (see :func:`_class_basis`).  A
    depth-first walk of the tree of basis coefficients, the last basis
    vector decided first and 0 taken before 1, reaches them in counter
    order.  Each class joins one union-find over the core vertices at the
    level of the lowest basis vector that holds it (:func:`_levels`), and
    the links are undone as the walk leaves each subtree (Westbrook &
    Tarjan, SIAM J. Comput. 1989), so a class is joined once per subtree
    rather than once per set.  The b1 of a set is the number of its classes
    that close a cycle.  Above depth :data:`_SUBTREE` the coefficients run
    in counter order, each subtree from a fresh forest (:func:`_subtree`),
    and the values stream one subtree's list at a time.
    """
    n, pairs, packed, basis = _class_basis(g, capped=True)
    if not packed:
        return basis, iter((0,))
    levels = _levels(pairs, packed)
    low = min(len(packed), _SUBTREE)
    tops = _counter_order(packed[low:])
    return basis, chain.from_iterable(_subtree(levels, packed, n, low, acc) for acc in tops)


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
    """A nonempty cyclic set that :func:`circuit_decomposition` peels as one
    circuit, i.e. connected with every vertex of valency 2."""
    return is_cyclic(g, s) and len(circuit_decomposition(g, s)) == 1


def circuit_decomposition(g: Multigraph, s: EdgeSubset) -> List[EdgeSubset]:
    """Edge-disjoint circuits whose union is s.

    Deterministic peeling: walk from the lower end of the lowest unused
    edge, always taking the lowest unused edge at the current vertex, until
    a vertex of the walk repeats; peel off the cycle it closed and go on
    from that vertex.  A restart from the lowest unused edge would retrace
    the walk up to there: a peel only shrinks the choices before it, and
    each edge chosen stays the lowest.  A cursor per vertex makes it O(n + m).
    """
    if not is_cyclic(g, s):
        raise NotCyclicError("subset has a vertex of odd valency")
    inc, cursor = g.incidence(), [0] * g.vertex_count
    unused = set(s.indices())
    parts: List[EdgeSubset] = []
    for first in s.indices():
        path, trail = [g.edges[first][0]], []  # the walk's vertices and edges
        position = {path[0]: 0}
        while first in unused or trail:
            v = path[-1]
            row, k = inc[v], cursor[v]
            while row[k][0] not in unused:  # even valencies leave one
                k += 1
            cursor[v] = k
            eid, nxt = row[k]
            unused.discard(eid)
            if nxt in position:
                i = position[nxt]
                parts.append(EdgeSubset.from_indices(g.edge_count, trail[i:] + [eid]))
                for w in path[i + 1:]:
                    del position[w]
                del path[i + 1:], trail[i:]
            else:
                position[nxt] = len(path)
                path.append(nxt)
                trail.append(eid)
    return parts
