"""Multigraph representation and structural primitives.

Vertices and edges carry dense integer indices; edge subsets and vertex
subsets are int bitmasks wrapped with an explicit width so that GF(2)
arithmetic stays constant-time and width errors fail loudly.

Every value type of the package derives from :class:`_Value`: its fields
are its ``__slots__``, set once in ``__init__`` through :data:`_set_field`,
and equality, hashing, ``repr`` and pickling are read from them.
"""

from __future__ import annotations

import heapq
from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import BadIndexError, IsolatedVertexError, WidthMismatchError

Edge = Tuple[int, int]

#: The set bits of each byte value, lowest first: masks are read byte by byte.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]

#: Sets a field of a :class:`_Value` in its ``__init__``, past the
#: ``__setattr__`` that refuses every later assignment.
_set_field = object.__setattr__


class _Value:
    """An immutable value whose fields are the names in ``__slots__``.

    A subclass declares its fields as ``__slots__`` and sets each once in
    its ``__init__`` through :data:`_set_field`.  Assigning or deleting an
    attribute raises ``AttributeError``.  Two values are equal when they
    have the same class and equal fields, and the hash is that of the field
    tuple; ``repr`` reads ``Name(field=value, ...)``, and pickling and
    copying rebuild the value through its constructor, checks included.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        """Give the subclass ``_fields``, which maps a value to its field
        tuple through one ``attrgetter``, built once from ``__slots__``."""
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name returns the bare value

            def get(value, one=get):
                return (one(value),)

        cls._fields = staticmethod(get)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)


class Multigraph(_Value):
    """An undirected multigraph; loops and parallel edges allowed.

    A :class:`_Value`: immutable after construction, compared and hashed by
    its fields, with no instance ``__dict__`` and no weak references.
    ``edges[i]`` is the normalized (min, max) endpoint pair of edge i.  Use
    :func:`build_graph` for validated construction; transforms may build
    degenerate graphs (isolated vertices, even the empty graph) directly.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Tuple[Edge, ...]) -> None:
        _set_field(self, "vertex_count", vertex_count)
        _set_field(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incidence(self) -> List[List[Tuple[int, int]]]:
        """Per-vertex list of (edge index, other endpoint); loops appear once."""
        inc: List[List[Tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, (a, b) in enumerate(self.edges):
            inc[a].append((eid, b))
            if a != b:
                inc[b].append((eid, a))
        return inc


class EdgeSubset(_Value):
    """A set of edges as a 1-chain over GF(2); XOR is chain addition."""

    __slots__ = ("bits", "width")

    def __init__(self, bits: int, width: int) -> None:
        if bits < 0 or bits >> width:
            raise BadIndexError(bits, 1 << width)
        _set_field(self, "bits", bits)
        _set_field(self, "width", width)

    @classmethod
    def empty(cls, width: int) -> "EdgeSubset":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "EdgeSubset":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "EdgeSubset":
        bits = bytearray(width // 8 + 1)  # not ORed into a growing int: O(width)
        for i in indices:
            if not 0 <= i < width:
                raise BadIndexError(i, width)
            bits[i >> 3] |= 1 << (i & 7)
        return cls(int.from_bytes(bits, "little"), width)

    def __xor__(self, other: "EdgeSubset") -> "EdgeSubset":
        if self.width != other.width:
            raise WidthMismatchError(self.width, other.width)
        return EdgeSubset(self.bits ^ other.bits, self.width)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and bool(self.bits >> index & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def indices(self) -> Iterator[int]:
        """The set bits in increasing order, read byte by byte (the mirror
        of :meth:`from_indices`), so the whole list is O(width)."""
        data = self.bits.to_bytes(self.width // 8 + 1, "little")
        for k in compress(range(len(data)), data):  # the nonzero bytes
            base = 8 * k
            for i in _BYTE_BITS[data[k]]:
                yield base + i

    def intersects(self, other: "EdgeSubset") -> bool:
        return bool(self.bits & other.bits)


class ZeroChain(_Value):
    """A set of vertices as a 0-chain over GF(2)."""

    __slots__ = ("bits", "width")

    def __init__(self, bits: int, width: int) -> None:
        _set_field(self, "bits", bits)
        _set_field(self, "width", width)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "ZeroChain") -> "ZeroChain":
        if self.width != other.width:
            raise WidthMismatchError(self.width, other.width)
        return ZeroChain(self.bits ^ other.bits, self.width)


def build_graph(vertex_count: int, edge_pairs: Sequence[Edge]) -> Multigraph:
    """Validated constructor: rejects bad indices and isolated vertices.

    The one exception is the graph of one vertex and no edge, the dual graph
    of a smooth curve."""
    if vertex_count < 0:
        raise BadIndexError(vertex_count, 0)
    touched = [False] * vertex_count
    edges: List[Edge] = []
    for pair in edge_pairs:
        a, b = pair
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise BadIndexError(pair, vertex_count)
        touched[a] = touched[b] = True
        edges.append((a, b) if a <= b else (b, a))
    for v, seen in enumerate(touched):
        if not seen and vertex_count > 1:
            raise IsolatedVertexError(v)
    return Multigraph(vertex_count, tuple(edges))


def valency(g: Multigraph, v: int) -> int:
    """Edge-endpoint incidences at v; a loop counts 2."""
    if not 0 <= v < g.vertex_count:
        raise BadIndexError(v, g.vertex_count)
    return _valencies(g)[0][v]


def _valencies(g: Multigraph) -> Tuple[List[int], List[bool]]:
    """Every vertex's valency and whether it carries a loop, in one sweep."""
    val = [0] * g.vertex_count
    loop = [False] * g.vertex_count
    for a, b in g.edges:
        val[a] += 1
        val[b] += 1
        if a == b:
            loop[a] = True
    return val, loop


def _smooth(g: Multigraph) -> Tuple[int, Tuple[Edge, ...], List[int]]:
    """Drop the edge at a vertex of valency 1, or merge the two edges at one
    of valency 2 without a loop, until neither applies, always at the
    lowest such vertex (operations 1 and 2 of :mod:`spincomb.transforms`).
    A vertex of valency 0 is neither superstable nor reducible, and a loop
    is never removed, so a whole cycle ends as a loop.

    The core's vertex count, its edges and, for each edge of g, the index of
    the core edge it became part of, or -1 if an operation 1 dropped it.
    Only the vertices left with an edge are kept: they keep their order and
    are relabelled 0, 1, ...; the surviving edges of g keep theirs, and
    merged edges follow them in order of creation.

    One heap pass in O((n + m) log n): each popped vertex is re-checked,
    and an operation touches at most two neighbours, which go back on it.
    Each merged edge records the edge it went into, always a later one, so
    the map to the core is resolved once, from the last edge down.
    """
    val, loop = _valencies(g)  # a removed vertex gets valency 0

    def applicable(v: int) -> bool:
        return val[v] == 1 or val[v] == 2 and not loop[v]

    heap = [v for v in range(len(val)) if applicable(v)]
    if not heap and all(val):
        return len(val), g.edges, list(range(len(g.edges)))
    edges: List[Optional[Edge]] = list(g.edges)
    into = [-1] * len(edges)  # the edge a merged edge went into
    # removed edges stay listed (as None); a loop's vertex never smooths,
    # so its list is never read
    incident: List[List[int]] = [[] for _ in val]
    for eid, (a, b) in enumerate(edges):
        incident[a].append(eid)
        incident[b].append(eid)
    while heap:
        v = heapq.heappop(heap)
        if not applicable(v):
            continue  # removed, or changed since it was pushed
        d, val[v] = val[v], 0
        new = len(edges)  # the id of the merged edge, if any
        far = []
        for eid in incident[v]:
            if edges[eid] is None:
                continue
            a, b = edges[eid]
            far.append(b if a == v else a)
            edges[eid] = None
            if d == 2:
                into[eid] = new
        if d == 1:  # operation 1: the neighbour loses the edge
            val[far[0]] -= 1
        else:  # operation 2: the two edges become one, valencies unchanged
            u, w = min(far), max(far)
            incident[u].append(new)
            incident[w].append(new)
            edges.append((u, w))
            into.append(-1)
            if u == w:  # two parallel edges merge into a loop
                loop[u] = True
        for u in far:
            if applicable(u):
                heapq.heappush(heap, u)
    label = [0] * len(val)
    survivors = [v for v, d in enumerate(val) if d]
    for i, v in enumerate(survivors):
        label[v] = i
    kept = [eid for eid, e in enumerate(edges) if e]
    # the labels keep the vertex order, so each pair stays (min, max)
    pairs = tuple((label[edges[eid][0]], label[edges[eid][1]]) for eid in kept)
    core = [-1] * len(edges)
    for i, eid in enumerate(kept):
        core[eid] = i
    for eid in reversed(range(len(edges))):
        if into[eid] >= 0:
            core[eid] = core[into[eid]]
    return len(survivors), pairs, core[: len(g.edges)]


def connected_components(g: Multigraph) -> List[List[int]]:
    """Partition of vertex indices into maximal connected pieces, each
    sorted, in order of their lowest vertex; read from the lowpoint DFS."""
    return _lowpoint_dfs(g)[2]


def betti_number(g: Multigraph) -> int:
    """First Betti number: edges - vertices + components, the components
    read from the lowpoint DFS; the edges outside its spanning forest."""
    return g.edge_count - g.vertex_count + len(connected_components(g))


def separating_edges(g: Multigraph) -> EdgeSubset:
    """Bridges, found by lowpoint DFS.  Loops and parallel pairs never qualify."""
    return EdgeSubset.from_indices(g.edge_count, _lowpoint_dfs(g)[0])


def separating_vertices(g: Multigraph) -> List[int]:
    """Articulation vertices; deletion removes the vertex and incident edges."""
    return _lowpoint_dfs(g)[1]


def _lowpoint_dfs(g: Multigraph) -> Tuple[Set[int], List[int], List[List[int]]]:
    """Bridge ids, sorted cut vertices and the connected components from
    one lowpoint DFS (Hopcroft & Tarjan, CACM 1973) in O(n + m).  Each
    component is sorted; the roots are taken in increasing order, so the
    components come in order of their lowest vertex."""
    n = g.vertex_count
    inc = g.incidence()
    pre = [-1] * n
    low = [0] * n
    bridges: Set[int] = set()
    cuts = set()
    components: List[List[int]] = []
    counter = 0

    # Iterative DFS over incidence iterators; the entry edge is skipped so
    # that a parallel copy still acts as a back edge, and a loop lowers nothing.
    for root in range(n):
        if pre[root] != -1:
            continue
        root_children = 0
        component = [root]
        pre[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            u, entry_eid, pending = stack[-1]
            for eid, w in pending:
                if eid == entry_eid:
                    continue
                if pre[w] == -1:
                    pre[w] = low[w] = counter
                    counter += 1
                    component.append(w)
                    stack.append((w, eid, iter(inc[w])))
                    break
                if pre[w] < low[u]:
                    low[u] = pre[w]
            else:
                stack.pop()
                if not stack:
                    break
                parent = stack[-1][0]
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] > pre[parent]:
                    bridges.add(entry_eid)
                if parent == root:
                    root_children += 1
                elif low[u] >= pre[parent]:
                    cuts.add(parent)
        if root_children >= 2:
            cuts.add(root)
        components.append(sorted(component))
    return bridges, sorted(cuts), components


def induced_subgraph(g: Multigraph, s: EdgeSubset) -> Multigraph:
    """Smallest subgraph containing the edges of s.

    Vertices are exactly the endpoints of s, reindexed in increasing
    order; the empty subset yields the empty graph (Betti number 0).
    """
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    chosen = list(s.indices())
    verts = sorted({v for eid in chosen for v in g.edges[eid]})
    remap = {v: i for i, v in enumerate(verts)}
    edges = tuple((remap[g.edges[eid][0]], remap[g.edges[eid][1]]) for eid in chosen)
    return Multigraph(len(verts), edges)


def subset_betti(g: Multigraph, s: EdgeSubset) -> int:
    """Betti number of the subgraph induced by s, without materializing it:
    how many of its edges close a cycle, added one by one to a union-find
    forest over the vertices.  Finds halve their paths (each vertex on the
    way is pointed at its grandparent), so a long chain of links stays
    cheap to climb."""
    if s.width != g.edge_count:
        raise WidthMismatchError(s.width, g.edge_count)
    edges = g.edges
    parent = list(range(g.vertex_count))
    closed = 0
    for eid in s.indices():
        a, b = edges[eid]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            closed += 1
        else:
            parent[a] = b
    return closed
