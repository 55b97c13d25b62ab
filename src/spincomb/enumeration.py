"""Exhaustive, isomorphism-reduced generation of small multigraphs and the
machine sweeps verifying the two classification theorems at bounded size.

Canonical forms are computed per connected component by
individualization-refinement: iterated degree refinement splits the
vertices into ordered cells, and a search that individualizes the vertices
of the lowest non-singleton cell one at a time, pruning twins, keeps the
minimal edge key over its discrete leaves (see :func:`_canonical_connected`).

Connected classes grow one edge at a time from the single vertex, and each
build is cached per (max_edges, superstable).  When only superstable
classes with at most D edges are wanted, a class with delta edges is never
built once its valency deficit (see :func:`_deficit`) exceeds
2 * (D - delta): one more edge lowers the deficit by at most 2, so it could
no longer reach 0.  :func:`_grow` reads that deficit off the parent's
valencies before the child exists.  Nothing superstable is lost.
Every connected graph H with at least two edges loses one edge, and stays
connected, by dropping a non-bridge edge or a pendant edge with its leaf,
and that raises the deficit by at most 2; so each superstable class keeps a
chain of unpruned ancestors, none with more vertices than the class.

``MAX_ENUM_EDGES`` is the one bound of this module.
:func:`enumerate_multigraphs` and the theorem sweeps admit D in
1..MAX_ENUM_EDGES, with or without ``superstable``, refuse every other
bound on the call, before any build, and return every class of a bound
they admit.  The largest component the enumerator labels is a tree with
MAX_ENUM_EDGES + 1 vertices, and :func:`canonical_form` refuses a larger
one, since refinement on a long cycle grows with the cube of its length.
Every class is yielded as its canonical form:
``g.edges == canonical_form(g)``.

The class table is compact.  Every key the enumerator keeps and every key
:func:`canonical_form` returns holds the one interned tuple of each vertex
pair (:func:`_interned`), not a tuple per edge, so a key costs a pointer per
edge.  The labelling interns nothing: :func:`_grow` interns a key only when
it is new to its level, :func:`_join` a union of components, and
:func:`canonical_form` a one-component key.  A build is cached in the order
the connected classes are yielded, and a connected enumeration yields those
cached objects: each class exists once, and a one-component key is never
rebuilt.
"""

from __future__ import annotations

import functools
import math
import time
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import TooLargeError
from .graphs import Multigraph, _set_field, _Value, connected_components
from .transforms import Verdict, check_theorems

Edge = Tuple[int, int]
Key = Tuple[Edge, ...]

#: Enumeration is desk-scale; larger bounds are refused.
MAX_ENUM_EDGES = 10

#: The one shared tuple of each vertex pair a key has held, each its own
#: key and value.  A pair lies in one component of at most
#: MAX_ENUM_EDGES + 1 vertices, so the table holds at most that many pairs
#: per vertex of the largest graph labelled.
_PAIRS: Dict[Edge, Edge] = {}


class SweepReport(_Value):
    __slots__ = ("graphs_examined", "hypothesis_exercised", "vacuous", "violations", "elapsed")

    def __init__(
        self,
        graphs_examined: int,
        hypothesis_exercised: int,
        vacuous: int,
        violations: Tuple[Tuple[Key, Verdict], ...],
        elapsed: float,
    ) -> None:
        _set_field(self, "graphs_examined", graphs_examined)
        _set_field(self, "hypothesis_exercised", hypothesis_exercised)
        _set_field(self, "vacuous", vacuous)
        _set_field(self, "violations", violations)
        _set_field(self, "elapsed", elapsed)


def _interned(pairs: Sequence[Edge]) -> Key:
    """The key of ``pairs`` made of the interned pair tuples."""
    return tuple(map(_PAIRS.setdefault, pairs, pairs))


def _refine(colors: List, nb: List[List[int]]) -> List[int]:
    """Iterated neighbourhood refinement of a vertex colouring: each round
    recolours v by the rank of (colour, sorted neighbour colours) among the
    sorted signatures, until the number of colours stops growing.

    The signature leads with the old colour, so each cell splits in place
    and the cell order is invariant under relabeling.
    """
    n = len(colors)
    k = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in nb[v]]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == k or len(rank) == n:  # stable, or every cell a single vertex
            return colors
        k = len(rank)


def _canonical_connected(n: int, edges: Sequence[Edge]) -> Key:
    """Minimal edge key over the leaves of an individualization-refinement
    search (McKay & Piperno, J. Symb. Comput. 2014).

    A node whose refined colouring is not discrete individualizes, in turn,
    every vertex of its lowest non-singleton cell, placing it first in that
    cell, and refines again; a leaf labels each vertex by its colour.  A
    vertex is skipped when it is a twin of one already tried at the node:
    one cell shares its loop count, so twins need only equal neighbours once
    each other is removed.  Swapping twins is an automorphism fixing the
    node, so their subtrees hold the same keys.  The minimal key is
    returned as labelled, not interned: the caller interns the one it keeps.
    """
    nb: List[List[int]] = [[] for _ in range(n)]
    loops = [0] * n
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            nb[a].append(b)
            nb[b].append(a)
    best: Optional[Key] = None
    stack = [_refine([(len(nb[v]) + 2 * loops[v], loops[v]) for v in range(n)], nb)]
    while stack:
        colors = stack.pop()
        if max(colors) == n - 1:  # discrete: a leaf
            key = tuple(
                sorted([
                    (colors[a], colors[b]) if colors[a] <= colors[b] else (colors[b], colors[a])
                    for a, b in edges
                ])
            )
            if best is None or key < best:
                best = key
            continue
        size = [0] * n
        for c in colors:
            size[c] += 1
        target = next(c for c, k in enumerate(size) if k > 1)
        tried: List[int] = []
        for v in range(n):
            if colors[v] != target or any(
                sorted(w for w in nb[u] if w != v) == sorted(w for w in nb[v] if w != u)
                for u in tried
            ):
                continue
            tried.append(v)
            split = [2 * c + (c == target) for c in colors]
            split[v] -= 1
            stack.append(_refine(split, nb))
    return best


def canonical_form(g: Multigraph) -> Key:
    """Canonical key (edge list) of a multigraph, computed componentwise.
    Two keys are equal exactly when the graphs are isomorphic and have the
    same vertex count, which the key omits: ``Multigraph(0, ())`` and
    ``Multigraph(1, ())`` both give ``()``.

    Components are canonicalized independently, ordered by
    (vertex count, edge count, key), and concatenated with vertex offsets;
    the key holds the interned pair tuples (:func:`_interned`).
    A component with more than ``MAX_ENUM_EDGES + 1`` vertices, the largest
    tree the enumerator builds, raises TooLargeError before any is labelled.
    """
    blocks = connected_components(g)
    largest = max(map(len, blocks), default=0)
    if largest > MAX_ENUM_EDGES + 1:
        raise TooLargeError(
            f"component has {largest} vertices, cap is {MAX_ENUM_EDGES + 1}"
        )
    where = [(0, 0)] * g.vertex_count  # vertex -> (component, index in it)
    for c, block in enumerate(blocks):
        for i, v in enumerate(block):
            where[v] = (c, i)
    sub_edges: List[List[Edge]] = [[] for _ in blocks]
    for a, b in g.edges:
        c, i = where[a]
        sub_edges[c].append((i, where[b][1]))
    pieces = [
        (len(block), len(sub), _canonical_connected(len(block), sub))
        for block, sub in zip(blocks, sub_edges)
    ]
    # _join returns one piece as it is given, and the labelling interns nothing
    return _interned(pieces[0][2]) if len(pieces) == 1 else _join(pieces)


def _join(pieces: List[Tuple[int, int, Key]]) -> Key:
    """Canonical keys of components, given as (vertex count, edge count,
    key), in that order and concatenated with vertex offsets, as interned
    pairs.  One piece is its own key: its offset is 0."""
    if len(pieces) == 1:
        return pieces[0][2]
    combined: List[Edge] = []
    offset = 0
    for nverts, _, key in sorted(pieces):
        combined.extend((a + offset, b + offset) for a, b in key)
        offset += nverts
    return _interned(combined)


def _deficit(n: int, edges: Key) -> int:
    """Valency deficit sum_v max(0, 3 - val(v)): 0 exactly on superstable
    connected graphs, the single loop counting 0 as well."""
    if edges == ((0, 0),):
        return 0
    val = [0] * n
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    return sum(3 - d for d in val if d < 3)


def _grow(level: Dict[Key, int], budget: Optional[int]) -> Dict[Key, int]:
    """Canonical keys, with their vertex counts, of the connected graphs one
    edge larger than a class of ``level`` (key -> vertex count): an edge
    between two vertices, a loop, or a pendant edge to a new vertex.

    Each child's deficit is read from its parent's valencies: an edge
    between two vertices lowers it by 1 at each endpoint of valency below
    3, a loop by the endpoint's gap to 3 up to 2, and a pendant edge by 1 at
    its old endpoint, adding 2 for the new leaf; the single loop counts 0,
    as in :func:`_deficit`.  A child whose deficit exceeds ``budget`` (None:
    no budget) is never built, and a key is interned only when it is new.
    """
    limit = math.inf if budget is None else budget
    nxt: Dict[Key, int] = {}
    for key, n in level.items():
        val = [0] * n
        for a, b in key:
            val[a] += 1
            val[b] += 1
        short = [d < 3 for d in val]
        total = sum(3 - d for d in val if d < 3)
        for u in range(n):
            gap = 3 - val[u] if short[u] else 0
            head = total - short[u]  # the edge's end at u counted
            for v in range(u, n + 1):
                if v == n:  # a pendant edge to a new leaf
                    deficit = head + 2
                elif v == u:
                    deficit = total - min(gap, 2) if key else 0
                else:
                    deficit = head - short[v]
                if deficit <= limit:
                    cn = n + (v == n)
                    canon = _canonical_connected(cn, key + ((u, v),))
                    if canon not in nxt:
                        nxt[_interned(canon)] = cn
    return nxt


@functools.cache
def _connected_classes(max_edges: int, superstable: bool) -> Tuple[Multigraph, ...]:
    """Connected classes with at most max_edges edges, grown level by level
    from the single vertex, in the order (vertex count, edge count, key);
    with ``superstable``, a superset of the superstable ones, grown under
    the deficit budget 2 * (max_edges - delta)."""
    level: Dict[Key, int] = {(): 1}
    classes: List[Multigraph] = []
    for delta in range(1, max_edges + 1):
        level = _grow(level, 2 * (max_edges - delta) if superstable else None)
        classes.extend(Multigraph(level[key], key) for key in sorted(level))
    # stable, so each vertex count keeps the (edge count, key) order
    classes.sort(key=attrgetter("vertex_count"))
    return tuple(classes)


def enumerate_multigraphs(
    max_edges: int,
    *,
    connected: bool = False,
    superstable: bool = False,
) -> Iterator[Multigraph]:
    """The canonical form of every isomorphism class with at most max_edges
    edges, in the order (vertex count, edge count, canonical key).

    max_edges must be an int in 1..MAX_ENUM_EDGES; any other bound raises
    TooLargeError on the call, before anything is built.  The classes are
    built on the first ``next()``.  With ``superstable`` only the classes
    that can still become superstable within max_edges are grown.
    """
    if not (isinstance(max_edges, int) and 1 <= max_edges <= MAX_ENUM_EDGES):
        raise TooLargeError(f"max_edges must be in 1..{MAX_ENUM_EDGES}")
    return _classes(max_edges, connected, superstable)


def _classes(max_edges: int, connected: bool, superstable: bool) -> Iterator[Multigraph]:
    """The classes of :func:`enumerate_multigraphs`, built on the first
    ``next()``: the cached connected ones themselves, or every multiset of
    them as the (vertex count, edge count, key) of its union."""
    comps = _connected_classes(max_edges, superstable)
    if superstable:
        comps = [c for c in comps if not _deficit(c.vertex_count, c.edges)]
    if connected:
        yield from comps
        return
    comps = sorted(comps, key=lambda c: (c.edge_count, c.edges))
    results: List[Tuple[int, int, Key]] = []

    def unions(start: int, budget: int, acc: List[Multigraph]):
        if acc:
            results.append(_sort_key(acc))
        for i in range(start, len(comps)):
            c = comps[i]
            if c.edge_count > budget:
                break
            unions(i, budget - c.edge_count, acc + [c])

    unions(0, max_edges, [])
    results.sort()
    for n, _, key in results:
        yield Multigraph(n, key)


def _sort_key(parts: List[Multigraph]) -> Tuple[int, int, Key]:
    """(vertex count, edge count, canonical key) of the disjoint union of
    components already in canonical form, with no relabeling."""
    pieces = [(c.vertex_count, c.edge_count, c.edges) for c in parts]
    return (
        sum(p[0] for p in pieces),
        sum(p[1] for p in pieces),
        _join(pieces),
    )


def sweep_theorems(max_edges: int) -> Tuple[SweepReport, SweepReport]:
    """Check both classifications on every superstable class in one pass.

    Each class gets one betti_profile and one classify, shared by the
    theorem 2 and theorem 3 verdicts.  Both reports carry the elapsed time
    of the whole pass, enumeration included.  max_edges must be a bound
    that ``enumerate_multigraphs(max_edges, superstable=True)`` admits, an
    int in 1..MAX_ENUM_EDGES; that call raises TooLargeError on any other.
    """
    start = time.perf_counter()
    examined = 0
    exercised = [0, 0]
    violations: Tuple[List[Tuple[Key, Verdict]], ...] = ([], [])
    for g in enumerate_multigraphs(max_edges, superstable=True):
        examined += 1
        for i, verdict in enumerate(check_theorems(g)):
            if verdict.hypothesis_exercised:
                exercised[i] += 1
            if not verdict.holds:
                violations[i].append((g.edges, verdict))
    elapsed = time.perf_counter() - start
    return tuple(
        SweepReport(
            graphs_examined=examined,
            hypothesis_exercised=exercised[i],
            vacuous=examined - exercised[i],
            violations=tuple(violations[i]),
            elapsed=elapsed,
        )
        for i in range(2)
    )

