"""Local operations preserving the cycle space, superstable reduction,
and the recognizers / theorem checkers for the two classification results.

The loop, tetrahedron and fat-triangle recognizers compare sorted edge
lists; the tests check them against a search over all vertex permutations
(the oracle ``are_isomorphic`` in ``tests/conftest.py``).  The rules of
both theorems live in ``_theorems`` alone, which reads a graph's
``betti_profile`` and class; :func:`check_theorems` adds the superstable
precondition and the pass.

:func:`eliminate_valency1`, :func:`smooth_valency2` and
:func:`contract_separating_edge` are the single-step operations; each
builds a new graph.  :func:`superstable_reduction` applies the first two
at the lowest applicable vertex in one heap pass, ``graphs._smooth``, on
whose core :mod:`spincomb.cycles` builds the cycle basis too.  The
tests check it against loops of single steps in ``tests/conftest.py``: at
the lowest vertex (``lowest_first_reduction``: the same labels and edge
order) and at random ones (``random_order_reduction``: up to isomorphism).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cycles import betti_profile
from .errors import (
    BadIndexError,
    LoopVertexError,
    NotSeparatingError,
    NotSuperstableError,
    VanishingComponentError,
    WrongValencyError,
)
from .graphs import (
    EdgeSubset,
    Multigraph,
    _lowpoint_dfs,
    _set_field,
    _smooth,
    _valencies,
    _Value,
    separating_edges,
    valency,
)


class Verdict(_Value):
    """Result of a classifier or theorem check.

    ``hypothesis_exercised`` distinguishes a genuinely verified conclusion
    from a vacuously true one; ``witness`` is a cyclic set certifying why
    the hypothesis failed, when one is relevant.
    """

    __slots__ = ("holds", "classification", "witness", "hypothesis_exercised")

    def __init__(
        self,
        holds: bool,
        classification: str,  # split | loop | tetrahedron | fat_triangle | other
        witness: Optional[EdgeSubset] = None,
        hypothesis_exercised: bool = False,
    ) -> None:
        _set_field(self, "holds", holds)
        _set_field(self, "classification", classification)
        _set_field(self, "witness", witness)
        _set_field(self, "hypothesis_exercised", hypothesis_exercised)


def _drop_vertex(
    vertex_count: int, edges: List[Tuple[int, int]], v: int
) -> Multigraph:
    """Remove vertex v (assumed no longer incident to anything) and relabel."""

    def shift(x: int) -> int:
        return x - 1 if x > v else x

    new_edges = tuple(
        (min(shift(a), shift(b)), max(shift(a), shift(b))) for a, b in edges
    )
    return Multigraph(vertex_count - 1, new_edges)


def eliminate_valency1(g: Multigraph, v: int) -> Multigraph:
    """Operation 1: contract the unique edge at a valency-1 vertex."""
    val = valency(g, v)
    if val != 1:
        raise WrongValencyError(v, val, 1)
    edges = [e for e in g.edges if v not in e]
    return _drop_vertex(g.vertex_count, edges, v)


def smooth_valency2(g: Multigraph, v: int) -> Multigraph:
    """Operation 2: merge the two edges at a valency-2 vertex into one.

    Not allowed on the vertex of a loop.
    """
    val = valency(g, v)
    if val != 2:
        raise WrongValencyError(v, val, 2)
    incident = g.incidence()[v]  # (edge, far end) pairs; a loop appears once
    if len(incident) == 1:  # valency 2 from a single loop
        raise LoopVertexError(v)
    (e1, u), (e2, w) = incident
    edges = [e for eid, e in enumerate(g.edges) if eid not in (e1, e2)]
    edges.append((min(u, w), max(u, w)))
    return _drop_vertex(g.vertex_count, edges, v)


def contract_separating_edge(g: Multigraph, e: int) -> Multigraph:
    """Operation 3: contract a separating edge, merging its endpoints."""
    if not 0 <= e < g.edge_count:
        raise BadIndexError(e, g.edge_count)
    if e not in separating_edges(g):
        raise NotSeparatingError(e)
    u, v = g.edges[e]

    def merge(x: int) -> int:
        return u if x == v else x

    edges = [
        (min(merge(a), merge(b)), max(merge(a), merge(b)))
        for eid, (a, b) in enumerate(g.edges)
        if eid != e
    ]
    return _drop_vertex(g.vertex_count, edges, v)


def is_superstable(g: Multigraph) -> bool:
    """At least one vertex, and all valencies at least 3, except that a
    vertex carrying exactly one loop and nothing else is allowed.  A graph
    with no vertex has no component, so it is no curve's dual graph."""
    val, loop = _valencies(g)
    return bool(val) and all(d >= 3 or (d == 2 and loop[v]) for v, d in enumerate(val))


def superstable_reduction(g: Multigraph) -> Multigraph:
    """Apply operations 1 and 2 until the graph is superstable, each time at
    the lowest vertex one applies to, in one heap pass in O((n + m) log n).

    Requires b1 >= 1 on every connected component.  A tree component, one
    whose edges (if any) are all bridges of the lowpoint DFS, would reduce
    to nothing; the lowest is refused before any operation.  The result is
    unique up to isomorphism whatever the order of the operations; this
    order fixes it exactly: the surviving vertices (relabelled 0, 1, ...)
    and edges keep their order, and merged edges follow in order of
    creation.  A superstable graph is returned as it is.
    """
    bridges, _, components = _lowpoint_dfs(g)
    on_cycle = {a for eid, (a, _) in enumerate(g.edges) if eid not in bridges}
    for block in components:
        if on_cycle.isdisjoint(block):
            raise VanishingComponentError(f"component {block} is a tree")
    n, pairs, _ = _smooth(g)
    return g if n == g.vertex_count else Multigraph(n, pairs)  # each operation drops a vertex


_LOOP = Multigraph(1, ((0, 0),))
_TETRAHEDRON = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
_FAT_TRIANGLE = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


# Every vertex permutation of these three graphs is an automorphism, so a
# graph on as many vertices is isomorphic to one exactly when its sorted
# (min, max) edge list equals that graph's.
def _is_named(g: Multigraph, named: Multigraph) -> bool:
    return g.vertex_count == named.vertex_count and sorted(g.edges) == list(named.edges)


def is_loop_graph(g: Multigraph) -> bool:
    return _is_named(g, _LOOP)


def is_tetrahedron(g: Multigraph) -> bool:
    return _is_named(g, _TETRAHEDRON)


def is_fat_triangle(g: Multigraph) -> bool:
    return _is_named(g, _FAT_TRIANGLE)


def is_split(g: Multigraph) -> bool:
    """Connected, two vertices, no loops: two vertices, at least one edge,
    and every edge joins them."""
    return g.vertex_count == 2 and g.edge_count > 0 and all(a != b for a, b in g.edges)


def classify(g: Multigraph) -> str:
    if is_split(g):
        return "split"
    if is_loop_graph(g):
        return "loop"
    if is_tetrahedron(g):
        return "tetrahedron"
    if is_fat_triangle(g):
        return "fat_triangle"
    return "other"


def check_theorems(g: Multigraph) -> Tuple[Verdict, Verdict]:
    """Theorems 2 and 3 on a superstable graph g, judged by the one copy of
    their rules from one betti_profile and classify of g.  Theorem 2: if 2
    is not a cyclic Betti number, g is split, the loop (b1 = 1) or the
    tetrahedron (b1 = 3).  Theorem 3: if 3 is not one but some m > 3 is, g
    is the fat triangle (b1 = 4).  A verdict whose hypothesis fails holds
    vacuously, with the first cyclic set of Betti number 2 (3 for theorem
    3, if any) as witness."""
    if not is_superstable(g):
        raise NotSuperstableError("theorem check needs a superstable graph")
    return _theorems(betti_profile(g), classify(g))


def _theorems(profile: Dict[int, Tuple[int, EdgeSubset]], cls: str) -> Tuple[Verdict, Verdict]:
    """Both verdicts from a superstable graph's betti_profile and class.  The
    loop has b1 = 1, the tetrahedron b1 = 3 and the fat triangle b1 = 4, so
    once a hypothesis holds the class alone decides the conclusion."""
    if 2 not in profile:
        theorem2 = Verdict(cls in ("split", "loop", "tetrahedron"), cls, hypothesis_exercised=True)
    else:
        theorem2 = Verdict(True, cls, witness=profile[2][1])
    if 3 not in profile and any(m > 3 for m in profile):
        theorem3 = Verdict(cls == "fat_triangle", cls, hypothesis_exercised=True)
    else:
        theorem3 = Verdict(True, cls, witness=profile[3][1] if 3 in profile else None)
    return theorem2, theorem3
