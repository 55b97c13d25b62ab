"""Exact numerics of the scheme of stable spin curves over a stable curve.

A curve enters only through its dual graph (vertices = irreducible
components, edges = nodes) plus one geometric-genus mark per vertex.
All multiplicities are carried as exponents of 2; counts and lengths use
Python's unbounded integers.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, List, Tuple

from .cycles import _betti_sets, betti_profile, cyclic_betti_set, cyclic_sets, is_cyclic
from .errors import InternalLengthMismatchError, NotEvenError, PreconditionFailedError
from .graphs import (
    EdgeSubset,
    Multigraph,
    _set_field,
    _valencies,
    _Value,
    connected_components,
    subset_betti,
)
from .transforms import Verdict, check_theorems, classify, is_superstable


class CurveDualGraph(_Value):
    """Dual graph of a stable curve with per-component genus marks.

    The graph must be connected.  Stability of the curve (every genus-0
    component carries at least 3 nodes) is advisory: check it with
    :meth:`stability_violations`, construction never enforces it.
    """

    __slots__ = ("graph", "genus_marks")

    def __init__(self, graph: Multigraph, genus_marks: Tuple[int, ...]) -> None:
        if len(genus_marks) != graph.vertex_count:
            raise ValueError(
                f"{len(genus_marks)} genus marks for {graph.vertex_count} vertices"
            )
        if any(m < 0 for m in genus_marks):
            raise ValueError("genus marks must be nonnegative")
        if len(connected_components(graph)) != 1:
            raise ValueError("dual graph of a stable curve must be connected")
        _set_field(self, "graph", graph)
        _set_field(self, "genus_marks", genus_marks)

    def stability_violations(self) -> List[int]:
        """Vertices with genus mark 0 and fewer than 3 nodes."""
        val, _ = _valencies(self.graph)
        return [v for v, d in enumerate(val) if self.genus_marks[v] == 0 and d < 3]


class SpinReport(_Value):
    """Exact numerics of the zero-dimensional scheme of spin curves."""

    __slots__ = (
        "b",
        "p",
        "genus",
        "even_set_count",
        "component_count",
        "multiplicity_multiset",
        "multiplicity_set_exponents",
        "length",
    )

    def __init__(
        self,
        b: int,
        p: int,
        genus: int,
        even_set_count: int,
        component_count: int,
        multiplicity_multiset: Dict[int, int],  # exponent n -> components of multiplicity 2^n
        multiplicity_set_exponents: frozenset,
        length: int,
    ) -> None:
        _set_field(self, "b", b)
        _set_field(self, "p", p)
        _set_field(self, "genus", genus)
        _set_field(self, "even_set_count", even_set_count)
        _set_field(self, "component_count", component_count)
        _set_field(self, "multiplicity_multiset", multiplicity_multiset)
        _set_field(self, "multiplicity_set_exponents", multiplicity_set_exponents)
        _set_field(self, "length", length)


class SupportDescription(_Value):
    """The quasistable support associated with one even set of nodes."""

    __slots__ = (
        "even_set",
        "blown_up_nodes",
        "exceptional_count",
        "gluing_dimension",
        "point_count",
        "multiplicity_exponent",
    )

    def __init__(
        self,
        even_set: EdgeSubset,
        blown_up_nodes: EdgeSubset,  # complement: nodes replaced by exceptional lines
        exceptional_count: int,
        gluing_dimension: int,  # b1 of the even set
        point_count: int,  # 2^(2p) * 2^(b1 of the even set)
        multiplicity_exponent: int,  # b - b1 of the even set
    ) -> None:
        _set_field(self, "even_set", even_set)
        _set_field(self, "blown_up_nodes", blown_up_nodes)
        _set_field(self, "exceptional_count", exceptional_count)
        _set_field(self, "gluing_dimension", gluing_dimension)
        _set_field(self, "point_count", point_count)
        _set_field(self, "multiplicity_exponent", multiplicity_exponent)


def _betti(x: CurveDualGraph) -> int:
    """b1 of the dual graph, which is connected by construction."""
    return x.graph.edge_count - x.graph.vertex_count + 1


def _refuse_unprintable(exponent: int, what: str) -> None:
    """Raise ValueError, before 2^exponent is built, if printing it would
    pass the interpreter's int-to-str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^k has more than `limit` digits exactly when 2^k > 10^limit: never
    # for k <= 3 limit (8^limit), always for k >= 4 limit (16^limit), and in
    # between 10^limit costs no more than printing 2^k would
    if limit and exponent > 3 * limit and (
        exponent >= 4 * limit or exponent >= (10**limit).bit_length()
    ):
        raise ValueError(f"{what} 2^{exponent} has more than {limit} digits, too many to print")


def curve_genus(x: CurveDualGraph) -> int:
    """Arithmetic genus: b1 of the dual graph plus the sum of genus marks."""
    return _betti(x) + sum(x.genus_marks)


def even_sets(x: CurveDualGraph) -> Iterator[EdgeSubset]:
    """Even sets of nodes = cyclic subsets of the dual graph."""
    return cyclic_sets(x.graph)


def is_compact_type(x: CurveDualGraph) -> bool:
    """True iff the dual graph is a tree (b1 = 0)."""
    return _betti(x) == 0


def spin_report(x: CurveDualGraph) -> SpinReport:
    """Component count, multiplicity multiset and length of the spin scheme.

    Each even set D contributes 2^(2p) * 2^(b1(D)) components at
    multiplicity exponent b - b1(D); the total length must come out as
    2^(2g) exactly, which is asserted.  A length 2^(2g) too long to print
    is refused on the call, before the cycle-space pass.
    """
    b = _betti(x)
    p = sum(x.genus_marks)
    genus = b + p
    _refuse_unprintable(2 * genus, "the length")
    multiset: Dict[int, int] = {}
    component_count = 0
    for n1, (sets, _) in betti_profile(x.graph).items():
        count = sets << (2 * p + n1)
        component_count += count
        multiset[b - n1] = count
    length = sum(count << exponent for exponent, count in multiset.items())
    if length != 1 << (2 * genus):
        raise InternalLengthMismatchError(length, 1 << (2 * genus))
    return SpinReport(
        b=b,
        p=p,
        genus=genus,
        even_set_count=1 << b,
        component_count=component_count,
        multiplicity_multiset=dict(sorted(multiset.items())),
        multiplicity_set_exponents=frozenset(multiset),
        length=length,
    )


def multiplicity_set(x: CurveDualGraph) -> frozenset:
    """Exponents n with 2^n a multiplicity: {b - m : m cyclic Betti number}."""
    b = _betti(x)
    return frozenset(b - m for m in cyclic_betti_set(x.graph))


def support_description(x: CurveDualGraph, delta: EdgeSubset) -> SupportDescription:
    """Describe the quasistable support over the even set delta; a point
    count 2^(2p + b1(delta)) too long to print is refused."""
    if not is_cyclic(x.graph, delta):
        raise NotEvenError("the node subset is not even; no spin support exists")
    n1 = subset_betti(x.graph, delta)
    p = sum(x.genus_marks)
    _refuse_unprintable(2 * p + n1, "the point count")
    return _support(delta, n1, _betti(x), p)


def even_set_supports(x: CurveDualGraph) -> Iterator[SupportDescription]:
    """The support description of every even set, in the order of
    :func:`even_sets`.  The sets and their b1 come from the one pass over
    the cycle space that :func:`betti_profile` makes; b and p are computed
    once for the whole curve.  Refused on the call, before any set is read:
    a largest point count 2^(2p + b) too long to print, then a cycle space
    past the enumeration cap."""
    b = _betti(x)
    p = sum(x.genus_marks)
    _refuse_unprintable(2 * p + b, "the point count")
    width = x.graph.edge_count
    return (
        _support(EdgeSubset(bits, width), n1, b, p) for bits, n1 in _betti_sets(x.graph)
    )


def _support(delta: EdgeSubset, n1: int, b: int, p: int) -> SupportDescription:
    complement = delta ^ EdgeSubset.full(delta.width)
    return SupportDescription(
        even_set=delta,
        blown_up_nodes=complement,
        exceptional_count=len(complement),
        gluing_dimension=n1,
        point_count=1 << (2 * p + n1),
        multiplicity_exponent=b - n1,
    )


def check_corollary_split(x: CurveDualGraph) -> Verdict:
    """If the spin scheme has a multiplicity-2^g component and none of
    multiplicity 2^(g-2), the curve is split or the genus-3 polygonal curve.

    No genus bound or stability hypothesis is applied, as the abstract of
    the paper states none, so an unstable curve is judged too: the genus-1
    rational curve with one node (one genus-0 loop vertex) fails as a loop."""
    return _corollary_split(x, cyclic_betti_set(x.graph), classify(x.graph))


def _corollary_split(x: CurveDualGraph, betti_set: Iterable[int], cls: str) -> Verdict:
    """The rule of :func:`check_corollary_split`, from the cyclic Betti set
    and the class of the dual graph."""
    g = curve_genus(x)
    exponents = {_betti(x) - m for m in betti_set}
    exercised = g in exponents and (g - 2) not in exponents
    if not exercised:
        return Verdict(True, cls)
    ok = cls == "split" or (g == 3 and cls == "tetrahedron")
    return Verdict(ok, cls, hypothesis_exercised=True)


def check_corollary_final(x: CurveDualGraph) -> Verdict:
    """Genus >= 4, superstable dual graph: (i) if 2^(b-2) is not a
    multiplicity then the graph is split (or the loop / tetrahedron cases
    of the underlying classification); (ii) if 2^(b-3) is absent and some
    smaller multiplicity occurs, the dual graph is the fat-triangle.  These
    are theorems 2 and 3 on the dual graph, judged from one pass."""
    if curve_genus(x) < 4:
        raise PreconditionFailedError("curve genus must be at least 4")
    if not is_superstable(x.graph):
        raise PreconditionFailedError("dual graph must be superstable")
    part_i, part_ii = check_theorems(x.graph)
    return Verdict(
        part_i.holds and part_ii.holds,
        part_i.classification,
        hypothesis_exercised=part_i.hypothesis_exercised or part_ii.hypothesis_exercised,
    )
