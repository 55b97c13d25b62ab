import collections
import itertools
import json
import math
from fractions import Fraction

import networkx as nx
import pytest

from spincomb import (
    betti_number,
    build_graph,
    canonical_form,
    connected_components,
    cyclic_betti_set,
    enumerate_multigraphs,
    is_superstable,
    separating_edges,
    check_theorems,
    classify,
    sweep_theorems,
)
from spincomb import enumeration
from spincomb.cli import main
from spincomb.errors import TooLargeError
from spincomb.graphs import EdgeSubset, Multigraph
from spincomb.transforms import Verdict

from conftest import (
    bridge_oracle,
    count_components,
    counter_order_oracle,
    cycle_basis_oracle,
    dict_union_find_betti,
    fat_triangle,
    loop_graph,
    random_connected_graph,
    random_graph,
    relabeled,
    split_graph,
    tetrahedron,
    wick_mass,
)


# ----------------------------------------------------------- labeled oracle

def _labeled_class_count(max_edges, *, connected):
    """Count isomorphism classes by brute force over labeled multigraphs.

    Canonical key: minimum sorted edge tuple over every vertex permutation.
    Completely independent of the library's refinement-based code.
    """
    seen = set()
    for delta in range(1, max_edges + 1):
        top = delta + 1 if connected else 2 * delta
        for nu in range(1, top + 1):
            pairs = [(a, b) for a in range(nu) for b in range(a, nu)]
            for combo in itertools.combinations_with_replacement(pairs, delta):
                touched = {v for e in combo for v in e}
                if len(touched) != nu:
                    continue
                if connected and count_components(nu, combo) != 1:
                    continue
                key = min(
                    tuple(
                        sorted(
                            (min(p[a], p[b]), max(p[a], p[b])) for a, b in combo
                        )
                    )
                    for p in itertools.permutations(range(nu))
                )
                seen.add((nu, key))
    return len(seen)


def _refined_cells(n, edges):
    """Vertex cells of iterated degree refinement, in increasing colour:
    first (valency, loops), then (colour, sorted neighbour colours) ranked
    among the sorted signatures, until the cell count stops growing."""
    nb = [[] for _ in range(n)]
    colors = [[0, 0] for _ in range(n)]
    for a, b in edges:
        colors[a][0] += 1
        colors[b][0] += 1
        if a == b:
            colors[a][1] += 1
        else:
            nb[a].append(b)
            nb[b].append(a)
    colors = [tuple(c) for c in colors]
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nb[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) in (count, n):
            break
        count = len(rank)
    return [[v for v in range(n) if colors[v] == c] for c in range(len(rank))]


def permutation_key(n, edges):
    """The minimal sorted edge key of a connected graph over every
    relabeling that numbers the refined cells in order, each cell's vertices
    in any order: the brute-force search the library's labelling replaced."""
    best = None
    for combo in itertools.product(*map(itertools.permutations, _refined_cells(n, edges))):
        label = [0] * n
        for i, v in enumerate(v for block in combo for v in block):
            label[v] = i
        key = tuple(sorted(tuple(sorted((label[a], label[b]))) for a, b in edges))
        if best is None or key < best:
            best = key
    return best


def permutation_form(g):
    """``canonical_form(g)`` with each component labelled by
    :func:`permutation_key`."""
    pieces = []
    for block in connected_components(g):
        remap = {v: i for i, v in enumerate(block)}
        edges = [(remap[a], remap[b]) for a, b in g.edges if a in remap]
        pieces.append((len(block), len(edges), permutation_key(len(block), edges)))
    return enumeration._join(pieces)


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_bipartite(p, q):
    return build_graph(p + q, [(a, b) for a in range(p) for b in range(p, p + q)])


def _cube():
    return build_graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def _prism(n):
    """Two n-cycles joined by a perfect matching."""
    rungs = [(i, i + n) for i in range(n)]
    return build_graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                       + [(n + i, n + (i + 1) % n) for i in range(n)] + rungs)


def _moebius_ladder(n):
    """A 2n-cycle with its n long diagonals."""
    return build_graph(2 * n, [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
                       + [(i, i + n) for i in range(n)])


def _star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _to_networkx(g):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


# each symmetric graph next to a non-isomorphic one of the same size and
# valencies, and the star next to another tree on 11 vertices
_SYMMETRIC = {
    "K33": _complete_bipartite(3, 3),
    "prism3": _prism(3),
    "Q3": _cube(),
    "moebius4": _moebius_ladder(4),
    "petersen": _petersen(),
    "prism5": _prism(5),
    "star10": _star(10),
    "spider": build_graph(11, [(0, i) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]),
    "C11": _cycle(11),
    "C11_doubled": build_graph(11, [(i, (i + 1) % 11) for i in range(11)] * 2),
}


class TestAgainstPermutationOracle:
    """The labelling gives the brute-force key on every class the
    permutation search labelled with at most 8 edges but one, which the
    enumerator did not build while the general bound was 7 edges."""

    CHANGED = ((0, 6), (1, 7), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7))
    NEW_KEY = ((0, 6), (1, 7), (2, 4), (2, 6), (3, 5), (3, 6), (4, 7), (5, 7))

    @pytest.mark.parametrize("max_edges, superstable", [(9, True), (8, False)])
    def test_every_built_class(self, max_edges, superstable):
        """Every connected class of the pruned 9-edge build, and every one
        of the full 8-edge build on at most 8 vertices (the old component
        cap), against the oracle."""
        changed = [
            g.edges
            for g in enumeration._connected_classes(max_edges, superstable)
            if g.vertex_count <= 8 and permutation_key(g.vertex_count, g.edges) != g.edges
        ]
        assert changed == ([] if superstable else [self.NEW_KEY])

    def test_every_superstable_class_with_nine_edges(self):
        got = list(enumerate_multigraphs(9, superstable=True))
        assert len(got) == 2835
        for g in got:
            assert permutation_form(g) == g.edges

    def test_the_one_changed_key(self):
        """The leaves of the search are relabelings that keep the refined
        cell order, so the minimal leaf key is at least the oracle's; on
        this 8-vertex unicyclic graph it is larger."""
        g = build_graph(8, list(self.CHANGED))
        assert permutation_key(8, self.CHANGED) == self.CHANGED
        assert canonical_form(g) == self.NEW_KEY > self.CHANGED
        h = build_graph(8, list(self.NEW_KEY))
        assert nx.is_isomorphic(_to_networkx(g), _to_networkx(h))


class TestCanonicalForm:
    def test_relabel_invariance(self, rng):
        for _ in range(30):
            g = random_graph(rng, max_b1=4)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabeled(g, perm))

    def test_distinguishes_non_isomorphic(self):
        # same degree sequence (all vertices valency 2), different graphs
        a = build_graph(2, [(0, 0), (1, 1)])
        b = build_graph(2, [(0, 1), (0, 1)])
        assert canonical_form(a) != canonical_form(b)

    def test_named_graphs_pairwise_distinct(self):
        corpus = [loop_graph(), split_graph(4), tetrahedron(), fat_triangle()]
        keys = {canonical_form(g) for g in corpus}
        assert len(keys) == len(corpus)

    def test_component_too_large(self):
        """A component past the largest tree the enumerator builds,
        MAX_ENUM_EDGES + 1 vertices, is refused, however many small
        components come before it; one of that size is labelled."""
        cap = enumeration.MAX_ENUM_EDGES + 1
        assert cap == 11
        loops = [(v, v) for v in range(1000)]
        big = [(1000 + i, 1000 + (i + 1) % 12) for i in range(12)]
        with pytest.raises(TooLargeError):
            canonical_form(build_graph(1012, loops + big))
        assert len(canonical_form(_cycle(cap))) == cap

    @pytest.mark.parametrize("name", sorted(_SYMMETRIC))
    def test_symmetric_graph_relabel_invariance(self, name, rng):
        g = _SYMMETRIC[name]
        key = canonical_form(g)
        assert len(key) == g.edge_count
        for _ in range(5):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == key

    def test_symmetric_graphs_distinct_iff_not_isomorphic(self):
        names = sorted(_SYMMETRIC)
        for a, b in itertools.combinations(names, 2):
            ga, gb = _SYMMETRIC[a], _SYMMETRIC[b]
            same = canonical_form(ga) == canonical_form(gb)
            assert same == nx.is_isomorphic(_to_networkx(ga), _to_networkx(gb)), (a, b)
            assert not same

    def test_twins_count_parallel_edges(self):
        """Vertices 3 and 4 share the lowest cell and the neighbour set
        {1, 2}, but not its multiplicities, so they are no twins and both
        subtrees are searched: every relabeling gets the one key."""
        g = build_graph(5, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (1, 4), (1, 4), (1, 4),
                            (2, 3), (2, 3), (2, 3), (2, 4)])
        keys = {canonical_form(relabeled(g, p)) for p in itertools.permutations(range(5))}
        assert len(keys) == 1

    def test_many_components(self, rng):
        """A graph of hundreds of components, their vertices interleaved,
        gets the components' keys in (vertex count, edge count, key) order."""
        parts = [random_graph(rng, max_b1=3) for _ in range(150)]
        parts += [loop_graph()] * 400
        n = sum(p.vertex_count for p in parts)
        perm = list(range(n))
        rng.shuffle(perm)
        edges, pieces, offset = [], [], 0
        for p in parts:
            edges += [(perm[a + offset], perm[b + offset]) for a, b in p.edges]
            offset += p.vertex_count
            for block in connected_components(p):
                sub = Multigraph(len(block), tuple(
                    (block.index(a), block.index(b)) for a, b in p.edges if a in block
                ))
                pieces.append((sub.vertex_count, sub.edge_count, canonical_form(sub)))
        g = build_graph(n, [(min(e), max(e)) for e in edges])
        assert canonical_form(g) == enumeration._join(pieces)
        assert canonical_form(g) == permutation_form(g)

    def test_interned_past_the_enumerator_sizes(self, rng):
        """Past the largest offset the enumerator's unions reach,
        2 * MAX_ENUM_EDGES + 2, the key holds the values of a tuple built
        per edge, and each pair as one tuple."""
        loops = canonical_form(build_graph(1000, [(v, v) for v in range(1000)]))
        assert loops == tuple((v, v) for v in range(1000))
        assert loops[0] is canonical_form(loop_graph())[0]
        parts = [random_connected_graph(rng, max_b1=3, max_vertices=6) for _ in range(300)]
        n = sum(p.vertex_count for p in parts)
        assert n > 2 * enumeration.MAX_ENUM_EDGES + 2
        perm = list(range(n))
        rng.shuffle(perm)
        edges, offset = [], 0
        for p in parts:
            edges += [(perm[a + offset], perm[b + offset]) for a, b in p.edges]
            offset += p.vertex_count
        key = canonical_form(build_graph(n, edges))
        pieces = sorted((p.vertex_count, p.edge_count, canonical_form(p))
                        for p in parts)
        expected, offset = [], 0
        for nverts, _, piece in pieces:
            expected += [(a + offset, b + offset) for a, b in piece]
            offset += nverts
        assert key == tuple(expected)
        assert len({id(p) for p in key}) == len(set(key))

    def test_disconnected_order_independent(self):
        # loop + triangle vs triangle + loop under one labeling
        a = build_graph(4, [(0, 0), (1, 2), (2, 3), (1, 3)])
        b = build_graph(4, [(3, 3), (0, 1), (1, 2), (0, 2)])
        assert canonical_form(a) == canonical_form(b)


class TestEnumerate:
    def test_one_edge_connected(self):
        got = list(enumerate_multigraphs(1, connected=True))
        assert len(got) == 2  # single loop and single edge
        assert sorted(g.edges for g in got) == [((0, 0),), ((0, 1),)]

    @pytest.mark.parametrize("max_edges,expected", [(1, 2), (2, 6), (3, 17)])
    def test_connected_counts_match_labeled_oracle(self, max_edges, expected):
        got = list(enumerate_multigraphs(max_edges, connected=True))
        assert len(got) == expected
        assert expected == _labeled_class_count(max_edges, connected=True)

    @pytest.mark.parametrize("max_edges", [2, 3])
    def test_all_counts_match_labeled_oracle(self, max_edges):
        got = list(enumerate_multigraphs(max_edges, connected=False))
        assert len(got) == _labeled_class_count(max_edges, connected=False)

    def test_all_counts_match_multiset_identity(self):
        # every graph is a multiset of connected graphs, so the count of
        # classes with <= 4 edges follows from the connected counts per
        # exact edge number via stars-and-bars
        exact = {}
        prev = 0
        for d in range(1, 5):
            cum = _labeled_class_count(d, connected=True)
            exact[d] = cum - prev
            prev = cum
        total = [1, 0, 0, 0, 0]
        for d, n in exact.items():
            new = [0] * 5
            for e, ways in enumerate(total):
                m = 0
                while ways and e + m * d <= 4:
                    new[e + m * d] += ways * math.comb(n + m - 1, m)
                    m += 1
            total = new
        expected = sum(total[1:])
        got = list(enumerate_multigraphs(4, connected=False))
        assert len(got) == expected

    def test_no_duplicates_and_sorted(self):
        got = list(enumerate_multigraphs(5, connected=True))
        keys = [canonical_form(g) for g in got]
        assert len(set(keys)) == len(keys)

    def test_superstable_filter(self):
        got = list(enumerate_multigraphs(5, connected=True, superstable=True))
        assert all(is_superstable(g) for g in got)
        # and nothing superstable is missed
        everything = enumerate_multigraphs(5, connected=True)
        assert len(got) == sum(1 for g in everything if is_superstable(g))

    def test_bridgeless_filter(self):
        """Bridgeless classes are a filter at the call site: every cycle
        with at most 5 edges is kept and no class with a leaf is."""
        got = [
            g for g in enumerate_multigraphs(5, connected=True) if not separating_edges(g)
        ]
        keys = {g.edges for g in got}
        for n in range(1, 6):
            cycle = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert canonical_form(cycle) in keys
        for g in got:
            val = [0] * g.vertex_count
            for a, b in g.edges:
                val[a] += 1
                val[b] += 1
            assert 1 not in val

    @pytest.mark.parametrize("max_edges", [0, enumeration.MAX_ENUM_EDGES + 1])
    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("superstable", [True, False])
    def test_refused_past_the_bound(self, max_edges, connected, superstable):
        """MAX_ENUM_EDGES bounds the full and the pruned build alike, and a
        bound outside 1..MAX_ENUM_EDGES is refused before anything is built."""
        before = enumeration._connected_classes.cache_info()
        with pytest.raises(TooLargeError):
            list(enumerate_multigraphs(max_edges, connected=connected, superstable=superstable))
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("max_edges", [9, 10])
    @pytest.mark.parametrize("connected", [True, False])
    def test_bridgeless_refused_past_eight_edges(self, max_edges, connected):
        """Bridgeless enumerations of 9 and 10 edges were refused while
        components were capped at 8 vertices.  They are now admitted on the
        call without building anything, the max_edges-cycle they hold is
        labelled, and the refusal comes only past MAX_ENUM_EDGES."""
        before = enumeration._connected_classes.cache_info()
        enumerate_multigraphs(max_edges, connected=connected)
        with pytest.raises(TooLargeError):
            enumerate_multigraphs(enumeration.MAX_ENUM_EDGES + 1, connected=connected)
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        form = Multigraph(max_edges, canonical_form(_cycle(max_edges)))
        assert form.edge_count == max_edges and not separating_edges(form)

    @pytest.mark.parametrize("connected", [True, False])
    def test_eight_edges_refused_before_any_build(self, connected):
        """The 47 trees with 8 edges have 9 vertices, past the old 8-vertex
        cap that refused the full build of 8 edges.  The build is now
        admitted on the call without building anything and returns them,
        and with disconnected classes it holds every multiset of the
        connected classes counted by OEIS A050535."""
        before = enumeration._connected_classes.cache_info()
        it = enumerate_multigraphs(8, connected=connected)
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        got = list(it)
        trees = [g for g in got if g.vertex_count == 9 and count_components(9, g.edges) == 1]
        assert len(trees) == 47
        assert all(g.edge_count == 8 and betti_number(g) == 0 for g in trees)
        exact = dict(enumerate([2, 4, 11, 30, 95, 328, 1211, 4779], start=1))
        if connected:
            assert len(got) == sum(exact.values())
            return
        total = [1] + [0] * 8
        for d, n in exact.items():
            new = [0] * 9
            for e, ways in enumerate(total):
                m = 0
                while ways and e + m * d <= 8:
                    new[e + m * d] += ways * math.comb(n + m - 1, m)
                    m += 1
            total = new
        assert len(got) == sum(total[1:])

    def test_refused_on_the_call(self):
        """The refusal comes from the call itself, not the first next()."""
        before = enumeration._connected_classes.cache_info()
        with pytest.raises(TooLargeError):
            enumerate_multigraphs(enumeration.MAX_ENUM_EDGES + 1)
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_non_integer_bound_refused_on_the_call(self):
        """A bound that is not an int, 2.0 included, is refused on the call
        by the enumerator and the sweep alike, before anything is built."""
        before = enumeration._connected_classes.cache_info()
        for call in (
            lambda: enumerate_multigraphs(9.5),
            lambda: enumerate_multigraphs(2.0),
            lambda: sweep_theorems(3.5),
        ):
            with pytest.raises(TooLargeError):
                call()
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_seven_edges_hold_every_tree(self):
        """The classes on 8 vertices with at most 7 edges are the 23 trees
        with 7 edges."""
        got = [g for g in enumerate_multigraphs(7, connected=True) if g.vertex_count == 8]
        assert len(got) == 23

    def test_eight_edges_match_oeis(self):
        """The full build of 8 edges, the largest tier-1 runs, holds the
        connected multigraphs with loops on 1..8 edges counted by OEIS
        A050535, the 47 trees on 9 vertices among them."""
        got = list(enumerate_multigraphs(8, connected=True))
        per_edges = [sum(g.edge_count == d for g in got) for d in range(1, 9)]
        assert per_edges == [2, 4, 11, 30, 95, 328, 1211, 4779]
        assert sum(g.vertex_count == 9 for g in got) == 47

    def test_bridgeless_bounds_still_answered(self):
        seven = [
            g for g in enumerate_multigraphs(7, connected=True) if not separating_edges(g)
        ]
        cycle = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert canonical_form(cycle) in {g.edges for g in seven}
        pruned = [
            g for g in enumerate_multigraphs(9, superstable=True) if not separating_edges(g)
        ]
        assert len(pruned) == 1495

    def test_betti_two_superstable_bridgeless(self):
        got = [
            g
            for g in enumerate_multigraphs(6, connected=True, superstable=True)
            if not separating_edges(g) and betti_number(g) == 2
        ]
        # exactly the two-loop wedge and the triple edge
        assert sorted((g.vertex_count, g.edge_count) for g in got) == [
            (1, 2),
            (2, 3),
        ]

    def test_disconnected_included(self):
        got = list(enumerate_multigraphs(2, connected=False))
        assert any(len(connected_components(g)) == 2 for g in got)

    @pytest.mark.parametrize("connected", [True, False])
    def test_sort_key_is_the_canonical_key(self, connected):
        for superstable in (False, True):
            got = list(
                enumerate_multigraphs(6, connected=connected, superstable=superstable)
            )
            for g in got:
                # the components of g are contiguous blocks in canonical form
                parts = []
                for block in connected_components(g):
                    lo = block[0]
                    edges = tuple(
                        (a - lo, b - lo) for a, b in g.edges if a in block
                    )
                    parts.append(Multigraph(len(block), edges))
                assert enumeration._sort_key(parts) == (
                    g.vertex_count,
                    g.edge_count,
                    canonical_form(g),
                )
            keys = [
                (g.vertex_count, g.edge_count, canonical_form(g))
                for g in got
            ]
            assert keys == sorted(set(keys))

    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("max_edges, superstable", [(6, False), (9, True)])
    def test_every_class_is_its_canonical_form(self, max_edges, superstable, connected):
        """Each class comes labelled as its canonical form, so a caller can
        read its key off ``g.edges``; the order is the strictly increasing
        (vertex count, edge count, canonical key)."""
        got = list(
            enumerate_multigraphs(max_edges, connected=connected, superstable=superstable)
        )
        for g in got:
            assert g.edges == canonical_form(g)
        keys = [(g.vertex_count, g.edge_count, g.edges) for g in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def _deficit_oracle(g):
    val = [0] * g.vertex_count
    for a, b in g.edges:
        val[a] += 1
        val[b] += 1
    if g.edges == ((0, 0),):
        return 0
    return sum(max(0, 3 - d) for d in val)


def _every_child(level):
    """Every graph one edge larger than a class of ``level`` (key -> vertex
    count), built: an edge between two of its vertices, a loop, or a
    pendant edge to a new vertex."""
    for key, n in level.items():
        for u in range(n):
            for v in range(u, n + 1):
                yield Multigraph(max(n, v + 1), key + ((u, v),))


class TestDeficitPruning:
    @pytest.mark.parametrize("max_edges", range(1, 9))
    @pytest.mark.parametrize("connected", [True, False])
    def test_pruned_equals_filtered_full_enumeration(self, max_edges, connected):
        pruned = list(
            enumerate_multigraphs(max_edges, connected=connected, superstable=True)
        )
        full = [
            g
            for g in enumerate_multigraphs(max_edges, connected=connected)
            if is_superstable(g)
        ]
        assert pruned == full

    def test_nine_edge_classes_are_superstable(self):
        """The sweep reads the theorem rules without re-checking that its
        classes are superstable, so every class of its largest tier-1 bound
        must be, disjoint unions included."""
        classes = list(enumerate_multigraphs(9, superstable=True))
        assert len(classes) == 2835
        assert all(is_superstable(g) for g in classes)

    @pytest.mark.parametrize("pruned_first", [True, False])
    def test_cache_is_keyed_on_superstable(self, pruned_first):
        """The pruned and the full build of one bound are cached apart,
        whichever runs first.  The candidate counts tell the two cache
        entries apart even when both are already filled: a cache that
        ignored ``superstable`` would return the same tuple for both."""
        calls = {
            "pruned": lambda: enumerate_multigraphs(7, superstable=True),
            "full": lambda: enumerate_multigraphs(7, connected=True),
        }
        order = ["pruned", "full"] if pruned_first else ["full", "pruned"]
        counts = {name: len(list(calls[name]())) for name in order}
        assert counts == {"pruned": 326, "full": 1681}
        candidates = [len(enumeration._connected_classes(7, s)) for s in (True, False)]
        assert candidates == [329, 1681]

    def test_grow_equals_brute_force(self):
        """On every level of the 7-edge general build and for every budget,
        ``_grow`` keeps exactly what building every child, filtering it by
        the oracle deficit and canonicalizing it keeps."""
        level = {(): 1}
        for _ in range(7):
            children = [
                (_deficit_oracle(g), canonical_form(g), g.vertex_count)
                for g in _every_child(level)
            ]
            for budget in [None, *range(7)]:
                expected = {}
                for deficit, key, n in children:
                    if budget is None or deficit <= budget:
                        expected.setdefault(key, n)
                assert enumeration._grow(level, budget) == expected, budget
            level = enumeration._grow(level, None)
        assert len(level) == 1211  # connected classes with exactly 7 edges, A050535

    def test_labels_only_kept_children_and_interns_each_class_once(self, monkeypatch):
        """The pruned 9-edge build labels the 16,074 children its budgets
        keep, none of those they drop, and interns one key per class."""
        calls = dict.fromkeys(["_canonical_connected", "_interned"], 0)
        for name in calls:
            def counted(*args, name=name, real=getattr(enumeration, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(enumeration, name, counted)
        enumeration._connected_classes.cache_clear()
        classes = enumeration._connected_classes(9, True)
        assert calls == {"_canonical_connected": 16074, "_interned": len(classes)}
        assert len(classes) == 3460

    def test_deficit(self):
        for g in (loop_graph(), tetrahedron(), fat_triangle(), split_graph(3)):
            assert enumeration._deficit(g.vertex_count, g.edges) == 0
        assert enumeration._deficit(2, ((0, 1),)) == 4
        assert enumeration._deficit(1, ((0, 0), (0, 0))) == 0
        assert enumeration._deficit(2, ((0, 0), (0, 1))) == 2

    def test_parent_lemma(self, rng):
        """Every connected graph with at least two edges has a connected
        parent, one edge smaller, with at most as many vertices and a deficit
        at most 2 larger, which the augmentation step grows back into it."""
        checked = 0
        while checked < 300:
            g = random_connected_graph(rng, max_b1=4, max_vertices=6)
            if g.edge_count < 2:
                continue
            checked += 1
            assert enumeration._deficit(g.vertex_count, g.edges) == _deficit_oracle(g)
            val = [0] * g.vertex_count
            for a, b in g.edges:
                val[a] += 1
                val[b] += 1
            bridges = set(bridge_oracle(g))
            parents = []
            for eid, (a, b) in enumerate(g.edges):
                rest = g.edges[:eid] + g.edges[eid + 1:]
                if eid not in bridges:
                    parents.append(Multigraph(g.vertex_count, rest))
                elif 1 in (val[a], val[b]):
                    leaf = b if val[b] == 1 else a
                    shift = [v - (v > leaf) for v in range(g.vertex_count)]
                    edges = tuple((shift[x], shift[y]) for x, y in rest)
                    parents.append(Multigraph(g.vertex_count - 1, edges))
            good = [
                h
                for h in parents
                if count_components(h.vertex_count, h.edges) == 1
                and _deficit_oracle(h) <= _deficit_oracle(g) + 2
            ]
            assert good
            h = good[0]
            assert h.vertex_count <= g.vertex_count
            grown = enumeration._grow(
                {canonical_form(h): h.vertex_count}, None
            )
            assert canonical_form(g) in grown


class TestSweeps:
    def test_sweep2_one_edge(self):
        report = sweep_theorems(1)
        assert report.graphs_examined == 1  # only the single loop
        assert report.hypothesis_exercised[0] == 1
        assert report.violations[0] == ()

    def test_sweep2_six_edges(self):
        report = sweep_theorems(6)
        assert report.violations[0] == ()
        assert report.hypothesis_exercised[0] >= 3  # loop, tetrahedron, splits
        assert report.graphs_examined > 100

    def test_sweep3_six_edges(self):
        report = sweep_theorems(6)
        assert report.violations[1] == ()
        assert report.hypothesis_exercised[1] == 1  # only the triple-digon graph
        ft = fat_triangle()
        assert cyclic_betti_set(ft) == {0, 1, 2, 4}

    def test_sweep_counts_add_up(self, capsys):
        """The report's counts are those ``verify`` prints: per theorem, the
        vacuous classes are the examined ones whose hypothesis failed."""
        report = sweep_theorems(5)
        assert report.elapsed >= 0.0
        assert main(["--json", "verify", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        for i, tag in enumerate(("theorem2", "theorem3")):
            r = data[tag]
            assert r["graphs_examined"] == report.graphs_examined
            assert r["hypothesis_exercised"] == report.hypothesis_exercised[i]
            assert r["vacuous"] == r["graphs_examined"] - r["hypothesis_exercised"]

    @pytest.mark.parametrize("max_edges", [6, 8, 9])
    def test_one_pass_equals_separate_sweeps(self, max_edges):
        """Both halves of the one pass's report equal the sweeps made
        separately here: the theorem rules applied to an independent B (the
        oracle basis in counter order, each set's b1 by a dict union-find)
        and the class from classify; each class's verdicts, witnesses
        included, too, and each violation's B is the oracle's.  At 9 edges
        K_{3,3} violates theorem 2."""
        classes = list(enumerate_multigraphs(max_edges, superstable=True))
        report = sweep_theorems(max_edges)
        verdicts: tuple = ([], [])
        betti_sets = []
        for g in classes:
            sets = counter_order_oracle(cycle_basis_oracle(g)[1])
            first = {}
            for bits in sets:
                first.setdefault(dict_union_find_betti(g, bits), bits)
            betti_sets.append(frozenset(first))
            cls = classify(g)

            def vacuous(m):
                witness = EdgeSubset(first[m], g.edge_count) if m in first else None
                return Verdict(True, cls, witness=witness)

            if 2 in first:
                verdicts[0].append(vacuous(2))
            else:
                ok = cls in ("split", "loop", "tetrahedron")
                verdicts[0].append(Verdict(ok, cls, hypothesis_exercised=True))
            if 3 in first or max(first) <= 3:
                verdicts[1].append(vacuous(3))
            else:
                verdicts[1].append(Verdict(cls == "fat_triangle", cls, hypothesis_exercised=True))
            assert check_theorems(g) == (verdicts[0][-1], verdicts[1][-1])
        exercised = tuple(sum(v.hypothesis_exercised for v in vs) for vs in verdicts)
        violations = tuple(
            tuple(
                (canonical_form(g), b, v)
                for g, b, v in zip(classes, betti_sets, vs)
                if not v.holds
            )
            for vs in verdicts
        )
        assert (report.graphs_examined, report.hypothesis_exercised, report.violations) == (
            len(classes),
            exercised,
            violations,
        )
        assert len(violations[0]) == (max_edges >= 9)

    @pytest.mark.parametrize("max_edges", [0, enumeration.MAX_ENUM_EDGES + 1])
    def test_sweep_admits_the_enumeration_bound(self, max_edges):
        with pytest.raises(TooLargeError):
            sweep_theorems(max_edges)


def _automorphism_order(g):
    """|Aut G| counting half-edges: the vertex permutations that keep every
    edge multiplicity m_uv and loop count l_v, by brute force, times
    prod m_uv! (u < v) for the parallel edges and prod l_v! 2^l_v for the
    loops, which may also be permuted and reversed."""
    n = g.vertex_count
    mult = collections.Counter(g.edges)
    vertex_maps = sum(
        all(mult[min(p[a], p[b]), max(p[a], p[b])] == m for (a, b), m in mult.items())
        for p in itertools.permutations(range(n))
    )
    edge_maps = 1
    for (a, b), m in mult.items():
        edge_maps *= math.factorial(m) * (2 ** m if a == b else 1)
    return vertex_maps * edge_maps


class TestSuperstableCensus:
    """The 9-edge superstable build holds every connected superstable class
    of b1 = 2, 3 and 4, which have at most 3 b1 - 3 edges."""

    @staticmethod
    def _by_betti():
        classes = collections.defaultdict(list)
        for g in enumerate_multigraphs(9, connected=True, superstable=True):
            classes[betti_number(g)].append(g)
        return classes

    def test_mass_matches_wick(self):
        """The sum of 1/|Aut| over each b1's classes equals the mass from
        Wick's theorem, which builds no graph."""
        classes = self._by_betti()
        for b1, want in ((2, Fraction(1, 3)), (3, Fraction(13, 12)), (4, Fraction(1661, 240))):
            assert wick_mass(b1) == want
            assert sum(Fraction(1, _automorphism_order(g)) for g in classes[b1]) == want

    def test_census_of_cyclic_betti_sets(self):
        """The class count of each realized B at b1 <= 4, the baseline of a
        census complete by genus."""
        census = {
            b1: collections.Counter(tuple(sorted(cyclic_betti_set(g))) for g in graphs)
            for b1, graphs in self._by_betti().items()
            if 2 <= b1 <= 4
        }
        assert census == {
            2: {(0, 1): 1, (0, 1, 2): 2},
            3: {(0, 1): 1, (0, 1, 2): 6, (0, 1, 2, 3): 7, (0, 1, 3): 1},
            4: {
                (0, 1): 1,
                (0, 1, 2): 18,
                (0, 1, 2, 3): 53,
                (0, 1, 2, 3, 4): 37,
                (0, 1, 2, 4): 1,
                (0, 1, 3): 1,
            },
        }
        assert {b1: sum(c.values()) for b1, c in census.items()} == {2: 3, 3: 15, 4: 111}
