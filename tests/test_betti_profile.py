"""The one-pass b1 kernel: betti_profile, the counter-order enumeration it
walks, and the theorem witnesses and spin numerics read off it."""

from __future__ import annotations

import random
import tracemalloc

import pytest

import spincomb.cycles as cycles
import spincomb.spin as spin
from conftest import (
    chunk_table_bettis,
    count_components,
    counter_order_oracle,
    cycle_graph,
    dict_union_find_betti,
    fat_triangle,
    loop_graph,
    path_graph,
    path_or_cycle,
    random_connected_graph,
    random_cubic_graph,
    random_graph,
    random_multigraph,
    random_tree,
    split_graph,
    subdivided,
    subgraph_betti_oracle,
    tetrahedron,
    with_pendant_trees,
)
from spincomb import (
    CurveDualGraph,
    EdgeSubset,
    Multigraph,
    betti_profile,
    build_graph,
    check_corollary_final,
    check_theorems,
    connected_components,
    cycle_basis,
    cyclic_betti_set,
    cyclic_sets,
    even_set_supports,
    even_sets,
    separating_edges,
    spin_report,
    subset_betti,
    superstable_reduction,
    support_description,
)
from spincomb.errors import CapExceededError, PreconditionFailedError, VanishingComponentError
from spincomb.graphs import _smooth

K4_DOUBLED = build_graph(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
# K4 and the fat triangle joined by a path of three bridges, listed between
# them: the edges on cycles are 0-5 and 9-14, across chunk boundaries
DUMBBELL = build_graph(
    9,
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]
    + [(6, 7), (6, 7), (6, 8), (6, 8), (7, 8), (7, 8)],
)


def _oracle_profile(g):
    """b1 -> (count, first set in counter order), from the flat decode and
    the dict union-find."""
    out = {}
    basis = [v.bits for v in cycle_basis(g).basis_vectors]
    for bits in counter_order_oracle(basis):
        n1 = dict_union_find_betti(g, bits)
        assert n1 == subgraph_betti_oracle(g, bits)
        count, first = out.get(n1, (0, bits))
        out[n1] = (count + 1, first)
    return out


def _corpus():
    rng = random.Random(31)
    graphs = [loop_graph(), split_graph(7), tetrahedron(), fat_triangle(), K4_DOUBLED, K33]
    graphs += [DUMBBELL]
    # b1 = 0: trees and forests, with edge counts on both sides of a chunk
    graphs += [path_graph(n + 1) for n in (5, 6, 7, 12, 13)]
    graphs += [random_tree(rng, max_vertices=8) for _ in range(5)]
    for edge_count in (1, 5, 6, 7, 12, 13):
        graphs += [random_multigraph(rng, edge_count) for _ in range(12)]
    graphs += [random_graph(rng, max_b1=6) for _ in range(20)]
    return graphs


def _bridge_before_cycle_edge(g):
    """An edge on no cycle comes before an edge on one, so the cycle-space
    support is not a prefix of the edges."""
    bridges = set(separating_edges(g).indices())
    return any(
        e in bridges and f not in bridges
        for e in range(g.edge_count)
        for f in range(e + 1, g.edge_count)
    )


class TestBettiProfile:
    def test_matches_oracle_histogram_and_witness(self):
        for g in _corpus():
            profile = betti_profile(g)
            want = _oracle_profile(g)
            assert list(profile) == sorted(want)
            assert {m: (c, w.bits) for m, (c, w) in profile.items()} == want
            assert all(w.width == g.edge_count for _, w in profile.values())

    def test_corpus_covers_the_edge_cases(self):
        graphs = _corpus()
        counts = {g.edge_count for g in graphs}
        assert {5, 6, 7, 12, 13} <= counts
        assert any(a == b for g in graphs for a, b in g.edges)  # loops
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)  # parallels
        assert any(len(cycle_basis(g).basis_vectors) == 0 for g in graphs)
        assert any(len(connected_components(g)) > 1 for g in graphs)
        assert any(_bridge_before_cycle_edge(g) for g in graphs)

    def test_empty_graph(self):
        profile = betti_profile(Multigraph(0, ()))
        assert list(profile) == [0]
        assert profile[0][0] == 1 and profile[0][1].bits == 0


class TestCounterOrder:
    def test_cyclic_sets_in_counter_order(self):
        for g in _corpus():
            basis = [v.bits for v in cycle_basis(g).basis_vectors]
            assert [s.bits for s in cyclic_sets(g)] == counter_order_oracle(basis)


class TestCap:
    def test_b1_31_refused_before_enumerating(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("a cyclic set was visited")

        monkeypatch.setattr(cycles, "_levels", enumerated)
        monkeypatch.setattr(cycles, "_walk", enumerated)
        g = split_graph(32)  # b1 = 31, superstable
        calls = [
            lambda: betti_profile(g),
            lambda: cyclic_betti_set(g),
            lambda: spin_report(CurveDualGraph(g, (0, 0))),
            lambda: check_theorems(g),
            lambda: check_corollary_final(CurveDualGraph(g, (0, 0))),
            lambda: list(cyclic_sets(g)),
            lambda: list(even_sets(CurveDualGraph(g, (0, 0)))),
        ]
        for call in calls:
            with pytest.raises(CapExceededError) as exc:
                call()
            assert exc.value.betti == 31

    def test_refused_on_the_call(self):
        """The iterators refuse on the call itself, not on the first next()."""
        g = split_graph(32)  # b1 = 31
        x = CurveDualGraph(g, (0, 0))
        for call in (cyclic_sets, even_sets, even_set_supports):
            with pytest.raises(CapExceededError) as exc:
                call(g if call is cyclic_sets else x)
            assert exc.value.betti == 31

    def test_explicit_cap(self, monkeypatch):
        """The cap is read from the module constant on every call."""
        monkeypatch.setattr(cycles, "ENUMERATION_CAP", 4)
        with pytest.raises(CapExceededError):
            betti_profile(split_graph(6))
        assert list(betti_profile(split_graph(5))) == [0, 1, 3]


def _first_with_betti(g, target):
    basis = [v.bits for v in cycle_basis(g).basis_vectors]
    for bits in counter_order_oracle(basis):
        if subgraph_betti_oracle(g, bits) == target:
            return bits
    return None


def _random_superstable(rng):
    while True:
        g = random_connected_graph(rng, max_b1=6, max_vertices=7)
        try:
            return superstable_reduction(g)
        except VanishingComponentError:
            continue


def _witness_bits(v):
    return None if v.witness is None else v.witness.bits


class TestTheoremWitnesses:
    # (graph, theorem 2 (holds, exercised, witness bits), theorem 3 (...))
    NAMED = [
        (loop_graph(), (True, True, None), (True, False, None)),
        (tetrahedron(), (True, True, None), (True, False, None)),
        (fat_triangle(), (True, False, 15), (True, True, None)),
        (split_graph(6), (True, True, None), (True, False, 15)),
        (split_graph(3), (True, True, None), (True, False, None)),
        (K4_DOUBLED, (True, False, 79), (True, False, 63)),
        (K33, (False, True, None), (True, False, None)),
    ]

    def test_named_graphs(self):
        for g, want2, want3 in self.NAMED:
            for v, want in zip(check_theorems(g), (want2, want3)):
                assert (v.holds, v.hypothesis_exercised, _witness_bits(v)) == want

    def test_random_superstable_witnesses_are_first_in_counter_order(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = _random_superstable(rng)
            v2, v3 = check_theorems(g)
            want2 = _first_with_betti(g, 2)
            assert _witness_bits(v2) == want2
            assert v2.hypothesis_exercised == (want2 is None)
            if not v3.hypothesis_exercised:
                assert _witness_bits(v3) == _first_with_betti(g, 3)

    def test_corollary_final_agrees_with_both_theorems(self):
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            g = _random_superstable(rng)
            x = CurveDualGraph(g, tuple(rng.choice((0, 0, 1)) for _ in range(g.vertex_count)))
            try:
                v = check_corollary_final(x)
            except PreconditionFailedError:
                continue
            v2, v3 = check_theorems(g)
            assert v.holds == (v2.holds and v3.holds)
            assert v.hypothesis_exercised == (v2.hypothesis_exercised or v3.hypothesis_exercised)
            assert v.classification == v2.classification and v.witness is None
            checked += 1


def test_even_set_supports_match_support_description(rng):
    for _ in range(20):
        g = random_connected_graph(rng, max_b1=6, max_vertices=6)
        x = CurveDualGraph(g, tuple(rng.randint(0, 2) for _ in range(g.vertex_count)))
        assert list(even_set_supports(x)) == [support_description(x, d) for d in even_sets(x)]


# ---------------------------------------------------------------- series classes


def _joined(*graphs):
    """Disjoint union, then the first vertex of each part joined to the first
    vertex of the next by a bridge."""
    edges, starts, offset = [], [], 0
    for g in graphs:
        edges += [(a + offset, b + offset) for a, b in g.edges]
        starts.append(offset)
        offset += g.vertex_count
    edges += list(zip(starts, starts[1:]))
    return build_graph(offset, edges)


def _series_corpus():
    """Graphs from the conftest builders, each edge subdivided 0-3 times."""
    rng = random.Random(53)
    bases = [loop_graph(), split_graph(2), split_graph(4), tetrahedron(), fat_triangle()]
    bases += [K33, DUMBBELL, cycle_graph(3)]
    # a cycle hung on a bridge, before and after the block in edge order
    bases += [_joined(cycle_graph(3), tetrahedron()), _joined(tetrahedron(), cycle_graph(4))]
    # bridges carrying pendant trees and loops
    bases += [_joined(fat_triangle(), random_tree(rng), loop_graph(), split_graph(3))]
    bases += [_joined(loop_graph(), loop_graph()), _joined(split_graph(2), path_graph(3))]
    bases += [random_multigraph(rng, n) for n in (3, 5, 7, 8) for _ in range(6)]
    bases += [random_graph(rng, max_b1=4) for _ in range(12)]
    bases += [random_connected_graph(rng, max_b1=5, max_vertices=6) for _ in range(12)]
    graphs = [subdivided(g, rng) for g in bases for _ in range(2)]
    graphs += [cycle_graph(5), build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 2)])]
    # no vertex joins two cycle edges, with and without bridges
    graphs += [tetrahedron(), K33, DUMBBELL, _joined(fat_triangle(), loop_graph())]
    return graphs


def _classes(g):
    """The basis and its support, and the core's vertex count and edges,
    the edge mask of each core edge's class (from the kernel's map) and the
    basis in class bits."""
    basis = [v.bits for v in cycle_basis(g).basis_vectors]
    support = 0
    for v in basis:
        support |= v
    n, pairs, packed, _ = cycles._class_basis(g, capped=True)
    masks = [0] * len(pairs)
    for eid, c in enumerate(_smooth(g)[2]):
        if c >= 0:
            masks[c] |= 1 << eid
    return basis, support, (n, pairs, masks, packed)


class TestSeriesClasses:
    def test_profile_matches_oracle(self):
        for g in _series_corpus():
            want = _oracle_profile(g)
            assert {m: (c, w.bits) for m, (c, w) in betti_profile(g).items()} == want

    def test_classes_partition_the_support_and_keep_b1(self):
        for g in _series_corpus():
            basis, support, (n, pairs, masks, packed) = _classes(g)
            covered = sum(masks)
            assert covered & support == support
            # disjoint; a class lies on some cycle or is made of bridges
            assert sum(bin(m).count("1") for m in masks) == bin(covered).count("1")
            assert all(m & support in (0, m) for m in masks)
            assert all(v & m in (0, m) for v in basis for m in masks)
            # lifted through the class masks, the basis is cycle_basis(g)'s
            assert [sum(m for i, m in enumerate(masks) if v >> i & 1) for v in packed] == basis
            assert cycles._class_basis(g, capped=True)[3] == basis
            assert all(0 <= a < n and 0 <= b < n for a, b in pairs)
            # the core has the b1 of the support
            whole = EdgeSubset(support, g.edge_count)
            b1 = len(pairs) - n + count_components(n, pairs)
            assert b1 == subset_betti(g, whole) == len(packed)

    def test_corpus_takes_the_series_path(self):
        graphs = _series_corpus()
        classes = [_classes(g) for g in graphs]
        supports = [(support, masks) for _, support, (_, _, masks, _) in classes]
        smoothed = [
            sum(1 for m in masks if m & support) < bin(support).count("1")
            for support, masks in supports
        ]
        assert sum(smoothed) > len(graphs) // 2
        # bridges carried as a core edge of their own
        assert any(m & support == 0 for support, masks in supports for m in masks)
        assert any(a == b for g in graphs for a, b in g.edges)  # loops
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)  # parallels
        assert any(separating_edges(g) for g in graphs)  # bridges
        # a whole cycle of valency-2 vertices becomes a loop in a loopless graph
        assert any(
            any(a == b for a, b in pairs) and not any(a == b for a, b in g.edges)
            for g, (_, _, (_, pairs, _, _)) in zip(graphs, classes)
        )

    def test_classes_are_maximal_chains(self):
        """On the smoothing path no class vertex is left whose pairs are
        exactly two non-loop pairs, or one pair, and each class is a path or
        a cycle of g whose interior vertices have valency 2 among the edges
        that the classes cover."""
        graphs = _series_corpus()
        smoothed = 0
        for g in graphs:
            _, _, (n, pairs, masks, _) = _classes(g)
            if n == g.vertex_count:
                continue  # nothing smoothed: every edge is its own class
            smoothed += 1
            val, loop = [0] * n, [False] * n
            for a, b in pairs:
                val[a] += 1
                val[b] += 1
                loop[a] |= a == b
            assert not any(d == 1 or d == 2 and not loop[v] for v, d in enumerate(val))
            covered = sum(masks)
            on_support = [0] * g.vertex_count
            for eid, (a, b) in enumerate(g.edges):
                if covered >> eid & 1:
                    on_support[a] += 1
                    on_support[b] += 1
            for (a, b), m in zip(pairs, masks):
                shape, ends = path_or_cycle(g, m)
                assert shape == ("cycle" if a == b else "path")
                inside = {v for eid, e in enumerate(g.edges) if m >> eid & 1 for v in e}
                # a cycle keeps at most one vertex of other support edges
                interior = inside - set(ends) if shape == "path" else inside
                outside = [v for v in interior if on_support[v] != 2]
                assert len(outside) <= (shape == "cycle")
        assert smoothed > len(graphs) // 2

    def test_union_find_holds_only_cycle_vertices(self):
        """Pendant trees on a cubic graph: the trees are dropped and nothing
        else smooths, so the classes are labelled over the vertices on some
        cycle only, one class per cycle edge, and the profile stays the
        oracle's."""
        rng = random.Random(67)
        pendant = 0
        for _ in range(20):
            cubic = random_cubic_graph(rng, rng.randint(3, 7))
            g = with_pendant_trees(cubic, rng)
            basis, support, (n, pairs, masks, _) = _classes(g)
            on_cycles = {v for eid, e in enumerate(g.edges) if support >> eid & 1 for v in e}
            assert n == len(on_cycles) == cubic.vertex_count
            assert len(masks) == bin(support).count("1")  # one class per cycle edge
            assert all(m & (m - 1) == 0 for m in masks)
            assert {m: (c, w.bits) for m, (c, w) in betti_profile(g).items()} == _oracle_profile(g)
            pendant += len(on_cycles) < g.vertex_count
        assert pendant > 10

    def test_chain_becomes_one_pair(self):
        # K4 with edge 0-1 subdivided twice: 8 cycle edges, 6 classes on 4 vertices
        g = build_graph(6, [(0, 4), (4, 5), (1, 5), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        n, pairs, masks, _ = _classes(g)[2]
        assert n == 4 and len(pairs) == 6
        assert 0b111 in masks

    def test_even_set_supports_read_the_kernel(self, monkeypatch):
        rng = random.Random(59)
        curves = []
        for g in _series_corpus():
            if len(connected_components(g)) == 1:
                marks = tuple(rng.randint(0, 2) for _ in range(g.vertex_count))
                curves.append(CurveDualGraph(g, marks))
        assert len(curves) > 30
        got = {}

        def refused(*args):
            raise AssertionError("subset_betti called once per set")

        monkeypatch.setattr(spin, "subset_betti", refused)
        for x in curves:
            got[x] = list(even_set_supports(x))
        monkeypatch.undo()
        for x in curves:
            assert [d.even_set for d in got[x]] == list(cyclic_sets(x.graph))
            for d in got[x]:
                assert d.gluing_dimension == subset_betti(x.graph, d.even_set)
                assert d.gluing_dimension == dict_union_find_betti(x.graph, d.even_set.bits)
            assert got[x] == [support_description(x, d) for d in even_sets(x)]


# ---------------------------------------------------------------- coefficient walk


def _walk_stream(g):
    return list(cycles._betti_pass(g)[1])


def _chorded_cycle():
    """A 12-cycle listed first, then four chords: basis[0] is the whole
    cycle, so level 0 holds its eight arcs and every other level one chord."""
    n = 12
    chords = [(0, 6), (2, 8), (3, 9), (5, 11)]
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + chords)


class TestCoefficientWalk:
    """The walk's stream against the chunk-table loop it replaced, set by set."""

    def test_corpora(self):
        for g in _corpus() + _series_corpus():
            assert _walk_stream(g) == chunk_table_bettis(g)

    def test_split_graphs_past_one_subtree(self):
        assert cycles._SUBTREE < 14
        for k in range(1, 16):  # b1 = 0 .. 14
            g = split_graph(k)
            assert _walk_stream(g) == chunk_table_bettis(g)

    def test_every_subtree_depth(self, monkeypatch):
        """Shallow subtrees put most basis vectors above them, each subtree
        starting from a fresh forest; the stream stays the same."""
        rng = random.Random(71)
        graphs = _corpus() + [random_cubic_graph(rng, b1) for b1 in range(3, 9)]
        want = [chunk_table_bettis(g) for g in graphs]
        for depth in (1, 2, 5):
            monkeypatch.setattr(cycles, "_SUBTREE", depth)
            assert [_walk_stream(g) for g in graphs] == want

    def test_random_cubic_graphs(self):
        rng = random.Random(61)
        for b1 in range(3, 13):
            for _ in range(2):
                g = random_cubic_graph(rng, b1)
                assert cycle_basis(g).dimension == b1
                assert _walk_stream(g) == chunk_table_bettis(g)

    def test_level_zero_holds_most_classes(self):
        g = _chorded_cycle()
        _, pairs, packed, _ = cycles._class_basis(g, capped=True)
        levels = cycles._levels(pairs, packed)
        assert len(levels[0]) > len(pairs) // 2
        assert _walk_stream(g) == chunk_table_bettis(g)

    def test_disconnected_and_tiny_cycle_spaces(self):
        rng = random.Random(67)
        graphs = [Multigraph(0, ()), Multigraph(1, ()), path_graph(2), path_graph(9)]
        graphs += [random_tree(rng, max_vertices=8) for _ in range(4)]  # b1 = 0
        graphs += [loop_graph(), split_graph(2), cycle_graph(7)]  # b1 = 1
        graphs += [_joined(cycle_graph(4), path_graph(4)), _joined(random_tree(rng), loop_graph())]
        # several components, some of them trees
        graphs += [random_graph(rng, max_b1=4) for _ in range(30)]
        graphs += [build_graph(5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4), (4, 4)])]
        b1s = [cycle_basis(g).dimension for g in graphs]
        parts = [len(connected_components(g)) for g in graphs]
        assert {0, 1} <= set(b1s)
        assert any(c > 1 and b1 > 1 for c, b1 in zip(parts, b1s))
        for g in graphs:
            assert _walk_stream(g) == chunk_table_bettis(g)

    def test_stream_holds_one_subtree_at_a_time(self):
        """b1 = 19: the 524,288 values as one list would take 4 MB."""
        g = split_graph(20)
        tracemalloc.start()
        try:
            profile = betti_profile(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(count for count, _ in profile.values()) == 1 << 19
        assert peak < 1 << 20
