"""The one-pass b1 kernel: betti_profile, the counter-order enumeration it
walks, and the theorem witnesses and spin numerics read off it."""

from __future__ import annotations

import random

import pytest

import spincomb.cycles as cycles
from conftest import (
    counter_order_oracle,
    dict_union_find_betti,
    fat_triangle,
    loop_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_multigraph,
    random_tree,
    split_graph,
    subgraph_betti_oracle,
    tetrahedron,
)
from spincomb import (
    CurveDualGraph,
    Multigraph,
    betti_profile,
    build_graph,
    check_corollary_final,
    check_theorem2,
    check_theorem3,
    connected_components,
    cycle_basis,
    cyclic_betti_set,
    cyclic_sets,
    even_set_supports,
    even_sets,
    separating_edges,
    spin_report,
    superstable_reduction,
    support_description,
)
from spincomb.errors import CapExceededError, PreconditionFailedError, VanishingComponentError

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

        monkeypatch.setattr(cycles, "_chunk_tables", enumerated)
        monkeypatch.setattr(cycles, "_closing_edges", enumerated)
        g = split_graph(32)  # b1 = 31, superstable
        calls = [
            lambda: betti_profile(g),
            lambda: cyclic_betti_set(g),
            lambda: spin_report(CurveDualGraph(g, (0, 0))),
            lambda: check_theorem2(g),
            lambda: check_theorem3(g),
            lambda: check_corollary_final(CurveDualGraph(g, (0, 0))),
        ]
        for call in calls:
            with pytest.raises(CapExceededError) as exc:
                call()
            assert exc.value.betti == 31
        with pytest.raises(CapExceededError):
            cycles._cyclic_bits(g)  # raises on the call, not on first use

    def test_explicit_cap(self):
        with pytest.raises(CapExceededError):
            betti_profile(split_graph(6), cap=4)
        assert list(betti_profile(split_graph(5), cap=4)) == [0, 1, 3]


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
            for v, want in ((check_theorem2(g), want2), (check_theorem3(g), want3)):
                assert (v.holds, v.hypothesis_exercised, _witness_bits(v)) == want

    def test_random_superstable_witnesses_are_first_in_counter_order(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = _random_superstable(rng)
            v2, v3 = check_theorem2(g), check_theorem3(g)
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
            v2, v3 = check_theorem2(g), check_theorem3(g)
            assert v.holds == (v2.holds and v3.holds)
            assert v.hypothesis_exercised == (v2.hypothesis_exercised or v3.hypothesis_exercised)
            assert v.classification == v2.classification and v.witness is None
            checked += 1


def test_even_set_supports_match_support_description(rng):
    for _ in range(20):
        g = random_connected_graph(rng, max_b1=6, max_vertices=6)
        x = CurveDualGraph(g, tuple(rng.randint(0, 2) for _ in range(g.vertex_count)))
        assert list(even_set_supports(x)) == [support_description(x, d) for d in even_sets(x)]
