import random
import re
import time

import pytest

from spincomb import (
    Multigraph,
    betti_number,
    build_graph,
    check_theorems,
    classify,
    connected_components,
    contract_separating_edge,
    cyclic_betti_set,
    eliminate_valency1,
    enumerate_multigraphs,
    is_fat_triangle,
    is_loop_graph,
    is_split,
    is_superstable,
    is_tetrahedron,
    smooth_valency2,
    subset_betti,
    superstable_reduction,
    valency,
)
from spincomb.errors import (
    LoopVertexError,
    NotSeparatingError,
    NotSuperstableError,
    VanishingComponentError,
    WrongValencyError,
)
from spincomb.graphs import _smooth

from conftest import (
    are_isomorphic,
    bridge_oracle,
    cycle_with_pendant_trees,
    fat_triangle,
    loop_graph,
    lowest_first_reduction,
    path_graph,
    path_or_cycle,
    random_graph,
    random_multigraph,
    random_order_reduction,
    relabeled,
    split_graph,
    subdivided,
    tetrahedron,
    triangle,
    with_pendant_trees,
)


class TestEliminateValency1:
    def test_two_vertex_path_leaves_degenerate_point(self):
        g = eliminate_valency1(path_graph(2), 1)
        assert (g.vertex_count, g.edge_count) == (1, 0)

    def test_pendant_on_triangle(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert are_isomorphic(eliminate_valency1(g, 3), triangle())

    def test_pendant_on_loop(self):
        g = build_graph(2, [(0, 0), (0, 1)])
        assert are_isomorphic(eliminate_valency1(g, 1), loop_graph())

    def test_wrong_valency(self):
        with pytest.raises(WrongValencyError):
            eliminate_valency1(triangle(), 0)


class TestSmoothValency2:
    def test_triangle_becomes_double_edge(self):
        g = smooth_valency2(triangle(), 1)
        assert are_isomorphic(g, split_graph(2))

    def test_double_edge_becomes_loop(self):
        g = smooth_valency2(split_graph(2), 0)
        assert are_isomorphic(g, loop_graph())

    def test_loop_vertex_forbidden(self):
        with pytest.raises(LoopVertexError):
            smooth_valency2(loop_graph(), 0)

    def test_wrong_valency(self):
        with pytest.raises(WrongValencyError):
            smooth_valency2(split_graph(3), 0)


class TestContractSeparatingEdge:
    def test_single_edge(self):
        g = contract_separating_edge(path_graph(2), 0)
        assert (g.vertex_count, g.edge_count) == (1, 0)

    def test_two_loops_joined_by_edge(self):
        g = build_graph(2, [(0, 0), (0, 1), (1, 1)])
        out = contract_separating_edge(g, 1)
        assert out.vertex_count == 1
        assert out.edges == ((0, 0), (0, 0))

    def test_split_edges_not_separating(self):
        with pytest.raises(NotSeparatingError):
            contract_separating_edge(split_graph(4), 0)


class TestIsSuperstable:
    def test_loop(self):
        assert is_superstable(loop_graph())

    def test_tetrahedron(self):
        assert is_superstable(tetrahedron())

    def test_triangle_is_not(self):
        assert not is_superstable(triangle())

    def test_loop_with_extra_edge_vertex_not_exempt(self):
        # valency-2 vertex whose incidence is loop-free is not exempt;
        # the loop exemption is only for a bare loop vertex
        g = build_graph(2, [(0, 0), (0, 1), (0, 1)])
        assert not is_superstable(g)  # vertex 1 has valency 2, no loop

    def test_split_with_three_edges(self):
        assert is_superstable(split_graph(3))
        assert not is_superstable(split_graph(2))

    def test_empty_graph_is_not(self):
        """The graph with no vertex has no component, so it is outside the
        theorems' hypothesis, and no theorem-2 violation is reported."""
        g = build_graph(0, [])
        assert not is_superstable(g)
        with pytest.raises(NotSuperstableError):
            check_theorems(g)


class TestIsSplit:
    def test_split(self):
        assert is_split(split_graph(4))

    def test_loop_is_not(self):
        assert not is_split(loop_graph())

    def test_loop_plus_edge_is_not(self):
        g = build_graph(2, [(0, 1), (1, 1)])
        assert not is_split(g)


class TestRecognizers:
    def test_tetrahedron_any_labeling(self, rng):
        g = tetrahedron()
        for _ in range(10):
            perm = list(range(4))
            rng.shuffle(perm)
            assert is_tetrahedron(relabeled(g, perm))

    def test_fat_triangle_any_labeling(self, rng):
        g = fat_triangle()
        for _ in range(10):
            perm = list(range(3))
            rng.shuffle(perm)
            assert is_fat_triangle(relabeled(g, perm))

    def test_loop_graph(self):
        assert is_loop_graph(loop_graph())
        assert not is_loop_graph(build_graph(1, [(0, 0), (0, 0)]))

    def test_split_six_edges_matches_nothing_else(self):
        g = split_graph(6)
        assert not is_tetrahedron(g)
        assert not is_fat_triangle(g)
        assert not is_loop_graph(g)

    def test_against_permutation_oracle(self, rng):
        named = (
            (is_loop_graph, loop_graph()),
            (is_tetrahedron, tetrahedron()),
            (is_fat_triangle, fat_triangle()),
        )
        classes = list(enumerate_multigraphs(7, connected=True))
        classes += enumerate_multigraphs(6)
        hits = [0] * len(named)
        for g in classes:
            for _ in range(3):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                h = relabeled(g, perm)
                for i, (recognizer, target) in enumerate(named):
                    found = recognizer(h)
                    assert found == are_isomorphic(h, target)
                    hits[i] += found
        assert all(hits)
        # one isolated vertex more keeps the edge list but breaks the match
        for recognizer, target in named:
            padded = Multigraph(target.vertex_count + 1, target.edges)
            assert not recognizer(padded) and not are_isomorphic(padded, target)

    def test_classify(self):
        assert classify(split_graph(3)) == "split"
        assert classify(loop_graph()) == "loop"
        assert classify(tetrahedron()) == "tetrahedron"
        assert classify(fat_triangle()) == "fat_triangle"
        assert classify(triangle()) == "other"


class TestSuperstableReduction:
    def test_triangle_to_loop(self):
        out = superstable_reduction(triangle())
        assert is_loop_graph(out)

    def test_loop_with_pendant_path(self):
        g = build_graph(4, [(0, 0), (0, 1), (1, 2), (2, 3)])
        assert is_loop_graph(superstable_reduction(g))

    def test_fat_triangle_fixed(self):
        assert superstable_reduction(fat_triangle()) == fat_triangle()

    def test_idempotent(self, rng):
        for g in _reduction_corpus():
            once = superstable_reduction(g)
            assert superstable_reduction(once) == once
            assert is_superstable(once)

    def test_order_insensitive(self):
        for g in _reduction_corpus():
            reference = superstable_reduction(g)
            for seed in range(20):
                out = random_order_reduction(g, random.Random(seed))
                assert are_isomorphic(out, reference)

    def test_preserves_betti_and_betti_set(self):
        for g in _reduction_corpus():
            out = superstable_reduction(g)
            assert betti_number(out) == betti_number(g)
            assert cyclic_betti_set(out) == cyclic_betti_set(g)

    def test_tree_component_rejected(self):
        with pytest.raises(VanishingComponentError):
            superstable_reduction(path_graph(3))

    def test_tree_beside_a_cycle_rejected_like_the_oracle(self):
        g = _disjoint_union(triangle(), path_graph(3), loop_graph())
        with pytest.raises(VanishingComponentError) as got:
            superstable_reduction(g)
        with pytest.raises(VanishingComponentError) as want:
            lowest_first_reduction(g)
        assert str(got.value) == str(want.value) == "component [3, 4, 5] is a tree"

    def test_lowest_of_two_trees_named(self):
        """Beside a loop-only and a parallel-pair component, whose edges are
        all non-bridges, two trees: the one of lowest vertex is named,
        though its edges come last."""
        loop, pair = [(0, 0)], [(1, 6), (1, 6)]
        trees = [(3, 7), (4, 7), (2, 8), (5, 8)]  # [3, 4, 7] and [2, 5, 8]
        g = Multigraph(9, tuple(loop + pair + trees))
        with pytest.raises(VanishingComponentError) as got:
            superstable_reduction(g)
        with pytest.raises(VanishingComponentError) as want:
            lowest_first_reduction(g)
        assert str(got.value) == str(want.value) == "component [2, 5, 8] is a tree"
        cyclic = Multigraph(3, ((0, 0), (1, 2), (1, 2)))
        assert superstable_reduction(cyclic) == lowest_first_reduction(cyclic)

    def test_same_graph_as_per_vertex_scan(self):
        """The lowest applicable vertex is reduced first: the result is the
        very graph, labels and edge order, that the oracle rebuilding the
        graph after each operation produces."""
        for g in _reduction_corpus():
            assert superstable_reduction(g) == lowest_first_reduction(g)

    def test_same_output_as_lowest_first_oracle(self):
        """Labels, edge order and refusals equal the oracle's on random,
        subdivided and pendant-tree graphs, several components included."""
        rng = random.Random(11)
        refused = reduced = 0
        for i in range(2400):
            g = random_multigraph(rng, rng.randint(1, 9), max_vertices=9)
            if i % 4 == 1:
                g = subdivided(g, rng)
            elif i % 4 == 2:
                g = with_pendant_trees(subdivided(g, rng), rng)
            elif i % 4 == 3:
                g = with_pendant_trees(random_graph(rng, max_b1=4), rng)
            try:
                want = lowest_first_reduction(g)
            except VanishingComponentError as e:
                with pytest.raises(VanishingComponentError, match=re.escape(str(e))):
                    superstable_reduction(g)
                refused += 1
                continue
            assert superstable_reduction(g) == want
            reduced += want != g
        assert refused > 200 and reduced > 1000

    def test_scale_cycle_with_pendant_trees(self):
        """One heap pass: 4,500 vertices (3,000 of them on pendant trees)
        reduce to the loop well within the bound; the rebuild per removed
        vertex took about 14 s."""
        g = cycle_with_pendant_trees(4500, random.Random(3))
        start = time.perf_counter()
        out = superstable_reduction(g)
        assert time.perf_counter() - start < 2.0
        assert out == Multigraph(1, ((0, 0),))

    def test_kernel_masks_trace_each_core_edge(self):
        """The edges of g that the kernel maps to one core edge form the
        path of g it replaced, between the preimages of its ends (a cycle
        for a loop); the preimages are disjoint, and every edge the kernel
        drops is a bridge."""
        smoothed = 0
        for g in _reduction_corpus():
            n, pairs, core = _smooth(g)
            assert len(core) == g.edge_count and all(-1 <= c < len(pairs) for c in core)
            if n == g.vertex_count:
                assert is_superstable(g)
                assert (pairs, core) == (g.edges, list(range(g.edge_count)))
                continue
            smoothed += 1
            masks = [0] * len(pairs)
            for eid, c in enumerate(core):
                if c >= 0:
                    masks[c] |= 1 << eid
            assert Multigraph(n, pairs) == superstable_reduction(g)
            covered = 0
            for m in masks:
                assert not covered & m
                covered |= m
            bridges = sum(1 << eid for eid in bridge_oracle(g))
            assert ((1 << g.edge_count) - 1) & ~covered & ~bridges == 0
            # the survivors keep their order, so a path's lower end is the
            # preimage of its core edge's lower end
            preimage = {}
            loops = []
            for (a, b), m in zip(pairs, masks):
                shape, ends = path_or_cycle(g, m)
                assert shape == ("cycle" if a == b else "path")
                if a == b:
                    loops.append((a, ends))
                else:
                    assert preimage.setdefault(a, ends[0]) == ends[0]
                    assert preimage.setdefault(b, ends[1]) == ends[1]
            for a, cycle in loops:
                assert preimage.get(a, min(cycle)) in cycle
            labels = sorted(preimage)
            assert [preimage[u] for u in labels] == sorted(set(preimage.values()))
            assert set(labels).union(a for a, _ in loops) == set(range(n))
        assert smoothed > 50

    def test_superstable_agrees_with_per_vertex_scan(self):
        for g in enumerate_multigraphs(5):
            want = all(
                valency(g, v) >= 3
                or (valency(g, v) == 2 and any(a == b == v for a, b in g.edges))
                for v in range(g.vertex_count)
            )
            assert is_superstable(g) == want

    def test_corpus_exercises_both_operations(self):
        corpus = _reduction_corpus()
        assert len(corpus) > 50
        assert any(valency(g, v) == 1 for g in corpus for v in range(g.vertex_count))
        assert any(
            valency(g, v) == 2 and (v, v) not in g.edges
            for g in corpus
            for v in range(g.vertex_count)
        )
        assert any(len(connected_components(g)) > 1 for g in corpus)


def _disjoint_union(*parts):
    edges = []
    offset = 0
    for p in parts:
        edges += [(a + offset, b + offset) for a, b in p.edges]
        offset += p.vertex_count
    return build_graph(offset, edges)


def _reduction_corpus():
    """Graphs whose every component has b1 >= 1: named graphs, cycles with
    chords and loops, the same cycles with pendant trees, subdivided
    graphs with and without pendant trees, and graphs of several
    components."""
    rng = random.Random(7)
    corpus = [triangle(), fat_triangle(), tetrahedron(), split_graph(4)]
    cycles = []
    for _ in range(15):
        n = rng.randint(3, 7)
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            edges.append((rng.randrange(n), rng.randrange(n)))
        cycles.append(build_graph(n, edges))
    corpus += cycles
    corpus += [with_pendant_trees(g, rng, most=6) for g in cycles]
    corpus += [subdivided(g, rng) for g in corpus[:12]]
    corpus += [with_pendant_trees(subdivided(g, rng), rng) for g in corpus[:12]]
    corpus += [
        _disjoint_union(triangle(), with_pendant_trees(loop_graph(), rng, most=6)),
        _disjoint_union(subdivided(tetrahedron(), rng), split_graph(2), loop_graph()),
    ]
    return corpus


class TestInvarianceLemma:
    """Single operations of type 1, 2, 3 preserve b1 and the cyclic Betti set."""

    def test_all_applicable_operations(self):
        for g in enumerate_multigraphs(5, connected=True):
            before = (betti_number(g), cyclic_betti_set(g))
            for v in range(g.vertex_count):
                val = valency(g, v)
                if val == 1:
                    out = eliminate_valency1(g, v)
                elif val == 2 and not any(a == b == v for a, b in g.edges):
                    out = smooth_valency2(g, v)
                else:
                    continue
                assert (betti_number(out), cyclic_betti_set(out)) == before
            from spincomb import separating_edges

            for eid in separating_edges(g).indices():
                out = contract_separating_edge(g, eid)
                assert (betti_number(out), cyclic_betti_set(out)) == before


class TestTheorem2:
    def test_loop(self):
        v = check_theorems(loop_graph())[0]
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "loop"

    def test_tetrahedron(self):
        v = check_theorems(tetrahedron())[0]
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "tetrahedron"
        assert betti_number(tetrahedron()) == 3

    def test_split(self):
        v = check_theorems(split_graph(5))[0]
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "split"

    def test_fat_triangle_vacuous_with_witness(self):
        g = fat_triangle()
        v = check_theorems(g)[0]
        assert v.holds and not v.hypothesis_exercised
        assert v.witness is not None
        assert subset_betti(g, v.witness) == 2

    def test_requires_superstable(self):
        with pytest.raises(NotSuperstableError):
            check_theorems(triangle())


class TestTheorem3:
    def test_fat_triangle(self):
        v = check_theorems(fat_triangle())[1]
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "fat_triangle"

    def test_tetrahedron_vacuous(self):
        v = check_theorems(tetrahedron())[1]
        assert v.holds and not v.hypothesis_exercised

    def test_split_b5_vacuous_with_witness(self):
        g = split_graph(6)  # b1 = 5, 3 in B
        v = check_theorems(g)[1]
        assert v.holds and not v.hypothesis_exercised
        assert v.witness is not None
        assert subset_betti(g, v.witness) == 3

    def test_requires_superstable(self):
        with pytest.raises(NotSuperstableError):
            check_theorems(triangle())
