import pickle
import random
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincomb import (
    EdgeSubset,
    Multigraph,
    betti_number,
    build_graph,
    connected_components,
    cycle_basis,
    induced_subgraph,
    separating_edges,
    separating_vertices,
    subset_betti,
    valency,
)
from spincomb.errors import BadIndexError, IsolatedVertexError, WidthMismatchError

from conftest import (
    articulation_oracle,
    bridge_oracle,
    components_oracle,
    count_components,
    cycle_graph,
    cycle_with_pendant_trees,
    fat_triangle,
    loop_graph,
    path_graph,
    random_graph,
    random_multigraph,
    split_graph,
    tetrahedron,
)


class TestBuildGraph:
    def test_single_loop(self):
        g = build_graph(1, [(0, 0)])
        assert g.vertex_count == 1
        assert g.edge_count == 1

    def test_split_with_four_edges(self):
        g = build_graph(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
        assert g.edge_count == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(3, [(0, 1)])
        assert exc.value.vertex == 2

    def test_one_vertex_without_edges_accepted(self):
        """The dual graph of a smooth curve; other edgeless vertices raise."""
        assert build_graph(1, []) == Multigraph(1, ())
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(2, [])
        assert exc.value.vertex == 0

    def test_bad_index_rejected(self):
        with pytest.raises(BadIndexError):
            build_graph(2, [(0, 2)])

    def test_endpoints_normalized(self):
        g = build_graph(2, [(1, 0)])
        assert g.edges == ((0, 1),)


class TestMultigraphValue:
    """A slotted immutable value, with no instance dict and no weak
    references."""

    def test_hashable_and_equal_by_value(self):
        g = build_graph(3, [(1, 0), (1, 2), (2, 2)])
        h = Multigraph(3, ((0, 1), (1, 2), (2, 2)))
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != Multigraph(3, ((0, 1), (1, 2)))

    def test_frozen_and_slotted(self):
        g = tetrahedron()
        with pytest.raises(AttributeError):
            g.vertex_count = 5
        with pytest.raises(AttributeError):
            g.label = "K4"
        assert not hasattr(g, "label") and not hasattr(g, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(g)

    def test_replace_and_pickle(self):
        g = fat_triangle()
        grown = Multigraph(4, g.edges + ((2, 3),))
        assert grown == build_graph(4, list(g.edges) + [(2, 3)])
        assert g == fat_triangle()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy is not g and copy.edge_count == g.edge_count


class TestValency:
    def test_loop_counts_two(self):
        assert valency(loop_graph(), 0) == 2

    def test_split_vertex(self):
        assert valency(split_graph(4), 0) == 4

    def test_tetrahedron_all_three(self):
        g = tetrahedron()
        assert [valency(g, v) for v in range(4)] == [3, 3, 3, 3]

    def test_bad_vertex(self):
        with pytest.raises(BadIndexError):
            valency(loop_graph(), 1)

    def test_valency_sum_is_twice_edges(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            total = sum(valency(g, v) for v in range(g.vertex_count))
            assert total == 2 * g.edge_count


class TestBettiNumber:
    def test_loop(self):
        assert betti_number(loop_graph()) == 1

    def test_fat_triangle(self):
        assert betti_number(fat_triangle()) == 4

    @pytest.mark.parametrize("g_value", range(1, 8))
    def test_split_with_g_plus_one_edges(self, g_value):
        assert betti_number(split_graph(g_value + 1)) == g_value

    def test_nonnegative_and_zero_iff_forest(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            b1 = betti_number(g)
            assert b1 >= 0
            is_forest = g.edge_count == g.vertex_count - count_components(
                g.vertex_count, g.edges
            )
            assert (b1 == 0) == is_forest


class TestConnectedComponents:
    def test_loop_single_block(self):
        assert connected_components(loop_graph()) == [[0]]

    def test_two_disjoint_loops(self):
        g = build_graph(2, [(0, 0), (1, 1)])
        assert connected_components(g) == [[0], [1]]

    def test_tetrahedron_connected(self):
        assert connected_components(tetrahedron()) == [[0, 1, 2, 3]]


def _raw_graphs(count: int, seed: int):
    """Graphs built with ``Multigraph`` directly, past ``build_graph``'s
    checks: 0 to 9 vertices, isolated ones, loops and parallel edges."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(0, 9)
        edge_count = rng.randint(0, 12) if n else 0
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
        if pairs and rng.random() < 0.3:
            pairs.append(rng.choice(pairs))
        graphs.append(Multigraph(n, tuple((min(p), max(p)) for p in pairs)))
    return graphs


class TestOneTraversal:
    """Components and b1 from the one lowpoint DFS and valency from the
    valency sweep, against union-find and direct counts."""

    def test_components_match_union_find(self):
        kinds = {"empty": 0, "isolated": 0, "loop": 0, "parallel": 0}
        for g in _raw_graphs(3000, seed=13):
            n = g.vertex_count
            assert connected_components(g) == components_oracle(n, g.edges)
            direct = [sum((a == v) + (b == v) for a, b in g.edges) for v in range(n)]
            assert [valency(g, v) for v in range(n)] == direct
            kinds["empty"] += n == 0
            kinds["isolated"] += 0 in direct
            kinds["loop"] += any(a == b for a, b in g.edges)
            kinds["parallel"] += len(set(g.edges)) < g.edge_count
        assert min(kinds.values()) > 100, kinds

    def test_betti_number_agrees_four_ways(self):
        for g in _raw_graphs(3000, seed=13):
            m, n = g.edge_count, g.vertex_count
            b1 = m - n + count_components(n, g.edges)
            assert betti_number(g) == subset_betti(g, EdgeSubset.full(m)) == b1
            assert cycle_basis(g).dimension == b1

    def test_long_cycle_without_recursion(self):
        """A recursive DFS would pass the default recursion limit (1000)
        many times over on a 45,000-vertex cycle."""
        n = 45000
        g = cycle_graph(n)
        start = time.perf_counter()
        components = connected_components(g)
        bridges = separating_edges(g)
        assert time.perf_counter() - start < 2.0
        assert components == [list(range(n))]
        assert not bridges

    def test_long_tree_in_linear_time(self):
        """On a 45,000-vertex path every edge is a bridge and every inner
        vertex a cut vertex; the traversal, the bridge mask and b1 stay
        linear (about 0.25 s on a 2-vCPU VM)."""
        n = 45000
        g = path_graph(n)
        start = time.perf_counter()
        bridges = separating_edges(g)
        cuts = separating_vertices(g)
        b1 = betti_number(g)
        assert time.perf_counter() - start < 2.0
        assert bridges == EdgeSubset.full(n - 1)
        assert cuts == list(range(1, n - 1))
        assert b1 == 0

    def test_long_pendant_trees_counted_near_linearly(self):
        """b1 reads the component count from the DFS.  A union-find that
        links roots without ranks or path compression chains every vertex
        when it takes these pendant edges in index order: counted that way,
        this graph's b1 took about 13 s on a 2-vCPU VM."""
        g = cycle_with_pendant_trees(45000, random.Random(3))
        start = time.perf_counter()
        assert betti_number(g) == 1
        assert time.perf_counter() - start < 2.0

    def test_subset_betti_halves_find_paths(self):
        """subset_betti counts closing edges in such a union-find; path
        halving keeps the chain short (about 11 s without it, 0.2 s with
        it, on a 2-vCPU VM)."""
        g = cycle_with_pendant_trees(45000, random.Random(3))
        start = time.perf_counter()
        assert subset_betti(g, EdgeSubset.full(g.edge_count)) == 1
        assert time.perf_counter() - start < 2.0


class TestSeparatingEdges:
    def test_single_edge_is_bridge(self):
        assert list(separating_edges(path_graph(2)).indices()) == [0]

    def test_split_has_no_bridges(self):
        for k in range(2, 6):
            assert not separating_edges(split_graph(k))

    def test_two_loops_joined_by_edge(self):
        g = build_graph(2, [(0, 0), (0, 1), (1, 1)])
        assert list(separating_edges(g).indices()) == [1]

    def test_loops_never_bridges(self):
        g = build_graph(1, [(0, 0), (0, 0)])
        assert not separating_edges(g)

    def test_against_deletion_oracle(self, rng):
        for _ in range(60):
            g = random_graph(rng)
            assert list(separating_edges(g).indices()) == bridge_oracle(g)
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(1, 12))
            assert list(separating_edges(g).indices()) == bridge_oracle(g)

    def test_deleting_bridge_raises_count_by_one(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            base = count_components(g.vertex_count, g.edges)
            bridges = set(separating_edges(g).indices())
            for eid in range(g.edge_count):
                rest = [e for i, e in enumerate(g.edges) if i != eid]
                c = count_components(g.vertex_count, rest)
                assert c == base + 1 if eid in bridges else c == base


class TestSeparatingVertices:
    def test_shared_vertex_of_two_digons(self):
        g = build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        assert separating_vertices(g) == [1]

    def test_figure_eight_center_not_separating(self):
        # Deleting the vertex removes both loops with it; nothing disconnects.
        g = build_graph(1, [(0, 0), (0, 0)])
        assert separating_vertices(g) == []

    def test_tetrahedron_has_none(self):
        assert separating_vertices(tetrahedron()) == []

    def test_single_edge_has_none(self):
        assert separating_vertices(path_graph(2)) == []

    def test_path_interior(self):
        assert separating_vertices(path_graph(4)) == [1, 2]

    def test_against_deletion_oracle(self, rng):
        for _ in range(60):
            g = random_graph(rng)
            assert separating_vertices(g) == articulation_oracle(g)
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(1, 12))
            assert separating_vertices(g) == articulation_oracle(g)


class TestInducedSubgraph:
    def test_triangle_of_tetrahedron(self):
        g = tetrahedron()
        s = EdgeSubset.from_indices(6, [0, 1, 3])  # edges 01, 02, 12
        sub = induced_subgraph(g, s)
        assert sub.vertex_count == 3
        assert sub.edge_count == 3
        assert betti_number(sub) == 1

    def test_empty_subset_gives_empty_graph(self):
        sub = induced_subgraph(tetrahedron(), EdgeSubset.empty(6))
        assert sub.vertex_count == 0
        assert sub.edge_count == 0
        assert betti_number(sub) == 0

    def test_two_of_four_split_edges(self):
        sub = induced_subgraph(split_graph(4), EdgeSubset.from_indices(4, [1, 3]))
        assert (sub.vertex_count, sub.edge_count) == (2, 2)
        assert betti_number(sub) == 1

    def test_full_subset_keeps_betti(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            sub = induced_subgraph(g, EdgeSubset.full(g.edge_count))
            assert sub.edges == g.edges
            assert betti_number(sub) == betti_number(g)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            induced_subgraph(tetrahedron(), EdgeSubset.empty(5))


class TestEdgeSubsetAlgebra:
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_xor_commutative(self, a, b):
        x, y = EdgeSubset(a, 12), EdgeSubset(b, 12)
        assert x ^ y == y ^ x

    @given(
        st.integers(0, 2**12 - 1),
        st.integers(0, 2**12 - 1),
        st.integers(0, 2**12 - 1),
    )
    def test_xor_associative(self, a, b, c):
        x, y, z = (EdgeSubset(v, 12) for v in (a, b, c))
        assert (x ^ y) ^ z == x ^ (y ^ z)

    @given(st.integers(0, 2**12 - 1))
    def test_xor_self_inverse(self, a):
        x = EdgeSubset(a, 12)
        assert x ^ x == EdgeSubset.empty(12)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            EdgeSubset.empty(3) ^ EdgeSubset.empty(4)

    def test_indices_roundtrip(self):
        s = EdgeSubset.from_indices(10, [0, 3, 7])
        assert sorted(s.indices()) == [0, 3, 7]
        assert len(s) == 3
        assert 3 in s and 4 not in s

    @given(st.integers(0, 40).flatmap(lambda w: st.tuples(st.just(w), st.integers(0, 2**w - 1))))
    def test_indices_are_the_set_bits_in_order(self, case):
        width, bits = case
        got = list(EdgeSubset(bits, width).indices())
        assert got == [i for i in range(width) if bits >> i & 1]
        assert EdgeSubset.from_indices(width, got).bits == bits

    def test_full_mask_listed_in_linear_time(self):
        """Read byte by byte; taking the lowest bit out of the whole int for
        each index took about 3.5 s here, on a 2-vCPU VM."""
        start = time.perf_counter()
        got = list(EdgeSubset.full(200_000).indices())
        assert time.perf_counter() - start < 0.5
        assert got == list(range(200_000))
