import random
import time

import pytest

from spincomb import (
    EdgeSubset,
    boundary,
    build_graph,
    circuit_decomposition,
    cycle_basis,
    cyclic_betti_set,
    cyclic_sets,
    induced_subgraph,
    is_circuit,
    is_cyclic,
    is_eulerian,
    subset_betti,
    valency,
)
from spincomb.errors import CapExceededError, NotCyclicError, WidthMismatchError

from conftest import (
    count_components,
    cycle_basis_oracle,
    cycle_graph,
    even_subset_bits_oracle,
    fat_triangle,
    in_gf2_span,
    loop_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_multigraph,
    random_tree,
    restarting_decomposition,
    split_graph,
    subdivided,
    subgraph_betti_oracle,
    tetrahedron,
    two_regular_connected,
)
from test_betti_profile import _corpus


class TestBoundary:
    def test_loop_has_zero_boundary(self):
        g = loop_graph()
        assert boundary(g, EdgeSubset.full(1)).is_zero

    def test_single_edge(self):
        g = path_graph(2)
        chain = boundary(g, EdgeSubset.full(1))
        assert chain.bits == 0b11

    def test_triangle_in_tetrahedron(self):
        g = tetrahedron()
        triangle = EdgeSubset.from_indices(6, [0, 1, 3])
        assert boundary(g, triangle).is_zero

    def test_odd_valency_vertices(self):
        """Against the vertices of odd valency by direct counting, a loop
        counting 2, on multigraphs with loops and parallel edges."""
        rng = random.Random(97)
        for _ in range(40):
            g = random_multigraph(rng, rng.randint(1, 9), max_vertices=12)
            for bits in range(min(1 << g.edge_count, 64)):
                val = [0] * g.vertex_count
                for eid, (a, b) in enumerate(g.edges):
                    if bits >> eid & 1:
                        val[a] += 1
                        val[b] += 1
                chain = boundary(g, EdgeSubset(bits, g.edge_count))
                assert chain.width == g.vertex_count
                assert chain.bits == sum(1 << v for v, d in enumerate(val) if d % 2)

    def test_long_cycle_in_linear_time(self):
        g = cycle_graph(200_000)
        start = time.perf_counter()
        assert boundary(g, EdgeSubset.full(g.edge_count)).is_zero
        assert time.perf_counter() - start < 0.5


class TestIsCyclic:
    def test_empty_set_is_even(self, rng):
        for _ in range(10):
            g = random_graph(rng)
            assert is_cyclic(g, EdgeSubset.empty(g.edge_count))

    def test_tetrahedron_full_set_odd(self):
        assert not is_cyclic(tetrahedron(), EdgeSubset.full(6))

    def test_fat_triangle_full_set_even(self):
        assert is_cyclic(fat_triangle(), EdgeSubset.full(6))

    def test_agrees_with_boundary(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            for bits in range(min(1 << g.edge_count, 128)):
                s = EdgeSubset(bits, g.edge_count)
                assert is_cyclic(g, s) == boundary(g, s).is_zero


class TestCycleBasis:
    def test_tree_has_empty_basis(self):
        basis = cycle_basis(path_graph(3))
        assert basis.basis_vectors == ()
        assert basis.spanning_forest == EdgeSubset.full(2)

    def test_loop(self):
        basis = cycle_basis(loop_graph())
        assert [v.bits for v in basis.basis_vectors] == [0b1]

    def test_split_four_edges(self):
        basis = cycle_basis(split_graph(4))
        assert basis.dimension == 3
        assert all(len(v) == 2 for v in basis.basis_vectors)
        assert basis.spanning_forest.bits == 0b1

    def test_dimension_and_independence(self, rng):
        for _ in range(40):
            g = random_graph(rng)
            basis = cycle_basis(g)
            from spincomb import betti_number

            assert basis.dimension == betti_number(g)
            # each vector is cyclic and owns a distinct non-forest edge
            forest = basis.spanning_forest.bits
            own = [v.bits & ~forest for v in basis.basis_vectors]
            for v in basis.basis_vectors:
                assert is_cyclic(g, v)
            for i, bits in enumerate(own):
                others = 0
                for j, other in enumerate(own):
                    if j != i:
                        others |= other
                assert bits & ~others


    def test_forest_and_vectors_match_oracle(self, rng):
        """Forest and every vector, in order, equal a greedy forest scan
        with BFS paths (no test before pinned the exact vectors)."""
        graphs = [random_graph(rng) for _ in range(150)]
        graphs += [random_multigraph(rng, rng.randint(0, 14)) for _ in range(150)]
        graphs += [random_tree(rng, 10) for _ in range(30)]
        graphs += [subdivided(random_connected_graph(rng), rng) for _ in range(100)]
        # 300 vertices, mostly tree: long forest paths through deep unions
        nu = 300
        edges = [(rng.randrange(v), v) for v in range(1, nu)]
        edges += [tuple(sorted((rng.randrange(nu), rng.randrange(nu)))) for _ in range(20)]
        rng.shuffle(edges)
        graphs.append(build_graph(nu, edges))
        for g in graphs:
            basis = cycle_basis(g)
            forest, vectors = cycle_basis_oracle(g)
            assert basis.spanning_forest.bits == forest
            assert [v.bits for v in basis.basis_vectors] == vectors


class TestCyclicSets:
    def test_tree_only_empty(self):
        assert [s.bits for s in cyclic_sets(path_graph(3))] == [0]

    def test_loop(self):
        assert sorted(s.bits for s in cyclic_sets(loop_graph())) == [0, 1]

    def test_tetrahedron_eight_sets(self):
        sets = list(cyclic_sets(tetrahedron()))
        assert len(sets) == 8
        assert len({s.bits for s in sets}) == 8
        sizes = sorted(len(s) for s in sets)
        assert sizes == [0, 3, 3, 3, 3, 4, 4, 4]
        for s in sets:
            assert is_cyclic(tetrahedron(), s)

    def test_count_is_two_to_betti(self, rng):
        from spincomb import betti_number

        for _ in range(30):
            g = random_graph(rng, max_b1=6)
            sets = list(cyclic_sets(g))
            assert len(sets) == 1 << betti_number(g)
            assert len({s.bits for s in sets}) == len(sets)

    def test_cap_exceeded(self):
        g = split_graph(32)  # b1 = 31
        with pytest.raises(CapExceededError) as exc:
            list(cyclic_sets(g))
        assert exc.value.betti == 31

    def test_matches_brute_force_even_filter(self, rng):
        corpus = [loop_graph(), split_graph(4), tetrahedron(), fat_triangle()]
        corpus += [random_graph(rng, max_b1=4) for _ in range(10)]
        for g in corpus:
            if g.edge_count > 14:
                continue
            expected = sorted(even_subset_bits_oracle(g))
            assert sorted(s.bits for s in cyclic_sets(g)) == expected

    def test_span_membership_oracle(self, rng):
        corpus = [tetrahedron(), fat_triangle(), split_graph(5)]
        corpus += [random_connected_graph(rng, max_b1=4, max_vertices=5) for _ in range(8)]
        for g in corpus:
            if g.edge_count > 10:
                continue
            basis = [v.bits for v in cycle_basis(g).basis_vectors]
            for bits in range(1 << g.edge_count):
                s = EdgeSubset(bits, g.edge_count)
                assert is_cyclic(g, s) == in_gf2_span(bits, basis)


class TestCyclicBettiSet:
    def test_loop(self):
        assert cyclic_betti_set(loop_graph()) == {0, 1}

    def test_fat_triangle(self):
        assert cyclic_betti_set(fat_triangle()) == {0, 1, 2, 4}

    @pytest.mark.parametrize("g_value", range(1, 8))
    def test_split_formula(self, g_value):
        expected = {0} | {k for k in range(1, g_value + 1, 2)}
        assert cyclic_betti_set(split_graph(g_value + 1)) == expected

    def test_members_via_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_b1=5)
            got = cyclic_betti_set(g)
            expected = {
                subgraph_betti_oracle(g, s.bits) for s in cyclic_sets(g)
            }
            assert got == expected


class TestEulerian:
    def test_loop(self):
        assert is_eulerian(loop_graph())

    def test_tetrahedron_is_not(self):
        assert not is_eulerian(tetrahedron())

    def test_fat_triangle_is(self):
        assert is_eulerian(fat_triangle())


class TestIsCircuit:
    def test_loop(self):
        assert is_circuit(loop_graph(), EdgeSubset.full(1))

    def test_two_disjoint_triangles_are_not(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_circuit(g, EdgeSubset.full(6))

    def test_four_circuit_in_tetrahedron(self):
        g = tetrahedron()
        # edges 01, 12, 23, 03 form a 4-circuit
        s = EdgeSubset.from_indices(6, [0, 2, 3, 5])
        assert is_circuit(g, s)

    def test_empty_is_not_a_circuit(self):
        assert not is_circuit(loop_graph(), EdgeSubset.empty(1))

    def test_width_mismatch_raises(self):
        g = tetrahedron()
        for s in (EdgeSubset.empty(5), EdgeSubset.full(7), EdgeSubset.from_indices(7, [6])):
            with pytest.raises(WidthMismatchError):
                is_circuit(g, s)
            with pytest.raises(WidthMismatchError):
                two_regular_connected(g, s)

    def test_every_subset_against_oracle(self):
        """Every edge subset of small multigraphs with loops and parallel
        edges: empty, non-cyclic, cyclic in one piece and in several."""
        rng = random.Random(83)
        graphs = [loop_graph(), fat_triangle(), tetrahedron(), split_graph(4)]
        graphs += [random_multigraph(rng, n, max_vertices=5) for n in range(1, 9) for _ in range(6)]
        seen = set()
        for g in graphs:
            for bits in range(1 << g.edge_count):
                s = EdgeSubset(bits, g.edge_count)
                want = two_regular_connected(g, s)
                assert is_circuit(g, s) == want
                seen.add((bits == 0, is_cyclic(g, s), want))
        assert seen == {(True, True, False), (False, False, False), (False, True, False), (False, True, True)}

    def test_against_definition(self, rng):
        """Every edge subset of small random graphs, against a component
        count and the per-vertex valency of the induced subgraph."""
        for _ in range(40):
            g = random_connected_graph(rng, max_b1=3, max_vertices=4)
            for bits in range(1 << g.edge_count):
                s = EdgeSubset(bits, g.edge_count)
                sub = induced_subgraph(g, s)
                want = (
                    bits != 0
                    and count_components(sub.vertex_count, sub.edges) == 1
                    and all(valency(sub, v) == 2 for v in range(sub.vertex_count))
                )
                assert is_circuit(g, s) == want


class TestCircuitDecomposition:
    def test_loop(self):
        parts = circuit_decomposition(loop_graph(), EdgeSubset.full(1))
        assert [p.bits for p in parts] == [1]

    def test_triangle_in_tetrahedron_returned_whole(self):
        g = tetrahedron()
        triangle = EdgeSubset.from_indices(6, [0, 1, 3])
        assert circuit_decomposition(g, triangle) == [triangle]

    def test_fat_triangle_full(self):
        g = fat_triangle()
        self._check_partition(g, EdgeSubset.full(6))

    def test_rejects_non_cyclic(self):
        with pytest.raises(NotCyclicError):
            circuit_decomposition(tetrahedron(), EdgeSubset.full(6))

    def test_random_cyclic_sets(self, rng):
        for _ in range(25):
            g = random_graph(rng, max_b1=5)
            for s in cyclic_sets(g):
                self._check_partition(g, s)

    def _check_partition(self, g, s):
        parts = circuit_decomposition(g, s)
        total = EdgeSubset.empty(g.edge_count)
        seen = 0
        for part in parts:
            assert is_circuit(g, part)
            assert not part.bits & seen  # edge-disjoint
            seen |= part.bits
            total ^= part
        assert total == s

    def test_matches_restarting_oracle(self):
        """Part for part, on every cyclic set of the Betti-profile corpus
        and of seeded multigraphs with loops and parallel edges."""
        rng = random.Random(89)
        graphs = _corpus() + [random_multigraph(rng, n) for n in range(2, 11) for _ in range(6)]
        graphs += [subdivided(g, rng) for g in graphs[-20:]]
        sets = 0
        for g in graphs:
            for s in cyclic_sets(g):
                parts = circuit_decomposition(g, s)
                assert parts == restarting_decomposition(g, s)
                # is_circuit is "peels as one circuit"
                assert two_regular_connected(g, s) == (len(parts) == 1)
                sets += 1
        assert sets > 70000

    def test_walk_goes_on_from_the_closing_vertex(self):
        """A walk that closes a circuit away from its start: the lowest edge
        leads to vertex 1, whose lowest other edge starts a triangle there;
        the walk then goes on from vertex 1 back to 0."""
        g = build_graph(3, [(0, 1), (1, 2), (1, 2), (0, 1)])
        s = EdgeSubset.full(4)
        assert [p.bits for p in circuit_decomposition(g, s)] == [0b0110, 0b1001]
        assert circuit_decomposition(g, s) == restarting_decomposition(g, s)

    def test_long_cycle_in_linear_time(self):
        g = cycle_graph(20_000)
        s = EdgeSubset.full(g.edge_count)
        start = time.perf_counter()
        parts = circuit_decomposition(g, s)
        assert time.perf_counter() - start < 1.0
        assert parts == [s]

    def test_deterministic(self):
        g = fat_triangle()
        a = circuit_decomposition(g, EdgeSubset.full(6))
        b = circuit_decomposition(g, EdgeSubset.full(6))
        assert a == b


def test_cyclic_sets_never_meet_bridges(rng):
    from spincomb import separating_edges

    for _ in range(30):
        g = random_graph(rng, max_b1=5)
        bridges = separating_edges(g)
        for s in cyclic_sets(g):
            assert not s.intersects(bridges)


def test_subset_betti_matches_oracle(rng):
    for _ in range(20):
        g = random_graph(rng)
        for bits in range(min(1 << g.edge_count, 256)):
            s = EdgeSubset(bits, g.edge_count)
            assert subset_betti(g, s) == subgraph_betti_oracle(g, bits)
