import functools
import itertools
import math

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
    sweep_theorem2,
    sweep_theorem3,
    sweep_theorems,
)
from spincomb import enumeration
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
        g = build_graph(9, [(i, (i + 1) % 9) for i in range(9)])
        with pytest.raises(TooLargeError):
            canonical_form(g)

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
            assert canonical_form(cycle).canonical_key in keys
        for g in got:
            val = [0] * g.vertex_count
            for a, b in g.edges:
                val[a] += 1
                val[b] += 1
            assert 1 not in val

    @pytest.mark.parametrize("max_edges", [9, 10])
    @pytest.mark.parametrize("connected", [True, False])
    def test_bridgeless_refused_past_eight_edges(self, max_edges, connected):
        """The 9-cycle has 9 vertices, past the component cap.  A bridgeless
        enumeration filters the full build, and the full build above 7 edges
        is refused before anything is built."""
        before = enumeration._connected_classes.cache_info()
        with pytest.raises(TooLargeError):
            list(enumerate_multigraphs(max_edges, connected=connected))
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("connected", [True, False])
    def test_eight_edges_refused_before_any_build(self, connected):
        """The 47 trees with 8 edges have 9 vertices, past the component
        cap, so the full build of 8 edges is refused rather than returned
        without them."""
        before = enumeration._connected_classes.cache_info()
        with pytest.raises(TooLargeError):
            list(enumerate_multigraphs(8, connected=connected))
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_refused_on_the_call(self):
        """The refusal comes from the call itself, not the first next()."""
        before = enumeration._connected_classes.cache_info()
        with pytest.raises(TooLargeError):
            enumerate_multigraphs(8)
        after = enumeration._connected_classes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_seven_edges_hold_every_tree(self):
        """At the largest bound the full build admits, the classes on 8
        vertices are the 23 trees with 7 edges: the cap cuts nothing."""
        got = [g for g in enumerate_multigraphs(7, connected=True) if g.vertex_count == 8]
        assert len(got) == 23

    def test_bridgeless_bounds_still_answered(self):
        seven = [
            g for g in enumerate_multigraphs(7, connected=True) if not separating_edges(g)
        ]
        cycle = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert canonical_form(cycle).canonical_key in {g.edges for g in seven}
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
                    canonical_form(g).canonical_key,
                )
            keys = [
                (g.vertex_count, g.edge_count, canonical_form(g).canonical_key)
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
            assert g.edges == canonical_form(g).canonical_key
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


# full builds for the oracle past the bound enumerate_multigraphs admits,
# shared by the rows that need one
_ORACLE_BUILDS = functools.cache(enumeration._connected_classes.__wrapped__)


class TestDeficitPruning:
    @pytest.mark.parametrize("max_edges", range(1, 9))
    @pytest.mark.parametrize("connected", [True, False])
    def test_pruned_equals_filtered_full_enumeration(
        self, max_edges, connected, monkeypatch
    ):
        pruned = list(
            enumerate_multigraphs(max_edges, connected=connected, superstable=True)
        )
        if max_edges == 8:
            # the full build of 8 edges holds the trees on 9 vertices: let
            # the oracle canonicalize them, in a cache apart from the library's
            monkeypatch.setattr(enumeration, "MAX_COMPONENT_VERTICES", 9)
            monkeypatch.setattr(enumeration, "_connected_classes", _ORACLE_BUILDS)
        full = [
            g
            for g in enumerate_multigraphs(max_edges, connected=connected)
            if is_superstable(g)
        ]
        assert pruned == full

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
                {canonical_form(h).canonical_key: h.vertex_count}, None
            )
            assert canonical_form(g).canonical_key in grown


class TestSweeps:
    def test_sweep2_one_edge(self):
        report = sweep_theorem2(1)
        assert report.graphs_examined == 1  # only the single loop
        assert report.hypothesis_exercised == 1
        assert report.violations == ()
        assert not report.vacuous == report.graphs_examined  # some exercised

    def test_sweep2_six_edges(self):
        report = sweep_theorem2(6)
        assert report.violations == ()
        assert report.hypothesis_exercised >= 3  # loop, tetrahedron, splits
        assert report.graphs_examined > 100

    def test_sweep3_six_edges(self):
        report = sweep_theorem3(6)
        assert report.violations == ()
        assert report.hypothesis_exercised == 1  # only the triple-digon graph
        ft = fat_triangle()
        assert cyclic_betti_set(ft) == {0, 1, 2, 4}

    def test_sweep_counts_add_up(self):
        report = sweep_theorem2(5)
        assert report.hypothesis_exercised + report.vacuous == report.graphs_examined
        assert report.elapsed >= 0.0

    @pytest.mark.parametrize("max_edges", [6, 8])
    def test_one_pass_equals_separate_sweeps(self, max_edges):
        """Both reports of the one pass, and the sweep per theorem, match the
        theorem rules applied here to an independent B (the oracle basis in
        counter order, each set's b1 by a dict union-find) and the class
        from classify; each class's verdicts, witnesses included, too."""
        classes = list(enumerate_multigraphs(max_edges, superstable=True))
        reports = sweep_theorems(max_edges)
        separate = (sweep_theorem2(max_edges), sweep_theorem3(max_edges))
        verdicts: tuple = ([], [])
        for g in classes:
            sets = counter_order_oracle(cycle_basis_oracle(g)[1])
            first = {}
            for bits in sets:
                first.setdefault(dict_union_find_betti(g, bits), bits)
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
        for report, alone, want_verdicts in zip(reports, separate, verdicts):
            exercised = sum(v.hypothesis_exercised for v in want_verdicts)
            violations = tuple(
                (canonical_form(g).canonical_key, v)
                for g, v in zip(classes, want_verdicts)
                if not v.holds
            )
            want = (len(classes), exercised, len(classes) - exercised, violations)
            for got in (report, alone):
                assert (
                    got.graphs_examined,
                    got.hypothesis_exercised,
                    got.vacuous,
                    got.violations,
                ) == want
        assert reports[0].elapsed == reports[1].elapsed

    @pytest.mark.parametrize("max_edges", [0, enumeration.MAX_ENUM_EDGES + 1])
    def test_sweep_admits_the_enumeration_bound(self, max_edges):
        with pytest.raises(TooLargeError):
            sweep_theorems(max_edges)
