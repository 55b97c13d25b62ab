import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spincomb
from spincomb import (
    CurveDualGraph,
    EdgeSubset,
    build_graph,
    check_corollary_final,
    check_corollary_split,
    curve_genus,
    even_sets,
    is_compact_type,
    multiplicity_set,
    spin_report,
    support_description,
    valency,
)
from spincomb.errors import NotEvenError, PreconditionFailedError

from conftest import (
    even_subset_bits_oracle,
    fat_triangle,
    loop_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    relabeled,
    split_graph,
    tetrahedron,
)


def split_curve(g_value: int) -> CurveDualGraph:
    return CurveDualGraph(split_graph(g_value + 1), (0, 0))


def loop_curve(g_value: int) -> CurveDualGraph:
    return CurveDualGraph(loop_graph(), (g_value - 1,))


class TestCurveDualGraph:
    def test_mark_count_must_match(self):
        with pytest.raises(ValueError):
            CurveDualGraph(split_graph(2), (0,))

    def test_marks_nonnegative(self):
        with pytest.raises(ValueError):
            CurveDualGraph(loop_graph(), (-1,))

    def test_must_be_connected(self):
        g = build_graph(2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            CurveDualGraph(g, (0, 0))

    def test_stability_violations(self):
        x = CurveDualGraph(path_graph(2), (0, 1))
        assert x.stability_violations() == [0]
        assert split_curve(3).stability_violations() == []

    def test_stability_violations_match_per_vertex_valency(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, max_b1=3, max_vertices=6)
            marks = tuple(rng.randint(0, 1) for _ in range(g.vertex_count))
            want = [
                v
                for v in range(g.vertex_count)
                if marks[v] == 0 and valency(g, v) < 3
            ]
            assert CurveDualGraph(g, marks).stability_violations() == want


class TestCurveGenus:
    def test_split_g3(self):
        assert curve_genus(split_curve(3)) == 3

    def test_loop_with_mark_two(self):
        assert curve_genus(CurveDualGraph(loop_graph(), (2,))) == 3

    def test_tree_marks_sum(self):
        x = CurveDualGraph(path_graph(3), (1, 2, 1))
        assert curve_genus(x) == 4


class TestEvenSets:
    def test_compact_type_only_empty(self):
        x = CurveDualGraph(path_graph(3), (1, 1, 1))
        assert [s.bits for s in even_sets(x)] == [0]

    def test_one_nodal_irreducible(self):
        assert sorted(s.bits for s in even_sets(loop_curve(3))) == [0, 1]

    def test_split_g3_even_cardinality(self):
        got = sorted(s.bits for s in even_sets(split_curve(3)))
        expected = [b for b in range(16) if bin(b).count("1") % 2 == 0]
        assert got == expected


class TestSpinReport:
    def test_split_g3_frozen(self):
        # brute-force derivation over all 16 subsets: even sets are those of
        # even cardinality d, each contributing 2^(d-1) components (d>0) at
        # exponent 3-(d-1); checked against the oracle below
        r = spin_report(split_curve(3))
        assert (r.b, r.p, r.genus) == (3, 0, 3)
        assert r.even_set_count == 8
        assert r.component_count == 21
        assert r.multiplicity_multiset == {0: 8, 2: 12, 3: 1}
        assert r.length == 64

    @pytest.mark.parametrize("g_value", range(2, 8))
    def test_b1_family(self, g_value):
        r = spin_report(loop_curve(g_value))
        assert r.multiplicity_multiset == {
            1: 1 << (2 * g_value - 2),
            0: 1 << (2 * g_value - 1),
        }
        assert r.length == 1 << (2 * g_value)

    def test_compact_type_reduced(self, rng):
        for _ in range(10):
            tree = random_tree(rng)
            marks = tuple(rng.randint(0, 3) for _ in range(tree.vertex_count))
            x = CurveDualGraph(tree, marks)
            r = spin_report(x)
            assert r.multiplicity_multiset == {0: 1 << (2 * r.genus)}
            assert r.component_count == 1 << (2 * r.genus)

    def test_report_from_even_set_oracle(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, max_b1=5, max_vertices=5)
            if g.edge_count > 12:
                continue
            marks = tuple(rng.randint(0, 2) for _ in range(g.vertex_count))
            x = CurveDualGraph(g, marks)
            r = spin_report(x)
            p = sum(marks)
            expected_components = 0
            from conftest import subgraph_betti_oracle

            for bits in even_subset_bits_oracle(g):
                expected_components += 1 << (2 * p + subgraph_betti_oracle(g, bits))
            assert r.component_count == expected_components

    def test_isomorphism_invariance(self, rng):
        g = fat_triangle()
        x = CurveDualGraph(g, (1, 0, 2))
        base = spin_report(x)
        for _ in range(5):
            perm = list(range(3))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            marks = [0] * 3
            for v in range(3):
                marks[perm[v]] = x.genus_marks[v]
            other = spin_report(CurveDualGraph(h, tuple(marks)))
            assert other.multiplicity_multiset == base.multiplicity_multiset
            assert other.component_count == base.component_count

    def test_multiset_support_equals_multiplicity_set(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, max_b1=6, max_vertices=6)
            marks = tuple(rng.randint(0, 3) for _ in range(g.vertex_count))
            x = CurveDualGraph(g, marks)
            assert spin_report(x).multiplicity_set_exponents == multiplicity_set(x)


class TestMultiplicitySet:
    @pytest.mark.parametrize("g_value", [3, 5, 7, 9])
    def test_split_odd(self, g_value):
        expected = set(range(0, g_value, 2)) | {g_value}
        assert multiplicity_set(split_curve(g_value)) == expected

    @pytest.mark.parametrize("g_value", [2, 4, 6, 8])
    def test_split_even(self, g_value):
        expected = set(range(1, g_value, 2)) | {g_value}
        assert multiplicity_set(split_curve(g_value)) == expected

    def test_tree_is_reduced(self, rng):
        tree = random_tree(rng)
        marks = tuple(rng.randint(0, 3) for _ in range(tree.vertex_count))
        assert multiplicity_set(CurveDualGraph(tree, marks)) == {0}

    def test_compact_type_iff_reduced(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, max_b1=4, max_vertices=5)
            marks = tuple(rng.randint(0, 2) for _ in range(g.vertex_count))
            x = CurveDualGraph(g, marks)
            assert is_compact_type(x) == (multiplicity_set(x) == {0})


class TestSupportDescription:
    def test_compact_type_empty_set(self):
        x = CurveDualGraph(path_graph(3), (1, 1, 1))
        d = support_description(x, EdgeSubset.empty(2))
        assert d.exceptional_count == 2  # every node blown up
        assert d.multiplicity_exponent == 0
        assert d.gluing_dimension == 0

    def test_b1_case_single_node(self):
        x = loop_curve(4)  # genus 4, loop with mark 3
        d = support_description(x, EdgeSubset.full(1))
        assert d.exceptional_count == 0
        assert d.multiplicity_exponent == 0
        assert d.point_count == 1 << (2 * 4 - 1)

    def test_odd_subset_rejected(self):
        x = split_curve(3)
        with pytest.raises(NotEvenError):
            support_description(x, EdgeSubset.from_indices(4, [0]))


class TestCorollarySplit:
    @pytest.mark.parametrize("g_value", range(2, 7))
    def test_split_curves(self, g_value):
        v = check_corollary_split(split_curve(g_value))
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "split"

    def test_polygonal_genus3(self):
        x = CurveDualGraph(tetrahedron(), (0, 0, 0, 0))
        v = check_corollary_split(x)
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "tetrahedron"

    def test_positive_marks_vacuous(self):
        # b < g, so exponent g is unreachable and the hypothesis is vacuous
        v = check_corollary_split(CurveDualGraph(loop_graph(), (1,)))
        assert v.holds and not v.hypothesis_exercised


class TestCorollaryFinal:
    def test_split_g5(self):
        v = check_corollary_final(split_curve(5))
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "split"

    def test_fat_triangle_genus4(self):
        x = CurveDualGraph(fat_triangle(), (0, 0, 0))
        v = check_corollary_final(x)
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "fat_triangle"

    def test_marked_tetrahedron_genus4(self):
        x = CurveDualGraph(tetrahedron(), (1, 0, 0, 0))
        v = check_corollary_final(x)
        # B = {0, 1}: part (i) is exercised (2 absent) and lands in the
        # tetrahedron branch; part (ii) is vacuous
        assert v.holds and v.hypothesis_exercised
        assert v.classification == "tetrahedron"

    def test_genus_too_small(self):
        with pytest.raises(PreconditionFailedError):
            check_corollary_final(CurveDualGraph(tetrahedron(), (0, 0, 0, 0)))

    def test_needs_superstable(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionFailedError):
            check_corollary_final(CurveDualGraph(g, (2, 2, 0)))


def test_length_identity_random(rng):
    for _ in range(40):
        g = random_connected_graph(rng, max_b1=10, max_vertices=8)
        marks = tuple(rng.randint(0, 3) for _ in range(g.vertex_count))
        r = spin_report(CurveDualGraph(g, marks))
        assert r.length == 1 << (2 * r.genus)
        assert r.even_set_count == 1 << r.b


class TestK33Counterexample:
    """K_{3,3} with zero marks (genus 4) is superstable, omits 2 from B and
    is none of the classes the corollaries allow: both report it."""

    X = CurveDualGraph(build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]), (0,) * 6)

    def test_corollary_split_fails(self):
        v = check_corollary_split(self.X)
        assert (v.holds, v.hypothesis_exercised, v.classification) == (False, True, "other")

    def test_corollary_final_fails(self):
        v = check_corollary_final(self.X)
        assert (v.holds, v.hypothesis_exercised, v.classification) == (False, True, "other")


# One library call on a split curve with a 10^11 genus mark, in a child that
# may map 1 GiB: an answer of 2^(2 * 10^11) would take 25 GB, so building it
# dies there with MemoryError instead of swapping.  The child prints what the
# call raised, its time and its traced allocation peak.
_HUGE_MARK_CALL = """
import json, sys, time, tracemalloc
from spincomb import (
    CurveDualGraph, EdgeSubset, build_graph, even_set_supports, spin_report,
    support_description,
)
x = CurveDualGraph(build_graph(2, [(0, 1), (0, 1)]), (10**11, 0))
call = {
    "spin_report": lambda: spin_report(x),
    "even_set_supports": lambda: even_set_supports(x),  # no next()
    "support_description": lambda: support_description(x, EdgeSubset.full(2)),
}[sys.argv[1]]
tracemalloc.start()
start = time.perf_counter()
try:
    call()
    raised = None
except Exception as exc:
    raised = [type(exc).__name__, str(exc)]
seconds = time.perf_counter() - start
print(json.dumps({"raised": raised, "seconds": seconds, "peak": tracemalloc.get_traced_memory()[1]}))
"""


class TestHugeMarkRefusedOnTheCall:
    REFUSED = {
        "spin_report": "the length 2^200000000002",
        "even_set_supports": "the point count 2^200000000001",
        "support_description": "the point count 2^200000000001",
    }

    @pytest.mark.parametrize("call", sorted(REFUSED))
    def test_refused_before_anything_is_built(self, call):
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(spincomb.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _HUGE_MARK_CALL, call],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "4300"},
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["raised"] == [
            "ValueError",
            f"{self.REFUSED[call]} has more than 4300 digits, too many to print",
        ]
        assert result["seconds"] < 0.1
        assert result["peak"] < 1 << 20
