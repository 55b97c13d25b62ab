"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS line (with its runtime) through the
capture-disabled channel so the summary is visible in normal pytest runs.
Budgets are asserted, not just reported.
"""

import math
import random
import time

from spincomb import (
    CurveDualGraph,
    EdgeSubset,
    betti_number,
    build_graph,
    check_theorems,
    contract_separating_edge,
    cyclic_betti_set,
    cyclic_sets,
    eliminate_valency1,
    enumerate_multigraphs,
    induced_subgraph,
    is_eulerian,
    is_superstable,
    multiplicity_set,
    separating_edges,
    smooth_valency2,
    spin_report,
    superstable_reduction,
    sweep_theorems,
    valency,
)

from conftest import (
    are_isomorphic,
    even_subset_bits_oracle,
    fat_triangle,
    loop_graph,
    random_connected_graph,
    random_order_reduction,
    split_graph,
    subgraph_betti_oracle,
    tetrahedron,
)


def _report(capsys, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label} exceeded {budget}s budget ({elapsed:.1f}s)"
    with capsys.disabled():
        print(f"\n{label}: PASS ({elapsed:.2f}s, budget {budget}s)")


def test_criterion_01_length_identity(capsys):
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        while True:
            g = random_connected_graph(rng, max_b1=12, max_vertices=8)
            if betti_number(g) <= 12:
                break
        marks = tuple(rng.randint(0, 3) for _ in range(g.vertex_count))
        r = spin_report(CurveDualGraph(g, marks))
        assert r.length == 1 << (2 * r.genus)
    _report(capsys, "criterion 01 length identity over 200 random curves", started, 30)


def test_criterion_02_split_closed_form(capsys):
    started = time.perf_counter()
    for g_value in range(2, 11):
        x = CurveDualGraph(split_graph(g_value + 1), (0, 0))
        r = spin_report(x)
        expected = {g_value: 1}
        for d in range(2, g_value + 2, 2):
            expected[g_value - d + 1] = math.comb(g_value + 1, d) << (d - 1)
        assert r.multiplicity_multiset == expected
        if g_value % 2 == 1:
            exps = set(range(0, g_value, 2)) | {g_value}
        else:
            exps = set(range(1, g_value, 2)) | {g_value}
        assert {1 << e for e in multiplicity_set(x)} == {1 << e for e in exps}
    _report(capsys, "criterion 02 split-curve closed form g=2..10", started, 5)


def test_criterion_03_b1_family(capsys):
    started = time.perf_counter()
    for g_value in range(2, 11):
        r = spin_report(CurveDualGraph(loop_graph(), (g_value - 1,)))
        assert r.multiplicity_multiset[1] == 1 << (2 * g_value - 2)
        assert r.multiplicity_multiset[0] == 1 << (2 * g_value - 1)
        assert set(r.multiplicity_multiset) == {0, 1}
    _report(capsys, "criterion 03 one-node family g=2..10", started, 1)


def test_criterion_04_compact_type(capsys):
    started = time.perf_counter()
    rng = random.Random(104)
    trees = [
        g
        for g in enumerate_multigraphs(5, connected=True)
        if betti_number(g) == 0
    ]
    assert trees
    for g in trees:
        marks = tuple(rng.randint(1, 3) for _ in range(g.vertex_count))
        x = CurveDualGraph(g, marks)
        r = spin_report(x)
        assert {1 << e for e in multiplicity_set(x)} == {1}
        assert r.component_count == 1 << (2 * r.genus)
    checked = 0
    while checked < 100:
        g = random_connected_graph(rng, max_b1=6, max_vertices=6)
        if betti_number(g) == 0:
            continue
        marks = tuple(rng.randint(0, 2) for _ in range(g.vertex_count))
        assert {1 << e for e in multiplicity_set(CurveDualGraph(g, marks))} != {1}
        checked += 1
    _report(capsys, "criterion 04 reducedness iff compact type", started, 10)


def test_criterion_05_even_set_count(capsys):
    started = time.perf_counter()
    rng = random.Random(105)
    checked = 0
    while checked < 100:
        g = random_connected_graph(rng, max_b1=8, max_vertices=6)
        if g.edge_count > 12:
            continue
        sets = {s.bits for s in cyclic_sets(g)}
        assert len(sets) == 1 << betti_number(g)
        assert sorted(sets) == even_subset_bits_oracle(g)
        checked += 1
    _report(capsys, "criterion 05 even-set count 2^b1 on 100 graphs", started, 60)


def _p5_union(rng, g1, g2, shared):
    edges = list(g1.edges)
    if shared:
        v1 = rng.randrange(g1.vertex_count)
        v2 = rng.randrange(g2.vertex_count)
        offset = g1.vertex_count
        remap = lambda v: v1 if v == v2 else offset + v - (1 if v > v2 else 0)
        edges += [tuple(sorted((remap(a), remap(b)))) for a, b in g2.edges]
        nu = g1.vertex_count + g2.vertex_count - 1
    else:
        offset = g1.vertex_count
        edges += [(a + offset, b + offset) for a, b in g2.edges]
        nu = g1.vertex_count + g2.vertex_count
    return build_graph(nu, edges)


def test_criterion_06_property_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(106)
    corpus = list(enumerate_multigraphs(6, connected=False))
    corpus += [random_connected_graph(rng, max_b1=6, max_vertices=6) for _ in range(200)]
    for g in corpus:
        b1 = betti_number(g)
        members = cyclic_betti_set(g)
        assert max(members) <= b1  # P1
        assert 0 in members  # P2
        assert (members == {0}) == (b1 == 0) == (1 not in members)  # P3
        bits = rng.getrandbits(g.edge_count) if g.edge_count else 0
        sub = induced_subgraph(g, EdgeSubset(bits, g.edge_count))
        if sub.vertex_count:
            assert cyclic_betti_set(sub) <= members  # P4
        bridges = separating_edges(g)
        full_minus_bridges = EdgeSubset.full(g.edge_count) ^ bridges
        from spincomb import is_cyclic

        for s in cyclic_sets(g):
            assert not s.intersects(bridges)  # P6
        assert (b1 in members) == is_cyclic(g, full_minus_bridges)  # P7
        assert is_eulerian(g) == (not bridges and b1 in members)  # P8
    small = [g for g in corpus[:400] if g.edge_count <= 5]
    for _ in range(200):  # P5
        g1, g2 = rng.choice(small), rng.choice(small)
        union = _p5_union(rng, g1, g2, shared=rng.random() < 0.5)
        sumset = {
            n1 + n2
            for n1 in cyclic_betti_set(g1)
            for n2 in cyclic_betti_set(g2)
        }
        assert cyclic_betti_set(union) == sumset
    _report(capsys, "criterion 06 properties P1-P8 over corpus", started, 120)


def test_criterion_07_theorem2_sweep(capsys):
    started = time.perf_counter()
    report = sweep_theorems(8)[0]
    assert report.violations == ()
    assert report.hypothesis_exercised >= 3
    for g in (loop_graph(), tetrahedron(), split_graph(4), split_graph(8)):
        assert g.edge_count <= 8  # hence part of the sweep
        assert check_theorems(g)[0].hypothesis_exercised
    _report(capsys, "criterion 07 first classification sweep to 8 edges", started, 600)


def test_criterion_08_theorem3_sweep(capsys):
    started = time.perf_counter()
    report = sweep_theorems(8)[1]
    assert report.violations == ()
    assert report.hypothesis_exercised >= 1
    v = check_theorems(fat_triangle())[1]
    assert v.hypothesis_exercised and v.holds
    assert cyclic_betti_set(fat_triangle()) == {0, 1, 2, 4}
    _report(capsys, "criterion 08 second classification sweep to 8 edges", started, 600)


def test_criterion_09_invariance_and_reduction(capsys):
    started = time.perf_counter()
    reducible = []
    for g in enumerate_multigraphs(7, connected=True):
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
        for eid in separating_edges(g).indices():
            out = contract_separating_edge(g, eid)
            assert (betti_number(out), cyclic_betti_set(out)) == before
        if before[0] >= 1 and g.edge_count <= 6:
            reducible.append(g)
    sample = reducible[:: max(1, len(reducible) // 60)]
    for g in sample:
        reference = superstable_reduction(g)
        assert superstable_reduction(reference) == reference
        assert is_superstable(reference)
        for seed in range(20):
            out = random_order_reduction(g, random.Random(seed))
            assert are_isomorphic(out, reference)
    _report(capsys, "criterion 09 invariance of b1 and B under reductions", started, 300)


def test_criterion_10_frozen_betti_sets(capsys):
    started = time.perf_counter()
    assert cyclic_betti_set(fat_triangle()) == {0, 1, 2, 4}
    k4 = tetrahedron()
    assert cyclic_betti_set(k4) == {0, 1}
    brute = {subgraph_betti_oracle(k4, bits) for bits in even_subset_bits_oracle(k4)}
    assert brute == {0, 1}
    _report(capsys, "criterion 10 frozen cyclic Betti sets", started, 1)
