"""Machine-check the two classification theorems by exhaustive sweep.

Every superstable isomorphism class with at most max_edges edges is
generated, disjoint unions of superstable graphs included (1,396 of the
2,835 classes at 9 edges), its cyclic Betti number set B computed once,
and the theorem conclusions verified whenever the hypotheses hold.  Each
violating class is printed with its B, read from the sweep's one report.

Run from the repository root::

    python3 demos/03_theorem_sweeps.py [max_edges]
"""

import sys

from spincomb import (
    betti_number,
    check_theorems,
    classify,
    cyclic_betti_set,
    enumerate_multigraphs,
    sweep_theorems,
)

max_edges = int(sys.argv[1]) if len(sys.argv) > 1 else 7

report = sweep_theorems(max_edges)
print(f"sweep to {max_edges} edges: {report.graphs_examined} classes ({report.elapsed:.2f}s)")
for i, name in enumerate(("first", "second")):
    print(
        f"{name} classification: {report.hypothesis_exercised[i]} exercised, "
        f"{len(report.violations[i])} violations"
    )
    for key, betti_set, verdict in report.violations[i]:
        print(f"  violated by {key}: B={sorted(betti_set)}, {verdict.classification}")

print("\nclasses that exercise the first theorem's hypothesis (2 not in B):")
for g in enumerate_multigraphs(max_edges, connected=True, superstable=True):
    v = check_theorems(g)[0]
    if v.hypothesis_exercised:
        print(
            f"  nu={g.vertex_count} delta={g.edge_count} b1={betti_number(g)} "
            f"B={sorted(cyclic_betti_set(g))} -> {classify(g)}"
        )
