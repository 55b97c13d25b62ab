"""Machine-check the two classification theorems by exhaustive sweep.

Every connected superstable isomorphism class with at most MAX_EDGES edges
is generated, its cyclic Betti number set computed, and the theorem
conclusions verified whenever the hypotheses hold.

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

for name, report in zip(("first", "second"), sweep_theorems(max_edges)):
    print(
        f"{name} classification sweep to {max_edges} edges: "
        f"{report.graphs_examined} classes, {report.hypothesis_exercised} exercised, "
        f"{len(report.violations)} violations ({report.elapsed:.2f}s)"
    )

print("\nclasses that exercise the first theorem's hypothesis (2 not in B):")
for g in enumerate_multigraphs(max_edges, connected=True, superstable=True):
    v = check_theorems(g)[0]
    if v.hypothesis_exercised:
        print(
            f"  nu={g.vertex_count} delta={g.edge_count} b1={betti_number(g)} "
            f"B={sorted(cyclic_betti_set(g))} -> {classify(g)}"
        )
