"""Reduce a graph to its superstable core while preserving b1 and B.

Run from the repository root::

    python3 demos/04_reduction.py
"""

import random

from spincomb import (
    betti_number,
    build_graph,
    classify,
    cyclic_betti_set,
    eliminate_valency1,
    is_superstable,
    smooth_valency2,
    superstable_reduction,
    valency,
)

# a triangle with a pendant path: not superstable (valency-1 and -2 vertices)
g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
print(f"start: nu={g.vertex_count} delta={g.edge_count} superstable={is_superstable(g)}")
print(f"  b1={betti_number(g)}  B={sorted(cyclic_betti_set(g))}")

core = superstable_reduction(g)
print(f"core:  nu={core.vertex_count} delta={core.edge_count} "
      f"superstable={is_superstable(core)} ({classify(core)})")
print(f"  b1={betti_number(core)}  B={sorted(cyclic_betti_set(core))}")

# the result does not depend on the order the local moves are applied in
for seed in range(5):
    rng, out = random.Random(seed), g
    # the vertices operation 1 or 2 applies to; never the vertex of a loop
    while moves := [v for v in range(out.vertex_count) if valency(out, v) == 1
                    or valency(out, v) == 2 and (v, v) not in out.edges]:
        v = rng.choice(moves)
        out = (eliminate_valency1 if valency(out, v) == 1 else smooth_valency2)(out, v)
    assert out.edges == core.edges, "reduction should be order-insensitive"
print("five randomized application orders all reach the same core")
