"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a :class:`Curve`:
the text that spincomb reads plus the structure the generator knows, which
the oracles in ``oracle.py`` use instead of spincomb's own answers.  Nothing
here imports spincomb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

Edge = Tuple[int, int]

# Block templates for multi-block curves: vertex count and edge list.  The
# Betti polynomial of each is brute-forced by the oracle, never tabulated.
BLOCKS = {
    "loop": (1, [(0, 0)]),
    "banana2": (2, [(0, 1)] * 2),
    "banana3": (2, [(0, 1)] * 3),
    "banana4": (2, [(0, 1)] * 4),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "fat_triangle": (3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]),
}


@dataclass
class Curve:
    """A marked dual graph with the facts its generator guarantees."""

    name: str
    family: str  # split | cubic | multiblock
    genus_marks: List[int]
    edges: List[Edge]
    # multiblock only: the unsubdivided templates whose Betti polynomials
    # multiply to the curve's Betti polynomial
    blocks: List[str] = field(default_factory=list)

    @property
    def vertex_count(self) -> int:
        return len(self.genus_marks)

    @property
    def b1(self) -> int:
        # every generator emits a connected graph
        return len(self.edges) - self.vertex_count + 1

    def text(self) -> str:
        lines = [f"# {self.family} curve {self.name}"]
        lines += [f"v c{v} genus={m}" for v, m in enumerate(self.genus_marks)]
        lines += [f"e n{i} c{a} c{b}" for i, (a, b) in enumerate(self.edges)]
        return "\n".join(lines) + "\n"


def _marks(rng: random.Random, n: int, marked: int) -> List[int]:
    marks = [0] * n
    for v in rng.sample(range(n), marked):
        marks[v] = rng.choice((1, 2))
    return marks


def split_curve(rng: random.Random, name: str, b1: int, marked: int) -> Curve:
    """Two components joined at b1 + 1 nodes."""
    return Curve(name, "split", _marks(rng, 2, marked), [(0, 1)] * (b1 + 1))


def cubic_curve(rng: random.Random, name: str, b1: int, marked: int) -> Curve:
    """A uniformly paired, simple, 2-connected cubic graph with the given b1.

    Pairing model with rejection; vertex labels are shuffled so that the
    edge order carries no structure.
    """
    n = 2 * (b1 - 1)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]
        if any(a == b for a, b in edges) or len(set(edges)) != len(edges):
            continue
        if _biconnected(n, edges):
            break
    rng.shuffle(edges)
    return Curve(name, "cubic", _marks(rng, n, marked), edges)


def _biconnected(n: int, edges: List[Edge]) -> bool:
    """Connected after deleting any one vertex (brute force)."""
    for cut in range(n):
        adj = [[] for _ in range(n)]
        for a, b in edges:
            if cut not in (a, b):
                adj[a].append(b)
                adj[b].append(a)
        start = 1 if cut == 0 else 0
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n - 1:
            return False
    return True


def multiblock_curve(
    rng: random.Random, name: str, kinds: List[str], vertex_count: int, cycle_edges: int
) -> Curve:
    """The given blocks, in random order, joined into a tree of blocks.

    Each block after the first is glued at a cut vertex or hung on a bridge
    from a random earlier vertex.  Block edges are then subdivided evenly
    until there are cycle_edges of them; half of the remaining components
    subdivide bridges and tree edges and the rest grow trees, until there
    are exactly vertex_count components.  Every non-bridge edge lies in
    half of the 2^b1 even sets, so fixing the blocks and the sizes fixes
    the work per curve whatever the seed.
    """
    marks: List[int] = []
    edges: List[Edge] = []
    in_block: List[bool] = []
    blocks = rng.sample(kinds, len(kinds))
    for kind in blocks:
        n, template = BLOCKS[kind]
        place = [len(marks) + i for i in range(n)]
        if marks:
            anchor = rng.randrange(len(marks))
            if rng.random() < 0.5:  # glue at a cut vertex
                place = [anchor] + [p - 1 for p in place[1:]]
            else:  # hang on a bridge
                edges.append((anchor, place[0]))
                in_block.append(False)
        edges.extend((place[a], place[b]) for a, b in template)
        in_block.extend([True] * len(template))
        marks.extend([0] * (max(place) + 1 - len(marks)))
    if sum(in_block) > cycle_edges or len(marks) + cycle_edges - sum(in_block) > vertex_count:
        raise ValueError("sizes too small for the blocks")

    def subdivide(i: int) -> None:
        a, b = edges[i]
        mid = len(marks)
        marks.append(0)
        edges[i] = (a, mid)
        edges.append((mid, b))
        in_block.append(in_block[i])

    originals = [i for i, x in enumerate(in_block) if x]
    rng.shuffle(originals)
    for k in range(cycle_edges - len(originals)):
        subdivide(originals[k % len(originals)])
    extra = vertex_count - len(marks)
    for k in range(extra):
        others = [i for i, x in enumerate(in_block) if not x]
        if k < extra // 2 and others:
            subdivide(rng.choice(others))
        else:  # grow a tree leaf
            edges.append((rng.randrange(len(marks)), len(marks)))
            in_block.append(False)
            marks.append(0)
    for v in rng.sample(range(len(marks)), len(marks) // 10):
        marks[v] = rng.choice((1, 2))
    perm = list(range(len(marks)))
    rng.shuffle(perm)
    new_marks = [0] * len(marks)
    for old, new in enumerate(perm):
        new_marks[new] = marks[old]
    edges = [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges]
    rng.shuffle(edges)
    return Curve(name, "multiblock", new_marks, edges, blocks)
