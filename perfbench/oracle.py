"""Expected answers, computed without spincomb's code paths.

* split curves: the closed form for component counts and multiplicities;
* cubic curves: a vectorised NumPy enumeration of the cycle space over an
  own spanning tree, with component counts by label propagation;
* multi-block curves: the product of the blocks' Betti polynomials, each
  brute-forced over all 2^delta edge subsets of its template; bridges and
  cut vertices by deleting each edge or vertex and searching again;
* the sweep: Burnside's lemma counts the isomorphism classes, networkx
  proves the listed representatives pairwise non-isomorphic and recognises
  split / loop / K4 / fat-triangle, and B is brute-forced per class.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the output is right.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import comb, factorial
from typing import Dict, Iterable, List, Sequence, Tuple

import networkx as nx
import numpy as np

from inputs import BLOCKS, Curve

Edge = Tuple[int, int]
Poly = List[int]  # Poly[n] = number of even sets with b1 = n


# ---------------------------------------------------------------- helpers


def _betti(edges: Iterable[Edge]) -> int:
    """b1 of the subgraph formed by the given edges (own union-find)."""
    parent: Dict[int, int] = {}

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    count = 0
    cycles = 0
    for a, b in edges:
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = root(a), root(b)
        if ra == rb:
            cycles += 1
        else:
            parent[ra] = rb
        count += 1
    return cycles


def _even(edges: Sequence[Edge]) -> bool:
    deg: Counter = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return all(d % 2 == 0 for d in deg.values())


def brute_polynomial(edges: Sequence[Edge]) -> Poly:
    """Betti polynomial by brute force over all 2^delta edge subsets."""
    flip = [(1 << a) ^ (1 << b) for a, b in edges]
    poly: Counter = Counter()
    odd = 0  # vertices of odd valency, updated along a Gray code
    for step in range(1 << len(edges)):
        if step:
            odd ^= flip[(step & -step).bit_length() - 1]
        if not odd:
            mask = step ^ (step >> 1)
            poly[_betti(e for i, e in enumerate(edges) if mask >> i & 1)] += 1
    return [poly[n] for n in range(max(poly) + 1)]


def poly_mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def spin_from_polynomial(b: int, p: int, poly: Poly) -> dict:
    """The ``spincomb --json spin`` fields implied by a Betti polynomial."""
    multiset = {
        str(b - n): count << (2 * p + n) for n, count in enumerate(poly) if count
    }
    return {
        "b": b,
        "p": p,
        "genus": b + p,
        "even_set_count": sum(poly),
        "component_count": sum(c << (2 * p + n) for n, c in enumerate(poly)),
        "multiplicity_multiset": multiset,
        "multiplicity_set_exponents": sorted(int(e) for e in multiset),
        "length": 1 << (2 * (b + p)),
        "compact_type": b == 0,
    }


def _diff(tag: str, got: dict, want: dict) -> List[str]:
    return [
        f"{tag}: {key} is {got.get(key)!r}, expected {want[key]!r}"
        for key in sorted(want)
        if got.get(key) != want[key]
    ] + [f"{tag}: unexpected field {key!r}" for key in sorted(set(got) - set(want))]


# ------------------------------------------------------------ spin oracles


def split_spin(m: int, p: int) -> dict:
    """Closed form for a split curve with m nodes and total mark p.

    An even set is an even number k of the parallel nodes, with b1 = k - 1
    (or 0 when k = 0); there are C(m, k) of them.
    """
    b = m - 1
    multiset = {str(b): 1 << (2 * p)}
    for k in range(2, m + 1, 2):
        multiset[str(b - (k - 1))] = comb(m, k) << (2 * p + k - 1)
    components = (1 + sum(comb(m, k) << (k - 1) for k in range(2, m + 1, 2))) << (
        2 * p
    )
    return {
        "b": b,
        "p": p,
        "genus": b + p,
        "even_set_count": 1 << b,
        "component_count": components,
        "multiplicity_multiset": multiset,
        "multiplicity_set_exponents": sorted(int(e) for e in multiset),
        "length": 1 << (2 * (b + p)),
        "compact_type": b == 0,
    }


def numpy_polynomial(n: int, edges: Sequence[Edge]) -> Poly:
    """Betti polynomial of a connected loopless graph, all sets at once.

    Basis from a BFS tree rooted at vertex 0; b1(D) = |D| - |V(D)| + c(D)
    with c(D) from min-label propagation over the edges of D.
    """
    if len(edges) > 63:
        raise ValueError("numpy oracle holds edge sets in 64-bit words")
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((i, b))
        adj[b].append((i, a))
    up: Dict[int, Tuple[int, int]] = {0: (-1, -1)}  # vertex -> (parent, edge)
    order = [0]
    for u in order:
        for i, w in adj[u]:
            if w not in up:
                up[w] = (u, i)
                order.append(w)
    tree = {i for _, i in up.values() if i >= 0}

    def to_root(v: int) -> int:
        bits = 0
        while up[v][0] >= 0:
            bits ^= 1 << up[v][1]
            v = up[v][0]
        return bits

    sets = np.zeros(1, dtype=np.uint64)
    for i, (a, b) in enumerate(edges):
        if i not in tree:
            vector = np.uint64(to_root(a) ^ to_root(b) ^ (1 << i))
            sets = np.concatenate([sets, sets ^ vector])
    member = [((sets >> np.uint64(i)) & np.uint64(1)).astype(bool) for i in range(len(edges))]
    size = np.sum(member, axis=0, dtype=np.int64)
    touched = np.zeros((n, sets.size), dtype=bool)
    for i, (a, b) in enumerate(edges):
        touched[a] |= member[i]
        touched[b] |= member[i]
    label = np.repeat(np.arange(n, dtype=np.int16)[:, None], sets.size, axis=1)
    while True:
        before = label.copy()
        for i, (a, b) in itertools.chain(enumerate(edges), reversed(list(enumerate(edges)))):
            low = np.minimum(label[a], label[b])
            label[a] = np.where(member[i], low, label[a])
            label[b] = np.where(member[i], low, label[b])
        if np.array_equal(before, label):
            break
    roots = np.sum(touched & (label == np.arange(n, dtype=np.int16)[:, None]), axis=0)
    betti = size - np.sum(touched, axis=0) + roots
    counts = np.bincount(betti)
    return [int(c) for c in counts]


def expected_spin(curve: Curve) -> dict:
    p = sum(curve.genus_marks)
    if curve.family == "split":
        return split_spin(len(curve.edges), p)
    if curve.family == "cubic":
        poly = numpy_polynomial(curve.vertex_count, curve.edges)
    else:
        poly = multiblock_polynomial(curve)
    return spin_from_polynomial(curve.b1, p, poly)


def check_spin(out: dict, want: dict) -> List[str]:
    return _diff("spin", out, want)


# ----------------------------------------------------- multi-block curves


def multiblock_polynomial(curve: Curve) -> Poly:
    poly = [1]
    for kind in curve.blocks:
        poly = poly_mul(poly, brute_polynomial(BLOCKS[kind][1]))
    return poly


def _connected_without(n: int, edges: Sequence[Edge], vertex=-1, edge=-1) -> int:
    """Number of components after deleting one vertex or one edge."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        if i != edge and vertex not in (a, b):
            adj[a].append(b)
            adj[b].append(a)
    seen = [False] * n
    parts = 0
    for s in range(n):
        if s == vertex or seen[s]:
            continue
        parts += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return parts


def _multigraph(n: int, edges: Sequence[Edge]) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


TEMPLATES = {
    "loop": _multigraph(1, [(0, 0)]),
    "tetrahedron": _multigraph(*BLOCKS["k4"]),
    "fat_triangle": _multigraph(*BLOCKS["fat_triangle"]),
}


def recognise(n: int, edges: Sequence[Edge]) -> Dict[str, bool]:
    """split / loop / tetrahedron / fat_triangle by networkx isomorphism."""
    g = _multigraph(n, edges)
    split = nx.is_isomorphic(g, _multigraph(2, [(0, 1)] * len(edges)))
    found = {"split": split}
    for name, t in TEMPLATES.items():
        found[name] = nx.is_isomorphic(g, t)
    return found


def _superstable(n: int, edges: Sequence[Edge]) -> bool:
    deg = [0] * n
    loops = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        if a == b:
            loops[a] += 1
    return all(d >= 3 or (d == 2 and loops[v] == 1) for v, d in enumerate(deg))


class MultiblockOracle:
    """Expected ``analyze``, ``spin``, ``classify``, ``evensets`` output."""

    def __init__(self, curve: Curve):
        self.curve = curve
        n, edges = curve.vertex_count, curve.edges
        self.poly = multiblock_polynomial(curve)
        self.bset = [k for k, c in enumerate(self.poly) if c]
        self.p = sum(curve.genus_marks)
        base = _connected_without(n, edges)
        self.bridges = sorted(
            f"n{i}"
            for i, (a, b) in enumerate(edges)
            if a != b and _connected_without(n, edges, edge=i) > base
        )
        self.cut_vertices = [
            f"c{v}" for v in range(n) if _connected_without(n, edges, vertex=v) > base
        ]
        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        self.eulerian = all(d % 2 == 0 for d in deg.values())
        self.shape = recognise(n, edges)
        self.superstable = _superstable(n, edges)

    def check_analyze(self, out: dict) -> List[str]:
        c = self.curve
        return _diff(
            "analyze",
            out,
            {
                "edge_count": len(c.edges),
                "vertex_count": c.vertex_count,
                "component_count": 1,
                "betti_number": c.b1,
                "separating_edges": self.bridges,
                "separating_vertices": self.cut_vertices,
                "eulerian": self.eulerian,
                "cyclic_betti_set": self.bset,
            },
        )

    def check_spin(self, out: dict) -> List[str]:
        return check_spin(out, spin_from_polynomial(self.curve.b1, self.p, self.poly))

    def check_classify(self, out: dict) -> List[str]:
        # The generated curves have at least three blocks, so the
        # superstable core has a cut vertex or a bridge and is none of the
        # four named graphs, and 1 + 1 = 2 and 1 + 1 + 1 = 3 lie in B: both
        # theorems hold vacuously (checked against B below).
        b = self.curve.b1
        genus = b + self.p
        exps = {b - m for m in self.bset}
        cor_exercised = genus in exps and (genus - 2) not in exps
        cls = next((k for k, found in self.shape.items() if found), "other")
        want = {
            "superstable": self.superstable,
            "split": self.shape["split"],
            "loop": self.shape["loop"],
            "tetrahedron": self.shape["tetrahedron"],
            "fat_triangle": self.shape["fat_triangle"],
            "via_reduction": not self.superstable,
            "corollary_split": {
                "holds": not cor_exercised
                or self.shape["split"]
                or (genus == 3 and self.shape["tetrahedron"]),
                "classification": cls,
                "hypothesis_exercised": cor_exercised,
                "witness": None,
            },
        }
        problems = _diff("classify", {k: out.get(k) for k in want}, want)
        for tag, needed in (("theorem2", 2), ("theorem3", 3)):
            v = out.get(tag)
            if not isinstance(v, dict):
                problems.append(f"classify: {tag} missing")
                continue
            if needed not in self.bset:
                problems.append(f"classify: oracle expects {needed} in B")
            if (v.get("holds"), v.get("hypothesis_exercised"), v.get("classification")) != (
                True,
                False,
                "other",
            ):
                problems.append(f"classify: {tag} verdict {v!r}")
            w = v.get("witness")
            if not (isinstance(w, list) and len(w) >= needed):
                problems.append(f"classify: {tag} witness {w!r} cannot have b1={needed}")
        return problems

    def check_evensets(self, out: dict) -> List[str]:
        c = self.curve
        sets = out.get("even_sets", [])
        problems = []
        if out.get("count") != 1 << c.b1 or len(sets) != 1 << c.b1:
            problems.append(
                f"evensets: count {out.get('count')} with {len(sets)} sets listed, "
                f"expected {1 << c.b1}"
            )
        index = {f"n{i}": e for i, e in enumerate(c.edges)}
        seen = set()
        poly: Counter = Counter()
        for s in sets:
            names = s.get("edges", [])
            key = tuple(names)
            edges = [index.get(x) for x in names]
            if None in edges or not _even(edges) or key in seen:
                problems.append(f"evensets: {names[:8]}... is not a new even set")
                break
            seen.add(key)
            n1 = _betti(edges)
            poly[n1] += 1
            want = (n1, len(c.edges) - len(names), 1 << (2 * self.p + n1), c.b1 - n1)
            got = tuple(
                s.get(k)
                for k in ("betti", "blown_up_count", "point_count", "multiplicity_exponent")
            )
            if got != want:
                problems.append(f"evensets: set {names[:8]}... reads {got}, expected {want}")
                break
        if [poly[k] for k in range(len(self.poly))] != self.poly:
            problems.append("evensets: b1 histogram differs from the Betti polynomial")
        return problems

    def check(self, command: str, out: dict) -> List[str]:
        return getattr(self, f"check_{command}")(out)


# ------------------------------------------------------------------ sweep


def _partitions(n: int, largest: int = 0) -> Iterable[List[int]]:
    largest = largest or n
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def _connected_superstable(n: int, deg: List[int], edges: List[Edge]) -> bool:
    if any(d < 3 for d in deg):
        return False
    return _connected_without(n, edges) == 1


def burnside_counts(max_edges: int) -> Dict[int, int]:
    """Connected superstable multigraph classes per edge count.

    Burnside's lemma: classes = (1/n!) * sum over permutations of the
    labelled graphs they fix.  A permutation fixes a multigraph iff edge
    multiplicities are constant on its orbits of vertex pairs, so one
    representative per cycle type is enough.  All valencies are at least
    3 (2 * edges >= 3 * vertices), except for the single loop.
    """
    counts = Counter({1: 1})  # the single loop
    for k in range(2, max_edges + 1):  # a bouquet of k loops
        counts[k] += 1
    for n in range(2, 2 * max_edges // 3 + 1):
        fixed = Counter()
        for cycle_type in _partitions(n):
            perm = []
            start = 0
            for length in cycle_type:
                perm += [start + (i + 1) % length for i in range(length)]
                start += length
            size = factorial(n)
            for length, mult in Counter(cycle_type).items():
                size //= length**mult * factorial(mult)
            orbits = []
            todo = {(i, j) for i in range(n) for j in range(i, n)}
            while todo:
                pair = min(todo)
                orbit = []
                while pair in todo:
                    todo.discard(pair)
                    orbit.append(pair)
                    a, b = perm[pair[0]], perm[pair[1]]
                    pair = (min(a, b), max(a, b))
                orbits.append(orbit)
            for delta, c in _fixed_graphs(n, orbits, max_edges).items():
                fixed[delta] += c * size
        for delta, total in fixed.items():
            counts[delta] += total // factorial(n)
    return dict(sorted(counts.items()))


def _fixed_graphs(n: int, orbits: List[List[Edge]], max_edges: int) -> Counter:
    """Count multiplicity assignments, constant per orbit, that give a
    connected graph with all valencies >= 3 and at most max_edges edges."""
    found: Counter = Counter()
    deg = [0] * n
    chosen: List[Edge] = []
    last = {v: i for i, orbit in enumerate(orbits) for pair in orbit for v in pair}
    closes = [[v for v in range(n) if last[v] == i] for i in range(len(orbits))]

    def go(i: int, budget: int) -> None:
        # valencies only grow: prune when a finished vertex is short, or
        # the remaining edges cannot lift every vertex to 3
        if i and any(deg[v] < 3 for v in closes[i - 1]):
            return
        if sum(3 - d for d in deg if d < 3) > 2 * budget:
            return
        if i == len(orbits):
            if _connected_superstable(n, deg, chosen):
                found[len(chosen)] += 1
            return
        orbit = orbits[i]
        mult = 0
        while True:
            go(i + 1, budget)
            if budget < len(orbit):
                break
            for a, b in orbit:
                deg[a] += 1
                deg[b] += 1
                chosen.append((a, b))
            budget -= len(orbit)
            mult += 1
        for _ in range(mult * len(orbit)):
            a, b = chosen.pop()
            deg[a] -= 1
            deg[b] -= 1

    go(0, max_edges)
    return found


def euler_transform(connected: Dict[int, int], max_edges: int) -> int:
    """Multisets of connected classes with 1..max_edges edges in total."""
    ways = [1] + [0] * max_edges
    for size, count in connected.items():
        for _ in range(count):
            for total in range(size, max_edges + 1):
                ways[total] += ways[total - size]
    return sum(ways[1:])


def _invariant(n: int, edges: Sequence[Edge]) -> tuple:
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return (n, len(edges), tuple(sorted(deg.values())), tuple(sorted(Counter(edges).values())))


def _sumset(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(x + y for x in a for y in b)


class SweepOracle:
    """Expected ``spincomb --json verify N`` output.

    ``representatives`` are candidate connected superstable classes (the
    benchmark passes spincomb's list, computed outside the timed region).
    They are accepted only if each is connected, superstable and small
    enough, no two are isomorphic under networkx, and their number per
    edge count equals the Burnside count; together that makes them exactly
    one graph per class, whoever produced them.
    """

    def __init__(self, max_edges: int, representatives: List[Tuple[int, List[Edge]]]):
        self.max_edges = max_edges
        self.connected_counts = burnside_counts(max_edges)
        self.class_count = euler_transform(self.connected_counts, max_edges)
        self.problems = self._validate(representatives)
        comps = []  # (edge count, B, b1, recognisers, index)
        for i, (n, edges) in enumerate(representatives):
            poly = brute_polynomial(edges)
            bset = frozenset(k for k, c in enumerate(poly) if c)
            comps.append((len(edges), bset, len(edges) - n + 1, recognise(n, edges), i))
        self.violations: List[Tuple[int, List[Edge]]] = []
        tallies = Counter()
        for combo in self._multisets(comps):
            edges = sum(c[0] for c in combo)
            bset = frozenset({0})
            for c in combo:
                bset = _sumset(bset, c[1])
            b1 = sum(c[2] for c in combo)
            # a union of two or more components is none of the four
            # connected named graphs
            shape = combo[0][3] if len(combo) == 1 else dict.fromkeys(combo[0][3], False)
            ex2 = 2 not in bset
            ok2 = shape["split"] or (b1 == 1 and shape["loop"]) or (b1 == 3 and shape["tetrahedron"])
            ex3 = 3 not in bset and any(m > 3 for m in bset)
            ok3 = b1 == 4 and shape["fat_triangle"]
            tallies["examined"] += 1
            tallies["ex2"] += ex2
            tallies["bad2"] += ex2 and not ok2
            tallies["ex3"] += ex3
            tallies["bad3"] += ex3 and not ok3
            if ex2 and not ok2 and len(combo) == 1:
                self.violations.append(representatives[combo[0][4]])
        self.tallies = tallies
        if tallies["examined"] != self.class_count:
            self.problems.append("sweep oracle: union count differs from the Euler transform")

    def _validate(self, reps: List[Tuple[int, List[Edge]]]) -> List[str]:
        problems = []
        per_size = Counter(len(e) for _, e in reps)
        if dict(sorted(per_size.items())) != self.connected_counts:
            problems.append(
                f"sweep oracle: classes per edge count {dict(sorted(per_size.items()))}, "
                f"Burnside gives {self.connected_counts}"
            )
        buckets: Dict[tuple, List[nx.MultiGraph]] = {}
        for n, edges in reps:
            if not (
                len(edges) <= self.max_edges
                and _superstable(n, edges)
                and _connected_without(n, edges) == 1
            ):
                problems.append(f"sweep oracle: {edges} is not a connected superstable class")
            g = _multigraph(n, edges)
            same = buckets.setdefault(_invariant(n, edges), [])
            if any(nx.is_isomorphic(g, h) for h in same):
                problems.append(f"sweep oracle: {edges} is listed twice")
            same.append(g)
        return problems

    def _multisets(self, comps):
        order = sorted(range(len(comps)), key=lambda i: comps[i][0])

        def go(start: int, budget: int, acc):
            if acc:
                yield acc
            for k in range(start, len(order)):
                c = comps[order[k]]
                if c[0] > budget:
                    break
                yield from go(k, budget - c[0], acc + [c])

        yield from go(0, self.max_edges, [])

    def expected(self) -> dict:
        t = self.tallies

        def block(ex: int, bad: int) -> dict:
            return {
                "graphs_examined": t["examined"],
                "hypothesis_exercised": ex,
                "vacuous": t["examined"] - ex,
                "violations": bad,
            }

        return {
            "max_edges": self.max_edges,
            "theorem2": block(t["ex2"], t["bad2"]),
            "theorem3": block(t["ex3"], t["bad3"]),
        }

    def expected_status(self) -> int:
        return 1 if self.tallies["bad2"] or self.tallies["bad3"] else 0

    def check(self, out: dict, status: int) -> List[str]:
        want = self.expected()
        got = {"max_edges": out.get("max_edges")}
        for tag in ("theorem2", "theorem3"):
            part = dict(out.get(tag) or {})
            part.pop("elapsed_seconds", None)
            got[tag] = part
        problems = _diff("verify", got, want)
        if status != self.expected_status():
            problems.append(f"verify: exit status {status}, expected {self.expected_status()}")
        return problems


def parse_json(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("CLI output is not a JSON object")
    return data
