"""Memory linear in the curve: the cycle basis and the cycle-space pass on
long rings, the file commands on a written ring, a refusal past the
enumeration cap that builds no basis vector, an uncapped basis that builds
nothing the walk alone reads, and an even-set listing that streams.  The
enumerator's class table holds one copy of each class and one tuple per
vertex pair.

Peaks are Python allocations traced by tracemalloc.  A ring of m edges has
b1 = 1, so nothing in the answer grows faster than m; one m-bit int per
vertex or per edge makes the peak quadratic (16x for a 4x longer ring,
against 4x when linear).  Tracing slows allocation about tenfold, so the
rings stay small.
"""

import contextlib
import io
import sys
import tracemalloc

import pytest

from spincomb import (
    CurveDualGraph,
    betti_profile,
    build_graph,
    cycle_basis,
    cyclic_betti_set,
    format_curve_file,
)
from spincomb import enumeration
from spincomb.cli import main
from spincomb.errors import CapExceededError

from conftest import cycle_graph

#: Ring lengths for the library calls and for the file commands.  Below
#: about 1,500 edges a command's peak reads superlinear even when linear,
#: since the interpreter caches the ints up to 256 that label the first ones.
RINGS = (1000, 4000)
FILE_RINGS = (1500, 6000)

#: The b1 of the split curves listed by evensets: 256 and 2,048 even sets.
LISTING_B1 = (8, 11)

#: A 4x longer ring may take this many times the memory: 4 when linear,
#: plus slack for list over-allocation and those cached ints.
GROWTH = 5.8

#: Bytes per class that the general 8-edge connected build may peak at,
#: built from an empty cache: about 275 with one shared tuple per vertex
#: pair and the cached classes yielded as they are, about 1,300 with a
#: tuple per edge and a second copy of each class made on the way out.
CLASS_BYTES = 500


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid(k: int):
    """The k x k grid: 2 k (k - 1) edges, b1 = (k - 1)^2."""
    at = [[i * k + j for j in range(k)] for i in range(k)]
    edges = [(at[i][j], at[i][j + 1]) for i in range(k) for j in range(k - 1)]
    edges += [(at[i][j], at[i + 1][j]) for i in range(k - 1) for j in range(k)]
    return build_graph(k * k, edges)


@pytest.mark.parametrize("call", [betti_profile, cycle_basis], ids=lambda f: f.__name__)
def test_cycle_space_of_a_ring_is_linear(call):
    rings = [cycle_graph(m) for m in RINGS]
    small, large = (traced_peak(lambda: call(g)) for g in rings)
    assert large < GROWTH * small, (small, large)


@pytest.mark.parametrize("command", ["spin", "analyze"])
def test_file_command_on_a_ring_is_linear(command, tmp_path, capsys):
    peaks, codes = [], []
    for m in FILE_RINGS:
        path = tmp_path / f"ring{m}.curve"
        path.write_text(format_curve_file(CurveDualGraph(cycle_graph(m), (0,) * m)))
        peaks.append(traced_peak(lambda: codes.append(main([command, str(path)]))))
    assert codes == [0, 0], capsys.readouterr().err
    small, large = peaks
    assert large < GROWTH * small, (small, large)


def test_refusal_builds_no_vector():
    """The cap is checked on the smoothed core before any basis vector or
    class mask exists, so refusing costs one smoothing pass: a few hundred
    bytes per edge.  Building the basis first took about 1 KB per edge on
    this grid, and 193 MB on the 150 x 150 one."""
    g = grid(70)  # 9,660 edges, b1 = 4,761
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            cyclic_betti_set(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * g.edge_count


def test_uncapped_basis_builds_no_class_bits():
    """Only the coefficient walk reads the basis in class bits, and it asks
    for a capped basis; cycle_basis builds neither the class-bit forest
    paths nor those vectors, so it peaks within a small multiple of the
    vectors it returns.  Building them read 4.8x on this grid."""
    g = grid(60)  # 7,080 edges, b1 = 3,481
    tracemalloc.start()
    try:
        basis = cycle_basis(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vectors = sum(sys.getsizeof(v.bits) for v in basis.basis_vectors)
    assert peak < 3.5 * vectors, (peak, vectors)


class ByteCount(io.TextIOBase):
    """A stdout that keeps nothing of what is written but its length."""

    def __init__(self):
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_evensets_listing_streams(flags, tmp_path):
    """Each even set is written as it is read, so 8x as many sets may not
    take 2x the memory; a listing built whole first grows 8x."""
    peaks, codes, sizes = [], [], []
    for b1 in LISTING_B1:
        path = tmp_path / f"split{b1}.curve"
        path.write_text(format_curve_file(CurveDualGraph(build_graph(2, [(0, 1)] * (b1 + 1)), (0, 0))))
        out = ByteCount()
        with contextlib.redirect_stdout(out):
            peaks.append(traced_peak(lambda: codes.append(main(flags + ["evensets", str(path)]))))
        sizes.append(out.count)
    assert codes == [0, 0]
    assert sizes[1] > 8 * sizes[0]
    small, large = peaks
    assert large < 2 * small, (small, large)


def test_class_table_is_compact():
    enumeration._connected_classes.cache_clear()
    counts = []
    peak = traced_peak(lambda: counts.append(
        sum(1 for _ in enumeration.enumerate_multigraphs(8, connected=True))))
    assert counts == [6460]
    assert peak < CLASS_BYTES * 6460, peak


def test_class_table_shares_each_pair():
    """Every key of the general 8-edge build and every class of the 6-edge
    enumeration with disconnected ones holds the one tuple of each pair, so
    no two of their pairs are equal but distinct objects."""
    keys = [g.edges for g in enumeration._connected_classes(8, False)]
    keys += [g.edges for g in enumeration.enumerate_multigraphs(6)]
    pairs = [p for key in keys for p in key]
    assert len({id(p) for p in pairs}) == len(set(pairs))
