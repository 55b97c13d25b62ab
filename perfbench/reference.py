"""A fixed pure-Python computation that times the machine, not spincomb.

The benchmark's host is a small VM whose speed drifts by tens of percent
from one minute to the next as its neighbours come and go.  Timing this
computation next to each timed piece of work gives the machine's speed at
that moment; ``scale`` turns it into the factor that brings a wall time to
what it would read at the reference speed, where one unit takes ``UNIT_S``.

The computation mixes integer arithmetic, dict updates, list appends and
short string work, like spincomb's inner loops, and runs with the cyclic
garbage collector off, so that its cost does not depend on what the process
has allocated before.  Nothing here imports spincomb.
"""

from __future__ import annotations

import gc
from time import perf_counter

ITERATIONS = 80_000
UNIT_S = 0.045  # median seconds of one unit on the 2-vCPU Xeon VM (KVM) the benchmark was tuned on


def _unit() -> int:
    acc = 0
    counts: dict = {}
    bits = []
    for i in range(ITERATIONS):
        x = (i * 2654435761) & 0xFFFFF
        acc ^= x >> 3
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        bits.append(bin(x).count("1"))
    return acc + len(counts) + sum(bits)


def measure(units: int = 1) -> float:
    """Wall seconds that ``units`` repeats of the computation take now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(units):
            _unit()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(units: int, seconds: float) -> float:
    """Factor from wall time to reference time, given that ``units`` units
    of the computation took ``seconds`` around the timed work."""
    return units * UNIT_S / seconds
