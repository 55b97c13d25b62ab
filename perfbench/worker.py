"""The benchmark's client process: runs spincomb CLI invocations in-process.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the
checkout's ``src`` directory, the argument lists of one pass, the seconds
to spend, and the tracing mode: ``off``, ``alternate`` (untraced and traced
passes in turn) or ``once`` (a single traced pass, for a cold process),
and how often to time the reference computation during untraced passes.
One client, closed loop: each invocation starts when the previous one
returned.  The worker writes the first pass's outputs to ``out_dir`` for the
oracles and a result file with per-call latencies, exit statuses, output
digests and span statistics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
from spans import Tracer


class Sampler:
    """Times the reference computation from a wall-clock timer signal every
    ``interval`` seconds (none if 0) while the timed work runs, so that the
    machine's speed is known for the same moments as the work.  Python runs
    the handler between bytecodes of the main thread, in the middle of
    spincomb's code; the callers subtract its time from what they time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.units = 0
        self.seconds = 0.0
        self.busy = False

    def _tick(self, signum, frame) -> None:
        if not self.busy:  # a slow unit must not nest another one
            self.busy = True
            self.seconds += reference.measure()
            self.units += 1
            self.busy = False

    def __enter__(self) -> "Sampler":
        if self.interval:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)


def run_pass(cli, invocations, out_dir=None, interval: float = 0) -> dict:
    """One pass; call times exclude the reference units sampled inside them."""
    with Sampler(interval) as sampler:
        calls = [run_call(cli, argv, sampler, out_dir and Path(out_dir, f"{i}.out"))
                 for i, argv in enumerate(invocations)]
    return {
        "run_s": sum(c["s"] for c in calls),
        "calls": calls,
        "ref_units": sampler.units,
        "ref_s": sampler.seconds,
    }


def run_call(cli, argv, sampler: Sampler, out_path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    sampled = sampler.seconds
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code
    except Exception:  # a crash is a failed operation, not a stop
        status = None
        error = traceback.format_exc()
    elapsed = perf_counter() - start - (sampler.seconds - sampled)
    data = out.getvalue().encode()
    if out_path is not None:
        out_path.write_bytes(data)
    return {
        "s": elapsed,
        "status": status,
        "error": error or err.getvalue() or None,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def traced_pass(cli, tracer: Tracer, invocations, out_dir=None) -> dict:
    tracer.install()
    tracer.reset()
    p = run_pass(cli, invocations, out_dir)
    p["trace"] = tracer.snapshot()
    tracer.uninstall()
    return p


def more_passes(spent: float, rounds: int, seconds: float) -> bool:
    """Start another round of passes while it would end nearer ``seconds``
    than stopping now, judged by the mean round so far; a run then measures
    ``seconds`` on average rather than up to a round more."""
    return rounds == 0 or spent + 0.5 * spent / rounds < seconds


def run_passes(cli, job) -> dict:
    """Passes until their summed run time is about the job's seconds.

    ``alternate`` makes at least two pairs, so that both sides of the
    tracing overhead see the same machine.
    """
    result = {"untraced": [], "traced": [], "kernel": None}
    tracer = Tracer()
    if job["trace"] == "once":
        result["traced"].append(traced_pass(cli, tracer, job["invocations"], job["out_dir"]))
        return result
    pairs = job["trace"] == "alternate"
    spent = 0.0
    while (more_passes(spent, len(result["untraced"]), job["seconds"])
           or (pairs and len(result["traced"]) < 2)):
        first = not result["untraced"]
        p = run_pass(cli, job["invocations"], job["out_dir"] if first else None,
                     job["interval"])
        result["untraced"].append(p)
        spent += p["run_s"]
        if pairs:
            p = traced_pass(cli, tracer, job["invocations"])
            result["traced"].append(p)
            spent += p["run_s"]
    if pairs and job.get("kernel"):
        tracer.install()
        result["kernel"] = kernel_split(job["kernel"], tracer)
        tracer.uninstall()
    return result


def kernel_split(path: str, tracer: Tracer) -> dict:
    """Time the layers under spin_report as separate calls on one curve."""
    from spincomb import curvefile, cycles, graphs

    g = curvefile.parse_curve(Path(path).read_text(encoding="utf-8")).to_dual_graph().graph
    tracer.reset()
    cycles.cycle_basis(g)
    sets = list(cycles.cyclic_sets(g))
    for s in sets:
        graphs.subset_betti(g, s)
    return tracer.snapshot()


def peak_rss_kib() -> int:
    """This process's resident high-water mark.  ru_maxrss would not do: a
    child's includes its parent's size when it was forked."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import spincomb.cli as cli

    result = run_passes(cli, job)
    result["peak_rss_mb"] = peak_rss_kib() / 1024
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
