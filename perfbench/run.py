"""spincomb benchmark: one seeded workload per run, checked against oracles.

    python3 perfbench/run.py --workload {sweep,spin,curves} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a spincomb checkout; it imports ``src/spincomb``
from there and from nowhere else.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give each metric's median, quartiles
and sample count, and every ratio with its base.  Times in the end-to-end
metrics are scaled to the reference speed of ``reference.py``, timed beside
them; the unscaled wall times are printed too.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from scipy.special import betainc

import inputs
import oracle
import reference
from worker import more_passes

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SWEEP_EDGES = 9
SETUP_SAMPLES = 15
REF_INTERVAL = 0.5  # seconds between reference units sampled in untraced passes
CHILD_TIMEOUT = 150.0  # seconds; the whole run must end within 180


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: List[str], stdout: Path, deadline: float) -> dict:
    """Run a child to completion; wall seconds and exit status.

    The parent blocks in wait (polling would wake it hundreds of times a
    second beside the measured child, and a timed wait polls on a doubling
    schedule that quantises short timings); an interval timer kills the
    child at the deadline.
    """
    killed = []

    def on_alarm(signum, frame):
        killed.append(True)
        proc.kill()

    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
            status = proc.wait()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    if killed:
        raise TimeoutError(f"{argv[1:]} ran past the deadline")
    return {
        "s": wall,
        "status": status,
        "stderr": stdout.with_suffix(".err").read_text(errors="replace"),
    }


def setup_times(work: Path, deadline: float) -> Tuple[List[float], float]:
    """Fresh interpreter importing spincomb and its CLI, several times, and
    the reference scale timed between them."""
    argv = [sys.executable, "-c", "import spincomb, spincomb.cli"]
    times, ref_s = [], 0.0
    for i in range(SETUP_SAMPLES + 1):  # the first one writes bytecode
        if i:
            ref_s += reference.measure()
        child = spawn(argv, work / "setup.out", deadline)
        if child["status"] != 0:
            raise RuntimeError(f"importing spincomb failed:\n{child['stderr']}")
        if i:
            times.append(child["s"])
    ref_s += reference.measure()
    return times, reference.scale(SETUP_SAMPLES + 1, ref_s)


# ------------------------------------------------------------ statistics


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by a beta distribution centred on rank p.

    Call latencies cluster by subcommand, and on ``curves`` half the calls
    are light and half heavy; the usual estimate then interpolates between
    the two samples either side of the gap, and jumps with them.
    """
    xs = sorted(values)
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), xs))


def tail(values: List[float]) -> float:
    """The 90th percentile.  A percentile chosen by sample count (the
    highest with ten samples beyond it) would move with the number of
    passes that fit in a run; p90 stays put."""
    return hd_quantile(values, 0.9)


def beyond_p90(values: List[float]) -> str:
    over = sum(v > tail(values) for v in values)
    return f"Harrell-Davis p90 of {len(values)} calls, {over} beyond it"


def add_latencies(report: "Report", calls: List[float]) -> None:
    q1, med, q3 = quartiles(calls)
    report.add("call_s_p50", "s", [hd_quantile(calls, 0.5)],
               f"Harrell-Davis median of {len(calls)} calls; "
               f"sample median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}")
    report.add("call_s_tail", "s", [tail(calls)], beyond_p90(calls))


class Report:
    """Collects samples per metric and prints them."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self.units: Dict[str, str] = {}
        self.notes: Dict[str, str] = {}

    def add(self, name: str, unit: str, values: List[float], note: str = "") -> None:
        self.samples[name] = list(values)
        self.units[name] = unit
        if note:
            self.notes[name] = note

    def value(self, name: str) -> float:
        return quartiles(self.samples[name])[1]

    def print(self) -> None:
        for name, values in self.samples.items():
            q1, med, q3 = quartiles(values)
            note = f"  [{self.notes[name]}]" if name in self.notes else ""
            print(
                f"{name:48s} {med:14.6g} {self.units[name]:8s} "
                f"q1={q1:.6g} q3={q3:.6g} n={len(values)}{note}"
            )

    def metrics(self) -> dict:
        return {
            name: {"value": self.value(name), "unit": self.units[name]}
            for name in self.samples
        }


class Outcome:
    """Operations attempted and failed, with the reason for each failure;
    ``invalid`` holds problems that are not one operation's, such as an
    oracle that could not establish the expected answer."""

    def __init__(self):
        self.attempted = 0
        self.problems: List[str] = []
        self.invalid: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)


# ------------------------------------------------------------- workloads


def spin_curves(rng: random.Random) -> List[inputs.Curve]:
    """2-connected single-block curves, b1 16-18.  The b1 mix is fixed so
    that a pass does the same work for every seed; the cost of a random
    cubic graph still varies by ~10% with its structure, so a pass averages
    four of them."""
    return [
        inputs.split_curve(rng, "split16", 16, marked=1),
        inputs.split_curve(rng, "split18", 18, marked=0),
    ] + [
        inputs.cubic_curve(rng, f"cubic16{tag}", 16, marked=marked)
        for tag, marked in zip("abcd", (0, 3, 0, 2))
    ]


# every block type once, plus a second loop: b1 = 12
MULTIBLOCK_KINDS = ["loop", "loop", "banana3", "triangle", "k4", "fat_triangle"]


def multiblock_curves(rng: random.Random) -> List[inputs.Curve]:
    return [inputs.multiblock_curve(rng, f"multi{i}", MULTIBLOCK_KINDS, 300, 100)
            for i in range(4)]


COMMANDS = ("analyze", "spin", "classify", "evensets")


def run_worker(work: Path, job: dict, deadline: float) -> dict:
    job = dict(job, src=str(SRC), out_dir=str(work / "out"), result=str(work / "result.json"))
    (work / "out").mkdir(exist_ok=True)
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    child = spawn([sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                  work / "worker.log", deadline)
    if child["status"] != 0:
        raise RuntimeError(f"worker failed:\n{child['stderr']}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["wall_s"] = child["s"]
    return result


def check_calls(passes: List[dict], checks: List, work: Path, outcome: Outcome) -> None:
    """First-pass outputs go through the oracles; every later call must
    reproduce the digest of the output that passed."""
    checked = []  # per call: (digest of the first output, its problems)
    for i, check in enumerate(checks):
        text = (work / "out" / f"{i}.out").read_text(encoding="utf-8")
        try:
            problems = check(oracle.parse_json(text))
        except ValueError as exc:
            problems = [f"output is not JSON: {exc}"]
        checked.append((passes[0]["calls"][i]["sha256"], problems[:3]))
    for p in passes:
        for i, call in enumerate(p["calls"]):
            digest, problems = checked[i]
            if call["status"] != 0:
                problems = [f"exit {call['status']}: {call['error']}"]
            elif call["sha256"] != digest:
                problems = ["output differs from the checked one"]
            outcome.record([f"call {i}: {x}" for x in problems])


def pass_scale(p: dict) -> float:
    """Reference scale of a pass, from the reference units sampled in it."""
    if not p["ref_units"]:
        raise RuntimeError("a pass sampled no reference unit")
    return reference.scale(p["ref_units"], p["ref_s"])


def in_process(workload: str, curves, args, work: Path, report: Report, wall: Report,
               outcome: Outcome, deadline: float) -> dict:
    inputs_dir = work / "inputs"
    inputs_dir.mkdir()
    invocations, checks = [], []
    for c in curves:
        path = inputs_dir / f"{c.name}.curve"
        path.write_text(c.text(), encoding="utf-8")
        if workload == "spin":
            want = oracle.expected_spin(c)
            invocations.append(["--json", "spin", str(path)])
            checks.append(lambda out, want=want: oracle.check_spin(out, want))
        else:
            expect = oracle.MultiblockOracle(c)
            for cmd in COMMANDS:
                invocations.append(["--json", cmd, str(path)])
                checks.append(lambda out, cmd=cmd, e=expect: e.check(cmd, out))
    job = {
        "invocations": invocations,
        "kernel": str(inputs_dir / f"{curves[-1].name}.curve"),
        "seconds": args.seconds,
        "trace": "alternate" if args.trace else "off",
        "interval": 0 if args.trace else REF_INTERVAL,
    }
    result = run_worker(work, job, deadline)
    passes = result["untraced"] + result["traced"]
    check_calls(passes, checks, work, outcome)
    if workload == "spin":
        items = sum(1 << c.b1 for c in curves)
        item_note = f"{items} even sets per pass"
    else:
        items = len(invocations)
        item_note = f"{items} CLI invocations per pass"
    untraced = result["untraced"]
    scales = [1.0] * len(untraced) if args.trace else [pass_scale(p) for p in untraced]
    run_s = [p["run_s"] * k for p, k in zip(untraced, scales)]
    calls = [c["s"] * k for p, k in zip(untraced, scales) for c in p["calls"]]
    wall.add("reference_scale", "ratio", scales, "per pass")
    wall.add("run_s", "s", [p["run_s"] for p in untraced])
    wall.add("call_s_p50", "s", [c["s"] for p in untraced for c in p["calls"]])
    report.add("run_s", "s", run_s, f"{len(invocations)} invocations per pass")
    report.add("items_per_s", "1/s", [items / s for s in run_s], item_note)
    add_latencies(report, calls)
    report.add("peak_rss_mb", "MB", [result["peak_rss_mb"]], "worker process")
    return result


def sweep(args, work: Path, report: Report, wall: Report, outcome: Outcome,
          deadline: float) -> dict:
    sys.path.insert(0, str(SRC))
    from spincomb import enumeration  # candidate classes, proved by the oracle

    reps = [
        (g.vertex_count, list(g.edges))
        for g in enumeration.enumerate_multigraphs(SWEEP_EDGES, connected=True, superstable=True)
    ]
    expect = oracle.SweepOracle(SWEEP_EDGES, reps)
    levels = getattr(enumeration, "_LEVELS", {})
    generated = sum(len(levels.get(d, ())) for d in range(1, SWEEP_EDGES + 1))
    outcome.invalid.extend(expect.problems)
    argv = ["--json", "verify", str(SWEEP_EDGES)]

    def checked(text: str, status: int) -> List[str]:
        try:
            return expect.check(oracle.parse_json(text), status)
        except ValueError as exc:
            return [f"verify output is not JSON: {exc}"]

    def run_cold(trace: str) -> dict:
        """One pass in a fresh worker process: cold, as a CLI user runs it."""
        pass_dir = work / f"pass{outcome.attempted}"
        pass_dir.mkdir()
        interval = REF_INTERVAL if trace == "off" and not args.trace else 0
        job = {"invocations": [argv], "seconds": 0, "trace": trace, "interval": interval}
        result = run_worker(pass_dir, job, deadline)
        (p,) = result["traced" if trace == "once" else "untraced"]
        call = p["calls"][0]
        problems = checked((pass_dir / "out" / "0.out").read_text(), call["status"])
        if call["error"]:
            problems.append(f"stderr: {call['error'][-300:]}")
        outcome.record(problems)
        # the whole process, interpreter start included, less the reference
        p["run_s"] = result["wall_s"] - p["ref_s"]
        p["peak_rss_mb"] = result["peak_rss_mb"]
        return p

    runs, traced, spent = [], [], 0.0
    while more_passes(spent, len(runs), args.seconds) or (args.trace and len(traced) < 2):
        runs.append(run_cold("off"))
        spent += runs[-1]["run_s"]
        if args.trace:
            traced.append(run_cold("once"))
            spent += traced[-1]["run_s"]
    scales = [1.0] * len(runs) if args.trace else [pass_scale(r) for r in runs]
    raw_s = [r["run_s"] for r in runs]
    run_s = [s * k for s, k in zip(raw_s, scales)]
    wall.add("reference_scale", "ratio", scales, "per pass")
    wall.add("run_s", "s", raw_s)
    report.add("run_s", "s", run_s, "one cold `verify 9` process per pass")
    report.add("items_per_s", "1/s", [expect.class_count / s for s in run_s],
               f"{expect.class_count} classes per pass")
    add_latencies(report, run_s)
    report.add("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in runs], "verify process")
    return {
        "untraced": [{"run_s": s} for s in raw_s],
        "traced": traced,
        "kernel": None,
        "superstable": sum(expect.connected_counts.values()),
        "generated": generated,
    }


# ------------------------------------------------------------ per layer


# (function, field): field is calls, s (total time) or self_s
SPAN_METRICS = [
    ("enumeration.enumerate_multigraphs", "s"),
    ("enumeration.enumerate_multigraphs", "self_s"),
    ("enumeration.canonical_form", "calls"),
    ("enumeration.canonical_form", "s"),
    ("transforms.check_theorem2", "s"),
    ("transforms.check_theorem3", "s"),
    ("transforms.is_superstable", "calls"),
    ("transforms.is_superstable", "s"),
    ("transforms.classify", "s"),
    ("transforms.superstable_reduction", "s"),
    ("cycles.cyclic_betti_set", "calls"),
    ("cycles.cyclic_betti_set", "s"),
    ("cycles.cyclic_sets", "s"),
    ("cycles.cycle_basis", "s"),
    ("spin.spin_report", "s"),
    ("spin.multiplicity_set", "s"),
    ("spin.support_description", "calls"),
    ("spin.support_description", "s"),
    ("graphs.subset_betti", "calls"),
    ("graphs.subset_betti", "s"),
    ("graphs.separating_edges", "s"),
    ("graphs.separating_vertices", "s"),
    ("curvefile.parse_curve", "s"),
]
FIELD = {"calls": 0, "s": 1, "self_s": 2, "items": 3}
LAYER_NAMES = ("graphs", "cycles", "spin", "transforms", "enumeration", "curvefile", "cli")


def pass_metrics(workload: str, result: dict, p: dict, put) -> None:
    """Per-layer values of one traced pass; ``put(name, unit, value, base)``."""
    snap = p["trace"]
    stats, counts = snap["stats"], snap["counts"]

    def get(fn: str, field: str) -> float:
        return stats.get(fn, [0, 0.0, 0.0, 0])[FIELD[field]]

    def ratio(name: str, num: float, den: float, what: str, unit: str = "ratio") -> None:
        put(name, unit, num / den if den else 0.0, f"{num:g}/{den:g} {what}")

    for fn, field in SPAN_METRICS:
        put(f"{fn}.{field}", "count" if field == "calls" else "s", get(fn, field))
    put("cycles.cyclic_sets.sets", "count", get("cycles.cyclic_sets", "items"))
    put("transforms.superstable_reduction.vertices_removed", "count",
        counts.get("superstable_reduction.vertices_removed", 0))
    for cmd in COMMANDS:
        put(f"cli.{cmd}.s", "s", get(f"cli.cmd_{cmd}", "s"))
    put("cli.main.self_s", "s", get("cli.main", "self_s"))
    put("cli.output_bytes", "B", sum(c["bytes"] for c in p["calls"]))
    for layer in LAYER_NAMES:
        put(f"{layer}.self_s", "s",
            sum(v[2] for k, v in stats.items() if k.startswith(layer + ".")))
    ratio("enumeration.superstable_yield", result.get("superstable", 0),
          result.get("generated", 0), "superstable / connected classes generated")
    if workload == "sweep":
        checks = get("transforms.check_theorem2", "calls") + get("transforms.check_theorem3", "calls")
        per = "theorem checks"
    else:
        checks, per = get("cli.main", "calls"), "CLI invocations"
    passes = sum(get(fn, "calls") for fn in
                 ("cycles.cyclic_betti_set", "cycles.cyclic_sets", "spin.spin_report"))
    ratio("cycles.passes_per_graph", passes, checks, f"cycle-space passes / {per}")
    ratio("cycles.betti_yield", counts.get("betti_yield.found", 0),
          counts.get("betti_yield.visited", 0), "|B| / cyclic sets visited")
    ratio("spin.even_sets_per_s", counts.get("spin_report.sets", 0),
          get("spin.spin_report", "s"), "even sets / s in spin_report", "1/s")
    ratio("curvefile.parse_curve.bytes_per_s", counts.get("parse_curve.bytes", 0),
          get("curvefile.parse_curve", "s"), "bytes / s in parse_curve", "B/s")


def per_layer(workload: str, result: dict, report: Report) -> None:
    """Per-layer metrics: medians over traced passes of per-pass values,
    then the kernel split and the cost of tracing itself."""
    rows: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    bases: Dict[str, List[str]] = {}

    def put(name: str, unit: str, value: float, base: str = "") -> None:
        rows.setdefault(name, []).append(value)
        units[name] = unit
        if base:
            bases.setdefault(name, []).append(base)

    for p in result["traced"]:
        pass_metrics(workload, result, p, put)
    kernel = (result.get("kernel") or {}).get("stats", {})
    for fn, field, name in (
        ("cycles.cycle_basis", "s", "kernel.cycle_basis.s"),
        ("cycles.cyclic_sets", "s", "kernel.cyclic_sets.s"),
        ("graphs.subset_betti", "s", "kernel.subset_betti.s"),
        ("cycles.cyclic_sets", "items", "kernel.sets"),
    ):
        put(name, "s" if field == "s" else "count", kernel.get(fn, [0, 0.0, 0.0, 0])[FIELD[field]])
    for name, values in rows.items():
        b = bases.get(name)
        report.add(name, units[name], values, b[len(b) // 2] if b else "")
    traced = [p["run_s"] for p in result["traced"]]
    untraced = [p["run_s"] for p in result["untraced"]]
    overhead = [t - u for t, u in zip(traced, untraced)]  # passes run in pairs
    unattributed = [p["run_s"] - p["trace"]["top_level"] for p in result["traced"]]
    report.add("trace.run_s", "s", traced)
    report.add("trace.untraced_run_s", "s", untraced)
    report.add("trace.overhead_s", "s", overhead, "traced - untraced run_s, per pair of passes")
    report.add("trace.overhead_frac", "ratio", [o / u for o, u in zip(overhead, untraced)],
               f"{statistics.median(overhead):.4g}/{statistics.median(untraced):.4g} s")
    report.add("trace.unattributed_s", "s", unattributed, "traced run_s outside any span")
    report.add("trace.unattributed_frac", "ratio",
               [u / t for u, t in zip(unattributed, traced)],
               f"{statistics.median(unattributed):.4g}/{statistics.median(traced):.4g} s")


# ----------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "spin", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "spincomb" / "__init__.py").is_file() or not (SRC / "spincomb" / "cli.py").is_file():
        print(f"error: no spincomb sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    report, wall, outcome = Report(), Report(), Outcome()
    try:
        if not args.trace:
            times, k = setup_times(work, deadline)
            report.add("setup_s", "s", [t * k for t in times],
                       "fresh interpreter: import spincomb, spincomb.cli")
            wall.add("setup_s", "s", times)
        rng = random.Random(args.seed)
        if args.workload == "sweep":
            result = sweep(args, work, report, wall, outcome, deadline)
        else:
            curves = spin_curves(rng) if args.workload == "spin" else multiblock_curves(rng)
            result = in_process(args.workload, curves, args, work, report, wall, outcome,
                                deadline)
        if args.trace:
            layers = Report()
            per_layer(args.workload, result, layers)
            report, wall = layers, Report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    report.print()
    if wall.samples:
        print("unscaled wall times, and the factor that scales them to the reference speed:")
        wall.print()
    print(f"{'failed_frac':48s} {outcome.failed / max(outcome.attempted, 1):14.6g} ratio    "
          f"({outcome.failed}/{outcome.attempted} operations)")
    for problem in outcome.invalid + outcome.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not (outcome.problems or outcome.invalid),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": report.metrics(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
