"""Paired benchmark runs of two commits, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --seeds 201-210 \\
        --out BENCH_14.json [--workloads spin sweep curves] [--seconds 25] \\
        [--trace-seeds 211 212] [--claim TEXT] [--machine TEXT] [--note TEXT ...]

Run it from anywhere inside a git checkout.  Every run of
``perfbench/run.py`` (unchanged, from the side's own tree) gets a fresh
``git archive`` of its commit in a temporary directory, so neither side holds
bytecode caches, and ``PYTHONDONTWRITEBYTECODE=1`` keeps it so.  For each
workload and seed the pair runs both sides back to back; the parent goes
first on even pair indices and the change first on odd ones.

The output keeps the layout of the earlier ``BENCH_*.json`` files:
``summary`` per workload and end-to-end metric (each side's median and
quartiles, the pairs the change wins, by how much its median is worse, and
whether the gap exceeds the parent's quartile distance), failed runs per
side, ``pass_floor`` (each untraced run's unscaled pass times and reference
scales, as ``perfbench/run.py`` prints them, and per workload and side the
reference scale above which the median pass would end before the first
reference tick, to set against the upper end of the scales seen),
``per_layer`` from the traced runs, every run's last output line under
``runs``, and under ``tier1`` the wall time (``tier1_s``), exit status and
last line of one run of the tier-1 test command per side, each in its own
fresh checkout, after the workloads.  Under ``imports``, per side, where the
import time goes: ``python -X importtime -c "import spincomb, spincomb.cli"``
run ``IMPORT_RUNS`` times in a fresh checkout, as perfbench times
``setup_s``, with the median self and cumulative microseconds of each
``spincomb`` module and of ``IMPORT_MODULES`` (null where the import does
not load it), and of the whole import (``total_us``, the top-level
``spincomb`` entries).

On ``sweep`` the floor is read from the pass's one call instead, since the
run's whole-process ``run_s`` also holds interpreter start and imports,
which no reference tick sees: after each untraced run, a fresh interpreter
in the same checkout times ``cli.main(["--json", "verify", "9"])``
in-process between two units of that checkout's ``perfbench/reference.py``
(``sweep_call``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

RUN_TIMEOUT = 300  # seconds; perfbench ends a run by itself within 180
REF_TICK = 0.5  # seconds to the first reference unit of an untraced pass (REF_INTERVAL)
IMPORT_RUNS = 15
IMPORT_MODULES = ("dataclasses", "argparse", "json")
IMPORT_CODE = "import spincomb, spincomb.cli"  # what perfbench times as setup_s

#: The sweep pass's one call as perfbench/worker.py makes it, timed at
#: reference speed: ``reference.scale`` of the two units around it.
SWEEP_PROBE = """
import contextlib, io, json, sys, time
sys.path[:0] = ["src", "perfbench"]
import reference
import spincomb.cli as cli
ref_s = reference.measure()
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["--json", "verify", "9"])
call_s = time.perf_counter() - start
ref_s += reference.measure()
scale = reference.scale(2, ref_s)
print(json.dumps({"call_s": call_s, "status": status, "reference_scale": scale,
                  "scaled_call_s": call_s * scale}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def checkout(rev: str, into: Path) -> None:
    """The files of ``rev`` as ``git archive`` writes them: no caches."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def parse_rows(lines: List[str]) -> Dict[str, dict]:
    """Rows ``name  median  unit  q1=.. q3=.. n=..`` as printed by run.py."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 6 or not parts[3].startswith("q1="):
            continue
        rows[parts[0]] = {
            "median": float(parts[1]),
            "q1": float(parts[3][3:]),
            "q3": float(parts[4][3:]),
            "n": int(parts[5][2:]),
        }
    return rows


def run_once(rev: str, workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """One perfbench run of ``rev`` in a fresh checkout; its last JSON line
    as ``result`` and the unscaled rows printed before it, or the failure.
    An untraced ``sweep`` run adds its call timed in that checkout
    (``sweep_call``)."""
    root = work / f"{rev[:12]}-{workload}-{seed}-{trace}"
    checkout(rev, root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
        probe = sweep_call(root, env) if workload == "sweep" and not trace else None
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT} s"}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    header = "unscaled wall times"
    start = next((i for i, line in enumerate(lines) if line.startswith(header)), len(lines))
    out = {"result": result, "unscaled": parse_rows(lines[start + 1:-1])}
    if probe is not None:
        out["sweep_call"] = probe
    return out


def sweep_call(root: Path, env: dict) -> dict:
    """``SWEEP_PROBE`` run once in a fresh interpreter in ``root``: the call's
    wall time, exit status, reference scale and scaled time, or the failure."""
    try:
        proc = subprocess.run([sys.executable, "-c", SWEEP_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}


def tier1(rev: str, work: Path) -> dict:
    """The tier-1 tests of ``rev`` run once in a fresh checkout, with ``src``
    first on the path: the command, its wall time, exit status and last line."""
    root = work / f"{rev[:12]}-tier1"
    checkout(rev, root)
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    out = {"command": " ".join(["PYTHONPATH=src", "python", *argv[1:]])}
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {**out, "error": f"no result within {RUN_TIMEOUT} s"}
    finally:
        elapsed = time.perf_counter() - start
        shutil.rmtree(root, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    return {**out, "tier1_s": round(elapsed, 2), "exit": proc.returncode,
            "last_line": lines[-1] if lines else ""}


def import_times(rev: str, work: Path) -> dict:
    """``-X importtime`` of the ``setup_s`` import, ``IMPORT_RUNS`` times in
    one fresh checkout of ``rev``: median self and cumulative us per module,
    or the failure."""
    root = work / f"{rev[:12]}-imports"
    checkout(rev, root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-X", "importtime", "-c", IMPORT_CODE]
    out = {"command": f'PYTHONPATH=src python -X importtime -c "{IMPORT_CODE}"',
           "runs": IMPORT_RUNS}
    samples: Dict[str, List[tuple]] = {}
    totals = []
    try:
        for _ in range(IMPORT_RUNS):
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT, check=True)
            total = 0
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "[us]" in line:
                    continue
                own, cumulative, name = line[len("import time:"):].split("|")
                module = name.strip()
                top = name[1:] == module  # no indent: imported by the command itself
                if top and module.startswith("spincomb"):
                    total += int(cumulative)
                if module.startswith("spincomb") or module in IMPORT_MODULES:
                    samples.setdefault(module, []).append((int(own), int(cumulative)))
            totals.append(total)
    except subprocess.TimeoutExpired:
        return {**out, "error": f"no result within {RUN_TIMEOUT} s"}
    except subprocess.CalledProcessError as exc:
        return {**out, "error": f"exit {exc.returncode}: {exc.stderr.strip()[-300:]}"}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    modules = {name: None for name in IMPORT_MODULES}
    for name, rows in sorted(samples.items()):
        modules[name] = {"self_us": statistics.median(r[0] for r in rows),
                         "cumulative_us": statistics.median(r[1] for r in rows)}
    return {**out, "total_us": statistics.median(totals), "modules": modules}


def paired(revs: Dict[str, str], workload: str, seeds: List[int], seconds: float, trace: int,
           work: Path) -> List[dict]:
    """Both sides on each seed, back to back: the parent first on even pair
    indices, the change first on odd ones."""
    runs = []
    for k, seed in enumerate(seeds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = run_once(revs[side], workload, seed, seconds, trace, work)
            runs.append({"workload": workload, "seed": seed, "side": side, **out})
            print(f"{workload} {seed} {side} trace {trace}: {out.get('error', 'ok')}", flush=True)
    return runs


def quartile_pair(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def compare(pairs: List[tuple], lower_is_better: bool) -> dict:
    """Summary of one metric over (parent, change) pairs of values."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in pairs)
    worse = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    q = quartile_pair(parent)
    return {
        "parent_median": round(pm, 4),
        "parent_quartiles": q,
        "change_median": round(cm, 4),
        "change_quartiles": quartile_pair(change),
        "change_wins": f"{wins}/{len(pairs)}",
        "change_worse_by": round(worse, 4),
        "gap_exceeds_parent_iqr": abs(cm - pm) > q[1] - q[0],
    }


def summarise(runs: List[dict], metrics: List[dict], seeds: List[int]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by = {(r["seed"], r["side"]): r.get("result") for r in mine}
        failed = {side: sum(1 for r in mine if r["side"] == side and "result" not in r)
                  for side in ("parent", "change")}
        done = [s for s in seeds if by.get((s, "parent")) and by.get((s, "change"))]
        entry = {
            "pairs": len(done),
            "failed": failed,
            "correct": all(r["result"]["correct"] for r in mine if "result" in r),
        }
        for m in metrics:
            name = m["name"]
            pairs = [(by[(s, "parent")]["metrics"][name]["value"],
                      by[(s, "change")]["metrics"][name]["value"]) for s in done
                     if name in by[(s, "parent")]["metrics"]]
            if pairs:
                entry[name] = compare(pairs, m["better"] == "lower")
        entry["seeds"] = done
        summary[workload] = entry
    return summary


def pass_floor(runs: List[dict]) -> dict:
    floor = {
        "what": "unscaled pass time (run_s) and reference scale per untraced run, median and "
                "quartiles over its passes as perfbench/run.py prints them; a pass shorter "
                "than the 0.5 s reference tick samples no reference unit and the run fails. "
                "Per workload and side, floor_scale is the reference scale above which the "
                "median pass would end before that tick (the median of the runs' scaled "
                "run_s over 0.5 s), to set against the upper end of reference_scale_range, "
                "the largest third quartile of any run's reference scale. On sweep, whose "
                "run_s is a whole process, interpreter start and imports included, the "
                "ticks see only its one call: sweep_call is that call (verify 9) timed "
                "in-process in a fresh interpreter of the run's checkout after the run, "
                "scaled by the reference units just before and after it, and floor_scale "
                "is the median scaled_call_s over 0.5 s",
        "runs": [],
    }
    for r in runs:
        rows = r.get("unscaled", {})
        entry = {
            "workload": r["workload"], "seed": r["seed"], "side": r["side"],
            "unscaled_run_s": rows.get("run_s"), "reference_scale": rows.get("reference_scale"),
        }
        if "sweep_call" in r:
            entry["sweep_call"] = r["sweep_call"]
        floor["runs"].append(entry)
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for side in ("parent", "change"):
            rows = [x for x in floor["runs"]
                    if x["workload"] == workload and x["side"] == side and x["unscaled_run_s"]]
            if rows:
                scaled = [r["result"]["metrics"]["run_s"]["value"] for r in runs
                          if r["workload"] == workload and r["side"] == side and "result" in r]
                calls = [x["sweep_call"]["scaled_call_s"] for x in rows
                         if "scaled_call_s" in x.get("sweep_call", {})]
                entry = floor[f"{workload}_{side}"] = {
                    "unscaled_run_s_range": [min(x["unscaled_run_s"]["q1"] for x in rows),
                                             max(x["unscaled_run_s"]["q3"] for x in rows)],
                    "reference_scale_range": [min(x["reference_scale"]["q1"] for x in rows),
                                              max(x["reference_scale"]["q3"] for x in rows)],
                    "floor_scale": round(statistics.median(calls or scaled) / REF_TICK, 4),
                }
                if calls:
                    entry["scaled_call_s"] = round(statistics.median(calls), 4)
    return floor


def per_layer(traced: List[dict]) -> dict:
    metrics: Dict[str, dict] = {}
    for r in traced:
        for name, m in r.get("result", {}).get("metrics", {}).items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "parent": {}, "change": {}})
            entry[r["side"]][f"{r['workload']}-{r['seed']}"] = round(m["value"], 6)
    return metrics


def seed_list(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, help="N or LO-HI")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", default=["spin", "sweep", "curves"])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--claim")
    parser.add_argument("--machine", default="")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    out_path = args.out.resolve()
    top = Path(git("rev-parse", "--show-toplevel").strip())
    os.chdir(top)
    revs = {side: git("rev-parse", getattr(args, side)).strip() for side in ("parent", "change")}
    bench = json.loads((top / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = seed_list(args.seeds)
    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        for workload in args.workloads:
            runs += paired(revs, workload, seeds, args.seconds, 0, Path(tmp))
            traced += paired(revs, workload, args.trace_seeds, args.seconds, 1, Path(tmp))
        tests = {side: tier1(rev, Path(tmp)) for side, rev in revs.items()}
        imports = {side: import_times(rev, Path(tmp)) for side, rev in revs.items()}
    report = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": args.machine,
        "sides": {side: f"commit {rev[:7]}" for side, rev in revs.items()},
        "method": f"{len(seeds)} pairs per workload, seeds {args.seeds}; tools/bench_pairs.py "
                  "runs each run from a fresh git archive of its commit with "
                  "PYTHONDONTWRITEBYTECODE=1; pair k runs the parent first when k is even and "
                  "the change first when k is odd; quartiles are statistics.quantiles "
                  "(inclusive); ties count for neither side; change_worse_by is negative when "
                  "the change is better",
        "claim": args.claim,
        "summary": summarise(runs, bench["end_to_end"], seeds),
        "pass_floor": pass_floor(runs),
        "failures": [{k: r[k] for k in ("workload", "seed", "side", "error")}
                     for r in runs + traced if "error" in r],
        "notes": args.note,
        "runs": runs,
        "tier1": tests,
        "imports": imports,
    }
    if traced:
        report["per_layer"] = {
            "command": "the same with --trace 1, seeds " + " ".join(map(str, args.trace_seeds)),
            "metrics": per_layer(traced),
        }
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
