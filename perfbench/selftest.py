"""Show that every oracle accepts spincomb's real answer and rejects a wrong one.

    python3 perfbench/selftest.py        # from the root of a checkout

For each oracle the script runs the CLI in-process on a small seeded input,
checks that the oracle finds nothing wrong, then corrupts one field at a
time and checks that the oracle reports it.  Exit status 0 when every
corruption is caught and no correct answer is rejected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from spincomb import cli, enumeration  # noqa: E402

failures = []


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return json.loads(out.getvalue()), status


def expect(label: str, problems, wrong: bool) -> None:
    ok = bool(problems) == wrong
    print(f"{'ok ' if ok else 'BAD'} {label}: {'caught' if problems else 'accepted'}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def mutations(label, good, check, edits):
    expect(f"{label} / real output", check(good), wrong=False)
    for name, edit in edits.items():
        bad = copy.deepcopy(good)
        edit(bad)
        expect(f"{label} / {name}", check(bad), wrong=True)


def curve_file(tmp: Path, curve: inputs.Curve) -> str:
    path = tmp / f"{curve.name}.curve"
    path.write_text(curve.text(), encoding="utf-8")
    return str(path)


def spin_edits():
    def bump_multiset(d):
        key = max(d["multiplicity_multiset"], key=int)
        d["multiplicity_multiset"][key] += 1

    return {
        "component count + 1": lambda d: d.update(component_count=d["component_count"] + 1),
        "length doubled": lambda d: d.update(length=2 * d["length"]),
        "one multiplicity count + 1": bump_multiset,
    }


def main() -> int:
    rng = random.Random(7)
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        tmp = Path(tmp)
        for curve in (
            inputs.split_curve(rng, "split", 9, marked=1),
            inputs.cubic_curve(rng, "cubic", 10, marked=2),
        ):
            good, _ = run_cli(["--json", "spin", curve_file(tmp, curve)])
            want = oracle.expected_spin(curve)
            mutations(f"{curve.family} spin", good, lambda d, w=want: oracle.check_spin(d, w),
                      spin_edits())

        small = inputs.cubic_curve(rng, "small", 5, marked=0)
        expect("numpy enumeration equals brute force on a b1=5 cubic graph",
               [] if oracle.numpy_polynomial(small.vertex_count, small.edges)
               == oracle.brute_polynomial(small.edges) else ["differ"], wrong=False)

        multi = inputs.multiblock_curve(rng, "multi", ["loop", "banana3", "triangle", "k4"], 60, 30)
        path = curve_file(tmp, multi)
        expected = oracle.MultiblockOracle(multi)

        def first_set(d, **change):
            d["even_sets"][1].update(change)

        edits = {
            "analyze": {
                "a cut vertex dropped": lambda d: d["separating_vertices"].pop(),
                "a bridge dropped": lambda d: d["separating_edges"].pop(),
                "B without its top": lambda d: d["cyclic_betti_set"].pop(),
            },
            "spin": spin_edits(),
            "classify": {
                "theorem 2 fails": lambda d: d["theorem2"].update(holds=False),
                "theorem 3 exercised": lambda d: d["theorem3"].update(hypothesis_exercised=True),
                "called superstable": lambda d: d.update(superstable=True),
            },
            "evensets": {
                "a set dropped": lambda d: d["even_sets"].pop(),
                "a set's b1 + 1": lambda d: first_set(d, betti=d["even_sets"][1]["betti"] + 1),
                "an edge removed from a set": lambda d: d["even_sets"][1]["edges"].pop(),
                "a wrong point count": lambda d: first_set(d, point_count=3),
            },
        }
        for command, changes in edits.items():
            good, _ = run_cli(["--json", command, path])
            mutations(f"multiblock {command}", good,
                      lambda d, c=command: expected.check(c, d), changes)

    edges = 7
    reps = [(g.vertex_count, list(g.edges))
            for g in enumeration.enumerate_multigraphs(edges, connected=True, superstable=True)]
    sweep = oracle.SweepOracle(edges, reps)
    good, status = run_cli(["--json", "verify", str(edges)])

    def check_status(s):
        return lambda d: sweep.check(d, s)

    mutations("sweep verify", good, check_status(status), {
        "one class fewer": lambda d: d["theorem2"].update(graphs_examined=d["theorem2"]["graphs_examined"] - 1),
        "a theorem 3 violation": lambda d: d["theorem3"].update(violations=1),
        "one more exercised": lambda d: d["theorem2"].update(hypothesis_exercised=d["theorem2"]["hypothesis_exercised"] + 1),
    })
    expect("sweep verify / wrong exit status", check_status(1 - status)(good), wrong=True)
    expect("sweep candidates / real classes", sweep.problems, wrong=False)
    n, last = reps[-1]
    copy_of_last = (n, [(n - 1 - b, n - 1 - a) for a, b in reversed(last)])
    expect("sweep candidates / an isomorphic copy added",
           oracle.SweepOracle(edges, reps + [copy_of_last]).problems, wrong=True)
    expect("sweep candidates / a class replaced by a copy of another",
           oracle.SweepOracle(edges, reps[:-2] + [reps[-1], copy_of_last]).problems, wrong=True)
    expect("sweep candidates / a class missing", oracle.SweepOracle(edges, reps[1:]).problems, wrong=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
