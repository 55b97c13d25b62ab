"""Command line interface.

Subcommands: analyze, spin, classify, evensets, verify.  Every command
accepts --json for structured output with stable field names; big counts
render in decimal plus 2^k form when they are powers of two.  Exit status
is 0 exactly when there was no error and no sweep violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Iterator, List, Optional

from . import __version__
from .curvefile import CurveFile, parse_curve
from .cycles import betti_profile, cyclic_betti_set, is_eulerian
from .enumeration import SweepReport, sweep_theorems
from .errors import CapExceededError, CurveFileError, GraphError, VanishingComponentError
from .graphs import Multigraph, _lowpoint_dfs
from .spin import _betti, _corollary_split, even_set_supports, spin_report
from .transforms import Verdict, _theorems, classify, is_superstable, superstable_reduction


def _pow2(n: int) -> str:
    if n >= 2 and n & (n - 1) == 0:
        return f"{n} (2^{n.bit_length() - 1})"
    return str(n)


def _load(path: str) -> CurveFile:
    # newline="" hands the line endings to the parser as they are in the file
    with open(path, encoding="utf-8", newline="") as f:
        return parse_curve(f.read())


def _verdict_dict(v: Verdict, edge_names) -> dict:
    return {
        "holds": v.holds,
        "classification": v.classification,
        "hypothesis_exercised": v.hypothesis_exercised,
        "witness": sorted(edge_names[i] for i in v.witness.indices())
        if v.witness is not None
        else None,
    }


def cmd_analyze(cf: CurveFile) -> dict:
    g = cf.to_dual_graph().graph
    bridges, cuts, components = _lowpoint_dfs(g)  # the one traversal
    return {
        "edge_count": g.edge_count,
        "vertex_count": g.vertex_count,
        "component_count": len(components),
        "betti_number": g.edge_count - g.vertex_count + len(components),
        "separating_edges": sorted(cf.edge_names[i] for i in bridges),
        "separating_vertices": [cf.vertex_names[v] for v in cuts],
        "eulerian": is_eulerian(g),
        "cyclic_betti_set": sorted(cyclic_betti_set(g)),
    }


def _render_analyze(data: dict) -> List[str]:
    return [
        f"edges (delta):        {data['edge_count']}",
        f"vertices (nu):        {data['vertex_count']}",
        f"components:           {data['component_count']}",
        f"betti number b1:      {data['betti_number']}",
        f"separating edges:     {', '.join(data['separating_edges']) or '-'}",
        f"separating vertices:  {', '.join(data['separating_vertices']) or '-'}",
        f"eulerian:             {'yes' if data['eulerian'] else 'no'}",
        f"cyclic betti set B:   {{{', '.join(map(str, data['cyclic_betti_set']))}}}",
    ]


def cmd_spin(cf: CurveFile) -> dict:
    report = spin_report(cf.to_dual_graph())
    return {
        "b": report.b,
        "p": report.p,
        "genus": report.genus,
        "even_set_count": report.even_set_count,
        "component_count": report.component_count,
        "multiplicity_multiset": {
            str(exp): count for exp, count in report.multiplicity_multiset.items()
        },
        "multiplicity_set_exponents": sorted(report.multiplicity_set_exponents),
        "length": report.length,
        "compact_type": report.b == 0,
    }


def _render_spin(data: dict) -> List[str]:
    lines = [
        f"b = {data['b']}, p = {data['p']}, genus = {data['genus']}",
        f"even sets of nodes:   {_pow2(data['even_set_count'])}",
        f"components:           {data['component_count']}",
        "multiplicities:",
    ]
    for exp, count in sorted(data["multiplicity_multiset"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"  multiplicity 2^{exp}: {count} component(s)")
    exps = data["multiplicity_set_exponents"]
    lines.append("L(S_X) = {" + ", ".join(f"2^{e}" for e in exps) + "}")
    lines.append(f"length:               {_pow2(data['length'])}")
    lines.append(f"compact type:         {'yes' if data['compact_type'] else 'no'}")
    return lines


def cmd_classify(cf: CurveFile) -> dict:
    """The recognizers and three verdicts from one cycle-space pass: the core
    has the curve's B and b1, so the corollary reads its profile too."""
    x = cf.to_dual_graph()
    g = x.graph
    cls = classify(g)  # the four classes have 2, 1, 4 and 3 vertices
    data = {
        "superstable": is_superstable(g),
        "split": cls == "split",
        "loop": cls == "loop",
        "tetrahedron": cls == "tetrahedron",
        "fat_triangle": cls == "fat_triangle",
        "via_reduction": False,
        "theorem2": None,
        "theorem3": None,
    }
    try:
        target = superstable_reduction(g)  # g itself when already superstable
    except VanishingComponentError:
        data["corollary_split"] = _verdict_dict(_corollary_split(x, {0}, cls), cf.edge_names)
        return data
    profile = betti_profile(target)
    data["corollary_split"] = _verdict_dict(_corollary_split(x, profile, cls), cf.edge_names)
    data["via_reduction"] = target is not g
    names = (
        cf.edge_names
        if target is g
        else tuple(f"r{i}" for i in range(target.edge_count))
    )
    theorem2, theorem3 = _theorems(profile, cls if target is g else classify(target))
    data["theorem2"] = _verdict_dict(theorem2, names)
    data["theorem3"] = _verdict_dict(theorem3, names)
    return data


def _render_verdict(tag: str, v: Optional[dict]) -> str:
    if v is None:
        return f"{tag}: not applicable (graph has no superstable core)"
    mode = "exercised" if v["hypothesis_exercised"] else "vacuous"
    out = f"{tag}: {'holds' if v['holds'] else 'FAILS'} ({mode}, classification={v['classification']})"
    if v["witness"]:
        out += f", witness={{{', '.join(v['witness'])}}}"
    return out


def _render_classify(data: dict) -> List[str]:
    lines = [
        f"superstable:   {'yes' if data['superstable'] else 'no'}"
        + (" (theorems checked on the reduced graph)" if data["via_reduction"] else ""),
        f"split:         {'yes' if data['split'] else 'no'}",
        f"loop:          {'yes' if data['loop'] else 'no'}",
        f"tetrahedron:   {'yes' if data['tetrahedron'] else 'no'}",
        f"fat triangle:  {'yes' if data['fat_triangle'] else 'no'}",
        _render_verdict("theorem 2", data["theorem2"]),
        _render_verdict("theorem 3", data["theorem3"]),
        _render_verdict("split corollary", data["corollary_split"]),
    ]
    return lines


def cmd_evensets(cf: CurveFile) -> dict:
    """The count and a lazy listing of the even sets: the refusals of
    :func:`even_set_supports` (the digit limit on the largest point count,
    then the cap) come on its call, before the first set is read."""
    x = cf.to_dual_graph()
    names = cf.edge_names
    sets = (
        {
            "edges": sorted(names[i] for i in d.even_set.indices()),
            "betti": d.gluing_dimension,
            "blown_up_count": d.exceptional_count,
            "point_count": d.point_count,
            "multiplicity_exponent": d.multiplicity_exponent,
        }
        for d in even_set_supports(x)
    )
    return {"count": 1 << _betti(x), "even_sets": sets}


def _render_evensets(data: dict) -> Iterator[str]:
    yield f"{data['count']} even set(s)"
    for s in data["even_sets"]:
        edges = "{" + ", ".join(s["edges"]) + "}"
        yield (
            f"  {edges or '{}'}: b1={s['betti']}, points={_pow2(s['point_count'])}, "
            f"multiplicity=2^{s['multiplicity_exponent']}"
        )


def _sweep_dict(report: SweepReport) -> dict:
    return {
        "graphs_examined": report.graphs_examined,
        "hypothesis_exercised": report.hypothesis_exercised,
        "vacuous": report.vacuous,
        "violations": len(report.violations),
        "elapsed_seconds": round(report.elapsed, 3),
    }


def _violation_dicts(theorem: int, report: SweepReport) -> List[dict]:
    out = []
    for key, verdict in report.violations:
        # a superstable class has no isolated vertex
        g = Multigraph(1 + max(map(max, key)), key)
        out.append(
            {
                "theorem": theorem,
                "canonical_key": [list(edge) for edge in key],
                "cyclic_betti_set": sorted(cyclic_betti_set(g)),
                "classification": verdict.classification,
            }
        )
    return out


def cmd_verify(max_edges: int) -> dict:
    theorem2, theorem3 = sweep_theorems(max_edges)
    return {
        "max_edges": max_edges,
        "theorem2": _sweep_dict(theorem2),
        "theorem3": _sweep_dict(theorem3),
        "violating_classes": _violation_dicts(2, theorem2) + _violation_dicts(3, theorem3),
    }


def _render_verify(data: dict) -> List[str]:
    lines = [f"sweeps over superstable classes with <= {data['max_edges']} edges"]
    for tag in ("theorem2", "theorem3"):
        r = data[tag]
        lines.append(
            f"{tag}: examined={r['graphs_examined']} exercised={r['hypothesis_exercised']} "
            f"vacuous={r['vacuous']} violations={r['violations']} "
            f"({r['elapsed_seconds']}s)"
        )
    for v in data["violating_classes"]:
        edges = " ".join(f"{a}-{b}" for a, b in v["canonical_key"])
        lines.append(
            f"theorem{v['theorem']} violated by {edges}: "
            f"B={{{', '.join(map(str, v['cyclic_betti_set']))}}}, "
            f"classification={v['classification']}"
        )
    return lines


def _json_chunks(data: dict) -> Iterator[str]:
    """The text of ``json.dumps(data, indent=2, sort_keys=True)``, in pieces.

    ``data`` is a non-empty dict with string keys, as every command returns.
    A value that is an iterator is written one element at a time, so the
    list is never held whole; every value and element goes through the one
    encoder, re-indented to its depth.
    """
    encode = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False).encode
    for i, key in enumerate(sorted(data)):
        yield ("{\n  " if i == 0 else ",\n  ") + encode(key) + ": "
        value = data[key]
        if not isinstance(value, Iterator):
            yield encode(value).replace("\n", "\n  ")
            continue
        sep = "[\n    "
        for item in value:
            yield sep + encode(item).replace("\n", "\n    ")
            sep = ",\n    "
        yield "[]" if sep == "[\n    " else "\n  ]"
    yield "\n}"


# name -> (help, renderer) of every command that reads a curve file; main
# calls cmd_<name> through the module, so a wrapper set there sees the call
_FILE_COMMANDS = {
    "analyze": ("graph invariants of the dual graph", _render_analyze),
    "spin": ("numerics of the scheme of spin curves", _render_spin),
    "classify": ("recognizers and theorem verdicts", _render_classify),
    "evensets": ("stream all even sets with their spin data", _render_evensets),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spincomb",
        description="Cycle spaces, cyclic Betti numbers and spin-curve numerics "
        "of stable-curve dual graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("path", help="curve file")
    p = sub.add_parser("verify", help="run both theorem sweeps")
    p.add_argument("max_edges", type=int)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            data = cmd_verify(args.max_edges)
            render = _render_verify
            failed = data["theorem2"]["violations"] or data["theorem3"]["violations"]
        else:
            cf = _load(args.path)
            data = globals()[f"cmd_{args.command}"](cf)
            render = _FILE_COMMANDS[args.command][1]
            failed = False
        # the commands refuse before this point: a listing streams from here
        write = sys.stdout.write
        if args.json:
            for chunk in chain(_json_chunks(data), "\n"):
                write(chunk)
        else:
            for line in render(data):
                write(line + "\n")
    except CapExceededError as exc:
        print(f"error: cycle space too large to enumerate (b1={exc.betti})", file=sys.stderr)
        return 1
    except (CurveFileError, GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
