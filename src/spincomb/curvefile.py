"""Line-oriented text format for marked dual graphs.

Grammar (ASCII or UTF-8 names, LF or CRLF line endings)::

    # comment
    v <name> genus=<digits>
    e <name> <vertex-name> <vertex-name>

``<digits>`` is one or more ASCII digits 0-9.  Lines end at LF or CRLF
only; any other line separator Unicode knows stays inside its line.

Vertex and edge indices are assigned in declaration order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import DuplicateNameError, ParseError, UnknownVertexError
from .graphs import _set_field, _Value, build_graph
from .spin import CurveDualGraph


class CurveFile(_Value):
    """Parsed declarations, keeping the symbolic names for display."""

    __slots__ = ("vertex_names", "genus_marks", "edge_names", "edge_pairs")

    def __init__(
        self,
        vertex_names: Tuple[str, ...],
        genus_marks: Tuple[int, ...],
        edge_names: Tuple[str, ...],
        edge_pairs: Tuple[Tuple[int, int], ...],
    ) -> None:
        _set_field(self, "vertex_names", vertex_names)
        _set_field(self, "genus_marks", genus_marks)
        _set_field(self, "edge_names", edge_names)
        _set_field(self, "edge_pairs", edge_pairs)

    def to_dual_graph(self) -> CurveDualGraph:
        return CurveDualGraph(
            build_graph(len(self.vertex_names), self.edge_pairs), self.genus_marks
        )


def parse_curve(text: str) -> CurveFile:
    vertex_names: List[str] = []
    genus_marks: List[int] = []
    edge_names: List[str] = []
    edge_pairs: List[Tuple[int, int]] = []
    vertex_index = {}
    edge_seen = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3 or not fields[2].startswith("genus="):
                raise ParseError(lineno, f"expected 'v <name> genus=<int>': {raw!r}")
            name = fields[1]
            if name in vertex_index:
                raise DuplicateNameError(lineno, name)
            value = fields[2][len("genus="):]
            if not (value.isascii() and value.isdigit()):
                raise ParseError(lineno, f"bad genus value in {raw!r}")
            try:
                mark = int(value)
            except ValueError:  # more digits than int() converts
                raise ParseError(lineno, f"genus value too long in {raw!r}") from None
            vertex_index[name] = len(vertex_names)
            vertex_names.append(name)
            genus_marks.append(mark)
        elif kind == "e":
            if len(fields) != 4:
                raise ParseError(lineno, f"expected 'e <name> <v> <v>': {raw!r}")
            name = fields[1]
            if name in edge_seen:
                raise DuplicateNameError(lineno, name)
            for endpoint in fields[2:]:
                if endpoint not in vertex_index:
                    raise UnknownVertexError(lineno, endpoint)
            edge_seen.add(name)
            edge_names.append(name)
            edge_pairs.append((vertex_index[fields[2]], vertex_index[fields[3]]))
        else:
            raise ParseError(lineno, f"unknown declaration {kind!r}")
    return CurveFile(
        tuple(vertex_names), tuple(genus_marks), tuple(edge_names), tuple(edge_pairs)
    )


def parse_curve_file(text: str) -> CurveDualGraph:
    """Parse the text format directly into a marked dual graph."""
    return parse_curve(text).to_dual_graph()


def format_curve_file(
    x: CurveDualGraph,
    vertex_names: Optional[Sequence[str]] = None,
    edge_names: Optional[Sequence[str]] = None,
) -> str:
    """Emit a dual graph in the text format; round-trips through parsing.
    Names that would not read back as given raise ValueError."""
    vertex_names = _names("vertex", vertex_names, "c", x.graph.vertex_count)
    edge_names = _names("edge", edge_names, "n", x.graph.edge_count)
    lines = [f"v {name} genus={mark}" for name, mark in zip(vertex_names, x.genus_marks)]
    lines.extend(
        f"e {name} {vertex_names[a]} {vertex_names[b]}"
        for name, (a, b) in zip(edge_names, x.graph.edges)
    )
    return "\n".join(lines) + "\n"


def _names(kind: str, names: Optional[Sequence[str]], prefix: str, count: int) -> Sequence[str]:
    """prefix0, prefix1, ... by default; given names must be one per item,
    distinct, and each one field without ``#``."""
    if names is None:
        return [f"{prefix}{i}" for i in range(count)]
    if len(names) != count:
        raise ValueError(f"{len(names)} {kind} names given, {count} needed")
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValueError(f"{kind} name {name!r} is not one field without '#'")
    if len(set(names)) != count:
        raise ValueError(f"duplicate {kind} names")
    return names
