"""Every curve file gets an answer or a clean refusal: ``analyze``, ``spin``,
``classify`` and ``evensets``, in text and ``--json``, return 0 or 1 and
raise nothing, whatever the file holds.  The files mix valid curves with
malformed lines, LF and CRLF endings, bad genus strings and a 5,000-digit
genus."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spincomb.cli import main

COMMANDS = ("analyze", "spin", "classify", "evensets")

# malformed, or well formed but too large to print 2^(2g) for
odd_genus = st.one_of(
    st.just("9" * 5000),
    st.sampled_from(["", "-1", "+2", "1.5", "0x3", "1e3", "٣", "２", "2 "]),
    st.sampled_from(["7" * 20, "9" * 4000]),
    st.text(max_size=6),
)
malformed = st.one_of(
    st.sampled_from(
        ["v", "v c0", "e n0 c0", "x c0", "v c0 genus=1 extra", "e n0 c0 zz", "\r", "# note"]
    ),
    st.text(max_size=20),
)


@st.composite
def curve_files(draw) -> str:
    """A curve on up to 5 components and up to 10 nodes, connected unless
    its nodes are drawn at random, and then spoiled in one way or none: an
    odd genus string, or up to two malformed lines spliced in.  One line
    ending throughout."""
    k = draw(st.integers(1, 5))
    marks = [str(draw(st.integers(0, 3))) for _ in range(k)]
    ends = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=10 - k))
    spoil = draw(st.sampled_from(["none", "none", "nodes", "genus", "lines"]))
    if spoil != "nodes":  # a spanning tree first: connected, no isolated vertex
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)] + pairs
    if spoil == "genus":
        marks[draw(ends)] = draw(odd_genus)
    lines = [f"v c{v} genus={m}" for v, m in enumerate(marks)]
    lines += [f"e n{i} c{a} c{b}" for i, (a, b) in enumerate(pairs)]
    if spoil == "lines":
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(malformed))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(max_examples=150, database=None, deadline=None)
@given(curve_files())
def test_cli_never_raises(text):
    fd, path = tempfile.mkstemp(suffix=".curve")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main(flags + [command, path])
                assert status in (0, 1)
                assert (status == 0) == (err.getvalue() == "")
    finally:
        os.unlink(path)
