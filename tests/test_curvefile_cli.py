import functools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincomb
import spincomb.cli as cli
import spincomb.cycles as cycles
import spincomb.graphs as graphs
import spincomb.transforms as transforms
from spincomb import (
    CurveDualGraph,
    build_graph,
    canonical_form,
    check_corollary_split,
    check_theorems,
    format_curve_file,
    parse_curve,
    parse_curve_file,
    spin_report,
    superstable_reduction,
)
from spincomb.cli import main
from spincomb.errors import (
    DuplicateNameError,
    ParseError,
    UnknownVertexError,
    VanishingComponentError,
)
from spincomb.spin import _refuse_unprintable

from conftest import (
    are_isomorphic,
    cycle_with_pendant_trees,
    fat_triangle,
    loop_graph,
    random_connected_graph,
    random_tree,
)

SPLIT_G3 = """\
# split curve of genus 3: two smooth components glued at four nodes
v a genus=0
v b genus=0
e n1 a b
e n2 a b
e n3 a b
e n4 a b
"""


class TestParse:
    def test_split_example(self):
        cf = parse_curve(SPLIT_G3)
        assert cf.vertex_names == ("a", "b")
        assert cf.genus_marks == (0, 0)
        assert cf.edge_names == ("n1", "n2", "n3", "n4")
        assert cf.edge_pairs == ((0, 1),) * 4

    def test_loop_and_marks(self):
        x = parse_curve_file("v c genus=2\ne n c c\n")
        assert x.genus_marks == (2,)
        assert x.graph.edges == ((0, 0),)

    def test_crlf_and_inline_comments(self):
        text = "v a genus=1\r\nv b genus=0  # second component\r\ne n a b\r\n"
        cf = parse_curve(text)
        assert cf.genus_marks == (1, 0)
        assert cf.edge_pairs == ((0, 1),)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError) as exc:
            parse_curve("v a genus=0\ne n a z\n")
        assert exc.value.line == 2

    def test_duplicate_vertex_name(self):
        with pytest.raises(DuplicateNameError):
            parse_curve("v a genus=0\nv a genus=1\n")

    def test_duplicate_edge_name(self):
        with pytest.raises(DuplicateNameError):
            parse_curve("v a genus=0\ne n a a\ne n a a\n")

    @pytest.mark.parametrize(
        "bad",
        [
            "v a\n",
            "v a genus=x\n",
            "v a genus=-1\n",
            "v a genus=+0\n",
            "v a genus=1_0\n",
            "v a genus=\u0663\n",  # a non-ASCII digit
            "v a genus=\n",
            "e n a\n",
            "q what\n",
        ],
    )
    def test_malformed_lines(self, bad):
        with pytest.raises(ParseError):
            parse_curve("v a genus=0\n" + bad if bad.startswith("e") else bad)


class TestStrictGrammar:
    """Genus values are ASCII digits; lines end at LF or CRLF only, where
    str.splitlines would also break at the separators below and accept two
    declarations on one line."""

    SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_other_separators_stay_in_the_line(self, sep):
        with pytest.raises(ParseError) as exc:
            parse_curve("v a genus=0" + sep + "v b genus=0\ne n a b\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_cli_rejects_other_separators(self, sep, tmp_path, capsys):
        path = tmp_path / "sep.curve"
        path.write_bytes(("v a genus=0" + sep + "v b genus=0\ne n a b\n").encode())
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["genus=1_0", "genus=+0", "genus=\u0663"])
    def test_cli_rejects_genus_values(self, bad, tmp_path, capsys):
        path = tmp_path / "genus.curve"
        path.write_bytes(f"v a {bad}\ne n a a\n".encode())
        assert main(["spin", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "genus" in err

    def test_cli_reads_crlf(self, tmp_path, capsys):
        path = tmp_path / "crlf.curve"
        path.write_bytes(b"v a genus=1\r\nv b genus=0\r\ne n1 a b\r\ne n2 a b\r\n")
        assert main(["--json", "spin", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["genus"] == 2

    def test_genus_past_the_int_digit_limit(self):
        with pytest.raises(ParseError):
            parse_curve("v a genus=" + "9" * 5000 + "\n")


# names the grammar reads as one field: no whitespace, no comment sign
NAMES = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"), min_size=1
).filter(lambda name: name.split() == [name])


@st.composite
def named_curves(draw):
    """A connected marked dual graph (loops and parallel edges included)
    with distinct vertex names and distinct edge names."""
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=1 if n == 1 else 0, max_size=6))
    edges = draw(st.permutations(edges))
    marks = tuple(draw(st.lists(st.integers(0, 10**30), min_size=n, max_size=n)))
    x = CurveDualGraph(build_graph(n, edges), marks)
    vertex_names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    edge_names = draw(st.lists(NAMES, min_size=len(edges), max_size=len(edges), unique=True))
    return x, vertex_names, edge_names


class TestRoundTrip:
    @settings(deadline=None)
    @given(named_curves())
    def test_format_then_parse_gives_the_curve_back(self, curve):
        x, vertex_names, edge_names = curve
        cf = parse_curve(format_curve_file(x, vertex_names, edge_names))
        assert cf.vertex_names == tuple(vertex_names)
        assert cf.edge_names == tuple(edge_names)
        assert cf.genus_marks == x.genus_marks
        assert cf.edge_pairs == x.graph.edges
        assert cf.to_dual_graph() == x

    def test_split_round_trip(self):
        x = parse_curve_file(SPLIT_G3)
        again = parse_curve_file(format_curve_file(x))
        assert again.graph == x.graph
        assert again.genus_marks == x.genus_marks

    def test_random_round_trip_same_spin_report(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, max_b1=5, max_vertices=5)
            marks = tuple(rng.randint(0, 2) for _ in range(g.vertex_count))
            x = CurveDualGraph(g, marks)
            y = parse_curve_file(format_curve_file(x))
            assert are_isomorphic(x.graph, y.graph)
            assert spin_report(x) == spin_report(y)

    def test_custom_names_preserved(self):
        from spincomb import CurveDualGraph

        x = CurveDualGraph(fat_triangle(), (0, 1, 0))
        text = format_curve_file(x, vertex_names=["p", "q", "r"])
        cf = parse_curve(text)
        assert cf.vertex_names == ("p", "q", "r")


class TestFormatRefusesNames:
    """format_curve_file emits only text that parses back to the names it
    was given; any other name list is a ValueError."""

    SPLIT = CurveDualGraph(build_graph(2, [(0, 1)] * 3), (0, 0))

    @pytest.mark.parametrize("names", [["a#1", "b"], ["a b", "c"], ["", "b"], ["a\x85", "b"]])
    def test_vertex_name_not_one_field(self, names):
        with pytest.raises(ValueError, match="one field"):
            format_curve_file(self.SPLIT, vertex_names=names)

    def test_edge_name_not_one_field(self):
        with pytest.raises(ValueError, match="edge name 'n#2'"):
            format_curve_file(self.SPLIT, edge_names=["n1", "n#2", "n3"])

    def test_duplicate_vertex_names(self):
        with pytest.raises(ValueError, match="duplicate vertex names"):
            format_curve_file(self.SPLIT, vertex_names=["a", "a"])

    def test_duplicate_edge_names(self):
        with pytest.raises(ValueError, match="duplicate edge names"):
            format_curve_file(self.SPLIT, edge_names=["n1", "n2", "n1"])

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_edge_name_count(self, count):
        names = [f"n{i}" for i in range(count)]
        with pytest.raises(ValueError, match=f"{count} edge names given, 3 needed"):
            format_curve_file(self.SPLIT, edge_names=names)

    @pytest.mark.parametrize("count", [1, 3])
    def test_vertex_name_count(self, count):
        names = [f"c{i}" for i in range(count)]
        with pytest.raises(ValueError, match=f"{count} vertex names given, 2 needed"):
            format_curve_file(self.SPLIT, vertex_names=names)

    @settings(deadline=None)
    @given(st.lists(st.text(max_size=3), min_size=2, max_size=2))
    def test_any_vertex_names_refused_or_read_back(self, names):
        try:
            text = format_curve_file(self.SPLIT, vertex_names=names)
        except ValueError:
            return
        assert parse_curve(text).vertex_names == tuple(names)


@pytest.fixture
def split_path(tmp_path):
    path = tmp_path / "split.curve"
    path.write_text(SPLIT_G3)
    return str(path)


class TestSmoothCurve:
    """One component and no node: the generic stable curve, here of genus 2."""

    @pytest.fixture
    def smooth_path(self, tmp_path):
        path = tmp_path / "smooth.curve"
        path.write_text("v c genus=2\n")
        return str(path)

    def test_analyze(self, smooth_path, capsys):
        assert main(["--json", "analyze", smooth_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["vertex_count"], data["edge_count"], data["betti_number"]) == (1, 0, 0)
        assert data["cyclic_betti_set"] == [0]
        assert data["separating_edges"] == [] and data["separating_vertices"] == []

    def test_spin(self, smooth_path, capsys):
        assert main(["--json", "spin", smooth_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["b"], data["p"], data["genus"]) == (0, 2, 2)
        assert data["component_count"] == 16
        assert data["multiplicity_multiset"] == {"0": 16}
        assert data["length"] == 16 == 2 ** (2 * data["genus"])
        assert main(["spin", smooth_path]) == 0
        assert "length:               16 (2^4)" in capsys.readouterr().out

    def test_classify(self, smooth_path, capsys):
        assert main(["--json", "classify", smooth_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert not data["superstable"]
        assert data["theorem2"] is None and data["theorem3"] is None
        assert main(["classify", smooth_path]) == 0
        out = capsys.readouterr().out
        assert "theorem 2: not applicable (graph has no superstable core)" in out

    def test_evensets(self, smooth_path, capsys):
        assert main(["--json", "evensets", smooth_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1
        assert data["even_sets"] == [
            {
                "betti": 0,
                "blown_up_count": 0,
                "edges": [],
                "multiplicity_exponent": 0,
                "point_count": 16,
            }
        ]


class TestCli:
    def test_analyze_text(self, split_path, capsys):
        assert main(["analyze", split_path]) == 0
        out = capsys.readouterr().out
        assert "betti number b1:      3" in out
        assert "cyclic betti set B:   {0, 1, 3}" in out
        assert "separating edges:     -" in out

    def test_spin_text(self, split_path, capsys):
        assert main(["spin", split_path]) == 0
        out = capsys.readouterr().out
        assert "components:           21" in out
        assert "length:               64 (2^6)" in out
        assert "multiplicity 2^3: 1 component(s)" in out

    @pytest.mark.parametrize(
        "command, traversals", [("analyze", 2), ("spin", 1), ("classify", 2), ("evensets", 1)]
    )
    def test_lowpoint_dfs_runs(self, command, traversals, split_path, monkeypatch, capsys):
        """One traversal checks that the curve is connected, and the b1 of a
        connected curve needs none; analyze reads everything else from one
        more, and classify makes one in the superstable reduction.  Every
        command makes one pass over the cycle space."""
        calls = {"_lowpoint_dfs": [], "_betti_pass": []}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(g):
                calls[name].append(g)
                return original(g)

            monkeypatch.setattr(module, name, wrapper)

        for module in (graphs, cli, transforms):
            counted(module, "_lowpoint_dfs")
        counted(cycles, "_betti_pass")
        assert main([command, split_path]) == 0
        assert len(calls["_lowpoint_dfs"]) == traversals
        assert len(calls["_betti_pass"]) == 1

    def test_spin_json_matches_text_numbers(self, split_path, capsys):
        assert main(["--json", "spin", split_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["component_count"] == 21
        assert data["length"] == 64
        assert data["multiplicity_multiset"] == {"0": 8, "2": 12, "3": 1}
        assert data["multiplicity_set_exponents"] == [0, 2, 3]

    def test_classify_text(self, split_path, capsys):
        assert main(["classify", split_path]) == 0
        out = capsys.readouterr().out
        assert "split:         yes" in out
        assert "theorem 2: holds (exercised, classification=split)" in out

    @pytest.mark.parametrize(
        "curve, named",
        [
            ("split_g3", "split"),
            ("loop_g4", "loop"),
            ("tetrahedron", "tetrahedron"),
            ("fat_triangle", "fat_triangle"),
            ("compact_type_g4", None),
        ],
    )
    def test_classify_flags_name_one_class(self, curve, named, capsys):
        demo = Path(__file__).parent.parent / f"demos/curves/{curve}.curve"
        assert main(["--json", "classify", str(demo)]) == 0
        data = json.loads(capsys.readouterr().out)
        for cls in ("split", "loop", "tetrahedron", "fat_triangle"):
            assert data[cls] == (cls == named)

    def test_classify_non_superstable_reduces(self, tmp_path, capsys):
        text = (
            "v a genus=0\nv b genus=0\nv c genus=0\n"
            "e n1 a b\ne n2 b c\ne n3 a c\n"
        )
        path = tmp_path / "triangle.curve"
        path.write_text(text)
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "superstable:   no (theorems checked on the reduced graph)" in out
        assert "theorem 2: holds (exercised, classification=loop)" in out

    def test_classify_reduces_a_large_curve(self, tmp_path, capsys):
        """4,500 components, 3,000 of them on pendant trees: the reduction
        is one heap pass, so classify answers at once."""
        g = cycle_with_pendant_trees(4500, random.Random(3))
        path = tmp_path / "pendant.curve"
        path.write_text(format_curve_file(CurveDualGraph(g, (0,) * g.vertex_count)))
        assert main(["--json", "classify", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["via_reduction"] is True and data["superstable"] is False
        assert data["theorem2"]["classification"] == "loop"

    def test_evensets(self, split_path, capsys):
        assert main(["--json", "evensets", split_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 8
        sizes = sorted(len(s["edges"]) for s in data["even_sets"])
        assert sizes == [0, 2, 2, 2, 2, 2, 2, 4]

    def test_verify(self, capsys):
        assert main(["verify", "4"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_verify_json(self, capsys):
        assert main(["--json", "verify", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem2"]["violations"] == 0
        assert data["theorem3"]["violations"] == 0

    def test_verify_past_the_enumeration_bound(self, capsys):
        """verify admits the enumerator's bound, MAX_ENUM_EDGES = 10, and
        refuses 11 with an error line."""
        assert main(["verify", "11"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: max_edges must be in 1..10\n"

    def test_verify_names_the_k33_violation(self, capsys, monkeypatch):
        # one sweep serves both calls: the reports do not depend on --json
        sweep = functools.cache(spincomb.cli.sweep_theorems)
        monkeypatch.setattr(spincomb.cli, "sweep_theorems", sweep)
        assert main(["--json", "verify", "9"]) == 1
        data = json.loads(capsys.readouterr().out)
        k33 = canonical_form(build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]))
        assert data["violating_classes"] == [
            {
                "theorem": 2,
                "canonical_key": [list(edge) for edge in k33],
                "cyclic_betti_set": [0, 1],
                "classification": "other",
            }
        ]
        assert (data["theorem2"]["violations"], data["theorem3"]["violations"]) == (1, 0)
        assert main(["verify", "9"]) == 1
        lines = capsys.readouterr().out.splitlines()
        edges = " ".join(f"{a}-{b}" for a, b in k33)
        assert lines[3:] == [f"theorem2 violated by {edges}: B={{0, 1}}, classification=other"]
        assert sweep.cache_info().misses == 1

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.curve"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.curve"
        path.write_text("nonsense\n")
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_spin_count_past_the_int_digit_limit(self, flags, tmp_path, capsys):
        # genus 9001: the length 2^18002 has 5,420 digits, past the default 4,300
        path = tmp_path / "huge.curve"
        path.write_text("v a genus=9000\ne n a a\n")
        assert main(flags + ["spin", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["spin", "evensets"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_huge_genus_refused_before_allocating(self, command, flags, tmp_path):
        # 2^(2 * 10^11) would take 25 GB; the child may map 1 GiB, so an
        # attempt to build it dies with MemoryError instead of swapping
        path = tmp_path / "huge.curve"
        path.write_text("v a genus=100000000000\nv b genus=0\ne n1 a b\ne n2 a b\n")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(spincomb.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from spincomb.cli import main; sys.exit(main())"]
            + flags + [command, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("limit", [640, 4300, 10000])
    def test_refusal_matches_the_int_to_str_limit(self, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            last = (10**limit).bit_length() - 1  # 2^last is the last power that prints
            _refuse_unprintable(last, "x")
            str(1 << last)
            with pytest.raises(ValueError):
                _refuse_unprintable(last + 1, "x")
            with pytest.raises(ValueError):
                str(1 << (last + 1))
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("command", ["spin", "evensets"])
    def test_genus_at_the_digit_limit(self, command, tmp_path, capsys):
        # a tree curve of genus p: one even set, length and point count 2^(2p);
        # at 640 digits 2^2126 prints and 2^2128 does not
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for p, status in ((1063, 0), (1064, 1)):
                path = tmp_path / f"tree{p}.curve"
                path.write_text(f"v a genus={p}\nv b genus=0\ne n a b\n")
                assert main([command, str(path)]) == status
                captured = capsys.readouterr()
                assert ("2^" + str(2 * p)) in (captured.out if status == 0 else captured.err)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_evensets_point_count_past_the_digit_limit(self, flags, tmp_path, capsys):
        # one loop, b1 = 1: the largest point count is 2^(2p + 1), and at the
        # default 4,300 digits 2^14283 prints and 2^14285 does not
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for p, status in ((7141, 0), (7142, 1)):
                path = tmp_path / f"loop{p}.curve"
                path.write_text(f"v a genus={p}\ne n a a\n")
                assert main(flags + ["evensets", str(path)]) == status
                captured = capsys.readouterr()
                if status == 0:
                    assert str(1 << 14283) in captured.out
                else:
                    assert captured.out == ""
                    assert captured.err == (
                        "error: the point count 2^14285 has more than 4300 digits, "
                        "too many to print\n"
                    )
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("command", ["analyze", "spin", "classify", "evensets", "verify"])
    def test_main_calls_the_command_through_the_module(
        self, command, split_path, monkeypatch, capsys
    ):
        """A wrapper set on spincomb.cli.cmd_<name>, as a tracer sets one,
        sees the call; a table of the functions bound at import would not."""
        calls = []
        original = getattr(cli, f"cmd_{command}")

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, f"cmd_{command}", counted)
        assert main([command, "3" if command == "verify" else split_path]) == 0
        assert len(calls) == 1

    def test_cap_exceeded_message(self, tmp_path, capsys):
        lines = ["v a genus=0", "v b genus=0"]
        lines += [f"e n{i} a b" for i in range(33)]
        path = tmp_path / "big.curve"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path)]) == 1
        assert "b1=32" in capsys.readouterr().err

    def test_demo_curve_file_parses(self, capsys):
        import pathlib

        demo = pathlib.Path(__file__).parent.parent / "demos/curves/split_g3.curve"
        assert main(["analyze", str(demo)]) == 0
        capsys.readouterr()


class TestClassifyOnePass:
    """cmd_classify reads the split corollary and both theorems from one pass
    over the cycle space of the core; the public checkers, each making its
    own pass (the corollary on the input graph), are the oracle."""

    VERDICTS = ("corollary_split", "theorem2", "theorem3")

    @staticmethod
    def oracle(x: CurveDualGraph, names) -> dict:
        corollary = cli._verdict_dict(check_corollary_split(x), names)
        try:
            core = superstable_reduction(x.graph)
        except VanishingComponentError:
            return {"corollary_split": corollary, "theorem2": None, "theorem3": None}
        if core is not x.graph:
            names = tuple(f"r{i}" for i in range(core.edge_count))
        theorem2, theorem3 = check_theorems(core)
        return {
            "corollary_split": corollary,
            "theorem2": cli._verdict_dict(theorem2, names),
            "theorem3": cli._verdict_dict(theorem3, names),
        }

    @staticmethod
    def curves(rng: random.Random):
        k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        yield CurveDualGraph(k33, (0,) * 6)
        yield CurveDualGraph(loop_graph(), (0,))  # genus 1, one node: fails as a loop
        for _ in range(30):
            tree = random_tree(rng)
            yield CurveDualGraph(tree, tuple(rng.randint(0, 2) for _ in range(tree.vertex_count)))
        for _ in range(150):
            g = random_connected_graph(rng, max_b1=8, max_vertices=8)
            top = rng.choice((0, 2))  # zero marks let the corollary's hypothesis hold
            yield CurveDualGraph(g, tuple(rng.randint(0, top) for _ in range(g.vertex_count)))

    def test_verdicts_match_the_public_checkers(self, rng):
        seen = {"tree": 0, "reduced": 0, "superstable": 0, "exercised": 0, "fails": 0}
        for x in self.curves(rng):
            cf = parse_curve(format_curve_file(x))
            data = cli.cmd_classify(cf)
            assert {k: data[k] for k in self.VERDICTS} == self.oracle(x, cf.edge_names)
            if data["theorem2"] is None:
                seen["tree"] += 1
            else:
                seen["reduced" if data["via_reduction"] else "superstable"] += 1
            seen["exercised"] += data["corollary_split"]["hypothesis_exercised"]
            seen["fails"] += not data["corollary_split"]["holds"]
        assert min(seen.values()) > 0, seen
