"""The package's ten value types share one slotted, immutable base, and
importing the package and its CLI loads no ``dataclasses``, ``inspect``,
``ast`` or ``dis``, so that a cold start stays short."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from spincomb import (
    CurveDualGraph,
    EdgeSubset,
    Multigraph,
    SweepReport,
    Verdict,
    ZeroChain,
    build_graph,
    check_theorems,
    cycle_basis,
    parse_curve,
    spin_report,
    support_description,
    sweep_theorems,
)
from spincomb.errors import BadIndexError
from spincomb.graphs import _Value

SRC = Path(__file__).resolve().parent.parent / "src"


def theta() -> Multigraph:
    return build_graph(2, [(0, 1), (0, 1), (0, 1)])


def theta_curve() -> CurveDualGraph:
    return CurveDualGraph(theta(), (0, 1))


#: A fresh instance of each value type, by name, per call.
VALUES = {
    "Multigraph": theta,
    "EdgeSubset": lambda: EdgeSubset(5, 3),
    "ZeroChain": lambda: ZeroChain(5, 3),
    "CycleBasis": lambda: cycle_basis(theta()),
    "Verdict": lambda: check_theorems(theta())[0],
    "CurveDualGraph": theta_curve,
    "SpinReport": lambda: spin_report(theta_curve()),
    "SupportDescription": lambda: support_description(theta_curve(), EdgeSubset(3, 3)),
    "SweepReport": lambda: sweep_theorems(3)[0],
    "CurveFile": lambda: parse_curve("v a genus=0\nv b genus=1\ne x a b\ne y a b\n"),
}


def test_every_value_type_covered():
    assert sorted(t.__name__ for t in _Value.__subclasses__()) == sorted(VALUES)


@pytest.mark.parametrize("name", list(VALUES))
def test_value_semantics(name):
    value, twin = VALUES[name](), VALUES[name]()
    assert type(value).__name__ == name
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.label = "x"
    assert not hasattr(value, "__dict__") and not hasattr(value, "label")
    if name == "SweepReport":  # the elapsed time differs between two sweeps
        twin = SweepReport(*[getattr(twin, f) for f in SweepReport.__slots__[:-1]],
                           value.elapsed)
    assert value == twin and value is not twin and not value != twin
    if name != "SpinReport":  # its multiplicity multiset is a dict
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


def test_equality_needs_the_same_class():
    assert EdgeSubset(5, 3) != ZeroChain(5, 3)
    assert EdgeSubset(5, 3) != (5, 3)
    assert EdgeSubset(5, 3) != EdgeSubset(5, 4)


def test_repr_as_before():
    verdict = Verdict(False, "split", EdgeSubset(5, 3), True)
    assert repr(verdict) == (
        "Verdict(holds=False, classification='split', "
        "witness=EdgeSubset(bits=5, width=3), hypothesis_exercised=True)"
    )
    assert repr(Verdict(True, "other")) == (
        "Verdict(holds=True, classification='other', witness=None, hypothesis_exercised=False)"
    )
    assert repr(Multigraph(2, ((0, 1), (1, 1)))) == (
        "Multigraph(vertex_count=2, edges=((0, 1), (1, 1)))"
    )


def test_constructor_checks_kept():
    with pytest.raises(BadIndexError):
        EdgeSubset(-1, 3)
    with pytest.raises(BadIndexError):
        EdgeSubset(8, 3)
    with pytest.raises(ValueError, match="3 genus marks for 2 vertices"):
        CurveDualGraph(theta(), (0, 1, 2))


def test_import_loads_no_dataclasses():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import spincomb, spincomb.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
