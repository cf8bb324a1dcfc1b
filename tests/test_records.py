"""The package's value classes: construction, equality, hashing, repr, freezing.

Each class writes only its own ``__init__`` and takes ``__eq__`` and,
when frozen, ``__hash__`` from ``graphideals._records``: equality holds
within one class over all of its fields, and the hash is that of the
field tuple.  The reprs are literal strings,
so a change to any of them shows.  The import guard checks that
importing the CLI loads none of ``dataclasses``, ``inspect`` or
``typing``, which cost a fresh process milliseconds before any work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphideals._records import FrozenRecord, Record
from graphideals.classify import SuspensionDecomposition, Verdict
from graphideals.cli import CommandRequest, Report
from graphideals.decompose import Decomposition, IrreducibleComponent
from graphideals.graphs import Edge, UnmixednessResult, WeightedGraph
from graphideals.monomials import Monomial, MonomialIdeal, VariableContext
from graphideals.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

CTX = VariableContext(("x", "y", "z"))
ABC = VariableContext(("a", "b", "c"))
C1 = IrreducibleComponent(CTX, ((0, 1), (2, 3)))
C2 = IrreducibleComponent(CTX, ((1, 2),))
CTX_R = "VariableContext(names=('x', 'y', 'z'))"
C1_R = f"IrreducibleComponent(context={CTX_R}, powers=((0, 1), (2, 3)))"
C2_R = f"IrreducibleComponent(context={CTX_R}, powers=((1, 2),))"
EDGES = (Edge(0, 1, 2), Edge(1, 2, 3))

# class, field names, canonical field values, value tuples that differ in
# one field each, the repr, frozen
SPECS = [
    (
        VariableContext,
        ("names",),
        (("x", "y", "z"),),
        [(("x", "y"),)],
        CTX_R,
        True,
    ),
    (
        Monomial,
        ("context", "exponents"),
        (CTX, (1, 0, 2)),
        [(ABC, (1, 0, 2)), (CTX, (1, 0, 3))],
        f"Monomial(context={CTX_R}, exponents=(1, 0, 2))",
        True,
    ),
    (
        MonomialIdeal,
        ("context", "rows"),
        (CTX, ((1, 1, 0), (0, 2, 2))),
        [(ABC, ((1, 1, 0), (0, 2, 2))), (CTX, ((1, 1, 0),))],
        f"MonomialIdeal(context={CTX_R}, rows=((1, 1, 0), (0, 2, 2)))",
        True,
    ),
    (
        IrreducibleComponent,
        ("context", "powers"),
        (CTX, ((0, 1), (2, 3))),
        [(ABC, ((0, 1), (2, 3))), (CTX, ((0, 1), (2, 4)))],
        C1_R,
        True,
    ),
    (
        Decomposition,
        ("context", "components"),
        (CTX, (C1, C2)),
        [(ABC, ()), (CTX, (C1,))],
        f"Decomposition(context={CTX_R}, components=({C1_R}, {C2_R}))",
        True,
    ),
    (
        WeightedGraph,
        ("vertex_names", "edges"),
        (("a", "b", "c"), EDGES),
        [(("a", "b", "d"), EDGES), (("a", "b", "c"), EDGES[:1])],
        "WeightedGraph(vertex_names=('a', 'b', 'c'), "
        "edges=(Edge(u=0, v=1, w=2), Edge(u=1, v=2, w=3)))",
        True,
    ),
    (
        UnmixednessResult,
        ("unmixed", "cardinality", "witnesses"),
        (False, None, (C1, C2)),
        [(True, None, (C1, C2)), (False, 2, (C1, C2)), (False, None, (C2, C1))],
        "UnmixednessResult(unmixed=False, cardinality=None, "
        f"witnesses=({C1_R}, {C2_R}))",
        True,
    ),
    (
        SuspensionDecomposition,
        ("base_vertices", "whiskers"),
        ((0, 2), ((0, 3), (2, 5))),
        [((0, 1), ((0, 3), (2, 5))), ((0, 2), ((0, 3), (2, 6)))],
        "SuspensionDecomposition(base_vertices=(0, 2), whiskers=((0, 3), (2, 5)))",
        True,
    ),
    (
        Verdict,
        ("family", "unmixed", "cohen_macaulay", "certificate", "rationale"),
        ("cycle", True, "no", {"length": 4}, "r"),
        [
            ("path", True, "no", {"length": 4}, "r"),
            ("cycle", False, "no", {"length": 4}, "r"),
            ("cycle", True, "unknown", {"length": 4}, "r"),
            ("cycle", True, "no", {"length": 5}, "r"),
            ("cycle", True, "no", {"length": 4}, "s"),
        ],
        "Verdict(family='cycle', unmixed=True, cohen_macaulay='no', "
        "certificate={'length': 4}, rationale='r')",
        True,
    ),
    (
        CheckResult,
        ("name", "passed", "cases", "detail"),
        ("c", True, 3, "d"),
        [
            ("b", True, 3, "d"),
            ("c", False, 3, "d"),
            ("c", True, 4, "d"),
            ("c", True, 3, ""),
        ],
        "CheckResult(name='c', passed=True, cases=3, detail='d')",
        False,
    ),
    (
        CommandRequest,
        ("command", "input_path", "options"),
        ("ideal", "g.json", {"check": True}),
        [
            ("radical", "g.json", {"check": True}),
            ("ideal", None, {"check": True}),
            ("ideal", "g.json", {}),
        ],
        "CommandRequest(command='ideal', input_path='g.json', options={'check': True})",
        False,
    ),
    (
        Report,
        ("status", "payload", "diagnostics"),
        ("ok", {"a": [1]}, ["d"]),
        [("error", {"a": [1]}, ["d"]), ("ok", {}, ["d"]), ("ok", {"a": [1]}, [])],
        "Report(status='ok', payload={'a': [1]}, diagnostics=['d'])",
        False,
    ),
]
each_class = pytest.mark.parametrize(
    "cls, fields, values, changed, text, frozen",
    SPECS,
    ids=[spec[0].__name__ for spec in SPECS],
)


@each_class
def test_equality_and_hash_come_from_records(
    cls, fields, values, changed, text, frozen
):
    assert cls.__eq__ is Record.__eq__
    if frozen:
        assert cls.__hash__ is FrozenRecord.__hash__


@each_class
def test_equality_and_hash(cls, fields, values, changed, text, frozen):
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    assert tuple(getattr(b, name) for name in fields) == values
    if not frozen:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the value it holds
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@each_class
def test_every_field_is_compared(cls, fields, values, changed, text, frozen):
    assert len(changed) == len(fields)
    a = cls(*values)
    for other in changed:
        assert a != cls(*other) and not a == cls(*other)


@each_class
def test_never_equal_to_another_class(cls, fields, values, changed, text, frozen):
    a = cls(*values)
    subclass = type("Sub", (cls,), {})
    assert a != subclass(*values) and subclass(*values) != a
    assert a != values and values != a
    for other_cls, _, other_values, *_ in SPECS:
        if other_cls is not cls:
            assert a != other_cls(*other_values)


@each_class
def test_repr(cls, fields, values, changed, text, frozen):
    assert repr(cls(*values)) == text


@each_class
def test_assignment(cls, fields, values, changed, text, frozen):
    a = cls(*values)
    name = fields[-1]
    if not frozen:
        setattr(a, name, changed[-1][-1])
        assert a == cls(*changed[-1])
        return
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, changed[-1][-1])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.unrelated = 1
    assert a == cls(*values)


def test_defaults():
    v, w = Verdict("cycle", True, "no"), Verdict("cycle", True, "no")
    assert v.certificate == {} and v.rationale == ""
    assert v.certificate is not w.certificate
    r, s = CommandRequest("ideal", None), CommandRequest("ideal", None)
    assert r.options == {} and r.options is not s.options
    assert CheckResult("c", True, 1).detail == ""


def test_edge_is_a_named_triple():
    e = Edge(u=2, v=5, w=3)
    assert e == (2, 5, 3) and Edge._fields == ("u", "v", "w")
    assert repr(e._replace(w=7)) == "Edge(u=2, v=5, w=7)"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, so only the package's own imports count
    code = (
        "import json, sys; before = set(sys.modules); import graphideals.cli; "
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} "
        "& (set(sys.modules) - before))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
