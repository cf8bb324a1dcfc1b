"""Fuzz gate: no stdin document or option value makes the CLI raise or
leave exit codes 0-3.

Arbitrary JSON values (and raw bytes) and near-miss graph documents are
fed through ``cli.main`` for the commands that reach every layer, and
near-miss documents also under every command's options with values drawn
from their valid choices or arbitrary short text.  Each run must return
an exit code from 0 to 3.  Exit 1 or 2 must print a single ``error:``
line in text mode, and any failure an error report in JSON mode.
"""

import contextlib
import io
import itertools
import json
import sys

from hypothesis import example, given, settings, strategies as st

from graphideals import classify
from graphideals.cli import main

COMMANDS = (
    ("ideal",),
    ("covers",),
    ("decompose", "--check"),
    ("classify",),
    ("verify",),
)

commands = st.sampled_from(COMMANDS)
formats = st.sampled_from(("text", "json"))

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
keys = st.sampled_from(("vertices", "edges", "u", "v", "w")) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)

NAMES = ("a", "b", "c", "d", "e")


@st.composite
def near_miss_documents(draw):
    """A valid graph on at most 5 vertices with up to two fields spoiled."""
    names = list(NAMES[: draw(st.integers(1, len(NAMES)))])
    pairs = list(itertools.combinations(names, 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [{"u": u, "v": v, "w": draw(st.integers(1, 4))} for u, v in picked]
    doc = {"vertices": names, "edges": edges}
    junk = scalars | st.lists(st.sampled_from(names), max_size=2) | st.just({})
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(("vertex", "edge", "drop", "extra", "top")))
        if where == "vertex":
            names[draw(st.integers(0, len(names) - 1))] = draw(junk)
        elif where == "edge" and edges:
            edge = draw(st.sampled_from(edges))
            edge[draw(st.sampled_from(("u", "v", "w")))] = draw(junk)
        elif where == "drop" and edges:
            edge = draw(st.sampled_from(edges))
            edge.pop(draw(st.sampled_from(("u", "v", "w"))), None)
        elif where == "extra":
            target = draw(st.sampled_from([doc] + edges))
            target[draw(keys)] = draw(junk)
        elif where == "top":
            doc[draw(st.sampled_from(("vertices", "edges")))] = draw(junk)
    return doc


short_text = st.text(max_size=8)
cover_texts = st.lists(
    st.tuples(st.sampled_from(NAMES) | short_text, st.integers(-1, 5) | short_text),
    max_size=3,
).map(lambda pairs: ",".join(f"{name}:{weight}" for name, weight in pairs))
# "path" names no family: it keeps the usage-error branch fuzzed
FAMILIES = ("auto", *classify.FAMILIES, "path")


@st.composite
def command_lines(draw):
    """A command and its options, each value valid or arbitrary text."""
    command = draw(
        st.sampled_from(
            ("ideal", "covers", "decompose", "classify", "primes", "minimize", "verify")
        )
    )
    argv = [command]
    if command == "decompose":
        method = draw(st.sampled_from(("covers", "split")) | short_text)
        argv.append(f"--method={method}")
        if draw(st.booleans()):
            argv.append("--check")
        if draw(st.booleans()):
            cap = draw(st.integers() | short_text)
            argv.append(f"--max-components={cap}")
    elif command == "classify":
        argv.append(f"--family={draw(st.sampled_from(FAMILIES) | short_text)}")
    elif command == "primes":
        flags = st.sampled_from(("--minimal", "--assoc"))
        argv += draw(st.lists(flags, max_size=2))
    elif command == "minimize":
        argv.append(f"--cover={draw(cover_texts | short_text)}")
    elif command == "verify":
        argv.append(f"--random={draw(st.integers(0, 3))}")
        argv.append(f"--max-vertices={draw(st.integers(max_value=5))}")
    return tuple(argv)


def run_stdin(argv, data: bytes):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def check_clean_exit(command, fmt, data: bytes):
    code, out, err = run_stdin(list(command) + ["-", "--format", fmt], data)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert out and not err
    elif fmt == "json":
        assert json.loads(err)["status"] == "error"
    elif code in (1, 2):
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(deadline=None)
@given(
    data=json_values.map(lambda v: json.dumps(v).encode()),
    command=commands,
    fmt=formats,
)
@example(data=b"[" * 100000, command=("ideal",), fmt="text")
@example(data=b'{"vertices": ["\xe9"], "edges": []}', command=("ideal",), fmt="text")
@example(
    data=b'{"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": "b", "w": 1}]}',
    command=("ideal",),
    fmt="text",
)
def test_arbitrary_json_exits_cleanly(data, command, fmt):
    check_clean_exit(command, fmt, data)


@settings(deadline=None)
@given(doc=near_miss_documents(), command=commands, fmt=formats)
def test_near_miss_graphs_exit_cleanly(doc, command, fmt):
    check_clean_exit(command, fmt, json.dumps(doc).encode())


@settings(deadline=None)
@given(doc=near_miss_documents(), command=command_lines(), fmt=formats)
def test_drawn_options_exit_cleanly(doc, command, fmt):
    check_clean_exit(command, fmt, json.dumps(doc).encode())
