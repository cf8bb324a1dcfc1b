"""Every graphideals name the benchmark harness reaches still resolves.

perfbench/ is read as source and never imported or changed: the tracer's
TARGETS table and each ``kernels.<name>`` call in run.py are checked
against the package, so a deletion that would break ``--trace 1`` or the
report stamp fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py assigns no {name}")


TRACING = parse("tracing.py")
TARGETS = assigned(TRACING, "TARGETS")
MODULES = assigned(TRACING, "MODULES")

RUN_KERNEL_CALLS = sorted(
    {
        node.func.attr
        for node in ast.walk(parse("run.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "kernels"
    }
)


def test_targets_read():
    assert ("kernels", "minimalize") in TARGETS
    assert {m for m, _ in TARGETS} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"graphideals.{module}")


@pytest.mark.parametrize("module, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_resolves(module, attr):
    # as the tracer patches it: a method must sit on its class itself
    owner = importlib.import_module(f"graphideals.{module}")
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner)[member])


def test_run_calls_the_pinned_kernels():
    pinned = {"available", "active", "use", "minimalize", "intersect_rows"}
    assert pinned <= set(RUN_KERNEL_CALLS)


@pytest.mark.parametrize("name", RUN_KERNEL_CALLS)
def test_run_kernel_call_resolves(name):
    kernels = importlib.import_module("graphideals.kernels")
    assert callable(getattr(kernels, name))
