"""The names the benchmark harness reaches into wfstdec for still exist,
and its calls into wfstdec still bind to their signatures.

``benchmarks/spans.py`` wraps every name in its ``TRACED`` table with
``getattr`` on the layer's module, and ``benchmarks/run.py`` reads the
``RELAY_COUNTERS`` fields of ``RelayStats``; ``benchmarks/stages.py`` and
``benchmarks/run.py`` call wfstdec functions and classes.  A missing name
or a changed signature makes every benchmark run fail.  The tables are
read from the source with ``ast.literal_eval`` and the calls are found in
its syntax tree, so no benchmark file is imported.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from wfstdec.decoder import RelayStats

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _constant(filename: str, name: str):
    """The literal value assigned to ``name`` at the top of a benchmark file."""
    tree = ast.parse((BENCHMARKS / filename).read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


TRACED = [(layer, name)
          for layer, names in _constant("spans.py", "TRACED").items()
          for name in names]


@pytest.mark.parametrize("layer, name", TRACED,
                         ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_name_resolves(layer, name):
    home = importlib.import_module(f"wfstdec.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert meth in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, name))


def test_relay_counters_are_relay_stats_fields():
    fields = {f.name for f in dataclasses.fields(RelayStats)}
    counters = _constant("run.py", "RELAY_COUNTERS")
    assert counters and set(counters) <= fields


def _wfstdec_names(tree: ast.Module) -> dict:
    """Each name a benchmark file binds with ``from wfstdec... import``,
    and the module, function or class it names."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "wfstdec"):
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module),
                                  alias.name)
                names[alias.asname or alias.name] = obj
    return names


def _calls(filename: str):
    """(call node, callee or None if the name is missing) for each call a
    benchmark file makes on a name it imported from wfstdec, or on an
    attribute of such a module."""
    tree = ast.parse((BENCHMARKS / filename).read_text())
    names = _wfstdec_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            yield node, names[f.id]
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and inspect.ismodule(names.get(f.value.id))):
            yield node, getattr(names[f.value.id], f.attr, None)


@pytest.mark.parametrize("filename", ["stages.py", "run.py"])
def test_calls_into_wfstdec_bind(filename):
    """Each call binds its positional arguments and keywords to the
    callee's signature; a call with ``*args`` or ``**kwargs`` binds what
    it spells out."""
    bad = []
    calls = list(_calls(filename))
    for node, callee in calls:
        where = f"{filename}:{node.lineno} {ast.unparse(node.func)}"
        if callee is None:
            bad.append(f"{where}: no such name")
            continue
        args = [None for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
        sig = inspect.signature(callee)
        bind = (sig.bind_partial
                if len(args) + len(kwargs) < len(node.args) + len(node.keywords)
                else sig.bind)
        try:
            bind(*args, **kwargs)
        except TypeError as exc:
            bad.append(f"{where}: {exc}")
    assert calls
    assert not bad
