"""The names the benchmark harness reaches into wfstdec for still exist.

``benchmarks/spans.py`` wraps every name in its ``TRACED`` table with
``getattr`` on the layer's module, and ``benchmarks/run.py`` reads the
``RELAY_COUNTERS`` fields of ``RelayStats``; a missing name makes every
benchmark run fail.  Both tables are read from the source with
``ast.literal_eval``, so no benchmark file is imported.
"""

import ast
import dataclasses
import importlib
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
