"""Every module-level import in a ``wfstdec`` module is used there.

The package's ``__init__.py`` imports names only to re-export them, and
``from __future__`` imports change how the module compiles, so neither is
checked.  A name counts as used when the module reads it anywhere or lists
it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wfstdec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}  # name the import binds -> the import as written
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = ast.unparse(node)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} ({stmt})" for name, stmt in bound.items()
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from typing import Optional, Sequence as Seq\n"
              "__all__ = ['sys']\n"
              "def f(x: Optional[int]) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == [
        "Seq (from typing import Optional, Sequence as Seq)"]
