"""Every name a library module imports is used in that module."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "sepqcqp")

#: imports kept for their callers rather than the module: perfbench's
#: tracing wraps these names where connection.py looks them up
KEPT = {"connection.py": {"build_shor", "build_hom", "check_convex"}}

MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's import statements that no expression
    of the module reads. `import a.b` binds a, and `as` binds the alias."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_module_is_listed():
    assert "qcqp_model.py" in MODULES and "connection.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert [n for n in unused_imports(tree) if n not in KEPT.get(module, ())] == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nfrom __future__ import annotations\nsep\n")
    assert unused_imports(tree) == ["math", "path"]
