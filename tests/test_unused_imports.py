"""Every name a library module imports is used in that module, and every
private top-level name a library module defines is read in the package."""

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


def top_level_names(tree: ast.Module) -> list[str]:
    """Names the module's top level binds by def, class or assignment,
    including those inside top-level if, try and with blocks."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for part in ("body", "orelse", "finalbody"):
                todo += getattr(node, part, [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body
    return names


def dead_private_names(trees: dict) -> list[str]:
    """One "module name" string per private top-level name (a leading
    underscore, not a dunder) of the modules in trees (file name -> ast)
    that no module reads, as a loaded name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module} {name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and name not in read
    ]


def test_every_module_is_listed():
    assert "qcqp_model.py" in MODULES and "connection.py" in MODULES


def parse(module: str) -> ast.Module:
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = parse(module)
    assert [n for n in unused_imports(tree) if n not in KEPT.get(module, ())] == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nfrom __future__ import annotations\nsep\n")
    assert unused_imports(tree) == ["math", "path"]


def test_no_dead_private_name():
    trees = {module: parse(module) for module in MODULES + ["__init__.py"]}
    assert dead_private_names(trees) == []


def test_the_check_sees_a_dead_private_name():
    trees = {
        "a.py": ast.parse(
            "__version__ = '0'\n_used = 1\n_dead, _DEAD = 2, 3\n"
            "def _f():\n    return _used\n"
            "def _g():\n    _local = 4\n"
            "class _C:\n    pass\n"
            "try:\n    _tried = 5\nexcept ImportError:\n    _caught = 6\n"
        ),
        "b.py": ast.parse("from a import _f\nimport a\n_f()\na._tried\n"),
    }
    assert dead_private_names(trees) == [
        "a.py _dead", "a.py _DEAD", "a.py _g", "a.py _C", "a.py _caught"
    ]
