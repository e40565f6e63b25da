"""Every imported name is read: an ``ast`` walk over the Python files of
``src/``, ``tests/`` and ``tools/`` finds each name that an import binds
and fails when no expression of the scope that holds the import reads
it (a function's import is read within that function, a module's
anywhere in the module).  ``from __future__`` imports and names listed
in ``__all__`` count as read."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIRS = ("src", "tests", "tools")


def _bound(node) -> list[str]:
    """The names that one import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.partition(".")[0] for a in node.names]


def _read(scope) -> set[str]:
    """The names read anywhere in ``scope``, nested scopes included, with
    the strings of an ``__all__`` list."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(e.value for e in ast.walk(node.value)
                       if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return out


def _imports(scope):
    """The import statements of ``scope`` outside its nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = []
    for scope in scopes:
        read = None
        for node in _imports(scope):
            for name in _bound(node):
                read = _read(scope) if read is None else read
                if name not in read:
                    out.append((node.lineno, name))
    return sorted(out)


def test_every_imported_name_is_read():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for d in DIRS for path in sorted((ROOT / d).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_sees_an_unread_import_in_each_scope():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from a.b import c, d as e\n"
              "import x.y\n"
              "__all__ = ['c']\n"
              "def f():\n"
              "    import json\n"
              "    from re import compile\n"
              "    return compile, system\n"
              "def g():\n"
              "    return x.y\n")
    assert unused_imports(source) == [(2, "os"), (3, "e"), (7, "json")]
