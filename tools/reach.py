"""Reach audit: the functions of ``src/dsegraphon`` that nothing runs.

In one process, under ``sys.setprofile``, this runs

- each CLI subcommand at small sizes: both modes, CSV output, ``--graphs``;
- the hopf-api calls of ``perfbench/child.py``;
- ``tests/test_acceptance.py``, through pytest;

and prints, per module, every function (methods and nested functions
included) that none of them entered, with its line count from its
``def`` or first decorator to its last line.  A function nested in one
that is listed is not listed again.  The list is information, not a
check: the script exits 0 whatever it finds.

    PYTHONPATH=src python3 tools/reach.py

Standard library only, apart from pytest for the acceptance gate.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dsegraphon"

SPECS = {
    "g.json": {"cocycles": [{"decoration": "g", "omega": "1"}],
               "order": 10, "coupling": "1/2"},
    "gh.json": {"cocycles": [{"decoration": "g", "omega": "1"},
                             {"decoration": "h", "omega": "1/2"}],
                "order": 4, "coupling": "1/2"},
    "rules-symbolic.json": {"residues": {"g": "1"}},
    "rules-half.json": {"residues": {"g": "1", "h": "2"}, "scale": "1/2"},
    "graphs.json": [{"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
                    {"n": 4, "edges": [[0, 1], [1, 1], [2, 3], [2, 3]]},
                    {"n": 5, "edges": []}],
}

CLI_RUNS = [
    ["solve", "--spec", "g.json", "--order", "5"],
    ["solve", "--spec", "gh.json", "--format", "csv"],
    ["renorm", "--spec", "g.json", "--rules", "rules-symbolic.json", "--order", "4"],
    ["renorm", "--spec", "gh.json", "--rules", "rules-half.json", "--order", "3",
     "--format", "csv"],
    ["graphon", "--spec", "g.json", "--order", "3", "--mode", "exact"],
    ["graphon", "--spec", "g.json", "--order", "4", "--mode", "heuristic", "--level", "3"],
    ["graphon", "--spec", "g.json", "--order", "3", "--format", "csv"],
    ["trace", "--spec", "g.json", "--order", "4"],
    ["trace", "--spec", "g.json", "--order", "3", "--mode", "exact"],
    ["trace", "--spec", "g.json", "--order", "3", "--format", "csv"],
    ["tutte", "--max-edges", "4"],
    ["tutte", "--graphs", "graphs.json"],
    ["tutte", "--max-edges", "3", "--format", "csv"],
    ["symanzik", "--max-edges", "4"],
    ["symanzik", "--graphs", "graphs.json"],
    ["symanzik", "--max-edges", "3", "--format", "csv"],
    ["haar", "--samples", "2000"],
    ["haar", "--samples", "500", "--depth", "62", "--format", "csv"],
]


def run_cli(tmp: str) -> None:
    from dsegraphon.cli import main
    for name, doc in SPECS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = os.path.join(tmp, "out")
    for argv in CLI_RUNS:
        argv = [os.path.join(tmp, a) if a in SPECS else a for a in argv]
        with contextlib.redirect_stderr(io.StringIO()):
            main(argv + ["--out", out])


def run_api() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))  # child.py imports oracles
    import child
    got = {}
    for key, call, _, _ in child._api_calls(*child._api_inputs(0)):
        got[key] = call(got)


def run_acceptance() -> None:
    import pytest
    pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                 "-p", "no:cacheprovider"])


def _functions(path: pathlib.Path):
    """(qualified name, first line, last line, enclosing function or None)
    of every function defined in the file, outermost first."""
    out = []

    def walk(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                out.append((name, first, child.end_lineno, outer))
                walk(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", outer)
            else:
                walk(child, prefix, outer)

    walk(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return out


def report(entered: set) -> None:
    total = missed = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        funcs = _functions(path)
        real = os.path.realpath(path)
        never = {name: (first, last) for name, first, last, _ in funcs
                 if (real, first) not in entered}
        listed = [(name, last - first + 1) for name, first, last, outer in funcs
                  if name in never and outer not in never]
        total += len(funcs)
        missed += len(never)
        lines += sum(n for _, n in listed)
        print(f"{path.name}: {len(never)} of {len(funcs)} functions never entered, "
              f"{sum(n for _, n in listed)} lines")
        for name, n in listed:
            print(f"    {name}  {n}")
    print(f"total: {missed} of {total} functions never entered, {lines} lines")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_cli(tmp)
        run_api()
        run_acceptance()
    finally:
        sys.setprofile(None)
    report({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
