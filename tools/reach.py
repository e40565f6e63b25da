"""Reach audit: every function of ``src/dsegraphon`` is entered by a
result, or the allow-list says why not.

In one process, under ``sys.setprofile``, this runs

- each CLI subcommand at small sizes: both modes, CSV output, ``--graphs``,
  and one refusal;
- the hopf-api calls of ``perfbench/child.py``;
- ``tests/test_acceptance.py``, through pytest;

and prints, per module, every function (methods and nested functions
included) that none of them entered, with its line count from its
``def`` or first decorator to its last line.  A function nested in one
that is listed is not listed again.

``tools/reach_allow.txt`` names the functions that may stay unentered,
one ``module.py:Qualified.name  reason`` per line (``#`` starts a
comment).  A reason is ``value-contract`` (a dunder that keeps the value
semantics of its class: equality, hashing, printing, immutability,
pickling, ordering) or ``error-path: <the input that enters it>``.
The script exits 1 when

- a function is neither entered nor listed,
- a listed function is entered, or is no longer defined,
- a line of the allow-list is malformed,
- a CLI run exits with another code than its list expects (0, or 2 for
  a refusal), or the acceptance run fails;

and 0 otherwise.

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
ALLOW = ROOT / "tools" / "reach_allow.txt"

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

# runs that must refuse with exit 2: the exact trace of order 3 meets a
# 20-cell alignment that it cannot certify
REFUSED_RUNS = [
    ["trace", "--spec", "g.json", "--order", "3", "--mode", "exact"],
]


def run_cli(tmp: str) -> list[str]:
    """Run every CLI case; the problems are the runs whose exit code is
    not the expected one."""
    from dsegraphon.cli import main
    for name, doc in SPECS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = os.path.join(tmp, "out")
    problems = []
    for argv, want in [(a, 0) for a in CLI_RUNS] + [(a, 2) for a in REFUSED_RUNS]:
        paths = [os.path.join(tmp, a) if a in SPECS else a for a in argv]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(paths + ["--out", out])
        if code != want:
            problems.append(f"CLI run {' '.join(argv)} exits {code}, not {want}")
    return problems


def run_api() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))  # child.py imports oracles
    import child
    got = {}
    for key, call, _, _ in child._api_calls(*child._api_inputs(0)):
        got[key] = call(got)


def run_acceptance() -> list[str]:
    import pytest
    code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                        "-p", "no:cacheprovider"])
    return [] if code == 0 else [f"acceptance run fails (pytest exit {int(code)})"]


def read_allow(path: pathlib.Path = ALLOW) -> dict:
    """{(module file name, qualified name): reason} of the allow-list;
    ValueError on a malformed line or an entry listed twice."""
    out = {}
    for n, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entry, _, reason = line.partition(" ")
        reason = reason.strip()
        module, _, name = entry.partition(":")
        if not (module.endswith(".py") and name and reason):
            raise ValueError(f"{path.name}:{n}: expected 'module.py:Qualified.name  "
                             f"reason', got {raw!r}")
        kind, _, what = reason.partition(":")
        if not (reason == "value-contract" or (kind == "error-path" and what.strip())):
            raise ValueError(f"{path.name}:{n}: reason must be 'value-contract' or "
                             f"'error-path: <input>', got {reason!r}")
        if (module, name) in out:
            raise ValueError(f"{path.name}:{n}: {entry} listed twice")
        out[module, name] = reason
    return out


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


def report(entered: set, allow: dict) -> list[str]:
    """Print the unentered functions per module, each allow-listed one
    with its reason; return the problems the gate fails on."""
    problems = []
    defined = set()
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
            reason = allow.get((path.name, name))
            print(f"    {name}  {n}  {reason or 'NOT ALLOW-LISTED'}")
            if reason is None:
                problems.append(f"{path.name}:{name} is entered by no run and not "
                                f"allow-listed")
        for name, _, _, _ in funcs:
            defined.add((path.name, name))
            if (path.name, name) in allow and name not in never:
                problems.append(f"{path.name}:{name} is allow-listed but entered")
    for module, name in sorted(allow.keys() - defined):
        problems.append(f"{module}:{name} is allow-listed but not defined")
    print(f"total: {missed} of {total} functions never entered, {lines} lines")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        allow = read_allow()
    except ValueError as exc:
        print(f"reach: {exc}", file=sys.stderr)
        return 1
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            problems = run_cli(tmp)
        run_api()
        problems += run_acceptance()
    finally:
        sys.setprofile(None)
    problems += report({(os.path.realpath(c.co_filename), c.co_firstlineno)
                        for c in codes}, allow)
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
