"""The reach audit's allow-list, read with ``ast`` alone and no profiling:
every entry names a function that ``src/dsegraphon`` defines, gives one
of the two kinds of reason, and a ``value-contract`` entry is a dunder."""

import importlib.util
import pathlib

import pytest

REACH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach_tool", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_allow_list_names_defined_functions_with_a_reason():
    reach = _reach()
    allow = reach.read_allow()
    assert allow
    defined = {(path.name, name) for path in reach.PACKAGE.glob("*.py")
               for name, _, _, _ in reach._functions(path)}
    for (module, name), reason in allow.items():
        assert (module, name) in defined, (module, name)
        if reason == "value-contract":
            last = name.rpartition(".")[2]
            assert last.startswith("__") and last.endswith("__"), (module, name)
        else:
            kind, _, what = reason.partition(":")
            assert kind == "error-path" and what.strip(), (module, name)


@pytest.mark.parametrize("line", [
    "trees.py:Tree.__repr__",                        # no reason
    "trees.py  value-contract",                      # no function
    "trees:Tree.__repr__  value-contract",           # no module file
    "trees.py:Tree.__repr__  used in debugging",     # neither kind
    "trees.py:Tree.__repr__  error-path:",           # no input named
])
def test_malformed_allow_lines_are_refused(tmp_path, line):
    path = tmp_path / "allow.txt"
    path.write_text("# a comment\n\n" + line + "\n")
    with pytest.raises(ValueError):
        _reach().read_allow(path)


def test_an_entry_listed_twice_is_refused(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("trees.py:Tree.__repr__  value-contract\n" * 2)
    with pytest.raises(ValueError, match="listed twice"):
        _reach().read_allow(path)
