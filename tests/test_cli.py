"""End-to-end command-line runs: document shape, exit codes, error
reporting, and byte-level reproducibility of every subcommand."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dsegraphon
from dsegraphon.cli import _json_text, main
from dsegraphon.trees import ForestSum, Tree, ladder, leaf
from helpers import forest_sum_from_json


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 3, "coupling": "1/2"}))
    return str(path)


@pytest.fixture()
def rules_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"residues": {"g": "1"}, "scale": "1/2"}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_document(capsys, spec_file):
    code, doc = run_json(capsys, ["solve", "--spec", spec_file])
    assert code == 0
    assert doc["tool"] == "dsegraphon" and "version" in doc
    assert len(doc["config_sha256"]) == 64
    sums = [row["coefficient_sum"] for row in doc["results"]["summary"]]
    assert sums == ["1", "2", "5"]
    coeffs = [forest_sum_from_json(x) for x in doc["results"]["coefficients"]]
    assert coeffs[0] == ForestSum.unit()
    assert coeffs[1] == ForestSum.of(leaf("g"))
    assert coeffs[2] == 2 * ForestSum.of(ladder(2))
    cherry = Tree("g", [Tree("g"), Tree("g")])
    assert coeffs[3] == 4 * ForestSum.of(ladder(3)) + ForestSum.of(cherry)


def test_solve_rejects_zero_order(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}], "order": 0}))
    assert main(["solve", "--spec", str(path)]) == 2
    assert "order" in capsys.readouterr().err


def test_renorm_finite_parts_numeric(capsys, spec_file, rules_file):
    code, doc = run_json(capsys, ["renorm", "--spec", spec_file,
                                  "--rules", rules_file, "--order", "2"])
    assert code == 0
    grades = doc["results"]["grades"]
    assert [g["pole_free"] for g in grades] == [True, True]
    # scale L = 1/2: grade-1 finite part -L, grade-2 finite part L^2
    assert grades[0]["finite_part"] == [["-1/2", 0]]
    assert grades[1]["finite_part"] == [["1/4", 0]]
    assert all(c["status"] == "PASS" for c in doc["checks"])
    assert doc["results"]["scale_symbolic"] is False


def test_renorm_symbolic_and_zero_scale(capsys, spec_file, tmp_path):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"residues": {"g": "1"}, "scale": None}))
    code, doc = run_json(capsys, ["renorm", "--spec", spec_file,
                                  "--rules", str(sym), "--order", "2"])
    assert code == 0
    assert doc["results"]["scale_symbolic"] is True
    grades = doc["results"]["grades"]
    assert grades[0]["finite_part"] == [["-1", 1]]    # -L
    assert grades[1]["finite_part"] == [["1", 2]]     # L^2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"residues": {"g": "1"}, "scale": "0"}))
    code, doc = run_json(capsys, ["renorm", "--spec", spec_file,
                                  "--rules", str(zero), "--order", "2"])
    assert code == 0
    assert all(g["finite_part"] == [] for g in doc["results"]["grades"])


def test_renorm_pinned_window_is_not_widened(capsys, spec_file, tmp_path):
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps({"residues": {"g": "1"}, "scale": "1/2",
                                  "window": [-2, 1]}))
    assert main(["renorm", "--spec", spec_file, "--rules", str(narrow)]) == 2
    err = capsys.readouterr().err
    assert "window" in err and "-3" in err


def test_renorm_unpinned_window_widens(capsys, spec_file, rules_file):
    # the stock window reaches -8, so widening starts at grade 9
    code, doc = run_json(capsys, ["renorm", "--spec", spec_file,
                                  "--rules", rules_file, "--order", "9"])
    assert code == 0
    assert doc["results"]["widened"] is True
    assert doc["results"]["window"] == [-9, 2]
    assert all(g["pole_free"] for g in doc["results"]["grades"])


def test_graphon_document(capsys, spec_file):
    code, doc = run_json(capsys, ["graphon", "--spec", spec_file,
                                  "--order", "2"])
    assert code == 0
    res = doc["results"]
    # X_1 + X_2 = leaf + 2 chains: 1 + 2*2 vertex cells
    assert len(res["graphon"]["measures"]) == 5
    assert res["cut_norm"]["mode"] == "exact"
    assert F(res["cut_norm"]["value"]) > 0
    codes = [row["graph"] for row in res["fingerprint"]]
    assert len(codes) == 6 and len(set(codes)) == 6
    one_vertex = [r for r in res["fingerprint"] if r["graph"].startswith("1:")]
    assert one_vertex and one_vertex[0]["density"] == "1"


def test_tutte_corpus_and_matrix_tree(capsys):
    code, doc = run_json(capsys, ["tutte", "--max-edges", "3"])
    assert code == 0
    entries = doc["results"]["entries"]
    assert len(entries) == 1 + 2 + 4 + 11
    for e in entries:
        if e["match"] is not None:
            assert e["match"] is True
    assert any(c["name"] == "tutte-t11-matrix-tree" and c["status"] == "PASS"
               for c in doc["checks"])


def test_tutte_explicit_graphs_and_csv(capsys, tmp_path):
    graphs = tmp_path / "graphs.json"
    graphs.write_text(json.dumps([
        {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}]))
    code = main(["tutte", "--graphs", str(graphs), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# tool=dsegraphon"
    assert lines[3] == "n,edges,t11,spanning_trees,match"
    assert lines[4].startswith("3,0-1;1-2;0-2,3,3,yes")
    assert lines[5].split(",")[2:] == ["16", "16", "yes"]


def test_tutte_exits_1_when_the_matrix_tree_count_differs(capsys, tmp_path, monkeypatch):
    from dsegraphon import graphpoly
    real = graphpoly._matrix_tree_count
    monkeypatch.setattr(graphpoly, "_matrix_tree_count", lambda g: real(g) + 1)
    graphs = _write(tmp_path, "graphs.json", [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}])
    code, doc = run_json(capsys, ["tutte", "--graphs", graphs])
    assert code == 1
    assert doc["checks"] == [{"name": "tutte-t11-matrix-tree", "status": "FAIL"}]
    [entry] = doc["results"]["entries"]
    assert (entry["t11"], entry["spanning_trees"], entry["match"]) == ("3", 4, False)
    assert main(["tutte", "--graphs", graphs, "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[4] == "3,0-1;1-2;0-2,3,4,no"


def test_tutte_empty_corpus(capsys, tmp_path):
    graphs = tmp_path / "none.json"
    graphs.write_text("[]")
    code, doc = run_json(capsys, ["tutte", "--graphs", str(graphs)])
    assert code == 0
    assert doc["results"]["entries"] == [] and doc["checks"] == []


def test_symanzik_batch(capsys, tmp_path):
    graphs = tmp_path / "graphs.json"
    graphs.write_text(json.dumps([
        {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        {"n": 2, "edges": [[0, 1], [0, 1], [0, 1]]}]))
    code, doc = run_json(capsys, ["symanzik", "--graphs", str(graphs),
                                  "--seed", "11"])
    assert code == 0
    entries = doc["results"]["entries"]
    assert [e["loops"] for e in entries] == [1, 2]
    assert all(e["homogeneous"] and e["det_matches"] for e in entries)
    assert {c["name"] for c in doc["checks"]} == {
        "symanzik-homogeneity", "symanzik-det-identity"}
    assert all(c["status"] == "PASS" for c in doc["checks"])


def test_symanzik_seed_reaches_only_the_config(capsys):
    # the determinant check is exact, so the seed changes nothing but its
    # own config entry and the hash of the config
    docs = [run_json(capsys, ["symanzik", "--max-edges", "6", "--seed", seed])
            for seed in ("0", "5")]
    assert [code for code, _ in docs] == [0, 0]
    (_, a), (_, b) = docs
    assert (a["config"].pop("seed"), b["config"].pop("seed")) == (0, 5)
    assert a.pop("config_sha256") != b.pop("config_sha256")
    assert a == b
    assert len(a["results"]["entries"]) == 471


def test_symanzik_exits_1_when_the_det_identity_fails(capsys, tmp_path, monkeypatch):
    # a Psi off by one monomial of its own degree stays homogeneous, and
    # only the determinant check fails
    from dsegraphon import graphpoly
    from dsegraphon.graphpoly import MultiPoly, loop_number
    real = graphpoly.symanzik_psi
    monkeypatch.setattr(graphpoly, "symanzik_psi", lambda g: real(g) + MultiPoly.var(
        f"w{g.evars[0]}", loop_number(g)))
    graphs = _write(tmp_path, "graphs.json", [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
                                              {"n": 2, "edges": [[0, 1], [0, 1], [0, 1]]}])
    code, doc = run_json(capsys, ["symanzik", "--graphs", graphs])
    assert code == 1
    assert {c["name"]: c["status"] for c in doc["checks"]} == {
        "symanzik-homogeneity": "PASS", "symanzik-det-identity": "FAIL"}
    assert [(e["homogeneous"], e["det_matches"]) for e in doc["results"]["entries"]] \
        == [(True, False)] * 2


def test_haar_sweep(capsys):
    code, doc = run_json(capsys, ["haar"])
    assert code == 0
    balls = doc["results"]["balls"]
    assert [b["r"] for b in balls] == ["1/10", "1/4", "1/2", "3/4", "9/10"]
    assert all(b["within_tolerance"] for b in balls)
    assert all(b["seed"] == 0 and b["N"] == 100000 for b in balls)
    names = [c["name"] for c in doc["checks"]]
    assert "norm-uniformity-ks" in names
    assert all(c["status"] == "PASS" for c in doc["checks"])
    assert float(doc["results"]["ks_statistic"]) < float(
        doc["results"]["ks_critical_1pct"])


def test_haar_bad_radius(capsys):
    assert main(["haar", "--radii", "1/2,nope"]) == 2
    assert "bad radius" in capsys.readouterr().err


def test_haar_without_samples_exits_2(capsys):
    for samples in ("0", "-5"):
        for radii in (",", "1/2"):
            argv = ["haar", "--radii", radii, "--samples", samples]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "at least one sample" in err, argv


def test_inputs_too_large_to_allocate_exit_2(capsys):
    """10**12 samples ask for terabytes; the allocation fails at once, and
    the run ends in one error line, not a traceback.  (10**12 isolated
    vertices cost nothing: see the test below.)"""
    assert main(["haar", "--samples", str(10 ** 12)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input too large: its arrays cannot be allocated\n"


def test_isolated_vertices_cost_nothing(capsys, tmp_path):
    """``tutte`` and ``symanzik`` count each isolated vertex as a component
    of its own and run on the other vertices: 10**12 vertices without an
    edge, once too many to allocate, and a triangle among 10**6 vertices
    give every result of 2 vertices without an edge and of a triangle
    among 4."""
    tri = [[0, 1], [1, 2], [0, 2]]
    big = _write(tmp_path, "big.json", [{"n": 10 ** 12, "edges": []},
                                        {"n": 10 ** 6, "edges": tri}])
    small = _write(tmp_path, "small.json", [{"n": 2, "edges": []},
                                            {"n": 4, "edges": tri}])
    for sub in ("tutte", "symanzik"):
        entries = []
        for graphs in (big, small):
            code, doc = run_json(capsys, [sub, "--graphs", graphs])
            assert code == 0
            entries.append([{k: v for k, v in e.items() if k != "graph"}
                            for e in doc["results"]["entries"]])
        assert entries[0] == entries[1], sub


def test_tutte_of_many_isolated_vertices_is_fast(capsys, tmp_path):
    """An isolated vertex contributes T = 1, so a million of them cost no
    graph object each."""
    graphs = _write(tmp_path, "isolated.json", [{"n": 10 ** 6, "edges": []}])
    start = time.perf_counter()
    code, doc = run_json(capsys, ["tutte", "--graphs", graphs])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    [entry] = doc["results"]["entries"]
    assert entry["t11"] == "1" and entry["spanning_trees"] is None


def test_trace_rows(capsys, spec_file):
    code, doc = run_json(capsys, ["trace", "--spec", spec_file])
    assert code == 0
    assert doc["config"]["mode"] == "heuristic"
    dists = [F(d) for d in doc["results"]["distances"]]
    assert len(dists) == 2 and all(d > 0 for d in dists)
    assert doc["results"]["non_increasing"] is True
    code, doc = run_json(capsys, ["trace", "--spec", spec_file,
                                  "--order", "1"])
    assert code == 0 and doc["results"]["distances"] == []


def test_graphon_and_trace_beyond_enumeration_caps(capsys, tmp_path):
    # the order-4 graphon has 76 blocks, past the 20-block subset
    # enumeration; Y_4 and Y_5 need 10868 equal cells, past the 4096 cap
    spec = tmp_path / "spec5.json"
    spec.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 5, "coupling": "1/2"}))
    code, doc = run_json(capsys, ["graphon", "--spec", str(spec),
                                  "--order", "4", "--mode", "exact"])
    assert code == 0
    graphon = doc["results"]["graphon"]
    mu = [F(m) for m in graphon["measures"]]
    mass = sum(mi * mj * F(v) for mi, row in zip(mu, graphon["values"])
               for mj, v in zip(mu, row))
    assert len(mu) == 76
    assert F(doc["results"]["cut_norm"]["value"]) == mass
    assert all(c["status"] == "PASS" for c in doc["checks"])
    code, doc5 = run_json(capsys, ["trace", "--spec", str(spec), "--order", "5"])
    assert code == 0
    assert doc5["checks"] and all(c["status"] == "PASS" for c in doc5["checks"])
    code, doc4 = run_json(capsys, ["trace", "--spec", str(spec), "--order", "4"])
    assert code == 0
    assert len(doc5["results"]["distances"]) == 4
    assert doc5["results"]["distances"][:3] == doc4["results"]["distances"]


def test_input_error_reporting(capsys, tmp_path, spec_file):
    assert main(["solve", "--spec", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"cocycles": [')
    assert main(["solve", "--spec", str(broken)]) == 2
    assert "line 1" in capsys.readouterr().err
    arr = tmp_path / "arr.json"
    arr.write_text("[1]")
    assert main(["solve", "--spec", str(arr)]) == 2
    assert "JSON object" in capsys.readouterr().err
    notlist = tmp_path / "notlist.json"
    notlist.write_text("{}")
    assert main(["tutte", "--graphs", str(notlist)]) == 2
    assert "array" in capsys.readouterr().err
    bad_rules = tmp_path / "bad_rules.json"
    for rules, word in (({"window": 5}, "window"), ({"window": ["a", 2]}, "window"),
                        ({"window": [-3.5, 2]}, "window"),
                        ({"residues": ["g"]}, "residues")):
        bad_rules.write_text(json.dumps(rules))
        assert main(["renorm", "--spec", spec_file,
                     "--rules", str(bad_rules)]) == 2, rules
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err, rules
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cocycle_without_decoration_exits_2(capsys, tmp_path, rules_file):
    spec = tmp_path / "nodeco.json"
    spec.write_text(json.dumps({"cocycles": [{"omega": "1"}], "order": 2}))
    assert main(["solve", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "decoration" in err
    # a decoration that is not a nonempty string is an input error too,
    # on every subcommand that reads a spec
    for deco in (["g"], {"a": 1}, 3, ""):
        spec.write_text(json.dumps({"cocycles": [{"decoration": deco, "omega": "1"}],
                                    "order": 2}))
        for argv in (["solve"], ["renorm", "--rules", rules_file],
                     ["graphon", "--level", "2"], ["trace"]):
            assert main(argv + ["--spec", str(spec)]) == 2, (deco, argv)
            err = capsys.readouterr().err
            assert err.startswith("error:") and "decoration" in err, (deco, argv)
            assert "Traceback" not in err


def test_graph_with_non_array_edges_exits_2(capsys, tmp_path):
    graphs = tmp_path / "badedges.json"
    graphs.write_text(json.dumps([{"n": 2, "edges": 5}]))
    for sub in ("tutte", "symanzik"):
        assert main([sub, "--graphs", str(graphs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "edges" in err


def _exits_2(capsys, argv, word):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err, (argv, err)


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_deeply_nested_input_files_exit_2(capsys, tmp_path, spec_file, rules_file):
    """JSON nested past the decoder's recursion limit is an input error
    naming the file, on every option that reads one."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["solve", "--spec", str(deep)],
                 ["renorm", "--spec", spec_file, "--rules", str(deep)],
                 ["tutte", "--graphs", str(deep)],
                 ["symanzik", "--graphs", str(deep)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {deep}: JSON nested too deeply\n", argv


def _spec(tmp_path, omega="1", **extra) -> str:
    return _write(tmp_path, "zspec.json", {
        "cocycles": [{"decoration": "g", "omega": omega}], "order": 3, **extra})


def test_solve_zero_denominator_exits_2(capsys, tmp_path):
    _exits_2(capsys, ["solve", "--spec", _spec(tmp_path, omega="1/0")], "denominator")
    _exits_2(capsys, ["solve", "--spec", _spec(tmp_path, coupling="1/0")], "denominator")
    _exits_2(capsys, ["solve", "--spec", _spec(tmp_path), "--coupling", "1/0"],
             "denominator")


def test_renorm_zero_denominator_exits_2(capsys, tmp_path, spec_file):
    for rules in ({"residues": {"g": "1/0"}}, {"scale": "3/0"}):
        _exits_2(capsys, ["renorm", "--spec", spec_file, "--rules",
                          _write(tmp_path, "zrules.json", rules)], "denominator")


def test_graphon_and_trace_zero_denominator_exit_2(capsys, tmp_path):
    for sub in ("graphon", "trace"):
        _exits_2(capsys, [sub, "--spec", _spec(tmp_path, omega="1/0")], "denominator")
        _exits_2(capsys, [sub, "--spec", _spec(tmp_path, coupling="1/0")], "denominator")


def test_graphon_and_trace_name_a_non_integer_omega(capsys, tmp_path):
    # omega 1/2 gives X_1 the tree coefficient 1/2, which no block count is
    for sub in ("graphon", "trace"):
        assert main([sub, "--spec", _spec(tmp_path, omega="1/2")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the Feynman graphon needs nonnegative integer tree coefficients, "
            "but a grade-1 tree has coefficient 1/2 (cocycle g has omega 1/2)\n")


def test_graphon_and_trace_beyond_the_dense_cell_limit_exit_2(capsys, tmp_path, monkeypatch):
    # the limit is 4096 cells; lowered here, order 5 already passes it
    monkeypatch.setattr("dsegraphon.graphon._FEYNMAN_CELL_CAP", 10)
    for sub in ("graphon", "trace"):
        _exits_2(capsys, [sub, "--spec", _spec(tmp_path), "--order", "5"], "cells")


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "doc.json"
    assert main(["tutte", "--max-edges", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err and not captured.out
    assert not out.parent.exists()


def test_trace_refuses_an_over_cap_order_before_building_other_graphons(capsys, tmp_path,
                                                                         monkeypatch):
    # Y_8 has 15521 cells, past the 4096-cell limit; Y_1..Y_7 are not built
    from dsegraphon import graphon
    feynman_graphon = graphon.feynman_graphon
    built = []

    def counting(y, coupling):
        built.append(y)
        return feynman_graphon(y, coupling)

    monkeypatch.setattr(graphon, "feynman_graphon", counting)
    _exits_2(capsys, ["trace", "--spec", _spec(tmp_path), "--order", "8"], "cells")
    assert len(built) == 1


def test_mode_is_an_option_of_graphon_and_trace_only(capsys, spec_file, rules_file):
    for argv in (["solve", "--spec", spec_file],
                 ["renorm", "--spec", spec_file, "--rules", rules_file],
                 ["tutte", "--max-edges", "2"], ["symanzik", "--max-edges", "2"],
                 ["haar", "--samples", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "exact"])
        assert exc.value.code == 2, argv
        assert "--mode" in capsys.readouterr().err
    for argv, mode in ((["graphon"], "heuristic"), (["trace", "--order", "2"], "exact")):
        code, doc = run_json(capsys, argv + ["--spec", spec_file, "--mode", mode])
        assert code == 0 and doc["config"]["mode"] == mode, argv


def test_haar_zero_denominator_exits_2(capsys):
    _exits_2(capsys, ["haar", "--radii", "1/0", "--samples", "10"], "denominator")
    _exits_2(capsys, ["haar", "--radii", "1/2,3/0", "--samples", "10"], "denominator")


def test_json_booleans_are_not_numbers(capsys, tmp_path, spec_file):
    for spec in ({"cocycles": [{"decoration": "g", "omega": True}], "order": 3},
                 {"cocycles": [{"decoration": "g", "omega": "1"}], "order": True},
                 {"cocycles": [{"decoration": "g", "omega": "1"}], "order": 3,
                  "coupling": True}):
        _exits_2(capsys, ["solve", "--spec", _write(tmp_path, "b.json", spec)], "")
    for rules in ({"residues": {"g": True}}, {"scale": False}):
        _exits_2(capsys, ["renorm", "--spec", spec_file, "--rules",
                          _write(tmp_path, "br.json", rules)], "")
    for graphs, word in (([{"n": True, "edges": []}], "'n'"),
                         ([{"n": 2, "edges": [[0, True]]}], "edges")):
        for sub in ("tutte", "symanzik"):
            _exits_2(capsys, [sub, "--graphs", _write(tmp_path, "bg.json", graphs)],
                     word)


# sha256 of documents recorded before the sparse-sum core was shared; any
# change to them is a change of output, not an optimisation
GOLDEN_SOLVE = "0762f1a412cb6bf9fe92da1b44c416f18fb50b3b5fff9818ae363be47a5b3d8a"
GOLDEN_RENORM = "99c8cf110e8987e60b7bbcc4b915cff524515be4648cd0f7cf722ca38457daab"
GOLDEN_HAAR = "7895e555ff5ed434d6d9c9182c9469dc8031824e4a8924114542aec730a15d66"
# recorded before renormalization moved to the per-tree closed form
GOLDEN_RENORM_HALF = "b08ac781199331aca3328dbf77ab3502fb71b05ac2d09f4b9f09a503f532ac6a"
GOLDEN_RENORM_GH = "52adec34a130c1dee59757cc8fe038473b9595b3452a60e8b743b14ab33a6bfb"
# recorded before the preparation was grouped by pruned grade
GOLDEN_RENORM_G9 = "430bf39befb9618cb201e65091f788503b1a0b909971b094237d9a3ea2ef3ab9"
# recorded before the pruned canonical search and the integer determinants
GOLDEN_TUTTE5 = "616a9feba1a96044c58fb6237ef4eef7bb4ed719799a250b041fe2e62978d089"
GOLDEN_SYMANZIK5 = "09112c6eded7736a1f3a05c0afb0f44d766d953abee26d8ba0b3544b7271920c"
# recorded before the fingerprint catalogue came from the multigraph corpus
GOLDEN_GRAPHON4 = "e5bb507b17b07a27bad10d82bceb7fc0a74c2b68ceeb632484e35a4ce6fa4a99"
GOLDEN_GRAPHON5 = "ba7b7ab6c005ed935e4506627dc1a8ba9c253b9f68538fb56658ddc071a6e513"
# recorded before the corpus Tutte came from the growth pass and the
# Symanzik check from one cycle basis per graph
GOLDEN_TUTTE6 = "743ba23aef34addd49e64331965023aa64e23ce0cefa2dae01255815ccf2ca2e"
GOLDEN_SYMANZIK6 = "7a5e0836a98e17c85a75a1c4b32e0e92950cdabca771785ccccab2b2746b0720"


def test_golden_documents(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 8, "coupling": "1/2"}))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"residues": {"g": "1"}, "scale": None}))
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"residues": {"g": "1"}, "scale": "1/2"}))
    spec_gh = tmp_path / "spec_gh.json"
    spec_gh.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"},
                     {"decoration": "h", "omega": "1/2"}],
        "order": 5, "coupling": "1/2"}))
    rules_gh = tmp_path / "rules_gh.json"
    rules_gh.write_text(json.dumps({"residues": {"g": "1", "h": "2"},
                                    "scale": None}))
    spec9 = tmp_path / "spec9.json"
    spec9.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 9, "coupling": "1/2"}))
    for argv, digest in (
            (["solve", "--spec", str(spec)], GOLDEN_SOLVE),
            (["renorm", "--spec", str(spec), "--rules", str(rules),
              "--order", "5"], GOLDEN_RENORM),
            (["renorm", "--spec", str(spec), "--rules", str(half),
              "--order", "6"], GOLDEN_RENORM_HALF),
            (["renorm", "--spec", str(spec_gh), "--rules", str(rules_gh),
              "--order", "5"], GOLDEN_RENORM_GH),
            (["renorm", "--spec", str(spec9), "--rules", str(rules),
              "--order", "9"], GOLDEN_RENORM_G9),
            (["tutte", "--max-edges", "5"], GOLDEN_TUTTE5),
            (["symanzik", "--max-edges", "5", "--seed", "3"],
             GOLDEN_SYMANZIK5),
            (["tutte", "--max-edges", "6"], GOLDEN_TUTTE6),
            (["symanzik", "--max-edges", "6", "--seed", "2"],
             GOLDEN_SYMANZIK6)):
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


# one --format csv document per subcommand, recorded before the handlers
# stopped writing "subcommand" and "format" into their configs; every CSV
# header carries the config_sha256
GOLDEN_CSV = {
    "solve": "689eafc233ce756d252334a46766c0cddc99c7ed1afdc5bdeb297bfe0440f06b",
    "renorm": "b9ba98f6e136c191baa93beca2451906aae519ee55b886fde291b1c87b0fbb88",
    "graphon": "876be57c02bfb6ada814545c082319d7542e355fdd5daedd3ecc3567652179e3",
    "tutte": "feefed2bc3c1bfde9ea4e4afe145ba073e3ed743196570f017b91c55e581acef",
    "symanzik": "b0f2d8ce414f301243408855c40999726c79113ede3d7ae00add9fdc8c30fe12",
    "haar": "2ef43bcf6ec0cd2b4cd46c4a9a1c5fcc17294ce2a8fe8fa46cb866362317f8b3",
    "trace": "e7f2dfdacdad3fc380dea2e75d0f1a2a96990380d07d1268ff1f57d8be7d53e1",
}


def test_golden_csv_documents(tmp_path):
    spec = _write(tmp_path, "spec.json", {
        "cocycles": [{"decoration": "g", "omega": "1"},
                     {"decoration": "h", "omega": "1/2"}],
        "order": 4, "coupling": "1/2"})
    unit = _write(tmp_path, "unit.json", {
        "cocycles": [{"decoration": "g", "omega": "1"},
                     {"decoration": "h", "omega": "1"}],
        "order": 4, "coupling": "1/2"})
    rules = _write(tmp_path, "rules.json",
                   {"residues": {"g": "1", "h": "2"}, "scale": "1/2"})
    argvs = {"solve": ["--spec", spec],
             "renorm": ["--spec", spec, "--rules", rules],
             "graphon": ["--spec", unit, "--order", "3"],
             "tutte": ["--max-edges", "4"],
             "symanzik": ["--max-edges", "4", "--seed", "3"],
             "haar": ["--samples", "20000", "--depth", "22"],
             "trace": ["--spec", unit, "--order", "3"]}
    out = tmp_path / "doc.csv"
    for sub, digest in GOLDEN_CSV.items():
        assert main([sub, *argvs[sub], "--format", "csv", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, sub


# heuristic traces at seed 0, recorded before the exact and heuristic cut
# distances became separate paths.  Order 4 of g compares on 5, 20 and 380
# equal cells; order 5 of g and gh-unit end on the overlay of the block
# boundaries (10 868 and 4836 equal cells would be needed)
GOLDEN_TRACE4 = "560c3559ae5668200dbbe6321e289507a736764f18fded31ba76d577f4e9ab48"
GOLDEN_TRACE5 = "b02fbe37a4e34640a71f249ffa6f774ad13ef9f78f81d7a15b0a48f50c2eeb6b"
GOLDEN_TRACE_GH = "ee7932c956e7099662004eb361ad4fd412e555b7a38bd9d3c1b3743a3d5a14dd"


def test_golden_trace_documents(tmp_path):
    g = _write(tmp_path, "g.json", {
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 10, "coupling": "1/2"})
    gh = _write(tmp_path, "gh-unit.json", {
        "cocycles": [{"decoration": "g", "omega": "1"},
                     {"decoration": "h", "omega": "1"}],
        "order": 4, "coupling": "1/2"})
    out = tmp_path / "doc.json"
    for argv, digest in ((["--spec", g, "--order", "4"], GOLDEN_TRACE4),
                         (["--spec", g, "--order", "5"], GOLDEN_TRACE5),
                         (["--spec", gh], GOLDEN_TRACE_GH)):
        assert main(["trace", *argv, "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


# a batch with a vertexless graph, a bouquet of loops, parallel edges, a
# tree, a disconnected graph with a loop, edges stored against their
# orientation, and isolated vertices; digests recorded before bridges and
# cycle bases came from one spanning-forest pass
GRAPH_BATCH_B = [
    {"n": 0},
    {"n": 1, "edges": [[0, 0], [0, 0], [0, 0]]},
    {"n": 2, "edges": [[0, 1], [1, 0], [0, 1]]},
    {"n": 4, "edges": [[0, 1], [1, 2], [1, 3]]},
    {"n": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [5, 5]]},
    {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [2, 2], [3, 0]]},
    {"n": 5, "edges": [[4, 3], [3, 2], [2, 1], [1, 0], [0, 4], [2, 2], [0, 2]]},
    {"n": 3, "edges": []}]
GOLDEN_TUTTE_B = "7bd409b1086a3983c4eb76784299c9e7a219b5f05c23744e3fea5d8a19abcde6"
GOLDEN_SYMANZIK_B = "057c359bd1d68881f4bd23a21a045d422e61ba1bc43ea4526c7b066ee00d5701"


def test_golden_graph_batch_documents(tmp_path):
    batch = _write(tmp_path, "batch.json", GRAPH_BATCH_B)
    out = tmp_path / "doc.json"
    for argv, digest in ((["tutte"], GOLDEN_TUTTE_B),
                         (["symanzik", "--seed", "3"], GOLDEN_SYMANZIK_B)):
        assert main(argv + ["--graphs", batch, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_symanzik_notes_a_disconnected_graph_on_stderr(tmp_path):
    """A disconnected graph gives one note line of the tool on stderr, not
    a Python warning, and the same document."""
    graphs = _write(tmp_path, "graphs.json", [
        {"n": 3, "edges": [[0, 1], [2, 2]]}, {"n": 2, "edges": [[0, 1]]},
        {"n": 2, "edges": []}])
    src = os.path.dirname(os.path.dirname(dsegraphon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "dsegraphon.cli", "symanzik",
                           "--graphs", graphs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    note = ("disconnected graph: Symanzik polynomial summed over spanning "
            "forests, the product of its components'")
    assert proc.stderr == (f"dsegraphon: note: graph 0: {note}\n"
                           f"dsegraphon: note: graph 2: {note}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["symanzik", "--graphs", graphs, "--out",
                     str(tmp_path / "doc.json")]) == 0
    assert (tmp_path / "doc.json").read_text() == proc.stdout


_GRAPH_ITEMS = st.integers(0, 5).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    # an endpoint may be n itself, out of range: exit 2
    "edges": st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2), max_size=6)}))
_GRAPH_BATCHES = st.lists(_GRAPH_ITEMS | st.sampled_from(
    [{"n": -1}, {"edges": []}, {"n": 2, "edges": [[0]]}, "graph"]), max_size=4)


@settings(max_examples=40, deadline=None)
@given(_GRAPH_BATCHES, st.sampled_from(["tutte", "symanzik"]))
def test_graph_batches_exit_cleanly_and_rerun_identically(tmp_path_factory, batch, sub):
    """Any small batch ends in exit 0, 1 or 2 without an escaping
    exception, and a rerun writes the same bytes."""
    tmp = tmp_path_factory.mktemp("batch")
    graphs = _write(tmp, "graphs.json", batch)
    outs = []
    for name in ("a.json", "b.json"):
        code = main([sub, "--graphs", graphs, "--out", str(tmp / name)])
        assert code in (0, 1, 2)
        outs.append((code, (tmp / name).read_bytes() if code != 2 else None))
    assert outs[0] == outs[1]


_ORDERS = st.integers(1, 3)
_SPECS = st.fixed_dictionaries({
    "cocycles": st.lists(st.fixed_dictionaries({
        "decoration": st.sampled_from(["g", "h"]),
        "omega": st.sampled_from(["1", "1/2", "2"])}), min_size=1, max_size=2),
    "order": _ORDERS, "coupling": st.sampled_from(["1/2", "1/3", "1"])})
_RULES = st.fixed_dictionaries(
    {"residues": st.dictionaries(st.sampled_from(["g", "h"]),
                                 st.sampled_from(["1", "2", "-1/2"]), max_size=2)},
    optional={"scale": st.sampled_from([None, "1/2", "0"]),
              "window": st.sampled_from([[-8, 2], [-1, 0], [-3, 3]])})
# malformed JSON, wrong types and nesting past the decoder's recursion limit
_BAD_FILES = st.sampled_from([
    "", "{", "[1,", "null", "42", '"spec"', "[]", "{}", '{"cocycles": 5}',
    '{"cocycles": [{"decoration": 1, "omega": "1"}], "order": 2}',
    '{"cocycles": [{"decoration": "g", "omega": "1/0"}], "order": true}',
    '{"residues": [], "window": [0]}', '[{"n": "3", "edges": []}]',
    "[" * 100_000 + "]" * 100_000])
_GRAPH_FILES = st.just([{"n": 10 ** 12, "edges": []}]) | _GRAPH_BATCHES


def _json_file(objects):
    return objects.map(json.dumps) | _BAD_FILES


@st.composite
def _cli_runs(draw, sub):
    """The argv of ``sub`` over bounded sizes, with the files it reads."""
    argv, files = [sub], {}
    if sub in ("solve", "renorm", "graphon", "trace"):
        files["spec.json"] = draw(_json_file(_SPECS))
        argv += ["--spec", "spec.json"]
        if draw(st.booleans()):
            argv += ["--order", str(draw(_ORDERS))]
        if draw(st.booleans()):
            argv += ["--coupling", draw(st.sampled_from(["1/4", "0", "3/2", "x"]))]
    if sub == "renorm":
        files["rules.json"] = draw(_json_file(_RULES))
        argv += ["--rules", "rules.json"]
    if sub in ("graphon", "trace"):
        argv += ["--mode", draw(st.sampled_from(["exact", "heuristic"]))]
    if sub == "graphon":
        argv += ["--level", str(draw(st.integers(0, 3)))]
    if sub in ("tutte", "symanzik"):
        if draw(st.booleans()):
            argv += ["--max-edges", str(draw(st.integers(0, 3)))]
        else:
            files["graphs.json"] = draw(_json_file(_GRAPH_FILES))
            argv += ["--graphs", "graphs.json"]
    if sub == "haar":
        argv += ["--samples", str(draw(st.sampled_from([10 ** 12]) | st.integers(1, 2000))),
                 "--depth", str(draw(st.integers(1, 30)))]
    argv += ["--seed", str(draw(st.integers(0, 7))),
             "--format", draw(st.sampled_from(["json", "csv"]))]
    return argv, files


@pytest.mark.parametrize("sub", ["solve", "renorm", "graphon", "trace", "tutte",
                                 "symanzik", "haar"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_codes_are_0_1_or_2_and_reruns_identical(tmp_path_factory, sub, data):
    """Every run ends in exit 0, 1 or 2 with no traceback on stderr, and a
    rerun writes the same bytes to stdout and stderr."""
    argv, files = data.draw(_cli_runs(sub))
    tmp = tmp_path_factory.mktemp("cli")
    for name, text in files.items():
        (tmp / name).write_text(text)
    argv = [str(tmp / a) if a in files else a for a in argv]
    results = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        results.append((code, out.getvalue(), err.getvalue()))
    assert results[0] == results[1], argv


def test_golden_fingerprint_documents(tmp_path, spec_file):
    """Levels 4 and 5 fingerprint against 11 and 23 connected graphs.  The
    time bound catches a return to a brute-force catalogue, which took
    5.7 s at level 5."""
    out = tmp_path / "doc.json"
    for level, digest in (("4", GOLDEN_GRAPHON4), ("5", GOLDEN_GRAPHON5)):
        start = time.perf_counter()
        assert main(["graphon", "--spec", spec_file, "--level", level,
                     "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, level
    assert elapsed < 2.0


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """No subcommand needs scipy: haar computes its KS statistic itself and
    still gives its document."""
    out = tmp_path / "haar.json"
    script = (
        "import sys, dsegraphon.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported with the CLI'\n"
        f"code = cli.main(['haar', '--samples', '20000', '--depth', '22', "
        f"'--out', {str(out)!r}])\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by haar'\n"
        "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(dsegraphon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_HAAR


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    """numpy is imported on first use by graphon and haar, so solve and
    renorm run without it; trace and haar still load it and give their
    documents."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 4, "coupling": "1/2"}))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"residues": {"g": "1"}, "scale": None}))
    out = tmp_path / "doc.json"
    haar = tmp_path / "haar.json"
    script = (
        "import sys, dsegraphon.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported with the CLI'\n"
        f"for argv in (['solve', '--spec', {str(spec)!r}],\n"
        f"             ['renorm', '--spec', {str(spec)!r}, '--rules', {str(rules)!r}]):\n"
        f"    assert cli.main(argv + ['--out', {str(out)!r}]) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        f"assert cli.main(['trace', '--spec', {str(spec)!r}, '--order', '3', "
        f"'--out', {str(out)!r}]) == 0\n"
        "assert 'numpy' in sys.modules\n"
        f"sys.exit(cli.main(['haar', '--samples', '20000', '--depth', '22', "
        f"'--out', {str(haar)!r}]))\n")
    src = os.path.dirname(os.path.dirname(dsegraphon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(haar.read_bytes()).hexdigest() == GOLDEN_HAAR


def test_each_subcommand_loads_only_its_layers(tmp_path):
    """Importing the CLI loads no layer module; each subcommand then
    imports the layers it runs and no other, in a fresh interpreter.
    No layer loads ``dataclasses`` or ``inspect``, and ``csv`` waits for
    a CSV document; ``haar`` is not held to this, since numpy loads
    ``inspect``.  Importing ``dse`` and ``hopf`` alone, as the hopf-api
    benchmark does, loads neither ``dataclasses`` nor ``inspect``."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 3, "coupling": "1/2"}))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"residues": {"g": "1"}, "scale": None}))

    layers = ("dse", "hopf", "renorm", "graphon", "graphpoly", "haar")

    def modules(*names):
        return ",".join(f"dsegraphon.{n}" if n in layers else n for n in names)

    cold = ("dataclasses", "inspect", "csv")
    dse_idle = modules("graphon", "graphpoly", "haar", "numpy", *cold)
    graphs_idle = modules("dse", "renorm", "graphon", "haar", "numpy", *cold)
    cases = [
        ([], modules(*layers, *cold)),
        (["solve", "--spec", str(spec)], dse_idle),
        (["renorm", "--spec", str(spec), "--rules", str(rules)], dse_idle),
        (["tutte", "--max-edges", "3"], graphs_idle),
        (["symanzik", "--max-edges", "3"], graphs_idle),
        (["haar", "--samples", "2000", "--depth", "12"],
         modules("dse", "renorm", "graphon", "graphpoly")),
    ]
    script = (
        "import sys\n"
        "import dsegraphon.cli as cli\n"
        "argv, idle = sys.argv[1:-1], sys.argv[-1].split(',')\n"
        "if argv and cli.main(argv) == 2:\n"
        "    sys.exit(f'{argv} exited 2')\n"
        "loaded = [m for m in idle if m in sys.modules]\n"
        "sys.exit(f'{argv or \"import\"} loaded {loaded}' if loaded else 0)\n")
    src = os.path.dirname(os.path.dirname(dsegraphon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv, idle in cases:
        if argv:
            argv = argv + ["--out", str(tmp_path / "doc.json")]
        proc = subprocess.run([sys.executable, "-c", script, *argv, idle], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    api = ("import sys, dsegraphon.dse, dsegraphon.hopf\n"
           "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
           "sys.exit(f'dse, hopf loaded {loaded}' if loaded else 0)\n")
    proc = subprocess.run([sys.executable, "-c", api], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _run_twice(tmp_path, argv):
    outs = []
    for name in ("a.out", "b.out"):
        target = tmp_path / name
        assert main(argv + ["--out", str(target)]) == 0
        outs.append(target.read_bytes())
    return outs


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_byte_identical_reruns(tmp_path, spec_file, rules_file, fmt):
    graphs = tmp_path / "g.json"
    graphs.write_text(json.dumps([{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}]))
    commands = [
        ["solve", "--spec", spec_file],
        ["renorm", "--spec", spec_file, "--rules", rules_file],
        ["graphon", "--spec", spec_file, "--order", "2"],
        ["tutte", "--graphs", str(graphs)],
        ["symanzik", "--graphs", str(graphs)],
        ["haar", "--samples", "20000", "--depth", "22"],
        ["trace", "--spec", spec_file],
    ]
    for argv in commands:
        a, b = _run_twice(tmp_path, argv + ["--format", fmt])
        assert a == b, argv
        assert a.strip(), argv


# -- the document writer against json.dumps ----------------------------------------

def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("sub", ["solve", "renorm", "graphon", "trace", "tutte",
                                 "symanzik", "haar"])
def test_document_writer_matches_json_dumps(tmp_path, spec_file, rules_file, sub):
    argv = {"solve": ["--spec", spec_file],
            "renorm": ["--spec", spec_file, "--rules", rules_file],
            "graphon": ["--spec", spec_file, "--order", "2"],
            "trace": ["--spec", spec_file],
            "tutte": ["--max-edges", "3"],
            "symanzik": ["--max-edges", "3", "--seed", "5"],
            "haar": ["--samples", "20000", "--depth", "22"]}[sub]
    out = tmp_path / "doc.json"
    assert main([sub, *argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == _dumps(doc) + "\n"
    assert _json_text(doc) == _dumps(doc)


_JSON_TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "日本", "\U0001f600",
     "\ud800", "a b", "</script>"])
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 40, -(2 ** 70)])
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(_JSON_TREES)
def test_document_writer_matches_json_dumps_on_json_trees(doc):
    assert _json_text(doc) == _dumps(doc)


def test_document_writer_refuses_what_documents_never_hold():
    for doc in ({"t": (1, (2, 3))}, [[[]], {}]):
        assert _json_text(doc) == _dumps(doc)
    # json.dumps writes these, but no document holds a float or a
    # non-string key, so the writer refuses them
    for bad in ({"x": 1.5}, [float("nan"), float("inf")], {1: "a", 2: ["b"]}):
        _dumps(bad)
        with pytest.raises(TypeError):
            _json_text(bad)
    for bad in ({"x": F(1, 2)}, {1: "a", "b": 2}, [object()]):
        with pytest.raises(TypeError):
            _dumps(bad)
        with pytest.raises(TypeError):
            _json_text(bad)
    huge = {"n": 10 ** 5000}  # past the int-to-str digit limit
    with pytest.raises(ValueError):
        _dumps(huge)
    with pytest.raises(ValueError):
        _json_text(huge)


def test_document_writer_holds_the_text_about_twice():
    """The writer's traced peak stays within 2.5 times the text it returns:
    one buffer and the final string, not a list of small pieces."""
    import tracemalloc
    doc = {"entries": [{"graph": {"n": i % 7, "edges": [[0, 1], [1, i % 5]]},
                        "name": f"entry-{i}", "ok": i % 2 == 0, "none": None}
                       for i in range(20_000)]}
    tracemalloc.start()
    try:
        text = _json_text(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _dumps(doc)
    assert peak <= 2.5 * len(text), (peak, len(text))
