"""End-to-end command-line runs: document shape, exit codes, error
reporting, and byte-level reproducibility of every subcommand."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dsegraphon
from dsegraphon.cli import _json_text, main
from dsegraphon.serialize import forest_sum_from_json
from dsegraphon.trees import ForestSum, Tree, ladder, leaf


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


def test_cocycle_without_decoration_exits_2(capsys, tmp_path):
    spec = tmp_path / "nodeco.json"
    spec.write_text(json.dumps({"cocycles": [{"omega": "1"}], "order": 2}))
    assert main(["solve", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "decoration" in err


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
             GOLDEN_SYMANZIK5)):
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
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


@pytest.mark.filterwarnings("ignore:disconnected graph")
def test_golden_graph_batch_documents(tmp_path):
    batch = _write(tmp_path, "batch.json", GRAPH_BATCH_B)
    out = tmp_path / "doc.json"
    for argv, digest in ((["tutte"], GOLDEN_TUTTE_B),
                         (["symanzik", "--seed", "3"], GOLDEN_SYMANZIK_B)):
        assert main(argv + ["--graphs", batch, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


_GRAPH_ITEMS = st.integers(0, 5).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    # an endpoint may be n itself, out of range: exit 2
    "edges": st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2), max_size=6)}))
_GRAPH_BATCHES = st.lists(_GRAPH_ITEMS | st.sampled_from(
    [{"n": -1}, {"edges": []}, {"n": 2, "edges": [[0]]}, "graph"]), max_size=4)


@pytest.mark.filterwarnings("ignore:disconnected graph")
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


def test_document_writer_falls_back_to_json_dumps():
    for doc in ({"x": 1.5}, [float("nan"), float("inf")], {1: "a", 2: ["b"]},
                {"t": (1, (2, 3))}, [[[]], {}]):
        assert _json_text(doc) == _dumps(doc)
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
