"""Command-line drivers for reproducible experiments.

Every run emits a self-describing document: tool version, the resolved
configuration (semantic content, not file paths), a sha256 of that
configuration, the results, and a list of named PASS/FAIL checks.
Identical configurations produce byte-identical output.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input or
usage error, an input too large to allocate included.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import __version__

# Every layer module is imported by the handler that runs it, and ``csv``
# by the CSV branch of ``_render``, so that a subcommand's process loads
# (and, without a bytecode cache, compiles) only the modules it uses.
if TYPE_CHECKING:
    from .graphpoly import MultiGraph


DEFAULT_RADII = "1/10,1/4,1/2,3/4,9/10"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _document(config: dict, results, checks: list[dict]) -> dict:
    return {"tool": "dsegraphon", "version": __version__, "config": config,
            "config_sha256": _config_hash(config), "results": results,
            "checks": checks}


_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.

    CPython's C encoder is skipped whenever ``indent`` is set, so large
    documents went through the pure-Python generator; this writer puts
    the pieces into one text buffer itself, not a list of small strings
    joined at the end.  It knows what documents hold: dicts with string
    keys, lists, tuples, strings, ints, bools and None.  Anything else (a
    float, a Fraction, a non-string key) raises TypeError.
    """
    buf = io.StringIO()
    _write_json(doc, "\n", buf.write)
    return buf.getvalue()


def _write_json(x, newline: str, put) -> None:
    t = type(x)
    if t is str:
        put(encode_basestring_ascii(x))
    elif t is int:
        put(int.__repr__(x))
    elif t is dict:
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(x[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif t is list or t is tuple:
        if not x:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif x is None or t is bool:
        put(_LITERALS[x])
    else:
        raise TypeError(f"documents hold no {t.__name__}")


def _render(doc: dict, fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "json":
        return _json_text(doc) + "\n"
    import csv
    buf = io.StringIO()
    buf.write(f"# tool=dsegraphon\n# version={__version__}\n")
    buf.write(f"# config_sha256={doc['config_sha256']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _check(name: str, ok: bool) -> dict:
    return {"name": name, "status": "PASS" if ok else "FAIL"}


def _solved(args):
    """The solution of ``--spec`` with ``--order`` and ``--coupling``
    applied, and its spec as the document's config records it."""
    from .dse import solve
    from .serialize import dse_spec_from_json, dse_spec_to_json
    obj = _load_json(args.spec)
    if not isinstance(obj, dict):
        raise ValueError(f"{args.spec}: equation spec must be a JSON object")
    if args.order is not None:
        obj = {**obj, "order": args.order}
    if args.coupling is not None:
        obj = {**obj, "coupling": args.coupling}
    sol = solve(dse_spec_from_json(obj))
    return sol, dse_spec_to_json(sol.spec)


def _graphon_ready(sol) -> None:
    """Refuse, naming the spec's cocycles, a solution whose tree
    coefficients the Feynman graphon cannot take as block counts."""
    for n in range(1, sol.order + 1):
        for c in sol.coefficients[n].terms.values():
            if c.denominator != 1 or c < 0:
                named = "; ".join(f"cocycle {k.decoration} has omega {k.omega}"
                                  for k in sol.spec.cocycles
                                  if k.omega.denominator != 1 or k.omega < 0)
                raise ValueError(
                    "the Feynman graphon needs nonnegative integer tree "
                    f"coefficients, but a grade-{n} tree has coefficient {c} "
                    f"({named})")


def _edges_code(g: MultiGraph) -> str:
    return ";".join(f"{u}-{v}" for (u, v) in g.edges) or "-"


def _graph_batch(args) -> list[MultiGraph]:
    from .graphpoly import generate_connected_multigraphs
    from .serialize import multigraph_from_json
    if args.graphs is not None:
        obj = _load_json(args.graphs)
        if not isinstance(obj, list):
            raise ValueError(f"{args.graphs}: expected a JSON array of graphs")
        return [multigraph_from_json(item) for item in obj]
    return generate_connected_multigraphs(args.max_edges)


# -- subcommand handlers ----------------------------------------------------------

def _run_solve(args):
    from .serialize import rational_to_str, solution_to_json
    sol, spec = _solved(args)
    config = {"spec": spec}
    summary = []
    rows = []
    for n in range(1, sol.order + 1):
        x = sol.coefficients[n]
        csum = sum(x.terms.values(), Fraction(0))
        summary.append({"grade": n, "monomials": len(x.terms),
                        "coefficient_sum": rational_to_str(csum)})
        rows.append([n, len(x.terms), rational_to_str(csum)])
    results = {"coefficients": solution_to_json(sol), "summary": summary}
    header = ["grade", "monomials", "coefficient_sum"]
    return config, results, [], header, rows


def _run_renorm(args):
    from .renorm import renormalize_solution
    from .serialize import laurent_to_json, rational_to_str, \
        toy_rules_from_json, toy_rules_to_json
    sol, spec = _solved(args)
    rules_obj = _load_json(args.rules)
    rules = toy_rules_from_json(rules_obj)
    window_pinned = isinstance(rules_obj, dict) and "window" in rules_obj
    report = renormalize_solution(rules, sol, sol.order, widen=not window_pinned)
    config = {"spec": spec, "rules": toy_rules_to_json(rules), "order": sol.order}
    grades = []
    rows = []
    checks = []
    for n in range(1, sol.order + 1):
        ren = report.renormalized[n - 1]
        ct = report.counterterms[n - 1]
        finite = ren.coeff(0)
        pole_free = ren.is_pole_free()
        grades.append({"grade": n,
                       "renormalized": laurent_to_json(ren),
                       "counterterm": laurent_to_json(ct),
                       "finite_part": [[rational_to_str(finite.terms[k]), k]
                                       for k in sorted(finite.terms)],
                       "pole_free": pole_free})
        rows.append([n, "yes" if pole_free else "no", str(finite)])
        checks.append(_check(f"pole-free-grade-{n}", pole_free))
    results = {"grades": grades, "window": list(report.window),
               "widened": report.widened,
               "scale_symbolic": report.scale_symbolic}
    return config, results, checks, ["grade", "pole_free", "finite_part"], rows


def _run_graphon(args):
    from .dse import structural_sum
    from .graphon import cut_norm, density_fingerprint, feynman_graphon
    from .serialize import graphon_to_json, rational_to_str
    sol, spec = _solved(args)
    _graphon_ready(sol)
    y = structural_sum(sol, sol.order)
    w = feynman_graphon(y, sol.coupling)
    # a Feynman graphon is nonnegative, so its cut norm is the closed form
    # that every mode and seed return; the config still records both
    norm_val = cut_norm(w)
    config = {"spec": spec, "order": sol.order, "level": args.level,
              "mode": args.mode, "seed": args.seed}
    fp_rows = [{"graph": code, "density": rational_to_str(d)}
               for code, d in density_fingerprint(w, level=args.level)]
    results = {"graphon": graphon_to_json(w),
               "cut_norm": {"value": rational_to_str(norm_val),
                            "mode": args.mode},
               "fingerprint": fp_rows}
    rows = [[r["graph"], r["density"]] for r in fp_rows]
    return config, results, [], ["graph", "density"], rows


def _run_tutte(args):
    from .graphpoly import _matrix_tree_count, corpus_tutte, tutte
    from .serialize import multigraph_to_json, multipoly_to_json, \
        rational_to_str
    if args.graphs is None:
        batch = corpus_tutte(args.max_edges)
    else:
        batch = [(g, tutte(g)) for g in _graph_batch(args)]
    config = {"graphs": [multigraph_to_json(g) for g, _ in batch]}
    entries = []
    rows = []
    all_ok = True
    for g, poly in batch:
        t11 = sum(poly.terms.values())  # T(1, 1): every monomial is 1 there
        # one union-find count; the cofactor counts only a connected graph
        connected = g.component_count() == 1
        trees = _matrix_tree_count(g) if connected else None
        match = (t11 == trees) if connected else None
        if match is False:
            all_ok = False
        entries.append({"graph": multigraph_to_json(g),
                        "tutte": multipoly_to_json(poly),
                        "t11": rational_to_str(t11),
                        "spanning_trees": trees,
                        "match": match})
        rows.append([g.n, _edges_code(g), rational_to_str(t11),
                     "" if trees is None else trees,
                     "" if match is None else ("yes" if match else "no")])
    checks = [] if not batch else [_check("tutte-t11-matrix-tree", all_ok)]
    header = ["n", "edges", "t11", "spanning_trees", "match"]
    return config, {"entries": entries}, checks, header, rows


def _run_symanzik(args):
    from .graphpoly import symanzik_det_poly, symanzik_psi
    from .serialize import multigraph_to_json, multipoly_to_json
    batch = _graph_batch(args)
    # the check reads no randomness; the seed stays in the config, which
    # the recorded digests hash
    config = {"graphs": [multigraph_to_json(g) for g in batch], "seed": args.seed}
    entries = []
    rows = []
    hom_ok = True
    det_ok = True
    for i, g in enumerate(batch):
        psi = symanzik_psi(g)
        components = g.component_count()
        if components > 1:
            print(f"dsegraphon: note: graph {i}: disconnected graph: Symanzik "
                  "polynomial summed over spanning forests, the product of its "
                  "components'", file=sys.stderr)
        loops = g.m - g.n + components
        homogeneous = psi.is_homogeneous(loops)
        matches = symanzik_det_poly(g) == psi
        hom_ok = hom_ok and homogeneous
        det_ok = det_ok and matches
        entries.append({"graph": multigraph_to_json(g),
                        "psi": multipoly_to_json(psi), "loops": loops,
                        "homogeneous": homogeneous, "det_matches": matches})
        rows.append([g.n, _edges_code(g), loops,
                     "yes" if homogeneous else "no",
                     "yes" if matches else "no"])
    checks = [] if not batch else [
        _check("symanzik-homogeneity", hom_ok),
        _check("symanzik-det-identity", det_ok)]
    header = ["n", "edges", "loops", "homogeneous", "det_matches"]
    return config, {"entries": entries}, checks, header, rows


def _run_haar(args):
    from .haar import ball_measure_mc, ks_critical_value, \
        norm_uniformity_statistic
    from .serialize import rational_from_str, rational_to_str
    try:
        radii = [rational_from_str(tok) for tok in args.radii.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad radius list {args.radii!r}: {exc}") from exc
    config = {"depth": args.depth, "samples": args.samples, "seed": args.seed,
              "radii": [rational_to_str(r) for r in radii]}
    entries = []
    rows = []
    checks = []
    for r in radii:
        est = ball_measure_mc(r, depth=args.depth, samples=args.samples,
                              seed=args.seed)
        ok = est.within_tolerance()
        entries.append({"r": rational_to_str(r),
                        "estimate": repr(float(est.estimate)),
                        "stderr": repr(est.stderr),
                        "tolerance": repr(est.tolerance()),
                        "within_tolerance": ok,
                        "m": est.depth, "N": est.samples, "seed": est.seed})
        rows.append([rational_to_str(r), repr(float(est.estimate)),
                     repr(est.stderr), est.depth, est.samples, est.seed])
        checks.append(_check(f"ball-measure-r={rational_to_str(r)}", ok))
    ks = norm_uniformity_statistic(args.depth, args.samples, args.seed)
    crit = ks_critical_value(args.samples)
    checks.append(_check("norm-uniformity-ks", ks < crit))
    results = {"balls": entries, "ks_statistic": repr(ks),
               "ks_critical_1pct": repr(crit)}
    return config, results, checks, ["r", "estimate", "stderr", "m", "N", "seed"], rows


def _run_trace(args):
    from .graphon import convergence_trace
    from .serialize import rational_to_str
    sol, spec = _solved(args)
    _graphon_ready(sol)
    distances = convergence_trace(sol, sol.order, mode=args.mode, seed=args.seed)
    config = {"spec": spec, "order": sol.order, "mode": args.mode, "seed": args.seed}
    non_increasing = all(distances[i] >= distances[i + 1]
                         for i in range(len(distances) - 1))
    positive = all(d > 0 for d in distances)
    results = {"distances": [rational_to_str(d) for d in distances],
               "mode": args.mode, "non_increasing": non_increasing}
    rows = [[i + 1, rational_to_str(d), args.mode]
            for i, d in enumerate(distances)]
    checks = [_check("trace-positive", positive)]
    return config, results, checks, ["step", "distance", "mode"], rows


_HANDLERS = {"solve": _run_solve, "renorm": _run_renorm,
             "graphon": _run_graphon, "tutte": _run_tutte,
             "symanzik": _run_symanzik, "haar": _run_haar,
             "trace": _run_trace}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsegraphon",
        description="Workbench for truncated combinatorial Dyson-Schwinger "
                    "equations, renormalization, graph polynomials, graphon "
                    "limits, and the Haar solution-space model.")
    parser.add_argument("--version", action="version",
                        version=f"dsegraphon {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, spec=False, rules=False, graphs=False, mode=None):
        if spec:
            p.add_argument("--spec", required=True,
                           help="equation spec JSON file")
            p.add_argument("--order", type=int, default=None,
                           help="override truncation order")
            p.add_argument("--coupling", default=None,
                           help="override coupling (rational)")
        if rules:
            p.add_argument("--rules", required=True,
                           help="regularized-rules JSON file")
        if graphs:
            p.add_argument("--graphs", default=None,
                           help="JSON array of multigraphs (overrides corpus)")
            p.add_argument("--max-edges", type=int, default=4,
                           help="corpus bound when --graphs absent")
        p.add_argument("--seed", type=int, default=0)
        if mode:
            p.add_argument("--mode", choices=("exact", "heuristic"), default=mode)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("solve", help="solve a truncated equation"),
           spec=True)
    common(sub.add_parser("renorm", help="renormalize a solved equation"),
           spec=True, rules=True)
    g = sub.add_parser("graphon", help="graphon image and fingerprint of a solution")
    common(g, spec=True, mode="exact")
    g.add_argument("--level", type=int, default=3,
                   help="fingerprint edge bound (<=5)")
    common(sub.add_parser("tutte", help="Tutte polynomial batch"), graphs=True)
    common(sub.add_parser("symanzik", help="Kirchhoff-Symanzik batch"),
           graphs=True)
    h = sub.add_parser("haar", help="ball-measure Monte Carlo sweep")
    common(h)
    h.add_argument("--depth", type=int, default=24)
    h.add_argument("--samples", type=int, default=100_000)
    h.add_argument("--radii", default=DEFAULT_RADII)
    t = sub.add_parser("trace", help="graphon convergence trace of a solution")
    common(t, spec=True, mode="heuristic")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config, results, checks, header, rows = _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: its arrays cannot be allocated", file=sys.stderr)
        return 2
    config.update(subcommand=args.subcommand, format=args.format)
    text = _render(_document(config, results, checks), args.format, header, rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
