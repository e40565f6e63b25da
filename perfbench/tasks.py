"""Workloads, their tasks and the metrics the benchmark reports.

Why each workload exists is in README.md next to this file.  Standard
library only: the driver imports this module, never the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import oracles

# The CLI and the API receive ``seed % VARIANTS``; reference digests are
# recorded for each variant, so any workload seed has a reference.
VARIANTS = 8

INPUTS = {
    "g.json": {"cocycles": [{"decoration": "g", "omega": "1"}],
               "order": 10, "coupling": "1/2"},
    "gh.json": {"cocycles": [{"decoration": "g", "omega": "1"},
                             {"decoration": "h", "omega": "1/2"}],
                "order": 8, "coupling": "1/2"},
    "gh-unit.json": {"cocycles": [{"decoration": "g", "omega": "1"},
                                  {"decoration": "h", "omega": "1"}],
                     "order": 4, "coupling": "1/2"},
    "rules-symbolic.json": {"residues": {"g": "1"}},
    "rules-half.json": {"residues": {"g": "1"}, "scale": "1/2"},
    "rules-gh.json": {"residues": {"g": "1", "h": "2"}},
}


@dataclass(frozen=True)
class Task:
    """One CLI run (``sub`` is the subcommand) or one API call (``sub`` is
    "api", ``kind`` is "cold" or "warm")."""

    name: str
    sub: str
    argv: tuple[str, ...] = ()
    oracle: object = None
    kind: str = "cold"


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float          # per-task latency limit: timeout and failure charge
    tasks: tuple[Task, ...]

    @property
    def api(self) -> bool:
        return self.tasks[0].sub == "api"


def _renorm(name, spec, rules, order):
    return Task(name, "renorm", ("--spec", spec, "--rules", rules,
                                 "--order", str(order)),
                oracles.check_named_checks)


WORKLOADS = {w.name: w for w in (
    Workload("dse-cli", 60.0, (
        Task("solve-g10", "solve", ("--spec", "g.json"), oracles.check_solve),
        Task("solve-gh8", "solve", ("--spec", "gh.json"), oracles.check_solve),
        _renorm("renorm-g7-symbolic", "g.json", "rules-symbolic.json", 7),
        _renorm("renorm-g6-half", "g.json", "rules-half.json", 6),
        _renorm("renorm-gh5", "gh.json", "rules-gh.json", 5),
    )),
    Workload("graph-cli", 30.0, (
        Task("graphon-g5-heuristic", "graphon",
             ("--spec", "g.json", "--order", "5", "--mode", "heuristic",
              "--level", "3"), oracles.check_graphon),
        Task("graphon-g3-exact", "graphon",
             ("--spec", "g.json", "--order", "3", "--mode", "exact"),
             oracles.check_graphon),
        # refused today (76 blocks > 20): a valid spec, kept and charged
        Task("graphon-g4-exact", "graphon",
             ("--spec", "g.json", "--order", "4", "--mode", "exact"),
             oracles.check_graphon),
        Task("trace-g4", "trace", ("--spec", "g.json", "--order", "4"),
             oracles.check_named_checks),
        # refused today (10868 and 4836 equal cells > 4096)
        Task("trace-g5", "trace", ("--spec", "g.json", "--order", "5"),
             oracles.check_named_checks),
        Task("trace-gh4", "trace", ("--spec", "gh-unit.json"),
             oracles.check_named_checks),
        Task("tutte-e7", "tutte", ("--max-edges", "7"),
             oracles.check_named_checks),
        Task("symanzik-e7", "symanzik", ("--max-edges", "7"),
             oracles.check_named_checks),
        Task("haar-1m", "haar", ("--samples", "1000000"),
             oracles.check_named_checks),
    )),
    # one process per pass; calls run in this order (see child.py)
    Workload("hopf-api", 30.0, tuple(Task(name, "api", kind=kind) for name, kind in (
        ("solve-g10", "cold"),
        ("coproduct-g8", "cold"),
        ("coproduct-g9", "cold"),
        ("coproduct-g10", "cold"),
        ("coproduct-g10-warm", "warm"),
        ("antipode-g7", "cold"),
        ("antipode-g8", "cold"),
        ("antipode-g9", "cold"),
        ("antipode-g9-warm", "warm"),
        ("witness-g6", "cold"),
        ("witness-g7", "cold"),
        ("solve-gh7", "cold"),
        ("coproduct-gh7", "cold"),
        ("convolve-g9", "cold"),
        ("convolve-g9-warm", "warm"),
    ))),
)}

CLI_SUBCOMMANDS = ("solve", "renorm", "graphon", "trace", "tutte",
                   "symanzik", "haar")

# name -> (unit, better, bound); measured with tracing off
END_TO_END = {
    "wall_norm_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "ok_frac": ("ratio", "higher", 0.05),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {"cli.import_s": ("s", "lower"), "haar.import_s": ("s", "lower")}
    for name in ("cli.main.self_s", "serialize.self_s",
                 "trees.ForestSum.mul.self_s", "trees.ForestSum.add.self_s",
                 "hopf.graft.self_s", "dse.solve.self_s",
                 "hopf.coproduct.self_s", "hopf.TensorSum.mul.self_s",
                 "hopf.TensorSum.add.self_s", "hopf.antipode.self_s",
                 "hopf.convolve.self_s", "dse.subalgebra_witness.self_s",
                 "hopf.reduced_coproduct.self_s",
                 "renorm.renormalize_solution.self_s",
                 "renorm.renormalized_value.self_s",
                 "renorm.counterterm.self_s",
                 "renorm.LaurentSeries.mul.self_s",
                 "renorm.ScalePoly.mul.self_s", "dse.structural_sum.self_s",
                 "graphon.feynman_graphon.self_s", "graphon.cut_norm.self_s",
                 "graphon.density_fingerprint.self_s",
                 "graphon.hom_density.self_s",
                 "graphon.cut_distance.self_s",
                 "graphon.convergence_trace.self_s",
                 "graphpoly.generate_connected_multigraphs.self_s",
                 "graphpoly.tutte.self_s",
                 "graphpoly.spanning_tree_count.self_s",
                 "graphpoly.symanzik_psi.self_s",
                 "graphpoly.symanzik_det.self_s",
                 "haar.ball_measure_mc.self_s",
                 "haar.norm_uniformity_statistic.self_s"):
        out[name] = ("s", "lower")
    for name in ("serialize.calls", "trees.ForestSum.mul.calls",
                 "trees.ForestSum.add.calls", "hopf.graft.calls",
                 "hopf.coproduct.calls", "hopf.TensorSum.mul.calls",
                 "hopf.TensorSum.add.calls", "hopf.reduced_coproduct.calls",
                 "renorm.LaurentSeries.mul.calls", "renorm.ScalePoly.mul.calls",
                 "graphon.hom_density.calls", "graphpoly.MultiPoly.mul.calls",
                 "cli.exit2", "cli.crashed", "graphon.refused",
                 "dse.monomials", "hopf.coproduct.terms", "hopf.antipode.terms",
                 "graphon.blocks", "graphon.common_refinement.cells",
                 "graphpoly.graphs"):
        out[name] = ("count", "lower")
    out["cli.doc_bytes"] = ("bytes", "lower")
    for name in ("hopf.coproduct.grade_ratio", "hopf.antipode.grade_ratio",
                 "renorm.grade_ratio", "trace.overhead_frac"):
        out[name] = ("ratio", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.task_s"] = ("s", "lower")
    out["api.cold_s"] = ("s", "lower")
    out["api.warm_s"] = ("s", "lower")
    out["trace.wall_norm_s"] = ("s", "lower")
    return out


PER_LAYER = _per_layer()

# per-layer size counters: metric -> span name whose result sizes it sums
SIZE_COUNTERS = {
    "dse.monomials": "dse.solve",
    "hopf.coproduct.terms": "hopf.coproduct",
    "hopf.antipode.terms": "hopf.antipode",
    "graphon.blocks": "graphon.feynman_graphon",
    "graphon.common_refinement.cells": "graphon.common_refinement",
    "graphpoly.graphs": "graphpoly.generate_connected_multigraphs",
}

# grade-scaling ratios: metric -> span name timed per input grade
GRADE_RATIOS = {
    "hopf.coproduct.grade_ratio": "hopf.coproduct",
    "hopf.antipode.grade_ratio": "hopf.antipode",
    "renorm.grade_ratio": "renorm.renormalized_value",
}
