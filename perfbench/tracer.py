"""Span tracer for the benchmark's traced runs, installed from outside.

The package itself is not modified.  A public function is wrapped at
every module attribute that binds it (``reduced_coproduct`` is bound in
both ``hopf`` and ``renorm``, ``solve`` in both ``dse`` and ``cli``); an
arithmetic method is wrapped on its class.  Only modules the process
has already imported are touched, so tracing imports nothing new.

Each span records its name, start, end, parent span, the grade of its
input and the size of its result where those exist.  Spans stay in
memory in flat arrays; ``dump`` writes them out when the process ends,
together with per-name aggregates:

    calls, total_s, self_s (duration minus the child spans), size

Spans file layout: ``n`` int32 name ids, then ``n`` int32 parent
indices (-1 for a root), ``n`` float64 starts, ``n`` float64 ends,
``n`` int32 grades and ``n`` int64 sizes, in native byte order;
``n`` and the name table are in the side record.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

clock = time.perf_counter


def _grade(x) -> int:
    """Largest vertex grade of a ForestSum, Forest or Tree."""
    if hasattr(x, "max_grade"):
        return x.max_grade()
    if hasattr(x, "grade"):
        return x.grade
    return getattr(x, "size", -1)


def _arg_grade(pos):
    return lambda args: _grade(args[pos]) if len(args) > pos else -1


def _terms(args, res):
    return -1 if res is None else len(res.terms)


def _monomials(args, res):
    return -1 if res is None else sum(len(x.terms) for x in res.coefficients)


def _blocks(args, res):
    return -1 if res is None else res.k


def _length(args, res):
    return -1 if res is None else len(res)


def _cells(args, res):
    """Equal cells of the common refinement, also when it is refused."""
    return math.lcm(*(b.denominator for w in args[:2] for b in w.boundaries()))


_SERIALIZE = ("dse_spec_from_json", "dse_spec_to_json", "forest_sum_to_json",
              "graphon_to_json", "laurent_to_json", "multigraph_from_json",
              "multigraph_to_json", "multipoly_to_json", "rational_from_str",
              "rational_to_str", "solution_to_json", "toy_rules_from_json",
              "toy_rules_to_json")

# (module, attribute or Class.method, input grade, result size)
TARGETS = [
    ("trees", "ForestSum.__mul__", None, None),
    ("trees", "ForestSum.__add__", None, None),
    ("hopf", "graft", None, None),
    ("hopf", "coproduct", _arg_grade(0), _terms),
    ("hopf", "reduced_coproduct", _arg_grade(0), None),
    ("hopf", "antipode", _arg_grade(0), _terms),
    ("hopf", "convolve", _arg_grade(2), None),
    ("hopf", "TensorSum.__mul__", None, None),
    ("hopf", "TensorSum.__add__", None, None),
    ("dse", "solve", None, _monomials),
    ("dse", "structural_sum", None, None),
    ("dse", "subalgebra_witness", lambda args: args[1], None),
    ("renorm", "renormalize_solution", None, None),
    ("renorm", "renormalized_value", _arg_grade(1), None),
    ("renorm", "counterterm", _arg_grade(1), None),
    ("renorm", "LaurentSeries.__mul__", None, None),
    ("renorm", "ScalePoly.__mul__", None, None),
    ("graphon", "feynman_graphon", None, _blocks),
    ("graphon", "cut_norm", None, None),
    ("graphon", "cut_distance", None, None),
    ("graphon", "common_refinement", None, _cells),
    ("graphon", "density_fingerprint", None, None),
    ("graphon", "hom_density", None, None),
    ("graphon", "convergence_trace", None, None),
    ("graphpoly", "generate_connected_multigraphs", None, _length),
    ("graphpoly", "tutte", None, None),
    ("graphpoly", "spanning_tree_count", None, None),
    ("graphpoly", "symanzik_psi", None, None),
    ("graphpoly", "symanzik_det", None, None),
    ("graphpoly", "MultiPoly.__mul__", None, None),
    ("haar", "ball_measure_mc", None, None),
    ("haar", "norm_uniformity_statistic", None, None),
    *(("serialize", name, None, None) for name in _SERIALIZE),
    ("cli", "main", None, None),
]


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.grade = array("i")
        self.size = array("q")
        self.errors: dict[int, str] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, grade_of=None, size_of=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        grades, sizes, stack, errors = self.grade, self.size, self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            grades.append(-1 if grade_of is None else grade_of(args))
            sizes.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                errors[idx] = type(exc).__name__
                if size_of is not None:
                    sizes[idx] = size_of(args, None)
                raise
            ends[idx] = clock()
            stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, res)
            return res

        return traced

    def install(self) -> None:
        """Wrap every target whose module this process has imported."""
        mods = [m for n, m in list(sys.modules.items())
                if n.startswith("dsegraphon.") and m is not None]
        for modname, attr, grade_of, size_of in TARGETS:
            mod = sys.modules.get("dsegraphon." + modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                name = f"{modname}.{cls_name}.{meth.strip('_')}"
                setattr(cls, meth,
                        self.wrap(name, cls.__dict__[meth], grade_of, size_of))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(f"{modname}.{attr}", orig, grade_of, size_of)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def summary(self) -> dict:
        """Per-name aggregates, first duration per input grade, escaped errors."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        agg = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
               for name in self.names}
        first_by_grade: dict[str, dict[int, float]] = {}
        root_s = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += dur[i]
            a["self_s"] += dur[i] - child[i]
            if self.size[i] > 0:
                a["size"] += self.size[i]
            g = self.grade[i]
            if g >= 0:
                first_by_grade.setdefault(name, {}).setdefault(g, dur[i])
            if parent[i] < 0:
                root_s += dur[i]
        # an error counts once, at the outermost span of the layer it left
        escaped: dict[str, int] = {}
        for i, err in self.errors.items():
            layer = self.names[self.name_id[i]].split(".")[0]
            p = parent[i]
            if p < 0 or self.names[self.name_id[p]].split(".")[0] != layer:
                key = f"{layer}.{err}"
                escaped[key] = escaped.get(key, 0) + 1
        return {"spans": n, "root_s": root_s, "aggregates": agg,
                "first_by_grade": first_by_grade, "escaped_errors": escaped}

    def dump(self, spans_path: str) -> dict:
        """Write the raw spans to ``spans_path``; return the summary."""
        with open(spans_path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end,
                        self.grade, self.size):
                arr.tofile(fh)
        out = self.summary()
        out["names"] = list(self.names)
        out["spans_file"] = spans_path
        out["span_cost_s"] = span_cost()
        return out


def span_cost(calls: int = 20000) -> float:
    """Time one traced call adds over a plain call, best of three."""
    def noop(x):
        return x

    best = math.inf
    for _ in range(3):
        traced = Tracer().wrap("noop", noop)
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            traced(i)
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
