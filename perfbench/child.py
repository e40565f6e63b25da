"""One benchmark process: a CLI task, a hopf-api pass or a set-up probe.

Started by run.py, never by hand:

    python3 perfbench/child.py cli SIDE TRACE ARGV...     one CLI run
    python3 perfbench/child.py api SIDE TRACE VARIANT     one hopf-api pass
    python3 perfbench/child.py probe-api SIDE VARIANT     build API inputs, exit

SIDE is a JSON-lines file the process appends to: a ``ready`` record
(``time.monotonic()``, which is system-wide on Linux, once the import
and the inputs are done), one record per API call, and with TRACE=1 the
trace summary.  The CLI's own stdout and stderr are left untouched.

Every process also times ``spin`` just before its set-up and right after
each task or call (``spin_before``, ``spin_after``).  The speed of this
shared host drifts by up to 1.8x over seconds to minutes, and the same
process's own loop, timed next to the work, tracks that drift; run.py
scales the work by it (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

SPIN_STEPS = 300_000


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_STEPS):
        x ^= i * i
    return time.perf_counter() - t0


def _emit(side: str, record: dict) -> None:
    with open(side, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _ready(side: str, spin_before: float) -> None:
    _emit(side, {"ready": time.monotonic(), "spin_before": spin_before})


def _traced(side: str, trace: bool, body):
    """Run ``body`` under a tracer when asked; always record its end."""
    spans = None
    if trace:
        from tracer import Tracer
        spans = Tracer()
        spans.install()
    try:
        return body()
    finally:
        record = {"done": time.monotonic()}
        if spans is not None:
            record["trace"] = spans.dump(side + ".spans")
        _emit(side, record)


# -- CLI --------------------------------------------------------------------

def run_cli(side: str, trace: bool, argv: list[str]) -> int:
    before = spin()
    import dsegraphon.cli as cli
    _ready(side, before)
    try:
        return _traced(side, trace, lambda: cli.main(argv))
    finally:
        _emit(side, {"spin_after": spin()})


# -- hopf-api ---------------------------------------------------------------

def _forest_sum_text(x) -> str:
    return "\n".join(f"{c} {f.code}" for f, c in
                     sorted(x.terms.items(), key=lambda kv: (kv[0].grade, kv[0].code)))


def _tensor_sum_text(x) -> str:
    return "\n".join(f"{c}\t{l.code}\t{r.code}" for (l, r), c in
                     sorted(x.terms.items(), key=lambda kv: (kv[0][0].code, kv[0][1].code)))


def _solution_text(sol) -> str:
    return "\n#\n".join(_forest_sum_text(x) for x in sol.coefficients)


def _witness_text(report) -> str:
    return f"{report.ok}\n" + "\n".join(
        f"{k}: {v}" for k, v in sorted(report.coefficients.items()))


def _api_inputs(variant: int):
    from fractions import Fraction as F
    from dsegraphon.dse import Cocycle, DSESpec
    from dsegraphon.hopf import rational_character
    one = DSESpec((Cocycle("g", F(1)),), order=10, coupling=F(1, 2))
    two = DSESpec((Cocycle("g", F(1)), Cocycle("h", F(1, 2))), order=7,
                  coupling=F(1, 2))
    p, q = variant + 1, 2 * variant + 3
    phi = rational_character(lambda t: F(p, t.size + q), "phi")
    psi = rational_character(lambda t: F(q, p * t.size + 1), "psi")
    return one, two, phi, psi


def _api_calls(one, two, phi, psi):
    """(name, call, digest text, check) in workload order; a call takes
    the results so far and a check returns a problem or None."""
    from fractions import Fraction as F
    import oracles
    # through the modules, so that a tracer installed later sees the calls
    from dsegraphon import dse, hopf

    def solved(key, spec):
        def check(res, got):
            omegas = [c.omega for c in spec.cocycles]
            sums = oracles.series_coefficient_sums(omegas, spec.order)
            for n, x in enumerate(got[key].coefficients):
                if sum(x.terms.values(), F(0)) != sums[n]:
                    return f"grade {n} coefficient sum differs from the series"
            return None
        return (key, lambda got: dse.solve(spec), _solution_text, check)

    def delta(key, sol, n):
        def check(res, got):
            x = got[sol].coefficients[n]
            ok = oracles.counit_identities(res.terms, x.terms)
            return None if ok else "counit identities fail"
        return (key, lambda got: hopf.coproduct(got[sol].coefficients[n]),
                _tensor_sum_text, check)

    def warm(key, cold, call):
        def check(res, got):
            return None if res == got.get(cold) else f"differs from {cold}"
        return (key, call, None, check)

    def anti(key, n):
        def check(res, got):
            ok = all(f.grade == n for f in res.terms)
            return None if ok else "antipode is not homogeneous"
        return (key, lambda got: hopf.antipode(got["solve-g10"].coefficients[n]),
                _forest_sum_text, check)

    def witness(key, n):
        def check(res, got):
            return None if res.ok else res.message
        return (key, lambda got: dse.subalgebra_witness(got["solve-g10"], n),
                _witness_text, check)

    def conv(got):
        return hopf.convolve(phi, psi, got["solve-g10"].coefficients[9])

    return [
        solved("solve-g10", one),
        delta("coproduct-g8", "solve-g10", 8),
        delta("coproduct-g9", "solve-g10", 9),
        delta("coproduct-g10", "solve-g10", 10),
        warm("coproduct-g10-warm", "coproduct-g10",
             lambda got: hopf.coproduct(got["solve-g10"].coefficients[10])),
        anti("antipode-g7", 7),
        anti("antipode-g8", 8),
        anti("antipode-g9", 9),
        warm("antipode-g9-warm", "antipode-g9",
             lambda got: hopf.antipode(got["solve-g10"].coefficients[9])),
        witness("witness-g6", 6),
        witness("witness-g7", 7),
        solved("solve-gh7", two),
        delta("coproduct-gh7", "solve-gh7", 7),
        ("convolve-g9", conv, str, None),
        warm("convolve-g9-warm", "convolve-g9", conv),
    ]


def run_api(side: str, trace: bool, variant: int) -> None:
    before = spin()
    calls = _api_calls(*_api_inputs(variant))
    _ready(side, before)

    def body():
        got = {}
        for key, call, text, check in calls:
            record = {"call": key}
            t0 = time.perf_counter()
            try:
                res = call(got)
            except Exception as exc:  # a failed call is recorded, the pass goes on
                record["s"] = time.perf_counter() - t0
                record["spin_after"] = spin()
                record["error"] = f"{type(exc).__name__}: {exc}"
                _emit(side, record)
                continue
            record["s"] = time.perf_counter() - t0
            record["spin_after"] = spin()
            got[key] = res
            if text is not None:
                record["digest"] = hashlib.sha256(text(res).encode()).hexdigest()
            if check is not None:
                record["problem"] = check(res, got)
            _emit(side, record)

    _traced(side, trace, body)


def probe_api(side: str, variant: int) -> None:
    before = spin()
    _api_calls(*_api_inputs(variant))
    _ready(side, before)


def main(argv: list[str]) -> int:
    mode, side = argv[0], argv[1]
    if mode == "cli":
        return run_cli(side, argv[2] == "1", argv[3:])
    if mode == "api":
        run_api(side, argv[2] == "1", int(argv[3]))
    elif mode == "probe-api":
        probe_api(side, int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
