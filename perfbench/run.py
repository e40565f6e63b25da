"""Benchmark driver for dsegraphon.

    python3 perfbench/run.py --workload dse-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record      # re-record reference digests

Run from the root of a checkout.  The package is taken from ``src/``;
nothing is installed.  Each workload is a closed loop with one client:
one task in flight at a time, at most one child process at a time.
Whole passes over the workload's tasks repeat until the next pass would
end after ``--seconds``; there is always at least one pass.  The last
line of stdout is the JSON result; a fuller record, with the host, goes
to ``.perfbench/results/``.  README.md next to this file explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracles
from child import spin
from tasks import (END_TO_END, GRADE_RATIOS, INPUTS, PER_LAYER, SIZE_COUNTERS,
                   VARIANTS, WORKLOADS, Task, Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 165.0      # the whole run, set-up included, ends before this
API_SETUP_PROBES = 8     # extra set-up samples for the one-process workload
# child.spin's time on the 2-vCPU sandbox where the benchmark was defined,
# in its fast phase.  Times are reported in seconds of that host: a time
# measured next to a spin of s seconds is scaled by SPIN_REF_S / s.
SPIN_REF_S = 0.025


class BenchError(Exception):
    """The benchmark cannot run here; exit 1 without a result."""


# -- processes ----------------------------------------------------------------

@dataclass
class Launch:
    start: float
    end: float
    rc: int
    maxrss_kb: int
    timed_out: bool
    side: list
    stdout: bytes
    stderr: str

    def record(self, key: str):
        return next((r[key] for r in self.side if key in r), None)


def _launch(args: list[str], name: str, timeout: float, trace: bool) -> Launch:
    """Run one child to completion (or kill it at ``timeout``)."""
    out, err, side = (WORK / "io" / f"{name}.{ext}" for ext in ("out", "err", "side"))
    for path in (out, err, side, Path(str(side) + ".spans")):
        path.unlink(missing_ok=True)
    python = [sys.executable] + (["-X", "importtime"] if trace else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(python + [str(CHILD), args[0], str(side)] + args[1:],
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                cwd=ROOT, env=env)
    box = {}
    # wait4 gives this child's own peak RSS; a thread lets us time out
    waiter = threading.Thread(target=lambda: box.update(res=os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(max(timeout, 0.0))
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    end = time.monotonic()
    _, status, usage = box["res"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    records = []
    if side.exists():
        records = [json.loads(line) for line in side.read_text().splitlines()
                   if line.endswith("}")]
    return Launch(start, end, proc.returncode, usage.ru_maxrss, timed_out,
                  records, out.read_bytes(), err.read_text(errors="replace"))


# -- one pass -------------------------------------------------------------------

def _task_record(task: Task, status: str, seconds: float, detail, limit: float,
                 scale: float = 1.0, **extra) -> dict:
    """``charged_s`` is the time counted in the metrics: ``seconds`` times
    the host-speed ``scale``, or the latency limit for any task that did
    not pass, so that a fix can only lower it."""
    return {"task": task.name, "sub": task.sub, "kind": task.kind,
            "status": status, "seconds": seconds, "scale": scale,
            "charged_s": seconds * scale if status == "ok" else limit,
            "detail": detail, **extra}


def _scale(*spins) -> float:
    """Host-speed factor from the spins timed next to a piece of work."""
    spins = [s for s in spins if s is not None]
    return SPIN_REF_S / statistics.mean(spins) if spins else 1.0


def _classify_cli(task: Task, ln: Launch, digest: str, reference) -> tuple[str, str | None]:
    if ln.timed_out:
        return "timeout", "timed out"
    tail = ln.stderr.strip().splitlines()[-1:] or [""]
    if "Traceback (most recent call last)" in ln.stderr:
        return "crashed", tail[0]
    errors = [l for l in ln.stderr.splitlines() if l.startswith("error:")]
    if ln.rc == 2 and errors:
        return "refused", errors[0]
    if ln.rc not in (0, 1):
        return "crashed", f"exit {ln.rc}: {tail[0]}"
    try:
        doc = json.loads(ln.stdout)
        failed_checks = oracles.check_named_checks(doc)
        if ln.rc == 1:
            return "check-failed", failed_checks or "exit 1 without a FAIL check"
        problem = failed_checks or task.oracle(doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unreadable document: {type(exc).__name__}: {exc}"
    if problem:
        return "wrong", problem
    if reference is not None and digest != reference:
        return "wrong", "document sha256 differs from the reference"
    return "ok", None


def _reference(refs, wl: Workload, task: Task, variant: int):
    if refs is None:
        return None
    return refs["digests"].get(wl.name, {}).get(task.name, [None] * VARIANTS)[variant]


def _cli_pass(wl: Workload, variant: int, trace: bool, refs, deadline: float) -> dict:
    tasks, procs = [], []
    for task in wl.tasks:
        timeout = min(wl.limit_s, deadline - time.monotonic())
        if timeout <= 0:
            tasks.append(_task_record(task, "timeout", 0.0, "run deadline reached",
                                      wl.limit_s))
            continue
        argv = [a if not a.endswith(".json") else str(WORK / "inputs" / a)
                for a in task.argv]
        ln = _launch(["cli", "1" if trace else "0", task.sub, *argv,
                      "--seed", str(variant)], task.name, timeout, trace)
        digest = hashlib.sha256(ln.stdout).hexdigest()
        status, detail = _classify_cli(task, ln, digest,
                                       _reference(refs, wl, task, variant))
        ready, done = ln.record("ready"), ln.record("done")
        before, after = ln.record("spin_before"), ln.record("spin_after")
        # the spins themselves are not the task's time
        start, end = ln.start + (before or 0.0), ln.end - (after or 0.0)
        setup = None if ready is None else (ready - start) * _scale(before)
        work_end = done if (trace and done is not None) else end
        work = (work_end - ready) if ready is not None else (end - start)
        rec = _task_record(task, status, end - start, detail, wl.limit_s,
                           _scale(before, after),
                           setup_s=setup, work_s=work, rc=ln.rc,
                           doc_bytes=len(ln.stdout),
                           digest=digest if ln.rc == 0 else None)
        tasks.append(rec)
        procs.append({"setup_s": setup, "work_s": work, "maxrss_kb": ln.maxrss_kb,
                      "trace": ln.record("trace"),
                      "imports": _import_times(ln.stderr) if trace else {}})
    parts = {t["task"]: t["charged_s"] for t in tasks}
    return {"tasks": tasks, "procs": procs, "parts": parts,
            "wall_norm_s": sum(parts.values())}


def _api_pass(wl: Workload, variant: int, trace: bool, refs, deadline: float) -> dict:
    timeout = min(wl.limit_s * len(wl.tasks), deadline - time.monotonic())
    ln = _launch(["api", "1" if trace else "0", str(variant)], wl.name, timeout, trace)
    calls = {r["call"]: r for r in ln.side if "call" in r}
    tasks = []
    # each call is scaled by the spins just before and just after it
    spin_prev = ln.record("spin_before")
    for task in wl.tasks:
        r = calls.get(task.name)
        if r is None:
            status = "timeout" if ln.timed_out else "crashed"
            detail = "timed out" if ln.timed_out else f"process ended (exit {ln.rc})"
            tasks.append(_task_record(task, status, 0.0, detail, wl.limit_s))
            continue
        ref = _reference(refs, wl, task, variant)
        if "error" in r:
            status, detail = "crashed", r["error"]
        elif r.get("problem"):
            status, detail = "wrong", r["problem"]
        elif ref is not None and r.get("digest") != ref:
            status, detail = "wrong", "result sha256 differs from the reference"
        else:
            status, detail = "ok", None
        tasks.append(_task_record(task, status, r["s"], detail, wl.limit_s,
                                  _scale(spin_prev, r["spin_after"]),
                                  digest=r.get("digest")))
        spin_prev = r["spin_after"]
    proc = {"setup_s": _api_setup(ln), "work_s": sum(t["seconds"] for t in tasks),
            "maxrss_kb": ln.maxrss_kb, "trace": ln.record("trace"),
            "imports": _import_times(ln.stderr) if trace else {}}
    # the child's own digests and checks between calls are not counted
    parts = {t["task"]: t["charged_s"] for t in tasks}
    parts["set-up"] = wl.limit_s if proc["setup_s"] is None else proc["setup_s"]
    return {"tasks": tasks, "procs": [proc], "parts": parts,
            "wall_norm_s": sum(parts.values())}


def _api_setup(ln: Launch) -> float | None:
    """Launch to ready, less the spin before it, in reference seconds."""
    ready, before = ln.record("ready"), ln.record("spin_before")
    if ready is None:
        return None
    return (ready - ln.start - before) * _scale(before)


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module, from ``-X importtime``."""
    out = {}
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$",
                         stderr, re.M):
        out[m.group(2)] = int(m.group(1)) / 1e6
    return out


# -- metrics -----------------------------------------------------------------------

def _end_to_end(passes: list[dict]) -> dict[str, float]:
    """``wall_norm_s`` sums, over the parts of a pass (tasks, and the
    set-up of the ``hopf-api`` process), each part's median over passes."""
    return {"wall_norm_s": sum(statistics.median(p["parts"][k] for p in passes)
                               for k in passes[0]["parts"]),
            "peak_rss_mb": statistics.median(
                max((q["maxrss_kb"] for q in p["procs"]), default=0)
                for p in passes) / 1024}


def _grade_ratio(name: str, procs: list[dict]) -> float:
    """Time of the first call at the top grade over the grade below, in the
    process that reached the highest grade."""
    best = None
    for q in procs:
        by_grade = {int(g): d for g, d in
                    (q["trace"] or {}).get("first_by_grade", {}).get(name, {}).items()}
        if not by_grade:
            continue
        top = max(by_grade)
        if top - 1 in by_grade and (best is None or top > best[0]):
            best = (top, by_grade[top] / by_grade[top - 1])
    return 0.0 if best is None else best[1]


def _pass_per_layer(p: dict) -> dict[str, float]:
    m = {name: 0.0 if unit in ("s", "ratio") else 0
         for name, (unit, _) in PER_LAYER.items()}
    agg: dict[str, Counter] = {}
    escaped, spans_cost, root_s, traced_work = Counter(), 0.0, 0.0, 0.0
    for q in p["procs"]:
        tr = q["trace"]
        if tr is None:
            continue
        for name, a in tr["aggregates"].items():
            agg.setdefault(name, Counter()).update(a)
        escaped.update(tr["escaped_errors"])
        spans_cost += tr["spans"] * tr["span_cost_s"]
        root_s += tr["root_s"]
        traced_work += q["work_s"]
    for name, a in agg.items():
        for stat in ("self_s", "calls"):
            if f"{name}.{stat}" in m:
                m[f"{name}.{stat}"] = a[stat]
        if name.startswith("serialize."):
            m["serialize.self_s"] += a["self_s"]
            m["serialize.calls"] += a["calls"]
    for metric, name in SIZE_COUNTERS.items():
        m[metric] = agg.get(name, Counter())["size"]
    for metric, name in GRADE_RATIOS.items():
        m[metric] = _grade_ratio(name, p["procs"])
    m["graphon.refused"] = escaped["graphon.SizeError"] + escaped["graphon.RefinementError"]
    for mod in ("cli", "haar"):
        times = [q["imports"][f"dsegraphon.{mod}"] for q in p["procs"]
                 if f"dsegraphon.{mod}" in q["imports"]]
        m[f"{mod}.import_s"] = statistics.median(times) if times else 0.0
    cli_tasks = [t for t in p["tasks"] if t["sub"] != "api"]
    m["cli.doc_bytes"] = sum(t.get("doc_bytes", 0) for t in cli_tasks)
    m["cli.exit2"] = sum(t.get("rc") == 2 for t in cli_tasks)
    m["cli.crashed"] = sum(t["status"] == "crashed" for t in cli_tasks)
    for t in p["tasks"]:
        key = f"api.{t['kind']}_s" if t["sub"] == "api" else f"cli.{t['sub']}.task_s"
        m[key] += t["charged_s"]
    if traced_work > 0:
        m["trace.coverage"] = root_s / traced_work
        m["trace.overhead_frac"] = spans_cost / traced_work
    m["trace.wall_norm_s"] = p["wall_norm_s"]
    return m


def _median_over(passes: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


# -- host -----------------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _prepare() -> dict:
    """Check for the package source, write the inputs, record the host."""
    if not (ROOT / "src" / "dsegraphon" / "cli.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'dsegraphon'}")
    for sub in ("inputs", "io", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    for name, obj in INPUTS.items():
        (WORK / "inputs" / name).write_text(json.dumps(obj, sort_keys=True) + "\n")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "platform": platform.platform(), "spin_s": spin(),
            "spin_ref_s": SPIN_REF_S}


# -- the run --------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool, refs) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    variant = seed % VARIANTS
    host = _prepare()
    setups = []
    if wl.api:
        for i in range(API_SETUP_PROBES):
            ln = _launch(["probe-api", str(variant)], f"probe{i}", 60.0, False)
            setup = _api_setup(ln)
            if setup is not None:
                setups.append(setup)
    passes = []
    t0 = time.monotonic()
    while True:
        p = (_api_pass if wl.api else _cli_pass)(wl, variant, trace, refs, deadline)
        passes.append(p)
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or time.monotonic() + per_pass > deadline:
            break
    tasks = [t for p in passes for t in p["tasks"]]
    setups += [q["setup_s"] for p in passes for q in p["procs"] if q["setup_s"] is not None]
    failed = sum(t["status"] != "ok" for t in tasks)
    if trace:
        values = _median_over([_pass_per_layer(p) for p in passes])
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values = _end_to_end(passes)
        values["setup_s"] = statistics.median(setups) if setups else RUN_LIMIT_S
        values["ok_frac"] = (len(tasks) - failed) / len(tasks)
        units = {k: u for k, (u, _, _) in END_TO_END.items()}
    result = {"correct": not any(t["status"] in ("wrong", "check-failed") for t in tasks),
              "attempted": len(tasks), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return {"workload": wl.name, "seed": seed, "variant": variant,
            "seconds": seconds, "trace": trace, "host": host,
            "passes": [{"wall_norm_s": p["wall_norm_s"], "tasks": p["tasks"]} for p in passes],
            "setup_samples_s": setups, "result": result}


def record_references() -> None:
    """Run every workload once per variant and store the output digests.

    Only tasks that pass their oracles are recorded; a refused task gets
    no digest, so once it is fixed its oracles alone decide.
    """
    _prepare()
    digests = {}
    for wl in WORKLOADS.values():
        table = digests.setdefault(wl.name, {})
        for variant in range(VARIANTS):
            p = (_api_pass if wl.api else _cli_pass)(wl, variant, False, None, math.inf)
            for t in p["tasks"]:
                print(f"{wl.name} v{variant} {t['task']:22} {t['status']:8} "
                      f"{t['seconds']:7.2f} s {t['detail'] or ''}", flush=True)
                if t["status"] not in ("ok", "refused"):
                    raise BenchError(f"{t['task']} is {t['status']}: {t['detail']}")
                table.setdefault(t["task"], [None] * VARIANTS)[variant] = \
                    t.get("digest") if t["status"] == "ok" else None
    REFERENCE.write_text(json.dumps({"variants": VARIANTS, "digests": digests},
                                    indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference digests for every workload")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record_references()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        refs = json.loads(REFERENCE.read_text())
        out = run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), refs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for i, p in enumerate(out["passes"], start=1):
        for t in p["tasks"]:
            print(f"pass {i} {t['task']:22} {t['status']:12} {t['seconds']:8.3f} s"
                  f"{'  ' + t['detail'] if t['detail'] else ''}")
    print("host " + json.dumps(out["host"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
