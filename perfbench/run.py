"""Benchmark of the radixion CLI over the README acceptance invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation runs as a fresh `python -m radixion.cli` child of this
process, with the source tree's `src` on PYTHONPATH; nothing is installed.
Each child's wall time, CPU time and peak RSS come from its own
`os.wait4`, so one child's peak is never charged to another.

Every child runs with `--threads 1` and OpenBLAS pinned to one thread
(workloads.THREADS says why).  --trace 0 repeats the workload's
invocations (one "rep") as often as fits in S seconds, at least once, and
runs the set-up probe between reps; it reports the end-to-end metrics as
medians over reps and probes.  --trace 1 runs each invocation twice: once
plainly and once under perfbench/shim.py, which records spans around the
layer functions; it reports per-layer self times and counters.

Every artifact is checked against the acceptance clauses that pass today
(workloads.py); an invocation that exits nonzero or fails a clause counts
as failed.  A human-readable summary goes to stdout, the full record to
perfbench/out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import BUDGETS_S, THREADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up probes per timed run: a batch before each rep, topped up after the
# last.  One probe varies by about 20% (q1 to q3) and the VM's speed shifts
# for seconds at a time, so the probes are spread over the whole run.
SETUP_REPS = 21
SETUP_BATCH = 7

# Metric names and units, workload "why" lines: BENCHMARK.json is the one copy.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

# Units of per-layer values that depend on the clock; the rest must repeat.
TIMED_UNITS = ("s", "1/s", "share")


@dataclass(frozen=True)
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv, env, err_path) -> Child:
    """Run `python argv...` to completion; stdout is discarded."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ])
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env(extra):
    """Environment of one child: source tree on the path, one BLAS thread.

    RADIXION_CAP is removed so that only a child that asks for it (the
    depth-25 tile) runs with a raised cap.
    """
    env = {k: v for k, v in os.environ.items() if k != "RADIXION_CAP"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.update(extra)
    return env


def cli_argv(inv, seed, work):
    seed_flags = ("--seed", str(seed)) if inv.seeded else ()
    return [*inv.argv, "--threads", str(THREADS), *seed_flags, "--out", str(work / inv.name)]


def evaluate(inv, rc, path):
    """(failures, values) of one finished invocation."""
    if rc != 0:
        return ["exit code %d" % rc], {}
    try:
        return inv.check(path)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable artifact: %r" % (exc,)], {}


def run_invocation(inv, argv, work):
    """Run one child of `inv`, check its artifact and return its row."""
    out = work / inv.name
    out.unlink(missing_ok=True)
    child = spawn(argv, child_env(inv.env), work / (inv.name + ".err"))
    failures, values = evaluate(inv, child.rc, out)
    return {"name": inv.name, "criterion": inv.criterion, "rc": child.rc,
            "wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
            "artifact_bytes": out.stat().st_size if out.exists() else 0,
            "failures": failures, "values": values}


def timed_rep(workload, seed, work):
    return [run_invocation(inv, ["-m", "radixion.cli", *cli_argv(inv, seed, work)], work)
            for inv in workload.invocations]


def traced_pass(workload, seed, work):
    """One entry per invocation: its plain and traced rows and its span file."""
    rows = []
    for inv in workload.invocations:
        argv = cli_argv(inv, seed, work)
        entry = {"name": inv.name,
                 "plain": run_invocation(inv, ["-m", "radixion.cli", *argv], work)}
        spans = work / (inv.name + ".spans.json")
        spans.unlink(missing_ok=True)
        entry["traced"] = run_invocation(
            inv, [str(HERE / "shim.py"), str(spans), inv.name, "--", *argv], work)
        try:
            entry["doc"] = json.loads(spans.read_text())
        except (OSError, ValueError) as exc:
            entry["doc"] = None
            entry["traced"]["failures"].append("no span file: %r" % (exc,))
        rows.append(entry)
    return rows


def layer_values(entries):
    """Per-layer metrics of traced invocations: self times, call counts, counters."""
    docs = [e["doc"] for e in entries if e["doc"] is not None]
    flat = {}
    main_total = 0.0

    def add(key, v):
        flat[key] = flat.get(key, 0) + v

    for doc in docs:
        spans = doc["spans"]
        covered = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in spans:
            duration = s["end"] - s["start"]
            add(s["name"] + ".s", duration - covered.get(s["id"], 0.0))
            add(s["name"] + ".calls", 1)
            for key, v in s["counters"].items():
                add(s["name"] + "." + key, v)
            if s["name"] == "cli.main":
                main_total += duration
        for name, v in doc["counts"].items():
            add(name + ".calls", v)
    fd_s = flat.get("analysis.fourier_decay.s", 0.0)
    rows = flat.get("analysis.prime_mask.rows", 0)
    flat["analysis.fourier_decay.phase_evals_per_s"] = (
        flat.get("analysis.fourier_decay.phase_evals", 0) / fd_s if fd_s else 0.0)
    flat["analysis.prime_mask.yield"] = (
        flat.get("analysis.prime_mask.primes", 0) / rows if rows else 0.0)
    flat["cli.artifact_bytes"] = sum(e["traced"]["artifact_bytes"] for e in entries)
    flat["trace.coverage"] = 1.0 - flat.get("cli.main.s", 0.0) / main_total if main_total else 0.0
    flat["trace.overhead_s"] = sum(e["traced"]["wall_s"] - e["plain"]["wall_s"] for e in entries)
    flat["_cli_main_total_s"] = main_total
    flat["_child_wall_s"] = sum(e["traced"]["wall_s"] for e in entries)
    return flat


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(seed, seconds, trace):
    """The record of what ran: commit, cores, versions and the children's settings.

    Children run this interpreter with this numpy, so its versions are read here.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"commit": "unknown (not a git checkout)", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        info["commit"] = done.stdout.strip() or info["commit"]
    info["settings"] = {
        "threads": THREADS,
        "OPENBLAS_NUM_THREADS": "1",
        "RADIXION_CAP": "34000000 for c5_boxdim only, unset for every other child",
        "seed": seed, "run_seconds": seconds, "trace": trace,
    }
    return info


def measure_setup(workload, work, count):
    probe = [str(HERE / "probe.py"), *[v for pair in workload.systems for v in pair]]
    return [spawn(probe, child_env({}), work / "setup.err") for _ in range(count)]


def fits(start, done, seconds):
    """Whether one more repetition, at the mean pace so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def rep_samples(reps, names):
    """wall_s, cpu_s and peak_rss_mb of each rep, over the invocations in `names`."""
    mine = [[r for r in rep if r["name"] in names] for rep in reps]
    return {"wall_s": [sum(r["wall_s"] for r in rep) for rep in mine],
            "cpu_s": [sum(r["cpu_s"] for r in rep) for rep in mine],
            "peak_rss_mb": [max(r["rss_mb"] for r in rep) for rep in mine]}


def run_timed(workload, seed, seconds, work):
    """Reps for `seconds` (at least one), each after a batch of set-up probes."""
    setup, reps = [], []
    start = time.perf_counter()
    while not reps or fits(start, len(reps), seconds):
        setup += measure_setup(workload, work, SETUP_BATCH)
        reps.append(timed_rep(workload, seed, work))
    setup += measure_setup(workload, work, SETUP_REPS - len(setup))
    samples = rep_samples(reps, {inv.name for inv in workload.invocations})
    samples["setup_s"] = [c.wall_s for c in setup]
    rows = [r for rep in reps for r in rep]
    failed = sum(1 for r in rows if r["failures"])
    problems = ["set-up probe exited %d" % c.rc for c in setup if c.rc]
    metrics = {name: dict(summary(samples[name]), unit=unit)
               for name, unit in END_TO_END.items()}
    metrics["failed_ratio"] = {"median": failed / len(rows), "n": len(rows), "unit": "ratio"}
    groups = {}
    for group in workload.groups:
        names = {inv.name for inv in group.invocations}
        mine = [r for r in rows if r["name"] in names]
        groups[group.name] = {
            **{k: dict(summary(v), unit=END_TO_END[k])
               for k, v in rep_samples(reps, names).items()},
            "failed": sum(1 for r in mine if r["failures"]), "attempted": len(mine)}
    per_invocation = {}
    for inv in workload.invocations:
        mine = [r for r in rows if r["name"] == inv.name]
        per_invocation[inv.name] = {
            "criterion": inv.criterion,
            **{k: summary([r[k] for r in mine])["median"] for k in ("wall_s", "cpu_s", "rss_mb")},
            "failures": sorted({f for r in mine for f in r["failures"]}),
            "values": mine[-1]["values"],
        }
    budgets = {}
    for inv in workload.invocations:
        walls = budgets.setdefault(inv.criterion, {"budget_s": BUDGETS_S[inv.criterion],
                                                   "wall_s": 0.0})
        walls["wall_s"] += per_invocation[inv.name]["wall_s"]
    record = {"reps": reps, "setup_walls_s": samples["setup_s"], "metrics": metrics,
              "groups": groups, "per_invocation": per_invocation,
              "budgets_recorded_only": budgets, "problems": problems}
    result = {name: {"value": metrics[name]["median"], "unit": unit}
              for name, unit in END_TO_END.items()}
    return record, len(rows), failed, problems, result


def attribution(group, entries_of_passes):
    """How much of a group's traced time its focus layers take (median over passes)."""
    names = {inv.name for inv in group.invocations}
    values = [layer_values([e for e in entries if e["name"] in names])
              for entries in entries_of_passes]
    focus_s = statistics.median(sum(v.get(f + ".s", 0.0) for f in group.focus) for v in values)
    main_total = statistics.median(v["_cli_main_total_s"] for v in values)
    child_wall = statistics.median(v["_child_wall_s"] for v in values)
    return {"focus": list(group.focus), "focus_self_s": focus_s,
            "cli_main_s": main_total, "traced_child_wall_s": child_wall,
            "share_of_cli_main": focus_s / main_total if main_total else 0.0,
            "share_of_child_wall": focus_s / child_wall if child_wall else 0.0}


def run_traced(workload, seed, seconds, work):
    passes = []
    start = time.perf_counter()
    while not passes or fits(start, len(passes), seconds):
        passes.append(traced_pass(workload, seed, work))
    values = [layer_values(entries) for entries in passes]
    checked = [r for entries in passes for e in entries for r in (e["plain"], e["traced"])]
    failed = sum(1 for r in checked if r["failures"])
    problems = []
    counts = [{k: v for k, v in vals.items() if k in PER_LAYER and PER_LAYER[k] not in TIMED_UNITS}
              for vals in values]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counters differ between traced passes")
    result = {name: {"value": statistics.median(v.get(name, 0) for v in values), "unit": unit}
              for name, unit in PER_LAYER.items()}
    record = {"passes": [{"rows": [{k: e[k] for k in ("name", "plain", "traced")}
                                   for e in entries], "values": vals}
                         for entries, vals in zip(passes, values)],
              "spans": [[e["doc"] for e in entries] for entries in passes],
              "attribution": {g.name: attribution(g, passes) for g in workload.groups},
              "problems": problems}
    return record, len(checked), failed, problems, result


def print_summary(workload, args, info, record, result, attempted, failed):
    print("perfbench %s  seed=%d trace=%d  --threads %d  nproc=%s  commit=%s" % (
        workload.name, args.seed, args.trace, THREADS, info["nproc"], info["commit"]))
    print("  python %s  numpy %s  %s  OPENBLAS_NUM_THREADS=1" % (
        info.get("python"), info.get("numpy"), info.get("blas")))
    if args.trace:
        for name, unit in PER_LAYER.items():
            print("  %-42s %16.6g %s" % (name, result[name]["value"], unit))
        for group, att in record["attribution"].items():
            print("  %s: %s %.1f%% of cli.main time, %.1f%% of traced child wall" % (
                group, " + ".join(att["focus"]), 100 * att["share_of_cli_main"],
                100 * att["share_of_child_wall"]))
    else:
        print("  %-24s %12s %12s %12s %4s  unit" % ("metric", "median", "q1", "q3", "n"))
        rows = [(name, record["metrics"][name]) for name in END_TO_END]
        if len(record["groups"]) > 1:
            rows += [("%s/%s" % (g, name), m) for g, ms in record["groups"].items()
                     for name, m in ms.items() if name in END_TO_END]
        for name, m in rows:
            print("  %-24s %12.4f %12.4f %12.4f %4d  %s" % (
                name, m["median"], m["q1"], m["q3"], m["n"], m["unit"]))
        print("  %-24s %12.4f %12s %12s %4d  ratio (%d of %d failed)" % (
            "failed_ratio", failed / attempted, "", "", attempted, failed, attempted))
        for g, ms in record["groups"].items():
            print("  %-24s %12.4f %12s %12s %4d  ratio" % (
                g + "/failed_ratio", ms["failed"] / ms["attempted"], "", "", ms["attempted"]))
        print("  %-16s %9s %9s %9s  failures" % ("invocation", "wall_s", "cpu_s", "rss_mb"))
        for name, inv in record["per_invocation"].items():
            print("  %-16s %9.3f %9.3f %9.1f  %s" % (
                name, inv["wall_s"], inv["cpu_s"], inv["rss_mb"],
                "; ".join(inv["failures"]) or "-"))
    for problem in record["problems"]:
        print("  problem: %s" % problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "radixion" / "cli.py").is_file():
        print("error: no radixion source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    info = environment(args.seed, args.seconds, args.trace)
    run = run_traced if args.trace else run_timed
    record, attempted, failed, problems, result = run(workload, args.seed, args.seconds, work)
    record = {"workload": workload.name, "why": WHY[workload.name], "environment": info, **record}
    path = OUT / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(workload, args, info, record, result, attempted, failed)
    print("  record: %s" % path.relative_to(ROOT))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
