"""Steadiness of the benchmark: repeated runs, compared set against set.

    python3 perfbench/steady.py                   # 2 sets of 10 runs per workload
    python3 perfbench/steady.py --runs 1 --sets 1 # every workload once
    python3 perfbench/steady.py --traced          # per-layer repeatability

Each run is one ``run.py`` process of ``run_seconds`` (from
``BENCHMARK.json``) with its own seed.  Set k of a workload uses seeds
k·runs+1 .. k·runs+runs, and all workloads' runs of set 1 come before any
of set 2, so the two sets of a workload are minutes apart.  For every
end-to-end metric it prints each set's median, quartiles and spread
(interquartile range over median), and it passes when every spread is
within the metric's bound and every later set's median is within the bound
of the first set's, in either direction.  It also prints the reference
kernel's median and spread over the runs, and the failed jobs per set,
which must be none.

With ``--traced`` it makes, per workload, one untraced and two traced runs
on seed ``TRACED_SEED``: the per-layer counts and ratios of the two traced
runs must be equal, and the tracing overhead is traced ÷ untraced
``job_cost_mean``.

A summary goes to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    info = dict(f.split("=", 1) for f in lines[-2].lstrip("# ").split())
    result = json.loads(lines[-1])
    result["kernel_ms"] = float(info["kernel_ms_median"])
    result["jobs_per_s"] = float(info["jobs_per_s"])
    return result


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def moved_by(first, second):
    """How far ``second`` is from ``first``, as a share of ``first``."""
    return abs(second - first) / first


def sets_report(bench, workloads, runs, sets, seconds):
    summary = {}
    results = {w: [] for w in workloads}
    for k in range(sets):
        for w in workloads:
            results[w].append([run_once(w, k * runs + i + 1, seconds, 0)
                               for i in range(runs)])
            print(f"set {k + 1} of {w} done", file=sys.stderr, flush=True)
    ok = True
    for w in workloads:
        print(f"\n== {w}: {sets} set(s) of {runs} runs, {seconds} s each")
        summary[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = [spread([r["metrics"][name]["value"] for r in s]) for s in results[w]]
            line = f"  {name + ' [' + m['unit'] + ']':20s}"
            for med, q1, q3, sp in rows:
                line += f" | med {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} spread {sp:6.3f}"
            agree = all(moved_by(rows[0][0], r[0]) <= bound for r in rows[1:])
            steady = all(r[3] <= bound for r in rows)
            ok &= agree and steady
            line += f" | bound {bound} {'ok' if agree and steady else 'FAIL'}"
            print(line)
            summary[w][name] = {"sets": [dict(zip(("median", "q1", "q3", "spread"), r))
                                         for r in rows], "ok": agree and steady}
        kernel = [spread([r["kernel_ms"] for r in s]) for s in results[w]]
        raw = [spread([r["jobs_per_s"] for r in s]) for s in results[w]]
        print("  kernel [ms]         " + "".join(
            f" | med {med:10.4f} spread {sp:6.3f}" for med, _, _, sp in kernel))
        print("  jobs_per_s [1/s]    " + "".join(
            f" | med {med:10.4f} spread {sp:6.3f}" for med, _, _, sp in raw)
            + "  (raw rate, not gated)")
        counts = [(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in results[w]]
        correct = all(r["correct"] for s in results[w] for r in s)
        ok &= correct and all(f == 0 for f, _ in counts)
        print(f"  failed/attempted per set: {counts}  correct: {correct}")
        summary[w]["kernel_ms"] = [dict(zip(("median", "q1", "q3", "spread"), r))
                                   for r in kernel]
        summary[w]["jobs_per_s"] = [dict(zip(("median", "q1", "q3", "spread"), r))
                                    for r in raw]
    return ok, summary


def traced_report(bench, workloads, seconds, seed):
    summary = {}
    ok = True
    for w in workloads:
        plain = run_once(w, seed, seconds, 0)
        first, second = (run_once(w, seed, seconds, 1) for _ in range(2))
        timed = {m["name"] for m in bench["per_layer"]
                 if m["unit"] in ("ms/job", "ref")}
        differ = [m["name"] for m in bench["per_layer"] if m["name"] not in timed
                  and first["metrics"][m["name"]] != second["metrics"][m["name"]]]
        base = plain["metrics"]["job_cost_mean"]["value"]
        traced = first["metrics"]["trace.job_cost_mean"]["value"]
        clean = all(r["failed"] == 0 and r["correct"] for r in (plain, first, second))
        ok &= clean and not differ
        print(f"{w}: counts repeat: {not differ} {differ or ''}  reports identical "
              f"and correct: {clean}  overhead {traced / base:.3f} "
              f"(traced {traced:.2f} ref / untraced {base:.2f} ref)")
        summary[w] = {"differ": differ, "overhead": traced / base,
                      "traced": first["metrics"], "untraced": plain["metrics"]}
    return ok, summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    if args.traced:
        ok, summary = traced_report(bench, names, seconds, TRACED_SEED)
    else:
        ok, summary = sets_report(bench, names, args.runs, args.sets, seconds)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
