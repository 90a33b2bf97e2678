"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload eigen-faces --seed 1 --seconds 16 --trace 0

The program is imported from ``src/`` of the checkout that holds this
file, and the run stops with exit code 1 if it is not there.  A job is one
in-process call of ``idempotoric.cli.main([mode, "--input", file])`` with
default flags and stdout captured.  A run makes one untimed warm-up pass
over the job list, in which every report is checked apart from the
program, then whole timed passes until ``--seconds`` have passed and at
least ``MIN_TIMINGS`` jobs were timed.  ``gc.collect()`` runs before each
pass.  A timed report must be byte-identical to the checked one.

With ``--trace 0`` the last line of stdout is the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracing``),
whose spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import CheckFailure, check_report
from refkernel import time_kernel
from tracing import Tracer
from workloads import WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_TIMINGS = 100
SETUP_LAUNCHES = 11
# The bare interpreter launch time that set-up ratios are scaled by, in s:
# about its median on the host the bounds were set on.  Frozen like the
# reference kernel, since changing it rescales setup_s.
BARE_LAUNCH_S = 0.060
SETUP_JOB = Job("setup-2-3-6", "eigen", {"eigenvalues": ["2", "3", "6"]})


def _import_program():
    """Import idempotoric from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "idempotoric" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'idempotoric'}")
    sys.path.insert(0, str(src))
    import idempotoric.cli

    if Path(idempotoric.__file__).resolve().parent != (src / "idempotoric").resolve():
        sys.exit(f"perfbench: imported idempotoric from {idempotoric.__file__}")
    return idempotoric.cli


def _run_job(cli, job: Job, path: Path):
    """One timed job between two timed reference kernels.

    Returns (exit code or None if main raised, wall s, mean kernel s, stdout).
    """
    buf = io.StringIO()
    k0 = time_kernel()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = cli.main([job.mode, "--input", str(path)])
        except Exception:
            rc = None
        t1 = perf_counter()
    k1 = time_kernel()
    if rc is None:
        traceback.print_exc(file=sys.stderr)
    return rc, t1 - t0, (k0 + k1) / 2, buf.getvalue()


def _check(job: Job, rc, out: str):
    """None if the report is a correct answer, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        check_report(job, json.loads(out))
    except (CheckFailure, json.JSONDecodeError) as exc:
        return str(exc)
    return None


class Run:
    def __init__(self, cli, jobs, paths):
        self.cli, self.jobs, self.paths = cli, jobs, paths
        self.good = {}  # job index -> sha256 of its checked report
        self.attempted = self.failed = 0
        self.correct = True
        self.walls, self.costs, self.kernels = [], [], []
        self.report_bytes = 0

    def _note_failure(self, job, why, wrong):
        self.failed += 1
        if wrong:
            self.correct = False
        print(f"perfbench: job {job.name} failed: {why}", file=sys.stderr)

    def warm_up(self) -> None:
        gc.collect()
        for i, (job, path) in enumerate(zip(self.jobs, self.paths)):
            rc, _, _, out = _run_job(self.cli, job, path)
            why = _check(job, rc, out)
            if why is None:
                self.good[i] = hashlib.sha256(out.encode()).digest()
            else:
                print(f"perfbench: warm-up job {job.name} failed: {why}", file=sys.stderr)

    def timed(self, seconds: float, tracer=None) -> int:
        start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - start < seconds or len(self.walls) < MIN_TIMINGS:
            gc.collect()
            for i, (job, path) in enumerate(zip(self.jobs, self.paths)):
                if tracer is not None:
                    tracer.begin_job(f"p{passes}/{job.name}")
                rc, wall, kernel, out = _run_job(self.cli, job, path)
                self.attempted += 1
                self.walls.append(wall)
                self.kernels.append(kernel)
                self.costs.append(wall / kernel)
                self.report_bytes += len(out.encode())
                if rc != 0:
                    self._note_failure(job, f"exit code {rc}", False)
                elif hashlib.sha256(out.encode()).digest() != self.good.get(i):
                    why = _check(job, rc, out) or "report differs from the checked one"
                    self._note_failure(job, why, True)
            passes += 1
        return passes


def _measure_setup(workdir: Path):
    """Set-up time: fresh interpreters that start, import idempotoric and run
    the 2, 3, 6 eigen job through the command line.

    Each such launch is divided by the mean of the two bare interpreter
    launches (``python -c pass``) made right before and right after it,
    which cancels the host's speed swings as the reference kernel does for
    jobs.  The median ratio is scaled by ``BARE_LAUNCH_S`` back to seconds.
    Returns (setup_s, raw median s, bare launch median s).
    """
    path = workdir / "setup-2-3-6.json"
    path.write_text(json.dumps(SETUP_JOB.payload))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "idempotoric", "eigen", "--input", str(path)]
    bare = [sys.executable, "-c", "pass"]

    def launch(argv, check):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = perf_counter() - t0
        why = (_check(SETUP_JOB, proc.returncode, proc.stdout) if check
               else proc.returncode and f"exit code {proc.returncode}")
        if why:
            sys.exit(f"perfbench: set-up launch {argv[1:]} failed: {why}\n{proc.stderr}")
        return elapsed

    launch(cmd, True)  # writes the bytecode cache
    bares = [launch(bare, False)]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        setups.append(launch(cmd, True))
        bares.append(launch(bare, False))
    ratios = [s / ((b0 + b1) / 2) for s, b0, b1 in zip(setups, bares, bares[1:])]
    return (statistics.median(ratios) * BARE_LAUNCH_S, statistics.median(setups),
            statistics.median(bares))


def _metric_block(specs, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = _import_program()
    jobs = make_jobs(args.workload, args.seed)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, job in enumerate(jobs):
            path = workdir / f"job-{i:02d}.json"
            path.write_text(json.dumps(job.payload))
            paths.append(path)
        setup = (None,) * 3 if args.trace else _measure_setup(workdir)
        run = Run(cli, jobs, paths)
        run.warm_up()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            passes = run.timed(args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(run.walls)
    kernel_ms = [k * 1e3 for k in run.kernels]
    kq = statistics.quantiles(kernel_ms, n=4)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs_per_pass={len(jobs)} passes={passes} timings={n} "
          f"kernel_ms_median={statistics.median(kernel_ms):.4f} "
          f"kernel_ms_q1={kq[0]:.4f} kernel_ms_q3={kq[2]:.4f} "
          f"jobs_per_s={n / sum(run.walls):.4f}"
          + ("" if args.trace else
             f" setup_raw_s={setup[1]:.4f} bare_launch_s={setup[2]:.4f}"))
    values = {
        "job_cost_p50": statistics.median(run.costs),
        "job_cost_p90": statistics.quantiles(run.costs, n=10)[8],
        "job_cost_mean": statistics.fmean(run.costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup[0],
    }
    if tracer is None:
        metrics = _metric_block(bench["end_to_end"], values)
    else:
        layer = tracer.layer_metrics(n)
        layer["cli.report_bytes"] = run.report_bytes / n
        layer["trace.job_cost_mean"] = values["job_cost_mean"]
        metrics = _metric_block(bench["per_layer"], layer)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
