"""realpw benchmark: drives `realpw.cli.main` in-process on generated configs.

    python3 bench/run.py --workload reconstruct-twobox --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs back to back (a closed loop) for
`--seconds`, in whole passes, and checks every job's output.  `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and traced
passes and reports per-layer self times and counts from in-memory spans,
plus the tracing overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP (<= nproc); set before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# per-pass figures that add up over jobs; the others take the worst job
SUMMED_FIGURES = {"rows_over_tol"}


def _import_realpw():
    if not os.path.isfile(os.path.join(SRC, "realpw", "__init__.py")):
        sys.exit(f"bench: no realpw package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import realpw.cli
    if not os.path.abspath(realpw.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported realpw from {realpw.__file__}, not {SRC}")
    return realpw.cli


def environment():
    import numpy as np
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            if idx.startswith("index"):
                def read(key):
                    with open(os.path.join(base, idx, key)) as fh:
                        return fh.read().strip()
                caches[f"L{read('level')}{read('type')[0].lower()}"] = read("size")
    except OSError:
        caches = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "thread_env": THREAD_ENV,
            "cpu_caches": caches, "machine": platform.machine()}


class Setup:
    """Generates the workload's inputs and reference data, in-process, into a
    fresh directory, and times it.  The first set-up's jobs are the ones
    measured; the later ones repeat it between passes so that `setup_s` is a
    median over the same stretch of time as `wall_s`, and are removed."""

    def __init__(self, make, seed, workdir):
        self.make, self.seed, self.workdir = make, seed, workdir
        self.times = []

    def __call__(self):
        path = os.path.join(self.workdir, f"setup{len(self.times)}")
        os.makedirs(path)
        t0 = perf_counter()
        jobs = self.make(self.seed, path)
        self.times.append(perf_counter() - t0)
        if len(self.times) > 1:
            shutil.rmtree(path)
        return jobs


class Runner:
    """Runs jobs, checks outputs, and remembers each job's first output."""

    def __init__(self, cli):
        self.cli = cli
        self.first = {}
        self.sink = io.StringIO()

    def run(self, job):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            t0 = perf_counter()
            try:
                code = self.cli.main(job.argv)
            except Exception as exc:          # a crashed job is a failed job
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        return elapsed, code

    def check(self, job, code):
        try:
            with open(job.report) as fh:
                report = json.load(fh)
            report.pop("meta", None)
            ok, figures = job.check(code, report)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
            for path in job.files:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"check {job.name}: {type(exc).__name__}: {exc}")
            return False, {}
        digest = digest.hexdigest()
        if self.first.setdefault(job.name, digest) != digest:
            print(f"check {job.name}: output differs from its first run")
            ok = False
        if not ok:
            print(f"check {job.name}: failed (exit {code!r}, {figures})")
        return ok, figures


def run_pass(runner, jobs, stats):
    """One pass over the jobs; returns its wall time.  Checks run after the
    pass, outside the timed region."""
    codes = []
    t0 = perf_counter()
    for job in jobs:
        elapsed, code = runner.run(job)
        stats["job_s"].append(elapsed)
        codes.append(code)
    wall = perf_counter() - t0
    figures = {}
    for job, code in zip(jobs, codes):
        ok, job_figures = runner.check(job, code)
        stats["attempted"] += 1
        stats["failed"] += not ok
        for key, val in job_figures.items():
            combine = sum if key in SUMMED_FIGURES else max
            figures[key] = combine((figures.get(key, 0), val))
    for key, val in figures.items():
        stats["figures"][key] = max(stats["figures"].get(key, val), val)
    return wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="exclusive"))


def per_layer_metrics(spans):
    from spans import layer_totals, under, SPAN_NAMES
    totals = layer_totals(spans)
    out, extra = {}, {}
    for name in SPAN_NAMES:
        row = totals.get(name, {"calls": 0, "self_s": 0.0, "extra": []})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
        extra[name] = row["extra"]
    fwd = extra["transform.forward_values"]
    inv = extra["transform.inverse_values"]
    out["poly.eval_symbol_many.points"] = (sum(extra["poly.eval_symbol_many"]), "count")
    out["transform.fft_points"] = (sum(n for n, _ in fwd + inv), "count")
    out["transform.forward_per_input"] = (
        len(fwd) / len({fp for _, fp in fwd}) if fwd else 0.0, "ratio")
    ledgers = extra["growth.growth_sequence"]
    out["growth.truncated_ratio"] = (sum(ledgers) / len(ledgers) if ledgers else 0.0,
                                     "ratio")
    points = sum(under(spans, "poly.eval_symbol_many", "reconstruct.reconstruct_support"))
    cells = sum(extra["reconstruct.reconstruct_support"])
    out["reconstruct.kept_cells_ratio"] = (cells / points if points else 0.0, "ratio")
    out["signal_io.save_signal.bytes"] = (sum(extra["signal_io.save_signal"]), "B")
    out["signal_io.load_signal.bytes"] = (sum(extra["signal_io.load_signal"]), "B")
    return out


def measure(runner, jobs, setup, seconds, traced):
    """Whole passes until `seconds` have elapsed, each untraced one after a
    repeated set-up.  With `traced`, passes alternate untraced / traced and
    the traced ones record spans."""
    from spans import Tracer
    stats = {"job_s": [], "attempted": 0, "failed": 0, "figures": {}}
    walls, traced_walls, layers = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or (traced and not traced_walls):
        if traced and len(walls) > len(traced_walls):
            tracer = Tracer()
            with tracer.installed():
                traced_walls.append(run_pass(runner, jobs, stats))
            layers.append(per_layer_metrics(tracer.spans))
        else:
            setup()
            walls.append(run_pass(runner, jobs, stats))
    return stats, walls, traced_walls, layers


def main(argv=None):
    cli = _import_realpw()
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the acceptance-suite geometry")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup = Setup(WORKLOADS[args.workload], args.seed, workdir)
        jobs = setup()
        runner = Runner(cli)
        warm = {}
        for job in jobs:
            warm.setdefault(job.group, job)
        warm_ok = all(runner.check(job, runner.run(job)[1])[0] for job in warm.values())
        stats, walls, traced_walls, layers = measure(runner, jobs, setup, args.seconds,
                                                     bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    wall = statistics.median(walls)
    job_s = sorted(stats["job_s"])
    ledgers = sum(job.ledgers for job in jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, _, q3 = quartiles(walls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced passes of {len(jobs)} jobs")
    print(f"wall_s {wall:.6f} s  (median of {len(walls)} passes, "
          f"quartiles {q1:.6f} .. {q3:.6f})")
    print("pass walls " + " ".join(f"{w:.3f}" for w in walls))
    n = len(job_s)
    tail = ""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            tail = f", p{pct} {job_s[min(n - 1, int(n * pct / 100))]:.6f} s"
            break
    print(f"job_p50_s {statistics.median(job_s):.6f} s  ({n} job samples{tail})")
    print(f"ledgers_per_s {ledgers / wall:.3f} 1/s  ({ledgers} ledgers per pass)")
    q1, _, q3 = quartiles(setup.times)
    print(f"setup_s {statistics.median(setup.times):.6f} s  (median of "
          f"{len(setup.times)} set-ups, quartiles {q1:.6f} .. {q3:.6f})")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    units = {"limit_gap_max": "ratio", "symdiff_cells": "cells", "rows_over_tol": "count"}
    for key, val in sorted(stats["figures"].items()):
        print(f"{key} {val!r} {units[key]}")
    failed_frac = stats["failed"] / max(stats["attempted"], 1)
    print(f"failed_frac {failed_frac:.6f} ratio  "
          f"({stats['failed']} of {stats['attempted']} jobs)")

    if args.trace:
        overhead = statistics.median(traced_walls) - wall
        metrics = {name: {"value": statistics.median(lay[name][0] for lay in layers),
                          "unit": layers[0][name][1]} for name in layers[0]}
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_s), "unit": "s"},
            "ledgers_per_s": {"value": ledgers / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": warm_ok and stats["failed"] == 0,
                      "attempted": stats["attempted"], "failed": stats["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
