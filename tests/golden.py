"""Golden outputs: every bench workload's jobs run in-process at seeds 0-4,
reduced to the figures a refactor must keep.

    PYTHONPATH=src python tests/golden.py      # rewrites tests/golden.json

The jobs come from bench/workloads.py's builders and run through
realpw.cli.main in a temporary directory.  Per seed the file keeps, for
estimate-corpus, each report row's P, p, R, limit, regime, truncated_at and
within_tolerance; for reconstruct-twobox, each member's limit, the estimated
mask as sorted flat cell indices, its cell count and its metrics against the
reference; for verify-matrix, the status of every (property, member).
tests/test_golden.py compares every figure but the limits and R exactly,
those within 1e-12 relative.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = range(5)


def bench_workloads():
    """bench/workloads.py, imported from the bench directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads


def _mask_cells(path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    flat = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8")
    return np.flatnonzero(flat[0::2] >= 0.5).tolist()


def _figures(workload, job, rep) -> dict:
    if workload == "estimate-corpus":
        return {"rows": [{"P": row["growth"]["P"], "p": row["growth"]["p"], "R": row["R"],
                          "limit": row["growth"]["limit"], "regime": row["growth"]["regime"],
                          "truncated_at": row["growth"]["truncated_at"],
                          "within_tolerance": row["within_tolerance"]}
                         for row in rep["estimate"]]}
    if workload == "reconstruct-twobox":
        (mask,) = job.files
        rec = rep["reconstruction"]
        return {"limits": rec["limits"], "mask": _mask_cells(mask),
                "metrics": rec["metrics"], "estimated_cells": rec["estimated_cells"]}
    return {"all_passed": rep["all_passed"],
            "status": {prop: {member: cell["status"] for member, cell in row.items()}
                       for prop, row in rep["matrix"].items()}}


def outputs(seeds=SEEDS) -> dict:
    """{workload: {seed: {job: figures}}} of every workload's jobs."""
    from realpw.cli import main
    workloads = bench_workloads()
    out = {}
    for workload, build in workloads.WORKLOADS.items():
        out[workload] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                jobs, figures = build(seed, work), {}
                for job in jobs:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main(job.argv)
                    with open(job.report) as fh:
                        figures[job.name] = dict(_figures(workload, job, json.load(fh)),
                                                 exit=code)
            out[workload][str(seed)] = figures
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
