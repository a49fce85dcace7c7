"""Benchmark workloads: realpw CLI configs generated from a seed, and checks.

Each workload writes its config files (and any input files) into a work
directory and returns the CLI jobs of one pass.  The program sees only those
files.  Seed 0 is the acceptance-suite geometry; other seeds move support
edges by whole frequency cells (ball radii to sqrt(k) + 1/2 cells, k in
42..58) and rescale poly coefficients.

The acceptance bounds (criterion 1's 2% limit gap, criterion 4's 4% symmetric
difference) are what the program promises at the acceptance geometry, so the
checks apply them at seed 0.  Other seeds apply a looser limit-gap bound
(GAP_BOUND_JITTERED) that every jittered geometry meets, plus the checks that
hold at any geometry.
"""

from __future__ import annotations

import base64
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# acceptance criterion 1: growth limit within 2% of R
LIMIT_TOL = 0.02
# at other seeds: the worst gap over sweeps of 40 seeds and of ball radii
# sqrt(k) + 1/2 cells, k = 42..58, is 0.24 (richardson regime on some balls)
GAP_BOUND_JITTERED = 0.3
# acceptance criterion 4: two-box symmetric difference within 4% of the reference
SYMDIFF_SHARE = 0.04


@dataclass
class Job:
    name: str
    argv: list
    report: str                 # path of the JSON report the job writes
    group: str                  # warm-up runs the first job of each group
    ledgers: int                # growth ledgers the job completes
    check: object               # (exit code, report dict) -> (ok, figures)
    files: tuple = field(default=())   # further outputs that must repeat byte for byte


def _dlam(M, h):
    return 2.0 * np.pi / (M * h)


def _aligned_h(M, edge, cells):
    """Grid step placing `edge` at (cells + 1/2) frequency cells."""
    return 2.0 * math.pi * (cells + 0.5) / (M * edge)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _box(lo_cells, hi_cells, dlam):
    return {"shape": "box", "lo": [c * dlam for c in lo_cells],
            "hi": [c * dlam for c in hi_cells]}


def _two_boxes(dlam, shifts=((0, 0), (0, 0))):
    (ax, ay), (bx, by) = shifts
    return {"shape": "union", "parts": [
        _box([15.5 + ax, -1.5 + ay], [26.5 + ax, 1.5 + ay], dlam),
        _box([-26.5 + bx, -1.5 + by], [-15.5 + bx, 1.5 + by], dlam)]}


# ---------------------------------------------------------------------------
# reconstruct-twobox
# ---------------------------------------------------------------------------

def _components(field2d):
    """4-connected components of a boolean 2-D field (no wrap)."""
    cells = set(zip(*np.nonzero(field2d)))
    seen, comps = set(), 0
    for c in cells:
        if c in seen:
            continue
        comps += 1
        stack = [c]
        seen.add(c)
        while stack:
            i, j = stack.pop()
            for t in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if t in cells and t not in seen:
                    seen.add(t)
                    stack.append(t)
    return comps


def _read_mask(path):
    """Decode a boolean signal file (documented format) without realpw."""
    with open(path) as fh:
        doc = json.load(fh)
    flat = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8")
    return (flat[0::2] >= 0.5).reshape((doc["M"],) * doc["d"])


def reconstruct_twobox(seed, workdir):
    """256 quadratic_real_lattice members carve two boxes, n_max=200.

    The estimate is an intersection of sublevel sets, so at any geometry it
    must contain every reference cell and keep the boxes apart.  The
    criterion-4 budget on the symmetric difference holds at the acceptance
    geometry (seed 0) only: the 16x16 lattice of centers is not symmetric in
    lam_2, and boxes moved off lam_2 = 0 are carved more coarsely.
    symdiff_cells reports that per seed.
    """
    from realpw import make_grid, sample_builtin, forward_dft, support_mask, save_signal
    rng = random.Random(f"reconstruct-twobox:{seed}")
    shifts = ((0, 0), (0, 0)) if seed == 0 else tuple(
        (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2))
    M, h = 256, 0.05
    builtin = {"kind": "spectral_bump", "support": _two_boxes(_dlam(M, h), shifts),
               "edge_width": 0.45 * _dlam(M, h)}
    grid = make_grid(2, M, h)
    reference = support_mask(forward_dft(sample_builtin(builtin, grid)))
    ref_path = os.path.join(workdir, "reference_mask.json")
    save_signal(reference, ref_path)
    ref_field = reference.field.reshape(grid.shape)
    budget = SYMDIFF_SHARE * reference.n_cells if seed == 0 else math.inf
    members = 16 * 16
    mask_out = os.path.join(workdir, "mask.json")
    report = os.path.join(workdir, "reconstruct.json")
    cfg = os.path.join(workdir, "reconstruct-cfg.json")
    _write(cfg, {"grid": {"d": 2, "M": M, "h": h}, "input": {"builtin": builtin},
                 "family": {"kind": "quadratic_real_lattice", "per_axis": 16,
                            "span_cells": 63},
                 "p": 2, "n_max": 200, "tau": 0.01, "reference_mask": ref_path,
                 "mask_out": mask_out, "out": report})

    def check(code, rep):
        rec = rep["reconstruction"]
        sym = rec["metrics"]["symmetric_difference"]
        estimated = _read_mask(mask_out)
        ok = (code == 0 and len(rec["limits"]) == members
              and _components(estimated) == 2 and not (ref_field & ~estimated).any()
              and sym <= budget)
        return ok, {"symdiff_cells": sym}

    return [Job("reconstruct", ["reconstruct", "--config", cfg], report, "d2",
                members, check, (mask_out,))]


# ---------------------------------------------------------------------------
# estimate-corpus
# ---------------------------------------------------------------------------

def _corpus(rng, jitter):
    """The six acceptance-corpus inputs as (name, grid, builtin, polys)."""
    def shift(lo):
        return lo + (rng.randint(-2, 2) if jitter else 0)

    def scale(base, lo, hi):
        return base if not jitter else round(rng.uniform(lo, hi), 4)

    def polys(d):
        c1, c2 = scale(1.0, 0.5, 2.0), scale(1.0, 0.5, 2.0)
        a, b = scale(0.5, 0.3, 0.7), scale(2.0, 1.5, 2.5)
        out = [f"{c1!r}*x1", f"{c2!r}*x1^2"]
        if d == 2:
            out.append(f"{scale(1.0, 0.5, 2.0)!r}*x1*x2")
        return out + [f"{a!r}+{b!r}*i*x1"]

    members = []
    M1 = 1024
    h1 = _aligned_h(M1, 1.0, 8)
    d1 = _dlam(M1, h1)
    for name, lo, hi in (("interval", -8.5, 8.5), ("offset-interval", -3.5, 12.5)):
        builtin = {"kind": "spectral_bump",
                   "support": _box([shift(lo)], [shift(hi)], d1)}
        members.append((name, {"d": 1, "M": M1, "h": h1}, builtin, polys(1)))
    M2, h2 = 256, 0.05
    d2 = _dlam(M2, h2)
    r_ball = (math.sqrt(50 + (rng.randint(-8, 8) if jitter else 0)) + 0.5) * d2
    shapes = [
        ("ball", {"shape": "ball", "radius": r_ball}, 1.5),
        ("box", _box([shift(-8.5), shift(-5.5)], [shift(8.5), shift(5.5)], d2), 1.5),
        ("two-boxes", _two_boxes(d2, ((shift(0), shift(0)), (shift(0), shift(0)))), 0.45),
        ("annulus", {"shape": "annulus", "r_in": shift(3.2) * d2, "r_out": r_ball}, 1.5),
    ]
    for name, support, edge in shapes:
        builtin = {"kind": "spectral_bump", "support": support, "edge_width": edge * d2}
        members.append((name, {"d": 2, "M": M2, "h": h2}, builtin, polys(2)))
    return members


def _reference_R(grid, builtin, polys):
    """R per poly, from the input's support mask, for checking the report."""
    from realpw import (make_grid, sample_builtin, forward_dft, support_mask,
                        compute_R, parse_poly)
    g = make_grid(grid["d"], grid["M"], grid["h"])
    mask = support_mask(forward_dft(sample_builtin(builtin, g)))
    return [compute_R(parse_poly(t, g.d), mask).value for t in polys]


def _estimate_check(ref_R, gap_bound):
    """Rows match the set-up's R; on resolved rows the gap, recomputed from
    the reported limit, agrees with `within_tolerance` and stays within
    `gap_bound`."""
    def check(code, rep):
        rows = rep["estimate"]
        resolved = [(r, R) for r, R in zip(rows, ref_R) if r["resolved"]]
        gaps = [abs(r["growth"]["limit"] - R) / (R or 1.0) for r, R in resolved]
        ok = (code == 0 and len(rows) == len(ref_R)
              and all(math.isclose(r["R"], R, rel_tol=1e-12) for r, R in zip(rows, ref_R))
              and all(r["within_tolerance"] == (g <= LIMIT_TOL)
                      for (r, _), g in zip(resolved, gaps))
              and all(g <= gap_bound for g in gaps))
        return ok, {"limit_gap_max": max(gaps, default=0.0),
                    "rows_over_tol": sum(g > LIMIT_TOL for g in gaps)}
    return check


def estimate_corpus(seed, workdir):
    """Six corpus inputs x their polys x p in {1, 2, inf}, n_max=64."""
    rng = random.Random(f"estimate-corpus:{seed}")
    gap_bound = LIMIT_TOL if seed == 0 else GAP_BOUND_JITTERED
    jobs = []
    for name, grid, builtin, polys in _corpus(rng, seed != 0):
        ref_R = _reference_R(grid, builtin, polys)
        for p in (1, 2, "inf"):
            tag = f"{name}-p{p}"
            report = os.path.join(workdir, f"{tag}.json")
            cfg = os.path.join(workdir, f"{tag}-cfg.json")
            _write(cfg, {"grid": grid, "input": {"builtin": builtin}, "poly": polys,
                         "p": p, "n_max": 64, "rel_tol": LIMIT_TOL, "out": report})
            jobs.append(Job(tag, ["estimate", "--config", cfg], report,
                            f"d{grid['d']}-p{p}", len(polys),
                            _estimate_check(ref_R, gap_bound)))
    return jobs


# ---------------------------------------------------------------------------
# verify-matrix
# ---------------------------------------------------------------------------

def verify_matrix(seed, workdir):
    """`realpw verify` at its default config, with the thread fan-out on."""
    from realpw.verify import verify_corpus
    # limit_vs_R and liminf each complete one ledger per (member, poly, p)
    ledgers = 2 * sum(len(m.polys) * len(m.p_values) for m in verify_corpus())
    report = os.path.join(workdir, "verify.json")
    cfg = os.path.join(workdir, "verify-cfg.json")
    _write(cfg, {"threads": min(2, len(os.sched_getaffinity(0))), "out": report})

    def check(code, rep):
        return code == 0 and rep["all_passed"] is True, {}

    return [Job("verify", ["verify", "--config", cfg], report, "verify",
                ledgers, check)]


WORKLOADS = {
    "reconstruct-twobox": reconstruct_twobox,
    "estimate-corpus": estimate_corpus,
    "verify-matrix": verify_matrix,
}
