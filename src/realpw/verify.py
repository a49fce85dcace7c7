"""Built-in verification corpus and the property matrix behind `realpw verify`.

Each corpus member is a plateau-bump (or gaussian) input with exactly known
spectral support; each property row checks one of the growth/spectral-support
relations on it at a stated tolerance.  Rows that need a fully resolved
spectrum report "skip" when the member's mask touches the frequency boundary.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import SampledFunction, FREQUENCY, make_grid, sample_builtin
from .poly import parse_poly
from .transform import (Spectrum, SpatialStep, compute_R, eval_entire,
                        supporting_function)
from .growth import (growth_sequence, liminf_check, pointwise_growth,
                     apply_op_spectral, apply_op_fd, iterates)

DESK_NMAX = 64


def aligned_h(M: int, edge: float, cells: int) -> float:
    """Grid step placing `edge` at (cells + 1/2) frequency cells.

    Support edges then fall halfway between lattice points, so every boundary
    cell of the bump carries an O(1) profile value.
    """
    return 2.0 * math.pi * (cells + 0.5) / (M * edge)


@dataclass
class CorpusMember:
    name: str
    f: SampledFunction
    polys: tuple
    p_values: tuple


def _interval_member(name, M=1024, lo_cells=-8.5, hi_cells=8.5):
    h = aligned_h(M, 1.0, 8)         # dlam such that 8.5 cells = 1.0
    grid = make_grid(1, M, h)
    dlam = grid.dlam
    spec = {"kind": "spectral_bump",
            "support": {"shape": "box", "lo": [lo_cells * dlam], "hi": [hi_cells * dlam]},
            "label": name}
    f = sample_builtin(spec, grid)
    polys = (parse_poly("x1", 1), parse_poly("x1^2", 1), parse_poly("0.5+2*i*x1", 1))
    return CorpusMember(name, f, polys, (1, 2, np.inf))


def _d2_member(name, support, M=256, h=0.05, edge_width_cells=1.5):
    grid = make_grid(2, M, h)
    spec = {"kind": "spectral_bump", "support": support,
            "edge_width": edge_width_cells * grid.dlam, "label": name}
    f = sample_builtin(spec, grid)
    polys = (parse_poly("x1", 2), parse_poly("x1^2", 2),
             parse_poly("x1*x2", 2), parse_poly("0.5+2*i*x1", 2))
    return CorpusMember(name, f, polys, (1, 2, np.inf))


def two_box_support(dlam: float) -> dict:
    return {"shape": "union", "parts": [
        {"shape": "box", "lo": [15.5 * dlam, -1.5 * dlam], "hi": [26.5 * dlam, 1.5 * dlam]},
        {"shape": "box", "lo": [-26.5 * dlam, -1.5 * dlam], "hi": [-15.5 * dlam, 1.5 * dlam]},
    ]}


def acceptance_corpus() -> list:
    """The six desk-scale spectral-bump inputs of the acceptance suite."""
    members = [
        _interval_member("interval [-1,1]"),
        _interval_member("offset interval", lo_cells=-3.5, hi_cells=12.5),
    ]
    grid2 = make_grid(2, 256, 0.05)
    dlam = grid2.dlam
    r_ball = (math.sqrt(50) + 0.5) * dlam
    members.append(_d2_member("ball", {"shape": "ball", "radius": r_ball}))
    members.append(_d2_member("box", {
        "shape": "box", "lo": [-8.5 * dlam, -5.5 * dlam], "hi": [8.5 * dlam, 5.5 * dlam]}))
    members.append(_d2_member("two boxes", two_box_support(dlam), edge_width_cells=0.45))
    members.append(_d2_member("annulus", {
        "shape": "annulus", "r_in": 3.2 * dlam, "r_out": r_ball}))
    return members


def verify_corpus(n_max: int = DESK_NMAX) -> list:
    """Smaller corpus behind `realpw verify` (runtime over accuracy)."""
    members = [
        _interval_member("interval [-1,1]", M=512),
        _interval_member("offset interval", M=512, lo_cells=-3.5, hi_cells=12.5),
    ]
    grid2 = make_grid(2, 128, 0.1)
    dlam = grid2.dlam
    r = (math.sqrt(50) + 0.5) * dlam
    spec = {"kind": "spectral_bump", "support": {"shape": "ball", "radius": r},
            "edge_width": 1.5 * dlam, "label": "ball"}
    f = sample_builtin(spec, grid2)
    members.append(CorpusMember("ball", f, (parse_poly("x1", 2), parse_poly("x1*x2", 2)),
                                (1, 2, np.inf)))
    return members


# ---------------------------------------------------------------------------
# property rows, each called as check(member, n_max)
# ---------------------------------------------------------------------------

def check_limit_vs_R(member, n_max=DESK_NMAX, rel_tol=0.02):
    spec = Spectrum.of(member.f)
    if not spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = 0.0
    for P in member.polys:
        R, _ = compute_R(P, spec.mask)
        for p in member.p_values:
            seq = growth_sequence(spec, P, p, n_max)
            gap = abs(seq.limit - R) if R == 0 else abs(seq.limit - R) / R
            worst = max(worst, gap)
    return ("pass" if worst <= rel_tol else "fail", f"worst gap {worst:.2e}")


def check_liminf(member, n_max=DESK_NMAX):
    spec = Spectrum.of(member.f)
    if not spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = np.inf
    for P in member.polys:
        for p in member.p_values:
            rep = liminf_check(spec, P, p, n_max)
            scale = rep.R if rep.R > 0 else 1.0
            worst = min(worst, rep.margin / scale)
            if not rep.passed:
                return ("fail", f"margin {rep.margin:.3e} for {P} p={p}")
    return ("pass", f"worst relative margin {worst:+.2e}")


def check_plancherel(member, n_max=DESK_NMAX, rel_tol=1e-10):
    """Spatial vs frequency 2-norm of P(d)^n f, every n (discrete Plancherel)."""
    spec = Spectrum.of(member.f)
    dmeas = spec.grid.dlam ** spec.grid.d
    step = SpatialStep(spec)
    worst = 0.0
    for P in member.polys[:1]:
        for n, S, G in iterates(spec, P, n_max):
            freq = math.sqrt(dmeas * float(np.sum(np.abs(G) ** 2)))
            if freq == 0:
                break
            spat = step.norm(step(G), 2)
            worst = max(worst, abs(spat - freq) / freq)
    return ("pass" if worst <= rel_tol else "fail", f"worst rel diff {worst:.2e}")


def check_rtilde_vs_R(member, n_max=DESK_NMAX, rel_tol=0.03, N=2):
    spec = Spectrum.of(member.f)
    if not spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = 0.0
    for P in member.polys:
        R, _ = compute_R(P, spec.mask)
        if R == 0:
            continue
        rep = pointwise_growth(spec, P, N, n_max, mode="growth")
        worst = max(worst, abs(rep.rtilde - R) / R)
    return ("pass" if worst <= rel_tol else "fail", f"worst gap {worst:.2e}")


def check_raster(member, n_max=DESK_NMAX):
    from .reconstruct import local_spectrum_raster
    mask = Spectrum.of(member.f).mask
    for P in member.polys:
        R, _ = compute_R(P, mask)
        ras = local_spectrum_raster(P, mask)
        if ras.max_modulus != R:
            return ("fail", f"raster max {ras.max_modulus!r} != R {R!r} for {P}")
    return ("pass", "raster max modulus equals R bit-exactly")


def check_fd_oracle(member, n_max=DESK_NMAX, rel_tol=1e-6):
    """Single application: spectral vs order-8 finite differences, 2-norm."""
    spec = Spectrum.of(member.f)
    quarter = 0.25 * spec.grid.frequency_halfwidth
    if spec.mask.is_empty or np.abs(spec.coords).max() > quarter:
        return ("skip", "input occupies more than a quarter of the Nyquist band")
    worst = 0.0
    for P in member.polys:
        g_spec, S = apply_op_spectral(spec, P, 1)
        spec_vals = np.exp(S) * g_spec.values
        fd_vals = apply_op_fd(member.f, P, 8).values
        denom = np.linalg.norm(spec_vals)
        if denom == 0:
            continue
        worst = max(worst, float(np.linalg.norm(fd_vals - spec_vals) / denom))
    return ("pass" if worst <= rel_tol else "fail", f"worst rel diff {worst:.2e}")


def check_cauchy_bound(member, n_max=DESK_NMAX, n_top=20):
    """||d^n f||_inf <= C n! e^n / n^n * H(1)^n from the entire-extension constant.

    Checked for n <= n_top; n_max is not used.
    """
    if member.f.grid.d != 1:
        return ("skip", "d=1 check")
    spec = Spectrum.of(member.f)
    if not spec.mask.resolved or spec.mask.is_empty:
        return ("skip", "needs a resolved non-empty mask")
    H1 = supporting_function(spec.coords, np.array([1.0]))
    Hm1 = supporting_function(spec.coords, np.array([-1.0]))
    Hsym = max(H1, Hm1)              # the Cauchy circle sees both directions
    F = SampledFunction(spec.grid, FREQUENCY, spec.F)
    zs = [x + 1j * t for x in (0.0, 0.7, -1.3, 3.1) for t in (0.0, 1.0, -2.0, 5.0, -10.0, 20.0)]
    C = 0.0
    for z in zs:
        Ht = H1 * max(z.imag, 0.0) + Hm1 * max(-z.imag, 0.0)
        C = max(C, abs(eval_entire(F, z)) / math.exp(Ht))
    step = SpatialStep(spec)
    for n, S, G in iterates(spec, parse_poly("x1", 1), n_top):
        lhs = S + math.log(step.norm(step(G), np.inf))
        rhs = (math.log(C) + math.lgamma(n + 1) + n - n * math.log(n)
               + n * math.log(Hsym))
        if lhs > rhs:
            return ("fail", f"violated at n={n}: lhs-rhs={lhs - rhs:.3e} (log)")
    return ("pass", f"holds for n <= {n_top} with C={C:.4g}")


PROPERTIES = {
    "limit_vs_R": check_limit_vs_R,
    "liminf": check_liminf,
    "plancherel": check_plancherel,
    "rtilde_vs_R": check_rtilde_vs_R,
    "raster_radius": check_raster,
    "fd_oracle": check_fd_oracle,
    "cauchy_bound": check_cauchy_bound,
}


def run_matrix(members=None, properties=None, n_max: int = DESK_NMAX,
               threads: int | None = None) -> dict:
    """Evaluate the property matrix; returns {property: {member: (status, detail)}}."""
    if members is None:
        members = verify_corpus(n_max)
    if properties is None:
        properties = PROPERTIES
    if threads is None:
        threads = int(os.environ.get("REALPW_THREADS", "1"))
    jobs = [(prop_name, member) for prop_name in properties for member in members]

    def run(job):
        prop_name, member = job
        try:
            return prop_name, member.name, properties[prop_name](member, n_max)
        except Exception as exc:  # a crashed check is a failed check
            return prop_name, member.name, ("fail", f"error: {exc}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    matrix: dict = {name: {} for name in properties}
    for prop_name, member_name, outcome in results:
        matrix[prop_name][member_name] = outcome
    return matrix


def matrix_failed(matrix: dict) -> bool:
    return any(status == "fail"
               for row in matrix.values() for status, _ in row.values())
