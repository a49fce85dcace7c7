"""Built-in verification corpus and the property matrix behind `realpw verify`.

Each corpus member is a plateau-bump (or gaussian) input with exactly known
spectral support; each property row checks one of the growth/spectral-support
relations on it at a stated tolerance.  Rows that need a fully resolved
spectrum report "skip" when the member's mask touches the frequency boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SampledFunction, FREQUENCY, make_grid, sample_builtin
from .poly import PolyFamily, family_explicit, parse_poly
from .transform import Spectrum, eval_entire, supporting_function
from .growth import (GrowthSequence, PointwiseGrowthReport, spatial_norms,
                     liminf_check, apply_op_spectral, apply_op_fd)
from .reconstruct import local_spectrum_raster

DESK_NMAX = 64


def aligned_h(M: int, edge: float, cells: int) -> float:
    """Grid step placing `edge` at (cells + 1/2) frequency cells.

    Support edges then fall halfway between lattice points, so every boundary
    cell of the bump carries an O(1) profile value.
    """
    return 2.0 * math.pi * (cells + 0.5) / (M * edge)


# rtilde_vs_R's weight: the order-2 distribution envelope, growth mode
RTILDE_N = 2


@dataclass(frozen=True)
class Ledgers:
    """Every ledger the matrix reads of one member at one n_max.

    R: max |P(i lam)| over the mask per P of polys; sequences: a
    GrowthSequence per (P, p) of polys x p_values, in that order; rtilde: a
    growth-mode PointwiseGrowthReport per P at N = RTILDE_N; plancherel: the
    one (spatial, frequency) pair of 2-norm rows of g_n for polys[0], the
    spatial row as spatial_norms gives it (ending at a value not > 0), the
    frequency one as the p = 2 ledger keeps it.  One `spatial_norms` call
    over polys gives them all, with a spatial 2-norm row per P of which
    only polys[0]'s is read; the p = 2 ledgers and the frequency side read
    its Parseval rows, and one GrowthSequence.from_rows builds every ledger.
    A member whose mask is not resolved gets no sequences or rtilde (every
    row that reads them skips it), so its pass reads the 2-norms alone.
    """

    R: list
    sequences: list
    rtilde: list
    plancherel: tuple

    @classmethod
    def of(cls, member, n_max: int) -> "Ledgers":
        spec, polys, resolved = member.spec, member.polys, member.spec.mask.resolved
        ps = member.p_values if resolved else ()
        spatial_p = [p for p in ps if p != 2]
        norms = [(p, 0) for p in spatial_p] + [(np.inf, -RTILDE_N)] if resolved else []
        per_poly = spatial_norms(spec, polys, n_max, norms + [(2, 0)])
        sequences = GrowthSequence.from_rows(
            [(polys, p, R, two if p == 2 else rows[spatial_p.index(p)], k)
             for k, (R, two, rows) in enumerate(per_poly) for p in ps], n_max, resolved)
        rtilde = [PointwiseGrowthReport.from_row(RTILDE_N, "growth", R, rows[len(spatial_p)])
                  for R, _, rows in per_poly if resolved]
        R, two, rows = per_poly[0]
        seq2 = (sequences[ps.index(2)] if 2 in ps
                else GrowthSequence.from_rows([(polys, 2, R, two, 0)], n_max, resolved)[0])
        return cls([R for R, _, _ in per_poly], sequences, rtilde, (rows[-1], seq2.norms))


@dataclass
class CorpusMember:
    name: str
    f: SampledFunction
    polys: PolyFamily
    p_values: tuple
    _ledgers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def spec(self) -> Spectrum:
        """The input's spectrum and mask, built on first use for every row."""
        return Spectrum.of(self.f)

    def ledgers(self, n_max: int) -> Ledgers:
        """The member's Ledgers at n_max, built on first use for every row."""
        if n_max not in self._ledgers:
            self._ledgers[n_max] = Ledgers.of(self, n_max)
        return self._ledgers[n_max]


def _interval_member(name, M=1024, lo_cells=-8.5, hi_cells=8.5):
    h = aligned_h(M, 1.0, 8)         # dlam such that 8.5 cells = 1.0
    grid = make_grid(1, M, h)
    dlam = grid.dlam
    spec = {"kind": "spectral_bump",
            "support": {"shape": "box", "lo": [lo_cells * dlam], "hi": [hi_cells * dlam]},
            "label": name}
    f = sample_builtin(spec, grid)
    polys = family_explicit([parse_poly(t, 1) for t in ("x1", "x1^2", "0.5+2*i*x1")])
    return CorpusMember(name, f, polys, (1, 2, np.inf))


def _d2_member(name, support, M=256, h=0.05, edge_width_cells=1.5,
               texts=("x1", "x1^2", "x1*x2", "0.5+2*i*x1")):
    grid = make_grid(2, M, h)
    spec = {"kind": "spectral_bump", "support": support,
            "edge_width": edge_width_cells * grid.dlam, "label": name}
    f = sample_builtin(spec, grid)
    polys = family_explicit([parse_poly(t, 2) for t in texts])
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


def verify_corpus() -> list:
    """Smaller corpus behind `realpw verify` (runtime over accuracy)."""
    members = [
        _interval_member("interval [-1,1]", M=512),
        _interval_member("offset interval", M=512, lo_cells=-3.5, hi_cells=12.5),
    ]
    r = (math.sqrt(50) + 0.5) * make_grid(2, 128, 0.1).dlam
    members.append(_d2_member("ball", {"shape": "ball", "radius": r}, M=128, h=0.1,
                              texts=("x1", "x1*x2")))
    return members


# ---------------------------------------------------------------------------
# property rows, each called as check(member, n_max)
# ---------------------------------------------------------------------------

def check_limit_vs_R(member, n_max=DESK_NMAX, rel_tol=0.02):
    if not member.spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = max((seq.relative_gap for seq in member.ledgers(n_max).sequences), default=0.0)
    return ("pass" if worst <= rel_tol else "fail", f"worst gap {worst:.2e}")


def check_liminf(member, n_max=DESK_NMAX):
    if not member.spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = np.inf
    for seq in member.ledgers(n_max).sequences:
        rep = liminf_check(seq)
        scale = rep.R if rep.R > 0 else 1.0
        worst = min(worst, rep.margin / scale)
        if not rep.passed:
            return ("fail", f"margin {rep.margin:.3e} for {seq.P} p={seq.p}")
    return ("pass", f"worst relative margin {worst:+.2e}")


def check_plancherel(member, n_max=DESK_NMAX, rel_tol=1e-10):
    """Spatial vs frequency 2-norm of P(d)^n f, every n (discrete Plancherel)."""
    spat, freq = member.ledgers(n_max).plancherel
    k = min(spat.size, freq.size)       # a spatial row that vanishes first ends in 0
    worst = float((np.abs(spat[:k] - freq[:k]) / freq[:k]).max(initial=0.0))
    return ("pass" if worst <= rel_tol else "fail", f"worst rel diff {worst:.2e}")


def check_rtilde_vs_R(member, n_max=DESK_NMAX, rel_tol=0.03):
    if not member.spec.mask.resolved:
        return ("skip", "mask touches the frequency boundary")
    worst = 0.0
    for rep in member.ledgers(n_max).rtilde:
        if rep.R > 0:
            worst = max(worst, abs(rep.rtilde - rep.R) / rep.R)
    return ("pass" if worst <= rel_tol else "fail", f"worst gap {worst:.2e}")


def check_raster(member, n_max=DESK_NMAX):
    for P, R in zip(member.polys, member.ledgers(n_max).R):
        ras = local_spectrum_raster(P, member.spec.mask)
        if ras.max_modulus != R:
            return ("fail", f"raster max {ras.max_modulus!r} != R {R!r} for {P}")
    return ("pass", "raster max modulus equals R bit-exactly")


def check_fd_oracle(member, n_max=DESK_NMAX, rel_tol=1e-6):
    """Single application: spectral vs order-8 finite differences, 2-norm."""
    spec = member.spec
    quarter = 0.25 * spec.grid.frequency_halfwidth
    if spec.mask.is_empty or np.abs(spec.coords).max() > quarter:
        return ("skip", "input occupies more than a quarter of the Nyquist band")
    worst = 0.0
    for P in member.polys:
        g_spec, S = apply_op_spectral(spec, P, 1)
        spec_vals = np.exp(S) * g_spec.values
        fd_vals = apply_op_fd(member.f, P, 8).values
        denom = _norm(spec_vals)
        if denom == 0:
            continue
        worst = max(worst, _norm(fd_vals - spec_vals) / denom)
    return ("pass" if worst <= rel_tol else "fail", f"worst rel diff {worst:.2e}")


def _norm(x) -> float:
    """2-norm of a complex vector by a plain sum: np.linalg.norm's dot wakes
    the BLAS threads of a process that did not pin them to one."""
    return math.sqrt(float(np.sum(x.real ** 2 + x.imag ** 2)))


def check_cauchy_bound(member, n_max=DESK_NMAX, n_top=20):
    """||d^n f||_inf <= C n! e^n / n^n * H(1)^n from the entire-extension constant.

    Checked for n <= min(n_top, n_max) on the member's (x1, p = inf) ledger.
    """
    if member.f.grid.d != 1:
        return ("skip", "d=1 check")
    spec = member.spec
    if not spec.mask.resolved or spec.mask.is_empty:
        return ("skip", "needs a resolved non-empty mask")
    x1 = parse_poly("x1", 1)
    seq = next((s for s in member.ledgers(n_max).sequences if s.P == x1 and np.isinf(s.p)), None)
    if seq is None:
        return ("skip", "needs an (x1, p = inf) ledger")
    H1 = supporting_function(spec.coords, np.array([1.0]))
    Hm1 = supporting_function(spec.coords, np.array([-1.0]))
    Hsym = max(H1, Hm1)              # the Cauchy circle sees both directions
    F = SampledFunction(spec.grid, FREQUENCY, spec.F)
    zs = [x + 1j * t for x in (0.0, 0.7, -1.3, 3.1) for t in (0.0, 1.0, -2.0, 5.0, -10.0, 20.0)]
    C = 0.0
    for z, Fz in zip(zs, eval_entire(F, np.array(zs)[:, None])):
        Ht = H1 * max(z.imag, 0.0) + Hm1 * max(-z.imag, 0.0)
        C = max(C, abs(Fz) / math.exp(Ht))
    for n, lhs in enumerate(seq.L[:n_top], start=1):
        rhs = (math.log(C) + math.lgamma(n + 1) + n - n * math.log(n)
               + n * math.log(Hsym))
        if lhs > rhs:
            return ("fail", f"violated at n={n}: lhs-rhs={lhs - rhs:.3e} (log)")
    return ("pass", f"holds for n <= {min(n_top, n_max)} with C={C:.4g}")


PROPERTIES = {
    "limit_vs_R": check_limit_vs_R,
    "liminf": check_liminf,
    "plancherel": check_plancherel,
    "rtilde_vs_R": check_rtilde_vs_R,
    "raster_radius": check_raster,
    "fd_oracle": check_fd_oracle,
    "cauchy_bound": check_cauchy_bound,
}


def run_matrix(members=None, properties=None, n_max: int = DESK_NMAX) -> dict:
    """Evaluate the property matrix; returns {property: {member: (status, detail)}}."""
    if members is None:
        members = verify_corpus()
    if properties is None:
        properties = PROPERTIES
    matrix: dict = {name: {} for name in properties}
    for prop_name, check in properties.items():
        for member in members:
            try:
                outcome = check(member, n_max)
            except Exception as exc:  # a crashed check is a failed check
                outcome = ("fail", f"error: {exc}")
            matrix[prop_name][member.name] = outcome
    return matrix


def matrix_failed(matrix: dict) -> bool:
    return any(status == "fail"
               for row in matrix.values() for status, _ in row.values())
