"""Support reconstruction from growth limits, local-spectrum rasters, and the
differential-equation support probe.

Reconstruction intersects the symbol sublevel sets {|P(i lam)| <= limit(P)}
over a polynomial family; the slack factor (1 + tau) on each limit absorbs
estimator error.  Accuracy is reported in whole cells, the grid's natural
resolution unit.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .grid import SampledFunction, SPATIAL, GridError, make_grid
from .poly import MultiPoly, PolyFamily, eval_symbol_many
from .transform import DEFAULT_EPS_REL, SupportMask, Spectrum
from .growth import growth_sequence, growth_sequences

DEFAULT_TAU = 0.01
_SLICE = 8192


@dataclass(frozen=True)
class MaskMetrics:
    symmetric_difference: int
    dilation_distance: int

    def to_json_dict(self):
        return {"symmetric_difference": self.symmetric_difference,
                "dilation_distance": self.dilation_distance}


def mask_metrics(estimated: SupportMask, reference: SupportMask) -> MaskMetrics:
    """Cell symmetric difference and two-sided Chebyshev dilation distance."""
    if estimated.grid != reference.grid:
        raise GridError("masks live on different grids")
    sym = int(np.logical_xor(estimated.field, reference.field).sum())
    a = np.argwhere(estimated.field.reshape(estimated.grid.shape))
    b = np.argwhere(reference.field.reshape(reference.grid.shape))
    if len(a) == 0 and len(b) == 0:
        return MaskMetrics(sym, 0)
    if len(a) == 0 or len(b) == 0:
        return MaskMetrics(sym, int(estimated.grid.M))
    def one_sided(src, dst):
        worst = 0
        for start in range(0, len(src), 512):
            chunk = src[start:start + 512]
            d = np.abs(chunk[:, None, :] - dst[None, :, :]).max(axis=-1).min(axis=1)
            worst = max(worst, int(d.max()))
        return worst
    return MaskMetrics(sym, max(one_sided(a, b), one_sided(b, a)))


@dataclass(frozen=True)
class ReconstructionResult:
    """carved[i] counts the cells member i removed from those that members
    0..i-1 kept; a member that carves nothing is redundant in that order."""

    estimated: SupportMask
    family: PolyFamily
    limits: tuple
    tau: float
    excluded_members: tuple
    metrics: MaskMetrics | None
    carved: tuple

    def to_json_dict(self):
        out = {
            "family_scheme": self.family.scheme,
            "limits": [float(v) for v in self.limits],
            "tau": self.tau,
            "excluded_members": list(self.excluded_members),
            "carved": list(self.carved),
            "estimated_cells": self.estimated.n_cells,
            "resolved": self.estimated.resolved,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_json_dict()
        return out


def reconstruct_support(f: SampledFunction, family: PolyFamily, p, n_max: int,
                        reference: SupportMask | None = None,
                        tau: float = DEFAULT_TAU,
                        eps_rel: float = DEFAULT_EPS_REL) -> ReconstructionResult:
    """Estimate supp Ff as the cells passing |P(i lam)| <= limit(P)*(1+tau)
    for every family member, limits taken from growth sequences.

    Members whose sequence truncates are excluded and reported.  Family order
    cannot matter: the estimate is an intersection.  It is carved
    progressively: each member's symbol is evaluated only on the cells that
    the members before it kept.
    """
    if family.d != f.grid.d:
        raise GridError("family dimension mismatch")
    grid = f.grid
    lams = grid.frequency_coords()
    cand = None                     # flat indices of the cells kept so far; None: all
    limits, excluded, carved = [], [], []
    resolved = True
    for i, seq in enumerate(growth_sequences(f, family, p, n_max, eps_rel=eps_rel)):
        if seq.truncated_at is not None and seq.regime != "zero":
            excluded.append(i)
            limits.append(float("nan"))
            carved.append(0)
            continue
        limits.append(seq.limit)
        resolved = resolved and seq.resolved
        ok = _sublevel(seq.P, lams if cand is None else lams[cand], seq.limit, tau)
        carved.append(ok.size - int(np.count_nonzero(ok)))
        cand = np.flatnonzero(ok) if cand is None else cand[ok]
    keep = np.zeros(grid.n_points, dtype=bool)
    keep[slice(None) if cand is None else cand] = True
    est = SupportMask(grid, keep, eps_rel, resolved)
    metrics = mask_metrics(est, reference) if reference is not None else None
    return ReconstructionResult(est, family, tuple(limits), tau,
                                tuple(excluded), metrics, tuple(carved))


def _sublevel(P: MultiPoly, lams: np.ndarray, limit: float, tau: float) -> np.ndarray:
    """|P(i lam)| <= limit * (1 + tau) at each frequency vector.

    Evaluated in slices of _SLICE vectors: on a d = 2, M = 256 grid a
    full-grid call then holds under 1 MB of symbol temporaries, not 5 MB.
    """
    bound = limit * (1.0 + tau)
    return np.concatenate([np.abs(eval_symbol_many(P, lams[i:i + _SLICE])) <= bound
                           for i in range(0, max(len(lams), 1), _SLICE)])


def membership_test(lam, limits, family: PolyFamily, tau: float = DEFAULT_TAU) -> bool:
    """Single-point version: lam passes iff every |P(i lam)| <= limit*(1+tau)."""
    if len(limits) != len(family):
        raise GridError("limits must cover the family")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return all(_sublevel(P, lam[None, :], lim, tau)[0]
               for P, lim in zip(family, limits) if np.isfinite(lim))


# ---------------------------------------------------------------------------
# local spectrum raster
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSpectrumRaster:
    """Image {P(i lam) : lam in mask}, multiplicity discarded.

    max_modulus is computed as the max over the same finite value set that
    compute_R maximizes over, so the two agree bit-exactly.
    """

    values: np.ndarray
    max_modulus: float
    resolved: bool

    def to_csv(self) -> str:
        lines = ["re,im"]
        lines += [f"{float(v.real)!r},{float(v.imag)!r}" for v in self.values]
        return "\n".join(lines) + "\n"


def local_spectrum_raster(P: MultiPoly, mask: SupportMask) -> LocalSpectrumRaster:
    if mask.is_empty:
        return LocalSpectrumRaster(np.array([], dtype=complex), 0.0, mask.resolved)
    vals = eval_symbol_many(P, mask.coords())
    top = float(np.abs(vals).max())
    return LocalSpectrumRaster(np.unique(vals), top, mask.resolved)


# ---------------------------------------------------------------------------
# PDE support probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeProbeReport:
    """[experimental] Support bound for f in P(d)f = g via a probe polynomial Q.

    The quotient Fg / P(i lam) reconstructs Ff; re-reading it as a function on
    the swapped grid (spatial step = dlam, whose own dual lattice is the
    original x lattice) turns growth of Q(d)^n applied to Ff into a bound
    M = lim ||Q(d)^n Ff||^{1/n}, and supp f must lie in
    {x : |Q(-ix)| <= M}.  Cells with |P(i lam)| below the floor are excluded
    and their mass reported; any exclusion marks the report heuristic.
    """

    M_limit: float
    sublevel: np.ndarray          # boolean over the original spatial lattice
    x_coords: np.ndarray
    excluded_mass: float
    heuristic: bool
    resolved: bool

    def sublevel_bounds(self):
        pts = self.x_coords[self.sublevel]
        if pts.size == 0:
            return None
        return (pts.min(axis=0), pts.max(axis=0))

    def to_json_dict(self):
        return {"M_limit": self.M_limit,
                "sublevel_cells": int(self.sublevel.sum()),
                "excluded_mass": self.excluded_mass,
                "heuristic": self.heuristic,
                "resolved": self.resolved}


def pde_support_probe(g: SampledFunction, P: MultiPoly, Q: MultiPoly,
                      delta_zero: float = 1e-3, p=2, n_max: int = 64,
                      eps_rel: float = DEFAULT_EPS_REL) -> PdeProbeReport:
    """Probe supp f for P(d)f = g without knowing f.

    delta_zero is an absolute floor on |P(i lam)|: the quotient is formed on
    every cell at or above it (division there is well-conditioned), the cells
    below it are zeroed and their share of the mask's |Fg| mass is reported.
    """
    if delta_zero <= 0:
        raise GridError("delta_zero must be positive")
    if g.side != SPATIAL:
        raise GridError("probe expects the right-hand side g on the spatial side")
    grid = g.grid
    spec = Spectrum.of(g, eps_rel)
    Fg, mask = spec.F, spec.mask
    sym = eval_symbol_many(P, grid.frequency_coords())
    ok = np.abs(sym) >= delta_zero
    mask_mass = np.abs(Fg[mask.field]).sum()
    excluded_mass = 0.0
    if mask_mass > 0:
        excluded_mass = float(np.abs(Fg[mask.field & ~ok]).sum() / mask_mass)
    quotient = np.where(ok, Fg / np.where(ok, sym, 1.0), 0.0)

    # role swap: the quotient (= Ff) becomes the spatial input on the grid
    # with step dlam; that grid's dual lattice is the original x lattice.
    swap_grid = make_grid(grid.d, grid.M, grid.dlam)
    swapped = SampledFunction(swap_grid, SPATIAL, quotient, label="Ff (quotient)")
    seq = growth_sequence(swapped, Q, p, n_max, eps_rel=eps_rel)
    M_limit = seq.limit

    # sublevel set {x : |Q(-ix)| <= M} over the original spatial lattice
    x = grid.spatial_coords()
    qvals = np.abs(eval_symbol_many(Q, -x))
    sublevel = qvals <= M_limit
    return PdeProbeReport(float(M_limit), sublevel, x, excluded_mass,
                          bool(excluded_mass > 0), seq.resolved)
