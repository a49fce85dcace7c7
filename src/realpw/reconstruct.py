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
from .poly import MultiPoly, PolyFamily, PolyError, eval_symbol_many
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
    """Cell symmetric difference and two-sided Chebyshev dilation distance: the
    fewest one-cell dilations (no wrap) of either mask that cover the other;
    M if exactly one mask is empty."""
    if estimated.grid != reference.grid:
        raise GridError("masks live on different grids")
    sym = int(np.logical_xor(estimated.field, reference.field).sum())
    a = estimated.field.reshape(estimated.grid.shape)
    b = reference.field.reshape(reference.grid.shape)
    if not (a.any() and b.any()):
        return MaskMetrics(sym, 0 if a.any() == b.any() else int(estimated.grid.M))
    # The bounding box of the union is convex, so a shortest path of one-cell
    # steps between two of its cells stays inside it: cropping is exact.
    box = tuple(slice(k.min(), k.max() + 1) for k in np.nonzero(a | b))

    def dilations(grown, cover):        # grow by one cell along each axis in turn
        count = 0
        while (cover & ~grown).any():
            for g in (np.moveaxis(grown, axis, 0) for axis in range(grown.ndim)):
                g[1:] |= g[:-1]         # an overlapping operand is read as it was
                g[:-1] |= g[1:]
            count += 1
        return count
    return MaskMetrics(sym, max(dilations(a[box].copy(), b[box]),
                                dilations(b[box].copy(), a[box])))


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


def reconstruct_support(f, family: PolyFamily, p, n_max: int,
                        reference: SupportMask | None = None,
                        tau: float = DEFAULT_TAU) -> ReconstructionResult:
    """Estimate supp Ff as the cells passing |P(i lam)| <= limit(P)*(1+tau)
    for every family member, limits taken from growth sequences.  f is a
    spatial-side SampledFunction or its Spectrum; the estimate carries the
    Spectrum's mask threshold.

    Members whose sequence truncates are excluded and reported.  Family order
    cannot matter: the estimate is an intersection.  It is carved
    progressively from the rows of the family's coefficients, in blocks of
    the next members on the cells that the members before the block kept,
    at most _SLICE values a block (one member while more than _SLICE cells
    are kept), evaluated in slices of _SLICE cells: on a d = 2, M = 256 grid
    a slice holds under 1 MB of symbol temporaries, the grid 5 MB.
    """
    grid = f.grid
    spec = Spectrum.of(f)
    seqs = growth_sequences(spec, family, p, n_max)
    out = np.array([s.truncated_at is not None and s.regime != "zero" for s in seqs])
    limits = [float("nan") if x else s.limit for s, x in zip(seqs, out)]
    resolved = all(s.resolved for s, x in zip(seqs, out) if not x)
    with np.errstate(over="ignore"):           # an infinite bound: the member carves nothing
        bounds = np.array(limits)[:, None] * (1.0 + tau)
    carved = np.zeros(len(seqs), dtype=int)
    # the cells kept so far, as flat indices and as points: a slice of the
    # points is a view, where gathering lams[cand[k:k + _SLICE]] cost about a
    # third of the first member's pass over the grid (2-vCPU VM)
    cand, lams, start = np.arange(grid.n_points), grid.frequency_coords(), 0
    while start < len(seqs) and cand.size:
        stop = start + max(1, _SLICE // cand.size)
        block = family[start:stop]
        ok = np.concatenate([np.abs(eval_symbol_many(block, lams[k:k + _SLICE]))
                             for k in range(0, cand.size, _SLICE)], axis=1) <= bounds[start:stop]
        alive = np.logical_and.accumulate(ok | out[start:stop, None], axis=0)
        kept = np.count_nonzero(alive, axis=1)
        carved[start:stop] = -np.diff(kept, prepend=cand.size)
        cand, lams, start = cand[alive[-1]], lams[alive[-1]], stop
    keep = np.zeros(grid.n_points, dtype=bool)
    keep[cand] = True
    est = SupportMask(grid, keep, spec.mask.eps_rel, resolved)
    metrics = mask_metrics(est, reference) if reference is not None else None
    return ReconstructionResult(est, family, tuple(limits), tau,
                                tuple(np.flatnonzero(out).tolist()), metrics,
                                tuple(carved.tolist()))


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
    """A max modulus past the double range raises PolyError naming P."""
    vals = eval_symbol_many(P, mask.coords())
    top = float(np.abs(vals).max(initial=0.0))
    if not np.isfinite(top):
        raise PolyError(f"{P.to_text():.60}: |P(i lam)| on the mask exceeds the double range")
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
    seq = growth_sequence(Spectrum.of(swapped, eps_rel), Q, p, n_max)
    M_limit = seq.limit

    # sublevel set {x : |Q(-ix)| <= M} over the original spatial lattice
    x = grid.spatial_coords()
    qvals = np.abs(eval_symbol_many(Q, -x))
    sublevel = qvals <= M_limit
    return PdeProbeReport(float(M_limit), sublevel, x, excluded_mass,
                          bool(excluded_mass > 0), seq.resolved)
