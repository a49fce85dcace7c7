"""Discrete Fourier layer: transform, support masks, R(P, .), supporting
functions and quadrature at complex arguments.

Normalization: the forward transform approximates
(2 pi)^{-d/2} integral f(x) exp(-i lam.x) dx by the Riemann sum
h^d (2 pi)^{-d/2} sum_k f(x_k) exp(-i lam.x_k).  With the grid's dual lattice
the inverse Riemann sum inverts it exactly and the discrete Parseval identity
h^d sum |f|^2 = dlam^d sum |F|^2 holds to machine precision.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from .grid import (Grid, SampledFunction, SPATIAL, FREQUENCY, GridError, MARGIN_CELLS,
                   lp_norm_values)
from .poly import MultiPoly, eval_symbol_many

DEFAULT_EPS_REL = 1e-8

# |F| below this absolute level counts as the zero function (empty mask).
ZERO_FLOOR = 1e-300

# eval_entire refuses |Im z| * support-radius beyond this (exp overflow).
OVERFLOW_GUARD = 700.0


def _fftshift_all(a, d):
    return np.fft.fftshift(a, axes=tuple(range(d)))


def _ifftshift_all(a, d):
    return np.fft.ifftshift(a, axes=tuple(range(d)))


def _inverse_scale(grid: Grid) -> float:
    return (2.0 * np.pi) ** (grid.d / 2.0) / grid.h ** grid.d


def forward_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    v = values.reshape(grid.shape)
    out = _fftshift_all(np.fft.fftn(_ifftshift_all(v, grid.d)), grid.d)
    scale = grid.h ** grid.d / (2.0 * np.pi) ** (grid.d / 2.0)
    return (scale * out).ravel()


def inverse_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    v = values.reshape(grid.shape)
    out = _fftshift_all(np.fft.ifftn(_ifftshift_all(v, grid.d)), grid.d)
    return (_inverse_scale(grid) * out).ravel()


def forward_dft(f: SampledFunction) -> SampledFunction:
    """Spatial -> frequency side."""
    if f.side != SPATIAL:
        raise GridError("forward_dft expects a spatial-side function")
    return SampledFunction(f.grid, FREQUENCY, forward_values(f.values, f.grid),
                           label=f.label, meta=f.meta)


def inverse_dft(F: SampledFunction) -> SampledFunction:
    """Frequency -> spatial side."""
    if F.side != FREQUENCY:
        raise GridError("inverse_dft expects a frequency-side function")
    return SampledFunction(F.grid, SPATIAL, inverse_values(F.values, F.grid),
                           label=F.label, meta=F.meta)


# ---------------------------------------------------------------------------
# support masks and R(P, .)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportMask:
    """Thresholded spectral support on the frequency lattice.

    resolved=False means some marked cell touches the outermost two frequency
    shells: the spectrum is clipped by the grid and every downstream R value
    is only a lower bound.
    """

    grid: Grid
    field: np.ndarray
    eps_rel: float
    resolved: bool

    def __post_init__(self):
        fld = np.ascontiguousarray(self.field, dtype=bool)
        if fld.shape != (self.grid.n_points,):
            raise GridError("mask field must be flat of length M^d")
        fld.flags.writeable = False
        object.__setattr__(self, "field", fld)

    @property
    def n_cells(self) -> int:
        return int(self.field.sum())

    @property
    def is_empty(self) -> bool:
        return not self.field.any()

    def coords(self) -> np.ndarray:
        return self.grid.frequency_coords()[self.field]


def support_mask(F: SampledFunction, eps_rel: float = DEFAULT_EPS_REL) -> SupportMask:
    """Cells with |F| >= eps_rel * max |F|; empty only for an all-but-zero F."""
    if F.side != FREQUENCY:
        raise GridError("support_mask expects a frequency-side function")
    if not (0.0 < eps_rel < 1.0):
        raise GridError(f"eps_rel must be in (0, 1), got {eps_rel}")
    mag = np.abs(F.values)
    top = mag.max(initial=0.0)
    if top < ZERO_FLOOR:
        fld = np.zeros(F.grid.n_points, dtype=bool)
        return SupportMask(F.grid, fld, eps_rel, True)
    fld = mag >= eps_rel * top
    frame = F.grid.boundary_frame(2)
    resolved = not bool((fld & frame).any())
    return SupportMask(F.grid, fld, eps_rel, resolved)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """An input's transform and support mask, computed once for all its ledgers.

    F is in centered order; coords and fft_index locate the mask cells (in the
    order of F[mask.field]) by frequency and by flat position in FFT order.
    """

    f: SampledFunction
    F: np.ndarray
    mask: SupportMask
    coords: np.ndarray
    fft_index: np.ndarray

    @classmethod
    def of(cls, f, eps_rel: float = DEFAULT_EPS_REL) -> "Spectrum":
        """Transform and mask a spatial-side f.  A Spectrum is passed through
        if it was masked at eps_rel and rejected otherwise."""
        if isinstance(f, Spectrum):
            if f.mask.eps_rel != eps_rel:
                raise GridError(f"spectrum masked at eps_rel={f.mask.eps_rel}, not {eps_rel}")
            return f
        if f.side != SPATIAL:
            raise GridError("expected a spatial-side function")
        grid = f.grid
        F = forward_values(f.values, grid)
        mask = support_mask(SampledFunction(grid, FREQUENCY, F), eps_rel)
        cells = (np.argwhere(mask.field.reshape(grid.shape)) + grid.M // 2) % grid.M
        return cls(f, F, mask, mask.coords(), np.ravel_multi_index(cells.T, grid.shape))

    @property
    def grid(self) -> Grid:
        return self.f.grid


class SpatialStep:
    """Spatial samples of spectra carried on a Spectrum's mask cells.

    A call scatters the cells into a zeroed FFT-order buffer and inverse-
    transforms it into a second buffer.  Both are allocated once, and the
    result, overwritten by the next call, is unscaled and in FFT order:
    `norm` applies the scale and `fft_order` reorders weight arrays.
    """

    def __init__(self, spec: Spectrum):
        grid = spec.grid
        self._index = spec.fft_index
        self._buf = np.zeros(grid.shape, dtype=complex)
        self._out = np.empty_like(self._buf)
        self._scale = _inverse_scale(grid)
        self._cell = grid.h ** grid.d

    def __call__(self, G: np.ndarray) -> np.ndarray:
        self._buf.reshape(-1)[self._index] = G
        return np.fft.ifftn(self._buf, out=self._out)

    def fft_order(self, values: np.ndarray) -> np.ndarray:
        """A centered-order spatial array in the order of the step's output."""
        return _ifftshift_all(values.reshape(self._buf.shape), self._buf.ndim)

    def norm(self, g: np.ndarray, p) -> float:
        """Riemann-sum Lp norm of a step output, or of one times a weight."""
        return self._scale * lp_norm_values(g, self._cell, p)


class RValue(NamedTuple):
    value: float
    resolved: bool


def compute_R(P: MultiPoly, mask: SupportMask) -> RValue:
    """sup of |P(i lam)| over the mask; 0 on an empty mask.

    resolved=False is inherited from the mask and flags the value as a lower
    bound only (the continuum R may be infinite).
    """
    if P.d != mask.grid.d:
        raise GridError("polynomial and mask dimension mismatch")
    if mask.is_empty:
        return RValue(0.0, mask.resolved)
    vals = np.abs(eval_symbol_many(P, mask.coords()))
    return RValue(float(vals.max()), mask.resolved)


def supporting_function(points, y) -> float:
    """H_A(y) = max over the point set of a . y.

    The maximum over a finite set equals the maximum over its convex hull, so
    the hull never needs to be built.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise GridError("supporting_function needs a non-empty point set")
    y = np.asarray(y, dtype=float)
    return float((pts @ y).max())


# ---------------------------------------------------------------------------
# entire extension by quadrature
# ---------------------------------------------------------------------------

def eval_entire(f: SampledFunction, z, margin_tol: float = 1e-10) -> complex:
    """Transform of f at a complex argument z, by direct quadrature.

    For spatial-side f this is Ff(z) = h^d (2 pi)^{-d/2} sum f(x) e^{-i z.x};
    for frequency-side input it is the entire extension of the spatial
    function, dlam^d (2 pi)^{-d/2} sum F(lam) e^{+i z.lam}.  The input must be
    effectively supported inside the box with a 10-cell margin, otherwise the
    quadrature of the real exponential is meaningless.
    """
    grid = f.grid
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (grid.d,):
        raise GridError(f"z must be a complex vector of length {grid.d}")
    mag = np.abs(f.values)
    top = mag.max(initial=0.0)
    if top == 0.0:
        return 0.0 + 0.0j
    frame = grid.boundary_frame(MARGIN_CELLS)
    frame_top = mag[frame].max(initial=0.0)
    if frame_top > margin_tol * top:
        raise GridError(
            f"eval_entire: values on the {MARGIN_CELLS}-cell boundary frame reach "
            f"{frame_top / top:.3g} of the peak (tolerance {margin_tol:g}); the "
            "input is not compactly supported inside the box"
        )
    # cells at double-precision noise level are exact zeros of the underlying
    # function; keeping them would let e^{|Im z| |coord|} amplify pure noise
    support = mag > 1e-13 * top
    if f.side == SPATIAL:
        coords = grid.spatial_coords()[support]
        sign = -1.0
        scale = grid.h ** grid.d / (2.0 * np.pi) ** (grid.d / 2.0)
    else:
        coords = grid.frequency_coords()[support]
        sign = +1.0
        scale = grid.dlam ** grid.d / (2.0 * np.pi) ** (grid.d / 2.0)
    reach = float(np.abs(coords).max(initial=0.0))
    if np.abs(z.imag).max() * reach > OVERFLOW_GUARD:
        raise GridError(
            f"eval_entire: |Im z| * support radius = "
            f"{np.abs(z.imag).max() * reach:.3g} exceeds the overflow guard "
            f"{OVERFLOW_GUARD:g}"
        )
    phase = coords @ (sign * 1j * z)
    return complex(scale * np.sum(f.values[support] * np.exp(phase)))


UNDERFLOW_FLOOR = 1e-290


@dataclass(frozen=True)
class ComplexGrowthReport:
    """Least-squares growth rate of log |Ff(x0 + i t y)| along t."""

    x0: np.ndarray
    y: np.ndarray
    t: np.ndarray
    log_abs: np.ndarray
    slope: float
    slope_raw: float
    residual: float
    n_dropped: int

    def to_json_dict(self):
        return {
            "x0": list(map(float, np.atleast_1d(self.x0))),
            "y": list(map(float, np.atleast_1d(self.y))),
            "t": [float(v) for v in self.t],
            "log_abs": [float(v) for v in self.log_abs],
            "slope": self.slope,
            "slope_raw": self.slope_raw,
            "residual": self.residual,
            "n_dropped": self.n_dropped,
        }


def complex_growth_rate(f: SampledFunction, x0, y, t_samples) -> ComplexGrowthReport:
    """Fit the exponential growth rate of |Ff(x0 + i t y)| over the t window.

    The least-squares model is log|Ff| ~ slope*t + a*sqrt(t) + b*log(t) + c;
    the sqrt/log regressors are the known sub-exponential corrections of
    plateau bumps (edge saddle point and Laplace prefactor), without which the
    t-coefficient is biased low by several percent on finite windows.  The
    plain 2-parameter slope is reported as slope_raw.  Samples with
    |Ff| < 1e-290 are dropped (window shrink, counted in n_dropped).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t = np.asarray(t_samples, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise GridError("need at least 3 strictly increasing t samples")
    if np.any(np.diff(t) <= 0):
        raise GridError("t samples must be strictly increasing")
    vals = np.array([eval_entire(f, x0 + 1j * ti * y) for ti in t])
    keep = np.abs(vals) >= UNDERFLOW_FLOOR
    n_dropped = int((~keep).sum())
    t_k, v_k = t[keep], vals[keep]
    if t_k.size < 3:
        raise GridError("fewer than 3 samples above the underflow floor")
    logs = np.log(np.abs(v_k))
    if np.allclose(y, 0.0):
        # constant argument: slope identically zero
        return ComplexGrowthReport(x0, y, t_k, logs, 0.0, 0.0, 0.0, n_dropped)
    A4 = np.column_stack([t_k, np.sqrt(t_k), np.log(t_k), np.ones_like(t_k)])
    coef, *_ = np.linalg.lstsq(A4, logs, rcond=None)
    resid = float(np.sqrt(np.mean((A4 @ coef - logs) ** 2)))
    A2 = np.column_stack([t_k, np.ones_like(t_k)])
    coef2, *_ = np.linalg.lstsq(A2, logs, rcond=None)
    return ComplexGrowthReport(x0, y, t_k, logs, float(coef[0]), float(coef2[0]),
                               resid, n_dropped)
