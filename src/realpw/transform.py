"""Discrete Fourier layer: transform, support masks, R(P, .), supporting
functions and quadrature at complex arguments.

Normalization: the forward transform approximates
(2 pi)^{-d/2} integral f(x) exp(-i lam.x) dx by the Riemann sum
h^d (2 pi)^{-d/2} sum_k f(x_k) exp(-i lam.x_k).  With the grid's dual lattice
the inverse Riemann sum inverts it exactly and the discrete Parseval identity
h^d sum |f|^2 = dlam^d sum |F|^2 holds to machine precision.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from .grid import (Grid, SampledFunction, SPATIAL, FREQUENCY, GridError, MARGIN_CELLS,
                   lp_norm_moduli, lp_norm_values)
from .poly import MultiPoly, PolyError, eval_symbol_many

DEFAULT_EPS_REL = 1e-8

# |F| below this absolute level counts as the zero function (empty mask).
ZERO_FLOOR = 1e-300

# eval_entire refuses a z whose exponent's real part can pass this (exp overflow).
OVERFLOW_GUARD = 700.0


def _inverse_scale(grid: Grid) -> float:
    return (2.0 * np.pi) ** (grid.d / 2.0) / grid.h ** grid.d


def forward_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    v = values.reshape(grid.shape)
    out = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(v)))
    scale = grid.h ** grid.d / (2.0 * np.pi) ** (grid.d / 2.0)
    return (scale * out).ravel()


def inverse_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    v = values.reshape(grid.shape)
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(v)))
    return (_inverse_scale(grid) * out).ravel()


def forward_dft(f: SampledFunction) -> SampledFunction:
    """Spatial -> frequency side."""
    if f.side != SPATIAL:
        raise GridError("forward_dft expects a spatial-side function")
    return SampledFunction(f.grid, FREQUENCY, forward_values(f.values, f.grid), label=f.label)


def inverse_dft(F: SampledFunction) -> SampledFunction:
    """Frequency -> spatial side."""
    if F.side != FREQUENCY:
        raise GridError("inverse_dft expects a frequency-side function")
    return SampledFunction(F.grid, SPATIAL, inverse_values(F.values, F.grid), label=F.label)


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
        """Frequency coordinates of the mask cells, (n_cells, d), row-major."""
        axis = self.grid.frequency_axis()
        return np.stack([axis[k] for k in np.nonzero(self.field.reshape(self.grid.shape))],
                        axis=-1)


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
    def of(cls, f, eps_rel: float | None = None) -> "Spectrum":
        """Transform and mask a spatial-side f at eps_rel (DEFAULT_EPS_REL if
        None).  A Spectrum is passed through, and rejected if an eps_rel is
        given that it was not masked at.  An f whose transform overflows a
        double raises GridError."""
        if isinstance(f, Spectrum):
            if eps_rel is not None and f.mask.eps_rel != eps_rel:
                raise GridError(f"spectrum masked at eps_rel={f.mask.eps_rel}, not {eps_rel}")
            return f
        if f.side != SPATIAL:
            raise GridError("expected a spatial-side function")
        grid = f.grid
        with np.errstate(over="ignore", invalid="ignore"):
            F = forward_values(f.values, grid)
        try:
            transform = SampledFunction(grid, FREQUENCY, F)
        except GridError:       # F is on f's grid, so only a value can be bad
            raise GridError("the input's transform exceeds the double range; "
                            "its values are too large") from None
        mask = support_mask(transform, DEFAULT_EPS_REL if eps_rel is None else eps_rel)
        cells = (np.argwhere(mask.field.reshape(grid.shape)) + grid.M // 2) % grid.M
        return cls(f, F, mask, mask.coords(), np.ravel_multi_index(cells.T, grid.shape))

    @property
    def grid(self) -> Grid:
        return self.f.grid


# A pass whose axis holds at most this many occupied frequencies applies its
# inverse-DFT block by matrix product.  Over M lines of M values, (real-form
# matrix product time) / (ifft time) read 0.20-0.42 at K = 8, 0.30-0.63 at 16,
# 0.57-0.97 at 32, 0.69-1.28 at 40 and 0.77-1.44 at 48, for M = 64..1024 (two
# runs each, one BLAS thread, numpy 2.4, 2-vCPU VM).
MATRIX_PASS_MAX_K = 32


def _inverse_dft_block(freqs: np.ndarray, M: int) -> np.ndarray:
    """ifft's kernel on the FFT indices freqs, E_km = exp(2 pi i ((m u_k) mod
    M) / M) / M, in real form: the (2K x 2M) block that takes K complex values
    read as 2K doubles (re, im) to M complex values read the same way.  The M
    roots of unity are computed in long double and rounded once, so every
    entry is within one rounding of its value where long double is wider
    than double."""
    theta = 8 * np.arctan(np.longdouble(1)) * np.arange(M) / M
    roots = ((np.cos(theta) + 1j * np.sin(theta)) / M).astype(complex)
    E = roots[np.outer(freqs, np.arange(M)) % M]
    return np.array([[E.real, E.imag], [-E.imag, E.real]]).transpose(2, 0, 3, 1).reshape(
        2 * freqs.size, 2 * M)


class SpatialStep:
    """Spatial samples of spectra carried on a Spectrum's mask cells: the
    inverse DFT of the cells scattered into a zeroed FFT-order grid.

    The step runs one pass per axis; a pass transforms contiguous lines along
    its buffer's last axis and writes its result transposed into the next
    pass's buffer.  A line that holds no nonzero value transforms to zeros,
    so every pass but the last runs only on the lines that the mask occupies
    along the axes not yet transformed (J. D. Markel, "FFT pruning", 1971).
    An axis whose mask cells occupy K_a <= MATRIX_PASS_MAX_K frequencies
    takes the matrix pass: its lines hold only those K_a values and are
    multiplied by ifft's kernel on them, a DFT from a subset of its inputs
    (H. V. Sorensen and C. S. Burrus, IEEE Trans. Signal Process. 41(3),
    1993).  The (K_a x M) kernel is kept in real form, a (2 K_a x 2M) block
    applied to the lines read as doubles: on the d = 2 acceptance inputs a
    step took 14-46% less time than with the complex block.  Smallest K_a
    first, axes take the matrix pass while all the blocks together take less
    memory than n_points complex values, so a d = 1 grid with a nonempty mask
    stays on the ifft pass.  The other axes take numpy's ifft pass and run
    first, last axis first as in ifftn; then the matrix passes follow in
    order of decreasing K_a, so the last pass, the one over whole lines,
    multiplies by the smallest block.  On a d = 1 grid the step also takes a
    (k, cells) stack of rows and transforms it by one ifft call over k
    lines: each output row equals that row's one-row output bit for bit.

    Output axis k is grid axis `axes[k]`.  With no matrix axis the output
    equals ifftn's bit for bit with its axes reversed, `ifftn(buf).T`, since
    every line goes through the same 1-D transform.  A matrix pass errs from
    the exact pass by at most sqrt(2) gamma_(2 K_a) + u (gamma_n = n u /
    (1 - n u), u = 2^-53) times the sum of its inputs' moduli over M.  The
    buffers are allocated once, those of a stack at its first call that needs
    them, and the result, overwritten by the next call, is unscaled: `norm`
    and `row_norms` apply the scale and `fft_order` puts weight arrays in the
    output's order.
    """

    def __init__(self, spec: Spectrum):
        grid = spec.grid
        M, d = grid.M, grid.d
        cells = np.array(np.unravel_index(spec.fft_index, grid.shape))
        freqs = [np.unique(c) for c in cells]
        budget, matrix = grid.n_points, {}
        for a in sorted(range(d), key=lambda a: freqs[a].size):
            size = 2 * freqs[a].size * M        # 4 K_a M doubles, in complex values
            if freqs[a].size > MATRIX_PASS_MAX_K or size >= budget:
                break
            budget -= size
            matrix[a] = _inverse_dft_block(freqs[a], M)
        self.axes = tuple([a for a in range(d - 1, -1, -1) if a not in matrix]
                          + sorted(matrix, key=lambda a: -freqs[a].size))
        self.matrix_axes = frozenset(matrix)
        # Pass j transforms axis axes[j]: on the grid with its axes in the
        # order axes[::-1], the passes run last axis first.  A pass's buffer
        # rows are the occupied lines (index prefixes over the axes not yet
        # transformed) times the axes already transformed, in reverse order,
        # and its columns are the axis's frequencies, all M or, on a matrix
        # pass, the K_a occupied ones; index scatters the previous pass's
        # output (at first G, on the cells) into the buffer, flat.  The two
        # full buffers of the last pass are allocated first: the other order
        # raised the estimate-corpus peak RSS by 0.4 MB.
        width = [freqs[a].size if a in matrix else M for a in self.axes]
        full = np.zeros((M ** (d - 1), width[-1]), dtype=complex)
        out = np.empty((M ** (d - 1), M), dtype=complex)
        self._passes = []
        codes = np.ravel_multi_index(cells[list(self.axes[::-1])], grid.shape)
        for j, a in enumerate(self.axes):
            pos = d - 1 - j
            lines = np.unique(codes // M) if pos else np.zeros(1, dtype=np.intp)
            rows = (np.searchsorted(lines, codes // M)[:, None] * M ** j
                    + np.arange(M ** j))
            col = np.searchsorted(freqs[a], codes % M) if a in matrix else codes % M
            buf = np.zeros((lines.size * M ** j, width[j]), dtype=complex) if pos else full
            res = np.empty((buf.shape[0], M), dtype=complex) if pos else out
            flat = buf.reshape(-1)
            if a in matrix:                 # the real-form block takes (re, im) doubles
                buf, res = buf.view(float), res.view(float)
            self._passes.append((flat, buf, res, (rows * width[j] + col[:, None]).ravel(),
                                 matrix.get(a)))
            codes = lines
        self._out = out.reshape(grid.shape)
        self._scale = _inverse_scale(grid)
        self._cell = grid.h ** grid.d
        self._index, self._stack = spec.fft_index, None

    def __call__(self, G: np.ndarray) -> np.ndarray:
        """The output of one row G of mask-cell values, or on a d = 1 grid
        of each row of a (k, cells) stack G: a (k, M) array."""
        if G.ndim == 2:
            return self._rows(G)
        for flat, buf, out, index, block in self._passes:
            flat[index] = G.ravel()
            if block is None:
                G = np.fft.ifft(buf, axis=-1, out=out)
            else:
                G = np.matmul(buf, block, out=out).view(complex)
        return self._out

    def _rows(self, G: np.ndarray) -> np.ndarray:
        k, M = len(G), self._out.shape[-1]
        if self._out.ndim != 1:
            raise GridError("a stack of rows steps on a d = 1 grid only")
        if self._stack is None or len(self._stack[0]) < k:
            self._stack = (np.zeros((k, M), dtype=complex), np.empty((k, M), dtype=complex),
                           (np.arange(k)[:, None] * M + self._index).ravel())
        buf, out, index = self._stack
        buf.reshape(-1)[index[:G.size]] = G.ravel()
        return np.fft.ifft(buf[:k], axis=-1, out=out[:k])

    def fft_order(self, values: np.ndarray) -> np.ndarray:
        """A centered-order spatial array in the order of the step's output."""
        return np.ascontiguousarray(
            np.fft.ifftshift(values.reshape(self._out.shape)).transpose(self.axes))

    def norm(self, g: np.ndarray, p) -> float:
        """Riemann-sum Lp norm of a step output, or of one times a weight."""
        return self._scale * lp_norm_values(g, self._cell, p)

    def row_norms(self, mag: np.ndarray, p) -> np.ndarray:
        """The Riemann-sum Lp norm of each row of moduli of step outputs
        (times a weight), along the last axis: `norm` row by row."""
        return self._scale * lp_norm_moduli(mag, self._cell, p)


class RValue(NamedTuple):
    value: float
    resolved: bool


def compute_R(P: MultiPoly, mask: SupportMask) -> RValue:
    """sup of |P(i lam)| over the mask; 0 on an empty mask; PolyError if not finite.

    resolved=False is inherited from the mask and flags the value as a lower
    bound only (the continuum R may be infinite).
    """
    top = float(np.abs(eval_symbol_many(P, mask.coords())).max(initial=0.0))
    if not math.isfinite(top):
        raise PolyError(f"{P.to_text():.60}: |P(i lam)| on the mask exceeds the double range")
    return RValue(top, mask.resolved)


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


def box_supporting_function(lo, hi, v) -> float:
    """H_B(v) = sum_j max(v_j lo_j, v_j hi_j) on the box B = [lo, hi], in Python
    floats: past the double range it is inf or NaN, with no warning."""
    return sum(a * (u if a > 0 else l) for a, l, u in zip(*(map(float, w) for w in (v, lo, hi))))


# ---------------------------------------------------------------------------
# entire extension by quadrature
# ---------------------------------------------------------------------------

def eval_entire(f: SampledFunction, z):
    """Transform of f at a complex argument z, by direct quadrature.

    For spatial-side f this is Ff(z) = h^d (2 pi)^{-d/2} sum f(x) e^{-i z.x};
    for frequency-side input it is the entire extension of the spatial
    function, dlam^d (2 pi)^{-d/2} sum F(lam) e^{+i z.lam}.  The input must be
    effectively supported inside the box with a 10-cell margin, otherwise the
    quadrature of the real exponential is meaningless.  A z is refused where
    H_B(v) is not <= OVERFLOW_GUARD, B the support's bounding box and v = Im z
    (spatial side) or -Im z: the exponent of the classical Paley-Wiener bound
    |Ff(z)| <= C e^{H_K(Im z)}, K = supp f (Hormander, ALPDO I, Thm 7.3.1).

    z is a d-vector, giving a complex, or a (k, d) stack, giving k values,
    each the value its row gives alone; the input is checked and its support
    built once for the stack.
    """
    grid = f.grid
    z = np.asarray(z, dtype=complex)
    stack = np.atleast_2d(z)
    if z.ndim > 2 or stack.shape[1:] != (grid.d,):
        raise GridError(f"z must be a complex vector of length {grid.d} "
                        "or a stack of them, one per row")
    out = np.zeros(stack.shape[0], dtype=complex)
    mag = np.abs(f.values)
    top = mag.max(initial=0.0)
    if top == 0.0:
        return out if z.ndim == 2 else complex(out[0])
    frame = grid.boundary_frame(MARGIN_CELLS)
    frame_top = mag[frame].max(initial=0.0)
    if frame_top > 1e-10 * top:
        raise GridError(
            f"eval_entire: values on the {MARGIN_CELLS}-cell boundary frame reach "
            f"{frame_top / top:.3g} of the peak (tolerance 1e-10); the "
            "input is not compactly supported inside the box"
        )
    # cells at double-precision noise level are exact zeros of the underlying
    # function; keeping them would let e^{|Im z| |coord|} amplify pure noise
    support = mag > 1e-13 * top
    axis, sign, step = ((grid.spatial_axis(), -1.0, grid.h) if f.side == SPATIAL
                        else (grid.frequency_axis(), 1.0, grid.dlam))
    scale = step ** grid.d / (2.0 * np.pi) ** (grid.d / 2.0)
    coords = np.stack([axis[k] for k in np.nonzero(support.reshape(grid.shape))], axis=-1)
    lo, hi = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    reach = max(map(abs, lo + hi))
    values = f.values[support]
    for k, zk in enumerate(stack):
        growth = box_supporting_function(lo, hi, (-sign * zk.imag).tolist())
        if not growth <= OVERFLOW_GUARD:        # NaN too
            raise GridError(f"eval_entire: H_B(v) on the support's box is {growth:.3g}, past "
                            f"the overflow guard {OVERFLOW_GUARD:g}")
        if not math.isfinite(sum(map(abs, zk.real.tolist() + zk.imag.tolist())) * reach):
            raise GridError("eval_entire: sum |Re z_j| + |Im z_j| * support radius exceeds "
                            "the double range")
        phase = coords @ (sign * 1j * zk)
        out[k] = scale * np.sum(values * np.exp(phase))
    return out if z.ndim == 2 else complex(out[0])


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
    vals = eval_entire(f, [x0 + 1j * ti * y for ti in t])
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
