"""Uniform periodic grids, sampled functions and discrete Lp norms.

The spatial box per axis is [-M*h/2, M*h/2) sampled at x_k = k*h for
k = -M/2 .. M/2-1; the dual frequency lattice is lam_k = 2*pi*k/(M*h) on
[-pi/h, pi/h).  All values are stored flat in row-major order over the
centered index, axis x1 first.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

SPATIAL = "spatial"
FREQUENCY = "frequency"

#: cells of clearance every built-in input keeps from the box boundary
MARGIN_CELLS = 10


class GridError(ValueError):
    pass


class MarginError(ValueError):
    """A built-in function parameter violates the box-with-margin rule."""


@dataclass(frozen=True)
class Grid:
    """Isotropic periodic lattice over a spatial box and its dual."""

    d: int
    M: int
    h: float

    @property
    def dlam(self) -> float:
        """Frequency step 2*pi/(M*h)."""
        return 2.0 * np.pi / (self.M * self.h)

    @property
    def n_points(self) -> int:
        return self.M ** self.d

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.d

    @property
    def spatial_halfwidth(self) -> float:
        return self.M * self.h / 2.0

    @property
    def frequency_halfwidth(self) -> float:
        return np.pi / self.h

    def axis_indices(self) -> np.ndarray:
        """Centered indices -M/2 .. M/2-1 along one axis."""
        return np.arange(self.M) - self.M // 2

    def spatial_axis(self) -> np.ndarray:
        return self.axis_indices() * self.h

    def frequency_axis(self) -> np.ndarray:
        return self.axis_indices() * self.dlam

    def _coords(self, axis_vals: np.ndarray) -> np.ndarray:
        """All lattice coordinates, shape (M^d, d), row-major."""
        mesh = np.meshgrid(*([axis_vals] * self.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def spatial_coords(self) -> np.ndarray:
        return self._coords(self.spatial_axis())

    def frequency_coords(self) -> np.ndarray:
        return self._coords(self.frequency_axis())

    def boundary_frame(self, width: int) -> np.ndarray:
        """Boolean flat field marking cells within `width` cells of any box face."""
        near = (self.axis_indices() < -self.M // 2 + width) | (
            self.axis_indices() >= self.M // 2 - width
        )
        mesh = np.meshgrid(*([near] * self.d), indexing="ij")
        out = np.zeros(self.shape, dtype=bool)
        for m in mesh:
            out |= m
        return out.ravel()


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a Grid, tagged spatial- or frequency-side."""

    grid: Grid
    side: str
    values: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise GridError(
                f"values must be flat with length M^d = {self.grid.n_points}, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise GridError("values must be finite (no NaN/Inf)")
        if self.side not in (SPATIAL, FREQUENCY):
            raise GridError(f"side must be '{SPATIAL}' or '{FREQUENCY}'")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values, label=None, meta=None) -> "SampledFunction":
        return SampledFunction(
            self.grid,
            self.side,
            values,
            self.label if label is None else label,
            self.meta if meta is None else meta,
        )


def make_grid(d: int, M: int, h: float) -> Grid:
    """Build a periodic grid; d in {1,2,3}, M even and >= 8, h > 0 finite.

    Powers of two for M are recommended (FFT speed) but not required.
    """
    if d not in (1, 2, 3):
        raise GridError(f"dimension d must be 1, 2 or 3, got {d}")
    if not isinstance(M, (int, np.integer)) or M < 8 or M % 2 != 0:
        raise GridError(f"M must be an even integer >= 8, got {M}")
    if not 0 < h < np.inf:
        raise GridError(f"spatial step h must be positive and finite, got {h}")
    return Grid(int(d), int(M), float(h))


def lp_norm(f: SampledFunction, p) -> float:
    """Riemann-sum Lp norm (h^d * sum |f|^p)^(1/p); max |f| for p = inf."""
    if f.side != SPATIAL:
        raise GridError("lp_norm expects a spatial-side function")
    return lp_norm_values(f.values, f.grid.h ** f.grid.d, p)


def lp_norm_values(values: np.ndarray, cell_measure: float, p) -> float:
    """(cell_measure * sum |values|^p)^(1/p); max |values| for p = inf.

    For p other than 1 and 2 the moduli are divided by their maximum before
    the power, so a large finite p neither under- nor overflows (p = 1e7
    agrees with p = inf).  p = 2 is summed unscaled, bit for bit as before:
    its range is that of the p = 2 ledgers summed by Parseval.
    """
    mag = np.abs(values)
    if np.isinf(p):
        return float(mag.max(initial=0.0))
    p = float(p)
    if p < 1:
        raise GridError(f"norm exponent p must be >= 1, got {p}")
    if p in (1.0, 2.0):
        return float((cell_measure * np.sum(mag ** p)) ** (1.0 / p))
    top = mag.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(top * (cell_measure * np.sum((mag / top) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# built-in inputs
# ---------------------------------------------------------------------------

def smooth_step(s) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1.

    Ratio form g(s)/(g(s)+g(1-s)) with g(s) = exp(-1/s); all derivatives
    vanish at both ends, so products of shifted copies give plateau bumps
    with exactly known support.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    g = np.exp(-1.0 / sm)
    g1 = np.exp(-1.0 / (1.0 - sm))
    out[mid] = g / (g + g1)
    return out


def _support_distance(support: dict, coords: np.ndarray) -> np.ndarray:
    """Signed distance INTO the support set (positive inside) at each point."""
    kind = support["shape"]
    if kind == "box":
        lo = np.asarray(support["lo"], dtype=float)
        hi = np.asarray(support["hi"], dtype=float)
        return np.min(np.minimum(coords - lo, hi - coords), axis=-1)
    if kind == "ball":
        c = np.asarray(support.get("center", np.zeros(coords.shape[-1])), dtype=float)
        r = float(support["radius"])
        return r - np.linalg.norm(coords - c, axis=-1)
    if kind == "annulus":
        c = np.asarray(support.get("center", np.zeros(coords.shape[-1])), dtype=float)
        rad = np.linalg.norm(coords - c, axis=-1)
        return np.minimum(float(support["r_out"]) - rad, rad - float(support["r_in"]))
    if kind == "union":
        parts = [_support_distance(s, coords) for s in support["parts"]]
        return np.max(parts, axis=0)
    raise GridError(f"unknown support shape {kind!r}")


def _support_extent(support: dict, d: int):
    """Axis-aligned bounding box of the support, as (lo, hi) arrays."""
    kind = support["shape"]
    if kind == "box":
        return (np.asarray(support["lo"], float), np.asarray(support["hi"], float))
    if kind == "ball":
        c = np.asarray(support.get("center", np.zeros(d)), float)
        r = float(support["radius"])
        return (c - r, c + r)
    if kind == "annulus":
        c = np.asarray(support.get("center", np.zeros(d)), float)
        r = float(support["r_out"])
        return (c - r, c + r)
    if kind == "union":
        los, his = zip(*(_support_extent(s, d) for s in support["parts"]))
        return (np.min(los, axis=0), np.max(his, axis=0))
    raise GridError(f"unknown support shape {kind!r}")


def _check_margin(lo, hi, halfwidth, step, what):
    margin = MARGIN_CELLS * step
    lo_bound = -halfwidth + margin
    hi_bound = halfwidth - margin
    if np.any(lo < lo_bound) or np.any(hi > hi_bound):
        raise MarginError(
            f"{what} extent [{np.min(lo):.6g}, {np.max(hi):.6g}] violates the "
            f"{MARGIN_CELLS}-cell margin [{lo_bound:.6g}, {hi_bound:.6g}]"
        )


def sample_builtin(spec: dict, grid: Grid) -> SampledFunction:
    """Construct one of the built-in test inputs on `grid`.

    spec["kind"] selects the family:

    * "spectral_bump": smooth plateau bump prescribed on the frequency side
      (spec["support"]: box / ball / annulus / union of those, coordinates in
      frequency units), returned as the spatial-side function obtained by the
      inverse transform.  The exact frequency-side samples and the support
      descriptor are kept in meta.  spec["edge_width"] defaults to 1.5
      frequency cells.
    * "spatial_bump": the same plateau construction directly in x;
      spec["support"] in spatial units, edge width default 0.2 * the smallest
      half-extent.
    * "gaussian": exp(-|x-center|^2/(2 sigma^2)) * exp(i mu.x).

    Every support (for the gaussian: center +- 7.5 sigma, and |mu| on the
    frequency side) must stay inside its box with a 10-cell margin.
    """
    kind = spec.get("kind")
    if kind == "spectral_bump":
        support = spec["support"]
        lo, hi = _support_extent(support, grid.d)
        _check_margin(lo, hi, grid.frequency_halfwidth, grid.dlam, "spectral support")
        w = float(spec.get("edge_width", 1.5 * grid.dlam))
        # the bump is exactly 0 outside the support, so sample its bounding box only
        axis = grid.frequency_axis()
        cells = [np.flatnonzero((axis >= l) & (axis <= u)) for l, u in zip(lo, hi)]
        box = np.stack(np.meshgrid(*(axis[c] for c in cells), indexing="ij"), axis=-1)
        F = np.zeros(grid.n_points)
        F.reshape(grid.shape)[np.ix_(*cells)] = smooth_step(_support_distance(support, box) / w)
        from .transform import inverse_dft  # cycle-free: transform imports nothing here at runtime

        fun = SampledFunction(grid, FREQUENCY, F, label=spec.get("label", "spectral bump"))
        out = inverse_dft(fun)
        meta = {
            "kind": kind,
            "support": support,
            "edge_width": w,
            "freq_values": F,
            "boundary_max": float(
                np.abs(out.values[grid.boundary_frame(1)]).max()
                / max(np.abs(out.values).max(), 1e-300)
            ),
        }
        return out.with_values(out.values, label=fun.label, meta=meta)

    if kind == "spatial_bump":
        support = spec["support"]
        lo, hi = _support_extent(support, grid.d)
        _check_margin(lo, hi, grid.spatial_halfwidth, grid.h, "spatial support")
        half = np.min((np.asarray(hi) - np.asarray(lo)) / 2.0)
        w = float(spec.get("edge_width", 0.2 * half))
        f = smooth_step(_support_distance(support, grid.spatial_coords()) / w)
        meta = {"kind": kind, "support": support, "edge_width": w}
        return SampledFunction(grid, SPATIAL, f, label=spec.get("label", "spatial bump"), meta=meta)

    if kind == "gaussian":
        sigma = float(spec.get("sigma", 1.0))
        center = np.asarray(spec.get("center", np.zeros(grid.d)), dtype=float)
        mu = np.asarray(spec.get("mu", np.zeros(grid.d)), dtype=float)
        if sigma <= 0:
            raise GridError("gaussian sigma must be positive")
        reach = 7.5 * sigma  # tail below 1e-12 of the peak beyond this radius
        _check_margin(center - reach, center + reach, grid.spatial_halfwidth, grid.h,
                      "gaussian effective support (center +- 7.5 sigma)")
        _check_margin(mu, mu, grid.frequency_halfwidth, grid.dlam, "modulation frequency")
        x = grid.spatial_coords()
        f = np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * sigma ** 2))
        f = f * np.exp(1j * x @ mu)
        meta = {"kind": kind, "sigma": sigma, "center": center, "mu": mu}
        return SampledFunction(grid, SPATIAL, f, label=spec.get("label", "gaussian"), meta=meta)

    raise GridError(f"unknown builtin kind {spec.get('kind')!r}")
