"""Uniform periodic grids, sampled functions and discrete Lp norms.

The spatial box per axis is [-M*h/2, M*h/2) sampled at x_k = k*h for
k = -M/2 .. M/2-1; the dual frequency lattice is lam_k = 2*pi*k/(M*h) on
[-pi/h, pi/h).  All values are stored flat in row-major order over the
centered index, axis x1 first.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

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

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise GridError(f"values must be flat with length M^d = {self.grid.n_points}, "
                            f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise GridError("values must be finite (no NaN/Inf)")
        if self.side not in (SPATIAL, FREQUENCY):
            raise GridError(f"side must be '{SPATIAL}' or '{FREQUENCY}'")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values, label=None) -> "SampledFunction":
        return SampledFunction(self.grid, self.side, values, self.label if label is None else label)


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
    """(cell_measure * sum |values|^p)^(1/p); max |values| for p = inf: the
    lp_norm_moduli of |values| taken as one row."""
    return float(lp_norm_moduli(np.abs(values).ravel(order="K"), cell_measure, p))


def lp_norm_moduli(mag: np.ndarray, cell_measure: float, p) -> np.ndarray:
    """(cell_measure * sum mag^p)^(1/p) along the last axis of an array of
    moduli, max for p = inf: a float per row, shape mag.shape[:-1].

    For p other than 1 and 2 each row is divided by its maximum before the
    power, so a large finite p neither under- nor overflows (p = 1e7 agrees
    with p = inf), and a zero row gives 0.0.  p = 2 is summed unscaled: its
    range is that of the p = 2 ledgers summed by Parseval.  Every row is the
    one-row value bit for bit: the row sums are numpy's, and the root of each
    row is a scalar power, as numpy's vector ** differs from it in the last
    bit.
    """
    if np.isinf(p):
        return mag.max(axis=-1, initial=0.0)
    p = float(p)
    if p < 1:
        raise GridError(f"norm exponent p must be >= 1, got {p}")
    if p == 1.0:
        return cell_measure * np.sum(mag, axis=-1)
    if p == 2.0:
        sums = cell_measure * np.sum(mag ** p, axis=-1)
        return np.array([s ** 0.5 for s in sums.ravel().tolist()]).reshape(sums.shape)
    top = mag.max(axis=-1, initial=0.0, keepdims=True)
    sums = cell_measure * np.sum((mag / np.where(top == 0.0, 1.0, top)) ** p, axis=-1)
    roots = [t * s ** (1.0 / p) if t else 0.0
             for t, s in zip(top.ravel().tolist(), sums.ravel().tolist())]
    return np.array(roots).reshape(sums.shape)


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
    with np.errstate(over="ignore"):        # -1/sm = -inf for a tiny sm: exp gives 0
        g = np.exp(-1.0 / sm)
        g1 = np.exp(-1.0 / (1.0 - sm))
    out[mid] = g / (g + g1)
    return out


def _vector(value, d: int, name: str) -> np.ndarray:
    v = np.asarray(value, float)
    if v.shape != (d,):
        raise GridError(f"{name} needs d = {d} entries, got {value!r:.60}")
    return v


def _support(support: dict, d: int):
    """(lo, hi, distance) of a support descriptor, parsed once: its
    axis-aligned bounding box and the signed distance INTO the set (positive
    inside) as a function of points of shape (..., d).  GridError if the set
    has no interior, its shape is unknown or a vector has other than d entries."""
    kind = support["shape"]
    if kind == "box":
        lo, hi = (_vector(support[k], d, f"box {k}") for k in ("lo", "hi"))
        if not np.all(lo < hi):
            raise GridError(f"box needs lo < hi on every axis, got lo {lo}, hi {hi}")
        return lo, hi, lambda x: np.min(np.minimum(x - lo, hi - x), axis=-1)
    if kind == "ball":
        c = _vector(support.get("center", np.zeros(d)), d, "ball center")
        r = float(support["radius"])
        if not r > 0.0:
            raise GridError(f"ball radius must be positive, got {r!r}")
        return c - r, c + r, lambda x: r - np.linalg.norm(x - c, axis=-1)
    if kind == "annulus":
        c = _vector(support.get("center", np.zeros(d)), d, "annulus center")
        r, r_in = float(support["r_out"]), float(support["r_in"])
        if not r > max(r_in, 0.0):
            raise GridError(f"annulus needs r_out > max(r_in, 0), got {r_in!r}, {r!r}")

        def annulus(x):
            rad = np.linalg.norm(x - c, axis=-1)
            return np.minimum(r - rad, rad - r_in)
        return c - r, c + r, annulus
    if kind == "union":
        if not support["parts"]:
            raise GridError("a union needs at least one part")
        los, his, parts = zip(*(_support(s, d) for s in support["parts"]))
        return (np.min(los, axis=0), np.max(his, axis=0),
                lambda x: np.max([part(x) for part in parts], axis=0))
    raise GridError(f"unknown support shape {kind!r}")


def _edge_width(spec: dict, default: float) -> float:
    w = float(spec.get("edge_width", default))
    if not 0.0 < w < np.inf:
        raise GridError(f"edge_width must be positive and finite, got {w!r}")
    return w


def _plateau(distance, points, w) -> np.ndarray:
    with np.errstate(over="ignore"):        # a tiny w: distance / w = +-inf steps to 1 or 0
        return smooth_step(distance(points) / w)


def _check_margin(lo, hi, halfwidth, step, what):
    cells = round(halfwidth / step)             # M / 2 on either side
    if cells <= MARGIN_CELLS:
        raise MarginError(
            f"{what}: the grid has no room inside its {MARGIN_CELLS}-cell margin "
            f"(M = {2 * cells}; a builtin input needs M > {2 * MARGIN_CELLS})"
        )
    margin = MARGIN_CELLS * step
    lo_bound = -halfwidth + margin
    hi_bound = halfwidth - margin
    if np.any(lo < lo_bound) or np.any(hi > hi_bound):
        raise MarginError(
            f"{what} extent [{np.min(lo):.6g}, {np.max(hi):.6g}] violates the "
            f"{MARGIN_CELLS}-cell margin [{lo_bound:.6g}, {hi_bound:.6g}]"
        )


def sample_prescribed(spec: dict, grid: Grid) -> SampledFunction:
    """One of the built-in test inputs on `grid`, on the side it is prescribed on.

    spec["kind"] selects the family:

    * "spectral_bump": smooth plateau bump prescribed on the frequency side
      (spec["support"]: box / ball / annulus / union of those, coordinates in
      frequency units), returned as its samples on the frequency lattice.
      spec["edge_width"] defaults to 1.5 frequency cells.
    * "spatial_bump": the same plateau construction directly in x;
      spec["support"] in spatial units, edge width default 0.2 * the smallest
      half-extent.
    * "gaussian": exp(-|x-center|^2/(2 sigma^2)) * exp(i mu.x).

    Every support (for the gaussian: center +- 7.5 sigma, and |mu| on the
    frequency side) must stay inside its box with a 10-cell margin, and every
    vector (box lo and hi, a center, mu) needs d entries.
    """
    side, values, label = _samples(spec, grid)
    return SampledFunction(grid, side, values, label=label)


def sample_builtin(spec: dict, grid: Grid) -> SampledFunction:
    """The spatial side of `sample_prescribed(spec, grid)`: a spectral bump is
    the inverse transform of its frequency samples, any other kind is its
    spatial samples."""
    side, values, label = _samples(spec, grid)
    if side == FREQUENCY:
        from .transform import inverse_values  # cycle-free: transform imports nothing here at runtime

        values = inverse_values(values, grid)
    return SampledFunction(grid, SPATIAL, values, label=label)


def _samples(spec: dict, grid: Grid):
    """(side, values, label) of a built-in input, values on the side it is
    prescribed on."""
    kind = spec.get("kind")
    if kind == "spectral_bump":
        lo, hi, distance = _support(spec["support"], grid.d)
        _check_margin(lo, hi, grid.frequency_halfwidth, grid.dlam, "spectral support")
        w = _edge_width(spec, 1.5 * grid.dlam)
        # the bump is exactly 0 outside the support, so sample its bounding box only
        axis = grid.frequency_axis()
        cells = [np.flatnonzero((axis >= l) & (axis <= u)) for l, u in zip(lo, hi)]
        box = np.stack(np.meshgrid(*(axis[c] for c in cells), indexing="ij"), axis=-1)
        F = np.zeros(grid.n_points, dtype=complex)     # as SampledFunction keeps it: no copy
        F.reshape(grid.shape)[np.ix_(*cells)] = _plateau(distance, box, w)
        return FREQUENCY, F, spec.get("label", "spectral bump")

    if kind == "spatial_bump":
        lo, hi, distance = _support(spec["support"], grid.d)
        _check_margin(lo, hi, grid.spatial_halfwidth, grid.h, "spatial support")
        half = np.min(hi - lo) / 2.0
        w = _edge_width(spec, 0.2 * half)
        f = _plateau(distance, grid.spatial_coords(), w)
        return SPATIAL, f, spec.get("label", "spatial bump")

    if kind == "gaussian":
        sigma = float(spec.get("sigma", 1.0))
        center, mu = (_vector(spec.get(k, np.zeros(grid.d)), grid.d, f"gaussian {k}")
                      for k in ("center", "mu"))
        if sigma <= 0:
            raise GridError("gaussian sigma must be positive")
        # 2 sigma^2 that underflows to 0 gives 0/0 at the center, a subnormal
        # one overflows |x|^2 / (2 sigma^2) far from it
        if not np.finfo(float).tiny <= 2.0 * sigma * sigma < np.inf:
            raise GridError(f"gaussian sigma = {sigma!r}: 2 sigma^2 must be a positive "
                            "normal double")
        reach = 7.5 * sigma  # tail below 1e-12 of the peak beyond this radius
        _check_margin(center - reach, center + reach, grid.spatial_halfwidth, grid.h,
                      "gaussian effective support (center +- 7.5 sigma)")
        _check_margin(mu, mu, grid.frequency_halfwidth, grid.dlam, "modulation frequency")
        x = grid.spatial_coords()
        with np.errstate(over="ignore"):    # |x|^2 / (2 sigma^2) = inf: exp gives 0
            f = np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * sigma ** 2))
        return SPATIAL, f * np.exp(1j * x @ mu), spec.get("label", "gaussian")

    raise GridError(f"unknown builtin kind {spec.get('kind')!r}")
