"""Iterated application of P(d) and the growth statistics of its norms.

The engine realizes P(d)^n on the frequency side as multiplication by the
symbol restricted to the support mask, with a per-step renormalization by
s = max |P(i lam)| over the mask, so no intermediate value can overflow:
the ledger identity is  ||P(d)^n f||_p = exp(S) * ||g||_p  with S = n*log(s).

Every function here takes an input's `Spectrum` (transform and mask, built
once) in place of the spatial input, and iterates through one primitive,
`iterates`, which evaluates the symbol on the mask cells only.  Spatial
ledgers (p != 2, weighted sup norms) go through one `SpatialStep` each.

The restriction to the mask is deliberate: cells below the mask threshold sit
at double-precision noise levels, and any such cell with a larger symbol
modulus would overtake the signal after roughly ln(1e16)/ln(s_max/s_mask)
iterations.  For exactly-supported spectra (every plateau-bump input) the
restricted and unrestricted operators coincide.

Note on the Laplacian: the symbol calculus gives sup over the mask of
|-(|lam|^2)| = (mask radius)^2, so a growth limit of R for iterated Laplacians
locates the spectral support in the ball of radius sqrt(R) around the origin.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .grid import SampledFunction, SPATIAL, GridError, lp_norm
from .poly import MultiPoly, eval_symbol_many
from .transform import (DEFAULT_EPS_REL, Spectrum, SpatialStep, compute_R,
                        inverse_values)


class GrowthError(ValueError):
    pass


# ---------------------------------------------------------------------------
# limit estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitEstimate:
    """Limit of exp(L_n / n) extracted from a finite log-norm sequence."""

    limit: float
    secondary: float
    regime: str
    tail_window: int
    spread: float
    gap: float


def estimate_limit(log_norms) -> LimitEstimate:
    """Estimate lim exp(L_n/n) from L_n, n = 1..n_max (n_max >= 8).

    Step ratios r_n = L_n - L_{n-1} over the trailing three quarters are
    split into three equal windows.  Window medians classify the tail:

    * converged or geometrically decaying transient -> last-window median;
    * 1/n structure (the n^N polynomial envelope) -> Richardson extrapolation
      of the outer window medians against mean(1/n);
    * large in-window scatter -> median of the raw tail roots exp(L_n/n).

    The secondary estimate is the last consecutive ratio exp(L_n - L_{n-1});
    both are reported, the primary is the classified one.
    """
    L = np.asarray(log_norms, dtype=float)
    if L.ndim != 1 or L.size < 8:
        raise GrowthError("estimate_limit needs at least 8 log-norm entries")
    if not np.all(np.isfinite(L)):
        raise GrowthError("non-finite log-norms; truncate the sequence first")
    n_max = L.size
    n = np.arange(1, n_max + 1)
    roots = np.exp(L / n)
    tail_w = max(4, n_max // 4)
    tail_roots = roots[-tail_w:]
    spread = float(tail_roots.max() - tail_roots.min())
    secondary = float(np.exp(L[-1] - L[-2]))

    steps = np.diff(L)              # r_n for n = 2..n_max
    ns = n[1:]
    keep = ns >= max(n_max // 4, 2)
    rw, nw = steps[keep], ns[keep]
    k = len(rw) // 3
    k -= k % 2                      # even windows: alternating terms cancel in medians
    if k < 2:
        k = max(len(rw) // 3, 1)
    wins = [(rw[-3 * k:-2 * k], nw[-3 * k:-2 * k]),
            (rw[-2 * k:-k], nw[-2 * k:-k]),
            (rw[-k:], nw[-k:])]
    med = [float(np.median(w[0])) for w in wins]
    invn = [float(np.mean(1.0 / w[1])) for w in wins]
    # Even-window medians of the log steps cancel period-2 parity oscillation
    # exactly (they average the two middle values), so the trust statistic is
    # the scatter of consecutive-step pair sums, which is parity-invariant.
    pair = rw[:-1] + rw[1:]
    scatter = float(np.median(np.abs(pair - np.median(pair)))) if pair.size else 0.0

    if scatter > 0.5:
        primary, regime = float(np.median(tail_roots)), "noisy-tail-median"
    else:
        d21, d32 = med[1] - med[0], med[2] - med[1]
        if abs(d32) <= 0.35 * abs(d21) or abs(d21) < 1e-12:
            primary, regime = float(np.exp(med[2])), "geometric"
        else:
            a = (med[2] * invn[0] - med[0] * invn[2]) / (invn[0] - invn[2])
            primary, regime = float(np.exp(a)), "richardson"
    return LimitEstimate(primary, secondary, regime, tail_w, spread,
                         abs(primary - secondary))


# ---------------------------------------------------------------------------
# spectral application of P(d)
# ---------------------------------------------------------------------------

def iterates(spec: Spectrum, P, n_max: int):
    """Yield (n, S_n, G_n) for n = 1..n_max with P(d)^n f = exp(S_n) * g_n.

    G_n = F (P(i lam)/R)^n is the spectrum of g_n on the mask cells (in the
    order of spec.F[spec.mask.field]), S_n = n log R with R = max |P(i lam)|
    over the mask; nothing is yielded when R = 0.  G_n is updated in place.

    P may also be a sequence of polynomials, a stack of members: G_n is then
    a (members x mask cells) block with one row per member, S_n the vector of
    their n log R, and one multiply per n advances the whole stack.  A member
    with R = 0 keeps a zero row and log R = 0.
    """
    stacked = not isinstance(P, MultiPoly)
    polys = P if stacked else [P]
    R = np.zeros(len(polys))
    ratio = np.zeros((len(polys), spec.coords.shape[0]), dtype=complex)
    for k, member in enumerate(polys):
        if member.d != spec.grid.d:
            raise GridError("polynomial dimension mismatch")
        sym = eval_symbol_many(member, spec.coords)
        R[k] = np.abs(sym).max(initial=0.0)
        if R[k] > 0.0:
            ratio[k] = sym / float(R[k])
    if not stacked and R[0] == 0.0:
        return
    logR = np.log(R, out=np.zeros_like(R), where=R > 0.0)
    G = np.tile(spec.F[spec.mask.field], (len(R), 1))
    rows, logR = (G, logR) if stacked else (G[0], logR[0])
    for n in range(1, n_max + 1):
        np.multiply(G, ratio, out=G)
        yield n, n * logR, rows


def apply_op_spectral(f, P: MultiPoly, n: int,
                      eps_rel: float = DEFAULT_EPS_REL):
    """Apply P(d)^n spectrally; returns (g, S) with P(d)^n f = exp(S) * g.

    f is a spatial-side SampledFunction or its Spectrum.  Realized as
    multiplication by (P(i lam)/s)^n on the support mask with
    s = max |P(i lam)| over the mask, S = n log s.  An empty mask (or a symbol
    vanishing on it) returns the zero function with S = 0.
    """
    if n < 1:
        raise GrowthError(f"iteration count must be >= 1, got {n}")
    spec = Spectrum.of(f, eps_rel)
    last = None
    for last in iterates(spec, P, n):
        pass
    G = np.zeros(spec.grid.n_points, dtype=complex)
    if last is None:
        return spec.f.with_values(G, label=f"{P}^{n} (zero)"), 0.0
    G[spec.mask.field] = last[2]
    return (SampledFunction(spec.grid, SPATIAL, inverse_values(G, spec.grid),
                            label=spec.f.label,
                            meta={"op": str(P), "n": n, "resolved": spec.mask.resolved}),
            float(last[1]))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

_FD_WEIGHTS = {
    2: np.array([1.0 / 2.0]),
    4: np.array([2.0 / 3.0, -1.0 / 12.0]),
    6: np.array([3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0]),
    8: np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0]),
}


def _fd_axis_derivative(u: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    w = _FD_WEIGHTS[order]
    out = np.zeros_like(u)
    for k, wk in enumerate(w, start=1):
        out += wk * (np.roll(u, -k, axis=axis) - np.roll(u, k, axis=axis))
    return out / h


def apply_op_fd(f: SampledFunction, P: MultiPoly,
                stencil_order: int = 8) -> SampledFunction:
    """P(d) f by centered finite differences with periodic wrap.

    Mixed and repeated partials compose the first-derivative stencil, which
    preserves the accuracy order.  Independent of the spectral path, so the
    two can cross-check each other.
    """
    if stencil_order not in _FD_WEIGHTS:
        raise GrowthError(f"stencil_order must be one of {sorted(_FD_WEIGHTS)}")
    if f.side != SPATIAL:
        raise GridError("apply_op_fd expects a spatial-side function")
    if P.d != f.grid.d:
        raise GridError("polynomial dimension mismatch")
    shape = f.grid.shape
    base = f.values.reshape(shape)
    out = np.zeros(shape, dtype=complex)
    for alpha, c in P.coeffs.items():
        term = base
        for axis, power in enumerate(alpha):
            for _ in range(power):
                term = _fd_axis_derivative(term, axis, f.grid.h, stencil_order)
        out = out + c * term
    return f.with_values(out.ravel(), label=f"{P} (fd{stencil_order}) {f.label}")


# ---------------------------------------------------------------------------
# growth sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthSequence:
    """Per-n log-norm ledger of ||P(d)^n f||_p and its limit estimate."""

    P: MultiPoly
    p: float
    n_max: int
    L: np.ndarray
    roots: np.ndarray
    step_factors: np.ndarray
    limit: float
    secondary: float
    regime: str
    tail_window: int
    spread: float
    method: str
    resolved: bool
    truncated_at: int | None = None

    def to_json_dict(self):
        return {
            "P": self.P.to_text(),
            "p": "inf" if np.isinf(self.p) else self.p,
            "n_max": self.n_max,
            "L": [float(v) for v in self.L],
            "roots": [float(v) for v in self.roots],
            "limit": self.limit,
            "spread": self.spread,
            "method": self.method,
            "secondary": self.secondary,
            "regime": self.regime,
            "tail_window": self.tail_window,
            "resolved": self.resolved,
            "truncated_at": self.truncated_at,
        }


def growth_sequence(f, P: MultiPoly, p, n_max: int,
                    method: str = "spectral",
                    eps_rel: float = DEFAULT_EPS_REL) -> GrowthSequence:
    """Ledger L_n = log ||P(d)^n f||_p for n = 1..n_max plus the limit estimate.

    f is a spatial-side SampledFunction or its Spectrum.  p = 2 avoids the
    per-step inverse transform: the spatial 2-norm equals the frequency-side
    2-norm under the grid measures (discrete Parseval), so the ledger is
    summed directly on the mask cells.  This is growth_sequences for one P.
    """
    return next(growth_sequences(f, [P], p, n_max, method, eps_rel))


def growth_sequences(f, polys, p, n_max: int, method: str = "spectral",
                     eps_rel: float = DEFAULT_EPS_REL):
    """growth_sequence(f, P, p, n_max, method, eps_rel) for each P of polys,
    in order, each built when it is consumed.

    The spectral p = 2 ledgers run as one batch: members go through
    `iterates` in stacks of at most n_points // (mask cells), so one multiply
    per n serves a stack and its 2-norms are one row sum.
    """
    if n_max < 8:
        raise GrowthError(f"n_max must be >= 8, got {n_max}")
    if not np.isinf(p) and not p >= 1:
        raise GrowthError(f"p must be in [1, inf], got {p}")
    if method not in ("spectral", "finite-difference"):
        raise GrowthError(f"unknown method {method!r}")
    spec = Spectrum.of(f, eps_rel)
    polys = tuple(polys)
    resolved = spec.mask.resolved
    if method == "spectral" and p == 2:
        size = max(1, spec.grid.n_points // max(1, spec.coords.shape[0]))
        n = np.arange(1, n_max + 1)
        for start in range(0, len(polys), size):
            stack = polys[start:start + size]
            for P, logR, nrm in zip(stack, *_parseval_norms(spec, stack, n_max)):
                yield _ledger(P, p, n_max, n * logR, nrm, method, resolved)
        return
    step = SpatialStep(spec) if method == "spectral" else None
    for P in polys:
        if step is None:
            norms = _fd_norms(spec.f, P, p, n_max)
        else:
            norms = ((n, S, step.norm(step(G), p)) for n, S, G in iterates(spec, P, n_max))
        yield _ledger(P, p, n_max, *_cut(norms), method, resolved)


def _parseval_norms(spec: Spectrum, polys, n_max: int):
    """(log R, norms) of a stack of members: S_1 = log R per member and the
    (members x n_max) 2-norms ||g_n||_2, summed on the mask cells."""
    sums = np.empty((len(polys), n_max))
    for n, S, G in iterates(spec, polys, n_max):
        if n == 1:
            logR = S
        sums[:, n - 1] = np.sum(np.abs(G) ** 2, axis=1)
    sums *= spec.grid.dlam ** spec.grid.d
    return logR, np.sqrt(sums, out=sums)


def _cut(norms):
    """(S, norms) arrays of a lazy ledger, ending at its first norm that is
    not > 0 or not finite; no later step is computed."""
    S, nrm = [], []
    for _, s, r in norms:
        S.append(s)
        nrm.append(r)
        if not (r > 0.0 and np.isfinite(r)):
            break
    return np.array(S, dtype=float), np.array(nrm, dtype=float)


def _ledger(P, p, n_max, S, nrm, method, resolved) -> GrowthSequence:
    """The GrowthSequence of ledger terms S_n and ||g_n||_p, n = 1, 2, ...:
    L_n = S_n + log ||g_n||_p up to the first norm that is not > 0 or not
    finite, where the ledger is truncated."""
    bad = ~((nrm > 0.0) & np.isfinite(nrm))
    k = int(bad.argmax()) if bad.any() else nrm.size
    truncated_at = k + 1 if k < nrm.size else None
    L = S[:k] + np.log(nrm[:k])
    if L.size == 0:
        return GrowthSequence(P, p, n_max, L, L, L, 0.0, 0.0, "zero", 0, 0.0, method,
                              resolved, truncated_at=1)
    n = np.arange(1, L.size + 1)
    roots = np.exp(L / n)
    steps = np.exp(np.diff(L)) if L.size > 1 else np.array([])
    if L.size >= 8:
        est = estimate_limit(L)
        limit, secondary, regime = est.limit, est.secondary, est.regime
        tail_w, spread = est.tail_window, est.spread
    else:
        # truncated too early for the estimator: report the last root
        limit, secondary, regime = float(roots[-1]), float(roots[-1]), "truncated"
        tail_w, spread = L.size, float(roots.max() - roots.min())
    return GrowthSequence(P, p, n_max, L, roots, steps, limit, secondary, regime,
                          tail_w, spread, method, resolved, truncated_at)


def _fd_norms(f, P, p, n_max, stencil_order=8):
    """(n, S_n, ||g_n||_p) for finite-difference iterates renormalized each step."""
    u, S = f, 0.0
    for n in range(1, n_max + 1):
        u = apply_op_fd(u, P, stencil_order)
        r = lp_norm(u, p)
        yield n, S, r
        S += np.log(r)
        u = u.with_values(u.values / r)


# ---------------------------------------------------------------------------
# liminf check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiminfReport:
    """Finite-n probe of liminf ||P(d)^n f||^{1/n} >= R(P, Ff).

    The sustained tail growth rate (median of the trailing step factors) is
    compared against R - tol*R.  Minima of both root families are reported;
    the raw-root minimum carries an O(|log C|/n) finite-n offset and the
    step-factor minimum dips on parity-oscillating spectra, so neither is the
    pass/fail statistic.  A failed bound is a returned report, not an error.
    """

    R: float
    resolved: bool
    tol: float
    step_median: float
    step_min: float
    root_min: float
    margin: float
    passed: bool

    def to_json_dict(self):
        return {k: getattr(self, k) for k in
                ("R", "resolved", "tol", "step_median", "step_min", "root_min",
                 "margin", "passed")}


def liminf_check(f, P: MultiPoly, p, n_max: int,
                 tol: float = 0.02,
                 eps_rel: float = DEFAULT_EPS_REL) -> LiminfReport:
    spec = Spectrum.of(f, eps_rel)
    seq = growth_sequence(spec, P, p, n_max, eps_rel=eps_rel)
    R, resolved = compute_R(P, spec.mask)
    if seq.L.size == 0 or R == 0.0:
        return LiminfReport(R, resolved, tol, 0.0, 0.0, 0.0, 0.0, True)
    tail_w = seq.tail_window
    steps_tail = seq.step_factors[-tail_w:]
    roots_tail = seq.roots[-tail_w:]
    step_median = float(np.median(steps_tail))
    threshold = R * (1.0 - tol)
    margin = step_median - threshold
    return LiminfReport(R, resolved, tol, step_median, float(steps_tail.min()),
                        float(roots_tail.min()), float(margin), bool(margin >= 0))


# ---------------------------------------------------------------------------
# pointwise growth (weighted sup norms)
# ---------------------------------------------------------------------------

def _weighted_sup_logs(f, P, n_max, eps_rel, exponents) -> np.ndarray:
    """Row per exponent e: log max_x |P(d)^n f(x)| (1+|x|)^e for n = 1.. up to
    the first vanishing iterate."""
    spec = Spectrum.of(f, eps_rel)
    step = SpatialStep(spec)
    absx = np.linalg.norm(spec.grid.spatial_coords(), axis=-1)
    weights = [step.fft_order((1.0 + absx) ** e) for e in exponents]
    rows = []
    for n, S, G in iterates(spec, P, n_max):
        g = step(G)
        tops = [step.norm(g * w, np.inf) for w in weights]
        if tops[0] <= 0:
            break
        rows.append([S + np.log(top) for top in tops])
    return np.array(rows).reshape(-1, len(exponents)).T


@dataclass(frozen=True)
class PointwiseGrowthReport:
    """Weighted sup-norm ledger W_n and the growth base extracted from it.

    mode="decay": W_n = sup |P(d)^n f(x)| (1+|x|)^{+N}  (Schwartz envelope
    C n^N R^n (1+|x|)^{-N} with the weight moved across);
    mode="growth": W_n = sup |P(d)^n f(x)| (1+|x|)^{-N}  (order-N distribution
    envelope C n^N R^n (1+|x|)^{+N}).
    """

    N: int
    mode: str
    log_W: np.ndarray
    rtilde: float
    admissible: bool
    regime: str

    @property
    def W(self):
        with np.errstate(over="ignore"):
            return np.exp(self.log_W)

    def to_json_dict(self):
        return {"N": self.N, "mode": self.mode,
                "log_W": [float(v) for v in self.log_W],
                "rtilde": self.rtilde, "admissible": self.admissible,
                "regime": self.regime}


def pointwise_growth(f, P: MultiPoly, N: int, n_max: int,
                     mode: str = "growth",
                     eps_rel: float = DEFAULT_EPS_REL) -> PointwiseGrowthReport:
    if N < 0:
        raise GrowthError("weight exponent N must be >= 0")
    if n_max < 8:
        raise GrowthError("n_max must be >= 8")
    if mode not in ("decay", "growth"):
        raise GrowthError("mode must be 'decay' or 'growth'")
    log_W, = _weighted_sup_logs(f, P, n_max, eps_rel, [N if mode == "decay" else -N])
    if not log_W.size:
        return PointwiseGrowthReport(N, mode, log_W, 0.0, True, "zero")
    est = estimate_limit(log_W) if log_W.size >= 8 else None
    rtilde = est.limit if est else float(np.exp(log_W[-1] / log_W.size))
    regime = est.regime if est else "truncated"
    # bounded iff log(W_n / (n^N rtilde^n)) shows no upward trend at the end
    n = np.arange(1, log_W.size + 1)
    ratio = log_W - N * np.log(n) - n * np.log(max(rtilde, 1e-300))
    q = max(2, log_W.size // 4)
    trend = float(np.mean(np.diff(ratio[-q:]))) if log_W.size > q else 0.0
    admissible = bool(np.isfinite(rtilde) and trend <= 0.01)
    return PointwiseGrowthReport(N, mode, log_W, float(rtilde), admissible, regime)


@dataclass(frozen=True)
class SchwartzDecayReport:
    """Running check of |P(d)^n f(x)| <= C n^N R^n (1+|x|)^{-N}.

    C_star is the largest constant the data demands up to n_max.  When the
    claimed R is admissible the running maximum plateaus; when R is below the
    true growth base it keeps climbing geometrically.  phi_sup_log is the
    canonical existence functional sup_n phi(n) ||(1+|x|)^{d+1} P(d)^n f||_inf
    with phi(n) = R^{-n} n^{-d-1}.
    """

    R: float
    N: int
    per_n_log: np.ndarray
    C_star: float
    ratio_last_quarter: float
    plateaued: bool
    phi_sup_log: float

    def to_json_dict(self):
        return {"R": self.R, "N": self.N, "C_star": self.C_star,
                "ratio_last_quarter": self.ratio_last_quarter,
                "plateaued": self.plateaued, "phi_sup_log": self.phi_sup_log,
                "per_n_log": [float(v) for v in self.per_n_log]}


def schwartz_decay_check(f, P: MultiPoly, R: float, N: int,
                         n_max: int,
                         eps_rel: float = DEFAULT_EPS_REL) -> SchwartzDecayReport:
    if R <= 0:
        raise GrowthError("claimed bound R must be positive")
    d = f.grid.d
    W_N, W_phi = _weighted_sup_logs(f, P, n_max, eps_rel, [N, d + 1])
    if not W_N.size:
        return SchwartzDecayReport(R, N, W_N, 0.0, 1.0, True, -np.inf)
    n = np.arange(1, W_N.size + 1)
    per_n = W_N - N * np.log(n) - n * np.log(R)
    phi_logs = W_phi - n * np.log(R) - (d + 1) * np.log(n)
    c_star_log = float(per_n.max())
    q = max(1, per_n.size // 4)
    early_max = float(per_n[:-q].max()) if per_n.size > q else c_star_log
    ratio = float(np.exp(c_star_log - early_max))
    return SchwartzDecayReport(R, N, per_n, float(np.exp(c_star_log)), ratio,
                               bool(ratio <= 1.1), float(np.max(phi_logs)))
