"""Iterated application of P(d) and the growth statistics of its norms.

The engine realizes P(d)^n on the frequency side as multiplication by the
symbol restricted to the support mask, with a per-step renormalization by
s = max |P(i lam)| over the mask, so no intermediate value can overflow:
the ledger identity is  ||P(d)^n f||_p = exp(S) * ||g||_p  with S = n*log(s).

Every function here takes an input's `Spectrum` (transform and mask, built
once) in place of the input, and reads each symbol through
`symbol_ratios`, which evaluates it on the mask cells only.  Every ledger
comes from one pass, `spatial_norms`, one (R, two, rows) per member, which
runs each stack of members in two plain loops.  The moment loop runs over n
and forms every member's Parseval 2-norm row (the p = 2 ledgers) from the
moments m_n = sum_j |F_j|^2 t_j^n, t_j = |P(i lam_j)/R|^2, on the mask cells.
The spatial loop runs member by member and reads every spatial norm a caller
asks for (the p != 2 ledgers, the weighted sup norms) from one `SpatialStep`
output per n, or per pair (n, n + 1) when the member's iterates are all real,
taking each output's moduli once for all its norms, into one array of
values per member that one vectorised rule cuts into rows.  The step is the
inverse DFT of the mask cells, by a pruned ifft along axes whose mask
occupies many frequencies and by a matrix product along the others (every
axis of the d = 2 acceptance inputs).  A step call takes a chunk of up to
`SpatialStep.rows` consecutive transforms, one on a grid of d >= 2, and
each norm of the chunk is one row-wise reduction.  Real iterates need that the mask is resolved and closed under
lam -> -lam, F is Hermitian on it to HERMITIAN_TOL of max |F|, and P has
real coefficients.  Then one transform of G_n + i G_(n+1) gives g_n as its
real part and g_(n+1) as its imaginary part.
On a grid of SPLIT_MIN_POINTS or more, in a process that may run on two or
more CPUs, the spatial loop splits each member's n-range in two: the caller
steps n = 1..h, h = n_max // 2 rounded down to even, and one helper thread,
with its own step, steps n = h + 1..n_max from G_h and returns its array of
values, which follows the caller's; one helper pool serves the whole call.
Its rows are bit-equal to the serial loop's.  An input is masked at
DEFAULT_EPS_REL; a Spectrum carries its own threshold, so another one is
chosen with Spectrum.of(f, eps_rel).

Every ledger kind, the p-norm and Parseval rows of a GrowthSequence and the
weighted sup rows of a PointwiseGrowthReport, becomes a limit through one
path, `_estimates`: one `estimate_limits` call (which works along the rows of
a stack of ledgers of one length) per length of 8 or more, the last root
exp(L_n/n) for a shorter ledger ("truncated"), 0 for an empty one ("zero").
GrowthSequence.from_rows runs it once for all its rows, so growth_sequences
pays one estimator call per ledger length of the family, not one per
member.  A GrowthSequence stores its ledger L; its roots and step factors
are derived from L when they are read.

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

import contextlib
import operator
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from dataclasses import dataclass

from .grid import SampledFunction, SPATIAL, GridError
from .poly import MultiPoly, PolyFamily, eval_symbol_many, family_explicit
from .transform import Spectrum, SpatialStep, inverse_values


class GrowthError(ValueError):
    pass


# spatial_norms pairs real iterates only on spectra Hermitian to this share of max |F|
HERMITIAN_TOL = 1e-12

# spatial_norms splits a member's n-range across a helper thread on grids of at
# least this many points.  Split over serial time per member (x1, p = 1,
# n_max = 64, one BLAS thread, 2-vCPU VM, medians of 25 alternating runs, two
# rounds): 1.18 and 1.18 on the 128^2 ball (3.7-4.0 ms serial), 1.12 and 0.95
# on the 256^2 ball (11.5-12.7 ms), 0.85 and 0.57 on a 2^16-point interval
# (60 ms); a thread's start and its handoffs of the GIL outweigh a small step
SPLIT_MIN_POINTS = 2 ** 15


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


def estimate_limits(log_norms) -> list:
    """A LimitEstimate of lim exp(L_n/n) per row of a (ledgers, n_max) array
    of L_n, n = 1..n_max (n_max >= 8), in row order.

    Step ratios r_n = L_n - L_{n-1} over the trailing three quarters are
    split into three equal windows.  Window medians classify the tail:

    * converged or geometrically decaying transient -> last-window median;
    * 1/n structure (the n^N polynomial envelope) -> Richardson extrapolation
      of the outer window medians against mean(1/n);
    * large in-window scatter -> median of the raw tail roots exp(L_n/n).

    The secondary estimate is the last consecutive ratio exp(L_n - L_{n-1});
    both are reported, the primary is the classified one.  Every statistic is
    taken along the rows, so a stack of ledgers costs one pass of small-array
    calls, not one per ledger.
    """
    L = np.asarray(log_norms, dtype=float)
    if L.ndim != 2 or L.shape[1] < 8:
        raise GrowthError("estimate_limits needs a (ledgers, n_max) array with n_max >= 8")
    if not np.all(np.isfinite(L)):
        raise GrowthError("non-finite log-norms; truncate the sequence first")
    n_max = L.shape[1]
    tail_w = max(4, n_max // 4)
    tail_roots = np.exp(L[:, -tail_w:] / np.arange(n_max - tail_w + 1, n_max + 1))
    spread = tail_roots.max(axis=1) - tail_roots.min(axis=1)
    secondary = np.exp(L[:, -1] - L[:, -2])

    first = max(n_max // 4, 2)      # r_n for n = first..n_max
    rw, nw = np.diff(L[:, first - 2:], axis=1), np.arange(first, n_max + 1)
    k = rw.shape[1] // 3
    k -= k % 2                      # even windows: alternating terms cancel in medians
    wins = [slice(-3 * k, -2 * k), slice(-2 * k, -k), slice(-k, None)]
    invn = [float(np.mean(1.0 / nw[w])) for w in wins]
    # Even-window medians of the log steps cancel period-2 parity oscillation
    # exactly (they average the two middle values), so the trust statistic is
    # the scatter of consecutive-step pair sums, which is parity-invariant.
    # A median does not read the order of its row, so each one partitions its
    # temporary in place, not a copy; the window medians come after pair,
    # which reads rw in order.
    pair = rw[:, :-1] + rw[:, 1:]
    pair -= np.median(pair, axis=1, keepdims=True, overwrite_input=True)
    scatter = np.median(np.abs(pair, out=pair), axis=1, overwrite_input=True)
    med = [np.median(rw[:, w], axis=1, overwrite_input=True) for w in wins]

    noisy = scatter > 0.5
    d21, d32 = med[1] - med[0], med[2] - med[1]
    geometric = (np.abs(d32) <= 0.35 * np.abs(d21)) | (np.abs(d21) < 1e-12)
    richardson = (med[2] * invn[0] - med[0] * invn[2]) / (invn[0] - invn[2])
    primary = np.median(tail_roots, axis=1, overwrite_input=True)
    np.exp(np.where(geometric, med[2], richardson), out=primary, where=~noisy)
    regime = np.where(noisy, "noisy-tail-median", np.where(geometric, "geometric", "richardson"))
    return [LimitEstimate(a, b, r, tail_w, s, abs(a - b)) for a, b, r, s in
            zip(primary.tolist(), secondary.tolist(), regime.tolist(), spread.tolist())]


def estimate_limit(log_norms) -> LimitEstimate:
    """estimate_limits of one ledger L_n, n = 1..n_max (n_max >= 8)."""
    L = np.asarray(log_norms, dtype=float)
    if L.ndim != 1 or L.size < 8:
        raise GrowthError("estimate_limit takes one ledger of at least 8 entries; "
                          "estimate_limits a stack")
    return _estimates([L])[0]


# ---------------------------------------------------------------------------
# spectral application of P(d)
# ---------------------------------------------------------------------------

def symbol_ratios(spec: Spectrum, family: PolyFamily):
    """(R, ratio) of the stack of members P of family, from one symbol block
    of the stack: the one place a ledger's symbol is evaluated.

    R is the vector of max |P(i lam)| over the mask cells; ratio is the block
    over R, a row P(i lam)/R per member (a zero row for R = 0) on the mask
    cells in the order of spec.F[spec.mask.field].  P(d)^n f = exp(n log R)
    g_n, and F ratio^n is the spectrum of g_n on the mask cells.  A symbol
    that overflows a double on the mask raises GrowthError.
    """
    ratio = eval_symbol_many(family, spec.coords)
    R = np.abs(ratio).max(axis=1, initial=0.0)
    bad = np.flatnonzero(~np.isfinite(R))
    if bad.size:
        raise GrowthError(f"{family[bad[0]].to_text():.60}: |P(i lam)| on the mask "
                          "exceeds the double range")
    np.divide(ratio, R[:, None], out=ratio, where=R[:, None] > 0.0)   # R = 0: a zero row
    return R, ratio


def apply_op_spectral(f, P: MultiPoly, n: int):
    """Apply P(d)^n spectrally; returns (g, S) with P(d)^n f = exp(S) * g.

    f is a SampledFunction on either side, or its Spectrum.  Realized as
    multiplication by (P(i lam)/s)^n on the support mask with
    s = max |P(i lam)| over the mask, S = n log s.  An empty mask (or a symbol
    vanishing on it) returns the zero function with S = 0.
    """
    n = _count("iteration count", n, 1)
    spec = Spectrum.of(f)
    (R,), (ratio,) = symbol_ratios(spec, family_explicit([P]))
    row = spec.F[spec.mask.field]               # a copy, stepped in place
    for _ in range(n):
        np.multiply(row, ratio, out=row)
    G = np.zeros(spec.grid.n_points, dtype=complex)
    G[spec.mask.field] = row
    return (SampledFunction(spec.grid, SPATIAL, inverse_values(G, spec.grid), label=spec.f.label),
            float(n * np.log(R)) if R > 0.0 else 0.0)


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
    # accumulated in place: the float operations of out += wk * (roll(-k) -
    # roll(k)), with two grid-sized temporaries per term where that made four
    out = np.zeros_like(u)
    for k, wk in enumerate(_FD_WEIGHTS[order], start=1):
        step = np.roll(u, -k, axis=axis)
        step -= np.roll(u, k, axis=axis)
        step *= wk
        out += step
    out /= h
    return out


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
        out += c * term
    return f.with_values(out.ravel(), label=f"{P} (fd{stencil_order}) {f.label}")


# ---------------------------------------------------------------------------
# spatial norms of the iterates
# ---------------------------------------------------------------------------

def spatial_norms(f, family: PolyFamily, n_max: int, norms):
    """The one ledger pass: the list of each member's (R, two, rows), in
    family order.  f is a SampledFunction on either side, or its Spectrum.

    Members go through `symbol_ratios` in stacks of at most n_points //
    (mask cells), so a (members x mask cells) block holds at most n_points
    values; each stack runs in two plain loops, and no caller sees it.  R
    is the member's max |P(i lam)| over the mask, and every row holds the
    norms of g_n, n = 1, 2, ..., whose ledger is L_n = n log R + log of the
    row's value.

    The moment loop runs over n: two is the Parseval row ||g_n||_2 =
    sqrt(dlam^d m_n), n = 1..n_max, of the moments m_n = sum_j w_j t_j^n,
    w_j = |F_j|^2 and t_j = |P(i lam_j)/R|^2 on the mask cells: a real block
    multiplied by t in place, one row sum per n.  two is checked by its
    reader.

    The spatial loop runs member by member over the members with R > 0; with
    no norms it is empty and no step is built.  The member's complex row
    G_n = F (P(i lam)/R)^n is multiplied in place once per n.  rows[k] is
    the row of norms[k], a list of (p, e): the Riemann-sum Lp norm
    ||(1+|x|)^e g_n||_p, p in [1, inf], of one `SpatialStep` output per n
    (within rounding of ifftn's, bit-equal to it where every axis takes the
    ifft pass), cut at (and ending with) its first value that is not > 0.
    A spatial value that is not finite before that point raises GrowthError
    naming P, p and n: for the first member in family order that overflows,
    at its least such n, and at that n for its first such norm.  A member's
    values come as one (n, norms) array, which one vectorised rule cuts
    into its rows.  The moduli of an output are taken once for all its
    norms: a weighted norm reads |g| w of a real iterate (bit-equal to
    |g w|, w being positive) and |g w| of a complex one.

    The member's transforms go in chunks of min(n_max, step.rows) rows
    (one row on a grid of d >= 2), each transformed by one `SpatialStep`
    call, each row bit-equal to its one-row transform, and each norm of a
    chunk is one reduction along its rows: the rows, their ends and a
    GrowthError are those of one transform per call.  No chunk is stepped
    once every norm has met a value that is not finite or not > 0.

    A member pairs when its iterates are all real: (1) the mask is
    resolved, as a cell on a Nyquist plane is its own mirror and there
    P(i lam) is not real; (2) the mask cells are closed under lam -> -lam;
    (3) F is Hermitian on them to HERMITIAN_TOL of max |F|; (4) every
    coefficient of P is real.  The spectrum's half is decided once per call.
    With two or more unread n, a paired member computes G_(n+1) into a
    second row, and one step of G_n + i G_(n+1) gives the norms of n (its
    real part), then of n + 1 (its imaginary part), each its own row of
    values; with one n left it steps alone.  Paired rows match the unpaired
    ones to rounding.

    On a grid of at least SPLIT_MIN_POINTS points, when the process may run
    on two or more CPUs (its affinity, or os.cpu_count()), each member with
    R > 0 is split in two.  The caller steps n = 1..h, h = n_max // 2
    rounded down to even, while one helper thread runs `_values`, which sets
    its own np.errstate, as the caller does: it steps n = h + 1..n_max on its
    own SpatialStep and buffers, from G_h built by h in-place multiplies of
    F, the float operations of the serial loop, and, h being even, its pairs
    (n, n + 1).  The helper's array of every norm follows the caller's, so
    the rows, their ends and a GrowthError are those of the serial loop.
    The helper is not told to stop: once the caller's half cuts every row or
    overflows, it still steps its own half, whose values the cut then
    discards.  One pool of one thread serves every member of the call, and
    the call joins it before it returns or raises.
    """
    n_max = _count("n_max", n_max, 0)
    for p, e in norms:
        if not (p >= 1 and np.isfinite(e)):
            raise GrowthError(f"norm (p, e) = ({p}, {e}): p must be in [1, inf], e finite")
    spec = Spectrum.of(f)
    F = spec.F[spec.mask.field]
    real, split = False, 0
    if norms:
        step = SpatialStep(spec)
        if any(e for _, e in norms):
            absx = np.linalg.norm(spec.grid.spatial_coords(), axis=-1)
        weights = [step.fft_order((1.0 + absx) ** e).ravel() if e else None for _, e in norms]
        real = _real_iterates(spec)
        chunk = min(n_max, step.rows)
        # the mask-cell rows of a chunk, and the moduli of its outputs
        bufs = np.empty((2 + chunk, F.size), dtype=complex)
        mag = np.empty((chunk, spec.grid.n_points))
        if spec.grid.n_points >= SPLIT_MIN_POINTS and _cpus() >= 2:
            split = n_max // 2 - n_max // 2 % 2     # h: the caller steps n = 1..h
        if split:
            helper = SpatialStep(spec), np.empty_like(bufs), np.empty_like(mag)
    out, size = [], max(1, spec.grid.n_points // max(1, F.size))
    # the helper thread lives within the call: the pool's exit joins it
    with (ThreadPoolExecutor(1) if split else contextlib.nullcontext()) as pool, \
            np.errstate(over="ignore", invalid="ignore"):   # two's overflow: checked by its reader
        for start in range(0, len(family), size):
            stack = family[start:start + size]
            # sums, which the returned rows keep alive, come before the stack's
            # blocks, and the blocks are freed before the next stack's: sums
            # the other way round cost each later reconstruct-twobox job
            # ~1 500 page faults (6 MB)
            sums = np.empty((len(stack), n_max))
            R, ratio = symbol_ratios(spec, stack)
            rows = [[np.zeros(0)] * len(norms)] * len(stack)
            t = ratio.real ** 2 + ratio.imag ** 2           # t_j = |P(i lam_j)/R|^2
            W = np.square(np.abs(ratio) * np.abs(F))       # w_j t_j
            for n in range(1, n_max + 1):
                if n > 1:
                    W *= t
                np.sum(W, axis=1, out=sums[:, n - 1])   # the moment sum_j w_j t_j^n
            for m in np.flatnonzero(R > 0.0).tolist() if norms else ():
                r, paired = ratio[m], real and not stack.coeffs[m].imag.any()
                tail = pool.submit(_values, *helper, F, r, split, n_max, paired, norms,
                                   weights) if split else None
                values = _values(step, bufs, mag, F, r, 0, split or n_max, paired, norms, weights)
                if tail:                            # an error in the helper raises
                    values = np.concatenate((values, tail.result()))
                rows[m] = _cut(stack, m, norms, values)
            ratio = W = t = None
            sums *= spec.grid.dlam ** spec.grid.d
            np.sqrt(sums, out=sums)
            out += [(float(R[m]), sums[m], rows[m]) for m in range(len(stack))]
    return out


def _count(name, v, least) -> int:
    """v as an int: a non-boolean integer (numpy's too) >= least, else GrowthError."""
    if isinstance(v, bool) or not hasattr(v, "__index__") or operator.index(v) < least:
        raise GrowthError(f"{name} must be an integer >= {least}, got {v!r}")
    return operator.index(v)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity, or os.cpu_count() where
    the platform has no sched_getaffinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read(step, mag, g, count, real, norms, weights) -> np.ndarray:
    """The (count, len(norms)) array of every norm of each of the count
    iterates that the stack g of one step call's outputs holds, a row per
    iterate in order: the rows of g, or, with real, the real and then the
    imaginary part of each row.  Their moduli are taken once, into the rows
    of mag, overwritten: a weighted norm reads |g| w of a real iterate,
    |g w| of a complex one."""
    g = g.reshape(len(g), -1)
    parts, mag = (g.real, g.imag) if real else (g,), mag[:len(g)]
    values = np.empty((len(g), len(parts), len(norms)))
    for i, part in enumerate(parts):
        np.abs(part, out=mag)
        for k, ((p, _), w) in enumerate(zip(norms, weights)):
            values[:, i, k] = step.row_norms(
                mag if w is None else mag * w if real else np.abs(part * w), p)
    return values.reshape(-1, len(norms))[:count]


def _values(step, bufs, mag, F, r, n, end, paired, norms, weights) -> np.ndarray:
    """The (end - n, len(norms)) array of every norm of g_k, k = n + 1..end,
    a row per k in order, of the member with ratio row r, stepped on step,
    bufs and mag: either half of a member, from G_n = F r^n by n in-place
    multiplies.  Each chunk builds up to len(bufs) - 2 mask-cell rows, G_k
    or, while a paired member has two k left, G_k + i G_(k+1), in bufs[2:]
    and reads the outputs of one step call.  It stops after the chunk at
    which every norm has met a value that is not finite or not > 0."""
    G, B, C = bufs[0], bufs[1], bufs[2:]
    G[:] = F
    for _ in range(n):
        np.multiply(G, r, out=G)
    out, cut = [np.empty((0, len(norms)))], np.zeros(len(norms), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):     # reported by _cut
        while n < end and not cut.all():
            k = min(len(C), (end - n + 1) // 2 if paired else end - n)
            for j in range(k):
                if paired and n + 2 * j + 1 < end:  # g_(m+1) + i g_(m+2), one transform
                    np.multiply(G, r, out=G)
                    np.multiply(G, r, out=B)
                    np.multiply(B, 1j, out=C[j])
                    C[j] += G
                    G, B = B, G
                else:                               # G_(m+1), its own transform
                    np.multiply(G, r, out=C[j])
                    G = C[j]
            count = min(end - n, 2 * k) if paired else k
            out.append(_read(step, mag, step(C[:k]), count, paired, norms, weights))
            cut |= ~((out[-1] > 0.0) & np.isfinite(out[-1])).all(axis=0)
            n += count
    return np.concatenate(out)


def _real_iterates(spec: Spectrum) -> bool:
    """Whether every real-coefficient P(d)^n f is real on spec's mask: the mask
    is resolved (no cell on a Nyquist plane, its own mirror, where P(i lam) is
    not real), closed under lam -> -lam, and F is Hermitian there to
    HERMITIAN_TOL of max |F|.  On a resolved mask lam -> -lam reverses the
    row-major order of the cells, so the mirror of cell k is cell -1 - k."""
    if (not spec.mask.resolved or spec.mask.is_empty
            or not np.array_equal(spec.coords[::-1], -spec.coords)):
        return False
    F = spec.F[spec.mask.field]
    return bool(np.abs(F[::-1] - F.conj()).max() <= HERMITIAN_TOL * np.abs(F).max())


def _cut(stack, m, norms, values) -> list:
    """Member m's rows of spatial_norms from its (n, len(norms)) values: each
    column up to and including its first value that is not > 0.  A value
    that is not finite before that point raises GrowthError for the least n,
    and at that n for the first norm; stack[m] is built only then."""
    bad = np.vstack((~((values > 0.0) & np.isfinite(values)), np.ones(len(norms), dtype=bool)))
    ends = bad.argmax(axis=0)           # each column's first bad value, len(values) if none
    over = ~np.isfinite(values) & (np.arange(len(values))[:, None] == ends)
    if over.any():
        n, k = divmod(int(over.argmax()), len(norms))
        raise _overflow(stack[m], *norms[k], n + 1)
    return [values[:end + 1, k].copy() for k, end in enumerate(ends.tolist())]


def _overflow(P, p, e, n) -> GrowthError:
    weight = f"(1+|x|)^{e:g} " if e else ""
    return GrowthError(f"{P.to_text():.60} at p = {float(p):g}: ||{weight}P(d)^{n} f|| "
                       "exceeds the double range; the input's values are too large")


# ---------------------------------------------------------------------------
# growth sequences
# ---------------------------------------------------------------------------

def _ledgers(rows) -> list:
    """The ledger L_n = n log R + log ||g_n||, n = 1, 2, ..., of each (R,
    norms) of rows, up to the row's first value not > 0: one array operation
    per row length, each ledger copied out, since a block kept alive by its
    ledgers left later reconstruct-twobox set-ups ~1 300 page faults."""
    out = [np.zeros(0)] * len(rows)
    for size in {norms.size for _, norms in rows} - {0}:
        at = [i for i, (_, norms) in enumerate(rows) if norms.size == size]
        block = np.array([rows[i][1] for i in at])
        bad = ~((block > 0.0) & np.isfinite(block))
        k = np.where(bad.any(axis=1), bad.argmax(axis=1), size)
        # 1 in place of the values past k and of an empty ledger's R: no log of 0
        logR = np.log(np.where(k > 0, [rows[i][0] for i in at], 1.0))[:, None]
        L = np.arange(1, size + 1) * logR + np.log(np.where(bad, 1.0, block))
        for i, row, k_i in zip(at, L, k.tolist()):
            out[i] = row[:k_i].copy()
    return out


def _estimates(ledgers) -> list:
    """The LimitEstimate of each ledger, in order: the one limit path.  The
    ledgers of each length of 8 or more share one estimate_limits call; a
    shorter one reports its last root exp(L_n/n) as "truncated", an empty
    one 0 as "zero"."""
    out = [LimitEstimate(0.0, 0.0, "zero", 0, 0.0, 0.0)] * len(ledgers)
    for i, L in enumerate(ledgers):
        if 0 < L.size < 8:
            roots = np.exp(L / np.arange(1, L.size + 1))
            out[i] = LimitEstimate(float(roots[-1]), float(roots[-1]), "truncated", L.size,
                                   float(roots.max() - roots.min()), 0.0)
    for k in sorted({L.size for L in ledgers} - set(range(8))):
        at = [i for i, L in enumerate(ledgers) if L.size == k]
        for i, est in zip(at, estimate_limits([ledgers[i] for i in at])):
            out[i] = est
    return out


@dataclass(frozen=True)
class GrowthSequence:
    """Per-n log-norm ledger of ||P(d)^n f||_p, its limit estimate and the
    R = max |P(i lam)| over the mask that normalised it.  norms holds the
    ||g_n||_p of the ledger's terms L_n = n log R + log ||g_n||_p.  P is row
    `row` of family, built (from a one-member PolyFamily) when it is read."""

    family: PolyFamily
    row: int
    p: float
    n_max: int
    L: np.ndarray
    norms: np.ndarray
    limit: float
    secondary: float
    regime: str
    tail_window: int
    spread: float
    R: float
    resolved: bool
    truncated_at: int | None = None

    @classmethod
    def from_rows(cls, rows, n_max, resolved):
        """The ledger of each (family, p, R, norms, k) of rows, member row k of
        family, in order, and all their limits from one `_estimates` call.
        norms is a row of `spatial_norms` (or its Parseval row) of ||g_n||_p,
        n = 1, 2, ...: L_n = n log R + log ||g_n||_p up to the first norm not
        > 0, where it is truncated.  A norm not finite raises GrowthError."""
        ledgers = _ledgers([(R, norms) for _, _, R, norms, _ in rows])
        for (family, p, _, norms, k), L in zip(rows, ledgers):
            if L.size < norms.size and not np.isfinite(norms[L.size]):
                raise _overflow(family[k:k + 1][0], p, 0, L.size + 1)
        return [cls(family, k, p, n_max, L, norms[:L.size], est.limit, est.secondary,
                    est.regime, est.tail_window, est.spread, R, resolved,
                    None if 0 < L.size == norms.size else L.size + 1)
                for (family, p, R, norms, k), L, est in zip(rows, ledgers, _estimates(ledgers))]

    @property
    def P(self) -> MultiPoly:
        return self.family[self.row:self.row + 1][0]

    @property
    def roots(self) -> np.ndarray:
        """The raw roots exp(L_n / n)."""
        return np.exp(self.L / np.arange(1, self.L.size + 1))

    @property
    def step_factors(self) -> np.ndarray:
        """The step ratios exp(L_n - L_(n-1)), n = 2..len(L)."""
        return np.exp(np.diff(self.L))

    @property
    def relative_gap(self) -> float:
        """|limit - R| / R, or |limit - R| when R = 0."""
        gap = abs(self.limit - self.R)
        return gap if self.R == 0 else gap / self.R

    def to_json_dict(self):
        return {
            "P": self.P.to_text(),
            "p": "inf" if np.isinf(self.p) else self.p,
            "n_max": self.n_max,
            "L": [float(v) for v in self.L],
            "roots": [float(v) for v in self.roots],
            "limit": self.limit,
            "spread": self.spread,
            "secondary": self.secondary,
            "regime": self.regime,
            "tail_window": self.tail_window,
            "resolved": self.resolved,
            "truncated_at": self.truncated_at,
        }


def growth_sequence(f, P: MultiPoly, p, n_max: int) -> GrowthSequence:
    """Ledger L_n = log ||P(d)^n f||_p for n = 1..n_max plus the limit estimate.

    f is a SampledFunction on either side, or its Spectrum.  p = 2 avoids the
    per-step inverse transform: the spatial 2-norm equals the frequency-side
    2-norm under the grid measures (discrete Parseval), so the ledger is
    summed directly on the mask cells.  This is growth_sequences for one P.
    """
    return growth_sequences(f, family_explicit([P]), p, n_max)[0]


def growth_sequences(f, family: PolyFamily, p, n_max: int):
    """The list of growth_sequence(f, P, p, n_max) for each P of family, in
    order, from one `spatial_norms` call and one GrowthSequence.from_rows:
    p = 2 reads the pass's Parseval rows, any other p its one spatial row."""
    n_max = _count("n_max", n_max, 8)
    if not p >= 1:                              # -inf and NaN too
        raise GrowthError(f"p must be in [1, inf], got {p}")
    spec = Spectrum.of(f)
    norms = [] if p == 2 else [(p, 0)]
    return GrowthSequence.from_rows(
        [(family, p, R, rows[0] if norms else two, k)
         for k, (R, two, rows) in enumerate(spatial_norms(spec, family, n_max, norms))],
        n_max, spec.mask.resolved)


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


def liminf_check(seq: GrowthSequence, tol: float = 0.02) -> LiminfReport:
    """The liminf probe of a ledger against the R it carries.  A ledger of
    fewer than 2 terms has no step factor and passes, as one with R = 0 does."""
    R, w = seq.R, seq.tail_window
    if seq.L.size < 2 or R == 0.0:
        return LiminfReport(R, seq.resolved, tol, 0.0, 0.0, 0.0, 0.0, True)
    steps = seq.step_factors[-w:]
    step_median = float(np.median(steps))
    margin = step_median - R * (1.0 - tol)
    return LiminfReport(R, seq.resolved, tol, step_median, float(steps.min()),
                        float(seq.roots[-w:].min()), float(margin), bool(margin >= 0))


# ---------------------------------------------------------------------------
# pointwise growth (weighted sup norms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointwiseGrowthReport:
    """Weighted sup-norm ledger W_n and the growth base extracted from it.

    mode="decay": W_n = sup |P(d)^n f(x)| (1+|x|)^{+N}  (Schwartz envelope
    C n^N R^n (1+|x|)^{-N} with the weight moved across);
    mode="growth": W_n = sup |P(d)^n f(x)| (1+|x|)^{-N}  (order-N distribution
    envelope C n^N R^n (1+|x|)^{+N}).  R = max |P(i lam)| over the mask is the
    value rtilde estimates.
    """

    N: int
    mode: str
    log_W: np.ndarray
    rtilde: float
    R: float
    admissible: bool
    regime: str

    @classmethod
    def from_row(cls, N, mode, R, norms) -> "PointwiseGrowthReport":
        """The report of a spatial_norms row of (inf, +N) (decay) or (inf, -N)
        (growth) norms of the member with that R: log W_n = n log R + log of
        the row's value."""
        (log_W,) = _ledgers([(R, norms)])
        (est,) = _estimates([log_W])
        rtilde = est.limit
        # bounded iff log(W_n / (n^N rtilde^n)) shows no upward trend at the end
        n = np.arange(1, log_W.size + 1)
        ratio = log_W - N * np.log(n) - n * np.log(max(rtilde, 1e-300))
        q = max(2, log_W.size // 4)
        trend = float(np.mean(np.diff(ratio[-q:]))) if log_W.size > q else 0.0
        admissible = bool(np.isfinite(rtilde) and trend <= 0.01)
        return cls(N, mode, log_W, rtilde, R, admissible, est.regime)


def pointwise_growth(f, P: MultiPoly, N: int, n_max: int,
                     mode: str = "growth") -> PointwiseGrowthReport:
    if not 0 <= N < np.inf:
        raise GrowthError(f"weight exponent N must be finite and >= 0, got {N}")
    n_max = _count("n_max", n_max, 8)
    if mode not in ("decay", "growth"):
        raise GrowthError("mode must be 'decay' or 'growth'")
    norm = (np.inf, N if mode == "decay" else -N)
    ((R, _, (row,)),) = spatial_norms(f, family_explicit([P]), n_max, [norm])
    return PointwiseGrowthReport.from_row(N, mode, R, row)


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


def schwartz_decay_check(f, P: MultiPoly, R: float, N: int,
                         n_max: int) -> SchwartzDecayReport:
    if not 0 < R < np.inf:
        raise GrowthError(f"claimed bound R must be finite and positive, got {R}")
    if not 0 <= N < np.inf:
        raise GrowthError(f"weight exponent N must be finite and >= 0, got {N}")
    d = f.grid.d
    # both weights are >= 1, so the two rows vanish at the same n
    ((R_mask, _, rows),) = spatial_norms(f, family_explicit([P]), n_max,
                                         [(np.inf, N), (np.inf, d + 1)])
    W_N, W_phi = _ledgers([(R_mask, row) for row in rows])
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
