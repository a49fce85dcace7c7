"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Desk scale: d=1 grids with M=1024, d=2 grids with M=256.
"""

import numpy as np
import pytest

from realpw import (make_grid, sample_builtin, SampledFunction, forward_dft,
                    support_mask, compute_R, parse_poly, supporting_function,
                    growth_sequence, pointwise_growth, schwartz_decay_check,
                    complex_growth_rate, apply_op_spectral, apply_op_fd,
                    family_quadratic, family_quadratic_real,
                    reconstruct_support, local_spectrum_raster,
                    pde_support_probe, lp_norm, Spectrum, iterates)
from realpw.verify import acceptance_corpus, check_cauchy_bound, two_box_support
from realpw.transform import inverse_values


def announce(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def growth_cache(corpus):
    """All growth sequences, masks and R values for criteria 1, 2, 9."""
    cache = {}
    for m, member in enumerate(corpus):
        mask = support_mask(forward_dft(member.f))
        cache[m, "mask"] = mask
        for k, P in enumerate(member.polys):
            cache[m, k, "R"] = compute_R(P, mask).value
            for p in member.p_values:
                cache[m, k, p] = growth_sequence(member.f, P, p, 64)
    return cache


def test_criterion_1_limit_formula(corpus, growth_cache):
    """lim ||P(d)^n f||_p^{1/n} = R(P, Ff) within 2% at n_max = 64."""
    worst = (0.0, "")
    for m, member in enumerate(corpus):
        for k, P in enumerate(member.polys):
            R = growth_cache[m, k, "R"]
            for p in member.p_values:
                seq = growth_cache[m, k, p]
                gap = abs(seq.limit - R) if R == 0 else abs(seq.limit - R) / R
                if gap > worst[0]:
                    worst = (gap, f"{member.name} / {P} / p={p}")
    ok = worst[0] <= 0.02
    assert announce(1, ok, f"worst limit gap {worst[0]:.2e} ({worst[1]})")


def test_criterion_2_liminf_bound(corpus, growth_cache):
    """Sustained tail growth rate >= R - 2% R for every (input, P, p)."""
    worst = (np.inf, "")
    for m, member in enumerate(corpus):
        for k, P in enumerate(member.polys):
            R = growth_cache[m, k, "R"]
            if R == 0:
                continue
            for p in member.p_values:
                seq = growth_cache[m, k, p]
                tail = seq.step_factors[-seq.tail_window:]
                margin = (np.median(tail) - R * 0.98) / R
                if margin < worst[0]:
                    worst = (margin, f"{member.name} / {P} / p={p}")
    ok = worst[0] >= 0.0
    assert announce(2, ok, f"worst margin {worst[0]:+.2e} ({worst[1]})")


def test_criterion_3_plancherel(corpus):
    """Spatial vs frequency 2-norms of P(d)^n f, rel 1e-10, n <= 64."""
    worst = 0.0
    for member in (corpus[0], corpus[2], corpus[4]):
        P = member.polys[0]
        grid = member.f.grid
        spec = Spectrum.of(member.f, 1e-8)
        dmeas = grid.dlam ** grid.d
        for n, S, Gm in iterates(spec, P, 64):
            G = np.zeros(grid.n_points, dtype=complex)
            G[spec.mask.field] = Gm
            freq = float(np.sqrt(dmeas * np.sum(np.abs(G) ** 2)))
            spat = lp_norm(SampledFunction(grid, "spatial",
                                           inverse_values(G, grid)), 2)
            worst = max(worst, abs(spat - freq) / freq)
    ok = worst <= 1e-10
    assert announce(3, ok, f"worst relative norm mismatch {worst:.2e}")


def test_criterion_4_reconstruction(corpus):
    """Two disjoint boxes from a 16x16 quadratic-center family; ball from one."""
    # two-box member: real-coefficient quadratic centers carve the gap
    member = corpus[4]
    grid = member.f.grid
    reference = support_mask(forward_dft(member.f))
    step = 63 * grid.dlam / 8
    cvals = (np.arange(16) - 7) * step
    centers = [np.array([a, b]) for a in cvals for b in cvals]
    fam = family_quadratic_real(centers, grid)
    res = reconstruct_support(member.f, fam, 2, 200, reference=reference, tau=0.01)
    sym = res.metrics.symmetric_difference
    budget = 0.04 * reference.n_cells
    comps = _components(res.estimated.field.reshape(grid.shape))
    ok_box = sym <= budget and comps == 2

    # ball member: a single distance quadratic suffices
    ball = corpus[2]
    ref_ball = support_mask(forward_dft(ball.f))
    fam_ball = family_quadratic([[0.0, 0.0]], ball.f.grid)
    res_ball = reconstruct_support(ball.f, fam_ball, 2, 200,
                                   reference=ref_ball, tau=0.01)
    ok_ball = res_ball.metrics.dilation_distance <= 2
    assert announce(4, ok_box and ok_ball,
                    f"two-box symdiff {sym}/{budget:.1f} cells, {comps} components; "
                    f"ball dilation {res_ball.metrics.dilation_distance} cells")


def _components(mask2d):
    seen = np.zeros_like(mask2d)
    cells = set(zip(*np.nonzero(mask2d)))
    comps = 0
    for c in cells:
        if seen[c]:
            continue
        comps += 1
        stack = [c]
        seen[c] = True
        while stack:
            i, j = stack.pop()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                t = (i + di, j + dj)
                if t in cells and not seen[t]:
                    seen[t] = True
                    stack.append(t)
    return comps


def test_criterion_5_pointwise_equivalences(corpus, growth_cache):
    """R-tilde (N=2) matches R within 3%; the decay envelope plateaus for an
    admissible bound and diverges >= 10x for an inadmissible one."""
    worst = (0.0, "")
    for m in range(5):
        member = corpus[m]
        P = member.polys[0]
        R = growth_cache[m, 0, "R"]
        rep = pointwise_growth(member.f, P, 2, 64, mode="growth")
        gap = abs(rep.rtilde - R) / R
        if gap > worst[0]:
            worst = (gap, member.name)
    member = corpus[0]
    P = member.polys[0]
    R = growth_cache[0, 0, "R"]
    ok_plateau = schwartz_decay_check(member.f, P, 1.05 * R, 1, 64).plateaued
    diverge = schwartz_decay_check(member.f, P, 0.8 * R, 1, 64)
    ok_diverge = (not diverge.plateaued) and diverge.ratio_last_quarter >= 10.0
    ok = worst[0] <= 0.03 and ok_plateau and ok_diverge
    assert announce(5, ok, f"worst R-tilde gap {worst[0]:.2e} ({worst[1]}); "
                           f"plateau={ok_plateau}, divergence x"
                           f"{diverge.ratio_last_quarter:.1f}")


def test_criterion_6_complex_growth_law(corpus):
    """Slope of log|Ff(x0+ity)| over t in [10,40] matches the supporting
    function of the support hull within 5%, for two bumps, y = +-1, 3 x0."""
    grid = make_grid(1, 1024, 0.005)
    t = np.linspace(10.0, 40.0, 31)
    worst = (0.0, "")
    for (a, b) in ((-1.0, 1.0), (0.0, 2.0)):
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [a], "hi": [b]}}, grid)
        for y in (1.0, -1.0):
            H = supporting_function([[a], [b]], [y])
            tol = 0.05 * max(abs(H), 1.0)
            for x0 in (0.0, 0.37, -0.81):
                rep = complex_growth_rate(f, [x0], [y], t)
                err = abs(rep.slope - H)
                if err / tol > worst[0]:
                    worst = (err / tol, f"supp [{a},{b}] y={y:+.0f} x0={x0}: "
                                        f"slope {rep.slope:+.4f} vs H {H:+.1f}")
    ok = worst[0] <= 1.0
    assert announce(6, ok, f"worst slope error {worst[0]:.2f} of tolerance ({worst[1]})")


def test_criterion_7_cauchy_derivative_bound(corpus):
    """||d^n f||_inf <= C n! e^n n^{-n} H(1)^n for n <= 20, C from sampled z."""
    status, detail = check_cauchy_bound(corpus[0], n_top=20)
    assert announce(7, status == "pass", detail)


def test_criterion_8_oracle_equivalence():
    """Spectral vs order-8 finite differences, rel 1e-6, quarter-band inputs."""
    worst = (0.0, "")
    g1 = make_grid(1, 1024, 0.05)
    sig1 = 24.0 / g1.frequency_halfwidth
    f1 = sample_builtin({"kind": "gaussian", "sigma": sig1}, g1)
    g2 = make_grid(2, 256, 0.05)
    sig2 = 24.0 / g2.frequency_halfwidth
    f2 = sample_builtin({"kind": "gaussian", "sigma": sig2}, g2)
    cases = [(f1, "x1"), (f1, "x1^2"), (f1, "0.5+2*i*x1"),
             (f2, "x1*x2"), (f2, "x1"), (f2, "x1^2"), (f2, "0.5+2*i*x1")]
    for f, ptxt in cases:
        P = parse_poly(ptxt, f.grid.d)
        g_spec, S = apply_op_spectral(f, P, 1)
        spec = np.exp(S) * g_spec.values
        fd = apply_op_fd(f, P, 8).values
        rel = float(np.linalg.norm(fd - spec) / np.linalg.norm(spec))
        if rel > worst[0]:
            worst = (rel, f"d={f.grid.d} P={ptxt}")
    ok = worst[0] <= 1e-6
    assert announce(8, ok, f"worst relative 2-norm difference {worst[0]:.2e} ({worst[1]})")


def test_criterion_9_local_spectral_radius(corpus, growth_cache):
    """Raster max modulus == R bit-exactly and == p=1 growth limit within 2%."""
    ok = True
    details = []
    for m in (0, 2, 3):
        member = corpus[m]
        mask = growth_cache[m, "mask"]
        for k, P in enumerate(member.polys):
            R = growth_cache[m, k, "R"]
            ras = local_spectrum_raster(P, mask)
            if ras.max_modulus != R:
                ok = False
                details.append(f"raster != R for {member.name}/{P}")
            lim = growth_cache[m, k, 1].limit
            if abs(lim - ras.max_modulus) > 0.02 * max(ras.max_modulus, 1e-300):
                ok = False
                details.append(f"p=1 limit off for {member.name}/{P}")
    assert announce(9, ok, "bit-exact raster radius, p=1 limit within 2%"
                    if ok else "; ".join(details))


def test_criterion_10_pde_probe():
    """g = (d^2+1) f with supp f ~ [-1,1]: probe recovers the support bound
    within 3 cells."""
    M, h = 1024, 0.005
    grid = make_grid(1, M, h)
    b = 200.5 * h
    f = sample_builtin({"kind": "spatial_bump",
                        "support": {"shape": "box", "lo": [-b], "hi": [b]},
                        "edge_width": 1.5 * h}, grid)
    P = parse_poly("x1^2 + 1", 1)
    g_fun, S = apply_op_spectral(f, P, 1, eps_rel=1e-14)
    g = SampledFunction(grid, "spatial", np.exp(S) * g_fun.values)
    rep = pde_support_probe(g, P, parse_poly("x1", 1), delta_zero=1e-3,
                            p=2, n_max=64)
    lo, hi = rep.sublevel_bounds()
    err = max(abs(hi[0] - 1.0), abs(lo[0] + 1.0))
    ok = err <= 3 * h and rep.excluded_mass == 0.0
    assert announce(10, ok, f"sublevel edges within {err / h:.2f} cells, "
                            f"excluded mass {rep.excluded_mass:.2e}")
