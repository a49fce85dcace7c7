import itertools
import random
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpw import (make_grid, sample_builtin, SampledFunction, forward_dft,
                    support_mask, compute_R, parse_poly, lp_norm,
                    apply_op_spectral, apply_op_fd, growth_sequence,
                    estimate_limit, liminf_check, pointwise_growth,
                    schwartz_decay_check, GrowthError, GridError, Spectrum,
                    symbol_ratios, eval_symbol_many, family_quadratic_real,
                    reconstruct_support, growth_sequences, spatial_norms,
                    GrowthSequence, PointwiseGrowthReport, MultiPoly,
                    family_explicit, pde_support_probe, complex_growth_rate)
from realpw import growth, transform
from realpw.growth import HERMITIAN_TOL
from realpw.transform import SpatialStep, SupportMask, forward_values, inverse_values
from conftest import block_iterates
from realpw.verify import (acceptance_corpus, aligned_h, verify_corpus, DESK_NMAX,
                           RTILDE_N)


@pytest.fixture(scope="module")
def interval_bump():
    """Spectral bump on ~[-1, 1] with half-cell-aligned edges."""
    M = 1024
    h = aligned_h(M, 1.0, 8)
    grid = make_grid(1, M, h)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
    return grid, f


def member_rows(spec, P, n_max, norms):
    """spatial_norms' (R, two, rows) of the one member P."""
    (out,) = spatial_norms(spec, family_explicit([P]), n_max, norms)
    return out


def ledger(P, p, n_max, R, norms, resolved):
    """The GrowthSequence of the one row (P, p, R, norms)."""
    (seq,) = GrowthSequence.from_rows([(family_explicit([P]), p, R, norms, 0)], n_max, resolved)
    return seq


class TestEstimateLimit:
    def test_exact_geometric(self):
        n = np.arange(1, 65)
        est = estimate_limit(n * np.log(3.0))
        assert est.limit == pytest.approx(3.0, rel=1e-12)
        assert est.spread == pytest.approx(0.0, abs=1e-12)

    def test_polynomial_envelope(self):
        # polynomial-times-geometric envelope n^N R^n with N=5, R=2
        n = np.arange(1, 65)
        est = estimate_limit(n * np.log(2.0) + 5 * np.log(n))
        assert est.limit == pytest.approx(2.0, rel=0.03)

    def test_alternating_oscillation_robust(self):
        n = np.arange(1, 65)
        est = estimate_limit(n * np.log(2.0) + (-1.0) ** n)
        assert est.limit == pytest.approx(2.0, rel=0.01)
        assert est.gap >= 0.0

    def test_secondary_is_last_ratio(self):
        n = np.arange(1, 65)
        L = n * np.log(2.0) + 5 * np.log(n)
        est = estimate_limit(L)
        assert est.secondary == pytest.approx(np.exp(L[-1] - L[-2]))

    def test_requires_eight_entries(self):
        with pytest.raises(GrowthError):
            estimate_limit(np.arange(1, 6, dtype=float))

    def test_rejects_nonfinite(self):
        L = np.arange(1, 33, dtype=float)
        L[20] = np.inf
        with pytest.raises(GrowthError):
            estimate_limit(L)


class TestApplyOpSpectral:
    def test_constant_polynomial_scales(self, interval_bump):
        grid, f = interval_bump
        P = parse_poly("2 - i", 1)
        g, S = apply_op_spectral(f, P, 5)
        want = abs(2 - 1j) ** 5 * lp_norm(f, 2)
        assert np.exp(S) * lp_norm(g, 2) == pytest.approx(want, rel=1e-10)

    def test_rejects_n_zero(self, interval_bump):
        grid, f = interval_bump
        with pytest.raises(GrowthError):
            apply_op_spectral(f, parse_poly("x1", 1), 0)

    def test_matches_fd_oracle_on_bandlimited(self, interval_bump):
        # band occupies ~1/64 of Nyquist, so the order-8 stencil is exact to
        # well below 1e-8
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        g, S = apply_op_spectral(f, P, 1)
        spec = np.exp(S) * g.values
        fd = apply_op_fd(f, P, 8).values
        rel = np.linalg.norm(fd - spec) / np.linalg.norm(spec)
        assert rel <= 1e-8

    def test_zero_function_returns_zero(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        g, S = apply_op_spectral(f, parse_poly("x1", 1), 3)
        assert S == 0.0
        assert np.all(g.values == 0)

    @pytest.mark.parametrize("case", ["zero symbol", "empty mask"])
    def test_zero_result_takes_the_general_path(self, interval_bump, case):
        # zero rows with log R = 0: zero values and S = 0.0
        grid, f = interval_bump
        if case == "empty mask":
            f = f.with_values(np.zeros(grid.n_points))
        P = MultiPoly(1, {}) if case == "zero symbol" else parse_poly("x1", 1)
        g, S = apply_op_spectral(f, P, 3)
        assert S == 0.0 and type(S) is float
        assert np.all(g.values == 0)


class TestApplyOpFd:
    def test_sin_to_cos_convergence_order(self):
        # classical stencil order measured by grid refinement
        errs = {}
        for M in (64, 128):
            grid = make_grid(1, M, 2 * np.pi / M)
            x = grid.spatial_axis()
            f = SampledFunction(grid, "spatial", np.sin(x))
            for order in (2, 4, 6):
                d = apply_op_fd(f, parse_poly("x1", 1), order)
                errs[(order, M)] = np.abs(d.values - np.cos(x)).max()
        for order in (2, 4, 6):
            ratio = errs[(order, 64)] / errs[(order, 128)]
            assert ratio == pytest.approx(2.0 ** order, rel=0.2)

    def test_lattice_mode_eigenvalue(self):
        grid = make_grid(1, 128, 0.1)
        lam0 = 5 * grid.dlam
        x = grid.spatial_axis()
        f = SampledFunction(grid, "spatial", np.exp(1j * lam0 * x))
        d2 = apply_op_fd(f, parse_poly("x1^2", 1), 8)
        eig = d2.values[64] / f.values[64]
        theta = lam0 * grid.h
        assert eig == pytest.approx((1j * lam0) ** 2, rel=2 * theta ** 8)

    def test_constant_polynomial_exact(self, ):
        grid = make_grid(1, 64, 0.3)
        rng = np.random.default_rng(8)
        f = SampledFunction(grid, "spatial", rng.standard_normal(64))
        out = apply_op_fd(f, parse_poly("3", 1), 4)
        assert np.array_equal(out.values, 3.0 * f.values)

    def test_rejects_bad_order(self, interval_bump):
        grid, f = interval_bump
        with pytest.raises(GrowthError):
            apply_op_fd(f, parse_poly("x1", 1), 3)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_in_place_stencil_matches_parent(self, order):
        # each verify input, complex as sampled and its real part
        cases = 0
        for member in verify_corpus():
            for f in (member.f, member.f.with_values(member.f.values.real)):
                for P in member.polys:
                    new = apply_op_fd(f, P, order).values
                    assert new.tobytes() == parent_apply_op_fd(f, P, order).tobytes()
                    cases += 1
        assert cases == 2 * (3 + 3 + 2)


def parent_apply_op_fd(f, P, order):
    """apply_op_fd's values before its stencil accumulated in place: four
    grid-sized temporaries per stencil term and a new sum per term of P."""
    def derivative(u, axis):
        out = np.zeros_like(u)
        for k, wk in enumerate(growth._FD_WEIGHTS[order], start=1):
            out += wk * (np.roll(u, -k, axis=axis) - np.roll(u, k, axis=axis))
        return out / f.grid.h

    base = f.values.reshape(f.grid.shape)
    out = np.zeros(f.grid.shape, dtype=complex)
    for alpha, c in P.coeffs.items():
        term = base
        for axis, power in enumerate(alpha):
            for _ in range(power):
                term = derivative(term, axis)
        out = out + c * term
    return out.ravel()


class TestGrowthSequence:
    def test_constant_polynomial_limit(self, interval_bump):
        grid, f = interval_bump
        c = 2 - 1j
        seq = growth_sequence(f, parse_poly("2 - i", 1), 2, 16)
        # a_n = |c| * ||f||^(1/n): exact geometric sequence
        n = np.arange(1, 17)
        want = abs(c) * lp_norm(f, 2) ** (1.0 / n)
        assert np.allclose(seq.roots, want, rtol=1e-10)
        assert seq.limit == pytest.approx(abs(c), rel=1e-10)

    def test_interval_first_derivative_limit(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        seq = growth_sequence(f, parse_poly("x1", 1), 2, 64)
        assert seq.limit == pytest.approx(R, rel=0.02)
        assert seq.limit == pytest.approx(R, rel=0.02)
        assert 0.98 <= seq.limit / R <= 1.02

    def test_sup_norm_squared_symbol(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1^2", 1), mask).value
        seq = growth_sequence(f, parse_poly("x1^2", 1), np.inf, 64)
        assert seq.limit == pytest.approx(R, rel=0.02)

    def test_operator_homogeneity(self, interval_bump):
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        cP = parse_poly("1.5*x1", 1)
        s1 = growth_sequence(f, P, 2, 16)
        s2 = growth_sequence(f, cP, 2, 16)
        assert np.allclose(s2.roots, 1.5 * s1.roots, rtol=1e-10)

    def test_plancherel_identity_per_step(self, interval_bump):
        # spatial vs frequency 2-norm of P(d)^n f, in log arithmetic
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        spec = Spectrum.of(f, 1e-8)
        for n, Gm in block_iterates(spec, family_explicit([P]), 64)[2]:
            G = np.zeros(grid.n_points, dtype=complex)
            G[spec.mask.field] = Gm[0]
            freq = np.sqrt(grid.dlam * np.sum(np.abs(G) ** 2))
            spat = lp_norm(SampledFunction(grid, "spatial", inverse_values(G, grid)), 2)
            assert spat == pytest.approx(freq, rel=1e-10)

    def test_translation_invariance(self, interval_bump):
        grid, f = interval_bump
        rolled = SampledFunction(grid, "spatial", np.roll(f.values, 37))
        P = parse_poly("x1", 1)
        for p in (1, 2, np.inf):
            a = growth_sequence(f, P, p, 12)
            b = growth_sequence(rolled, P, p, 12)
            assert np.allclose(a.L, b.L, rtol=1e-10)

    def test_modulation_covariance(self, interval_bump):
        grid, f = interval_bump
        shift = 6
        mu = shift * grid.dlam
        mod = SampledFunction(grid, "spatial",
                              f.values * np.exp(1j * mu * grid.spatial_axis()))
        P = parse_poly("x1", 1)
        mask_shifted = support_mask(forward_dft(mod))
        R_shifted = compute_R(P, mask_shifted).value
        seq = growth_sequence(mod, P, 2, 64)
        assert seq.limit == pytest.approx(R_shifted, rel=0.02)
        # and the shifted mask is the rolled original mask
        mask0 = support_mask(forward_dft(f))
        assert np.array_equal(np.roll(mask0.field, shift), mask_shifted.field)

    def test_fd_ledger_agrees_at_small_n(self, interval_bump):
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        u, L_fd = f, []
        for _ in range(8):
            u = apply_op_fd(u, P, 8)
            L_fd.append(np.log(lp_norm(u, 2)))
        assert np.allclose(growth_sequence(f, P, 2, 8).L, L_fd, rtol=1e-6)

    def test_rejects_small_n_max(self, interval_bump):
        grid, f = interval_bump
        with pytest.raises(GrowthError):
            growth_sequence(f, parse_poly("x1", 1), 2, 4)

    def test_zero_input(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        seq = growth_sequence(f, parse_poly("x1", 1), 2, 16)
        assert seq.limit == 0.0
        assert seq.truncated_at == 1

    def test_json_round_trip_fields(self, interval_bump):
        grid, f = interval_bump
        seq = growth_sequence(f, parse_poly("x1", 1), np.inf, 8)
        doc = seq.to_json_dict()
        assert doc["p"] == "inf"
        assert len(doc["L"]) == len(doc["roots"]) == 8
        assert set(doc) >= {"P", "p", "n_max", "L", "roots", "limit", "spread"}


class TestLiminfCheck:
    def test_bump_margin(self, interval_bump):
        grid, f = interval_bump
        rep = liminf_check(growth_sequence(f, parse_poly("x1", 1), 2, 64))
        assert rep.passed
        assert rep.margin >= 0.0
        assert rep.step_median >= rep.R * 0.98

    def test_zero_function_trivially_holds(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        rep = liminf_check(growth_sequence(f, parse_poly("x1", 1), 2, 16))
        assert rep.passed and rep.R == 0.0

    def test_mixed_poly_on_box(self):
        grid = make_grid(2, 128, 0.25)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}},
                           grid)
        rep = liminf_check(growth_sequence(f, parse_poly("x1*x2", 2), 2, 64))
        assert rep.passed and rep.margin / rep.R >= -0.02

    def test_ledger_without_a_step_factor(self):
        # a ledger cut at n = 2 has one term and no step factor, as an empty
        # one has none
        (seq,) = GrowthSequence.from_rows([(family_explicit([parse_poly("x1", 1)]), 2, 1.0,
                                            np.array([1.0, 0.0]), 0)], 64, True)
        assert (seq.L.size, seq.step_factors.size, seq.truncated_at) == (1, 0, 2)
        rep = liminf_check(seq)
        assert rep.passed and (rep.R, rep.step_median, rep.margin) == (1.0, 0.0, 0.0)


class TestPointwiseGrowth:
    def test_constant_polynomial_N0(self, interval_bump):
        grid, f = interval_bump
        rep = pointwise_growth(f, parse_poly("2 - i", 1), 0, 16, mode="growth")
        assert rep.rtilde == pytest.approx(abs(2 - 1j), rel=1e-10)
        assert rep.admissible

    def test_decay_mode_recovers_R(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        rep = pointwise_growth(f, parse_poly("x1", 1), 2, 64, mode="decay")
        assert rep.rtilde == pytest.approx(R, rel=0.03)

    def test_growth_mode_recovers_R(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        rep = pointwise_growth(f, parse_poly("x1", 1), 2, 64, mode="growth")
        assert rep.rtilde == pytest.approx(R, rel=0.03)

    def test_rejects_bad_mode(self, interval_bump):
        grid, f = interval_bump
        with pytest.raises(GrowthError):
            pointwise_growth(f, parse_poly("x1", 1), 2, 16, mode="other")


class TestSchwartzDecayCheck:
    def test_admissible_bound_plateaus(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        rep = schwartz_decay_check(f, parse_poly("x1", 1), 1.05 * R, 1, 64)
        assert rep.plateaued
        assert rep.ratio_last_quarter <= 1.1

    def test_too_small_bound_diverges(self, interval_bump):
        # N=1: the divergent branch (1/0.8)^n / n overtakes early enough that
        # the running maximum visibly climbs over the last quarter
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        rep = schwartz_decay_check(f, parse_poly("x1", 1), 0.8 * R, 1, 64)
        assert not rep.plateaued
        assert rep.ratio_last_quarter >= 10.0

    def test_zero_function(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        rep = schwartz_decay_check(f, parse_poly("x1", 1), 1.0, 2, 16)
        assert rep.C_star == 0.0

    def test_rejects_nonpositive_R(self, interval_bump):
        grid, f = interval_bump
        with pytest.raises(GrowthError):
            schwartz_decay_check(f, parse_poly("x1", 1), 0.0, 2, 16)


class TestOtherDimensionsAndNorms:
    def test_intermediate_p_norm_limit(self, interval_bump):
        grid, f = interval_bump
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        seq = growth_sequence(f, parse_poly("x1", 1), 4, 64)
        assert seq.limit == pytest.approx(R, rel=0.02)

    def test_large_finite_p_does_not_underflow(self):
        # |g|^500 of unscaled samples underflows to 0: the ledger used to end
        # in regime "zero" with limit 0 while R = 5.89
        grid = make_grid(1, 64, 0.5)
        f = sample_builtin({"kind": "gaussian"}, grid)
        P = parse_poly("x1", 1)
        R = compute_R(P, support_mask(forward_dft(f))).value
        seq = growth_sequence(f, P, 500, 64)
        assert seq.regime != "zero" and seq.truncated_at is None
        assert seq.limit == pytest.approx(R, rel=0.02)
        # p = 1e7 differs from sup |g| by the factor (h * sum (|g|/max|g|)^p)^(1/p)
        near, top = growth_sequence(f, P, 1e7, 64), growth_sequence(f, P, np.inf, 64)
        assert np.all(np.abs(near.L - top.L) <= 1e-6)
        assert near.limit == pytest.approx(top.limit, rel=1e-6)

    def test_overflowing_symbol_raises(self):
        # |(i lam)^400| passes the double range on this grid: the ledgers used
        # to end in regime "zero" with limit 0, and liminf_check passed with R = nan
        grid = make_grid(1, 64, 0.25)
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, grid)
        P = parse_poly("x1^400", 1)
        for run in (lambda: growth_sequence(f, P, 2, 16),
                    lambda: growth_sequence(f, P, np.inf, 16),
                    lambda: pointwise_growth(f, P, 1, 16),
                    lambda: liminf_check(growth_sequence(f, P, 2, 16))):
            with pytest.raises(GrowthError, match=r"x1\^400"):
                run()

    def test_input_beyond_double_range_raises(self):
        # |g|^2 of a 1e160-scaled input overflows: the p = 2 ledger used to end
        # in regime "zero" with limit 0 after "overflow encountered in square"
        grid = make_grid(1, 64, 0.25)
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, grid)
        huge = f.with_values(f.values * 1e160)
        P = parse_poly("x1", 1)
        with pytest.raises(GrowthError, match=r"x1 at p = 2: .* double range"):
            growth_sequence(huge, P, 2, 16)
        seq = growth_sequence(huge, P, np.inf, 16)
        assert seq.truncated_at is None and seq.R == growth_sequence(f, P, 2, 16).R

    def test_d3_growth_smoke(self):
        grid = make_grid(3, 32, 0.4)
        dlam = grid.dlam
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "ball", "radius": 2.5 * dlam},
                            "edge_width": 1.5 * dlam}, grid)
        mask = support_mask(forward_dft(f))
        P = parse_poly("x1 + x2 - x3", 3)
        R = compute_R(P, mask).value
        seq = growth_sequence(f, P, 2, 32)
        assert seq.limit == pytest.approx(R, rel=0.02)


# ---------------------------------------------------------------------------
# differential test: the one-transform engine against the loop it replaced
# ---------------------------------------------------------------------------

def reference_ledger(f, P, p, n_max, eps_rel=1e-8):
    """(L, truncated_at) by the full-grid loop: transform, mask and symbol on
    every call, one inverse transform per step for p != 2."""
    grid = f.grid
    F = forward_values(f.values, grid)
    mask = support_mask(SampledFunction(grid, "frequency", F), eps_rel)
    sym = eval_symbol_many(P, grid.frequency_coords())
    R = float(np.abs(sym[mask.field]).max(initial=0.0))
    if R == 0.0:
        return np.array([]), 1
    ratio = np.where(mask.field, sym / R, 0.0)
    L = []
    Gm, rm = F[mask.field].astype(complex), ratio[mask.field]
    G = F.astype(complex)
    for n in range(1, n_max + 1):
        if p == 2:
            Gm = Gm * rm
            nrm = float(np.sqrt(grid.dlam ** grid.d * np.sum(np.abs(Gm) ** 2)))
        else:
            G = G * ratio
            nrm = lp_norm(SampledFunction(grid, "spatial", inverse_values(G, grid)), p)
        if nrm <= 0.0 or not np.isfinite(nrm):
            return np.array(L), (1 if not L else n)
        L.append(n * np.log(R) + np.log(nrm))
    return np.array(L), None


def reference_regime(L):
    if L.size == 0:
        return "zero"
    return estimate_limit(L).regime if L.size >= 8 else "truncated"


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


class TestEngineMatchesFullGridLoop:
    def test_ledgers(self, corpus):
        checked = 0
        for member in corpus:
            spec = Spectrum.of(member.f)
            for P in member.polys:
                for p in (1, 2, np.inf):
                    L_ref, trunc_ref = reference_ledger(member.f, P, p, 16)
                    seq = growth_sequence(spec, P, p, 16)
                    assert seq.L.shape == L_ref.shape
                    assert np.all(np.abs(seq.L - L_ref) <= 1e-12 * np.abs(L_ref))
                    assert seq.regime == reference_regime(L_ref)
                    assert seq.truncated_at == trunc_ref
                    checked += 1
        assert checked == 66

    def test_two_box_mask_bit_identical(self, corpus):
        member = corpus[4]
        grid = member.f.grid
        cvals = (np.arange(16) - 7) * (63 * grid.dlam / 8)
        fam = family_quadratic_real([np.array([a, b]) for a in cvals for b in cvals], grid)
        res = reconstruct_support(member.f, fam, 2, 200, tau=0.01)
        lams = grid.frequency_coords()
        keep = np.ones(grid.n_points, dtype=bool)
        limits = []
        for P in fam:
            L, _ = reference_ledger(member.f, P, 2, 200)
            limits.append(estimate_limit(L).limit)
            keep &= np.abs(eval_symbol_many(P, lams)) <= limits[-1] * 1.01
        assert np.array_equal(res.estimated.field, keep)
        # the Parseval row is a moment sum, not the loop's |G_n|^2: the limits
        # agree to the refactor contract, 1e-12 relative (masks bit for bit)
        assert np.all(np.abs(np.array(res.limits) - limits) <= 1e-12 * np.abs(limits))
        assert sum(res.carved) == grid.n_points - res.estimated.n_cells

    def test_spectrum_carries_its_threshold(self, interval_bump):
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        spec = Spectrum.of(f, 1e-6)
        L, _ = reference_ledger(f, P, 2, 16, eps_rel=1e-6)
        assert np.array_equal(growth_sequence(spec, P, 2, 16).L, L)
        fam = family_quadratic_real([np.array([0.0])], grid)
        assert reconstruct_support(spec, fam, 2, 16).estimated.eps_rel == 1e-6
        with pytest.raises(GridError):
            Spectrum.of(spec, 1e-8)


# ---------------------------------------------------------------------------
# the parent's ledger formation: rows of (S, values) pairs, S_n = n log R
# ---------------------------------------------------------------------------

def parent_log_R(R):
    """log R of a stack's vector of R, 0 where R = 0: S_1 as the iterate
    primitive yielded it before its steps dropped S_n = n log R."""
    return np.log(R, out=np.zeros_like(R), where=R > 0.0)


def parent_logs(S, values):
    """S_n + log of a row's values, up to its first that is not > 0 or not
    finite: a ledger as it was formed before rows were plain norms."""
    bad = ~((values > 0.0) & np.isfinite(values))
    k = int(bad.argmax()) if bad.any() else values.size
    return S[:k] + np.log(values[:k])


def parent_sequence(P, p, R, S, norms):
    """The fields of GrowthSequence.from_row(P, p, n_max, R, S, norms) as it
    was before rows were plain norms."""
    L = parent_logs(S, norms)
    (est,) = growth._estimates([L])
    return SimpleNamespace(P=P, p=p, R=R, L=L, norms=norms[:L.size], limit=est.limit,
                           regime=est.regime,
                           truncated_at=None if 0 < L.size == norms.size else L.size + 1)


def parent_pass(spec, family, n_max, norms):
    """(P, R, two, rows) per member of family as spatial_norms gave them
    before rows were plain norms: two and each row an (S, values) pair, S the
    terms S_n = n log R from the family's vector of log R, cut to the row."""
    out, ns = spatial_norms(spec, family, n_max, norms), np.arange(1, n_max + 1)
    logR = parent_log_R(np.array([R for R, _, _ in out]))
    for (R, two, rows), P, log_R in zip(out, family, logR):
        S = ns * log_R
        yield P, R, (S, two), [(S[:r.size], r) for r in rows]


# ---------------------------------------------------------------------------
# batched p = 2 ledgers: one stack of members against one member at a time
# ---------------------------------------------------------------------------

def assert_same_sequence(a, b):
    assert np.array_equal(a.L, b.L)
    assert (a.limit, a.regime, a.truncated_at) == (b.limit, b.regime, b.truncated_at)


class TestBatchedLedgers:
    def test_corpus_batch_matches_single_members(self, corpus):
        checked = 0
        for member in corpus:
            spec = Spectrum.of(member.f)
            batch = list(growth_sequences(spec, member.polys, 2, 64))
            assert [s.P for s in batch] == list(member.polys)
            for P, seq in zip(member.polys, batch):
                assert_same_sequence(seq, growth_sequence(spec, P, 2, 64))
                checked += 1
        assert checked == 22

    def test_zero_symbol_member_in_a_batch(self, interval_bump):
        grid, f = interval_bump
        polys = [parse_poly("x1", 1), parse_poly("0", 1), parse_poly("x1^2", 1)]
        batch = list(growth_sequences(f, family_explicit(polys), 2, 16))
        zero = batch[1]
        assert (zero.regime, zero.truncated_at, zero.limit, zero.L.size) == ("zero", 1, 0.0, 0)
        for P, seq in zip(polys, batch):
            assert_same_sequence(seq, growth_sequence(f, P, 2, 16))

    def test_empty_mask_batch(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        family = family_explicit([parse_poly("x1", 1), parse_poly("1", 1)])
        for seq in growth_sequences(f, family, 2, 16):
            assert (seq.regime, seq.truncated_at, seq.limit, seq.L.size) == ("zero", 1, 0.0, 0)


# ---------------------------------------------------------------------------
# p = 2 ledgers from spatial_norms' Parseval rows, against the batch they replaced
# ---------------------------------------------------------------------------

def parent_parseval_sequences(spec, family, n_max):
    """The p = 2 branch of growth_sequences before spatial_norms summed the
    2-norms: stacks of at most n_points // (mask cells) members, each stack's
    2-norms summed on the mask cells as |G_n|^2 of the complex iterate block
    (one hypot per cell and n) before the row was the moment sum
    sum_j |F_j|^2 t_j^n."""
    size = max(1, spec.grid.n_points // max(1, spec.coords.shape[0]))
    n = np.arange(1, n_max + 1)
    for start in range(0, len(family), size):
        stack = family[start:start + size]
        sums = np.empty((len(stack), n_max))
        R, _, steps = block_iterates(spec, stack, n_max)
        logR = parent_log_R(R)
        with np.errstate(over="ignore"):
            for k, G in steps:
                sums[:, k - 1] = np.sum(np.abs(G) ** 2, axis=1)
        sums *= spec.grid.dlam ** spec.grid.d
        norms = np.sqrt(sums, out=sums)
        for P, R_k, logR_k, nrm in zip(stack, R.tolist(), logR, norms):
            yield parent_sequence(P, 2, R_k, n * logR_k, nrm)


def small_box():
    """d = 1 box of 11 mask cells on 64 points: stacks of at most 5 members."""
    grid = make_grid(1, 64, 0.5)
    return sample_builtin({"kind": "spectral_bump",
                           "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)


class TestParsevalRowsMatchParentBatch:
    def cases(self):
        for member in verify_corpus() + acceptance_corpus():
            yield member.spec, member.polys
        spec = Spectrum.of(small_box())
        family = family_quadratic_real(np.linspace(-1.0, 1.0, 12)[:, None], spec.grid)
        assert len(family) > 2 * (spec.grid.n_points // spec.coords.shape[0])  # 3 stacks
        yield spec, family
        yield spec, family_explicit([parse_poly(t, 1) for t in ("x1", "0", "x1^2")])
        empty = Spectrum.of(SampledFunction(make_grid(1, 64, 0.5), "spatial", np.zeros(64)))
        assert empty.mask.is_empty
        yield empty, family_explicit([parse_poly("x1", 1), parse_poly("1", 1)])

    def test_bit_identical(self, monkeypatch):
        def no_step(spec):
            raise AssertionError("a p = 2 ledger built a SpatialStep")

        monkeypatch.setattr("realpw.growth.SpatialStep", no_step)
        checked = 0
        for spec, polys in self.cases():
            new = list(growth_sequences(spec, polys, 2, 64))
            ref = list(parent_parseval_sequences(spec, polys, 64))
            assert len(new) == len(ref) == len(polys)
            for a, b in zip(new, ref):
                # the moment sum rounds unlike |G_n|^2: rows and limits agree
                # to the refactor contract, 1e-12 relative
                assert a.norms == pytest.approx(b.norms, rel=1e-12, abs=0.0)
                assert a.L == pytest.approx(b.L, rel=1e-12, abs=1e-12)
                assert a.limit == pytest.approx(b.limit, rel=1e-12, abs=0.0)
                assert (a.P, a.regime, a.truncated_at, a.R) == (b.P, b.regime, b.truncated_at, b.R)
                assert type(a.R) is float
                checked += 1
        assert checked == 8 + 22 + 12 + 3 + 2


# ---------------------------------------------------------------------------
# the Parseval row as a moment sum, against the complex-block loop and a
# long double recomputation
# ---------------------------------------------------------------------------

def two_box_lattice(seed):
    """The two-box input of the reconstruct-twobox benchmark at a seed's box
    shifts, with its 16 x 16 quadratic_real_lattice family (span 63 cells)."""
    rng = random.Random(f"reconstruct-twobox:{seed}")
    (ax, ay), (bx, by) = ((0, 0), (0, 0)) if seed == 0 else tuple(
        (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2))
    grid = make_grid(2, 256, 0.05)
    dlam = grid.dlam

    def box(lo, hi):
        return {"shape": "box", "lo": [c * dlam for c in lo], "hi": [c * dlam for c in hi]}

    support = {"shape": "union", "parts": [
        box([15.5 + ax, -1.5 + ay], [26.5 + ax, 1.5 + ay]),
        box([-26.5 + bx, -1.5 + by], [-15.5 + bx, 1.5 + by])]}
    f = sample_builtin({"kind": "spectral_bump", "support": support,
                        "edge_width": 0.45 * dlam}, grid)
    cvals = (np.arange(16) - 7) * (63 * dlam / 8)
    return f, family_quadratic_real([np.array([a, b]) for a in cvals for b in cvals], grid)


def long_double_rows(spec, family, n_max):
    """Each member's Parseval row sqrt(dlam^d sum_j |F_j|^2 t_j^n), t_j =
    |P(i lam_j)/R|^2, in np.longdouble from the same F and symbol block."""
    _, ratio = symbol_ratios(spec, family)
    F, ld = spec.F[spec.mask.field], np.longdouble
    w = F.real.astype(ld) ** 2 + F.imag.astype(ld) ** 2
    t = ratio.real.astype(ld) ** 2 + ratio.imag.astype(ld) ** 2
    W, sums = np.tile(w, (len(family), 1)), np.empty((len(family), n_max), dtype=ld)
    for n in range(n_max):
        W *= t
        sums[:, n] = W.sum(axis=1)
    return np.sqrt(sums * ld(spec.grid.dlam) ** spec.grid.d)


class TestMomentRowsMatchComplexBlock:
    def test_two_box_masks_at_the_bench_shifts(self):
        # reconstruct-twobox's input at seeds 0-8: the masks carved with the
        # moment-sum limits are the masks carved with the complex-block ones
        for seed in range(9):
            f, family = two_box_lattice(seed)
            spec, grid = Spectrum.of(f), f.grid
            res = reconstruct_support(spec, family, 2, 200, tau=0.01)
            ref = list(parent_parseval_sequences(spec, family, 200))
            new = list(growth_sequences(spec, family, 2, 200))
            assert all(b.truncated_at is None for b in ref)
            limits = np.array([b.limit for b in ref])
            keep, lams = np.ones(grid.n_points, dtype=bool), grid.frequency_coords()
            for k in range(0, len(family), 16):
                block = np.abs(eval_symbol_many(family[k:k + 16], lams))
                keep &= (block <= limits[k:k + 16, None] * 1.01).all(axis=0)
            assert res.estimated.field.tobytes() == keep.tobytes()
            assert np.all(np.abs(np.array(res.limits) - limits) <= 1e-12 * limits)
            for a, b in zip(new, ref, strict=True):
                assert (a.regime, a.truncated_at, a.R) == (b.regime, b.truncated_at, b.R)

    def test_rows_within_the_rounding_bound(self):
        """Every Parseval row of the TestParsevalRowsMatchParentBatch cases
        and the two-box family, n <= 200, against long_double_rows.  With u =
        2^-53 and C's hypot within 1 ulp (2u): |F_j| and |r_j| = |P/R| carry
        2u each, so the first term (|F_j| |r_j|)^2 carries 2(2u + 2u + u) +
        u = 11u; t_j = re^2 + im^2 carries 2u, and each W *= t adds 3u, so
        |F_j|^2 t_j^n carries (3n + 8)u.  A row sum of N positive terms adds
        at most (N - 1)u in any order, and dlam^d 3u, so the sum carries
        (3n + N + 10)u, and its square root (3n + N + 12)u/2.  2u more covers
        the long double rows' own rounding (2^-64 a step).  The rows stay
        far above the subnormal range, so the bound is relative.  Measured
        worst at n = 200 on the two-box family: 1.65e-14 for the moment sum
        (its bound there is 3.8e-14), 1.44e-15 for the complex-block loop it
        replaced: t_j's one rounding is raised to the n-th power, where the
        loop's roundings fall in random directions."""
        u = np.finfo(float).eps / 2
        cases = list(TestParsevalRowsMatchParentBatch().cases())
        cases.append(tuple(two_box_lattice(0)))
        checked = 0
        for spec, family in cases:
            spec = Spectrum.of(spec)
            ref = long_double_rows(spec, family, 200)
            rows = np.array([two for _, two, _ in spatial_norms(spec, family, 200, [])]
                            ).reshape(ref.shape)
            n, N = np.arange(1, 201), spec.coords.shape[0]
            live = ref[:, 0] > 0.0
            assert np.all(ref[live] > 1e-150) and not rows[~live].any()
            err = np.abs(rows[live].astype(np.longdouble) - ref[live])
            assert np.all(err <= (3 * n + N + 16) * u / 2 * ref[live])
            checked += len(family)
        assert checked == 8 + 22 + 12 + 3 + 2 + 256


# ---------------------------------------------------------------------------
# every ledger carries the R it was normalised by
# ---------------------------------------------------------------------------

class TestLedgerCarriesR:
    def test_corpus_R_is_the_reference(self, corpus):
        checked = 0
        for member in corpus:
            spec = Spectrum.of(member.f)
            for P in member.polys:
                ref = compute_R(P, spec.mask)
                for p in (1, 2, np.inf):
                    seq = growth_sequence(spec, P, p, 8)
                    assert seq.R == ref.value and type(seq.R) is float
                    assert seq.resolved == ref.resolved == spec.mask.resolved
                    checked += 1
        assert checked == 66

    @pytest.mark.parametrize("p", [2, np.inf])
    def test_zero_symbol_and_empty_mask_batches(self, interval_bump, p):
        grid, f = interval_bump
        zero = SampledFunction(make_grid(1, 64, 0.5), "spatial", np.zeros(64))
        for g, texts in ((f, ["x1", "0", "x1^2"]), (zero, ["x1", "1"])):
            spec = Spectrum.of(g)
            polys = [parse_poly(t, 1) for t in texts]
            for P, seq in zip(polys, growth_sequences(spec, family_explicit(polys), p, 16)):
                assert seq.R == compute_R(P, spec.mask).value
                assert seq.resolved == spec.mask.resolved

    def test_relative_gap(self, interval_bump):
        grid, f = interval_bump
        seq = growth_sequence(f, parse_poly("x1", 1), 2, 64)
        assert seq.relative_gap == abs(seq.limit - seq.R) / seq.R
        zero = growth_sequence(f, parse_poly("0", 1), 2, 16)
        assert (zero.R, zero.relative_gap) == (0.0, 0.0)

    def test_pointwise_reports_carry_R(self, interval_bump):
        grid, f = interval_bump
        spec = Spectrum.of(f)
        for text in ("x1", "x1^2", "0.5+2*i*x1", "0"):
            P = parse_poly(text, 1)
            for mode in ("growth", "decay"):
                rep = pointwise_growth(spec, P, 2, 8, mode=mode)
                assert rep.R == compute_R(P, spec.mask).value

    def test_liminf_reads_the_ledger(self, interval_bump):
        grid, f = interval_bump
        seq = growth_sequence(f, parse_poly("x1", 1), np.inf, 64)
        rep = liminf_check(seq, tol=0.02)
        assert (rep.R, rep.resolved) == (seq.R, seq.resolved)
        assert rep.step_median == float(np.median(seq.step_factors[-seq.tail_window:]))


def iterates_per_member(spec, polys, per_member):
    """R and the first step of the iterate block as they were before a stack
    was one symbol block: each member's symbol by itself, R its max modulus,
    G_1 the spectrum times the symbol over R, and a zero row for R = 0."""
    F = spec.F[spec.mask.field]
    R, G = np.zeros(len(polys)), np.zeros((len(polys), F.size), dtype=complex)
    for k, P in enumerate(polys):
        sym = per_member(P, spec.coords)
        R[k] = np.abs(sym).max(initial=0.0)
        if R[k] > 0.0:
            G[k] = F * (sym / float(R[k]))
    return R, G


class TestStackIsOneSymbolBlock:
    def families(self):
        """(input, family): a d = 2 ball with 49 real quadratics, a d = 1 box
        with explicit members (one of them 0, so R = 0), an empty mask."""
        ball = make_grid(2, 64, 0.5)
        centers = np.stack(np.meshgrid(*[np.linspace(-3, 3, 7)] * 2, indexing="ij"), -1)
        yield (sample_builtin({"kind": "spectral_bump", "support": {
            "shape": "ball", "radius": 4.5 * ball.dlam}}, ball),
               family_quadratic_real(centers.reshape(-1, 2), ball))
        line = make_grid(1, 64, 0.5)
        bump = sample_builtin({"kind": "spectral_bump",
                               "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, line)
        texts = ("x1", "0", "0.5+2*i*x1", "x1^3 - x1 + 2")
        yield bump, family_explicit([parse_poly(t, 1) for t in texts])
        yield (SampledFunction(line, "spatial", np.zeros(64)),
               family_explicit([parse_poly("x1", 1)]))

    def test_R_and_first_step_are_bit_equal(self, per_member):
        for f, family in self.families():
            spec = Spectrum.of(f)
            R, _, steps = block_iterates(spec, family, 1)
            (_, G), = steps
            want_R, want_G = iterates_per_member(spec, family.polys, per_member)
            assert R.tobytes() == want_R.tobytes() and G.tobytes() == want_G.tobytes()

    def test_overflowing_member_is_named(self):
        # |lam| reaches 1000 on the mask, so x1^200 overflows a double there
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1e3], "hi": [1e3]}},
                           make_grid(1, 64, 1e-3))
        family = family_explicit([parse_poly("x1", 1), parse_poly("x1^200 + 1", 1)])
        with pytest.raises(GrowthError, match=r"^1\.0 \+ 1\.0\*x1\^200: \|P\(i lam\)\| on"):
            symbol_ratios(Spectrum.of(f), family)


# ---------------------------------------------------------------------------
# spatial_norms: one pass per P reads every norm, as the loops it replaced did
# ---------------------------------------------------------------------------

def parent_ledger(spec, P, p, n_max):
    """(L, truncated_at) by the per-norm loop spatial_norms replaced: one
    SpatialStep call and one norm per n, cut at the first norm that is not > 0
    or not finite."""
    step = SpatialStep(spec)
    S, nrm = [], []
    R, _, steps = block_iterates(spec, family_explicit([P]), n_max)
    logR = parent_log_R(R)
    for n, G in steps if R[0] > 0.0 else ():
        S.append((n * logR)[0])
        nrm.append(step.norm(step(G[0]), p))
        if not (nrm[-1] > 0.0 and np.isfinite(nrm[-1])):
            break
    S, nrm = np.array(S, dtype=float), np.array(nrm, dtype=float)
    bad = ~((nrm > 0.0) & np.isfinite(nrm))
    k = int(bad.argmax()) if bad.any() else nrm.size
    return S[:k] + np.log(nrm[:k]), (k + 1 if k < nrm.size else None)


def parent_weighted_sup_logs(spec, P, n_max, exponents):
    """The weighted sup-norm loop spatial_norms replaced: a row of logs
    log max_x |P(d)^n f(x)| (1+|x|)^e per exponent, up to the first vanishing
    iterate."""
    step = SpatialStep(spec)
    absx = np.linalg.norm(spec.grid.spatial_coords(), axis=-1)
    weights = [step.fft_order((1.0 + absx) ** e) for e in exponents]
    rows = []
    R, _, steps = block_iterates(spec, family_explicit([P]), n_max)
    logR = parent_log_R(R)
    for n, G in steps:
        g = step(G[0])
        tops = [step.norm(g * w, np.inf) for w in weights]
        if tops[0] <= 0:
            break
        rows.append([(n * logR)[0] + np.log(top) for top in tops])
    return np.array(rows).reshape(-1, len(exponents)).T


def assert_same_ledger(a, b):
    assert np.array_equal(a.L, b.L) and np.array_equal(a.roots, b.roots)
    assert (a.limit, a.regime, a.truncated_at, a.R) == (b.limit, b.regime, b.truncated_at, b.R)


def assert_same_pointwise(a, b):
    assert np.array_equal(a.log_W, b.log_W)
    assert (a.rtilde, a.admissible, a.regime, a.R) == (b.rtilde, b.admissible, b.regime, b.R)


def assert_matches_parent(logs, limit, regime, ref, paired):
    """A row's logs, limit and regime against the parent path's logs: bit for
    bit on an unpaired row.  A paired row (g_(n-1) and g_n read from one
    transform) keeps the regime; its limit is within 1e-12 relative, and its
    logs within 1e-12 of max(1, |log|)."""
    assert logs.shape == ref.shape
    if not paired:
        assert np.array_equal(logs, ref)
        return
    assert logs == pytest.approx(ref, rel=1e-12, abs=1e-12)
    est = estimate_limit(ref)
    assert regime == est.regime and limit == pytest.approx(est.limit, rel=1e-12)


@pytest.fixture(scope="module")
def both_corpora():
    """(member, n_max): the verify corpus at its n_max, the acceptance corpus
    at a shorter one (its d = 2 steps are 4 times larger)."""
    return ([(m, DESK_NMAX) for m in verify_corpus()]
            + [(m, 12) for m in acceptance_corpus()])


class TestSpatialNormsMatchParentPaths:
    def test_verify_ledgers_match_standalone_and_parent(self, both_corpora, pairs):
        checked = paired = 0
        for member, n_max in both_corpora:
            spec, ledgers = member.spec, member.ledgers(n_max)
            seqs = iter(ledgers.sequences)
            for P, rep in zip(member.polys, ledgers.rtilde):
                for p in member.p_values:
                    seq = next(seqs)
                    assert (seq.P, seq.p) == (P, p)
                    assert_same_ledger(seq, growth_sequence(spec, P, p, n_max))
                    if p != 2:
                        L, truncated_at = parent_ledger(spec, P, p, n_max)
                        assert seq.truncated_at == truncated_at
                        assert_matches_parent(seq.L, seq.limit, seq.regime, L, pairs(spec, P))
                    checked += 1
                assert_same_pointwise(rep, pointwise_growth(spec, P, RTILDE_N, n_max))
                (log_W,) = parent_weighted_sup_logs(spec, P, n_max, [-RTILDE_N])
                assert_matches_parent(rep.log_W, rep.rtilde, rep.regime, log_W, pairs(spec, P))
                paired += pairs(spec, P)
        assert checked == 3 * (8 + 22)
        assert paired == 4 + 14         # the real P on the real inputs

    def test_pointwise_modes_and_schwartz_from_one_pass(self, both_corpora, pairs):
        N, n_max = 2, 16
        for member, _ in both_corpora:
            spec, d = member.spec, member.spec.grid.d
            norms = [(np.inf, N), (np.inf, -N), (np.inf, d + 1)]
            for P, (R, two, rows) in zip(member.polys,
                                         spatial_norms(spec, member.polys, n_max, norms)):
                ref = parent_weighted_sup_logs(spec, P, n_max, [N, -N, d + 1])
                paired = pairs(spec, P)
                for mode, row, log_W in (("decay", rows[0], ref[0]),
                                         ("growth", rows[1], ref[1])):
                    rep = PointwiseGrowthReport.from_row(N, mode, R, row)
                    assert_same_pointwise(rep, pointwise_growth(spec, P, N, n_max, mode))
                    assert_matches_parent(rep.log_W, rep.rtilde, rep.regime, log_W, paired)
                claim = 1.05 * R
                check = schwartz_decay_check(spec, P, claim, N, n_max)
                n = np.arange(1, ref.shape[1] + 1)
                c_star = float(np.exp(float(np.max(ref[0] - N * np.log(n) - n * np.log(claim)))))
                phi = float(np.max(ref[2] - n * np.log(claim) - (d + 1) * np.log(n)))
                if paired:
                    assert check.C_star == pytest.approx(c_star, rel=1e-12)
                    assert check.phi_sup_log == pytest.approx(phi, rel=1e-12, abs=1e-12)
                else:
                    assert (check.C_star, check.phi_sup_log) == (c_star, phi)

    def test_zero_input(self):
        f = SampledFunction(make_grid(2, 16, 0.5), "spatial", np.zeros(256))
        spec, P = Spectrum.of(f), parse_poly("x1", 2)
        R, two, rows = member_rows(spec, P, 16, [(1, 0), (np.inf, -2), (np.inf, 3)])
        assert R == 0.0 and all(v.size == 0 for v in rows)
        seq = ledger(P, 1, 16, R, rows[0], True)
        assert_same_ledger(seq, growth_sequence(spec, P, 1, 16))
        assert (seq.regime, seq.truncated_at) == ("zero", 1)
        assert parent_ledger(spec, P, 1, 16) == (pytest.approx([]), None)
        rep = PointwiseGrowthReport.from_row(2, "growth", R, rows[1])
        assert_same_pointwise(rep, pointwise_growth(spec, P, 2, 16))
        assert rep.regime == "zero"
        assert schwartz_decay_check(spec, P, 1.0, 2, 16).C_star == 0.0

    def test_each_row_is_cut_at_its_own_zero(self, interval_bump):
        # at this scale |g_n|^2 underflows after three steps: the p = 2 row
        # ends in its 0 at n = 4 while the p = 1 and max rows run on
        grid, f = interval_bump
        spec, P = Spectrum.of(f.with_values(f.values * 1e-159)), parse_poly("x1^2", 1)
        R, two, rows = member_rows(spec, P, 64, [(1, 0), (2, 0), (np.inf, 0)])
        assert [v.size for v in rows] == [64, 4, 64] and rows[1][-1] == 0.0
        for p, row in zip((1, 2, np.inf), rows):
            seq = ledger(P, p, 64, R, row, spec.mask.resolved)
            L, truncated_at = parent_ledger(spec, P, p, 64)
            assert np.array_equal(seq.L, L) and seq.truncated_at == truncated_at
        short = ledger(P, 2, 64, R, rows[1], spec.mask.resolved)
        assert (short.truncated_at, short.regime, short.L.size) == (4, "truncated", 3)
        assert np.array_equal(short.norms, rows[1][:3])

    def test_overflowing_norm_message(self):
        # a spike near the double range: the step's transform overflows, which
        # used to escape as numpy's "overflow encountered in ifft" warning
        grid = make_grid(1, 1024, 1.0)
        values = np.zeros(1024)
        values[512] = 1e307
        spec, P = Spectrum.of(SampledFunction(grid, "spatial", values)), parse_poly("x1", 1)
        for p in (1, np.inf):
            with pytest.raises(GrowthError, match=(
                    rf"^1.0\*x1 at p = {float(p):g}: \|\|P\(d\)\^1 f\|\| exceeds the "
                    r"double range; the input's values are too large$")):
                growth_sequence(spec, P, p, 16)
        values[512] = 1e300             # finite steps; the weight (1+|x|)^10 overflows
        spike = SampledFunction(grid, "spatial", values)
        with pytest.raises(GrowthError, match=r"x1 at p = inf: \|\|\(1\+\|x\|\)\^10 P\(d\)\^1 f"):
            pointwise_growth(spike, P, 10, 16, mode="decay")
        assert pointwise_growth(spike, P, 10, 16, mode="growth").log_W.size == 16

    def test_overflowing_norm_message_on_the_matrix_pass(self):
        # six plane waves near the double range on a d = 2 grid: both axes
        # take the matrix pass, and the p = 1 norm of g_1 overflows.  A pass
        # cannot overflow on finite input (its block's entries are 1/M in
        # modulus, and K_a <= M), so its inputs are already non-finite when
        # its output is; it must pass them on, not warn
        grid = make_grid(2, 16, 2.0)
        x = grid.spatial_coords()
        waves = sum(np.exp(1j * grid.dlam * (k0 * x[:, 0] + k1 * x[:, 1]))
                    for k0 in (2, 3) for k1 in (1, 2, 3))
        spec, P = Spectrum.of(SampledFunction(grid, "spatial", 6e305 * waves)), parse_poly("x1", 2)
        step = SpatialStep(spec)
        assert step.matrix_axes == {0, 1}
        with pytest.raises(GrowthError, match=(
                r"^1.0\*x1 at p = 1: \|\|P\(d\)\^1 f\|\| exceeds the double range; "
                r"the input's values are too large$")):
            growth_sequence(spec, P, 1, 16)
        assert growth_sequence(spec, P, np.inf, 16).L.size == 16
        G = spec.F[spec.mask.field].copy()
        G[0] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(step(G)).any()


class TestLedgersMatchParentFormation:
    """Every ledger formed from a plain norm row and R against the parent's
    formation from (S, values) pairs of the same pass: bit for bit."""

    def test_growth_sequences(self, both_corpora):
        checked = 0
        for member, n_max in both_corpora:
            spec, family = member.spec, member.polys
            for p in (1, 2, 3.5, np.inf):
                norms = [] if p == 2 else [(p, 0)]
                ref = [parent_sequence(P, p, R, *(rows[0] if norms else two))
                       for P, R, two, rows in parent_pass(spec, family, n_max, norms)]
                new = list(growth_sequences(spec, family, p, n_max))
                assert len(new) == len(ref) == len(family)
                for a, b in zip(new, ref):
                    assert_same_formation(a, b)
                    checked += 1
        assert checked == 4 * (8 + 22)

    def test_verify_ledgers(self, both_corpora):
        checked = 0
        for member, n_max in both_corpora:
            spec, family, ledgers = member.spec, member.polys, member.ledgers(n_max)
            assert spec.mask.resolved
            spatial_p = [p for p in member.p_values if p != 2]
            norms = [(p, 0) for p in spatial_p] + [(np.inf, -RTILDE_N)]
            passes = itertools.chain(parent_pass(spec, family[:1], n_max, norms + [(2, 0)]),
                                     parent_pass(spec, family[1:], n_max, norms))
            seqs = iter(ledgers.sequences)
            for (P, R, two, rows), rep in zip(passes, ledgers.rtilde, strict=True):
                by_p = {2: two, **dict(zip(spatial_p, rows))}
                for p in member.p_values:
                    assert_same_formation(next(seqs), parent_sequence(P, p, R, *by_p[p]))
                    checked += 1
                assert rep.log_W.tobytes() == parent_logs(*rows[len(spatial_p)]).tobytes()
            assert next(seqs, None) is None
        assert checked == 3 * (8 + 22)

    def test_pointwise_and_schwartz(self, both_corpora):
        N = 2
        for member, n_max in both_corpora:
            spec, d = member.spec, member.spec.grid.d
            for P in member.polys:
                one = family_explicit([P])
                for mode, e in (("decay", N), ("growth", -N)):
                    ((_, R, _, (row,)),) = parent_pass(spec, one, n_max, [(np.inf, e)])
                    log_W = pointwise_growth(spec, P, N, n_max, mode).log_W
                    assert log_W.tobytes() == parent_logs(*row).tobytes()
                claim = 1.05 * R
                ((_, _, _, (W_N, _)),) = parent_pass(spec, one, n_max,
                                                     [(np.inf, N), (np.inf, d + 1)])
                W = parent_logs(*W_N)
                n = np.arange(1, W.size + 1)
                per_n = W - N * np.log(n) - n * np.log(claim)
                got = schwartz_decay_check(spec, P, claim, N, n_max).per_n_log
                assert got.tobytes() == per_n.tobytes()

    def test_log_R_per_member_matches_the_stack_vector(self):
        # the parent took log R along a stack's vector of R, a ledger now per
        # member: numpy's log of one R equals its vector lane, where
        # math.log differs in the last bit on some 0.2% of these values
        rng = np.random.default_rng(0)
        R = np.concatenate([rng.uniform(0.0, 1.0, 5000), rng.lognormal(0.0, 20.0, 5000)])
        norms, member = np.array([0.5, 0.25]), family_explicit([parse_poly("x1", 1)])
        seqs = GrowthSequence.from_rows([(member, 2, R_m, norms, 0) for R_m in R.tolist()],
                                        8, True)
        S = np.arange(1, 3) * parent_log_R(R)[:, None]
        got = np.array([seq.L for seq in seqs])
        assert got.tobytes() == (S + np.log(norms)).tobytes()

    def test_rows_of_mixed_lengths_in_one_call(self):
        # rows of several lengths, whole or cut, share one from_rows call:
        # each ledger is the parent's formation and owns its memory
        rng = np.random.default_rng(1)
        rows = [rng.lognormal(0.0, 3.0, size) for size in (64, 9, 0, 64, 9, 2)]
        rows[3][40], rows[4][0] = 0.0, -1.0
        R = rng.uniform(0.5, 2.0, len(rows))
        S = np.arange(1, 65) * parent_log_R(R)[:, None]
        member = family_explicit([parse_poly("x1", 1)])
        seqs = list(GrowthSequence.from_rows(
            [(member, 2, R_m, v, 0) for R_m, v in zip(R.tolist(), rows)], 64, True))
        assert [seq.L.size for seq in seqs] == [64, 9, 0, 40, 0, 2]
        for seq, S_m, v in zip(seqs, S, rows):
            assert seq.L.tobytes() == parent_logs(S_m[:v.size], v).tobytes()
            assert seq.L.base is None


def assert_same_formation(a, b):
    assert a.L.tobytes() == b.L.tobytes() and a.norms.tobytes() == b.norms.tobytes()
    assert ((a.P, a.p, a.R, a.limit.hex(), a.regime, a.truncated_at)
            == (b.P, b.p, b.R, b.limit.hex(), b.regime, b.truncated_at))


# ---------------------------------------------------------------------------
# two real iterates per transform: spatial_norms against the unpaired path
# ---------------------------------------------------------------------------

def unpaired_rows(spec, P, n_max, norms):
    """(R, rows) of spatial_norms for one P by the unpaired path: one
    SpatialStep call and one value per live row and n, a row cut after its
    first value that is not > 0 and ending at its first that is not finite."""
    step = SpatialStep(spec)
    absx = np.linalg.norm(spec.grid.spatial_coords(), axis=-1)
    weights = [step.fft_order((1.0 + absx) ** e) for _, e in norms]
    R, _, steps = block_iterates(spec, family_explicit([P]), n_max)
    rows = [[] for _ in norms]
    for _, G in steps if R[0] > 0.0 else ():
        going = [k for k, row in enumerate(rows) if not row or 0.0 < row[-1] < np.inf]
        if not going:
            break
        g = step(G[0])
        for k in going:
            rows[k].append(step.norm(g * weights[k] if norms[k][1] else g, norms[k][0]))
    return float(R[0]), [np.array(r, dtype=float) for r in rows]


def assert_rows_match_unpaired(spec, P, n_max, norms, paired):
    """spatial_norms' rows of P as ledgers against the unpaired path: bit for
    bit unpaired; paired within 1e-12 (logs of max(1, |L_n|), limits relative)
    with the same regime and cut."""
    R, _, rows = member_rows(spec, P, n_max, norms)
    R_ref, ref = unpaired_rows(spec, P, n_max, norms)
    assert R == R_ref
    for (p, _), row, ref_row in zip(norms, rows, ref):
        a, b = (ledger(P, p, n_max, R, r, True) for r in (row, ref_row))
        assert (a.regime, a.truncated_at) == (b.regime, b.truncated_at)
        if paired:
            assert a.L == pytest.approx(b.L, rel=1e-12, abs=1e-12)
            assert a.limit == pytest.approx(b.limit, rel=1e-12)
        else:
            assert a.L.tobytes() == b.L.tobytes() and a.limit == b.limit
    return rows


@pytest.fixture
def count_steps(monkeypatch):
    """The rows each SpatialStep call transforms, one entry per call: a
    one-row call, or the stack of a d = 1 chunk."""
    calls, step = [], SpatialStep.__call__

    def counting_step(self, G):
        calls.append(len(G) if G.ndim == 2 else 1)
        return step(self, G)

    monkeypatch.setattr(SpatialStep, "__call__", counting_step)
    return calls


def chunks(f, transforms):
    """The SpatialStep calls of a d = 1 member's transforms on f's grid."""
    return -(-transforms // (transform.CHUNK_MAX_POINTS // f.grid.M))


def offset_interval():
    return verify_corpus()[1].f


def under_resolved_bump():
    """A sharp spatial bump: real and even, but its spectrum reaches the
    Nyquist shells, where a cell is its own mirror."""
    return sample_builtin({"kind": "spatial_bump",
                           "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]},
                           "edge_width": 0.15}, make_grid(1, 256, 0.1))


NORMS = [(1, 0), (np.inf, 0), (np.inf, 2)]


class TestPairedRealIterates:
    @pytest.mark.parametrize("phase", [1.0, 1.0 + 1e-14j])
    def test_paired_real_input_and_poly(self, phase, interval_bump, pairs, count_steps):
        # F Hermitian to 2e-14 of max |F| pairs too: the bound is 1e-12
        _, f = interval_bump
        spec, P = Spectrum.of(f.with_values(f.values * phase)), parse_poly("x1", 1)
        assert pairs(spec, P)
        assert_rows_match_unpaired(spec, P, 16, NORMS, True)
        # the pairs in chunks, then the unpaired reference row by row
        assert (sum(count_steps), len(count_steps)) == (8 + 16, chunks(f, 8) + 16)

    @pytest.mark.parametrize("case", ["under-resolved", "complex P", "non-Hermitian",
                                      "complex input"])
    def test_unpaired_inputs(self, case, interval_bump, pairs, count_steps):
        # the complex input's mask is the interval's, closed under lam -> -lam,
        # but its F is Hermitian only to 2e-10 of max |F|
        _, bump = interval_bump
        f, text = {"under-resolved": (under_resolved_bump(), "x1"),
                   "complex P": (bump, "0.5+2*i*x1"),
                   "non-Hermitian": (offset_interval(), "x1"),
                   "complex input": (bump.with_values(bump.values * (1.0 + 1e-10j)), "x1")}[case]
        spec, P = Spectrum.of(f), parse_poly(text, 1)
        assert not pairs(spec, P)
        if case == "under-resolved":
            # mirror-closed and Hermitian: only the Nyquist cells keep it unpaired
            field = spec.mask.field
            assert not spec.mask.resolved and field[0] and np.array_equal(field[1:], field[:0:-1])
        assert_rows_match_unpaired(spec, P, 16, NORMS, False)
        assert (sum(count_steps), len(count_steps)) == (16 + 16, chunks(f, 16) + 16)

    @pytest.mark.parametrize("n_max", [8, 9, 21])
    def test_odd_n_max_steps_its_last_n_alone(self, n_max, interval_bump, count_steps):
        _, f = interval_bump
        spec, P = Spectrum.of(f), parse_poly("x1^2", 1)
        rows = assert_rows_match_unpaired(spec, P, n_max, NORMS, True)
        assert [v.size for v in rows] == [n_max] * 3
        transforms = (n_max + 1) // 2
        assert (sum(count_steps), len(count_steps)) == (transforms + n_max,
                                                        chunks(f, transforms) + n_max)

    @pytest.mark.parametrize("norms", [[(2, 0)], [(1, 0), (2, 0), (np.inf, 0)]])
    def test_row_cut_at_the_first_of_a_pair(self, norms, interval_bump):
        # at this scale |g_n|^2 underflows at n = 7, g_7 being read from the
        # real part of the (7, 8) transform; the other rows run on
        _, f = interval_bump
        spec, P = Spectrum.of(f.with_values(f.values * 1e-159)), parse_poly("x1", 1)
        rows = assert_rows_match_unpaired(spec, P, 64, norms, True)
        assert [v.size for v in rows] == [7 if p == 2 else 64 for p, _ in norms]

    @pytest.mark.parametrize("n_star,n_max", [(9, 16), (10, 16), (9, 9)])
    def test_overflow_at_either_member_of_a_pair(self, n_star, n_max, interval_bump, pairs):
        # (1+|x|)^8 max |g_n| of this P sets new highs at n = 9 and 10: scaled
        # so that the double range ends between the two highs, the norm
        # overflows first at n_star
        _, f = interval_bump
        P, norms = parse_poly("x1^2 + x1^4", 1), [(np.inf, 8)]
        _, (v,) = unpaired_rows(Spectrum.of(f), P, n_star, norms)
        assert v[-1] > 1.1 * v[:-1].max()
        top = np.finfo(float).max / np.sqrt(v[-1] * v[:-1].max())
        spec = Spectrum.of(f.with_values(f.values * top))
        assert pairs(spec, P)
        _, (ref,) = unpaired_rows(spec, P, n_max, norms)
        assert ref.size == n_star and np.isinf(ref[-1]) and np.isfinite(ref[:-1]).all()
        with pytest.raises(GrowthError, match=rf"\^8 P\(d\)\^{n_star} f\|\| exceeds"):
            list(spatial_norms(spec, family_explicit([P]), n_max, norms))


# ---------------------------------------------------------------------------
# the ledger pass as two plain loops, against the one loop over n it replaced
# ---------------------------------------------------------------------------

def parent_spatial_norms(spec, family, n_max, norms):
    """spatial_norms as one loop over n: per stack, the moment sums and a
    (members x mask cells) iterate block G from block_iterates, stepped
    member after member at each n; a paired member's G_n waits at odd n in
    a held buffer, and at even n one step of G_(n-1) + i G_n reads n - 1
    from its real part and n from its imaginary part."""
    cells = spec.coords.shape[0]
    real = False
    if norms:
        step = SpatialStep(spec)
        absx = np.linalg.norm(spec.grid.spatial_coords(), axis=-1)
        weights = [step.fft_order((1.0 + absx) ** e) if e else None for _, e in norms]
        real, pair = growth._real_iterates(spec), np.empty(cells, dtype=complex)
    size = max(1, spec.grid.n_points // max(1, cells))
    for start in range(0, len(family), size):
        stack = family[start:start + size]
        sums = np.empty((len(stack), n_max))
        paired = np.flatnonzero(~stack.coeffs.imag.any(axis=1)).tolist() if real else []
        held = dict(zip(paired, np.empty((len(paired), cells), dtype=complex)))
        R, ratio, steps = block_iterates(spec, stack, n_max)
        rows = [[[] for _ in norms] for _ in range(len(stack))]
        live = {m: range(len(norms)) for m in range(len(stack)) if R[m] > 0.0} if norms else {}

        def goes_on(m, k, n, value):
            # a row ends with its first value not > 0; one not finite raises
            if not np.isfinite(value):
                raise growth._overflow(stack[m], *norms[k], n)
            return value > 0.0

        def read(m, ks, n, g):
            for k in ks:
                w = weights[k]
                rows[m][k].append(step.norm(g if w is None else g * w, norms[k][0]))
            return [k for k in ks if goes_on(m, k, n, rows[m][k][-1])]

        with np.errstate(over="ignore", invalid="ignore"):
            t = ratio.real ** 2 + ratio.imag ** 2
            W = np.square(np.abs(ratio) * np.abs(spec.F[spec.mask.field]))
            for n in range(1, n_max + 1):
                if n > 1:
                    W *= t
                np.sum(W, axis=1, out=sums[:, n - 1])
                G = next(steps)[1] if live else None
                for m, ks in list(live.items()):
                    if m not in held:
                        ks = read(m, ks, n, step(G[m]))
                    elif n % 2 and n < n_max:
                        held[m][:] = G[m]
                    elif n % 2:
                        ks = read(m, ks, n, step(G[m]).real)
                    else:
                        np.multiply(G[m], 1j, out=pair)
                        pair += held[m]
                        g = step(pair)
                        ks = read(m, ks, n - 1, g.real)
                        ks = read(m, ks, n, g.imag) if ks else ks
                    if ks:
                        live[m] = ks
                    else:
                        del live[m]
        sums *= spec.grid.dlam ** spec.grid.d
        np.sqrt(sums, out=sums)
        yield [(float(R[m]), sums[m], [np.array(r, dtype=float) for r in rows[m]])
               for m in range(len(stack))]


DIFF_NORMS = [(1, 0), (3.5, 0), (np.inf, 0), (np.inf, RTILDE_N), (np.inf, -RTILDE_N)]


def two_loop_cases(interval_bump):
    """(spectrum, family, norms): both corpora with every norm kind; the
    interval scaled to 1e-159, where the 2-norm rows are cut at n = 7 (x1,
    the first of a pair), n = 4 (x1^2, the second of a pair) and n = 5
    (0.5+2*i*x1, unpaired), and a zero member has R = 0; an empty mask."""
    for member in verify_corpus() + acceptance_corpus():
        yield member.spec, member.polys, DIFF_NORMS
    _, f = interval_bump
    tiny = Spectrum.of(f.with_values(f.values * 1e-159))
    texts = ("x1", "0", "x1^2", "0.5+2*i*x1")
    yield tiny, family_explicit([parse_poly(t, 1) for t in texts]), [(2, 0), (1, 0)]
    empty = Spectrum.of(SampledFunction(make_grid(1, 64, 0.5), "spatial", np.zeros(64)))
    yield empty, family_explicit([parse_poly("x1", 1)]), DIFF_NORMS


def overflow_case(interval_bump):
    """(spec, family, norms) where (1+|x|)^8 max |g_n| of x1^3 sets a new high
    at n = 16 and x1 + 2 starts above it: scaled so that the double range
    ends just below x1^3's high, x1 + 2 overflows at n = 1 and x1^3 at
    n = 16."""
    _, f = interval_bump
    family = family_explicit([parse_poly(t, 1) for t in ("x1^3", "x1 + 2")])
    norms = [(np.inf, 8)]
    (_, _, (v0,)), (_, _, (v1,)) = spatial_norms(Spectrum.of(f), family, 16, norms)
    cut = np.sqrt(v0[-1] * v0[:-1].max())
    assert v0[-1] > 1.01 * v0[:-1].max() and v1[0] > 1.5 * cut
    return Spectrum.of(f.with_values(f.values * (np.finfo(float).max / cut))), family, norms


OVERFLOW = r"^{} at p = inf: \|\|\(1\+\|x\|\)\^8 P\(d\)\^{} f\|\| exceeds the double range"


class TestTwoLoopPassMatchesParentLoop:
    @pytest.mark.parametrize("n_max", [15, 16, 64])
    def test_rows_are_bit_equal(self, n_max, interval_bump, pairs):
        seen = {"paired": 0, "unpaired": 0, "cut": 0, "R = 0": 0}
        for spec, family, norms in two_loop_cases(interval_bump):
            new = spatial_norms(spec, family, n_max, norms)
            ref = [row for stack in parent_spatial_norms(spec, family, n_max, norms)
                   for row in stack]
            assert len(new) == len(ref) == len(family)
            for P, (R, two, rows), (R_ref, two_ref, rows_ref) in zip(family, new, ref):
                assert type(R) is float and R.hex() == R_ref.hex()
                assert two.tobytes() == two_ref.tobytes()
                assert [r.tobytes() for r in rows] == [r.tobytes() for r in rows_ref]
                if R == 0.0:
                    seen["R = 0"] += 1
                    assert all(r.size == 0 for r in rows)
                else:
                    seen["paired" if pairs(spec, P) else "unpaired"] += 1
                    seen["cut"] += any(r.size < n_max for r in rows)
        assert seen == {"paired": 4 + 14 + 2, "unpaired": 4 + 8 + 1, "cut": 3, "R = 0": 2}

    def test_overflow_names_the_first_member_in_family_order(self, interval_bump):
        # the pass runs member by member, so the error names x1^3, the first
        # member in family order, not the member that overflows first in n
        spec, family, norms = overflow_case(interval_bump)
        with pytest.raises(GrowthError, match=OVERFLOW.format(r"1\.0\*x1\^3", 16)):
            list(spatial_norms(spec, family, 16, norms))
        with pytest.raises(GrowthError, match=OVERFLOW.format(r"2\.0 \+ 1\.0\*x1", 1)):
            list(spatial_norms(spec, family[1:], 16, norms))


@pytest.fixture
def helper_halves(monkeypatch):
    """spatial_norms on a host of two CPUs, whatever this one has: each
    entry of the returned list is the thread that ran one helper half, a
    _values call made off the calling thread."""
    monkeypatch.setattr(growth.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    halves, values, caller = [], growth._values, threading.get_ident()

    def counting(*args):
        if threading.get_ident() != caller:
            halves.append(threading.get_ident())
        return values(*args)

    monkeypatch.setattr(growth, "_values", counting)
    return halves


class TestSplitMatchesParentLoop:
    """spatial_norms with each member's n-range split across a helper thread,
    against the serial parent loop: bit-equal rows, the same cuts and the
    same overflow error."""

    @pytest.mark.parametrize("n_max", [8, 15, 64])
    def test_rows_are_bit_equal(self, n_max, interval_bump, pairs, helper_halves,
                                monkeypatch):
        # every grid splits, the d = 2 acceptance inputs as they do at the
        # module's threshold; the tiny interval's rows are cut at n = 7, 4
        # and 5, after h = 4 (n_max 8) and h = 6 (n_max 15) for some
        monkeypatch.setattr(growth, "SPLIT_MIN_POINTS", 1)
        h = n_max // 2 - n_max // 2 % 2     # the caller steps n = 1..h
        seen = {"paired": 0, "unpaired": 0, "cut by h": 0, "cut after h": 0, "R = 0": 0}
        for spec, family, norms in two_loop_cases(interval_bump):
            new = spatial_norms(spec, family, n_max, norms)
            ref = [row for stack in parent_spatial_norms(spec, family, n_max, norms)
                   for row in stack]
            for P, (R, two, rows), (R_ref, two_ref, rows_ref) in zip(family, new, ref,
                                                                    strict=True):
                assert R.hex() == R_ref.hex() and two.tobytes() == two_ref.tobytes()
                assert [r.tobytes() for r in rows] == [r.tobytes() for r in rows_ref]
                if R == 0.0:
                    seen["R = 0"] += 1
                    continue
                seen["paired" if pairs(spec, P) else "unpaired"] += 1
                for r in rows:
                    if r.size < n_max:
                        seen["cut by h" if r.size <= h else "cut after h"] += 1
        cut_at = (7, 4, 5)
        assert seen == {"paired": 4 + 14 + 2, "unpaired": 4 + 8 + 1, "R = 0": 2,
                        "cut by h": sum(n <= h for n in cut_at),
                        "cut after h": sum(n > h for n in cut_at)}
        assert len(helper_halves) == seen["paired"] + seen["unpaired"]
        assert threading.get_ident() not in helper_halves

    def test_overflow_in_the_helpers_half(self, interval_bump, helper_halves, monkeypatch):
        # h = 8 at n_max = 16: x1^3 overflows at n = 16, in the helper's
        # half, and x1 + 2 at n = 1, in the caller's, both as the step's
        # scale multiplies a finite value.  The (2, 2) row of x1 + 2 sets a
        # new high at n = 16; scaled so that its sum of squares passes the
        # double range there, the overflow is np.sum's, in the helper, which
        # warns unless the helper runs under the call's errstate: the
        # warnings are recorded, as one raised in the helper's thread would
        # not reach this one.  The reference is the serial pass, which names
        # the first member in family order (the parent loop names the first
        # to overflow in n)
        spec, family, norms = overflow_case(interval_bump)
        _, f = interval_bump
        ((_, _, (v,)),) = spatial_norms(Spectrum.of(f), family[1:], 16, [(2, 2)])
        assert v[-1] > 1.01 * v[:-1].max()
        top = (SpatialStep(Spectrum.of(f)).norm(np.ones(1), np.inf)
               * np.sqrt(f.grid.h * np.finfo(float).max))   # the largest summable 2-norm
        summed = Spectrum.of(f.with_values(f.values * (top / np.sqrt(v[-1] * v[:-1].max()))))
        monkeypatch.setattr(growth, "SPLIT_MIN_POINTS", 1)
        threads = threading.active_count()
        for spec, family, norms, n in [(spec, family, norms, 16), (spec, family[1:], norms, 1),
                                       (summed, family[1:], [(2, 2)], 16)]:
            with monkeypatch.context() as serial, pytest.raises(GrowthError) as ref:
                serial.setattr(growth.os, "sched_getaffinity", lambda pid: {0}, raising=False)
                spatial_norms(spec, family, 16, norms)
            with warnings.catch_warnings(record=True) as caught, \
                    pytest.raises(GrowthError) as new:
                warnings.simplefilter("always")
                spatial_norms(spec, family, 16, norms)
            assert str(new.value) == str(ref.value) and f"P(d)^{n} f" in str(new.value)
            assert threading.active_count() == threads and caught == []
        assert len(helper_halves) == 3

    def test_one_pool_per_call(self, interval_bump, helper_halves, monkeypatch):
        # the 12 members of small_box's family go through the symbol in 3
        # stacks and share one pool of one thread, which the call joins
        # before it returns or raises: the thread count is back where it
        # started after the pass, and after a GrowthError in the helper's
        # half (x1^3 at n = 16, h = 8) and in the caller's (x1 + 2 at n = 1)
        spec, two, norms = overflow_case(interval_bump)
        monkeypatch.setattr(growth, "SPLIT_MIN_POINTS", 1)
        pools, pool = [], growth.ThreadPoolExecutor

        def counting(*args):
            pools.append(args)
            return pool(*args)

        monkeypatch.setattr(growth, "ThreadPoolExecutor", counting)
        threads = threading.active_count()
        assert len(spatial_norms(*three_stacks(), 16, [(1, 0)])) == 12
        assert (pools, len(helper_halves)) == ([(1,)], 12)
        assert threading.active_count() == threads
        for family, n in ((two, 16), (two[1:], 1)):
            with pytest.raises(GrowthError, match=rf"P\(d\)\^{n} f\|\| exceeds"):
                spatial_norms(spec, family, 16, norms)
            assert threading.active_count() == threads
        assert len(pools) == 3

    @pytest.mark.parametrize("cpus, split", [({0}, False), ({0, 1}, True), (None, False),
                                             (1, False), (2, True)])
    def test_cpu_affinity_decides(self, cpus, split, monkeypatch):
        # the affinity, or os.cpu_count() (None when unknown) where there is
        # no sched_getaffinity; one CPU starts no thread
        if isinstance(cpus, set):
            monkeypatch.setattr(growth.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        else:
            monkeypatch.delattr(growth.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(growth.os, "cpu_count", lambda: cpus)
        pools, pool = [], growth.ThreadPoolExecutor

        def counting(*args):
            pools.append(args)
            return pool(*args)

        monkeypatch.setattr(growth, "ThreadPoolExecutor", counting)
        member = acceptance_corpus()[4]        # two boxes: 256^2 points, at the module's threshold
        threads = threading.active_count()
        assert len(spatial_norms(member.spec, member.polys[:1], 8, [(1, 0)])) == 1
        assert threading.active_count() == threads
        assert pools == ([(1,)] if split else [])


def three_stacks():
    """small_box's spectrum and 12 quadratics: symbol stacks of 5, 5 and 2."""
    spec = Spectrum.of(small_box())
    family = family_quadratic_real(np.linspace(-1.0, 1.0, 12)[:, None], spec.grid)
    assert len(family) > 2 * (spec.grid.n_points // spec.coords.shape[0])
    return spec, family


class TestFamiliesOfSeveralStacks:
    """Every ledger pass of the bench jobs is one symbol stack, so these are
    the check that a family of three gives each member what it gets alone."""

    @pytest.mark.parametrize("norms", [[(1, 0)], [(3.5, 0)], [(np.inf, 0)],
                                       [(np.inf, 2), (np.inf, -2)]])
    def test_rows_match_the_flattened_parent_loop(self, norms):
        spec, family = three_stacks()
        new = spatial_norms(spec, family, 64, norms)
        ref = [row for stack in parent_spatial_norms(spec, family, 64, norms) for row in stack]
        assert isinstance(new, list)
        for (R, two, rows), (R_ref, two_ref, rows_ref) in zip(new, ref, strict=True):
            assert R.hex() == R_ref.hex() and two.tobytes() == two_ref.tobytes()
            assert [r.tobytes() for r in rows] == [r.tobytes() for r in rows_ref]

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_sequences_match_each_member_alone(self, p):
        spec, family = three_stacks()
        seqs = growth_sequences(spec, family, p, 64)
        assert isinstance(seqs, list)
        for P, seq in zip(family, seqs, strict=True):
            assert_same_formation(seq, growth_sequence(spec, P, p, 64))


def chunk_ends(rows, paired, n_end):
    """The last n of each chunk spatial_norms steps a d = 1 member's n =
    1..n_end in, with `rows` transforms per chunk."""
    ends, n = [], 0
    while n < n_end:
        k = min(rows, (n_end - n + 1) // 2 if paired else n_end - n)
        n = min(n_end, n + 2 * k) if paired else n + k
        ends.append(n)
    return ends


@pytest.fixture
def chunk_rows(monkeypatch):
    """Set transform.CHUNK_MAX_POINTS so that a d = 1 spectrum's chunks hold
    `rows` transforms; returns the rows each SpatialStep call transformed."""
    calls, step = [], SpatialStep.__call__

    def counting_step(self, G):
        calls.append(len(G) if G.ndim == 2 else 1)
        return step(self, G)

    def setting(spec, rows):
        # M - 1 points more: the constant reads as a floor of points over M
        monkeypatch.setattr(transform, "CHUNK_MAX_POINTS", rows * spec.grid.M + spec.grid.M - 1)
        return calls

    monkeypatch.setattr(SpatialStep, "__call__", counting_step)
    return setting


class TestChunksMatchParentLoop:
    """spatial_norms stepping a d = 1 member's transforms in chunks of 1-3
    rows per ifft call, against the parent loop's one transform per call:
    bit-equal rows, the same cuts and the same overflow error."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [15, 32])
    def test_rows_are_bit_equal(self, rows, n_max, interval_bump, pairs, chunk_rows):
        # the tiny interval's 2-norm rows are cut at n = 7 (x1), 4 (x1^2),
        # both paired, and 5 (0.5+2*i*x1); at 1 row per chunk 4 and 5 end
        # their chunk, at 2 rows 4 does, at 3 rows none does
        seen = {"paired": 0, "unpaired": 0, "R = 0": 0, "cut at a chunk's end": 0,
                "cut inside a chunk": 0}
        for spec, family, norms in two_loop_cases(interval_bump):
            calls = chunk_rows(spec, rows)
            new = spatial_norms(spec, family, n_max, norms)
            ref = [row for stack in parent_spatial_norms(spec, family, n_max, norms)
                   for row in stack]
            for P, (R, two, rows_new), (R_ref, two_ref, rows_ref) in zip(family, new, ref,
                                                                        strict=True):
                assert R.hex() == R_ref.hex() and two.tobytes() == two_ref.tobytes()
                assert [r.tobytes() for r in rows_new] == [r.tobytes() for r in rows_ref]
                if R == 0.0:
                    seen["R = 0"] += 1
                    continue
                paired = pairs(spec, P)
                seen["paired" if paired else "unpaired"] += 1
                for r in rows_new:
                    if r.size < n_max and spec.grid.d == 1:
                        at_end = r.size in chunk_ends(rows, paired, n_max)
                        seen["cut at a chunk's end" if at_end else "cut inside a chunk"] += 1
            if spec.grid.d == 1:
                assert max(calls, default=0) <= rows
            else:
                assert set(calls) <= {1}
            calls.clear()
        at_end = {1: 2, 2: 1, 3: 0}[rows]
        assert seen == {"paired": 4 + 14 + 2, "unpaired": 4 + 8 + 1, "R = 0": 2,
                        "cut at a chunk's end": at_end, "cut inside a chunk": 3 - at_end}

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_no_chunk_after_every_row_is_cut(self, rows, interval_bump, pairs, chunk_rows):
        # only the 2-norm rows, cut at n = 7, 4 and 5: a member's last chunk
        # is the one that holds its cut, and a zero member steps nothing
        _, f = interval_bump
        spec = Spectrum.of(f.with_values(f.values * 1e-159))
        family = family_explicit([parse_poly(t, 1) for t in ("x1", "0", "x1^2", "0.5+2*i*x1")])
        calls = chunk_rows(spec, rows)
        (_, _, r0), (_, _, r1), (_, _, r2), (_, _, r3) = spatial_norms(spec, family, 64,
                                                                          [(2, 0)])
        assert [r.size for (r,) in (r0, r1, r2, r3)] == [7, 0, 4, 5]
        expected = []
        for P, cut in zip(family, (7, 0, 4, 5)):
            ends = chunk_ends(rows, pairs(spec, P), 64)
            ends = ends[:sum(end < cut for end in ends) + 1] if cut else []
            expected += [(b - a + 1) // 2 if pairs(spec, P) else b - a
                         for a, b in zip([0] + ends, ends)]
        assert calls == expected

    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    def test_overflow_in_a_later_chunk(self, rows, interval_bump, chunk_rows):
        # x1^3 overflows at n = 16, in its 8th, 4th, 3rd or 1st chunk, and
        # x1 + 2 at n = 1: the error names the first member in family order
        # and its n, as the loop of one transform per call did
        spec, family, norms = overflow_case(interval_bump)
        chunk_rows(spec, rows)
        with pytest.raises(GrowthError, match=OVERFLOW.format(r"1\.0\*x1\^3", 16)):
            list(spatial_norms(spec, family, 16, norms))
        with pytest.raises(GrowthError, match=OVERFLOW.format(r"2\.0 \+ 1\.0\*x1", 1)):
            list(spatial_norms(spec, family[1:], 16, norms))

    def test_a_pass_stays_within_the_chunk_bound(self, interval_bump):
        # at M = 2^16 every call transforms one row; at M = 1024 and n_max =
        # 4096 a call transforms at most CHUNK_MAX_POINTS // 1024 rows, and
        # the pass never holds a (n_max x M) block (64 MiB)
        import tracemalloc
        calls, step = [], SpatialStep.__call__

        def counting_step(self, G):
            calls.append(len(G) if G.ndim == 2 else 1)
            return step(self, G)

        wide = sample_builtin({"kind": "spectral_bump",
                               "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}},
                              make_grid(1, 2 ** 16, 0.05))
        _, f = interval_bump
        x1 = family_explicit([parse_poly("x1", 1)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SpatialStep, "__call__", counting_step)
            mp.setattr(growth, "SPLIT_MIN_POINTS", 2 ** 20)   # serial, not split
            ((_, _, (row,)),) = spatial_norms(wide, x1, 32, [(1, 0)])
            assert row.size == 32 and calls == [1] * 16
            calls.clear()
            tracemalloc.start()
            try:
                ((_, _, (row,)),) = spatial_norms(f, x1, 4096, [(1, 0)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        rows = transform.CHUNK_MAX_POINTS // 1024
        assert row.size == 4096 and sum(calls) == 2048 and set(calls) == {rows} and rows > 1
        assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# the cut of a member's values, against the rule applied value by value
# ---------------------------------------------------------------------------

def per_value_cut(P, norms, values):
    """The rows of one member's (n, norms) values as a loop over n and then
    the norms cut them: a row ends with its first value not > 0, and a value
    not finite before that raises."""
    rows, ks = [[] for _ in norms], range(len(norms))
    for n, got in enumerate(values.tolist(), 1):
        for k in ks:
            rows[k].append(got[k])
            if not np.isfinite(got[k]):
                raise growth._overflow(P, *norms[k], n)
        ks = [k for k in ks if got[k] > 0.0]
        if not ks:
            break
    return [np.array(r, dtype=float) for r in rows]


CUT_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324, -1e-300, 1.0, 2.5e300]


@st.composite
def cut_cases(draw):
    """(norms, values): 1-3 norms of p in {1, 3.5, inf} and weights in {0,
    2, -2}, and 0-12 rows of their values, mostly positive, some of them 0,
    -0.0, +-inf, NaN or tiny."""
    norms = draw(st.lists(st.tuples(st.sampled_from([1, 3.5, np.inf]),
                                     st.sampled_from([0, 2, -2])), min_size=1, max_size=3))
    n = draw(st.integers(0, 12))
    flat = draw(st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from(CUT_VALUES)),
                         min_size=n * len(norms), max_size=n * len(norms)))
    return norms, np.array(flat, dtype=float).reshape(n, len(norms))


class TestCutMatchesPerValueRule:
    @settings(max_examples=500)
    @given(case=cut_cases())
    def test_rows_and_errors_match(self, case):
        norms, values = case
        family = family_explicit([parse_poly("x1", 1)])
        try:
            ref = per_value_cut(family[0], norms, values)
        except GrowthError as exc:
            with pytest.raises(GrowthError) as new:
                growth._cut(family, 0, norms, values)
            assert str(new.value) == str(exc)
        else:
            rows = growth._cut(family, 0, norms, values)
            assert [r.dtype for r in rows] == [np.dtype(float)] * len(norms)
            assert [r.tobytes() for r in rows] == [r.tobytes() for r in ref]

    def test_later_norm_overflowing_first_in_n_is_named(self, interval_bump):
        # (1+|x|)^12 max |g_1| of x1 is past (1+|x|)^8 max |g_2|, which is
        # past (1+|x|)^8 max |g_1|: scaled so that the double range ends
        # between the last two, the earlier norm overflows at n = 2 and the
        # later one at n = 1, which the error names, as the parent loop does
        _, f = interval_bump
        family, norms = family_explicit([parse_poly("x1", 1)]), [(np.inf, 8), (np.inf, 12)]
        ((_, _, (v8, v12)),) = spatial_norms(Spectrum.of(f), family, 2, norms)
        cut = np.sqrt(v8[0] * v8[1])
        assert v12[0] > 1.2 * v8[1] and v8[1] > 1.2 * v8[0]
        spec = Spectrum.of(f.with_values(f.values * (np.finfo(float).max / cut)))
        message = r"^1\.0\*x1 at p = inf: \|\|\(1\+\|x\|\)\^12 P\(d\)\^1 f\|\| exceeds"
        for n_max in (1, 2, 16):
            with pytest.raises(GrowthError, match=message):
                spatial_norms(spec, family, n_max, norms)
            with pytest.raises(GrowthError, match=message):
                list(parent_spatial_norms(spec, family, n_max, norms))
        # alone, the earlier norm overflows at n = 2
        with pytest.raises(GrowthError, match=OVERFLOW.format(r"1\.0\*x1", 2)):
            spatial_norms(spec, family, 16, norms[:1])


def hermitian_input(d, M, cells, rng):
    """A real input whose spectrum is a random Hermitian set of values on the
    cells within `cells` of the origin on every axis (a resolved mask)."""
    grid = make_grid(d, M, 0.5)
    F = np.zeros(grid.shape, dtype=complex)
    inner = (slice(M // 2 - cells, M // 2 + cells + 1),) * d
    F[inner] = rng.standard_normal(F[inner].shape) + 1j * rng.standard_normal(F[inner].shape)
    F = F + np.conj(np.roll(np.flip(F), 1, axis=tuple(range(d))))
    return SampledFunction(grid, "spatial", inverse_values(F.ravel(), grid).real)


MONOMIALS = {d: [a for a in np.ndindex(*(4,) * d) if sum(a) <= 3] for d in (1, 2)}


@st.composite
def paired_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    f = hermitian_input(d, 32 if d == 1 else 16, 5 if d == 1 else 3, rng)
    coeffs = draw(st.dictionaries(st.sampled_from(MONOMIALS[d]),
                                  st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3),
                                  min_size=1, max_size=4))
    return f, MultiPoly(d, coeffs), draw(st.integers(8, 21))


class TestPairedLedgersProperty:
    @settings(max_examples=200)
    @given(case=paired_cases())
    def test_paired_ledgers_match_unpaired(self, case, pairs):
        f, P, n_max = case
        spec = Spectrum.of(f)
        assert pairs(spec, P)
        assert_rows_match_unpaired(spec, P, n_max, NORMS, True)


# ---------------------------------------------------------------------------
# the pairing gate reads the mask's row-major order, against the index lookup
# ---------------------------------------------------------------------------

def parent_real_iterates(spec):
    """growth._real_iterates before it read the mask's own order: each cell's
    mirror looked up by its flat FFT index."""
    if not spec.mask.resolved or spec.mask.is_empty:
        return False
    M, shape = spec.grid.M, spec.grid.shape
    mirror = np.ravel_multi_index(tuple(-i % M for i in np.unravel_index(spec.fft_index, shape)),
                                  shape)
    order = np.argsort(spec.fft_index)
    at = order[np.searchsorted(spec.fft_index, mirror, sorter=order).clip(max=order.size - 1)]
    if not np.array_equal(spec.fft_index[at], mirror):
        return False
    F = spec.F[spec.mask.field]
    return bool(np.abs(F[at] - F.conj()).max() <= HERMITIAN_TOL * np.abs(F).max())


def mirrored(a):
    """a at -lam on the centered grid."""
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


def spectrum_on(grid, field, F):
    """A Spectrum of mask field and centered F, resolved as support_mask
    decides: no cell in the outer two frequency shells."""
    mask = SupportMask(grid, field, 1e-8, not (field & grid.boundary_frame(2)).any())
    cells = (np.argwhere(field.reshape(grid.shape)) + grid.M // 2) % grid.M
    return Spectrum(SampledFunction(grid, "spatial", np.zeros(grid.n_points)), F, mask,
                    mask.coords(), np.ravel_multi_index(cells.T, grid.shape))


def gate_cases(rng, count):
    """count spectra on d = 1, 2, 3 grids: masks closed under lam -> -lam or
    not, inside the resolved box or reaching its edge, empty or not; F
    Hermitian or flat (a plateau, which any order of the cells pairs), exactly
    or but for about one cell or all of them by 1e-14..1e-10 of max |F|, or
    not Hermitian at all."""
    for k in range(count):
        d = 1 + k % 3
        grid = make_grid(d, (32, 16, 12)[d - 1], 0.5)
        shape, M = grid.shape, grid.M
        inside = ~grid.boundary_frame(3).reshape(shape)     # its mirror is resolved too
        field = rng.random(shape) < rng.choice([0.05, 0.2, 0.6])
        field &= inside | (rng.random() < 0.15)
        if rng.random() < 0.8:
            field |= mirrored(field)
        if rng.random() < 0.15:
            field[tuple(rng.integers(0, M, d))] ^= True
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        F = [G, np.ones(shape, dtype=complex), G + mirrored(G).conj()][rng.choice(3, p=[.1, .2, .7])]
        scale = rng.choice([0.0, 0.0, 1e-14, 5e-13, 2e-12, 1e-10]) * np.abs(F).max()
        noise = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        F = F + (noise if rng.random() < 0.5 else noise * (rng.random(shape) < 1 / field.size))
        F[~field] *= 1e-9           # below the mask, as support_mask leaves it
        yield spectrum_on(grid, field.ravel(), F.ravel())


def test_pairing_gate_matches_index_lookup(pairs):
    # on a resolved mask lam -> -lam reverses the cells' row-major order, so
    # a mirror-closed mask has coords[::-1] == -coords and F's mirror is F[::-1]
    decided = {True: 0, False: 0}
    for spec in gate_cases(np.random.default_rng(0), 1500):
        want = pairs(spec, parse_poly("x1", spec.grid.d))
        assert growth._real_iterates(spec) == parent_real_iterates(spec) == want
        decided[want] += 1
    assert min(decided.values()) > 300, decided


# ---------------------------------------------------------------------------
# arguments that are not finite
# ---------------------------------------------------------------------------

NAN = float("nan")
REFUSED = {
    "pointwise_growth N = nan": (lambda f, P: pointwise_growth(f, P, NAN, 16),
                                 GrowthError, "weight exponent N"),
    "pointwise_growth N = inf": (lambda f, P: pointwise_growth(f, P, np.inf, 16),
                                 GrowthError, "weight exponent N"),
    "spatial_norms e = nan": (lambda f, P: spatial_norms(f, family_explicit([P]), 16, [(1, NAN)]),
                              GrowthError, r"\(1, nan\).* e finite"),
    "spatial_norms p = nan": (lambda f, P: spatial_norms(f, family_explicit([P]), 16, [(NAN, 0)]),
                              GrowthError, r"\(nan, 0\): p must be in"),
    "schwartz_decay_check R = nan": (lambda f, P: schwartz_decay_check(f, P, NAN, 2, 16),
                                     GrowthError, "claimed bound R"),
    "schwartz_decay_check R = inf": (lambda f, P: schwartz_decay_check(f, P, np.inf, 2, 16),
                                     GrowthError, "claimed bound R"),
    "pde_support_probe delta_zero = nan": (lambda f, P: pde_support_probe(f, P, P, delta_zero=NAN),
                                           GridError, "delta_zero"),
    "reconstruct_support tau = -1": (
        lambda f, P: reconstruct_support(f, family_explicit([P]), 2, 16, tau=-1.0),
        GrowthError, "tau must be >= 0"),
    "reconstruct_support tau = nan": (
        lambda f, P: reconstruct_support(f, family_explicit([P]), 2, 16, tau=NAN),
        GrowthError, "tau must be >= 0"),
    "complex_growth_rate t = nan": (
        lambda f, P: complex_growth_rate(f, [0.0], [1.0], [1.0, NAN, 3.0]),
        GridError, "t samples must be finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_argument_that_is_not_finite_is_refused_by_name(case):
    # each used to pass its check: a NaN N or e raised the overflow error of
    # the norms, N = inf warned "invalid value", R = nan returned a NaN report,
    # delta_zero = nan an M_limit of 0, tau = -1 and nan kept 1 and 0 cells,
    # and a NaN t was blamed on the overflow guard
    call, error, name = REFUSED[case]
    f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=name):
            call(f, parse_poly("x1", 1))


def test_infinite_tau_is_accepted():
    f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
    res = reconstruct_support(f, family_explicit([parse_poly("x1", 1)]), 2, 16, tau=np.inf)
    assert res.estimated.n_cells == 64


# ---------------------------------------------------------------------------
# counts, exponents and vectors that are not what the argument takes
# ---------------------------------------------------------------------------

ONE = [(1, 0)]
MISTYPED = {
    "spatial_norms n_max = -1": (lambda f, P: spatial_norms(f, family_explicit([P]), -1, ONE),
                                 GrowthError, "n_max must be an integer >= 0, got -1"),
    "spatial_norms n_max = 2.5": (lambda f, P: spatial_norms(f, family_explicit([P]), 2.5, ONE),
                                  GrowthError, "n_max must be an integer >= 0, got 2.5"),
    "spatial_norms n_max = True": (lambda f, P: spatial_norms(f, family_explicit([P]), True, ONE),
                                   GrowthError, "n_max must be an integer >= 0, got True"),
    "schwartz_decay_check n_max = -3": (lambda f, P: schwartz_decay_check(f, P, 2.0, 2, -3),
                                        GrowthError, "n_max must be an integer >= 0, got -3"),
    "schwartz_decay_check N = nan": (lambda f, P: schwartz_decay_check(f, P, 2.0, NAN, 16),
                                     GrowthError, "weight exponent N"),
    "growth_sequences n_max = 8.5": (
        lambda f, P: growth_sequences(f, family_explicit([P]), 1, 8.5),
        GrowthError, "n_max must be an integer >= 8, got 8.5"),
    "pointwise_growth n_max = 8.5": (lambda f, P: pointwise_growth(f, P, 2, 8.5),
                                     GrowthError, "n_max must be an integer >= 8, got 8.5"),
    "apply_op_spectral n = 2.5": (lambda f, P: apply_op_spectral(f, P, 2.5),
                                  GrowthError, "iteration count must be an integer >= 1"),
    "complex_growth_rate x0 = [nan]": (
        lambda f, P: complex_growth_rate(f, [NAN], [1.0], [1, 2, 3]),
        GridError, r"x0 = \[nan\] .* finite d-vectors"),
    "complex_growth_rate y = [nan]": (
        lambda f, P: complex_growth_rate(f, [0.0], [NAN], [1, 2, 3]),
        GridError, r"y = \[nan\] must be finite d-vectors"),
    "complex_growth_rate x0 = [0, 0]": (
        lambda f, P: complex_growth_rate(f, [0.0, 0.0], [1.0], [1, 2, 3]),
        GridError, r"x0 = \[0.0, 0.0\] .* finite d-vectors"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_argument_of_the_wrong_kind_is_refused_by_name(case):
    # numpy refused a negative n_max as "negative dimensions are not
    # allowed" and a float count as "'float' object cannot be interpreted
    # as an integer"; a NaN N was refused as the norm (inf, nan), a NaN x0
    # or y as the sum or the supporting function that eval_entire guards
    call, error, name = MISTYPED[case]
    f = sample_builtin({"kind": "spatial_bump",
                        "support": {"shape": "box", "lo": [-2.0], "hi": [2.0]}},
                       make_grid(1, 256, 0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=name):
            call(f, parse_poly("x1", 1))


def test_numpy_integer_counts_are_accepted():
    f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
    family = family_explicit([parse_poly("x1", 1)])
    ((R, two, rows),) = spatial_norms(f, family, np.int64(16), ONE)
    ((R_ref, two_ref, rows_ref),) = spatial_norms(f, family, 16, ONE)
    assert R == R_ref and two.tobytes() == two_ref.tobytes()
    assert rows[0].tobytes() == rows_ref[0].tobytes()
    assert growth_sequences(f, family, 1, np.int32(16))[0].n_max == 16


@pytest.mark.parametrize("p", [-np.inf, np.nan, 0.5])
def test_p_out_of_range_is_refused_before_any_transform(monkeypatch, p):
    # p = -inf passed growth_sequences' own check (`not isinf(p) and not p >= 1`)
    # and was refused only after Spectrum.of had transformed the input
    calls, original = [], transform.forward_values

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transform, "forward_values", counting)
    f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
    with pytest.raises(GrowthError, match=r"p must be in \[1, inf\], got "):
        growth_sequences(f, family_explicit([parse_poly("x1", 1)]), p, 16)
    assert calls == []
