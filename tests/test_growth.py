import numpy as np
import pytest

from realpw import (make_grid, sample_builtin, SampledFunction, forward_dft,
                    support_mask, compute_R, parse_poly, lp_norm,
                    apply_op_spectral, apply_op_fd, growth_sequence,
                    estimate_limit, liminf_check, pointwise_growth,
                    schwartz_decay_check, GrowthError, GridError, Spectrum,
                    iterates, eval_symbol_many, family_quadratic_real,
                    reconstruct_support, growth_sequences)
from realpw.transform import forward_values, inverse_values
from realpw.verify import acceptance_corpus, aligned_h


@pytest.fixture(scope="module")
def interval_bump():
    """Spectral bump on ~[-1, 1] with half-cell-aligned edges."""
    M = 1024
    h = aligned_h(M, 1.0, 8)
    grid = make_grid(1, M, h)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
    return grid, f


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
        for n, S, Gm in iterates(spec, P, 64):
            G = np.zeros(grid.n_points, dtype=complex)
            G[spec.mask.field] = Gm
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

    def test_fd_method_agrees_at_small_n(self, interval_bump):
        grid, f = interval_bump
        P = parse_poly("x1", 1)
        a = growth_sequence(f, P, 2, 8, method="spectral")
        b = growth_sequence(f, P, 2, 8, method="finite-difference")
        assert np.allclose(a.L, b.L, rtol=1e-6)
        assert b.method == "finite-difference"

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
        assert set(doc) >= {"P", "p", "n_max", "L", "roots", "limit", "spread", "method"}


class TestLiminfCheck:
    def test_bump_margin(self, interval_bump):
        grid, f = interval_bump
        rep = liminf_check(f, parse_poly("x1", 1), 2, 64)
        assert rep.passed
        assert rep.margin >= 0.0
        assert rep.step_median >= rep.R * 0.98

    def test_zero_function_trivially_holds(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        rep = liminf_check(f, parse_poly("x1", 1), 2, 16)
        assert rep.passed and rep.R == 0.0

    def test_mixed_poly_on_box(self):
        grid = make_grid(2, 128, 0.25)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}},
                           grid)
        rep = liminf_check(f, parse_poly("x1*x2", 2), 2, 64)
        assert rep.passed and rep.margin / rep.R >= -0.02


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
        assert np.array_equal(np.array(res.limits), np.array(limits))
        assert sum(res.carved) == grid.n_points - res.estimated.n_cells

    def test_rejects_spectrum_masked_elsewhere(self, interval_bump):
        grid, f = interval_bump
        spec = Spectrum.of(f, 1e-6)
        with pytest.raises(GridError):
            growth_sequence(spec, parse_poly("x1", 1), 2, 16)
        assert growth_sequence(spec, parse_poly("x1", 1), 2, 16, eps_rel=1e-6).L.size == 16


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
        batch = list(growth_sequences(f, polys, 2, 16))
        zero = batch[1]
        assert (zero.regime, zero.truncated_at, zero.limit, zero.L.size) == ("zero", 1, 0.0, 0)
        for P, seq in zip(polys, batch):
            assert_same_sequence(seq, growth_sequence(f, P, 2, 16))

    def test_empty_mask_batch(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        for seq in growth_sequences(f, [parse_poly("x1", 1), parse_poly("1", 1)], 2, 16):
            assert (seq.regime, seq.truncated_at, seq.limit, seq.L.size) == ("zero", 1, 0.0, 0)
