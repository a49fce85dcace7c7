import numpy as np
import pytest

from realpw import (make_grid, sample_builtin, SampledFunction, forward_dft,
                    support_mask, compute_R, parse_poly, family_linear,
                    family_quadratic, family_quadratic_real, family_explicit,
                    reconstruct_support, membership_test, local_spectrum_raster,
                    pde_support_probe, mask_metrics, apply_op_spectral)
from realpw.verify import aligned_h


@pytest.fixture(scope="module")
def interval_setup():
    M = 1024
    h = aligned_h(M, 1.0, 8)
    grid = make_grid(1, M, h)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
    reference = support_mask(forward_dft(f))
    return grid, f, reference


class TestReconstructSupport:
    def test_interval_with_single_linear(self, interval_setup):
        grid, f, reference = interval_setup
        fam = family_explicit([parse_poly("x1", 1)])
        res = reconstruct_support(f, fam, 2, 64, reference=reference)
        assert res.metrics.dilation_distance <= 2
        assert not res.excluded_members

    def test_family_monotonicity(self, interval_setup):
        grid, f, reference = interval_setup
        small = family_explicit([parse_poly("x1", 1)])
        big = family_explicit([parse_poly("x1", 1), parse_poly("x1^2", 1)])
        r_small = reconstruct_support(f, small, 2, 64)
        r_big = reconstruct_support(f, big, 2, 64)
        # adding members can only remove cells
        assert np.all(r_small.estimated.field[r_big.estimated.field])

    def test_order_invariance_exact(self, interval_setup):
        grid, f, reference = interval_setup
        polys = [parse_poly("x1", 1), parse_poly("x1^2", 1), parse_poly("0.5+2*i*x1", 1)]
        a = reconstruct_support(f, family_explicit(polys), 2, 32)
        b = reconstruct_support(f, family_explicit(polys[::-1]), 2, 32)
        assert np.array_equal(a.estimated.field, b.estimated.field)

    def test_estimated_covers_reference_within_one_cell(self, interval_setup):
        # containment direction: dilating the estimate by one cell covers the
        # constructed support
        grid, f, reference = interval_setup
        fam = family_explicit([parse_poly("x1", 1), parse_poly("x1^2", 1)])
        res = reconstruct_support(f, fam, 2, 64, reference=reference)
        est = res.estimated.field
        dilated = est | np.roll(est, 1) | np.roll(est, -1)
        assert np.all(dilated[reference.field])

    def test_carved_counts_cells_per_member(self, interval_setup):
        grid, f, reference = interval_setup
        polys = [parse_poly("x1", 1), parse_poly("x1^2", 1), parse_poly("x1^3", 1)]
        res = reconstruct_support(f, family_explicit(polys), 2, 64)
        # x1 carves every cell outside its sublevel set; x1^2 and x1^3 have
        # the same sublevel set up to the slack tau, so they remove (almost) nothing
        assert len(res.carved) == 3 and sum(res.carved[1:]) <= 2
        assert sum(res.carved) == grid.n_points - res.estimated.n_cells
        alone = reconstruct_support(f, family_explicit(polys[:1]), 2, 64)
        assert res.carved[0] == grid.n_points - alone.estimated.n_cells
        assert res.to_json_dict()["carved"] == list(res.carved)

    def test_metrics_only_with_reference(self, interval_setup):
        grid, f, reference = interval_setup
        fam = family_explicit([parse_poly("x1", 1)])
        assert reconstruct_support(f, fam, 2, 32).metrics is None
        assert reconstruct_support(f, fam, 2, 32, reference=reference).metrics is not None


class TestMembership:
    def test_inside_and_outside(self, interval_setup):
        grid, f, reference = interval_setup
        fam = family_explicit([parse_poly("x1", 1)])
        res = reconstruct_support(f, fam, 2, 64)
        assert membership_test([0.0], res.limits, fam)
        outside = reference.coords().max() + 10 * grid.dlam
        assert not membership_test([outside], res.limits, fam)

    def test_zero_support(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        fam = family_explicit([parse_poly("x1", 1)])
        res = reconstruct_support(f, fam, 2, 16)
        # all limits zero: only the symbol's zero set passes
        assert membership_test([0.0], res.limits, fam)
        assert not membership_test([1.0], res.limits, fam)


class TestLocalSpectrumRaster:
    def test_first_derivative_segment(self, interval_setup):
        grid, f, reference = interval_setup
        P = parse_poly("x1", 1)
        ras = local_spectrum_raster(P, reference)
        assert np.abs(ras.values.real).max() < 1e-14
        assert ras.max_modulus == compute_R(P, reference).value  # bit-exact
        assert abs(ras.max_modulus - 1.0) <= grid.dlam

    def test_constant_polynomial_single_point(self, interval_setup):
        grid, f, reference = interval_setup
        ras = local_spectrum_raster(parse_poly("2 - i", 1), reference)
        assert ras.values.shape == (1,)
        assert ras.values[0] == pytest.approx(2 - 1j)

    def test_squared_symbol_on_negative_axis(self, interval_setup):
        grid, f, reference = interval_setup
        ras = local_spectrum_raster(parse_poly("x1^2", 1), reference)
        assert np.all(ras.values.real <= 1e-15)
        assert np.abs(ras.values.imag).max() < 1e-14

    def test_csv_emission(self, interval_setup, tmp_path):
        grid, f, reference = interval_setup
        ras = local_spectrum_raster(parse_poly("x1", 1), reference)
        text = ras.to_csv()
        assert text.splitlines()[0] == "re,im"
        assert len(text.splitlines()) == len(ras.values) + 1


class TestMaskMetrics:
    def test_identical_masks(self, interval_setup):
        grid, f, reference = interval_setup
        m = mask_metrics(reference, reference)
        assert m.symmetric_difference == 0
        assert m.dilation_distance == 0

    def test_shifted_mask(self, interval_setup):
        grid, f, reference = interval_setup
        from realpw import SupportMask
        shifted = SupportMask(grid, np.roll(reference.field, 3),
                              reference.eps_rel, True)
        m = mask_metrics(shifted, reference)
        assert m.dilation_distance == 3
        assert m.symmetric_difference == 6


@pytest.fixture(scope="module")
def probe_setup():
    """g = (d^2 + 1) f for a sharp-edged spatial bump on ~[-1, 1]."""
    M, h = 1024, 0.005
    grid = make_grid(1, M, h)
    b = 200.5 * h
    f = sample_builtin({"kind": "spatial_bump",
                        "support": {"shape": "box", "lo": [-b], "hi": [b]},
                        "edge_width": 1.5 * h}, grid)
    P = parse_poly("x1^2 + 1", 1)
    g_fun, S = apply_op_spectral(f, P, 1, eps_rel=1e-14)
    g = SampledFunction(grid, "spatial", np.exp(S) * g_fun.values, label="rhs")
    return grid, f, g, P, b


class TestPdeProbe:

    def test_recovers_support_bound(self, probe_setup):
        grid, f, g, P, b = probe_setup
        rep = pde_support_probe(g, P, parse_poly("x1", 1), delta_zero=1e-3,
                                p=2, n_max=64)
        assert rep.excluded_mass == 0.0
        assert not rep.heuristic
        lo, hi = rep.sublevel_bounds()
        assert abs(hi[0] - 1.0) <= 3 * grid.h
        assert abs(lo[0] + 1.0) <= 3 * grid.h

    def test_identity_operator_reduces_to_support(self, probe_setup):
        grid, f, g, P, b = probe_setup
        one = parse_poly("1", 1)
        g_same = f  # P = 1 means g = f
        rep = pde_support_probe(g_same, one, parse_poly("x1", 1), delta_zero=1e-3,
                                p=2, n_max=64)
        lo, hi = rep.sublevel_bounds()
        assert abs(hi[0] - b) <= 3 * grid.h
        assert abs(lo[0] + b) <= 3 * grid.h

    def test_zero_crossing_flags_heuristic(self, probe_setup):
        # P = x1 vanishes at the center of the spectrum; with the floor above
        # the first nonzero cells a visible share of the mask mass is excluded
        grid, f, g, P, b = probe_setup
        gp, S = apply_op_spectral(f, parse_poly("x1", 1), 1, eps_rel=1e-14)
        g2 = SampledFunction(grid, "spatial", np.exp(S) * gp.values)
        rep = pde_support_probe(g2, parse_poly("x1", 1), parse_poly("x1", 1),
                                delta_zero=2.0, p=2, n_max=64)
        assert rep.excluded_mass > 0
        assert rep.heuristic
        wide = pde_support_probe(g2, parse_poly("x1", 1), parse_poly("x1", 1),
                                 delta_zero=100.0, p=2, n_max=64)
        assert wide.excluded_mass > 0.1

    def test_rejects_bad_floor(self, probe_setup):
        grid, f, g, P, b = probe_setup
        with pytest.raises(Exception):
            pde_support_probe(g, P, parse_poly("x1", 1), delta_zero=0.0)


class TestQuadraticReconstruction:
    def test_ball_single_quadratic(self):
        grid = make_grid(2, 256, 0.05)
        dlam = grid.dlam
        r = (np.sqrt(50) + 0.5) * dlam
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "ball", "radius": r},
                            "edge_width": 1.5 * dlam}, grid)
        reference = support_mask(forward_dft(f))
        fam = family_quadratic([[0.0, 0.0]], grid)
        res = reconstruct_support(f, fam, 2, 200, reference=reference)
        assert res.metrics.dilation_distance <= 2
