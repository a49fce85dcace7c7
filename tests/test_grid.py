import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpw import (make_grid, sample_builtin, lp_norm, smooth_step,
                    SampledFunction, GridError, MarginError)


class TestMakeGrid:
    def test_1d_index_maps(self):
        g = make_grid(1, 8, 1.0)
        assert np.array_equal(g.spatial_axis(), np.arange(-4, 4) * 1.0)
        assert np.allclose(g.frequency_axis(), np.arange(-4, 4) * 2 * np.pi / 8)
        assert g.frequency_axis()[0] == pytest.approx(-np.pi)
        assert g.frequency_axis()[-1] == pytest.approx(3 * np.pi / 4)

    def test_2d_frequency_box(self):
        g = make_grid(2, 256, 0.05)
        # half-width pi/h = 20 pi
        assert g.frequency_halfwidth == pytest.approx(20 * np.pi)
        assert g.frequency_axis()[0] == pytest.approx(-20 * np.pi)

    def test_rejects_odd_M(self):
        with pytest.raises(GridError):
            make_grid(1, 9, 1.0)

    @pytest.mark.parametrize("d", [0, 4, -1])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(GridError):
            make_grid(d, 8, 1.0)

    def test_rejects_bad_h_and_small_M(self):
        with pytest.raises(GridError):
            make_grid(1, 8, 0.0)
        with pytest.raises(GridError):
            make_grid(1, 6, 1.0)

    def test_coords_row_major(self):
        g = make_grid(2, 8, 0.5)
        xy = g.spatial_coords()
        # first axis varies slowest
        assert xy[0, 0] == pytest.approx(-4 * 0.5)
        assert xy[1, 0] == pytest.approx(-4 * 0.5)
        assert xy[1, 1] == pytest.approx(-3 * 0.5)
        assert xy[8, 0] == pytest.approx(-3 * 0.5)


class TestSampledFunction:
    def test_rejects_wrong_length(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(GridError):
            SampledFunction(g, "spatial", np.zeros(7))

    def test_rejects_nonfinite(self):
        g = make_grid(1, 8, 1.0)
        vals = np.zeros(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(GridError):
            SampledFunction(g, "spatial", vals)

    def test_values_immutable(self):
        g = make_grid(1, 8, 1.0)
        f = SampledFunction(g, "spatial", np.ones(8))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestLpNorm:
    def test_constant_p1(self):
        g = make_grid(1, 8, 1.0)
        f = SampledFunction(g, "spatial", np.ones(8))
        assert lp_norm(f, 1) == pytest.approx(8.0)

    def test_constant_pinf(self):
        g = make_grid(1, 8, 1.0)
        f = SampledFunction(g, "spatial", np.ones(8))
        assert lp_norm(f, np.inf) == pytest.approx(1.0)

    def test_discrete_delta_p2(self):
        g = make_grid(1, 8, 0.5)
        vals = np.zeros(8)
        vals[4] = 1.0
        f = SampledFunction(g, "spatial", vals)
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(0.5))

    def test_rejects_p_below_one(self):
        g = make_grid(1, 8, 1.0)
        f = SampledFunction(g, "spatial", np.ones(8))
        with pytest.raises(GridError):
            lp_norm(f, 0.5)

    def test_rejects_frequency_side(self):
        g = make_grid(1, 8, 1.0)
        F = SampledFunction(g, "frequency", np.ones(8))
        with pytest.raises(GridError):
            lp_norm(F, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False),
           st.sampled_from([1, 1.5, 2, 4, np.inf]),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_homogeneity(self, c, p, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(1, 16, 0.3)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        f = SampledFunction(g, "spatial", vals)
        scaled = SampledFunction(g, "spatial", c * vals)
        assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-300)

    def test_power_mean_monotone_in_p(self):
        rng = np.random.default_rng(7)
        g = make_grid(2, 16, 0.25)
        f = SampledFunction(g, "spatial", rng.standard_normal(256) + 1j * rng.standard_normal(256))
        measure = (g.h * g.M) ** g.d
        means = []
        for p in (1, 2, 4):
            means.append(lp_norm(f, p) / measure ** (1.0 / p))
        means.append(lp_norm(f, np.inf))
        assert all(means[i] <= means[i + 1] * (1 + 1e-12) for i in range(3))

    def test_large_p_approaches_sup(self):
        rng = np.random.default_rng(5)
        g = make_grid(1, 64, 0.1)
        f = SampledFunction(g, "spatial", 0.1 * rng.standard_normal(64))
        sup = lp_norm(f, np.inf)
        assert 0.0 < lp_norm(f, 500) <= sup * 64 ** (1 / 500)
        assert lp_norm(f, 1e7) == pytest.approx(sup, rel=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        g = make_grid(1, 64, 0.1)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = SampledFunction(g, "spatial", vals)
        shifted = SampledFunction(g, "spatial", np.roll(vals, 17))
        for p in (1, 2, 4, np.inf):
            assert lp_norm(shifted, p) == pytest.approx(lp_norm(f, p), rel=1e-12)


class TestSmoothStep:
    def test_endpoints_and_midpoint(self):
        s = smooth_step(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        assert s[0] == 0.0 and s[1] == 0.0
        assert s[3] == 1.0 and s[4] == 1.0
        assert s[2] == pytest.approx(0.5)

    def test_monotone(self):
        t = np.linspace(-0.5, 1.5, 301)
        s = smooth_step(t)
        assert np.all(np.diff(s) >= 0)


class TestSampleBuiltin:
    def test_gaussian_unmodulated_even_real(self):
        g = make_grid(1, 256, 0.1)
        f = sample_builtin({"kind": "gaussian", "sigma": 1.0}, g)
        assert np.abs(f.values.imag).max() == 0.0
        # even: value at k equals value at -k (index M/2 is its own mirror-less end)
        v = f.values.real
        assert np.allclose(v[1:], v[1:][::-1])

    def test_gaussian_boundary_decay(self):
        g = make_grid(1, 256, 0.1)
        f = sample_builtin({"kind": "gaussian", "sigma": 1.0}, g)
        frame = g.boundary_frame(1)
        assert np.abs(f.values[frame]).max() <= 1e-12 * np.abs(f.values).max()

    def test_spatial_bump_exact_support(self):
        g = make_grid(1, 512, 0.01)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        x = g.spatial_axis()
        outside = np.abs(x) > 1.0
        assert np.abs(f.values[outside]).max() == 0.0
        assert np.abs(f.values).max() == pytest.approx(1.0)

    def test_spatial_bump_margin_violation(self):
        g = make_grid(1, 64, 0.1)   # box [-3.2, 3.2), margin 1.0
        with pytest.raises(MarginError):
            sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-3.0], "hi": [3.0]}}, g)

    def test_spectral_bump_is_spatial_side_with_provenance(self):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        assert f.side == "spatial"
        assert f.meta["kind"] == "spectral_bump"
        assert f.meta["freq_values"].shape == (1024,)

    def test_spectral_bump_boundary_decay_is_limited(self):
        # A width-2 spectrum cannot decay to 1e-12 within |x| <= 25.6 (no
        # band-limited function can); the provenance records the measured
        # boundary level.  The default cell-scale edge trades spatial decay
        # for fast growth-limit convergence; widening the edge buys decay.
        g = make_grid(1, 1024, 0.05)
        sharp = sample_builtin({"kind": "spectral_bump",
                                "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        assert 1e-9 <= sharp.meta["boundary_max"] <= 0.2
        wide = sample_builtin({"kind": "spectral_bump",
                               "support": {"shape": "box", "lo": [-1], "hi": [1]},
                               "edge_width": 8 * g.dlam}, g)
        assert wide.meta["boundary_max"] < sharp.meta["boundary_max"] / 10

    def test_spectral_bump_margin_violation_reports(self):
        g = make_grid(1, 64, 1.0)   # frequency box [-pi, pi), dlam ~ 0.098
        with pytest.raises(MarginError, match="margin"):
            sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-3.1], "hi": [3.1]}}, g)

    def test_unknown_kind(self):
        g = make_grid(1, 64, 1.0)
        with pytest.raises(GridError):
            sample_builtin({"kind": "other"}, g)
