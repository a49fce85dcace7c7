import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpw import (make_grid, sample_builtin, lp_norm, smooth_step,
                    SampledFunction, GridError, MarginError)
from realpw.grid import lp_norm_moduli, lp_norm_values


def one_row_norm(values, cell_measure, p):
    """lp_norm_values as it was before it read lp_norm_moduli: the norm of
    all of values as one row, by numpy's whole-array reductions."""
    mag = np.abs(values)
    if np.isinf(p):
        return float(mag.max(initial=0.0))
    p = float(p)
    if p == 1.0:
        return float(cell_measure * np.sum(mag))
    if p == 2.0:
        return float((cell_measure * np.sum(mag ** p)) ** 0.5)
    top = mag.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(top * (cell_measure * np.sum((mag / top) ** p)) ** (1.0 / p))


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


NORM_P = [1, 2, 3.5, np.inf, 1e7]


class TestLpNormModuli:
    @pytest.mark.parametrize("p", NORM_P)
    def test_each_row_is_the_one_row_norm_bit_for_bit(self, p):
        # rows of moduli spread over 60 decades, and all-zero rows, which
        # give 0.0 (not 0/0) at every p
        rng = np.random.default_rng(11)
        mag = np.abs(rng.standard_normal((3, 7, 300))) * 10.0 ** rng.uniform(-30, 30, (3, 7, 1))
        mag[0, 2] = mag[2, 6] = 0.0
        out = lp_norm_moduli(mag, 0.37, p)
        assert out.shape == (3, 7) and out.dtype == float
        for index in np.ndindex(3, 7):
            assert out[index].hex() == float.hex(one_row_norm(mag[index], 0.37, p))
        assert out[0, 2] == out[2, 6] == 0.0 and not np.signbit(out[0, 2])

    @pytest.mark.parametrize("p", NORM_P)
    def test_values_norm_is_the_one_row_norm(self, p):
        # a complex array of any shape, and a transposed view, read as one row
        rng = np.random.default_rng(12)
        values = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
        for v in (values, values.T, values.real, np.zeros(5)):
            assert float.hex(lp_norm_values(v, 0.25, p)) == float.hex(one_row_norm(v, 0.25, p))

    def test_one_row_and_empty_rows(self):
        rng = np.random.default_rng(13)
        row = np.abs(rng.standard_normal(50))
        for p in NORM_P:
            assert lp_norm_moduli(row, 0.5, p).shape == ()
            assert lp_norm_moduli(np.zeros((4, 0)), 0.5, p).tolist() == [0.0] * 4
        with pytest.raises(GridError, match="p must be >= 1"):
            lp_norm_moduli(row, 0.5, 0.5)


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


# one builtin of each kind inside one cell of the origin at M = 22, h = 0.25
SMALL_BUILTINS = [
    {"kind": "spectral_bump", "support": {"shape": "box", "lo": [-0.5], "hi": [0.5]}},
    {"kind": "spatial_bump", "support": {"shape": "box", "lo": [-0.2], "hi": [0.2]}},
    {"kind": "gaussian", "sigma": 0.03},
]


class TestSampleBuiltin:
    def test_gaussian_unmodulated_even_real(self):
        g = make_grid(1, 256, 0.1)
        f = sample_builtin({"kind": "gaussian", "sigma": 1.0}, g)
        assert np.abs(f.values.imag).max() == 0.0
        # even: value at k equals value at -k (index M/2 is its own mirror-less end)
        v = f.values.real
        assert np.allclose(v[1:], v[1:][::-1])

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1.05e-154, 5e-324])
    def test_gaussian_sigma_without_a_normal_variance_is_refused(self, sigma):
        # 2 sigma^2 underflows to 0 (0/0 at the center) or to a subnormal
        # (|x|^2 / (2 sigma^2) overflows): refused, naming sigma, before any
        # numpy warning
        with pytest.raises(GridError, match=rf"^gaussian sigma = {sigma!r}: 2 sigma\^2 must"):
            sample_builtin({"kind": "gaussian", "sigma": sigma}, make_grid(1, 256, 0.1))

    @pytest.mark.parametrize("sigma", [1.06e-154, 1e-100, 1e-3, 0.05, 0.3])
    def test_gaussian_samples_are_unchanged(self, sigma):
        # every other sigma samples the same formula bit for bit, a smallest
        # normal variance too, without warning where |x|^2 / (2 sigma^2)
        # overflows: exp(-inf) is the right 0
        grid = make_grid(2, 128, 0.1)
        center, mu = np.array([0.1, -0.2]), np.array([1.5, -2.0])
        f = sample_builtin({"kind": "gaussian", "sigma": sigma, "center": center.tolist(),
                            "mu": mu.tolist()}, grid)
        x = grid.spatial_coords()
        with np.errstate(over="ignore"):
            ref = np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * sigma ** 2))
        ref = ref * np.exp(1j * x @ mu)
        assert f.values.tobytes() == ref.tobytes()

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

    def test_spectral_bump_is_spatial_side(self):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        assert f.side == "spatial"
        assert [fld.name for fld in dataclasses.fields(f)] == ["grid", "side", "values", "label"]

    def test_spectral_bump_boundary_decay_is_limited(self):
        # A width-2 spectrum cannot decay to 1e-12 within |x| <= 25.6 (no
        # band-limited function can): the boundary level, max |f| on the
        # outermost cells over max |f|, stays above it.  The default
        # cell-scale edge trades spatial decay for fast growth-limit
        # convergence; widening the edge buys decay.
        def boundary_level(f):
            mag = np.abs(f.values)
            return mag[f.grid.boundary_frame(1)].max() / mag.max()

        g = make_grid(1, 1024, 0.05)
        sharp = sample_builtin({"kind": "spectral_bump",
                                "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        assert 1e-9 <= boundary_level(sharp) <= 0.2
        wide = sample_builtin({"kind": "spectral_bump",
                               "support": {"shape": "box", "lo": [-1], "hi": [1]},
                               "edge_width": 8 * g.dlam}, g)
        assert boundary_level(wide) < boundary_level(sharp) / 10

    def test_spectral_bump_margin_violation_reports(self):
        g = make_grid(1, 64, 1.0)   # frequency box [-pi, pi), dlam ~ 0.098
        with pytest.raises(MarginError, match="margin"):
            sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-3.1], "hi": [3.1]}}, g)

    @pytest.mark.parametrize("M", [8, 16, 20])
    @pytest.mark.parametrize("builtin", SMALL_BUILTINS, ids=lambda b: b["kind"])
    def test_grid_without_room_inside_the_margin(self, M, builtin):
        # M / 2 <= 10 cells each side of the origin: the 10-cell margin
        # leaves no room, which the message says instead of an inverted
        # interval such as [3, -3]; M = 22 has room for a one-cell input
        with pytest.raises(MarginError, match=(
                rf"^[a-z ()+\-.0-9]+: the grid has no room inside its 10-cell margin "
                rf"\(M = {M}; a builtin input needs M > 20\)$")):
            sample_builtin(builtin, make_grid(1, M, 0.25))
        assert sample_builtin(builtin, make_grid(1, 22, 0.25)).values.size == 22

    def test_unknown_kind(self):
        g = make_grid(1, 64, 1.0)
        with pytest.raises(GridError):
            sample_builtin({"kind": "other"}, g)

    @pytest.mark.parametrize("kind", ["spatial_bump", "spectral_bump"])
    def test_empty_union_names_its_cause(self, kind):
        # the refusal used to be the tuple unpack's "not enough values to unpack"
        with pytest.raises(GridError, match="^a union needs at least one part$"):
            sample_builtin({"kind": kind, "support": {"shape": "union", "parts": []}},
                           make_grid(1, 64, 1.0))

    @pytest.mark.parametrize("builtin, name", [
        ({"kind": "spatial_bump", "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}},
         "box lo"),
        ({"kind": "spatial_bump", "support": {"shape": "box", "lo": [-1], "hi": [1, 1]}},
         "box hi"),
        ({"kind": "spatial_bump", "support": {"shape": "ball", "radius": 1, "center": [0, 0]}},
         "ball center"),
        ({"kind": "spatial_bump", "support": {"shape": "annulus", "r_in": 0.5, "r_out": 1,
                                              "center": [0, 0]}}, "annulus center"),
        ({"kind": "spatial_bump", "support": {"shape": "union", "parts": [
            {"shape": "ball", "radius": 1, "center": [0, 0]}]}}, "ball center"),
        ({"kind": "spectral_bump", "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}},
         "box lo"),
        ({"kind": "spectral_bump", "support": {"shape": "ball", "radius": 1,
                                               "center": [0, 0]}}, "ball center"),
        ({"kind": "gaussian", "center": [0, 0]}, "gaussian center"),
        ({"kind": "gaussian", "mu": [0, 0]}, "gaussian mu"),
        ({"kind": "gaussian", "mu": 0.5}, "gaussian mu"),
    ])
    def test_vector_of_other_than_d_entries_is_named(self, builtin, name):
        # on d = 1 a 2-vector once sampled another function (a spatial box
        # took its first lo, a ball its distance from a 2-point center) or
        # failed with numpy's indexing or broadcast text
        with pytest.raises(GridError, match=rf"^{name} needs d = 1 entries, got "):
            sample_builtin(builtin, make_grid(1, 256, 0.05))

    @pytest.mark.parametrize("w", [1e308, 1e-308, 5e-324])
    @pytest.mark.parametrize("kind", ["spatial_bump", "spectral_bump"])
    def test_extreme_edge_width_warns_nothing(self, kind, w):
        # 1e308: s = distance / w is so small that -1/s overflows to -inf, and
        # exp(-inf) = 0 is the right value, so the bump is 0.  A tiny w
        # overflows s itself to +-inf, which steps to 1 or 0.  Neither raises
        # a RuntimeWarning
        support = {"shape": "box", "lo": [-1.0], "hi": [1.0]}
        f = sample_builtin({"kind": kind, "support": support, "edge_width": w},
                           make_grid(1, 256, 0.05))
        assert np.all(f.values == 0) == (w == 1e308)
