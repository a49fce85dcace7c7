import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from realpw import (make_grid, sample_builtin, sample_prescribed, SampledFunction,
                    forward_dft, inverse_dft, support_mask, compute_R, supporting_function,
                    box_supporting_function, eval_entire, complex_growth_rate,
                    parse_poly, lp_norm, GridError, PolyError, Spectrum,
                    growth_sequence, estimate_limit, family_explicit,
                    eval_symbol_many)
from realpw import transform
from conftest import block_iterates
from golden import bench_workloads
from realpw.grid import lp_norm_values
from realpw.transform import (CHUNK_MAX_POINTS, MATRIX_PASS_MAX_K, SpatialStep,
                              forward_values, inverse_values)
from realpw.verify import acceptance_corpus


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return SampledFunction(grid, "spatial", vals)


class TestDft:
    def test_gaussian_self_dual(self):
        # closed-form oracle: F[exp(-x^2/2)](lam) = exp(-lam^2/2)
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "gaussian", "sigma": 1.0}, g)
        F = forward_dft(f)
        want = np.exp(-g.frequency_axis() ** 2 / 2)
        assert np.abs(F.values - want).max() < 1e-10

    def test_delta_has_flat_spectrum(self):
        g = make_grid(1, 64, 0.25)
        vals = np.zeros(64)
        vals[32] = 1.0
        F = forward_dft(SampledFunction(g, "spatial", vals))
        mags = np.abs(F.values)
        assert mags.max() == pytest.approx(mags.min())

    def test_modulation_shifts_spectrum(self):
        g = make_grid(1, 256, 0.1)
        f = sample_builtin({"kind": "gaussian", "sigma": 0.8}, g)
        mu = 16 * g.dlam
        mod = SampledFunction(g, "spatial", f.values * np.exp(1j * mu * g.spatial_axis()))
        F0 = np.abs(forward_dft(f).values)
        F1 = np.abs(forward_dft(mod).values)
        assert np.abs(np.roll(F0, 16) - F1).max() < 1e-12 * F0.max()

    @pytest.mark.parametrize("d,M,h", [(1, 128, 0.3), (2, 32, 0.7), (3, 8, 1.1)])
    def test_round_trip_random(self, d, M, h):
        g = make_grid(d, M, h)
        for seed in range(34 if d == 1 else 33):
            f = random_function(g, seed)
            back = inverse_dft(forward_dft(f))
            assert np.abs(back.values - f.values).max() < 1e-12 * np.abs(f.values).max()

    @pytest.mark.parametrize("d,M,h", [(1, 256, 0.2), (2, 32, 0.5)])
    def test_discrete_parseval(self, d, M, h):
        g = make_grid(d, M, h)
        f = random_function(g, 99)
        F = forward_dft(f)
        spatial = g.h ** d * np.sum(np.abs(f.values) ** 2)
        freq = g.dlam ** d * np.sum(np.abs(F.values) ** 2)
        assert freq == pytest.approx(spatial, rel=1e-12)

    def test_2norm_equals_frequency_2norm(self):
        g = make_grid(1, 128, 0.3)
        f = random_function(g, 5)
        F = forward_dft(f)
        freq_norm = np.sqrt(g.dlam * np.sum(np.abs(F.values) ** 2))
        assert lp_norm(f, 2) == pytest.approx(freq_norm, rel=1e-12)


class TestInPlaceTransforms:
    # each transform shifts its input into one complex buffer, transforms it
    # in place and scales the shifted result in place: bit for bit the
    # out-of-place composition it replaced
    @pytest.mark.parametrize("d,M", [(1, 64), (1, 66), (2, 32), (2, 34), (3, 8), (3, 10)])
    @pytest.mark.parametrize("real", [True, False])
    def test_bit_equal_to_the_out_of_place_composition(self, d, M, real):
        grid = make_grid(d, M, 0.3)
        rng = np.random.default_rng(M + d)
        values = rng.standard_normal(grid.n_points)
        if not real:
            values = values + 1j * rng.standard_normal(grid.n_points)
        before = values.copy()
        v = values.reshape(grid.shape)
        pairs = [(forward_values, np.fft.fftn, grid.h ** d / (2.0 * np.pi) ** (d / 2.0)),
                 (inverse_values, np.fft.ifftn, (2.0 * np.pi) ** (d / 2.0) / grid.h ** d)]
        for call, fft, scale in pairs:
            want = (scale * np.fft.fftshift(fft(np.fft.ifftshift(v)))).ravel()
            got = call(values, grid)
            assert got.dtype == complex and got.tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes()


def bench_spectral_bumps(seed, workdir):
    """(grid, builtin) of every spectral bump the bench workloads build at
    seed: the six estimate-corpus inputs and the two-box reconstruct input."""
    workloads, inputs = bench_workloads(), {}
    for build in (workloads.estimate_corpus, workloads.reconstruct_twobox):
        for job in build(seed, workdir):
            cfg = json.loads(pathlib.Path(job.argv[-1]).read_text())
            g = cfg["grid"]
            inputs[build, json.dumps(cfg["input"]["builtin"], sort_keys=True)] = (
                make_grid(g["d"], g["M"], g["h"]), cfg["input"]["builtin"])
    return list(inputs.values())


class TestFrequencySideSpectrum:
    def test_no_transform_and_the_samples_as_F(self, monkeypatch):
        calls = []
        monkeypatch.setattr(transform, "forward_values", lambda *a: calls.append(a))
        F = sample_prescribed({"kind": "spectral_bump",
                               "support": {"shape": "ball", "radius": 3.0}}, make_grid(2, 64, 0.2))
        spec = Spectrum.of(F, 1e-6)
        assert calls == [] and spec.f is F and spec.F is F.values
        assert spec.mask.eps_rel == 1e-6 and spec.mask.n_cells > 0

    def test_bench_bumps_mask_as_their_spatial_samples(self, tmp_path):
        # Spectrum.of of a spectral bump's frequency samples against that of
        # its spatial samples (an inverse transform, then a forward one): the
        # masks are bit-equal and F agrees to 1e-15 of max |F| on the mask
        count, worst = 0, 0.0
        for seed in range(40):
            for grid, builtin in bench_spectral_bumps(seed, str(tmp_path)):
                direct = Spectrum.of(sample_prescribed(builtin, grid))
                trip = Spectrum.of(sample_builtin(builtin, grid))
                assert direct.mask.field.tobytes() == trip.mask.field.tobytes(), (seed, builtin)
                assert direct.mask.resolved == trip.mask.resolved
                assert direct.coords.tobytes() == trip.coords.tobytes()
                assert direct.fft_index.tobytes() == trip.fft_index.tobytes()
                on = direct.mask.field
                worst = max(worst, np.abs(direct.F[on] - trip.F[on]).max()
                            / np.abs(direct.F).max())
                count += 1
        assert count == 40 * 7 and worst <= 1e-15


class TestSupportMask:
    def bump(self):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        return g, f

    def test_bump_mask_matches_construction(self):
        g, f = self.bump()
        mask = support_mask(forward_dft(f), 1e-8)
        lam = g.frequency_axis()
        inside = np.abs(lam) <= 1.0
        marked = mask.field
        # equal up to one boundary cell on each side
        assert np.logical_xor(marked, inside).sum() <= 2
        assert mask.resolved

    def test_zero_function_empty_mask_and_R_zero(self):
        g = make_grid(1, 64, 0.5)
        F = SampledFunction(g, "frequency", np.zeros(64))
        mask = support_mask(F)
        assert mask.is_empty
        P = parse_poly("x1", 1)
        assert compute_R(P, mask).value == 0.0

    def test_gaussian_mask_radius(self):
        # oracle: exp(-lam^2/2) = 1e-8  at  lam = sqrt(2 ln 1e8)
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "gaussian", "sigma": 1.0}, g)
        mask = support_mask(forward_dft(f), 1e-8)
        edge = np.abs(g.frequency_axis()[mask.field]).max()
        want = np.sqrt(2 * np.log(1e8))
        assert abs(edge - want) <= g.dlam

    def test_monotone_in_eps(self):
        g, f = self.bump()
        F = forward_dft(f)
        tight = support_mask(F, 1e-4)
        loose = support_mask(F, 1e-10)
        assert np.all(loose.field[tight.field])

    def test_compute_R_monotone_in_mask(self):
        g, f = self.bump()
        F = forward_dft(f)
        P = parse_poly("x1^2", 1)
        r_tight = compute_R(P, support_mask(F, 1e-4)).value
        r_loose = compute_R(P, support_mask(F, 1e-10)).value
        assert r_tight <= r_loose

    def test_unresolved_when_touching_boundary(self):
        g = make_grid(1, 64, 0.5)
        vals = np.ones(64)
        F = SampledFunction(g, "frequency", vals)
        assert not support_mask(F).resolved

    def test_rejects_bad_eps(self):
        g, f = self.bump()
        F = forward_dft(f)
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(GridError):
                support_mask(F, eps)


class TestComputeR:
    def test_interval_first_derivative(self):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("x1", 1), mask).value
        assert abs(R - 1.0) <= g.dlam

    def test_constant_polynomial(self):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        mask = support_mask(forward_dft(f))
        R = compute_R(parse_poly("2 - i", 1), mask).value
        assert R == pytest.approx(abs(2 - 1j))

    def test_box_corners_for_mixed_poly(self):
        # oracle: brute-force max over the constructed support cells
        g = make_grid(2, 128, 0.25)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}}, g)
        mask = support_mask(forward_dft(f))
        lams = mask.coords()
        brute = np.abs(lams[:, 0] * lams[:, 1]).max()
        R = compute_R(parse_poly("x1*x2", 2), mask).value
        assert R == pytest.approx(brute, rel=1e-12)
        assert abs(R - 1.0) <= 3 * g.dlam

    def test_symbol_past_the_double_range_raises(self):
        # |lam|^120 passes the double range on cells 100..400 (lam up to 491):
        # the symbol comes back inf with no warning (an error in this suite),
        # where "overflow encountered in power" used to leak, and compute_R
        # names P, as the ledgers' GrowthError does
        g = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spectral_bump", "support": {
            "shape": "box", "lo": [100 * g.dlam], "hi": [400 * g.dlam]}}, g)
        mask = support_mask(forward_dft(f))
        P = parse_poly("x1^120", 1)
        assert not np.isfinite(eval_symbol_many(P, mask.coords())).all()
        with pytest.raises(PolyError, match=r"^1.0\*x1\^120: .* double range"):
            compute_R(P, mask)
        assert compute_R(parse_poly("x1^100", 1), mask).value < np.inf


class TestSupportingFunction:
    def test_two_points(self):
        assert supporting_function([[-1.0], [1.0]], [1.0]) == pytest.approx(1.0)

    def test_sampled_interval_negative_direction(self):
        pts = np.linspace(0, 2, 41)[:, None]
        assert supporting_function(pts, [-1.0]) == pytest.approx(0.0)

    def test_unit_square_corners(self):
        pts = [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert supporting_function(pts, [1.0, 1.0]) == pytest.approx(2.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((30, 2))
        y = rng.standard_normal(2)
        for t in (0.5, 2.0, 7.25):
            assert supporting_function(pts, t * y) == pytest.approx(
                t * supporting_function(pts, y), rel=1e-12)

    def test_symmetric_sets(self):
        rng = np.random.default_rng(4)
        half = rng.standard_normal((20, 3))
        pts = np.vstack([half, -half])
        for _ in range(5):
            y = rng.standard_normal(3)
            assert supporting_function(pts, y) == pytest.approx(
                supporting_function(pts, -y), rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(GridError):
            supporting_function(np.empty((0, 2)), [1.0, 0.0])

    def test_box_is_its_corners(self):
        # H_B of a box is H of its 2^d corners, summed axis by axis
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            lo = rng.standard_normal(d)
            hi = lo + rng.random(d)
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            for v in rng.standard_normal((5, d)):
                assert box_supporting_function(lo, hi, v) == pytest.approx(
                    supporting_function(corners, v), rel=1e-12, abs=1e-15)
        assert box_supporting_function([0.2], [2.0], [-500.0]) == -100.0

    def test_box_past_the_double_range_never_warns(self):
        # Python floats: inf, and inf - inf = NaN, with no warning, numpy
        # scalars and arrays as given
        assert box_supporting_function(np.array([5.0, 5.0]), np.array([9.0, 9.0]),
                                       np.array([1e308, 1.0])) == np.inf
        assert np.isnan(box_supporting_function([5.0, 5.0], [9.0, 9.0], [-1e308, 1e308]))
        assert np.isnan(box_supporting_function([0.0], [1.0], [np.nan]))


class TestEvalEntire:
    def spatial_bump(self):
        g = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        return g, f

    def test_matches_forward_dft_on_lattice(self):
        g, f = self.spatial_bump()
        F = forward_dft(f)
        for j in (412, 512, 600):
            lam = g.frequency_axis()[j]
            val = eval_entire(f, [lam])
            assert val == pytest.approx(F.values[j], rel=1e-12, abs=1e-12)

    def test_even_real_input_real_on_imaginary_axis(self):
        g, f = self.spatial_bump()
        val = eval_entire(f, [2.0j])
        assert abs(val.imag) < 1e-12 * abs(val)

    def test_margin_violation(self):
        g = make_grid(1, 64, 0.1)
        f = SampledFunction(g, "spatial", np.ones(64))
        with pytest.raises(GridError, match="boundary frame"):
            eval_entire(f, [1.0])

    def test_overflow_guard(self):
        g, f = self.spatial_bump()
        with pytest.raises(GridError, match="overflow"):
            eval_entire(f, [0.0 + 800.0j])

    def test_real_part_past_the_double_range(self):
        # the phase's imaginary part Re z . x must be a double: on a support
        # of radius about 2, Re z = 1e308 is refused and 1e307 is read, with
        # no warning (an error in this suite); in d = 2 the axes' terms add,
        # so two of 1e308 on a radius of 1.5 are refused.  An Im z whose
        # product with the radius passes the double range meets the
        # overflow guard, with no warning either
        g = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-2], "hi": [2]}}, g)
        with pytest.raises(GridError, match="double range"):
            eval_entire(f, [1e308])
        with pytest.raises(GridError, match="double range"):
            eval_entire(f, [[1.0], [1e308 + 1j]])
        assert np.isfinite(eval_entire(f, [1e307 + 1j]))
        with pytest.raises(GridError, match="overflow guard"):
            eval_entire(f, [1e308j])
        f2 = sample_builtin({"kind": "spatial_bump", "support": {"shape": "ball", "radius": 1.5}},
                            make_grid(2, 64, 0.1))
        assert np.isfinite(eval_entire(f2, [1e307, 1e307]))
        with pytest.raises(GridError, match="double range"):
            eval_entire(f2, [1e308, 1e308])

    def test_stack_equals_single_points(self):
        g, f = self.spatial_bump()
        F = forward_dft(sample_builtin({"kind": "spectral_bump",
                                        "support": {"shape": "box", "lo": [-1], "hi": [1]}},
                                       make_grid(1, 1024, 0.05)))
        zs = np.array([[x + 1j * t] for x in (0.0, 0.7, -1.3) for t in (0.0, 2.0, -5.0, 20.0)])
        for h in (f, F):
            single = np.array([eval_entire(h, z) for z in zs])
            assert_bitwise(eval_entire(h, zs), single)
        g2 = make_grid(2, 64, 0.1)
        f2 = sample_builtin({"kind": "spatial_bump",
                             "support": {"shape": "ball", "radius": 1.5}}, g2)
        zs2 = np.array([[0.5 + 1j, -2j], [0.0, 0.0], [3.0 - 0.5j, 1.0 + 4j]])
        assert_bitwise(eval_entire(f2, zs2), np.array([eval_entire(f2, z) for z in zs2]))
        assert isinstance(eval_entire(f2, zs2[0]), complex)

    def test_stack_errors_are_the_single_point_errors(self):
        g, f = self.spatial_bump()
        zs = np.array([[1.0 + 1j], [800.0j], [900.0j]])
        with pytest.raises(GridError) as single:
            eval_entire(f, zs[1])
        with pytest.raises(GridError) as stacked:
            eval_entire(f, zs)
        assert str(stacked.value) == str(single.value)
        wide = SampledFunction(make_grid(1, 64, 0.1), "spatial", np.ones(64))
        with pytest.raises(GridError) as single:
            eval_entire(wide, [1.0])
        with pytest.raises(GridError) as stacked:
            eval_entire(wide, [[1.0], [2.0]])
        assert str(stacked.value) == str(single.value)
        for bad in ([1.0, 2.0], [[1.0, 2.0]], np.zeros((2, 1, 1))):
            with pytest.raises(GridError, match="length 1"):
                eval_entire(f, bad)

    def test_guard_sums_over_the_axes(self):
        # the exponent's real part is x . Im z, summed over the axes: on
        # [-10, 10]^2, Im z = (60, 60) reaches 1 200 at a corner.  The guard
        # took the largest |Im z_j| alone, 600, and exp overflowed
        f = sample_builtin({"kind": "spatial_bump", "support": {
            "shape": "box", "lo": [-10, -10], "hi": [10, 10]}}, make_grid(2, 256, 0.1))
        with pytest.raises(GridError, match="overflow guard"):
            eval_entire(f, [60j, 60j])
        with pytest.raises(GridError, match="overflow guard"):
            eval_entire(f, [[1.0, 1.0], [60j, 60j]])
        assert np.isfinite(eval_entire(f, [60j, 0.0]))

    def test_nan_exponent_bound_is_refused(self):
        # on [5, 9]^2, Im z = (-1e308, 1e308) takes the box's supporting
        # function to -inf + inf = NaN, which compares false with the guard
        f = sample_builtin({"kind": "spatial_bump", "support": {
            "shape": "box", "lo": [5, 5], "hi": [9, 9]}}, make_grid(2, 256, 0.1))
        with pytest.raises(GridError, match="overflow guard"):
            eval_entire(f, [-1e308j, 1e308j])
        # a bound of -inf, whose terms pass the double range: the phase's
        # product x . Im z would overflow with a warning
        with pytest.raises(GridError, match="double range"):
            eval_entire(f, [-1e308j, -1e308j])

    def test_one_sided_support_is_accepted(self):
        # on [0.2, 2], Im z = -500 takes x . Im z to -100 at most: the value
        # is e^-100-small, where the guard's |Im z| * max |x| read 1 000
        f = sample_builtin({"kind": "spatial_bump", "support": {
            "shape": "box", "lo": [0.2], "hi": [2.0]}}, make_grid(1, 1024, 0.005))
        val = eval_entire(f, [-500j])
        assert 0.0 < abs(val) < np.exp(-100.0)
        with pytest.raises(GridError, match="double range"):
            eval_entire(f, [-1e308j])

    @pytest.mark.parametrize("d,M,h", [(1, 256, 0.05), (2, 64, 0.1), (3, 32, 0.2)])
    def test_support_coordinates_are_the_grids(self, d, M, h):
        # the quadrature over grid.*_coords()[support] that eval_entire ran
        # before it read the support's own indices, bit for bit, both sides
        rng = np.random.default_rng(d)
        grid = make_grid(d, M, h)
        box = {"shape": "box", "lo": [-1.0] * d, "hi": [0.5] + [1.0] * (d - 1)}
        f = sample_builtin({"kind": "spatial_bump", "support": box}, grid)
        F = forward_dft(sample_builtin({"kind": "spectral_bump", "support": box}, grid))
        zs = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        for g, coords, sign, step in ((f, grid.spatial_coords(), -1.0, grid.h),
                                      (F, grid.frequency_coords(), 1.0, grid.dlam)):
            mag = np.abs(g.values)
            support = mag > 1e-13 * mag.max()
            scale = step ** d / (2.0 * np.pi) ** (d / 2.0)
            want = np.array([scale * np.sum(g.values[support] * np.exp(
                coords[support] @ (sign * 1j * z))) for z in zs])
            assert_bitwise(eval_entire(g, zs), want)

    def test_peak_memory_is_the_support(self):
        # no (M^d, d) coordinate array: on the d = 3, M = 64 gaussian the
        # traced peak read 15.2 MB with one, 5.8 MB without, the input 4.2 MB
        f = sample_builtin({"kind": "gaussian", "sigma": 0.25}, make_grid(3, 64, 0.1))
        tracemalloc.start()
        try:
            eval_entire(f, [1j, 0.5, 2j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * f.values.nbytes


class TestComplexGrowthRate:
    def test_zero_direction_zero_slope(self):
        g = make_grid(1, 512, 0.01)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        rep = complex_growth_rate(f, [0.0], [0.0], np.linspace(1, 5, 9))
        assert rep.slope == 0.0

    def test_bump_slope_near_supporting_function(self):
        g = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        rep = complex_growth_rate(f, [0.0], [1.0], np.linspace(10, 40, 31))
        assert rep.slope == pytest.approx(1.0, abs=0.05)
        # the uncorrected slope is visibly biased low but still recorded
        assert rep.slope_raw < rep.slope

    def test_requires_increasing_t(self):
        g = make_grid(1, 512, 0.01)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        with pytest.raises(GridError):
            complex_growth_rate(f, [0.0], [1.0], [5.0, 4.0, 3.0])


class TestEntireGrowthHalfOpenBump:
    def test_bump_on_unit_interval_grows_like_exp_t(self):
        # H of [0, 1] in the +1 direction is 1: |Ff(it)| ~ e^{t}
        g = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [0.0], "hi": [1.0]}}, g)
        rep = complex_growth_rate(f, [0.0], [1.0], np.linspace(10, 40, 31))
        assert rep.slope == pytest.approx(1.0, abs=0.05)


class TestSpectrumRange:
    def test_transform_beyond_double_range_raises(self):
        # finite samples near 1e308 overflow in the forward FFT: Spectrum.of
        # used to warn "overflow encountered in fft" and then reject the
        # NaN/Inf transform as "values must be finite"
        grid = make_grid(1, 64, 0.25)
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, grid)
        huge = f.with_values(f.values * 1e308)
        with pytest.raises(GridError, match="transform exceeds the double range"):
            Spectrum.of(huge)
        with pytest.raises(GridError, match="transform exceeds the double range"):
            growth_sequence(huge, parse_poly("x1", 1), np.inf, 16)
        assert Spectrum.of(f.with_values(f.values * 1e300)).mask.n_cells > 0


# ---------------------------------------------------------------------------
# differential tests: the spatial step against numpy's ifftn and against a
# long-double direct DFT
# ---------------------------------------------------------------------------

U = 2.0 ** -53                                  # a double's unit roundoff
EPS_LD = float(np.finfo(np.longdouble).eps)


def gamma(n, u=U):
    return n * u / (1.0 - n * u)


def spectrum_on_cells(grid, cells, seed=0):
    """A Spectrum whose mask is exactly the given FFT-order cells."""
    rng = np.random.default_rng(seed)
    B = np.zeros(grid.shape, dtype=complex)
    for c in cells:
        B[c] = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())
    f = SampledFunction(grid, "spatial", inverse_values(np.fft.fftshift(B).ravel(), grid))
    spec = Spectrum.of(f)
    assert set(spec.fft_index.tolist()) == {int(np.ravel_multi_index(c, grid.shape))
                                            for c in cells}
    return spec


def ifftn_reference(spec, G):
    """numpy's ifftn of G scattered into a zeroed FFT-order buffer, with its
    axes reversed: the output order of a step with no matrix pass."""
    buf = np.zeros(spec.grid.shape, dtype=complex)
    buf.reshape(-1)[spec.fft_index] = G
    return np.ascontiguousarray(np.fft.ifftn(buf).T)


def dft_reference(spec, step, G):
    """(exact, bound), in the step's output order: the step's output with
    its matrix passes done exactly, and the rounding bound it must meet.

    The axes not in step.matrix_axes go through numpy's ifft, last axis
    first, as the step runs them before any matrix pass, so the matrix
    passes see the same values h.  Each matrix axis is then summed directly
    in long double.  The bound: a matrix pass forms each output as a complex
    inner product of K_a values a_k with block entries E_km, |E_km| = 1/M.
    In real arithmetic, in any summation order, with or without fused
    multiply-adds, that errs by at most sqrt(2) gamma_(2 K_a) sum |a_k| / M
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.6), and the block's one rounding adds u sum |a_k| / M.  An exact
    later pass takes an error e to at most sum |e| / M, as it takes |h| to B,
    the sum of |h| over the matrix axes' frequencies over M each.  So
    |step - exact| <= e (1 + e) B, e = sum over the matrix axes of
    sqrt(2) gamma_(2 K_a) + u, where 1 + e covers the error a pass's inputs
    carry from the passes before.  The reference's own long-double sums and
    roots add sqrt(2) gamma_(2 M) + 32 eps_ld per axis (eps_ld long double's
    epsilon).  With no matrix axis the bound is 0."""
    grid = spec.grid
    M, d = grid.M, grid.d
    h = np.zeros(grid.shape, dtype=complex)
    h.reshape(-1)[spec.fft_index] = G
    for a in range(d - 1, -1, -1):
        if a not in step.matrix_axes:
            h = np.fft.ifft(h, axis=a)
    exact, B = h.astype(np.clongdouble), np.abs(h).astype(np.longdouble)
    m = np.arange(M)
    kernel = np.exp(8j * np.arctan(np.longdouble(1)) * (np.outer(m, m) % M) / M) / M
    e = 0.0
    for a in step.matrix_axes:
        K = np.unique(np.unravel_index(spec.fft_index, grid.shape)[a]).size
        exact = np.moveaxis(np.tensordot(exact, kernel, axes=([a], [0])), -1, a)
        B = B.sum(axis=a, keepdims=True) / M
        e += np.sqrt(2.0) * (gamma(2 * K) + gamma(2 * M, EPS_LD)) + U + 32 * EPS_LD
    return exact.transpose(step.axes), np.broadcast_to(e * (1 + e) * B, grid.shape).transpose(
        step.axes)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.int64), b.view(np.int64))


def assert_step_exact(spec, step, G):
    """The step's output: bit-equal to ifftn where every axis takes the ifft
    pass, otherwise within dft_reference's bound of the exact DFT."""
    if not step.matrix_axes:
        assert step.axes == tuple(range(spec.grid.d - 1, -1, -1))
        assert_bitwise(step(G), ifftn_reference(spec, G))
        return
    exact, bound = dft_reference(spec, step, G)
    assert np.all(np.abs(step(G) - exact) <= bound)


def mask_cells(name, d, M):
    """FFT-order cells of the named test mask."""
    if name == "one cell":
        return [(3,) * d]
    if name == "full last-axis line":
        return [(2,) * (d - 1) + (k,) for k in range(M)]
    if name == "full axis-0 line":
        return [(k,) + (2,) * (d - 1) for k in range(M)]
    if name == "wrapping past 0":       # offsets -1, 0, 1 on every axis
        return [tuple(int(v) for v in (np.array(c) - 1) % M) for c in np.ndindex(*(3,) * d)]
    rng = np.random.default_rng(d)      # "empty lines": a few scattered cells
    return sorted({tuple(int(v) for v in rng.integers(0, M, d)) for _ in range(5)})


MASKS = ["one cell", "full last-axis line", "full axis-0 line", "wrapping past 0",
         "empty lines"]


def chosen_passes(name):
    """(grid, FFT-order cells, matrix axes, output axes) of the named mask
    that sits on one side of a choice between the two passes."""
    K = MATRIX_PASS_MAX_K
    if name == "two bands":             # the two-box shape: 2 x 6 frequencies, and 3
        band = [*range(10, 16), *range(64 - 15, 64 - 9)]
        return make_grid(2, 64, 0.5), list(itertools.product(band, (63, 0, 1))), {0, 1}, (0, 1)
    if name == "K at the crossover":
        return make_grid(2, 128, 0.5), list(itertools.product((0, 5), range(K))), {0, 1}, (1, 0)
    if name == "K past the crossover":
        return make_grid(2, 128, 0.5), list(itertools.product((0, 5), range(K + 1))), {0}, (1, 0)
    if name == "mixed d = 3":           # K_a = 36, 2 and 5
        cells = list(itertools.product(range(36), (0, 39), range(5)))
        return make_grid(3, 40, 0.5), cells, {1, 2}, (0, 2, 1)
    if name == "memory bound":      # K_a = 16, but a block's 4 K_a M doubles = 2 n_points
        return make_grid(2, 16, 0.5), [(k, k) for k in range(16)], set(), (1, 0)
    # "dense": K_a = 40 on both axes
    return make_grid(2, 64, 0.5), [(k, 3 * k % 64) for k in range(40)], set(), (1, 0)


CHOICES = ["two bands", "K at the crossover", "K past the crossover", "mixed d = 3",
           "memory bound", "dense"]


@pytest.fixture(scope="module")
def corpus_specs():
    return [(m, Spectrum.of(m.f)) for m in acceptance_corpus()]


class TestPrunedStep:
    @pytest.mark.parametrize("d,M", [(1, 16), (2, 16), (3, 8)])
    @pytest.mark.parametrize("name", MASKS)
    def test_equals_ifftn(self, d, M, name):
        # a d = 1 grid takes the ifft pass, bit-equal to ifftn; every d > 1
        # mask here has an axis of K_a <= MATRIX_PASS_MAX_K, within the bound
        spec = spectrum_on_cells(make_grid(d, M, 0.5), mask_cells(name, d, M))
        step = SpatialStep(spec)
        assert bool(step.matrix_axes) == (d > 1)
        rng = np.random.default_rng(7)
        for _ in range(3):              # a call must not leave data for the next
            k = spec.fft_index.size
            assert_step_exact(spec, step, rng.standard_normal(k) + 1j * rng.standard_normal(k))

    @pytest.mark.parametrize("name", MASKS)
    def test_d1_stack_is_each_row_bit_for_bit(self, name):
        # a (k, cells) stack goes through one ifft call over k lines; each
        # output row is that row's one-row output, for every k up to the
        # largest yet, and a smaller stack leaves no data for the next.  A
        # row and a stack share the one output buffer, so the stack's is
        # copied before the rows overwrite it
        spec = spectrum_on_cells(make_grid(1, 64, 0.5), mask_cells(name, 1, 64))
        step, rng = SpatialStep(spec), np.random.default_rng(9)
        cells = spec.fft_index.size
        for k in (3, 1, 5, 2, 5):
            G = rng.standard_normal((k, cells)) + 1j * rng.standard_normal((k, cells))
            out = step(G).copy()
            assert out.shape == (k, 64)
            rows = [step(row).copy() for row in G]
            assert [r.tobytes() for r in rows] == [r.tobytes() for r in out]
            assert_step_exact(spec, step, G[-1])

    @pytest.mark.parametrize("d,M", [(1, 16), (2, 16), (3, 8)])
    def test_a_stack_of_more_than_rows_raises(self, d, M):
        # a step takes CHUNK_MAX_POINTS // M rows a call on a d = 1 grid, one
        # on any other: a stack of more raises, naming its count, and a
        # one-row stack is the row call, bit for bit
        spec = spectrum_on_cells(make_grid(d, M, 0.5), mask_cells("empty lines", d, M))
        step, rng = SpatialStep(spec), np.random.default_rng(4)
        assert step.rows == (CHUNK_MAX_POINTS // M if d == 1 else 1)
        shape = (step.rows + 1, spec.fft_index.size)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with pytest.raises(GridError, match=f"a stack of {step.rows + 1} rows"):
            step(G)
        one = step(G[:1]).copy()
        assert one.shape == (1,) + spec.grid.shape
        assert_bitwise(one[0], step(G[0]))

    @pytest.mark.parametrize("name", CHOICES)
    def test_pass_choice(self, name):
        grid, cells, matrix, axes = chosen_passes(name)
        spec = spectrum_on_cells(grid, cells)
        step = SpatialStep(spec)
        assert (step.matrix_axes, step.axes) == (frozenset(matrix), axes)
        K = [np.unique(c).size for c in np.unravel_index(spec.fft_index, grid.shape)]
        assert sum(4 * K[a] * grid.M for a in matrix) < 2 * grid.n_points   # doubles
        rng = np.random.default_rng(5)
        for _ in range(2):
            k = spec.fft_index.size
            assert_step_exact(spec, step, rng.standard_normal(k) + 1j * rng.standard_normal(k))

    def test_equals_ifftn_on_the_acceptance_corpus(self, corpus_specs):
        rng = np.random.default_rng(3)
        for _, spec in corpus_specs:
            step = SpatialStep(spec)
            # the d = 2 inputs occupy 3-22 frequencies per axis, the d = 1 ones
            # take the ifft pass
            assert step.matrix_axes == frozenset(range(spec.grid.d) if spec.grid.d > 1 else ())
            for G in (spec.F[spec.mask.field],
                      spec.F[spec.mask.field] * np.exp(2j * np.pi * rng.uniform(
                          size=spec.fft_index.size))):
                assert_step_exact(spec, step, G)

    def test_asymmetric_weight_through_fft_order(self, corpus_specs):
        specs = [spectrum_on_cells(make_grid(2, 16, 0.5), mask_cells("empty lines", 2, 16)),
                 spectrum_on_cells(make_grid(3, 8, 0.5), mask_cells("wrapping past 0", 3, 8)),
                 corpus_specs[4][1],        # the acceptance two-boxes: axes (0, 1)
                 corpus_specs[0][1]]        # the d = 1 interval
        for spec in specs:
            grid = spec.grid
            x = grid.spatial_coords()
            w = (1.0 + np.linalg.norm(x - 0.3 * x.max(axis=0), axis=-1)) ** 2 * (
                1.5 + np.tanh(x[:, 0] - 2.0 * x[:, -1]))
            step = SpatialStep(spec)
            G = spec.F[spec.mask.field]
            buf = np.zeros(grid.shape, dtype=complex)
            buf.reshape(-1)[spec.fft_index] = G
            scale = (2.0 * np.pi) ** (grid.d / 2.0) / grid.h ** grid.d
            ref = scale * lp_norm_values(
                np.fft.ifftn(buf) * np.fft.ifftshift(w.reshape(grid.shape)), 1.0, np.inf)
            norm = step.norm(step(G) * step.fft_order(w), np.inf)
            if step.matrix_axes:
                assert norm == pytest.approx(ref, rel=1e-12)
            else:
                assert norm == ref
            # the weight's order matters: in any other axis order it misses by
            # far more than the rounding
            centered = np.fft.ifftshift(w.reshape(grid.shape))
            for axes in set(itertools.permutations(range(grid.d))) - {step.axes}:
                assert step.norm(step(G) * centered.transpose(axes), np.inf) != pytest.approx(
                    ref, rel=1e-9)


def ifftn_ledger(spec, P, n_max):
    """{p: L} for p = 1 and inf by the unpruned step: numpy's ifftn of the
    scattered FFT-order buffer at every n."""
    grid = spec.grid
    scale = (2.0 * np.pi) ** (grid.d / 2.0) / grid.h ** grid.d
    buf = np.zeros(grid.shape, dtype=complex)
    S, norms = [], {1: [], np.inf: []}
    (R,), _, steps = block_iterates(spec, family_explicit([P]), n_max)
    for n, G in steps:
        buf.reshape(-1)[spec.fft_index] = G[0]
        g = np.fft.ifftn(buf)
        S.append(n * np.log(R))
        for p in norms:
            norms[p].append(scale * lp_norm_values(g, grid.h ** grid.d, p))
    return {p: np.array(S) + np.log(np.array(nrm)) for p, nrm in norms.items()}


class TestStepLedgersMatchIfftn:
    def test_acceptance_rows(self, corpus_specs, pairs):
        checked = paired = 0
        for member, spec in corpus_specs:
            for P in member.polys:
                ref = ifftn_ledger(spec, P, 64)
                seq_inf, seq_1 = (growth_sequence(spec, P, p, 64) for p in (np.inf, 1))
                assert seq_inf.L.shape == seq_1.L.shape == ref[1].shape
                assert seq_inf.truncated_at is seq_1.truncated_at is None
                # g_(n-1) and g_n from one transform, or the matrix passes of a
                # d = 2 step: the refactor bound
                for seq, p in ((seq_inf, np.inf), (seq_1, 1)):
                    assert seq.L == pytest.approx(ref[p], rel=1e-12, abs=1e-12)
                    est = estimate_limit(ref[p])
                    assert seq.limit == pytest.approx(est.limit, rel=1e-12)
                    assert seq.regime == est.regime
                paired += 2 * pairs(spec, P)
                checked += 2
        assert checked == 44          # the 22 p = 2 rows never run the step
        assert paired == 28           # the real P on the real inputs
