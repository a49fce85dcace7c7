import dataclasses
import itertools
import json

import numpy as np
import pytest

from realpw import (make_grid, sample_builtin, SampledFunction, forward_dft,
                    support_mask, compute_R, parse_poly, family_linear,
                    family_quadratic, family_quadratic_real, family_explicit,
                    reconstruct_support, local_spectrum_raster, growth_sequences,
                    growth_sequence, pde_support_probe, mask_metrics, apply_op_spectral,
                    Spectrum, MultiPoly, PolyError, cli, growth, reconstruct)
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


def cell(grid, lam):
    """Flat index of the frequency cell nearest lam."""
    return int(np.abs(grid.frequency_coords() - lam).max(axis=-1).argmin())


class TestMembership:
    def test_inside_and_outside(self, interval_setup):
        grid, f, reference = interval_setup
        fam = family_explicit([parse_poly("x1", 1)])
        res = reconstruct_support(f, fam, 2, 64)
        assert res.estimated.field[cell(grid, [0.0])]
        outside = reference.coords().max() + 10 * grid.dlam
        assert not res.estimated.field[cell(grid, [outside])]

    def test_zero_support(self):
        grid = make_grid(1, 64, 0.5)
        f = SampledFunction(grid, "spatial", np.zeros(64))
        fam = family_explicit([parse_poly("x1", 1)])
        res = reconstruct_support(f, fam, 2, 16)
        # all limits zero: only the symbol's zero set passes
        assert res.estimated.field[cell(grid, [0.0])]
        assert not res.estimated.field[cell(grid, [1.0])]


def test_carve_reads_an_overflowing_symbol_as_outside():
    # x1^120 is finite on the mask but passes the double range on the
    # frequency box: its inf and NaN values fail <= bound with no warning
    # (an error in this suite), and it carves nothing that x1 kept
    grid = make_grid(1, 1024, 0.005)
    f = sample_builtin({"kind": "spectral_bump", "support": {
        "shape": "box", "lo": [-10 * grid.dlam], "hi": [10 * grid.dlam]}}, grid)
    res = reconstruct_support(f, family_explicit([parse_poly("x1", 1),
                                                  parse_poly("x1^120", 1)]), 2, 64)
    alone = reconstruct_support(f, family_explicit([parse_poly("x1", 1)]), 2, 64)
    assert np.isfinite(res.limits).all() and res.carved[1] == 0
    assert np.array_equal(res.estimated.field, alone.estimated.field)
    assert res.estimated.n_cells == 19


def test_tau_past_the_double_range_keeps_every_cell():
    # limit * (1 + 1e308) passes the double range: the bound is inf, with no
    # overflow warning (an error in this suite), and the member carves nothing
    f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
    res = reconstruct_support(f, family_linear([[1.0]]), 2, 64, tau=1e308)
    assert res.limits[0] > 2.0 and list(res.carved) == [0]
    assert res.estimated.n_cells == 64


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

    def test_symbol_past_the_double_range_raises(self):
        # |lam|^120 passes the double range on cells 100..400: the raster's
        # max came back NaN, after "overflow encountered in power"
        grid = make_grid(1, 1024, 0.005)
        f = sample_builtin({"kind": "spectral_bump", "support": {
            "shape": "box", "lo": [100 * grid.dlam], "hi": [400 * grid.dlam]}}, grid)
        with pytest.raises(PolyError, match=r"^1.0\*x1\^120: .* double range"):
            local_spectrum_raster(parse_poly("x1^120", 1), support_mask(forward_dft(f)))

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


def pairwise_metrics(estimated, reference):
    """mask_metrics as it was: all-pairs Chebyshev distances in chunks of 512
    cells, kept as the reference for the dilation count."""
    sym = int(np.logical_xor(estimated.field, reference.field).sum())
    a = np.argwhere(estimated.field.reshape(estimated.grid.shape))
    b = np.argwhere(reference.field.reshape(reference.grid.shape))
    if len(a) == 0 and len(b) == 0:
        return sym, 0
    if len(a) == 0 or len(b) == 0:
        return sym, int(estimated.grid.M)

    def one_sided(src, dst):
        worst = 0
        for start in range(0, len(src), 512):
            chunk = src[start:start + 512]
            d = np.abs(chunk[:, None, :] - dst[None, :, :]).max(axis=-1).min(axis=1)
            worst = max(worst, int(d.max()))
        return worst
    return sym, max(one_sided(a, b), one_sided(b, a))


class TestMaskMetricsDifferential:
    @pytest.mark.parametrize("d,M", [(1, 8), (1, 64), (2, 8), (2, 24), (3, 8), (3, 12)])
    def test_dilations_match_pairwise_distances(self, d, M):
        from realpw import SupportMask
        grid = make_grid(d, M, 0.5)
        rng = np.random.default_rng(100 * d + M)
        for _ in range(100):
            fields = []
            for _ in range(2):
                kind = rng.integers(4)
                if kind == 0:           # empty
                    fld = np.zeros(grid.n_points, dtype=bool)
                elif kind == 1:         # a few scattered cells
                    fld = rng.random(grid.n_points) < rng.uniform(0.001, 0.05)
                elif kind == 2:         # dense
                    fld = rng.random(grid.n_points) < rng.uniform(0.2, 0.9)
                else:                   # one box
                    fld = np.zeros(grid.shape, dtype=bool)
                    lo, width = rng.integers(0, M, size=d), rng.integers(1, M, size=d)
                    fld[tuple(slice(l, l + w) for l, w in zip(lo, width))] = True
                    fld = fld.ravel()
                fields.append(fld)
            if rng.random() < 0.1:
                fields[1] = fields[0].copy()
            est, ref = (SupportMask(grid, fld, 1e-8, True) for fld in fields)
            m = mask_metrics(est, ref)
            assert (m.symmetric_difference, m.dilation_distance) == pairwise_metrics(est, ref)


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
    g_fun, S = apply_op_spectral(Spectrum.of(f, 1e-14), P, 1)
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
        gp, S = apply_op_spectral(Spectrum.of(f, 1e-14), parse_poly("x1", 1), 1)
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


# ---------------------------------------------------------------------------
# the carve from coefficient rows against the member-by-member carve
# ---------------------------------------------------------------------------

def lattice(grid, per_axis, span_cells):
    """The CLI's quadratic_real_lattice centers, one array per center."""
    step = span_cells * grid.dlam / (per_axis // 2)
    axis = (np.arange(per_axis) - (per_axis // 2 - 1)) * step
    return [np.array(t) for t in itertools.product(*[axis] * grid.d)]


def carve_per_member(grid, polys, seqs, tau, per_member):
    """reconstruct_support's carve before a family was one coefficient
    array: member i's symbol by itself, over the grid in slices of 8192
    cells for the first member kept, on the cells kept so far after it."""
    lams = grid.frequency_coords()
    cand = None
    limits, excluded, carved = [], [], []
    for i, (P, seq) in enumerate(zip(polys, seqs)):
        if seq.truncated_at is not None and seq.regime != "zero":
            excluded.append(i)
            limits.append(float("nan"))
            carved.append(0)
            continue
        limits.append(seq.limit)
        points = lams if cand is None else lams[cand]
        bound = seq.limit * (1.0 + tau)
        ok = np.concatenate([np.abs(per_member(P, points[k:k + 8192])) <= bound
                             for k in range(0, max(len(points), 1), 8192)])
        carved.append(ok.size - int(np.count_nonzero(ok)))
        cand = np.flatnonzero(ok) if cand is None else cand[ok]
    field = np.zeros(grid.n_points, dtype=bool)
    field[slice(None) if cand is None else cand] = True
    return field, limits, tuple(excluded), tuple(carved)


def assert_carves_as_members_alone(f, family, p, n_max, tau, per_member):
    seqs = list(growth_sequences(Spectrum.of(f), family, p, n_max))
    want = carve_per_member(f.grid, family.polys, seqs, tau, per_member)
    res = reconstruct_support(f, family, p, n_max, tau=tau)
    assert np.array_equal(res.estimated.field, want[0])
    assert np.array_equal(res.limits, want[1], equal_nan=True)
    assert (res.excluded_members, res.carved) == want[2:]
    return res


class TestCarveDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_box_at_the_bench_seeds(self, seed, per_member, two_box):
        builtin, grid = two_box(seed)
        f = sample_builtin(builtin, grid)
        family = family_quadratic_real(lattice(grid, 16, 63), grid)
        res = assert_carves_as_members_alone(f, family, 2, 200, 0.01, per_member)
        assert len(res.carved) == 256 and sum(res.carved) == grid.n_points - res.estimated.n_cells

    def test_linear_family_in_d1(self, interval_setup, per_member):
        grid, f, reference = interval_setup
        family = family_linear([[1.0], [-2.0], [0.5]])
        assert_carves_as_members_alone(f, family, 2, 64, 0.01, per_member)

    def test_small_lattice_in_d3(self, per_member):
        grid = make_grid(3, 32, 0.5)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "ball", "radius": 2.5 * grid.dlam},
                            "edge_width": 0.5 * grid.dlam}, grid)
        family = family_quadratic_real(lattice(grid, 4, 6), grid)
        res = assert_carves_as_members_alone(f, family, 2, 32, 0.01, per_member)
        assert len(res.carved) == 64 and any(res.carved[1:])

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_family_of_three_stacks(self, p, per_member):
        # 12 quadratics on 11 mask cells of 64 points: the ledger pass takes
        # them in symbol stacks of 5, 5 and 2, and the carve reads the
        # limit each member's own growth_sequence gives
        grid = make_grid(1, 64, 0.5)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
        spec = Spectrum.of(f)
        family = family_quadratic_real(np.linspace(-1.0, 1.0, 12)[:, None], grid)
        assert len(family) > 2 * (grid.n_points // spec.coords.shape[0])
        seqs = [growth_sequence(spec, P, p, 64) for P in family]
        want = carve_per_member(grid, family.polys, seqs, 0.01, per_member)
        res = reconstruct_support(f, family, p, 64, tau=0.01)
        assert res.estimated.field.tobytes() == want[0].tobytes()
        assert np.array_equal(res.limits, want[1], equal_nan=True)
        assert (res.excluded_members, res.carved) == want[2:] and any(res.carved)

    @pytest.mark.parametrize("out", [(0, 3, 4, 255), (0,), tuple(range(256))])
    def test_excluded_members_carve_nothing(self, out, monkeypatch, per_member, two_box):
        # members whose ledger truncates: the first member kept carves the
        # grid, and an excluded one inside a block removes no cell
        builtin, grid = two_box(0)
        f = sample_builtin(builtin, grid)
        family = family_quadratic_real(lattice(grid, 16, 63), grid)
        seqs = [dataclasses.replace(s, truncated_at=5) if i in out else s
                for i, s in enumerate(growth_sequences(Spectrum.of(f), family, 2, 200))]
        monkeypatch.setattr(reconstruct, "growth_sequences", lambda *args: seqs)
        want = carve_per_member(grid, family.polys, seqs, 0.01, per_member)
        res = reconstruct_support(f, family, 2, 200)
        assert np.array_equal(res.estimated.field, want[0])
        assert (res.excluded_members, res.carved) == want[2:] and res.excluded_members == out


def test_two_box_builds_no_member_and_evaluates_by_the_block(tmp_path, monkeypatch, two_box):
    # the 256-member reconstruct-twobox job through the CLI: the family is
    # one coefficient array from building to report, and the evaluator runs
    # once per ledger stack, then once per slice of the first member's
    # grid and at most once per later member
    built, calls = [], {"growth": 0, "reconstruct": 0}
    post_init = MultiPoly.__post_init__

    def counting_post_init(self):
        built.append(self.d)
        post_init(self)

    def counting(module):
        original = module.eval_symbol_many

        def wrapper(P, lams):
            calls[module.__name__.rpartition(".")[2]] += 1
            return original(P, lams)
        monkeypatch.setattr(module, "eval_symbol_many", wrapper)

    builtin, grid = two_box(0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"d": 2, "M": 256, "h": 0.05}, "input": {"builtin": builtin},
        "family": {"kind": "quadratic_real_lattice", "per_axis": 16, "span_cells": 63},
        "p": 2, "n_max": 200, "tau": 0.01, "out": str(tmp_path / "report.json"),
        "mask_out": str(tmp_path / "mask.json")}))
    monkeypatch.setattr(MultiPoly, "__post_init__", counting_post_init)
    counting(growth)
    counting(reconstruct)
    assert cli.main(["reconstruct", "--config", str(cfg)]) == 0
    spec = Spectrum.of(sample_builtin(builtin, grid))
    stacks = -(-256 // (grid.n_points // spec.coords.shape[0]))
    slices = -(-grid.n_points // reconstruct._SLICE)
    assert built == []
    assert calls["growth"] == stacks == 1
    assert slices < calls["reconstruct"] <= slices + 255
    rec = json.loads((tmp_path / "report.json").read_text())["reconstruction"]
    assert len(rec["carved"]) == 256 and rec["estimated_cells"] == 66
