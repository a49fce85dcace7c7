import math

import numpy as np
import pytest

from realpw import make_grid, sample_builtin, growth, verify
from realpw.verify import (verify_corpus, acceptance_corpus, run_matrix, matrix_failed,
                           CorpusMember, check_limit_vs_R, check_liminf, check_raster,
                           check_cauchy_bound, aligned_h, PROPERTIES)
from realpw.grid import SampledFunction, FREQUENCY
from realpw.poly import family_explicit, parse_poly
from realpw.reconstruct import local_spectrum_raster
from realpw.transform import (Spectrum, SpatialStep, compute_R, eval_entire,
                              supporting_function)


def test_aligned_h_places_edge_between_cells():
    M = 1024
    h = aligned_h(M, 1.0, 8)
    dlam = 2 * np.pi / (M * h)
    assert 8.5 * dlam == pytest.approx(1.0, rel=1e-12)


def under_resolved_member():
    """Sharp spatial bump: its spectrum reaches the Nyquist shells."""
    grid = make_grid(1, 256, 0.1)
    f = sample_builtin({"kind": "spatial_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]},
                        "edge_width": 0.15}, grid)
    return CorpusMember("under-resolved", f, family_explicit([parse_poly("x1", 1)]), (2,))


def test_under_resolved_rows_are_skipped():
    member = under_resolved_member()
    status, detail = check_limit_vs_R(member, n_max=16)
    assert status == "skip"
    assert "boundary" in detail
    status, _ = check_liminf(member, n_max=16)
    assert status == "skip"


def test_matrix_reports_skip_not_fail():
    matrix = run_matrix(members=[under_resolved_member()], n_max=16)
    assert not matrix_failed(matrix)
    assert matrix["limit_vs_R"]["under-resolved"][0] == "skip"


def test_badly_aligned_member_fails_matrix():
    # unaligned support edge leaves a barely-weighted boundary cell: the
    # limit visibly undershoots R at n=64 and the matrix must say so
    grid = make_grid(1, 1024, 0.05)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
    member = CorpusMember("unaligned", f, family_explicit([parse_poly("x1", 1)]), (2,))
    matrix = run_matrix(members=[member], properties={"limit_vs_R": check_limit_vs_R})
    assert matrix["limit_vs_R"]["unaligned"][0] == "fail"
    assert matrix_failed(matrix)


def test_spectrum_built_once_per_member(monkeypatch):
    built = []
    of = Spectrum.of.__func__

    def counting_of(cls, f, *args):
        if not isinstance(f, Spectrum):
            built.append(f)
        return of(cls, f, *args)

    monkeypatch.setattr(Spectrum, "of", classmethod(counting_of))
    members = verify_corpus()
    matrix = run_matrix(members=members, n_max=16)
    assert len(built) == len(members)
    assert len(matrix) == len(PROPERTIES) and all(len(row) == 3 for row in matrix.values())


def test_one_spatial_pass_per_member(monkeypatch):
    passes, calls, steps = [], [], []
    spatial_norms, ratios, step = verify.spatial_norms, growth.symbol_ratios, SpatialStep.__call__

    def counting_norms(spec, polys, n_max, norms):
        passes.append([P.to_text() for P in polys])
        return spatial_norms(spec, polys, n_max, norms)

    def counting_ratios(*args):
        calls.append(args[1])
        return ratios(*args)

    def counting_step(self, G):
        steps.append(len(G) if G.ndim == 2 else 1)     # a d = 1 chunk, or one row
        return step(self, G)

    monkeypatch.setattr(verify, "spatial_norms", counting_norms)
    monkeypatch.setattr(growth, "symbol_ratios", counting_ratios)
    monkeypatch.setattr(SpatialStep, "__call__", counting_step)
    members = verify_corpus()
    run_matrix(members=members, n_max=16)
    # every row, cauchy_bound and raster_radius too, reads the members'
    # ledgers, from one pass over all of a member's polys
    assert passes == [[P.to_text() for P in m.polys] for m in members]
    # each real P on a real input steps g_(n-1) and g_n in one transform: 8
    # rows for those 4 (member, P), 16 for the other 4 (the offset interval's
    # complex input, the interval's complex P); the intervals (M = 512) step
    # 8 rows per call, the ball row by row
    assert sum(steps) == 8 * 4 + 16 * 4 == 96
    assert growth.CHUNK_MAX_POINTS // 512 == 8
    assert len(steps) == 2 * 1 + 4 * 2 + 2 * 8
    for log in (passes, calls, steps):
        log.clear()
    for member in members:
        assert member.ledgers(16) is member.ledgers(16)
    assert passes == calls == steps == []


def test_under_resolved_member_steps_for_the_2_norms_only(monkeypatch):
    # no row reads an unresolved member's sequences or rtilde rows: its one
    # pass reads only the spatial 2-norms, of every P, and plancherel reads
    # polys[0]'s; each P steps 16 unpaired transforms in one d = 1 chunk
    steps, step = [], SpatialStep.__call__

    def counting_step(self, G):
        steps.append(len(G) if G.ndim == 2 else 1)     # a d = 1 chunk, or one row
        return step(self, G)

    monkeypatch.setattr(SpatialStep, "__call__", counting_step)
    member = CorpusMember("under-resolved", under_resolved_member().f,
                          family_explicit([parse_poly("x1", 1), parse_poly("x1^2", 1)]), (2,))
    matrix = run_matrix(members=[member], n_max=16)
    assert (sum(steps), len(steps)) == (2 * 16, 2)
    assert {name: row[member.name] for name, row in matrix.items()} == {
        "limit_vs_R": ("skip", "mask touches the frequency boundary"),
        "liminf": ("skip", "mask touches the frequency boundary"),
        "plancherel": ("pass", "worst rel diff 2.46e-16"),
        "rtilde_vs_R": ("skip", "mask touches the frequency boundary"),
        "raster_radius": ("pass", "raster max modulus equals R bit-exactly"),
        "fd_oracle": ("skip", "input occupies more than a quarter of the Nyquist band"),
        "cauchy_bound": ("skip", "needs a resolved non-empty mask"),
    }
    ledgers = member.ledgers(16)
    spat, freq = ledgers.plancherel
    assert (ledgers.sequences, ledgers.rtilde, spat.size, freq.size) == ([], [], 16, 16)
    assert ledgers.R == [compute_R(P, member.spec.mask).value for P in member.polys]


def test_each_symbol_evaluated_once_per_ledger_build(monkeypatch):
    evaluated, eval_symbol_many = [], growth.eval_symbol_many

    def counting_eval(family, lams):      # one block per stack, a row per member
        evaluated.extend(P.to_text() for P in family)
        return eval_symbol_many(family, lams)

    monkeypatch.setattr(growth, "eval_symbol_many", counting_eval)
    members = verify_corpus()
    for member in members:
        member.ledgers(16)
    assert sorted(evaluated) == sorted(P.to_text() for m in members for P in m.polys)


def test_cauchy_without_an_x1_inf_ledger_skips():
    f = verify_corpus()[0].f
    member = CorpusMember("no x1 at p = inf", f, family_explicit([parse_poly("x1", 1)]), (1, 2))
    assert check_cauchy_bound(member, 16) == ("skip", "needs an (x1, p = inf) ledger")


def reference_cauchy_lhs(member, n_top=20):
    """log ||d^n f||_inf, n <= n_top, from a spatial pass of x1 of its own."""
    ((R, _, (top,)),) = growth.spatial_norms(
        member.spec, family_explicit([parse_poly("x1", 1)]), n_top, [(np.inf, 0)])
    return [n * np.log(R) + math.log(top_n) for n, top_n in enumerate(top, start=1)]


def reference_cauchy_bound(member, n_top=20):
    """check_cauchy_bound as it read before the ledgers: its own x1 pass."""
    spec = member.spec
    H1 = supporting_function(spec.coords, np.array([1.0]))
    Hm1 = supporting_function(spec.coords, np.array([-1.0]))
    Hsym = max(H1, Hm1)
    F = SampledFunction(spec.grid, FREQUENCY, spec.F)
    zs = [x + 1j * t for x in (0.0, 0.7, -1.3, 3.1) for t in (0.0, 1.0, -2.0, 5.0, -10.0, 20.0)]
    C = 0.0
    for z, Fz in zip(zs, eval_entire(F, np.array(zs)[:, None])):
        C = max(C, abs(Fz) / math.exp(H1 * max(z.imag, 0.0) + Hm1 * max(-z.imag, 0.0)))
    for n, lhs in enumerate(reference_cauchy_lhs(member, n_top), start=1):
        rhs = (math.log(C) + math.lgamma(n + 1) + n - n * math.log(n)
               + n * math.log(Hsym))
        if lhs > rhs:
            return ("fail", f"violated at n={n}: lhs-rhs={lhs - rhs:.3e} (log)")
    return ("pass", f"holds for n <= {n_top} with C={C:.4g}")


def reference_raster(member):
    """check_raster as it read before the ledgers: R from compute_R."""
    mask = member.spec.mask
    for P in member.polys:
        R, _ = compute_R(P, mask)
        ras = local_spectrum_raster(P, mask)
        if ras.max_modulus != R:
            return ("fail", f"raster max {ras.max_modulus!r} != R {R!r} for {P}")
    return ("pass", "raster max modulus equals R bit-exactly")


@pytest.mark.parametrize("corpus", [verify_corpus, acceptance_corpus])
def test_cauchy_and_raster_read_the_ledgers_as_their_own_passes(corpus):
    x1 = parse_poly("x1", 1)
    for member in (m for m in corpus() if m.f.grid.d == 1):
        (seq,) = [s for s in member.ledgers(64).sequences if s.P == x1 and np.isinf(s.p)]
        assert seq.L[:20].tobytes() == np.array(reference_cauchy_lhs(member)).tobytes()
        assert check_cauchy_bound(member, 64) == reference_cauchy_bound(member)
        assert check_raster(member, 64) == reference_raster(member)
        status, detail = check_cauchy_bound(member, 16)
        assert status == "pass" and detail.startswith("holds for n <= 16 with C=")


def test_fd_oracle_stays_off_blas(monkeypatch):
    # np.linalg.norm of a complex vector is a BLAS dot, which wakes the BLAS
    # threads of a process that did not pin them; the row sums instead, and
    # its details keep the digits np.linalg.norm gave them
    def linalg_norm_row(member):
        worst = 0.0
        for P in member.polys:
            g_spec, S = growth.apply_op_spectral(member.spec, P, 1)
            spec_vals = np.exp(S) * g_spec.values
            fd_vals = growth.apply_op_fd(member.f, P, 8).values
            denom = np.linalg.norm(spec_vals)
            worst = max(worst, float(np.linalg.norm(fd_vals - spec_vals) / denom))
        return ("pass" if worst <= 1e-6 else "fail", f"worst rel diff {worst:.2e}")

    members = verify_corpus()
    want = [linalg_norm_row(m) for m in members]

    def no_blas(*args, **kwargs):
        raise AssertionError("check_fd_oracle called np.linalg.norm")

    monkeypatch.setattr(np.linalg, "norm", no_blas)
    assert [verify.check_fd_oracle(m) for m in members] == want
    assert [status for status, _ in want] == ["pass"] * 3
