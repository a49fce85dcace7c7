import numpy as np
import pytest

from realpw import make_grid, sample_builtin, growth, verify
from realpw.verify import (verify_corpus, run_matrix, matrix_failed,
                           CorpusMember, check_limit_vs_R, check_liminf,
                           aligned_h, PROPERTIES)
from realpw.poly import parse_poly
from realpw.transform import Spectrum, SpatialStep


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
    return CorpusMember("under-resolved", f, (parse_poly("x1", 1),), (2,))


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
    member = CorpusMember("unaligned", f, (parse_poly("x1", 1),), (2,))
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


def test_one_spatial_pass_per_member_and_poly(monkeypatch):
    passes, calls, steps = [], [], []
    spatial_norms, iterates, step = verify.spatial_norms, growth.iterates, SpatialStep.__call__

    def counting_norms(spec, polys, n_max, norms):
        for P, out in zip(polys, spatial_norms(spec, polys, n_max, norms)):
            passes.append(P.to_text())
            yield out

    def counting_iterates(*args):
        calls.append(args[1])
        return iterates(*args)

    def counting_step(self, G):
        steps.append(G.shape)
        return step(self, G)

    monkeypatch.setattr(verify, "spatial_norms", counting_norms)
    monkeypatch.setattr(growth, "iterates", counting_iterates)
    monkeypatch.setattr(SpatialStep, "__call__", counting_step)
    members = verify_corpus()
    run_matrix(members=members, n_max=16)
    # cauchy_bound's own pass: x1 on each d = 1 member, for n <= 20
    cauchy = ["1.0*x1"] * sum(m.f.grid.d == 1 for m in members)
    assert sorted(passes) == sorted([P.to_text() for m in members for P in m.polys] + cauchy)
    assert len(steps) == 16 * sum(len(m.polys) for m in members) + 20 * len(cauchy)
    for log in (passes, calls, steps):
        log.clear()
    for member in members:
        assert member.ledgers(16) is member.ledgers(16)
    assert passes == calls == steps == []
