"""estimate_limits, the one limit estimator: against the scalar estimate_limit
it replaced, on synthetic ledgers, and called once per stack and length; the
ledgers and the weighted sup-norm reports against the short-ledger fallbacks
each kept before one path served both."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpw import (estimate_limits, estimate_limit, GrowthSequence, GrowthError,
                    LimitEstimate, PointwiseGrowthReport, Spectrum, family_explicit,
                    family_quadratic_real,
                    growth_sequences, make_grid, parse_poly, reconstruct_support,
                    sample_builtin)
from realpw import growth
from realpw.verify import acceptance_corpus


def reference_estimate(L) -> LimitEstimate:
    """estimate_limit as it was before estimate_limits: one ledger, scalar
    window statistics."""
    L = np.asarray(L, dtype=float)
    n_max = L.size
    n = np.arange(1, n_max + 1)
    roots = np.exp(L / n)
    tail_w = max(4, n_max // 4)
    tail_roots = roots[-tail_w:]
    spread = float(tail_roots.max() - tail_roots.min())
    secondary = float(np.exp(L[-1] - L[-2]))
    steps = np.diff(L)
    ns = n[1:]
    keep = ns >= max(n_max // 4, 2)
    rw, nw = steps[keep], ns[keep]
    k = len(rw) // 3
    k -= k % 2
    if k < 2:
        k = max(len(rw) // 3, 1)
    wins = [(rw[-3 * k:-2 * k], nw[-3 * k:-2 * k]),
            (rw[-2 * k:-k], nw[-2 * k:-k]),
            (rw[-k:], nw[-k:])]
    med = [float(np.median(w[0])) for w in wins]
    invn = [float(np.mean(1.0 / w[1])) for w in wins]
    pair = rw[:-1] + rw[1:]
    scatter = float(np.median(np.abs(pair - np.median(pair)))) if pair.size else 0.0
    if scatter > 0.5:
        primary, regime = float(np.median(tail_roots)), "noisy-tail-median"
    else:
        d21, d32 = med[1] - med[0], med[2] - med[1]
        if abs(d32) <= 0.35 * abs(d21) or abs(d21) < 1e-12:
            primary, regime = float(np.exp(med[2])), "geometric"
        else:
            a = (med[2] * invn[0] - med[0] * invn[2]) / (invn[0] - invn[2])
            primary, regime = float(np.exp(a)), "richardson"
    return LimitEstimate(primary, secondary, regime, tail_w, spread, abs(primary - secondary))


def reference_sequence(S, norms):
    """(L, roots, steps, limit, secondary, regime, tail_window, spread,
    truncated_at) of a row of terms S_n and norms as one ledger was built
    before GrowthSequence.from_rows."""
    bad = ~((norms > 0.0) & np.isfinite(norms))
    k = int(bad.argmax()) if bad.any() else norms.size
    L = S[:k] + np.log(norms[:k])
    if L.size == 0:
        return L, L, L, 0.0, 0.0, "zero", 0, 0.0, 1
    roots = np.exp(L / np.arange(1, L.size + 1))
    steps = np.exp(np.diff(L)) if L.size > 1 else np.array([])
    truncated_at = k + 1 if k < norms.size else None
    if L.size >= 8:
        e = reference_estimate(L)
        return (L, roots, steps, e.limit, e.secondary, e.regime, e.tail_window, e.spread,
                truncated_at)
    return (L, roots, steps, float(roots[-1]), float(roots[-1]), "truncated", L.size,
            float(roots.max() - roots.min()), truncated_at)


def reference_pointwise(N, S, norms):
    """(log_W, rtilde, regime, admissible) of a row of terms S_n and norms
    as PointwiseGrowthReport.from_row built them with its own estimator call
    and its own short-row fallback."""
    bad = ~((norms > 0.0) & np.isfinite(norms))
    k = int(bad.argmax()) if bad.any() else norms.size
    log_W = S[:k] + np.log(norms[:k])
    if not log_W.size:
        return log_W, 0.0, "zero", True
    est = reference_estimate(log_W) if log_W.size >= 8 else None
    rtilde = est.limit if est else float(np.exp(log_W[-1] / log_W.size))
    regime = est.regime if est else "truncated"
    n = np.arange(1, log_W.size + 1)
    ratio = log_W - N * np.log(n) - n * np.log(max(rtilde, 1e-300))
    q = max(2, log_W.size // 4)
    trend = float(np.mean(np.diff(ratio[-q:]))) if log_W.size > q else 0.0
    return log_W, float(rtilde), regime, bool(np.isfinite(rtilde) and trend <= 0.01)


def fingerprint(est):
    return (est.limit.hex(), est.secondary.hex(), est.spread.hex(), est.gap.hex(),
            est.regime, est.tail_window)


# One synthetic ledger: n log R + N log n + C, a parity term a (-1)^n, a
# geometric transient b q^n and Gaussian noise of scale s.  Noise of scale 3
# makes a noisy tail, N = 0 a geometric one and N > 0 a 1/n one.
LEDGER = st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                   st.floats(-20.0, 20.0), st.sampled_from([0.0, 1e-3, 0.05, 0.7, 2.0]),
                   st.floats(-5.0, 5.0), st.floats(0.05, 0.95),
                   st.sampled_from([0.0, 0.0, 1e-9, 0.1, 3.0]))


def synthetic(params, n_max, rng):
    n = np.arange(1, n_max + 1)
    logR, N, C, a, b, q, s = params
    return (n * logR + N * np.log(n) + C + a * (-1.0) ** n + b * q ** n
            + s * rng.standard_normal(n_max))


class TestMatchesScalarEstimator:
    @settings(max_examples=300, deadline=None)
    @given(n_max=st.integers(8, 300), ledgers=st.lists(LEDGER, min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_is_float_hex_equal(self, n_max, ledgers, seed):
        rng = np.random.default_rng(seed)
        L = np.array([synthetic(params, n_max, rng) for params in ledgers])
        got = estimate_limits(L)
        assert len(got) == len(ledgers)
        for row, est in zip(L, got):
            assert fingerprint(est) == fingerprint(reference_estimate(row))
            assert type(est.limit) is float and type(est.regime) is str

    @settings(max_examples=150, deadline=None)
    @given(n_max=st.integers(8, 300),
           rows=st.lists(st.tuples(LEDGER, st.floats(0.0, 1.2), st.sampled_from([0.0, -1.0])),
                         min_size=1, max_size=10),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ragged_stack_through_from_rows(self, n_max, rows, seed):
        # each row is cut at its own place (past n_max: not cut), by a 0 or a
        # negative norm, so one stack holds ledgers of several lengths, some
        # too short to estimate and some empty; three more rows of the first
        # ledger are cut to 0, 1 and 2 terms
        rng = np.random.default_rng(seed)
        member, n = family_explicit([parse_poly("x1", 1)]), np.arange(1, n_max + 1)
        stack, terms = [], []
        cuts = [(params, int(cut * n_max), bad) for params, cut, bad in rows]
        for params, at, bad in cuts + [(rows[0][0], k, 0.0) for k in (0, 1, 2)]:
            R = math.exp(params[0])
            S = n * np.log(R)
            norms = np.exp(synthetic(params, n_max, rng) - S)
            norms[at:at + 1] = bad
            stack.append((member, 2, R, norms, 0))
            terms.append(S)
        seqs = list(GrowthSequence.from_rows(stack, n_max, True))
        assert len(seqs) == len(stack)
        assert [seq.L.size for seq in seqs[-3:]] == [0, 1, 2]
        for (_, _, R, norms, _), S, seq in zip(stack, terms, seqs):
            L, roots, steps, limit, secondary, regime, tail_w, spread, truncated_at = \
                reference_sequence(S, norms)
            assert seq.L.tobytes() == L.tobytes() and seq.roots.tobytes() == roots.tobytes()
            assert seq.roots.shape == roots.shape and seq.step_factors.shape == steps.shape
            assert seq.step_factors.tobytes() == steps.tobytes()
            assert seq.norms.tobytes() == norms[:L.size].tobytes()
            assert ((seq.limit.hex(), seq.secondary.hex(), seq.spread.hex())
                    == (limit.hex(), secondary.hex(), spread.hex()))
            assert (seq.regime, seq.tail_window, seq.truncated_at, seq.R) == \
                (regime, tail_w, truncated_at, R)

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(0, 40), params=LEDGER, N=st.integers(0, 4),
           cut=st.one_of(st.none(), st.floats(0.0, 1.0)), bad=st.sampled_from([0.0, -1.0]),
           mode=st.sampled_from(["growth", "decay"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_pointwise_rows_match_their_own_fallback(self, size, params, N, cut, bad, mode,
                                                     seed):
        # rows of 0 to 40 terms, some cut by a 0 or a negative value: the
        # weighted sup-norm report reads its limit through the ledgers' path
        rng = np.random.default_rng(seed)
        S = np.arange(1, size + 1) * np.log(1.5)
        norms = np.exp(synthetic(params, size, rng) - S)
        if cut is not None:
            norms[int(cut * size):int(cut * size) + 1] = bad
        rep = PointwiseGrowthReport.from_row(N, mode, 1.5, norms)
        log_W, rtilde, regime, admissible = reference_pointwise(N, S, norms)
        assert rep.log_W.tobytes() == log_W.tobytes() and rep.log_W.size == log_W.size
        assert (rep.rtilde.hex(), rep.regime, rep.admissible) == (rtilde.hex(), regime, admissible)
        assert type(rep.rtilde) is float and (rep.N, rep.mode, rep.R) == (N, mode, 1.5)

    def test_stack_longer_than_one_pass(self):
        # 300 rows in one call
        rng = np.random.default_rng(1)
        L = np.array([synthetic((rng.uniform(-3, 3), rng.choice([0.0, 2.5]), rng.uniform(-20, 20),
                                 rng.choice([0.0, 0.7]), rng.uniform(-5, 5), rng.uniform(0.05, 0.95),
                                 rng.choice([0.0, 3.0])), 97, rng) for _ in range(300)])
        assert ([fingerprint(est) for est in estimate_limits(L)]
                == [fingerprint(reference_estimate(row)) for row in L])

    def test_the_generator_reaches_every_regime(self):
        rng = np.random.default_rng(0)
        regimes = {reference_estimate(synthetic(params, 64, rng)).regime
                   for params in [(1.0, 0.0, 0.0, 0.0, 3.0, 0.5, 0.0),
                                  (1.0, 2.5, 0.0, 0.7, 0.0, 0.5, 0.0),
                                  (1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 3.0)]}
        assert regimes == {"geometric", "richardson", "noisy-tail-median"}

    def test_one_row_wrapper_and_errors(self):
        n = np.arange(1, 65)
        L = n * np.log(2.0) + 5 * np.log(n)
        assert estimate_limit(L) == estimate_limits(L[None])[0] == estimate_limits([L])[0]
        assert estimate_limits(np.empty((0, 16))) == []
        for bad in (L[:7][None], L, L[None, None]):
            with pytest.raises(GrowthError):
                estimate_limits(bad)
        with pytest.raises(GrowthError):
            estimate_limits(np.vstack([L, np.where(n == 30, np.inf, L)]))
        with pytest.raises(GrowthError):
            estimate_limit(L[None])


def test_synthetic_ledgers_within_the_claimed_error():
    # 3 000 ledgers n log R + N log n + C plus parity a (-1)^n, n_max = 64,
    # one call.  Half carry no parity; the rest an amplitude log-uniform in
    # [1e-3, 1].  Measured worst errors: 0.22% without parity, 0.64% with
    # N <= 3 and 0.855% at N = 4, where an even window's two middle values
    # come from odd and even n and the 1/n trend between them leaks in.
    rng = np.random.default_rng(0)
    count, n = 3000, np.arange(1, 65)
    logR, N, C = rng.uniform(-3, 3, count), rng.uniform(0, 4, count), rng.uniform(-10, 10, count)
    parity = np.where(rng.random(count) < 0.5, 0.0, 10 ** rng.uniform(-3, 0, count))
    L = (np.outer(logR, n) + np.outer(N, np.log(n)) + C[:, None]
         + np.outer(parity, (-1.0) ** n))
    limits = np.array([est.limit for est in estimate_limits(L)])
    err = np.abs(limits / np.exp(logR) - 1.0)
    assert err[parity == 0].max() <= 0.0025
    assert err[N <= 3].max() <= 0.007
    assert err.max() <= 0.009


class TestOneCallPerLength:
    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        batch = growth.estimate_limits

        def counted(L):
            shapes.append(np.shape(L))
            return batch(L)

        def scalar(L):
            raise AssertionError("a ledger builder called estimate_limit")

        monkeypatch.setattr(growth, "estimate_limits", counted)
        monkeypatch.setattr(growth, "estimate_limit", scalar)
        return shapes

    def test_two_box_reconstruct_of_256_members(self, calls):
        member = acceptance_corpus()[4]
        grid, spec = member.f.grid, Spectrum.of(member.f)
        assert grid.n_points // spec.coords.shape[0] >= 256      # one stack
        cvals = (np.arange(16) - 7) * (63 * grid.dlam / 8)
        fam = family_quadratic_real([np.array([a, b]) for a in cvals for b in cvals], grid)
        res = reconstruct_support(spec, fam, 2, 200)
        assert len(res.limits) == 256 and not res.excluded_members
        assert calls == [(256, 200)]

    def test_one_call_for_a_family_of_three_stacks(self, calls):
        # 12 members go through the symbol in stacks of 5, 5 and 2, and
        # their ledgers of one length through one estimate_limits call
        grid = make_grid(1, 64, 0.5)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
        spec = Spectrum.of(f)
        size = grid.n_points // spec.coords.shape[0]
        family = family_quadratic_real(np.linspace(-1.0, 1.0, 12)[:, None], grid)
        assert size == 5
        for p in (2, 1):
            calls.clear()
            seqs = growth_sequences(spec, family, p, 64)
            assert [s.L.size for s in seqs] == [64] * 12
            assert calls == [(12, 64)]

    def test_one_call_per_length(self, calls):
        # rows cut by a zero norm at 20 and 5, and an empty one: one call for
        # the two ledgers of 64 terms, one for the ledger of 20, none for the
        # rest
        member, n = family_explicit([parse_poly("x1", 1)]), np.arange(1, 65)
        rows = []
        for cut in (64, 20, 64, 0, 5):
            norms = np.exp(-np.sqrt(n))
            norms[cut:] = 0.0
            rows.append((member, 2, 1.5, norms, 0))
        seqs = list(GrowthSequence.from_rows(rows, 64, True))
        assert [s.L.size for s in seqs] == [64, 20, 64, 0, 5]
        assert [s.regime for s in seqs][3:] == ["zero", "truncated"]
        assert calls == [(1, 20), (2, 64)]
