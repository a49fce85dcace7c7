"""Every bench workload's outputs at seeds 0-4 against tests/golden.json
(see tests/golden.py, which regenerates it): masks, regimes, cuts, check
figures, exit codes and verify statuses exactly, limits and R within 1e-12
relative."""

import json

import pytest

from golden import GOLDEN, SEEDS, outputs

REL = 1e-12


@pytest.fixture(scope="module")
def runs():
    return json.loads(GOLDEN.read_text()), outputs()


def close(a, b) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def test_the_file_covers_every_workload_and_seed(runs):
    golden, now = runs
    assert sorted(golden) == sorted(now) == ["estimate-corpus", "reconstruct-twobox",
                                             "verify-matrix"]
    for workload in golden:
        assert sorted(golden[workload]) == sorted(now[workload]) == [str(s) for s in SEEDS]


def test_estimate_rows(runs):
    golden, now = runs
    for seed, jobs in golden["estimate-corpus"].items():
        assert sorted(now["estimate-corpus"][seed]) == sorted(jobs) and len(jobs) == 18
        for name, ref in jobs.items():
            new = now["estimate-corpus"][seed][name]
            assert new["exit"] == ref["exit"] and len(new["rows"]) == len(ref["rows"])
            for a, b in zip(new["rows"], ref["rows"]):
                assert {k: v for k, v in a.items() if k not in ("R", "limit")} == {
                    k: v for k, v in b.items() if k not in ("R", "limit")}, (seed, name)
                assert close(a["R"], b["R"]) and close(a["limit"], b["limit"]), (seed, name, a)


def test_reconstruct_masks_and_limits(runs):
    golden, now = runs
    for seed, jobs in golden["reconstruct-twobox"].items():
        ref, new = jobs["reconstruct"], now["reconstruct-twobox"][seed]["reconstruct"]
        assert {k: v for k, v in new.items() if k != "limits"} == {
            k: v for k, v in ref.items() if k != "limits"}, seed
        assert len(new["limits"]) == len(ref["limits"]) == 256
        assert all(close(a, b) for a, b in zip(new["limits"], ref["limits"])), seed


def test_verify_statuses(runs):
    golden, now = runs
    for seed, jobs in golden["verify-matrix"].items():
        assert now["verify-matrix"][seed] == jobs, seed
