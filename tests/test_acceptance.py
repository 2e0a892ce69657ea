"""Acceptance battery: one test per built-in verification check.

Each test runs the corresponding check through verify.run_all, as
`minwork verify` does, at its pinned tolerances and prints the
pass/fail line, so ``pytest -v -s`` doubles as the human readable
report. Parameters are fixed (lam=0.15, seed=0) to match the reference
values frozen inside the checks.
"""

import numpy as np

from minwork import verify
from minwork.chain import decompose_dagger_policy


def _run(spec, cid):
    (r,) = verify.run_all(spec, seed=0, lam=0.15, only=[cid])
    print(r.line())
    assert r.cid == cid and r.passed, r.line()
    return r


def test_c01_threshold_rate_table(spec5):
    _run(spec5, "C1")


def test_c02_maximal_service_rate(spec5):
    _run(spec5, "C2")


def test_c03_frontier_breakpoints(spec5):
    _run(spec5, "C3")


def test_c04_lp_matches_hull(spec5):
    _run(spec5, "C4")


def test_c05_floor_continuity(spec5):
    _run(spec5, "C5")


def test_c06_extraction_round_trip(spec5):
    _run(spec5, "C6")


def test_c07_two_threshold_decomposition(spec5):
    _run(spec5, "C7")


def test_c07_covers_a_fraction_at_the_bottom_state(spec5):
    # at seed 0, C7 draws a policy randomizing at (1, A) with rest above
    # it, T = 0, which mixes always-rest with threshold 2, and passes
    rng = np.random.default_rng(0)
    policies = [verify._random_dagger_policy(rng, 5) for _ in range(verify.DECOMPOSITION_POLICIES)]
    bottom = [phi for phi in policies if 0.0 < phi.work_prob[0] < 1.0 and not phi.work_prob[1:].any()]
    assert bottom and all(decompose_dagger_policy(spec5, phi)[:2] == (1, 2) for phi in bottom)
    _run(spec5, "C7")


def test_c08_potential_identity(spec5):
    _run(spec5, "C8")


def test_c09_synthesis_meets_gap(spec5):
    _run(spec5, "C9")


def test_c10_truncation_convergence(spec5):
    _run(spec5, "C10")


def test_c11_simulation_agreement(spec5):
    _run(spec5, "C11")
