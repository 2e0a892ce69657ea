"""Acceptance battery: one test per built-in verification check.

Each test runs the corresponding check through verify.run_all, as
`minwork verify` does, at its pinned tolerances and prints the
pass/fail line, so ``pytest -v -s`` doubles as the human readable
report. Parameters are fixed (lam=0.15, seed=0) to match the reference
values frozen inside the checks.
"""

from minwork import verify


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


def test_c08_potential_identity(spec5):
    _run(spec5, "C8")


def test_c09_synthesis_meets_gap(spec5):
    _run(spec5, "C9")


def test_c10_truncation_convergence(spec5):
    _run(spec5, "C10")


def test_c11_simulation_agreement(spec5):
    _run(spec5, "C11")
