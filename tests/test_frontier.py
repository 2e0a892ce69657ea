"""Hull construction, the occupation LP, and extraction round trips.

The LP and the hull are independent routes to the same boundary; their
agreement at eps = 0 is the main cross-check.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minwork.chain import max_service_rate, service_rate, stationary_pmf_y, utilization_rate_y
from minwork.frontier import (
    Frontier,
    NotStabilizableError,
    OccupationMeasure,
    frontier,
    infimum_utilization,
    lower_convex_hull,
    occupation_from_policy,
    policy_from_occupation,
    solve_lp,
)
from minwork.model import PolicyY, ServerSpec

BREAKPOINTS = (
    (0.0, 0.0),
    (0.19929742388758798, 0.4309133489461357),
    (0.3, 0.857142857142857),
)


def test_hull_basic():
    pts = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.1), (1.0, 0.5)]
    assert lower_convex_hull(pts) == [(0.0, 0.0), (0.5, 0.1), (1.0, 0.5)]


def test_hull_drops_collinear_and_duplicates():
    pts = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.5, 0.9)]
    assert lower_convex_hull(pts) == [(0.0, 0.0), (1.0, 1.0)]
    assert lower_convex_hull([(0.3, 0.2)]) == [(0.3, 0.2)]
    with pytest.raises(ValueError):
        lower_convex_hull([])


def test_frontier_breakpoints(spec5):
    f = frontier(spec5)
    assert len(f.breakpoints) == 3
    for (x, y), (rx, ry) in zip(f.breakpoints, BREAKPOINTS):
        assert x == pytest.approx(rx, abs=1e-12)
        assert y == pytest.approx(ry, abs=1e-12)
    assert f.nu_star == pytest.approx(0.3, abs=1e-12)
    assert f.u_star == pytest.approx(6 / 7, abs=1e-12)


def test_frontier_interpolation(spec5):
    f = frontier(spec5)
    assert f(0.0) == 0.0
    assert f(0.3) == pytest.approx(6 / 7, abs=1e-12)
    assert f(0.15) == pytest.approx(0.32432432432432395, abs=1e-11)
    assert f(0.25) == pytest.approx(0.6455149501661125, abs=1e-11)
    with pytest.raises(ValueError):
        f(0.31)
    with pytest.raises(ValueError):
        f(-0.01)


def test_frontier_sample_is_convex_nondecreasing(spec5):
    xs = frontier(spec5).sample(101)
    dy = np.diff(xs[:, 1])
    dx = np.diff(xs[:, 0])
    slopes = dy / dx
    assert np.all(dy >= -1e-12)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_lp_matches_hull_at_eps_zero(spec5):
    # the two routes are implemented independently; this is the tight
    # agreement the rest of the package leans on
    f = frontier(spec5)
    for nu in np.linspace(0.0, f.nu_star, 21):
        res = solve_lp(spec5, float(nu), 0.0)
        assert res.feasible
        assert res.value == pytest.approx(f(float(nu)), abs=1e-9)


def test_lp_values_frozen(spec5):
    assert solve_lp(spec5, 0.3, 0.0).value == pytest.approx(6 / 7, abs=1e-11)
    assert solve_lp(spec5, 0.25, 0.0).value == pytest.approx(0.6455149501661125, abs=1e-11)
    assert solve_lp(spec5, 0.0, 0.0).value == pytest.approx(0.0, abs=1e-12)


def test_lp_infeasible_beyond_best_rate(spec5):
    res = solve_lp(spec5, 0.35, 1e-3)
    assert not res.feasible
    assert res.value == np.inf
    assert res.measure is None


def test_lp_measure_invariants(spec5):
    res = solve_lp(spec5, 0.22, 1e-4)
    m = res.measure
    assert m.total_mass == pytest.approx(1.0, abs=1e-9)
    assert m.flow_residual(spec5) < 1e-9
    assert m.service_rate(spec5) == pytest.approx(0.22, abs=1e-9)
    assert m.utilization() == pytest.approx(res.value, abs=1e-12)
    # utilization dominates the service rate since mu < 1
    assert res.value >= 0.22 - 1e-12
    d = m.as_dict()
    assert len(d) == 3 * spec5.n_s
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


def test_lp_monotone_in_eps_where_floor_binds(spec5):
    # on the first hull segment the floor constraint is active, so the
    # value must grow with eps
    values = [solve_lp(spec5, 0.155, e).value for e in (0.0, 1e-5, 1e-3, 1e-2, 1e-1)]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    assert values[-1] > values[0]


def test_lp_eps_floor_reaches_extraction(spec5):
    for eps in (1e-1, 1e-3, 1e-6):
        res = solve_lp(spec5, 0.155, eps)
        phi = policy_from_occupation(res.measure)
        assert phi.in_phi_r_eps(eps * (1 - 1e-9))


def test_lp_validates_arguments(spec5):
    with pytest.raises(ValueError):
        solve_lp(spec5, 0.2, -0.1)
    with pytest.raises(ValueError):
        solve_lp(spec5, 0.2, 1.1)
    with pytest.raises(ValueError):
        solve_lp(spec5, -0.2, 0.0)


def test_eps_one_forbids_resting_at_bottom(spec5):
    res = solve_lp(spec5, 0.25, 1.0)
    assert res.feasible
    assert res.measure.rest_a[0] == pytest.approx(0.0, abs=1e-12)


def test_extraction_round_trip(spec5):
    res = solve_lp(spec5, 0.25, 1e-3)
    phi = policy_from_occupation(res.measure)
    pi = stationary_pmf_y(spec5, phi)
    assert service_rate(spec5, phi, pi) == pytest.approx(0.25, abs=1e-8)
    assert utilization_rate_y(spec5, phi, pi) == pytest.approx(res.value, abs=1e-8)
    # and back: the induced measure reproduces the LP measure
    m2 = occupation_from_policy(spec5, phi)
    np.testing.assert_allclose(m2.work_a, res.measure.work_a, atol=1e-8)
    np.testing.assert_allclose(m2.rest_a, res.measure.rest_a, atol=1e-8)
    np.testing.assert_allclose(m2.work_b, res.measure.work_b, atol=1e-8)


def test_policy_from_occupation_rest_free_state():
    # no rest mass at a state means the extracted policy works there
    m = OccupationMeasure(
        work_a=np.array([0.2, 0.3]), rest_a=np.array([0.0, 0.1]), work_b=np.array([0.2, 0.2])
    )
    phi = policy_from_occupation(m)
    np.testing.assert_allclose(phi.work_prob, [1.0, 0.75])


def test_infimum_utilization(spec5):
    f = frontier(spec5)
    assert infimum_utilization(spec5, 0.15) == pytest.approx(f(0.15), abs=1e-12)
    with pytest.raises(NotStabilizableError):
        infimum_utilization(spec5, 0.3)
    with pytest.raises(NotStabilizableError):
        infimum_utilization(spec5, 0.4)
    with pytest.raises(ValueError):
        infimum_utilization(spec5, 0.0)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lp_hull_agreement_random_specs(data):
    n = data.draw(st.integers(2, 3))
    unit = st.floats(0.1, 0.9)
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1)) + [0.0]),
        rho_down=np.array([0.0] + data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    f = frontier(spec)
    for frac in (0.25, 0.7, 1.0):
        nu = frac * f.nu_star
        res = solve_lp(spec, float(nu), 0.0)
        assert res.feasible
        assert res.value == pytest.approx(f(float(nu)), abs=1e-8)


def _random_spec(rng, n):
    return ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )


def test_frontier_on_large_random_models():
    # 40-state models whose stationary solves leave round-off entries of
    # a few 1e-15 below zero; they are clipped, not rejected
    n = 40
    for seed in (0, 1, 2):
        spec = _random_spec(np.random.default_rng(seed), n)
        f = frontier(spec)
        assert f.nu_star == pytest.approx(max_service_rate(spec)[0], abs=1e-12)
        assert f.breakpoints[0] == (0.0, 0.0)


PINNED_LP_OUTCOMES = {"feasible": 232, "infeasible": 1, "raised": 7}
PINNED_LP_DIGEST = "73cbbe33278463af570febb79f34c198bcee5b3e0224f51acad47c0a13eaadbd"


def test_solve_lp_pinned_outputs():
    # Every bit of every answer is pinned: feasibility, value and the three
    # measure arrays, for two seeded models per n_s = 2..6 at 8 service
    # rates and 3 floors, raising cases by exception type and message (the
    # seven at n_s = 6 are the simplex fault of the dense tableau).
    # The digest was recorded on the commit before the simplex priced on
    # Python floats and pivoted by one rank-1 update, and holds on both; a
    # change to the pivot sequence (such as a simplex that refactors its
    # basis) changes it and has to re-record it on purpose.
    h = hashlib.sha256()
    outcomes = {"feasible": 0, "infeasible": 0, "raised": 0}
    raised = []
    for n in range(2, 7):
        rng = np.random.default_rng([2024, n])
        for _ in range(2):
            spec = _random_spec(rng, n)
            nu_star = max_service_rate(spec)[0]
            for frac in np.linspace(0.1, 0.95, 8):
                for eps in (0.0, 1e-4, 1e-2):
                    try:
                        res = solve_lp(spec, float(frac * nu_star), eps)
                    except Exception as exc:  # noqa: BLE001 - pinned like any answer
                        outcomes["raised"] += 1
                        raised.append((type(exc).__name__, str(exc)))
                        h.update(repr(raised[-1]).encode())
                        continue
                    outcomes["feasible" if res.feasible else "infeasible"] += 1
                    h.update(repr(res.feasible).encode())
                    h.update(np.float64(res.value).tobytes())
                    if res.measure is not None:
                        for arr in (res.measure.work_a, res.measure.rest_a, res.measure.work_b):
                            h.update(arr.tobytes())
    assert outcomes == PINNED_LP_OUTCOMES
    assert raised[0] == ("NumericalFailure", "simplex solution has negative entry -7.599e-03")
    assert raised[-1] == ("NumericalFailure", "simplex equality residual 2.281e-02")
    assert h.hexdigest() == PINNED_LP_DIGEST
