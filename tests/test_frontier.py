"""Hull construction, the occupation LP, and extraction round trips.

The LP and the hull are independent routes to the same boundary; their
agreement at eps = 0 is the main cross-check.
"""

import hashlib
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from minwork.chain import max_service_rate, service_rate, stationary_pmf_y, utilization_rate_y
from minwork.frontier import (
    MASS_TOL,
    Frontier,
    NotStabilizableError,
    OccupationMeasure,
    _lower_chord,
    _lp_blocks,
    frontier,
    infimum_utilization,
    lower_convex_hull,
    occupation_from_policy,
    policy_from_occupation,
    solve_lp,
)
from minwork.model import NumericalFailure, PolicyY, ServerSpec, _kernel_matrices
from minwork.simplex import solve_simplex
from minwork.verify import run_all

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


@pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
def test_frontier_rejects_non_finite_rates(spec5, nu):
    with pytest.raises(ValueError, match="outside"):
        frontier(spec5)(nu)


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


@pytest.mark.parametrize("nu_bar, eps", [(np.nan, 1e-3), (np.inf, 1e-3), (0.2, np.nan)])
def test_lp_rejects_non_finite_arguments(spec5, nu_bar, eps):
    with pytest.raises(ValueError, match="must"):
        solve_lp(spec5, nu_bar, eps)


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


def test_policy_from_occupation_floors_the_share_at_eps(spec5):
    # a floor-eps LP can hold the (1, A) share at exactly eps, and the
    # division alone then rounds below it, outside Phi_R^eps
    eps, rest = 0.1, 0.27051692705010644
    work = eps / (1.0 - eps) * rest
    assert work / (work + rest) < eps
    m = OccupationMeasure(
        work_a=np.array([work, 0.03125]), rest_a=np.array([rest, 0.96875]), work_b=np.array([0.2, 0.1]), floor=eps
    )
    phi = policy_from_occupation(m)
    assert phi.work_prob.tolist() == [eps, 0.03125]  # the floor binds at (1, A) only
    assert phi.in_phi_r_eps(eps)
    assert solve_lp(spec5, 0.25, 1e-3).measure.floor == 1e-3


def test_infimum_utilization(spec5):
    f = frontier(spec5)
    assert infimum_utilization(spec5, 0.15) == pytest.approx(f(0.15), abs=1e-12)
    with pytest.raises(NotStabilizableError):
        infimum_utilization(spec5, 0.3)
    with pytest.raises(NotStabilizableError):
        infimum_utilization(spec5, 0.4)
    with pytest.raises(ValueError):
        infimum_utilization(spec5, 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_infimum_utilization_rejects_non_finite_rates(spec5, lam):
    with pytest.raises(ValueError, match="finite") as info:
        infimum_utilization(spec5, lam)
    assert type(info.value) is ValueError  # not NotStabilizableError, which the CLI maps to exit 3


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


def test_lower_chord_range_ends_and_ties():
    # points (rate, cost) = (a / b, c / b); dyadic data keep every chord
    # value exact, so the ties below are ties in floating point too
    a, b, c = np.array([1.0, 2.0]), np.ones(2), np.array([1.0, 3.0])
    assert _lower_chord(a, b, c, 1.5).tolist() == [0.5, 0.5]
    assert _lower_chord(a, b, c, 1.0).tolist() == [1.0, 0.0]  # a point at the target
    # within MASS_TOL past an end the target snaps to it; beyond, infeasible
    assert _lower_chord(a, b, c, 2.0 + 0.5 * MASS_TOL).tolist() == [0.0, 1.0]
    assert _lower_chord(a, b, c, 1.0 - 0.5 * MASS_TOL).tolist() == [1.0, 0.0]
    assert _lower_chord(a, b, c, 2.0 + 2.0 * MASS_TOL) is None
    assert _lower_chord(a, b, c, 1.0 - 2.0 * MASS_TOL) is None
    # four collinear points: every pair across 1.5 costs 1.5, and the
    # first in (i, j) order, i at or left of the target, j at or right, wins
    a = np.array([0.0, 1.0, 2.0, 3.0])
    assert _lower_chord(a, np.ones(4), a, 1.5).tolist() == [0.25, 0.0, 0.75, 0.0]
    # b rescales a column's point and its weight alike
    b = np.array([2.0, 1.0, 4.0, 1.0])
    assert _lower_chord(a * b, b, a * b, 1.5).tolist() == [0.125, 0.0, 0.1875, 0.0]


def _enumerated_lp(spec, nu_bar, eps):
    """The condensed LP by brute force: its floor substituted into the
    rest column (dropped at eps = 1), then every single column and every
    column pair's 2 x 2 system of the service-rate and mass rows, solved
    and kept where nonnegative. Returns the least value (None if no
    candidate is kept) and the range [min, max] of the columns' rates."""
    rows, cost, _, _ = _lp_blocks(spec)
    n = spec.n_s
    a, b, c = rows[0].copy(), rows[1].copy(), cost.copy()
    if eps == 1.0:
        a, b, c = a[:n], b[:n], c[:n]
    else:
        k = eps / (1.0 - eps)
        a[n] += k * a[0]
        b[n] += k * b[0]
        c[n] += k * c[0]
    values = [c[j] / b[j] for j in range(a.size) if abs(a[j] / b[j] - nu_bar) <= 1e-12]
    for i in range(a.size):
        for j in range(i + 1, a.size):
            try:
                x = np.linalg.solve([[a[i], a[j]], [b[i], b[j]]], [nu_bar, 1.0])
            except np.linalg.LinAlgError:
                continue
            if x.min() >= 0.0:
                values.append(c[i] * x[0] + c[j] * x[1])
    rates = a / b
    return (min(values) if values else None), (rates.min(), rates.max())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lp_matches_vertex_enumeration(data):
    # an independent route to the same optimum on random models: with two
    # rows an optimal vertex has at most two nonzero columns, so the least
    # of all one- and two-column solutions is the LP's value; feasibility
    # is compared outside the MASS_TOL band at the ends of the rate range,
    # where solve_lp snaps the target to the end
    n = data.draw(st.integers(1, 30))
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(st.floats(0.02, 0.95), min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(st.floats(0.02, 0.5), min_size=n - 1, max_size=n - 1))),
        rho_down=np.array(data.draw(st.lists(st.floats(0.02, 0.5), min_size=n - 1, max_size=n - 1))),
    )
    eps = data.draw(st.one_of(st.sampled_from([0.0, 1e-4, 0.3, 1.0]), st.floats(0.0, 1.0)))
    nu = data.draw(st.floats(0.0, 1.2)) * max_service_rate(spec)[0]
    res = solve_lp(spec, nu, eps)
    best, (lo, hi) = _enumerated_lp(spec, nu, eps)
    if min(abs(nu - lo), abs(nu - hi)) > 1e-9:
        assert res.feasible == (best is not None)
    if res.feasible and best is not None:
        assert abs(res.value - best) <= 1e-11


def _random_spec(rng, n):
    return ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )


def test_frontier_on_large_random_models():
    # 40-state models whose threshold chains hold masses down to 1e-33
    n = 40
    for seed in (0, 1, 2):
        spec = _random_spec(np.random.default_rng(seed), n)
        f = frontier(spec)
        assert f.nu_star == pytest.approx(max_service_rate(spec)[0], abs=1e-12)
        assert f.breakpoints[0] == (0.0, 0.0)


PINNED_LP_OUTCOMES = {"feasible": 240, "infeasible": 0, "raised": 0}
PINNED_LP_DIGEST = "2c4355907e2d9c9c9aec07699a8a73a257838de0a859e99993026dc7758c36cf"


def test_solve_lp_pinned_outputs():
    # Every bit of every answer is pinned: feasibility, value and the three
    # measure arrays, for two seeded models per n_s = 2..6 at 8 service
    # rates and 3 floors, raising cases by exception type and message. A
    # change to the LP's rows or to the arithmetic of its solve changes
    # the digest and has to re-record it on purpose.
    h = hashlib.sha256()
    outcomes = {"feasible": 0, "infeasible": 0, "raised": 0}
    raised = []
    for n in range(2, 7):
        rng = np.random.default_rng([2024, n])
        for _ in range(2):
            spec = _random_spec(rng, n)
            nu_star = max_service_rate(spec)[0]
            hull = frontier(spec)
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
                    # no answer lies below the hull: a floor only raises it
                    assert res.value >= hull(float(frac * nu_star)) - 1e-9
                    if res.measure is not None:
                        for arr in (res.measure.work_a, res.measure.rest_a, res.measure.work_b):
                            h.update(arr.tobytes())
    assert outcomes == PINNED_LP_OUTCOMES
    assert raised == []
    assert h.hexdigest() == PINNED_LP_DIGEST


def _full_rows(spec, nu_bar):
    """The occupation LP with the busy states kept: cost, equality rows
    and rhs over [work_a | rest_a | work_b], 3 n_s variables and 2 n_s + 2
    rows (service rate, mass one, stationarity per reduced state)."""
    n = spec.n_s
    pw, pr = _kernel_matrices(spec)
    c = np.concatenate([np.ones(n), np.zeros(n), np.ones(n)])
    out_mass = np.eye(2 * n, 3 * n, k=n)
    out_mass[:n, :n] = np.eye(n)
    a_eq = np.vstack([
        np.concatenate([spec.mu, np.zeros(n), spec.mu]),
        np.ones(3 * n),
        out_mass - np.hstack([pw[:n].T, pr[:n].T, pw[n:].T]),
    ])
    b_eq = np.zeros(2 * n + 2)
    b_eq[:2] = nu_bar, 1.0
    return c, a_eq, b_eq


def _full_lp(spec, nu_bar, eps):
    """The full LP's value, its floor substituted as solve_lp does it for
    eps < 1 and its answer clipped at zero and audited as solve_lp audits
    its measure; None where the simplex raises or ends other than
    optimal, or the answer misses a row by more than MASS_TOL."""
    c, a_eq, b_eq = _full_rows(spec, nu_bar)
    n, k = spec.n_s, eps / (1.0 - eps)
    c_sub, a_sub = c.copy(), a_eq.copy()
    c_sub[n] += k * c[0]
    a_sub[:, n] += k * a_sub[:, 0]
    try:
        res = solve_simplex(c_sub, A_eq=a_sub, b_eq=b_eq)
    except NumericalFailure:
        return None
    if not res.optimal:
        return None
    x = np.clip(res.x, 0.0, None)
    x[0] += k * x[n]
    if np.max(np.abs(a_eq @ x - b_eq)) > MASS_TOL:
        return None
    return float(c @ x)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_condensed_lp_matches_full_lp(data):
    # dropping the busy states' variables and the rest above s = 1 is
    # exact: the condensed LP's measure is feasible for the full LP, its
    # value is the full LP's, and at eps = 0 that of the hull
    n = data.draw(st.integers(2, 6))
    unit = st.floats(0.1, 0.9)
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
        rho_down=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    f = frontier(spec)
    nu = float(data.draw(st.floats(0.2, 0.99)) * f.nu_star)
    eps = data.draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    res = solve_lp(spec, nu, eps)
    assert res.feasible
    m = res.measure
    x = np.concatenate([m.work_a, m.rest_a, m.work_b])
    _, a_eq, b_eq = _full_rows(spec, nu)
    assert np.max(np.abs(a_eq @ x - b_eq)) <= 1e-9
    assert x.min() >= 0.0 and (1.0 - eps) * x[0] >= eps * x[n] * (1.0 - 1e-12)
    full = _full_lp(spec, nu, eps)
    if full is not None:
        # Where the full LP reaches its optimum the two agree. A full value
        # below the condensed one would be a better point and fails; one
        # above it is beaten by the condensed measure, feasible for the
        # full LP, so there the dense tableau stopped short of its optimum
        # (seen at n_s = 6, 0.23 above it: the simplex fault).
        assert res.value <= full + 1e-9
    if eps == 0.0:
        assert res.value == pytest.approx(f(nu), abs=1e-9)


@pytest.mark.parametrize("n", range(6, 11))
def test_lp_answers_the_random_model_table(n):
    # 10 random models per n_s, 8 rates and 3 floors: every LP answers,
    # at the hull at eps = 0 and at or above it with a floor, and at
    # n_s <= 8 HiGHS agrees on the full 3 n_s-variable LP with its floor
    # passed as the raw inequality
    rng = np.random.default_rng([2026, n])
    for _ in range(10):
        spec = _random_spec(rng, n)
        f = frontier(spec)
        for frac in np.linspace(0.1, 0.95, 8):
            nu = float(frac * f.nu_star)
            c, a_eq, b_eq = _full_rows(spec, nu)
            for eps in (0.0, 1e-4, 1e-2):
                res = solve_lp(spec, nu, eps)
                assert res.feasible
                if eps == 0.0:
                    assert abs(res.value - f(nu)) <= 1e-9
                else:
                    assert res.value >= f(nu) - 1e-9
                if n <= 8:
                    floor = np.zeros((1, 3 * n))
                    floor[0, [0, n]] = eps - 1.0, eps
                    highs = linprog(c, A_ub=floor, b_ub=[0.0], A_eq=a_eq, b_eq=b_eq, method="highs")
                    assert highs.status == 0 and abs(res.value - highs.fun) <= 1e-9


def test_lp_blocks_are_model_constants(spec5):
    # built once per spec and kept read-only on it; N mu = 1, so the
    # service-rate row is the work mass at the available states
    blocks = _lp_blocks(spec5)
    assert all(a is b for a, b in zip(_lp_blocks(spec5), blocks))
    rows, cost, rest_map, busy = blocks
    for arr in blocks:
        assert not arr.flags.writeable
    n = spec5.n_s
    pw, _ = _kernel_matrices(spec5)
    n_inv = np.linalg.inv(np.eye(n) - pw[:n, n:])
    assert np.all(n_inv >= 0.0)
    np.testing.assert_allclose(n_inv @ spec5.mu, np.ones(n), rtol=1e-13)
    np.testing.assert_allclose(busy, pw[:n, n:] @ n_inv, rtol=1e-13, atol=1e-16)
    # rho_down(s) rest_a[s] = work_a tail[:, s], tail[:, s] the sum of the
    # columns s' >= s of NV - I; work never lowers the activity state, so
    # tail is nonnegative and zero where the job starts at s or above
    tail = np.cumsum((n_inv @ pw[:n, :n] - np.eye(n))[:, ::-1], axis=1)[:, ::-1]
    np.testing.assert_allclose(rest_map * spec5.rho_down[1:], tail[:, 1:], rtol=1e-13, atol=1e-15)
    assert np.all(rest_map >= 0.0) and not np.any(np.tril(rest_map, -1))
    # rows over [work_a | rest at s = 1]: service rate and total mass;
    # the cost is the work mass
    assert rows.shape == (2, n + 1) and cost.shape == (n + 1,)
    np.testing.assert_array_equal(rows[0], np.append(np.ones(n), 0.0))
    np.testing.assert_allclose(rows[1], np.append(n_inv.sum(axis=1) + rest_map.sum(axis=1), 1.0), rtol=1e-13)
    np.testing.assert_allclose(cost, np.append(n_inv.sum(axis=1), 0.0), rtol=1e-13)
    # the rest rebuilt from any work vector, with any rest at s = 1 (a
    # self-loop), balances every state of the full measure
    rng = np.random.default_rng(7)
    for _ in range(20):
        work_a = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < 0.6)
        rest_a = np.concatenate([rng.uniform(0.0, 1.0, 1), work_a @ rest_map])
        m = OccupationMeasure(work_a=work_a, rest_a=rest_a, work_b=work_a @ busy)
        assert m.flow_residual(spec5) <= 1e-13
    assert "_lp_blocks" not in vars(pickle.loads(pickle.dumps(spec5)))


@pytest.mark.parametrize("flow_audit", [True, False])
def test_lp_blocks_mutation_fails_verify(spec5, monkeypatch, flow_audit):
    # The LP and the hull are the deliberate redundancy: the LP's points
    # come from _lp_blocks' flux identities, the hull's from stationary
    # solves of the threshold chains. A tail shifted by one column fails
    # C4-C6 through solve_lp's flow audit, and with that audit switched
    # off C4 still fails on the LP's distance from the hull, and C6 on
    # the extracted policy's rates
    good_blocks = _lp_blocks

    def shifted(spec):
        # the flux across boundary s taken as the one across s - 1: the
        # rest map and the mass row it feeds are wrong, the service-rate
        # row and the cost right
        rows, cost, rest_map, busy = good_blocks(spec)
        n = spec.n_s
        tail = np.hstack([np.zeros((n, 1)), rest_map * spec.rho_down[1:]])
        rest_map = tail[:, :-1] / spec.rho_down[1:]
        rows = rows.copy()
        rows[1, :n] = cost[:n] + rest_map.sum(axis=1)
        return rows, cost, rest_map, busy

    module = sys.modules["minwork.frontier"]
    monkeypatch.setattr(module, "_lp_blocks", shifted)
    if not flow_audit:
        monkeypatch.setattr(OccupationMeasure, "flow_residual", lambda self, spec: 0.0)
    results = {r.cid: r for r in run_all(spec5, only=["C4", "C5", "C6"])}
    if flow_audit:
        for r in results.values():
            assert not r.passed and "occupation LP audit: flow residual" in r.detail
    else:
        assert not results["C4"].passed and results["C4"].values["max_gap"] > 1e-3
        assert not results["C6"].passed and results["C6"].values["nu_err"] > 1e-3


@pytest.mark.parametrize(
    "nu_bar, scale, quantity",
    [
        (0.22, (1.0 + 1e-6, 1.0), "flow residual"),
        (0.22, (1.0, 1.0 + 1e-6), "service-rate residual"),
        (0.0, (1.0, 1.0 + 1e-6), "mass residual"),
    ],
)
def test_lp_audit_names_the_broken_identity(spec5, monkeypatch, nu_bar, scale, quantity):
    # scale multiplies (the rest map, the chord solve's answer). Rest
    # above s = 1 off by 1e-6 breaks flow balance, which no answer can:
    # every work vector balances with its rebuilt rest. A whole answer
    # off by 1e-6 breaks the service rate, or at nu_bar = 0, where all
    # mass rests, the mass alone; solve_lp names the identity
    good_blocks, good_chord = _lp_blocks, _lower_chord

    def blocks(spec):
        rows, cost, rest_map, busy = good_blocks(spec)
        return rows, cost, rest_map * scale[0], busy

    def perturbed(*args):
        return good_chord(*args) * scale[1]

    # the package exports a function named frontier, so fetch the module
    module = sys.modules["minwork.frontier"]
    monkeypatch.setattr(module, "_lp_blocks", blocks)
    monkeypatch.setattr(module, "_lower_chord", perturbed)
    with pytest.raises(NumericalFailure, match=rf"occupation LP audit: {quantity} .* exceeds {MASS_TOL:g}"):
        solve_lp(spec5, nu_bar, 0.0)
