"""Monte-Carlo simulator and the two stationary oracles: queue-capped and QBD."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minwork.chain import service_rate, threshold_policy
from minwork.frontier import policy_from_occupation, solve_lp
from minwork.model import (
    Action,
    Availability,
    NumericalFailure,
    PolicyX,
    PolicyY,
    ServerSpec,
    SystemState,
    x_transition,
)
from minwork.sim import (
    SimConfig,
    TabularPolicyX,
    TruncatedPMF,
    _capped_chain,
    hitting_time_stats,
    qbd_stationary,
    simulate,
    truncated_service_rate,
    truncated_stationary,
    truncated_stationary_auto,
    truncated_utilization,
)
from minwork.synthesis import lift_policy

A = Availability.A
B = Availability.B


def _theta5():
    return lift_policy(threshold_policy(5, 5))


def test_tabular_policy_validation():
    good = np.zeros((3, 2, 2))
    good[1:, 1] = 1.0
    good[1, 0] = [0.5, 0.25]
    good[2, 0] = [1.0, 0.0]
    pol = TabularPolicyX(good)
    assert pol.work_prob(1, A, 0) == 0.0
    assert pol.work_prob(1, A, 1) == 0.5
    assert pol.work_prob(1, A, 7) == 1.0  # clamped to the last level

    bad = good.copy()
    bad[0, 0, 1] = 0.3  # must rest on an empty queue
    with pytest.raises(ValueError):
        TabularPolicyX(bad)
    bad = good.copy()
    bad[2, 1, 0] = 0.9  # busy states must work
    with pytest.raises(ValueError):
        TabularPolicyX(bad)
    with pytest.raises(ValueError):
        TabularPolicyX(np.zeros((2, 3, 2)))


def test_sim_config_validation():
    cfg = SimConfig(horizon=1000)
    assert cfg.burn_in == 100
    assert cfg.initial_state == SystemState(1, A, 0)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, burn_in=100)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, replications=0)


def test_simulation_is_reproducible(spec5):
    cfg = SimConfig(horizon=20000, replications=2, seed=42)
    r1 = simulate(spec5, 0.15, _theta5(), cfg)
    r2 = simulate(spec5, 0.15, _theta5(), cfg)
    assert r1.empirical_utilization == r2.empirical_utilization
    np.testing.assert_array_equal(r1.rep_service_rate, r2.rep_service_rate)
    r3 = simulate(spec5, 0.15, _theta5(), SimConfig(horizon=20000, replications=2, seed=43))
    assert r1.empirical_utilization != r3.empirical_utilization


def test_replications_use_distinct_streams(spec5):
    res = simulate(spec5, 0.15, _theta5(), SimConfig(horizon=20000, replications=3, seed=0))
    assert len(set(res.rep_utilization.tolist())) == 3


def test_always_rest_grows_linearly(spec5):
    lam = 0.3
    horizon = 20000
    res = simulate(spec5, lam, lift_policy(threshold_policy(5, 1)), SimConfig(horizon=horizon, seed=3))
    assert res.empirical_utilization == 0.0
    assert res.empirical_service_rate == 0.0
    # queue is a pure Bernoulli(lam) counting process; its time average
    # over the counted window sits near lam * (horizon + burn) / 2
    expect = lam * (horizon + horizon // 10) / 2
    assert res.queue_mean == pytest.approx(expect, rel=0.1)
    assert res.queue_max >= res.queue_mean


def test_simulation_matches_oracle(spec5):
    lam = 0.15
    theta = _theta5()
    res = simulate(spec5, lam, theta, SimConfig(horizon=300000, replications=4, seed=11))
    pmf = qbd_stationary(spec5, lam, theta)
    assert abs(res.empirical_utilization - pmf.utilization) < 5 * res.utilization_se
    assert abs(res.empirical_service_rate - lam) < 5 * res.service_rate_se
    # empirical y-marginal restricted to busy steps tracks the oracle
    np.testing.assert_allclose(res.y_marginal, pmf.y_marginal, atol=0.01)
    assert res.y_marginal.sum() == pytest.approx(1 - res.empty_queue_fraction, abs=1e-12)


def test_truncated_stationary_invariants(spec5):
    lam = 0.15
    theta = _theta5()
    pmf = truncated_stationary(spec5, lam, theta, 1024)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert pmf.balance_residual < 1e-9
    assert pmf.tail_mass < 1e-10
    # completions balance arrivals when the tail is negligible
    assert truncated_service_rate(spec5, pmf, theta) == pytest.approx(lam, abs=1e-9)
    assert pmf.empty_mass() > 0.0
    assert pmf.queue_marginal().sum() == pytest.approx(1.0, abs=1e-10)
    assert pmf.y_totals().sum() == pytest.approx(1.0, abs=1e-10)
    assert pmf.y_marginal().sum() == pytest.approx(1.0 - pmf.empty_mass(), abs=1e-10)
    assert pmf.mass(1, A, 0) > 0.0


def test_truncated_auto_doubles_until_tail_clears(spec5):
    pmf = truncated_stationary_auto(spec5, 0.15, _theta5(), q_max=64, tail_tol=1e-10)
    assert pmf.tail_mass < 1e-10
    assert pmf.q_max > 64  # 64 is far too small at this load
    cap_ran_out = r"truncation cap q_cap=256 ran out: tail mass .* above tail_tol=1e-10 at q_max=256"
    with pytest.raises(NumericalFailure, match=cap_ran_out):
        # an unstable policy cannot clear the tail no matter the cap
        truncated_stationary_auto(
            spec5, 0.15, lift_policy(threshold_policy(5, 2)), q_max=64, q_cap=256
        )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_capped_chain_matches_x_transition(data):
    # the vectorized kernel against one built state by state from the
    # full chain's one-step PMF; at q_max arrivals are blocked, so those
    # outcomes drop out and the rest is renormalized by 1 / (1 - lam)
    n = data.draw(st.integers(2, 6))
    unit = st.floats(0.01, 0.99)
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
        rho_down=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    lam = data.draw(unit)
    work = st.one_of(st.just(0.0), st.just(1.0), unit)
    if data.draw(st.booleans()):
        theta = PolicyX(PolicyY(np.array(data.draw(st.lists(work, min_size=n, max_size=n)))))
    else:
        levels = data.draw(st.integers(1, 3))
        tbl = np.zeros((levels + 1, 2, n))
        tbl[1:, 1] = 1.0
        tbl[1:, 0] = np.reshape(data.draw(st.lists(work, min_size=levels * n, max_size=levels * n)), (levels, n))
        theta = TabularPolicyX(tbl)
    q_max = data.draw(st.sampled_from([2, 3, 7]))

    size = n * (1 + 2 * q_max)
    index = TruncatedPMF(n_s=n, q_max=q_max, probs=np.zeros(size), tail_mass=0.0, balance_residual=0.0).index
    expect = {}
    for q in range(q_max + 1):
        for w in (A,) if q == 0 else (A, B):
            for s in range(1, n + 1):
                p = theta.work_prob(s, w, q)
                for a, weight in ((Action.WORK, p), (Action.REST, 1.0 - p)):
                    if weight == 0.0:
                        continue
                    for y, mass in x_transition(spec, lam, SystemState(s, w, q), a).items():
                        if q == q_max:
                            if y.q - q + (a == Action.WORK and y.w == A) == 1:
                                continue  # an arrival
                            mass /= 1.0 - lam
                        key = (index(s, w, q), index(y.s, y.w, y.q))
                        expect[key] = expect.get(key, 0.0) + weight * mass

    rows, cols, vals = _capped_chain(spec, lam, theta, q_max)
    got = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    assert len(got) == vals.size  # no duplicate entries
    assert got.keys() == expect.keys()
    keys = sorted(expect)
    np.testing.assert_allclose([got[k] for k in keys], [expect[k] for k in keys], rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_qbd_matches_truncated(data):
    # at light load a fixed cap leaves a negligible tail, so the capped
    # chain and the matrix-geometric solution of the uncapped one agree
    n = data.draw(st.integers(2, 5))
    unit = st.floats(0.05, 0.95)
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
        rho_down=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    work = [data.draw(st.floats(0.05, 1.0))] + data.draw(
        st.lists(st.one_of(st.just(0.0), st.just(1.0), unit), min_size=n - 1, max_size=n - 1)
    )
    phi = PolicyY(np.array(work))
    lam = data.draw(st.floats(0.1, 0.5)) * service_rate(spec, phi)
    assume(lam > 1e-3)
    theta = lift_policy(phi)
    capped = truncated_stationary(spec, lam, theta, 300)
    assume(capped.tail_mass < 1e-13)

    exact = qbd_stationary(spec, lam, theta)
    assert exact.utilization == pytest.approx(truncated_utilization(capped, theta), abs=1e-10)
    assert exact.service_rate == pytest.approx(truncated_service_rate(spec, capped, theta), abs=1e-10)
    np.testing.assert_allclose(exact.y_marginal, capped.y_marginal(), rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(exact.pi0, capped.probs[:n], rtol=0.0, atol=1e-10)
    queue = capped.queue_marginal()
    assert exact.mean_queue == pytest.approx(queue @ np.arange(queue.size), abs=1e-10)
    assert 0.0 < exact.tail_decay < 1.0


def test_qbd_matches_truncated_at_c10_rates(spec5):
    # the five LP targets of check C10, where the truncated oracle needs
    # q_max up to 8192 and the tail falls by sp(R) ~ 0.999 per level
    lam = 0.15
    for nu in (0.25, 0.20, 0.17, 0.16, 0.155):
        phi = policy_from_occupation(solve_lp(spec5, nu, 1e-3).measure)
        theta = lift_policy(phi)
        capped = truncated_stationary_auto(spec5, lam, theta)
        exact = qbd_stationary(spec5, lam, theta)
        assert abs(exact.utilization - truncated_utilization(capped, theta)) <= 1e-10
        assert np.abs(exact.y_marginal - capped.y_marginal()).sum() <= 1e-10
        assert exact.service_rate == pytest.approx(lam, abs=1e-9)
        assert exact.empty_mass() == pytest.approx(capped.empty_mass(), abs=1e-12)


def test_qbd_rejects_queue_dependent_policy(spec5):
    tbl = np.zeros((3, 2, 5))
    tbl[1:, 1] = 1.0
    tbl[2, 0] = 1.0
    with pytest.raises(ValueError, match="lifted policy"):
        qbd_stationary(spec5, 0.15, TabularPolicyX(tbl))
    with pytest.raises(ValueError):
        qbd_stationary(spec5, 1.0, _theta5())


def test_qbd_tail_level_is_smallest_clearing_level(spec5):
    # the level search against a walk over levels
    pmf = qbd_stationary(spec5, 0.15, lift_policy(threshold_policy(5, 3)))
    at_or_above = np.linalg.solve(np.eye(10) - pmf.R, np.ones(10))
    above, v = [], pmf.pi1
    for _ in range(400):
        above.append(v @ at_or_above)  # mass above level len(above)
        v = v @ pmf.R
    for tol in (1e-3, 1e-6, 1e-10):
        k, mass = pmf.tail_level(tol)
        assert above[k] < tol <= above[k - 1]
        assert mass == pytest.approx(above[k], rel=1e-12)
    assert pmf.tail_level(1.0) == (1, pytest.approx(above[1], rel=1e-12))


def test_qbd_raises_on_unstable_policy(spec5):
    # tau = 2 serves below lam = 0.15: there is no stationary law
    with pytest.raises(NumericalFailure):
        qbd_stationary(spec5, 0.15, lift_policy(threshold_policy(5, 2)))


def test_truncated_rejects_tiny_qmax(spec5):
    with pytest.raises(ValueError):
        truncated_stationary(spec5, 0.15, _theta5(), 1)


def test_queue_dependent_policy_transient_band(spec5):
    # working only once q >= 3 makes q = 0 and q = 1 transient: service
    # happens at q >= 3 only, so the queue never drains below 2; the
    # oracle must still find the unique stationary PMF
    n = 5
    tbl = np.zeros((4, 2, n))
    tbl[1:, 1] = 1.0
    tbl[3, 0] = [1.0, 1.0, 1.0, 1.0, 0.0]  # tau=5 profile, gated on the queue
    lazy = TabularPolicyX(tbl)
    pmf = truncated_stationary_auto(spec5, 0.1, lazy)
    assert truncated_service_rate(spec5, pmf, lazy) == pytest.approx(0.1, abs=1e-8)
    qm = pmf.queue_marginal()
    assert pmf.empty_mass() == 0.0
    assert qm[1] == 0.0
    assert qm[2] > 0.5
    assert 0.0 < truncated_utilization(pmf, lazy) < 1.0


def test_kac_return_time(spec5):
    # mean recurrence time of a state is the inverse of its stationary
    # mass
    lam = 0.15
    theta = _theta5()
    target = SystemState(1, A, 0)
    stats = hitting_time_stats(spec5, lam, theta, target, SimConfig(horizon=200000, replications=2, seed=5))
    expect = 1.0 / qbd_stationary(spec5, lam, theta).pi0[0]
    assert not stats.censored
    assert stats.count > 1000
    assert stats.mean == pytest.approx(expect, rel=0.1)
    assert stats.min_time >= 1
    assert stats.max_time >= stats.min_time


def test_trace_semantics(spec5):
    cfg = SimConfig(horizon=500, burn_in=0, replications=1, seed=9, trace=True)
    res = simulate(spec5, 0.3, _theta5(), cfg)
    t = res.trace
    assert t.shape == (500, 7)
    k, s, w, q, work, arrival, done = t.T
    assert np.array_equal(k, np.arange(500))
    assert np.all((s >= 1) & (s <= 5))
    assert np.all((w == 0) | (w == 1))
    assert np.all(done <= work)
    assert np.all(work[q == 0] == 0)
    # queue recursion: next q = q - done + arrival
    np.testing.assert_array_equal(q[1:], q[:-1] - done[:-1] + arrival[:-1])
    # availability recursion: busy iff worked without completing
    np.testing.assert_array_equal(w[1:], work[:-1] & ~done[:-1].astype(bool))


def test_trace_disabled_by_default(spec5):
    res = simulate(spec5, 0.15, _theta5(), SimConfig(horizon=1000))
    assert res.trace is None


def test_simulate_pinned_outputs(spec5):
    # figures recorded before the two simulators shared one step loop;
    # the draw order fixes them exactly
    cfg = SimConfig(horizon=3000, burn_in=300, replications=2, seed=7, trace=True)
    res = simulate(spec5, 0.2, _theta5(), cfg)
    assert res.rep_utilization.tolist() == [0.57, 0.6777777777777778]
    assert res.rep_service_rate.tolist() == [0.18925925925925927, 0.20222222222222222]
    assert res.y_marginal.tolist() == [
        0.005740740740740741, 0.03574074074074074, 0.04462962962962963, 0.10925925925925926,
        0.07185185185185185, 0.030740740740740742, 0.03611111111111111, 0.1025925925925926,
        0.11351851851851852, 0.14555555555555555,
    ]
    trace = np.ascontiguousarray(res.trace, dtype="<i8")
    assert trace.shape == (6000, 7)
    assert trace[:3].tolist() == [[0, 1, 0, 0, 0, 1, 0], [1, 1, 0, 1, 1, 0, 0], [2, 1, 1, 1, 1, 0, 0]]
    assert trace[-1].tolist() == [2999, 4, 0, 23, 1, 1, 1]
    assert trace.sum(axis=0).tolist() == [8997000, 20269, 2514, 44731, 3671, 1180, 1157]
    assert hashlib.sha256(trace.tobytes()).hexdigest() == (
        "2c42701d8f69b4191cee80b5f3c87fc8444f91678243393cfe798c998041c5e9"
    )


def test_hitting_time_pinned_outputs(spec5):
    tbl = np.zeros((4, 2, 5))
    tbl[1:, 1] = 1.0
    tbl[1:3, 0] = [0.5, 0.5, 0.5, 0.5, 0.0]
    tbl[3, 0] = [1.0, 1.0, 1.0, 1.0, 0.0]
    cfg = SimConfig(horizon=50000, replications=2, seed=5)
    stats = hitting_time_stats(spec5, 0.15, TabularPolicyX(tbl), SystemState(3, A, 2), cfg)
    assert (stats.mean, stats.count, stats.censored, stats.min_time, stats.max_time) == (
        51.51006711409396, 1937, False, 1, 1461,
    )
    cfg = SimConfig(horizon=50000, replications=2, seed=3)
    stats = hitting_time_stats(spec5, 0.15, _theta5(), SystemState(2, B, 1), cfg)
    assert (stats.mean, stats.count, stats.censored, stats.min_time, stats.max_time) == (
        29.34977973568282, 3405, False, 1, 555,
    )
