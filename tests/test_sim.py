"""Monte-Carlo simulator and the two stationary oracles: queue-capped and QBD."""

import functools
import hashlib
import re
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_chain import classes_by_search, reach_by_search, stationary_by_class

from minwork import sim
from minwork.chain import max_service_rate, service_rate, threshold_policy
from minwork.frontier import NotStabilizableError, policy_from_occupation, solve_lp
from minwork.model import (
    Action,
    Availability,
    NumericalFailure,
    PolicyX,
    PolicyY,
    ServerSpec,
    SystemState,
    x_transition,
    y_state,
)
from minwork.sim import (
    SimConfig,
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


def test_rejects_a_policy_for_another_spec(spec5):
    theta = lift_policy(threshold_policy(4, 3))
    cfg = SimConfig(horizon=100)
    runs = [
        lambda: qbd_stationary(spec5, 0.15, theta),
        lambda: truncated_stationary(spec5, 0.15, theta, 8),
        lambda: simulate(spec5, 0.15, theta, cfg),
        lambda: hitting_time_stats(spec5, 0.15, theta, SystemState(1, A, 0), cfg),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="policy table does not match spec"):
            run()


def test_sim_config_validation():
    cfg = SimConfig(horizon=1000)
    assert cfg.burn_in == 100
    assert cfg.initial_state == SystemState(1, A, 0)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, burn_in=100)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, replications=0)
    # each used to fail deep in the step loop or in numpy's SeedSequence
    bad = [
        ({"horizon": 1000.5}, "horizon must be an integer, not 1000.5"),
        ({"horizon": True}, "horizon must be an integer, not True"),
        ({"horizon": 1000, "replications": 2.5}, "replications must be an integer, not 2.5"),
        ({"horizon": 1000, "burn_in": 10.5}, "burn_in must be an integer, not 10.5"),
        ({"horizon": 1000, "burn_in": False}, "burn_in must be an integer, not False"),
        ({"horizon": 1000, "seed": 1.0}, "seed must be an integer, not 1.0"),
        ({"horizon": 1000, "seed": -1}, "seed must be >= 0, not -1"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(**kwargs)
    cfg = SimConfig(horizon=np.int64(1000), replications=np.int32(2), seed=np.uint64(3))
    assert (cfg.burn_in, cfg.replications, cfg.seed) == (100, 2, 3)


@pytest.mark.parametrize(
    "state",
    [SystemState(1, B, 0), SystemState(1, A, -3), SystemState(0, A, 0), SystemState(6, A, 1), SystemState(9, B, 2)],
)
@pytest.mark.parametrize("run", ["simulate", "hitting_time_stats"])
def test_rejects_a_start_or_target_that_is_not_a_state(spec5, state, run):
    cfg = SimConfig(horizon=1000, initial_state=state)
    with pytest.raises(ValueError, match=re.escape(f"({state.s}, {state.w}, {state.q}) is not a state for n_s=5")):
        if run == "simulate":
            simulate(spec5, 0.15, _theta5(), cfg)
        else:
            hitting_time_stats(spec5, 0.15, _theta5(), state, cfg)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.2, float("nan")])
@pytest.mark.parametrize("run", ["simulate", "hitting_time_stats"])
def test_simulators_reject_an_arrival_rate_outside_the_unit_interval(spec5, lam, run):
    cfg = SimConfig(horizon=1000)
    with pytest.raises(ValueError, match=re.escape("lam must lie in (0, 1)")):
        if run == "simulate":
            simulate(spec5, lam, _theta5(), cfg)
        else:
            hitting_time_stats(spec5, lam, _theta5(), SystemState(1, A, 0), cfg)


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


@pytest.mark.parametrize(("s", "w", "q"), [(0, A, 0), (1, A, -1), (6, A, 1), (1, B, 0), (1, A, 9), (1, 2, 1)])
def test_truncated_mass_rejects_states_out_of_range(spec5, s, w, q):
    # unchecked, s = 0 and q = -1 index from the end: at q_max = 8,
    # (0, A, 0) reads the last state and (1, A, -1) a state at level 7
    pmf = truncated_stationary(spec5, 0.15, _theta5(), 8)
    with pytest.raises(ValueError, match=rf"\({s}, {w}, {q}\) is not a state for n_s=5 and q_max=8"):
        pmf.mass(s, w, q)
    assert pmf.mass(5, B, 8) == pmf.probs[-1]


def test_truncated_auto_doubles_until_tail_clears(spec5, monkeypatch):
    pmf = truncated_stationary_auto(spec5, 0.15, _theta5(), q_max=64)
    assert pmf.tail_mass < 1e-10
    assert pmf.q_max > 64  # 64 is far too small at this load
    cap_ran_out = r"truncation cap q_cap=256 ran out: tail mass .* above tail_tol=1e-10 at q_max=256"
    monkeypatch.setattr(sim, "Q_CAP", 256)
    with pytest.raises(NumericalFailure, match=cap_ran_out):
        # an unstable policy cannot clear the tail no matter the cap
        truncated_stationary_auto(spec5, 0.15, lift_policy(threshold_policy(5, 2)), q_max=64)


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
        theta = lift_policy(PolicyY(np.array(data.draw(st.lists(work, min_size=n, max_size=n)))))
    else:
        levels = data.draw(st.integers(1, 3))
        tbl = np.zeros((levels + 1, 2, n))
        tbl[1:, 1] = 1.0
        tbl[1:, 0] = np.reshape(data.draw(st.lists(work, min_size=levels * n, max_size=levels * n)), (levels, n))
        theta = PolicyX(tbl)
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


def test_truncated_matches_qbd_when_high_levels_drain_slowly():
    # at q >= 1 this policy pins the server to s = 4 once it gets there,
    # so mass started near the cap drains slowly; the reference state of
    # the capped solve must still carry stationary mass
    spec = ServerSpec(n_s=4, mu=np.array([0.5, 0.5, 0.25, 0.3125]), rho_up=np.full(3, 0.5), rho_down=np.full(3, 0.5))
    phi = PolicyY(np.array([0.125, 0.0, 0.0, 1.0]))
    lam = 0.5 * service_rate(spec, phi)
    theta = lift_policy(phi)
    capped = truncated_stationary(spec, lam, theta, 300)
    assert capped.tail_mass < 1e-13
    exact = qbd_stationary(spec, lam, theta)
    assert exact.utilization == pytest.approx(truncated_utilization(capped, theta), abs=1e-10)
    np.testing.assert_allclose(exact.y_marginal, capped.y_marginal(), rtol=0.0, atol=1e-10)


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
        qbd_stationary(spec5, 0.15, PolicyX(tbl))
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
    # tau = 2 serves below lam = 0.15: the level drifts up, so there is
    # no stationary law
    theta = lift_policy(threshold_policy(5, 2))
    rate = service_rate(spec5, theta.base)
    with pytest.raises(NotStabilizableError, match=f"serves {rate:.6g} .* arrival rate 0.15"):
        qbd_stationary(spec5, 0.15, theta)


def _drift_reference(spec, lam, theta):
    """The drift test by definition: the classes of up + local + down
    by search, the recurrent ones that the phases level 0 feeds reach,
    and the least of their service rates by the dense solve, with its
    class."""
    n = spec.n_s
    (b0_up, up), (_, local), (_, down) = sim._level_blocks(spec, lam, theta.table)
    phases = up + local + down
    served_at = theta.base.full * np.concatenate([spec.mu, spec.mu])
    reach = reach_by_search(phases.tolist())
    reached = set().union(*(reach[i] for i in np.flatnonzero((b0_up[:n] > 0.0).any(axis=0))))
    return min(
        (float(stationary_by_class(phases[np.ix_(c, c)]) @ served_at[c]), c)
        for c, recurrent in classes_by_search(phases.tolist())
        if recurrent and c[0] in reached
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 15),
    kinds=st.lists(st.sampled_from("01u"), min_size=15, max_size=15),
    sure_nowhere=st.booleans(),
    factor=st.one_of(st.floats(0.5, 0.95), st.floats(1.05, 1.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_verdict_matches_dense_reference(n, kinds, sure_nowhere, factor, seed):
    # policies with entries 0, 1 or U(0, 1), some working surely nowhere,
    # so that phi(1) = 0 comes with T = 0 and with T >= 2; lam lies on
    # either side of the reference rate (or in (0.01, 0.6) when it is 0).
    # qbd_stationary refuses exactly when the reference does, and names
    # the same class
    rng = np.random.default_rng(seed)
    spec = ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )
    kinds = [k.replace("1", "u") if sure_nowhere else k for k in kinds[:n]]
    wp = np.array([{"0": 0.0, "1": 1.0}.get(k, rng.uniform()) for k in kinds])
    theta = lift_policy(PolicyY(wp))
    rate, _ = _drift_reference(spec, 0.5, theta)
    lam = rate * factor if rate > 0.0 else rng.uniform(0.01, 0.6)
    assume(0.0 < lam < 1.0)
    rate, slowest = _drift_reference(spec, lam, theta)
    if rate > lam + sim.DRIFT_TOL:
        qbd_stationary(spec, lam, theta)
        return
    states = ", ".join(f"({y.s}, {y.w.name})" for y in (y_state(n, i) for i in slowest))
    with pytest.raises(NotStabilizableError) as err:
        qbd_stationary(spec, lam, theta)
    assert str(err.value).endswith(f"(phase class {{{states}}})")


def test_log_reduction_converges_at_null_recurrence(spec5):
    # at nu_bar = lam = 0.2 the LP policy is null recurrent: G is still
    # stochastic, so the shifted reduction converges to it, while the
    # oracle's drift test refuses the policy before any solve
    theta = lift_policy(policy_from_occupation(solve_lp(spec5, 0.2, 1e-3).measure))
    (_, up), (_, local), (_, down) = sim._level_blocks(spec5, 0.2, theta.table)
    G = sim._log_reduction(up, local, down)
    assert np.abs(G.sum(axis=1) - 1.0).max() <= 1e-14
    assert np.abs(down + local @ G + up @ G @ G - G).max() <= 1e-14
    assert G.min() >= -1e-15
    assert not G[:, 5:].any()  # every first passage lands on an available phase
    with pytest.raises(NotStabilizableError, match="not more than the arrival rate 0.2"):
        qbd_stationary(spec5, 0.2, theta)


def test_log_reduction_reports_a_diverging_t(spec5):
    # a policy that works surely serves less than lam = 0.5, so G is not
    # stochastic and the shifted reduction, which needs G 1 = 1, blows up;
    # that is named, with no warning escaping
    theta = lift_policy(PolicyY(np.ones(5)))
    (_, up), (_, local), (_, down) = sim._level_blocks(spec5, 0.5, theta.table)
    message = r"\|\|T\|\| \|\|b_down\|\| = (inf|nan) is not finite after \d+ steps"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=message):
            sim._log_reduction(up, local, down)


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
    lazy = PolicyX(tbl)
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
    # several blocks of the step loop, burn-in inside the second
    horizon, burn = 3 * sim.SIM_BLOCK + 500, sim.SIM_BLOCK + 123
    cfg = SimConfig(horizon=horizon, burn_in=burn, replications=1, seed=9, trace=True)
    res = simulate(spec5, 0.3, _theta5(), cfg)
    t = res.trace
    assert t.shape == (horizon, 7)
    k, s, w, q, work, arrival, done = t.T
    assert np.array_equal(k, np.arange(horizon))
    assert np.all((s >= 1) & (s <= 5))
    assert np.all((w == 0) | (w == 1))
    assert np.all(done <= work)
    assert np.all(work[q == 0] == 0)
    assert np.all(work[w == 1] == 1)  # a busy server works
    # queue recursion: next q = q - done + arrival
    np.testing.assert_array_equal(q[1:], q[:-1] - done[:-1] + arrival[:-1])
    # availability recursion: busy iff worked without completing
    np.testing.assert_array_equal(w[1:], work[:-1] & ~done[:-1].astype(bool))
    # activity moves by one at most: up only after work, down only after rest
    ds = np.diff(s)
    assert np.all(np.abs(ds) <= 1)
    assert np.all(work[:-1][ds > 0] == 1)
    assert np.all(work[:-1][ds < 0] == 0)
    # the tallies are those of the traced steps from burn-in on
    counted = t[burn:]
    assert res.rep_utilization.tolist() == [counted[:, 4].sum() / counted.shape[0]]
    assert res.rep_service_rate.tolist() == [counted[:, 6].sum() / counted.shape[0]]
    assert res.rep_empty_fraction.tolist() == [np.count_nonzero(counted[:, 3] == 0) / counted.shape[0]]
    assert res.rep_queue_mean.tolist() == [counted[:, 3].sum() / counted.shape[0]]
    assert res.rep_queue_max.tolist() == [counted[:, 3].max()]
    busy = counted[counted[:, 3] > 0]
    visits = np.bincount(busy[:, 2] * 5 + busy[:, 1] - 1, minlength=10)
    assert res.y_marginal.tolist() == (visits / counted.shape[0]).tolist()


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
    stats = hitting_time_stats(spec5, 0.15, PolicyX(tbl), SystemState(3, A, 2), cfg)
    assert (stats.mean, stats.count, stats.censored, stats.min_time, stats.max_time) == (
        51.51006711409396, 1937, False, 1, 1461,
    )
    cfg = SimConfig(horizon=50000, replications=2, seed=3)
    stats = hitting_time_stats(spec5, 0.15, _theta5(), SystemState(2, B, 1), cfg)
    assert (stats.mean, stats.count, stats.censored, stats.min_time, stats.max_time) == (
        29.34977973568282, 3405, False, 1, 555,
    )


def test_simulate_pinned_outputs_past_a_block(spec5):
    # recorded with the step loop that drew 2^16 steps at a time: this
    # run crosses that boundary and starts its tallies on it
    cfg = SimConfig(horizon=70_000, burn_in=65_536, replications=2, seed=17, trace=True)
    res = simulate(spec5, 0.2, _theta5(), cfg)
    assert res.rep_utilization.tolist() == [0.5161290322580645, 0.5857974910394266]
    assert res.rep_service_rate.tolist() == [0.19310035842293907, 0.20094086021505375]
    assert res.rep_empty_fraction.tolist() == [0.4475806451612903, 0.36066308243727596]
    assert res.rep_queue_mean.tolist() == [1.5038082437275986, 2.274417562724014]
    assert res.rep_queue_max.tolist() == [17, 23]
    assert res.y_marginal.tolist() == [
        0.006160394265232975, 0.035618279569892476, 0.05521953405017921, 0.09991039426523297,
        0.04491487455197132, 0.026545698924731184, 0.03853046594982079, 0.10607078853046595,
        0.09935035842293907, 0.08355734767025089,
    ]
    trace = np.ascontiguousarray(res.trace, dtype="<i8")
    assert trace.shape == (140000, 7)
    assert trace[65535:65538].tolist() == [
        [65535, 5, 1, 11, 1, 0, 0], [65536, 5, 1, 11, 1, 0, 0], [65537, 5, 1, 11, 1, 0, 0],
    ]
    assert hashlib.sha256(trace.tobytes()).hexdigest() == (
        "5ed1f367b3c336b9b291f49917de08d92500bd60324eac34e5509d438011f159"
    )


def test_hitting_time_pinned_outputs_past_a_block(spec5):
    tbl = np.zeros((4, 2, 5))
    tbl[1:, 1] = 1.0
    tbl[1:3, 0] = [0.5, 0.5, 0.5, 0.5, 0.0]
    tbl[3, 0] = [1.0, 1.0, 1.0, 1.0, 0.0]
    cfg = SimConfig(horizon=120_000, replications=2, seed=8)
    stats = hitting_time_stats(spec5, 0.15, PolicyX(tbl), SystemState(3, A, 2), cfg)
    assert (stats.mean, stats.count, stats.censored, stats.min_time, stats.max_time) == (
        52.92572944297082, 4524, False, 1, 1315,
    )


def test_outputs_do_not_depend_on_block_size(spec5, monkeypatch):
    # the stream of uniforms is the same for any block size, and the
    # per-block tallies, return times and trace rows carry across blocks
    tbl = np.zeros((3, 2, 5))
    tbl[1:, 1] = 1.0
    tbl[1, 0] = [0.5, 0.5, 0.5, 0.5, 0.0]
    tbl[2, 0] = [1.0, 1.0, 1.0, 1.0, 0.0]
    tab = PolicyX(tbl)
    empty = SystemState(1, A, 0)
    runs = [
        lambda: simulate(spec5, 0.2, _theta5(), SimConfig(9000, burn_in=4100, replications=2, seed=3, trace=True)),
        lambda: simulate(spec5, 0.15, tab, SimConfig(5000, burn_in=0, seed=4, trace=True)),
        lambda: hitting_time_stats(spec5, 0.15, _theta5(), empty, SimConfig(9000, replications=2, seed=5)),
        lambda: hitting_time_stats(spec5, 0.15, tab, SystemState(2, B, 2), SimConfig(9000, seed=6)),
    ]
    default = [run() for run in runs]
    monkeypatch.setattr(sim, "SIM_BLOCK", 7)
    for run, expect in zip(runs, default):
        got = run()
        for name, value in vars(expect).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)


def test_step_loop_memory_stays_small(spec5):
    # the loop holds one block of symbols and states at a time, and its
    # tables cover 2 SIM_BLOCK + L levels; a whole horizon, or a block
    # of 2^16 steps, would take over 10 MB
    tracemalloc.start()
    try:
        simulate(spec5, 0.15, _theta5(), SimConfig(horizon=200_000, replications=2, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _reference_step(spec, theta, lam, s, w, q, u):
    """One step of the full chain from (s, w, q), s 0-based, on the
    uniforms u = (action, completion, arrival, move), comparing each with
    its probability as floats. Returns the next (s, w, q) and whether
    the server worked and whether it completed a job."""
    act, comp, arr, move = u.tolist()
    table = theta.table
    work = act < table[min(q, table.shape[0] - 1), w, s]
    done = work and comp < spec.mu[s]
    if work:
        w = 0 if done else 1
        s += move < spec.rho_up[s]
    else:
        w = 0
        s -= move < spec.rho_down[s]
    return int(s), w, q - done + (arr < lam), work, done


def _reference_replicate(spec, theta, tables, lam, cfg, rep, start, burn, target=None, trace=None):
    # sim._replicate's contract, one step at a time on the whole stream
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(rep,))))
    u = rng.random((cfg.horizon, 4))
    s, w, q = start.s - 1, int(start.w), start.q
    rows, visits = [], []
    for k in range(cfg.horizon):
        s_next, w_next, q_next, work, done = _reference_step(spec, theta, lam, s, w, q, u[k])
        rows.append((k, s + 1, w, q, work, u[k, 2] < lam, done))
        s, w, q = s_next, w_next, q_next
        if target is not None and (s + 1, w, q) == target:
            visits.append(k + 1)
    steps = np.array(rows, dtype=np.int64)
    counted = steps[burn:]
    busy = counted[counted[:, 3] > 0]
    tallies = (
        int(counted[:, 4].sum()),
        int(counted[:, 6].sum()),
        int(np.count_nonzero(counted[:, 3] == 0)),
        int(counted[:, 3].sum()),
        int(counted[:, 3].max(initial=0)),
        np.bincount(busy[:, 2] * spec.n_s + busy[:, 1] - 1, minlength=2 * spec.n_s),
    )
    if trace is not None:
        trace[:] = steps
    return tallies, [np.diff(visits, prepend=0)] if visits else []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_step_loop_matches_reference(data):
    # the table lookups on ranked uniforms against a loop that compares
    # the uniforms with the probabilities; equal thresholds, 0 and 1
    # probe the ranks' ties and ends, high starts a base above level 0
    n = data.draw(st.integers(1, 8))
    unit = st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.01, 0.99))
    prob = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
        rho_down=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    levels = data.draw(st.integers(2, 4))
    tbl = np.reshape(data.draw(st.lists(prob, min_size=levels * 2 * n, max_size=levels * 2 * n)), (levels, 2, n))
    tbl[0, 0] = 0.0
    tbl[1:, 1] = 1.0
    theta = PolicyX(tbl)
    lam = data.draw(st.one_of(st.just(0.25), st.floats(0.01, 0.99)))

    def states():
        return st.builds(
            lambda s, w, q: SystemState(s, Availability(w), q + w),
            st.integers(1, n), st.integers(0, 1), st.integers(0, 30),
        )

    horizon = data.draw(st.integers(1, 200))
    reps, seed = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2**32 - 1))
    cfg = SimConfig(horizon, data.draw(st.integers(0, horizon - 1)), reps, seed, data.draw(states()), trace=True)
    target = data.draw(states())
    runs = [
        lambda: simulate(spec, lam, theta, cfg),
        lambda: hitting_time_stats(spec, lam, theta, target, SimConfig(horizon, replications=reps, seed=seed)),
    ]
    with mock.patch.object(sim, "SIM_BLOCK", data.draw(st.sampled_from([1, 7, 4096]))):
        got = [run() for run in runs]
    with mock.patch.object(sim, "_replicate", functools.partial(_reference_replicate, spec, theta)):
        expect = [run() for run in runs]
    for result, reference in zip(got, expect):
        for name, value in vars(reference).items():
            np.testing.assert_array_equal(getattr(result, name), value, err_msg=name)


_REST = np.zeros((2, 2, 5))  # rest unless busy
_REST[1, 1] = 1.0
_FAST = ServerSpec(n_s=1, mu=np.array([0.9]), rho_up=np.zeros(0), rho_down=np.zeros(0))
# all-distinct mu and rho at n_s = 8 and 312 distinct interior work
# probabilities: both step symbols exceed 255, so they are uint16
_WIDE_RNG = np.random.default_rng(17)
_WIDE = ServerSpec(n_s=8, mu=_WIDE_RNG.uniform(0.05, 0.95, 8),
                   rho_up=_WIDE_RNG.uniform(0.05, 0.95, 7), rho_down=_WIDE_RNG.uniform(0.05, 0.95, 7))
_WIDE_TABLE = _WIDE_RNG.uniform(0.01, 0.99, (40, 2, 8))
_WIDE_TABLE[0, 0] = 0.0
_WIDE_TABLE[1:, 1] = 1.0
_WORK = np.array([[[0.0], [0.0]], [[1.0], [1.0]]])  # work unless the queue is empty
# three interior work probabilities: 4 action ranks times 50 symbols b,
# so the folded symbol still fits in a byte
_INTERIOR = lift_policy(PolicyY(np.array([0.5, 0.3, 0.7, 1.0, 0.0]))).table


# (spec or None for spec5, table or None for _theta5, lam, SIM_BLOCK, config, target)
@pytest.mark.parametrize(
    "spec, tbl, lam, block, cfg, target",
    [
        pytest.param(None, None, 0.3, 7, SimConfig(30, 6, 2, 11, trace=True), SystemState(1, A, 0),
                     id="burn-in-at-first-block-end"),
        pytest.param(None, None, 0.3, 7, SimConfig(30, 13, 1, 12, trace=True), SystemState(2, A, 1),
                     id="burn-in-at-second-block-end"),
        pytest.param(None, None, 0.3, 4096, SimConfig(1, 0, 2, 13, SystemState(2, B, 3), trace=True),
                     SystemState(2, A, 3), id="horizon-1"),
        pytest.param(_FAST, _WORK, 0.05, 4096,
                     SimConfig(300, 10, 1, 14, SystemState(1, B, 40), trace=True), SystemState(1, A, 0),
                     id="drains-through-level-0"),
        pytest.param(None, _REST, 1e-9, 7, SimConfig(40, 3, 2, 15, trace=True), SystemState(1, A, 0),
                     id="one-level-empty"),
        pytest.param(None, _REST, 1e-9, 4096, SimConfig(40, 0, 1, 16, SystemState(4, A, 3), trace=True),
                     SystemState(3, A, 3), id="one-level-q3"),
        pytest.param(_WIDE, _WIDE_TABLE, 0.3, 7, SimConfig(60, 5, 2, 17, SystemState(2, A, 30), trace=True),
                     SystemState(2, A, 30), id="uint16-symbols"),
        pytest.param(None, None, 0.3, 7, SimConfig(31, 4, 2, 18, SystemState(3, B, 2), trace=True),
                     SystemState(3, A, 1), id="odd-horizon-block-7"),
        pytest.param(None, None, 0.3, 1, SimConfig(31, 4, 2, 19, trace=True), SystemState(2, A, 1),
                     id="odd-horizon-block-1"),
        pytest.param(_FAST, _WORK, 0.05, 7, SimConfig(29, 0, 1, 25, SystemState(1, A, 40), trace=True),
                     SystemState(1, A, 33), id="falls-to-the-lowest-level"),
        pytest.param(None, _INTERIOR, 0.2, 7, SimConfig(60, 5, 2, 20, SystemState(2, A, 12), trace=True),
                     SystemState(2, A, 12), id="interior-work-probabilities"),
    ],
)
def test_histogram_tallies_match_reference_on_edge_cases(spec5, spec, tbl, lam, block, cfg, target, request):
    # the block histogram where its counted states are few, start at a
    # block's last step, cross level 0, or keep to one level; odd blocks
    # end with a padded step; two steps per lookup from a base above 0
    spec = spec or spec5
    theta = _theta5() if tbl is None else PolicyX(tbl)
    runs = [
        lambda: simulate(spec, lam, theta, cfg),
        lambda: hitting_time_stats(spec, lam, theta, target, SimConfig(cfg.horizon, replications=2, seed=cfg.seed)),
    ]
    with mock.patch.object(sim, "SIM_BLOCK", block):
        got = [run() for run in runs]
    with mock.patch.object(sim, "_replicate", functools.partial(_reference_replicate, spec, theta)):
        expect = [run() for run in runs]
    for result, reference in zip(got, expect):
        for name, value in vars(reference).items():
            np.testing.assert_array_equal(getattr(result, name), value, err_msg=name)
    q = got[0].trace[:, 3]
    case = request.node.callspec.id
    if case == "drains-through-level-0":
        assert q[0] == 40 and q.min() == 0
    if case.startswith("one-level"):
        assert np.all(q == q[0])
    if case == "falls-to-the-lowest-level":
        # the first block's base is 40 - 7 - 1 and it ends at its level L
        assert q[0] == 40 and q[7] == 33
    tables = sim._step_tables(spec, theta, block)
    if case == "interior-work-probabilities":
        assert len(tables.act) == 3
    if case == "uint16-symbols":
        assert tables.a_dtype == tables.b_dtype == np.uint16
    # only the symbols that need two bytes take one step per lookup
    assert (tables.step is None) == (case == "uint16-symbols")


def test_step_tables_stay_small_and_are_built_once_per_call(monkeypatch):
    # many activity states, and many distinct work probabilities: a level
    # row holds one family per interior work probability, plus one
    for n, levels in ((20, 4), (5, 128)):
        rng = np.random.default_rng(0)
        unit = lambda size: rng.uniform(0.05, 0.95, size)  # noqa: E731
        spec = ServerSpec(n_s=n, mu=unit(n), rho_up=unit(n - 1), rho_down=unit(n - 1))
        tbl = rng.random((levels, 2, n))
        tbl[0, 0] = 0.0
        tbl[1:, 1] = 1.0
        theta = PolicyX(tbl)
        start = time.perf_counter()
        sim._step_tables(spec, theta, sim.SIM_BLOCK)
        assert time.perf_counter() - start < 0.2
        tracemalloc.start()
        try:
            sim._step_tables(spec, theta, sim.SIM_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (n, levels)

    built = []
    step_tables = sim._step_tables
    monkeypatch.setattr(sim, "_step_tables", lambda *args: built.append(args) or step_tables(*args))
    simulate(spec, 0.1, theta, SimConfig(horizon=100, replications=64, seed=0))
    assert len(built) == 1
    hitting_time_stats(spec, 0.1, theta, SystemState(1, A, 0), SimConfig(horizon=100, replications=64, seed=0))
    assert len(built) == 2


def test_step_tables_share_one_int_per_change():
    # all-distinct mu and rho at n_s = 50: each of the 4 n_s families has
    # 2 (50 + 1) (98 + 1) entries, most of them changes outside the ints
    # Python caches; with one int object per entry the build peaked at
    # 60.8 MB, with one per distinct change it stays near the 16 MB of
    # list slots
    n = 50
    rng = np.random.default_rng(0)
    unit = lambda size: rng.uniform(0.05, 0.95, size)  # noqa: E731
    spec = ServerSpec(n_s=n, mu=unit(n), rho_up=unit(n - 1), rho_down=unit(n - 1))
    tbl = np.ones((2, 2, n))
    tbl[0, 0] = 0.0
    tracemalloc.start()
    try:
        tables = sim._step_tables(spec, PolicyX(tbl), sim.SIM_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert tables.step is None  # one step per lookup: 2 (50 + 1) (98 + 1) symbols b
    deltas = {}
    for row in tables.rows[: 2 * n]:
        for family in row:
            for delta in family:
                assert deltas.setdefault(delta, delta) is delta
    assert len(deltas) <= 6 * n + 2


def test_example1_tables_take_two_steps_per_lookup(spec5):
    # minwork simulate's policy, the lifted tau* threshold: a fall back to
    # one step per lookup would keep every result and lose the speed
    _, tau = max_service_rate(spec5)
    tables = sim._step_tables(spec5, lift_policy(threshold_policy(5, tau)), sim.SIM_BLOCK)
    n2, L = 10, tables.levels
    assert tables.step is not None and tables.step.shape == ((L + 1) * n2, 50)
    assert len(tables.rows) == (2 * sim.SIM_BLOCK + L + 2) * n2
    # rows[x][c1][c2] is step at x then step at x + that change
    step = tables.step.tolist()
    for x in [*range(n2 // 2), *range(n2, (L + 2) * n2)]:  # level 0's busy rows are no state
        for c1 in range(50):
            d = step[min(x, L * n2 + x % n2)][c1]
            y = min(x + d, L * n2 + (x + d) % n2)
            assert tables.rows[x][c1] == [d + e for e in step[y]]


def test_one_step_rows_give_the_same_outputs(spec5, monkeypatch):
    # the same runs with the two-step rows and, past their size bound,
    # with one step per lookup, odd blocks included
    theta = PolicyX(_INTERIOR)
    runs = [
        lambda: simulate(spec5, 0.2, theta, SimConfig(3001, burn_in=700, replications=2, seed=21, trace=True)),
        lambda: simulate(spec5, 0.2, _theta5(), SimConfig(2000, seed=22, initial_state=SystemState(3, B, 30))),
        lambda: hitting_time_stats(spec5, 0.2, theta, SystemState(1, A, 0), SimConfig(3001, seed=23)),
    ]
    monkeypatch.setattr(sim, "SIM_BLOCK", 333)
    assert sim._step_tables(spec5, theta, sim.SIM_BLOCK).step is not None
    two = [run() for run in runs]
    monkeypatch.setattr(sim, "PAIR_SLOTS", 0)
    assert sim._step_tables(spec5, theta, sim.SIM_BLOCK).step is None
    for run, expect in zip(runs, two):
        got = run()
        for name, value in vars(expect).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
