"""Lifting, projection, stability labels, and the synthesis loop."""

import re

import numpy as np
import pytest

from qbd_reference import mp_qbd, unshifted_log_reduction

from minwork import sim
from minwork.chain import max_service_rate, service_rate, threshold_policy
from minwork.frontier import NotStabilizableError, frontier
from minwork.model import Availability, NumericalFailure, PolicyX, PolicyY, ServerSpec
from minwork.sim import TruncatedPMF, qbd_stationary, truncated_stationary_auto
from minwork.synthesis import (
    EPS_GRID,
    NOT_GUARANTEED,
    STABLE,
    ProjectionUndefinedError,
    classify_stability,
    lift_policy,
    project_policy,
    synthesize,
)

# the oracle's refusal near null recurrence, named in full
PRECISION_FAILURE = re.escape("QBD oracle audit: precision estimate eps / (1 - sp(R))^2 ") + r"\S+ exceeds 1$"


def _pmf_from_masses(n_s, q_max, masses):
    """Build a TruncatedPMF directly from {(s, w, q): mass}."""
    size = n_s * (1 + 2 * q_max)
    probs = np.zeros(size)
    ref = TruncatedPMF(n_s=n_s, q_max=q_max, probs=probs, tail_mass=0.0, balance_residual=0.0)
    for (s, w, q), v in masses.items():
        probs[ref.index(s, w, q)] = v
    return TruncatedPMF(
        n_s=n_s, q_max=q_max, probs=probs, tail_mass=0.0, balance_residual=0.0
    )


def test_lift_policy_table():
    phi = PolicyY(np.array([0.4, 1.0]))
    theta = lift_policy(phi)
    assert isinstance(theta, PolicyX)
    assert theta.work_prob(1, 0, 0) == 0.0  # rest on empty queue
    assert theta.work_prob(1, 1, 3) == 1.0  # busy forces work
    assert theta.work_prob(1, 0, 3) == 0.4
    assert theta.base.work_prob.tobytes() == phi.work_prob.tobytes()


def test_queue_dependent_policy_has_no_base(spec5):
    tbl = np.zeros((3, 2, 5))
    tbl[1:, 1] = 1.0
    tbl[2, 0] = 1.0
    theta = PolicyX(tbl)
    with pytest.raises(ValueError, match="not a lifted policy"):
        theta.base
    with pytest.raises(ValueError, match="not a lifted policy"):
        classify_stability(spec5, 0.15, theta)


def test_projection_recovers_base_without_empty_mass():
    # all mass sits at q >= 1, where the lifted policy equals its base,
    # so the queue average changes nothing
    phi = PolicyY(np.array([0.3, 0.9]))
    theta = lift_policy(phi)
    pmf = _pmf_from_masses(
        2, 3, {(1, 0, 1): 0.2, (2, 0, 2): 0.3, (1, 1, 1): 0.1, (2, 1, 3): 0.4}
    )
    back = project_policy(theta, pmf)
    np.testing.assert_allclose(back.work_prob, phi.work_prob, atol=1e-15)


def test_projection_shrinks_with_empty_mass():
    # mass at q = 0 contributes zero work probability to the average:
    # state 1 holds 0.2 at q=0 and 0.2 at q=1, so phi is halved there
    phi = PolicyY(np.array([0.8, 0.6]))
    theta = lift_policy(phi)
    pmf = _pmf_from_masses(
        2,
        2,
        {(1, 0, 0): 0.2, (1, 0, 1): 0.2, (2, 0, 1): 0.4, (1, 1, 1): 0.1, (2, 1, 2): 0.1},
    )
    back = project_policy(theta, pmf)
    assert back.work_prob[0] == pytest.approx(0.4, abs=1e-15)
    assert back.work_prob[1] == pytest.approx(0.6, abs=1e-15)


def test_projection_undefined_on_dead_state():
    theta = lift_policy(PolicyY(np.array([0.5, 0.5])))
    pmf = _pmf_from_masses(2, 2, {(1, 0, 1): 1.0})  # state 2 never visited
    with pytest.raises(ProjectionUndefinedError) as err:
        project_policy(theta, pmf)
    assert len(err.value.states) >= 1


def test_projection_undefined_names_states_by_availability():
    theta = lift_policy(PolicyY(np.array([0.5, 0.5])))
    pmf = _pmf_from_masses(2, 2, {(2, 0, 1): 0.5, (1, 1, 1): 0.5})
    with pytest.raises(ProjectionUndefinedError, match=r"zero mass: \(s=1, A\), \(s=2, B\)$") as err:
        project_policy(theta, pmf)
    assert err.value.states == ((1, Availability.A), (2, Availability.B))


def test_projection_of_exact_stationary_serves_lam(spec5):
    # the projected policy inherits the service rate of the lifted
    # chain, which in steady state equals the arrival rate
    lam = 0.15
    theta = lift_policy(threshold_policy(5, 5))
    pmf = truncated_stationary_auto(spec5, lam, theta)
    phi = project_policy(theta, pmf)
    assert service_rate(spec5, phi) == pytest.approx(lam, abs=1e-6)


def test_classify_stability(spec5):
    assert classify_stability(spec5, 0.15, lift_policy(threshold_policy(5, 5))) == STABLE
    # resting everywhere cannot serve the arrivals
    assert (
        classify_stability(spec5, 0.15, lift_policy(threshold_policy(5, 1)))
        == NOT_GUARANTEED
    )
    # serving below lam is not certified either
    assert (
        classify_stability(spec5, 0.15, lift_policy(threshold_policy(5, 2)))
        == NOT_GUARANTEED
    )
    # threshold 5 serves exactly 0.3; within DRIFT_TOL below that rate the
    # QBD drift test finds no stationary law, so the label must not
    # certify the policy either
    theta = lift_policy(threshold_policy(5, 5))
    lam = service_rate(spec5, theta.base) - 5e-13
    with pytest.raises(NotStabilizableError, match="no stationary law"):
        qbd_stationary(spec5, lam, theta)
    assert classify_stability(spec5, lam, theta) == NOT_GUARANTEED


@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0, 1.5, np.nan, np.inf])
def test_classify_stability_rejects_lam_outside_unit_interval(spec5, lam):
    with pytest.raises(ValueError, match=re.escape("lam must lie in (0, 1)")):
        classify_stability(spec5, lam, lift_policy(threshold_policy(5, 5)))
    with pytest.raises(ValueError):
        classify_stability(spec5, 0.15, object())


def test_synthesize_walkthrough(spec5):
    # delta = 0.1: the rate target halves from nu_star toward lam until
    # the frontier value clears frontier(lam) + delta/3, landing at
    # 0.159375; the final rate then backs off one halving to 0.1546875
    res = synthesize(spec5, lam=0.15, delta=0.1)
    assert res.nu_star_rate == pytest.approx(0.1546875, abs=1e-12)
    assert res.eps_star == pytest.approx(0.1, abs=0.0)
    front = frontier(spec5)
    assert res.verified_utilization <= front(0.15) + 0.1 + 1e-12
    assert res.predicted_utilization <= front(0.15) + 0.1 + 1e-8
    assert res.tail_mass < 1e-10
    assert res.policy.base.in_phi_r_eps(res.eps_star)
    assert res.bound_gap > 0.0
    assert classify_stability(spec5, 0.15, res.policy) == STABLE


def test_synthesize_tighter_delta(spec5):
    res = synthesize(spec5, lam=0.15, delta=0.05)
    assert res.nu_star_rate == pytest.approx(0.15234375, abs=1e-12)
    assert res.eps_star == pytest.approx(0.01, abs=0.0)
    assert res.verified_utilization <= frontier(spec5)(0.15) + 0.05 + 1e-12


def test_synthesize_tight_delta_certifies(spec5):
    # the certified policy's queue mean is about 2e4 and its level masses
    # fall by sp(R) ~ 1 - 5e-5 per level, so the exact tail level is large
    res = synthesize(spec5, lam=0.15, delta=0.005)
    front = frontier(spec5)
    assert front(0.15) - 1e-9 <= res.verified_utilization <= front(0.15) + 0.005
    assert res.tail_mass < 1e-10
    assert res.q_max_used > 1e5
    assert res.mean_queue == pytest.approx(2.0e4, rel=0.01)
    assert 0.9999 < res.tail_decay < 1.0


@pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6])
def test_synthesize_refuses_near_null_recurrence(spec5, delta):
    # the accepted service rate sits so close to lam that 1 - sp(R) is
    # below sqrt(eps) (7.9e-9 at delta = 1e-4): double precision no longer
    # resolves the queue's decay rate, and the answer must not be returned
    with pytest.raises(NumericalFailure, match=PRECISION_FAILURE):
        synthesize(spec5, lam=0.15, delta=delta)


@pytest.mark.parametrize("delta", [0.04, 1e-3])
def test_qbd_matches_the_mpmath_reference(spec5, delta):
    # 1 - sp(R) is 3.5e-3 and 1.3e-6, and E[q] 284 and 7.9e5
    res = synthesize(spec5, lam=0.15, delta=delta)
    utilization, mean_queue = mp_qbd(spec5, 0.15, res.policy)
    assert abs(res.verified_utilization - utilization) <= 1e-11
    assert res.mean_queue == pytest.approx(mean_queue, rel=1e-7, abs=0.0)


@pytest.mark.parametrize("delta", [0.04, 1e-3])
def test_log_reduction_takes_few_steps_near_null_recurrence(spec5, delta, monkeypatch):
    # the unshifted reduction takes 13 and 24 steps on these policies: a
    # fall back to it would keep every result and lose the speed
    theta = synthesize(spec5, lam=0.15, delta=delta).policy
    (_, up), (_, local), (_, down) = sim._level_blocks(spec5, 0.15, theta.table)
    monkeypatch.setattr(sim, "QBD_MAX_STEPS", 4)
    G = sim._log_reduction(up, local, down)
    assert np.abs(G.sum(axis=1) - 1.0).max() <= 1e-14


def test_qbd_matches_the_unshifted_reduction(spec5, monkeypatch):
    # example1's policies at delta 0.1 and 0.04, and those synthesized on
    # random models at lam = nu*/2 whose 1 - sp(R) is at least 1e-3
    cases = [(spec5, 0.15, synthesize(spec5, 0.15, delta).policy) for delta in (0.1, 0.04)]
    for n in range(2, 9):
        for seed in range(6):
            spec = sweep_model(n, seed)
            lam = 0.5 * max_service_rate(spec)[0]
            try:
                res = synthesize(spec, lam, 0.05)
            except NumericalFailure:
                continue
            if res.tail_decay <= 1.0 - 1e-3:
                cases.append((spec, lam, res.policy))
    assert len(cases) >= 15
    shifted = [qbd_stationary(*case) for case in cases]
    monkeypatch.setattr(sim, "_log_reduction", unshifted_log_reduction)
    for case, new in zip(cases, shifted):
        old = qbd_stationary(*case)
        assert abs(new.utilization - old.utilization) <= 1e-12
        assert new.mean_queue == pytest.approx(old.mean_queue, rel=1e-10, abs=0.0)


def test_synthesize_loose_delta_accepts_fast(spec5):
    res = synthesize(spec5, lam=0.15, delta=0.5)
    assert res.verified_utilization <= frontier(spec5)(0.15) + 0.5 + 1e-12
    assert res.eps_star in EPS_GRID


def test_synthesize_rejects_bad_arguments(spec5):
    with pytest.raises(ValueError):
        synthesize(spec5, lam=0.15, delta=0.0)
    with pytest.raises(NotStabilizableError):
        synthesize(spec5, lam=0.3, delta=0.1)
    with pytest.raises(NotStabilizableError):
        synthesize(spec5, lam=0.0, delta=0.1)


@pytest.mark.parametrize("lam, delta", [(0.15, np.nan), (0.15, np.inf), (np.nan, 0.05), (np.inf, 0.05)])
def test_synthesize_rejects_non_finite_arguments(spec5, lam, delta):
    with pytest.raises(ValueError, match="finite") as info:
        synthesize(spec5, lam=lam, delta=delta)
    assert type(info.value) is ValueError  # not NotStabilizableError, which the CLI maps to exit 3


def sweep_model(n, seed):
    """A random model: mu ~ U(0.02, 0.95), then rho_up and rho_down ~
    U(0.02, 0.5), n - 1 of each, from default_rng([2026, n, seed])."""
    rng = np.random.default_rng([2026, n, seed])
    return ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )


@pytest.mark.parametrize("n, seed, share", [(80, 2, 0.5), (20, 2, 0.9)])
def test_synthesize_unstable_extracted_policy_is_a_numerical_failure(n, seed, share):
    # lam < nu*, so some policy stabilizes the queue; the extracted one has
    # a recurrent phase class that serves less than lam (at n_s = 80 its
    # upper regime's rest share rounds away, leaving levels 77-80 alone).
    # That is the extraction's failure, not "no stabilizing policy"
    spec = sweep_model(n, seed)
    lam = share * max_service_rate(spec)[0]
    message = r"nu_bar=\S+, eps=\S+ fails: the policy serves \S+ .* arrival rate"
    with pytest.raises(NumericalFailure, match=message) as info:
        synthesize(spec, lam, 0.05)
    assert isinstance(info.value.__cause__, NotStabilizableError)
