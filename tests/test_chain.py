"""Stationary analysis: frozen reference values for the running example
plus structural identities that hold for any instance.

Reference numbers were frozen from an exact fraction-arithmetic solve of
the balance equations, then rounded once to double precision.
"""

import collections
import hashlib
import itertools
import math
import pickle
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from dense_chain import balance_residual, classes_by_search, stationary_by_class

from minwork import chain, model, sim
from minwork.chain import (
    DaggerDecomposition,
    NonUniqueStationaryError,
    dagger_rates,
    decompose_dagger_policy,
    max_service_rate,
    mixing_constants,
    potential_function,
    service_rate,
    service_reward,
    stationary_pmf_y,
    threshold_policy,
    threshold_rates,
    utilization_rate_y,
)
from minwork.frontier import solve_lp
from minwork.model import NumericalFailure, PolicyY, ServerSpec, ybar_matrix
from minwork.synthesis import lift_policy

# (tau, service rate, utilization rate) for the five-state example
REFERENCE_TABLE = (
    (1, 0.0, 0.0),
    (2, 0.03470432078675262, 0.23827654760551015),
    (3, 0.19929742388758798, 0.4309133489461357),
    (4, 0.19473684210526307, 0.6315789473684211),
    (5, 0.3, 0.857142857142857),
    (6, 0.05, 1.0),
)


def _random_model(rng, n):
    return ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )


def _one_state_spec():
    return ServerSpec(n_s=1, mu=[0.6], rho_up=[0.0], rho_down=[0.0])


def test_stationary_pmf_two_state():
    # at n_s = 1, working w.p. 1/4 at (1, A) leaves for (1, B) w.p. 0.1 and
    # completes back w.p. 0.6: pi0 * 0.1 = pi1 * 0.6, so pi = (6/7, 1/7)
    pi = stationary_pmf_y(_one_state_spec(), PolicyY([0.25]))
    np.testing.assert_allclose(pi, [6 / 7, 1 / 7], atol=1e-14)
    with pytest.raises(ValueError, match="policy must give 1 work probabilities"):
        stationary_pmf_y(_one_state_spec(), PolicyY([0.25, 0.25]))


def test_stationary_pmf_skips_transient_states(spec5):
    # threshold 4 works surely at level 3, so levels 1 and 2 drain into
    # the levels above and carry exactly no mass
    phi = threshold_policy(5, 4)
    pi = stationary_pmf_y(spec5, phi)
    assert np.flatnonzero(pi).tolist() == [2, 3, 4, 7, 8, 9]
    np.testing.assert_allclose(pi, stationary_by_class(ybar_matrix(spec5, phi)), atol=1e-14)


def test_stationary_pmf_rejects_two_recurrent_classes(spec5):
    # resting at (1, A) keeps it; working surely at level 2 keeps the
    # levels from 2 up: both classes are carried, as sorted index lists
    phi = PolicyY([0.0, 1.0, 0.3, 0.0, 0.0])
    with pytest.raises(NonUniqueStationaryError, match="2 recurrent classes") as err:
        stationary_pmf_y(spec5, phi)
    assert err.value.classes == [[0], [1, 2, 3, 4, 6, 7, 8, 9]]
    assert err.value.classes == [c for c, r in classes_by_search(ybar_matrix(spec5, phi).tolist()) if r]
    with pytest.raises(NonUniqueStationaryError):
        potential_function(spec5, phi, service_reward(spec5, phi))


def test_communicating_classes_partition():
    # the tests' class search, which recurrent_sets, the level solve
    # and the QBD drift test are checked against, on a chain with a
    # transient class
    P = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.1, 0.0, 0.9, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    classes = {tuple(c): rec for c, rec in classes_by_search(P.tolist())}
    assert classes == {(0, 1): True, (2,): False, (3,): True}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    kinds=st.lists(st.sampled_from("01u"), min_size=40, max_size=40),
    sure_nowhere=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_communicating_classes_match_definition(n, kinds, sure_nowhere, seed):
    # the recurrent classes read off the policy are those of ybar_matrix
    # by search, for policies with entries 0, 1 or U(0, 1), some working
    # surely nowhere, so phi(1) = 0 comes with T = 0 and with T >= 2
    rng = np.random.default_rng(seed)
    spec = _random_model(rng, n)
    kinds = [k.replace("1", "u") if sure_nowhere else k for k in kinds[:n]]
    phi = PolicyY([{"0": 0.0, "1": 1.0}.get(k, rng.uniform()) for k in kinds])
    expect = [c for c, r in classes_by_search(ybar_matrix(spec, phi).tolist()) if r]
    assert chain.recurrent_sets(phi) == expect


def test_audits_fail_on_nan(monkeypatch, spec5):
    # a NaN residual compares False against any bound; the audit must
    # still fail on it
    monkeypatch.setattr(chain, "_level_solve", lambda rates, wp, low: [math.nan] * (2 * len(wp)))
    with pytest.raises(NumericalFailure, match="normalization"):
        stationary_pmf_y(spec5, threshold_policy(5, 3))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    kinds=st.lists(st.sampled_from("01u"), min_size=30, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_solve_matches_dense_solve(n, kinds, seed):
    # every threshold, a policy with entries 0, 1 or U(0, 1), and the same
    # policy resting at (1, A): the level solve and the tests' dense solve
    # on ybar_matrix raise alike, and otherwise agree to 1e-11 with exact
    # zeros off the recurrent class (the dense solve also zeroes masses
    # below 1e-15 on it)
    rng = np.random.default_rng(seed)
    spec = _random_model(rng, n)
    wp = np.array([{"0": 0.0, "1": 1.0}.get(k, rng.uniform()) for k in kinds[:n]])
    rest_bottom = wp.copy()
    rest_bottom[0] = 0.0
    policies = [threshold_policy(n, tau) for tau in range(1, n + 2)] + [PolicyY(wp), PolicyY(rest_bottom)]
    for phi in policies:
        P = ybar_matrix(spec, phi)
        try:
            expect = stationary_by_class(P)
        except NonUniqueStationaryError as exc:
            with pytest.raises(NonUniqueStationaryError) as err:
                stationary_pmf_y(spec, phi)
            assert err.value.classes == exc.classes
            continue
        got = stationary_pmf_y(spec, phi)
        (recurrent,) = [c for c, r in classes_by_search(P.tolist()) if r]
        assert np.flatnonzero(got).tolist() == recurrent
        assert np.all(expect[got == 0.0] == 0.0)
        assert np.max(np.abs(got - expect)) <= 1e-11


def _reference_pmf(spec, phi, states):
    """The stationary PMF on the recurrent states to 50 digits: the
    kernel's off-diagonal entries in mpmath from the float parameters,
    each diagonal entry 1 - the sum of its row's off-diagonal entries,
    and the balance equations with one row replaced by normalization
    solved by mpmath's LU."""
    n = spec.n_s
    with mpmath.workdps(50):
        mu, up, down, wp = (
            [mpmath.mpf(v) for v in a.tolist()] for a in (spec.mu, spec.rho_up, spec.rho_down, phi.work_prob)
        )
        P = mpmath.zeros(2 * n, 2 * n)
        for s in range(n):
            for i, work in ((s, wp[s]), (n + s, mpmath.mpf(1))):
                for t, move in ((s, 1 - up[s]), (s + 1, up[s])):
                    if t < n:
                        P[i, t] += work * move * mu[s]
                        P[i, n + t] += work * move * (1 - mu[s])
                for t, move in ((s, 1 - down[s]), (s - 1, down[s])):
                    if t >= 0:
                        P[i, t] += (1 - work) * move
        for i in range(2 * n):
            P[i, i] = 0
            P[i, i] = 1 - sum(P[i, j] for j in range(2 * n))
        k = len(states)
        A = mpmath.matrix([[P[j, i] - (i == j) for j in states] for i in states])
        for j in range(k):
            A[k - 1, j] = 1
        rhs = mpmath.zeros(k, 1)
        rhs[k - 1] = 1
        return [float(v) for v in mpmath.lu_solve(A, rhs)]


@pytest.mark.parametrize("n", [8, 20, 30])
def test_level_solve_is_accurate_entrywise(n):
    # relative error per state against a 50-digit solve, for a random
    # policy that works nowhere surely and for the same policy working
    # surely at level n // 3 + 1, which leaves the levels below transient;
    # the smallest masses lie between 1e-11 and 1e-5
    rng = np.random.default_rng([23, n])
    spec = _random_model(rng, n)
    wp = rng.uniform(0.05, 0.95, n)
    with_top = wp.copy()
    with_top[n // 3] = 1.0
    for low, phi in ((0, PolicyY(wp)), (n // 3, PolicyY(with_top))):
        got = stationary_pmf_y(spec, phi)
        states = [i for i in range(2 * n) if i % n >= low]
        assert np.flatnonzero(got).tolist() == states
        ref = np.array(_reference_pmf(spec, phi, states))
        assert np.max(np.abs(got[states] - ref) / ref) <= 1e-14


@pytest.mark.parametrize(
    ("wp", "level"),
    [((0.5, 0.5, 0.5), 2), ((1e-300, 0.5, 1.0 - 1e-16), 3)],
)
def test_level_solve_underflow_raises(wp, level):
    spec = ServerSpec(n_s=3, mu=[1e-300, 1e-300, 0.5], rho_up=[1e-300, 1e-300], rho_down=[1e-300, 1e-300])
    with pytest.raises(NumericalFailure, match=f"pivot .* at activity level {level} "):
        stationary_pmf_y(spec, PolicyY(wp))


def test_level_solve_uses_no_closure_and_no_lapack(monkeypatch, spec5):
    # the laws and rates of the reduced chain build no dense matrix and
    # call no LAPACK routine, also on a spec whose rates are not cached yet
    def boom(*args, **kwargs):
        raise AssertionError("called on the level solve's path")

    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, boom)
    for module in (chain, model):
        monkeypatch.setattr(module, "ybar_matrix", boom)
    fresh = ServerSpec(n_s=5, mu=spec5.mu, rho_up=spec5.rho_up, rho_down=spec5.rho_down)
    for spec in (fresh, spec5):
        for tau in range(2, 7):
            stationary_pmf_y(spec, threshold_policy(5, tau))
            threshold_rates(spec, tau)
        # the second policy's law is all at (1, A)
        for phi in (PolicyY([0.3, 1.0, 0.2, 0.7, 0.1]), PolicyY([0.0, 0.2, 0.4, 0.6, 0.8])):
            stationary_pmf_y(spec, phi)
            service_rate(spec, phi)
            utilization_rate_y(spec, phi)


def test_chain_rates_are_model_constants(spec5):
    # read once off the kernels, kept on the spec, unable to change, and
    # not carried into copies
    rates = chain._chain_rates(spec5)
    assert chain._chain_rates(spec5) is rates
    assert all(isinstance(r, tuple) for r in rates[:-1])
    with pytest.raises(ValueError, match="read-only"):
        rates.mu2[0] = 0.0
    np.testing.assert_array_equal(rates.mu2, np.concatenate([spec5.mu, spec5.mu]))
    assert "_chain_rates" not in vars(pickle.loads(pickle.dumps(spec5)))


def _split(pi, wp):
    """A law's state-action measure under work probabilities wp: work mass
    per reduced state, rest mass per available state."""
    n = len(wp)
    return [p * w for p, w in zip(pi, wp)] + list(pi[n:]), [p * (1.0 - w) for p, w in zip(pi, wp)]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    kinds=st.lists(st.sampled_from("01u"), min_size=30, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_balance_audit_matches_dense_residual(n, kinds, seed):
    # the one in-flow routine matches dense products to 1e-15: ||pi P - pi||
    # on ybar_matrix for the level solve's law and for vectors far from it,
    # and out-mass minus in-mass through P_W and P_R for solve_lp's measures
    rng = np.random.default_rng(seed)
    spec = _random_model(rng, n)
    phi = PolicyY([{"0": 0.0, "1": 1.0}.get(k, rng.uniform()) for k in kinds[:n]])
    P = ybar_matrix(spec, phi)
    rates, wp = chain._chain_rates(spec), phi.work_prob.tolist()
    vectors = [rng.random(2 * n) for _ in range(3)]
    try:
        vectors.append(stationary_pmf_y(spec, phi))
    except NonUniqueStationaryError:
        pass
    for v in vectors:
        pi = v / v.sum()
        assert abs(chain._balance_residual(rates, *_split(pi.tolist(), wp)) - balance_residual(P, pi)) <= 1e-15
    pi[-1] = np.nan
    assert math.isnan(chain._balance_residual(rates, *_split(pi.tolist(), wp)))

    pw, pr = model._kernel_matrices(spec)
    nu_star, _ = max_service_rate(spec)
    for nu_bar, eps in ((rng.uniform(0.0, nu_star), 0.0), (rng.uniform(0.0, nu_star), rng.uniform()), (nu_star, 1e-3)):
        res = solve_lp(spec, nu_bar, eps)
        if not res.feasible:
            continue
        m = res.measure
        inflow = np.concatenate([m.work_a, m.work_b]) @ pw + m.rest_a @ pr[:n]
        dense = np.max(np.abs(np.concatenate([m.work_a + m.rest_a, m.work_b]) - inflow))
        assert abs(m.flow_residual(spec) - dense) <= 1e-15


PINNED_PMF_OUTCOMES = {"solved": 713, "NonUniqueStationaryError": 147, "NumericalFailure": 370}
PINNED_PMF_DIGEST = "fd59b753e1eeda04ea1a73c4a673ce4553d61051f2231f4baa9f2fcc032492cb"


def _tiny_model(rng, n):
    # rates log-uniform down to 1e-300, so that many pivots underflow
    def draw(k):
        return 10.0 ** rng.uniform(-300.0, -0.5, k)

    return ServerSpec(n_s=n, mu=draw(n), rho_up=draw(n - 1), rho_down=draw(n - 1))


def test_stationary_pmf_pinned_outputs():
    # Every bit of every law is pinned, and every error by type, message
    # and classes: one seeded model per n_s = 1..30 with ordinary rates and
    # one with tiny rates, at every threshold and at two policies with
    # entries 0, 1 or U(0, 1), each also with phi(1) = 0. A change to the
    # arithmetic of the level solve changes the digest and has to
    # re-record it on purpose.
    h = hashlib.sha256()
    outcomes = collections.Counter()
    for tiny, make in ((False, _random_model), (True, _tiny_model)):
        for n in range(1, 31):
            rng = np.random.default_rng([25, n, tiny])
            spec = make(rng, n)
            policies = [threshold_policy(n, tau) for tau in range(1, n + 2)]
            for row in rng.integers(0, 3, (2, n)):
                wp = np.where(row == 0, 0.0, np.where(row == 1, 1.0, rng.uniform(size=n)))
                rest_bottom = wp.copy()
                rest_bottom[0] = 0.0
                policies += [PolicyY(wp), PolicyY(rest_bottom)]
            for phi in policies:
                try:
                    pi = stationary_pmf_y(spec, phi)
                except (NonUniqueStationaryError, NumericalFailure) as exc:
                    outcomes[type(exc).__name__] += 1
                    h.update(repr((type(exc).__name__, str(exc), getattr(exc, "classes", None))).encode())
                    continue
                outcomes["solved"] += 1
                h.update(pi.tobytes())
    assert dict(outcomes) == PINNED_PMF_OUTCOMES
    assert h.hexdigest() == PINNED_PMF_DIGEST


def test_threshold_policy_shape():
    phi = threshold_policy(5, 3)
    np.testing.assert_array_equal(phi.work_prob, [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        threshold_policy(5, 7)
    with pytest.raises(ValueError):
        threshold_policy(5, 0)


def test_threshold_rate_table(spec5):
    for tau, nu, u in REFERENCE_TABLE:
        got_nu, got_u = threshold_rates(spec5, tau)
        assert got_nu == pytest.approx(nu, abs=1e-12), f"tau={tau}"
        assert got_u == pytest.approx(u, abs=1e-12), f"tau={tau}"


def test_max_service_rate(spec5, spec2):
    assert max_service_rate(spec5) == (pytest.approx(0.3, abs=1e-12), 5)
    nu2, tau2 = max_service_rate(spec2)
    assert tau2 == 2
    assert nu2 == pytest.approx(0.4024390243902438, abs=1e-12)


def test_max_service_rate_single_state():
    spec = ServerSpec(n_s=1, mu=np.array([0.35]), rho_up=np.array([0.0]), rho_down=np.array([0.0]))
    nu, tau = max_service_rate(spec)
    # always-work completes at rate mu(1) every step
    assert (nu, tau) == (pytest.approx(0.35, abs=1e-15), 2)


def test_rates_need_positive_bottom_work(spec5):
    # tau = 1 rests everywhere when available; its chain sinks to (1, A)
    nu, u = threshold_rates(spec5, 1)
    assert nu == 0.0 and u == 0.0


def test_potential_identity_threshold_policies(spec5):
    for tau in range(2, 7):
        phi = threshold_policy(5, tau)
        P = ybar_matrix(spec5, phi)
        g = service_reward(spec5, phi)
        pot = potential_function(spec5, phi, g)
        resid = np.max(np.abs(g - (P @ pot.h - pot.h) - pot.r_avg))
        assert resid < 1e-9
        assert pot.r_avg == pytest.approx(service_rate(spec5, phi), abs=1e-10)
        assert pot.h.min() == 0.0


def test_potential_rejects_rewards_not_over_states(spec5):
    # only a vector over the 2 n_s reduced states is a reward; a matrix
    # over state pairs or a vector of another length is not
    phi = threshold_policy(5, 3)
    for reward in (np.zeros((10, 10)), np.zeros(5), 1.0):
        with pytest.raises(ValueError, match="reward must be a vector over the 10 reduced states"):
            potential_function(spec5, phi, reward)


_level_solve, _spsolve, _clip = chain._level_solve, spla.spsolve, np.clip  # before any test patches them


def _law_times_two(rates, wp, low):
    return [2.0 * p for p in _level_solve(rates, wp, low)]


def _uniform_law(rates, wp, low):
    return [1.0 / (2 * len(wp))] * (2 * len(wp))


def _spsolve_negative(A, rhs):
    x = _spsolve(A, rhs)
    x[-1] = -x.max()
    return x


def _clip_leaving_nan(a, *args, **kwargs):
    out = _clip(a, *args, **kwargs)
    out[0] = np.nan
    return out


@pytest.mark.parametrize(
    ("what", "quantity", "bound", "patch"),
    [
        ("stationary PMF", "normalization residual |total mass - 1|", 1e-10, (chain, "_level_solve", _law_times_two)),
        ("stationary PMF", "balance residual", 1e-10, (chain, "_level_solve", _uniform_law)),
        ("potential", "identity residual", 1e-9, None),
        ("truncated oracle", "negative mass", 1e-12, (sim.spla, "spsolve", _spsolve_negative)),
        ("truncated oracle", "balance residual", 1e-9, (sim.spla, "spsolve", lambda A, rhs: np.ones(rhs.size))),
        ("truncated oracle", "normalization residual", 1e-10, (np, "clip", _clip_leaving_nan)),
    ],
    ids=["pmf-normalization", "pmf-balance", "potential", "truncated-negative", "truncated-balance", "truncated-nan"],
)
def test_audit_failure_names_quantity_value_and_bound(monkeypatch, spec5, what, quantity, bound, patch):
    # each audit, broken, raises through model.audit: a law solved twice
    # over or uniform, a reward of 1e12 whose round-off exceeds the
    # identity's bound, and truncated solves with a negative entry, a
    # uniform answer, or a NaN left by the clip, which compares False
    # against the bound and must fail all the same
    if patch is not None:
        monkeypatch.setattr(*patch)
    phi = threshold_policy(5, 3)
    if what == "truncated oracle":
        run = lambda: sim.truncated_stationary(spec5, 0.15, lift_policy(phi), 8)  # noqa: E731
    elif what == "potential":
        run = lambda: potential_function(spec5, phi, 1e12 * service_reward(spec5, phi))  # noqa: E731
    else:
        run = lambda: stationary_pmf_y(spec5, phi)  # noqa: E731
    message = rf"^{what} audit: {re.escape(quantity)} (\d\.\d{{3}}e[+-]\d\d|nan) exceeds {bound:g}$"
    with pytest.raises(NumericalFailure, match=message):
        run()


def test_mixing_constants_recomputed(spec5):
    lam, eps = 0.15, 1e-3
    mc = mixing_constants(spec5, lam, eps, s_star=5)

    # recompute the printed products from scratch
    n = spec5.n_s
    two_n = 2 * n
    bt = (
        eps
        * lam
        * (1 - lam) ** two_n
        * np.min(1 - spec5.mu) ** two_n
        * np.min(spec5.mu)
        * np.prod(spec5.rho_down[1:])
        * np.prod(spec5.rho_up[:-1])
        * np.min((1 - spec5.rho_up) * (1 - spec5.rho_down)) ** two_n
    )
    at = eps * (1 - spec5.mu[-1]) ** two_n * np.prod(
        (1 - spec5.mu[:-1]) * spec5.rho_down[1:] * spec5.rho_up[:-1]
    )
    assert mc.beta_tilde == pytest.approx(bt, rel=1e-12)
    assert mc.alpha_tilde == pytest.approx(at, rel=1e-12)
    assert mc.K_eps == pytest.approx(1 / (1 - at), rel=1e-12)
    assert mc.sigma_eps ** two_n == pytest.approx(1 - at, rel=1e-9)
    assert mc.one_minus_sigma > 0.0
    assert mc.eta_eps == pytest.approx(
        4 * n + 2 * mc.K_eps * mc.sigma_eps ** (two_n + 1) / mc.one_minus_sigma, rel=1e-9
    )
    assert mc.beta == pytest.approx(lam * (1 - spec5.rho_down[4]) * bt, rel=1e-12)
    assert not mc.degenerate

    # constants scale linearly in eps through beta_tilde
    mc2 = mixing_constants(spec5, lam, 2 * eps, s_star=5)
    assert mc2.beta_tilde == pytest.approx(2 * mc.beta_tilde, rel=1e-12)


def test_mixing_constants_degenerate_and_s_star(spec5):
    mc0 = mixing_constants(spec5, 0.15, 0.0)
    assert mc0.degenerate
    assert mc0.beta_tilde == 0.0 and mc0.alpha_tilde == 0.0
    assert mc0.K_eps == 1.0
    # worst-case resolution picks the largest rho_down
    assert mc0.s_star == 5
    phi = threshold_policy(5, 3)
    mc1 = mixing_constants(spec5, 0.15, 1e-3, phi=phi)
    assert 1 <= mc1.s_star <= 5
    with pytest.raises(ValueError):
        mixing_constants(spec5, 0.15, 1e-3, s_star=9)


def test_decompose_pure_threshold(spec5):
    dec = decompose_dagger_policy(spec5, threshold_policy(5, 4))
    assert isinstance(dec, DaggerDecomposition)
    nu, u = dagger_rates(spec5, dec)
    assert nu == pytest.approx(0.19473684210526307, abs=1e-12)
    assert u == pytest.approx(0.6315789473684211, abs=1e-12)


def test_decompose_single_fraction_frozen(spec5):
    phi = PolicyY(np.array([1.0, 1.0, 0.0, 0.8, 0.0]))
    dec = decompose_dagger_policy(spec5, phi)
    assert (dec.tau1, dec.tau2) == (3, 5)
    assert dec.alpha == pytest.approx(0.38443056222969696, abs=1e-12)
    nu, u = dagger_rates(spec5, dec)
    assert nu == pytest.approx(service_rate(spec5, phi), abs=1e-12)
    assert u == pytest.approx(utilization_rate_y(spec5, phi), abs=1e-12)


def test_decompose_splits_stationary_pmf(spec5):
    phi = PolicyY(np.array([1.0, 0.35, 0.0, 0.0, 0.0]))
    dec = decompose_dagger_policy(spec5, phi)
    pi = stationary_pmf_y(spec5, phi)
    pi1 = stationary_pmf_y(spec5, threshold_policy(5, dec.tau1))
    pi2 = stationary_pmf_y(spec5, threshold_policy(5, dec.tau2))
    np.testing.assert_allclose((1 - dec.alpha) * pi1 + dec.alpha * pi2, pi, atol=1e-12)


def test_decompose_rejects_two_fractions(spec5):
    with pytest.raises(ValueError):
        decompose_dagger_policy(spec5, PolicyY(np.array([1.0, 0.5, 0.5, 0.0, 0.0])))


PINNED_DAGGER_OUTCOMES = {"decomposed": 6156, "ValueError": 36}
PINNED_DAGGER_DIGEST = "44d7a3ec2d591aeb3fd06f04f7d5ece1ff00307f20801e0ab2f85cc97c03cc15"


def test_decompose_dagger_policy_pinned_outputs():
    # Every bit of every decomposition is pinned, and every ValueError by
    # message: three seeded models per n_s = 1..6, every {0, 1}^n_s base,
    # alone and with each one entry replaced by 0.3, 0.77 or 1e-9, which
    # covers phi(1) = 0, a fraction and 1; then two fractions and a policy
    # of the wrong size on each model.
    h = hashlib.sha256()
    outcomes = collections.Counter()

    def record(spec, wp):
        try:
            dec = decompose_dagger_policy(spec, PolicyY(wp))
        except ValueError as exc:
            outcomes["ValueError"] += 1
            h.update(repr(("ValueError", str(exc))).encode())
            return
        outcomes["decomposed"] += 1
        h.update(repr((dec.tau1, dec.tau2, float(dec.alpha).hex(), dec.beta)).encode())

    for n in range(1, 7):
        rng = np.random.default_rng([26, n])
        for spec in [_random_model(rng, n) for _ in range(3)]:
            for bits in itertools.product((0.0, 1.0), repeat=n):
                base = np.array(bits)
                record(spec, base)
                for j in range(n):
                    for frac in (0.3, 0.77, 1e-9):
                        wp = base.copy()
                        wp[j] = frac
                        record(spec, wp)
            record(spec, np.full(n + 1, 0.5))
            record(spec, np.ones(n + 1))
    assert dict(outcomes) == PINNED_DAGGER_OUTCOMES
    assert h.hexdigest() == PINNED_DAGGER_DIGEST


def test_no_policy_beats_best_threshold(spec5):
    # 200 random policies with a working bottom state; the best
    # threshold rate is an upper bound on every service rate
    rng = np.random.default_rng(7)
    nu_star, _ = max_service_rate(spec5)
    for _ in range(200):
        wp = rng.random(5)
        wp[0] = max(wp[0], 0.05)
        nu = service_rate(spec5, PolicyY(wp))
        assert nu <= nu_star + 1e-9


def test_chain_mixes_from_any_start(spec5):
    phi = threshold_policy(5, 5)
    P = ybar_matrix(spec5, phi)
    pi = stationary_pmf_y(spec5, phi)
    Pk = np.linalg.matrix_power(P, 4096)
    for row in Pk:
        assert np.max(np.abs(row - pi)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_threshold_rates_bounded_by_mu(data):
    n = data.draw(st.integers(2, 4))
    unit = st.floats(0.05, 0.95)
    spec = ServerSpec(
        n_s=n,
        mu=np.array(data.draw(st.lists(unit, min_size=n, max_size=n))),
        rho_up=np.array(data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1)) + [0.0]),
        rho_down=np.array([0.0] + data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1))),
    )
    for tau in range(1, n + 2):
        nu, u = threshold_rates(spec, tau)
        assert -1e-12 <= nu <= spec.mu.max() + 1e-12
        assert -1e-12 <= u <= 1.0 + 1e-12
        assert nu <= u + 1e-12  # completing requires working
