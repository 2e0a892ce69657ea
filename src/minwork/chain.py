"""Exact finite-chain analysis of the reduced process.

Stationary PMFs and recurrent classes, service and utilization rates,
threshold policies and the best achievable service rate, the
potential-like (relative value) function, the mixing and contraction
constants, and the reduction of almost-deterministic policies to
mixtures of threshold policies.

Every stationary law of the reduced chain comes from one solver,
stationary_pmf_y: GTH elimination level by level in activity-state
order, in time linear in n_s, with the recurrent classes read off the
policy (recurrent_sets). It reads the per-level rates of P_W and P_R
that the spec keeps (_chain_rates), builds no 2 n_s x 2 n_s matrix,
and audits its answer in O(n_s). There is no general-matrix solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Availability,
    NumericalFailure,
    PolicyY,
    ServerSpec,
    _kernel_matrices,
    audit,
    y_index,
    ybar_matrix,
)

BALANCE_TOL = 1e-10
NEGATIVE_TOL = 1e-12  # round-off below zero a solve may leave before clipping
IDENTITY_TOL = 1e-9
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class NonUniqueStationaryError(ValueError):
    """Raised when a chain has several recurrent classes and therefore
    no unique stationary PMF. Carries the recurrent classes, each a
    sorted list of state indices."""

    def __init__(self, classes):
        self.classes = classes
        super().__init__(f"non-unique stationary PMF: {len(classes)} recurrent classes")


def _top_sure_level(wp: list) -> int:
    """T, the top activity level (1-based) at which the work
    probabilities wp work surely, or 0 if they work surely nowhere."""
    return len(wp) - wp[::-1].index(1.0) if 1.0 in wp else 0


def recurrent_sets(phi: PolicyY) -> list[list[int]]:
    """Recurrent classes of the reduced chain under phi, as sorted lists
    of indices in the fixed state order, read off the policy.

    ServerSpec keeps mu and the interior rho in (0, 1) and rho_down(1)
    = 0, which fixes them. With T the top level where phi works surely
    (0 if none): if phi(1) > 0 the one class is every state at levels
    max(T, 1)..n_s; if phi(1) = 0, (1, A) is absorbing and is the first
    class, and when T >= 2 the levels from T up are a second one.
    """
    wp = phi.work_prob.tolist()
    n = len(wp)
    top = _top_sure_level(wp)
    classes = [[0]] if wp[0] == 0.0 else []
    if wp[0] > 0.0 or top > 0:
        low = max(top, 1) - 1
        classes.append([*range(low, n), *range(n + low, 2 * n)])
    return classes


class _ChainRates(NamedTuple):
    """The work kernel's and the rest kernel's rates at each activity
    level, as tuples of floats over levels 0..n_s-1 (0-based), and
    [mu | mu] over the reduced states. P_W's rows are the same at (s, A)
    and (s, B); P_R acts only at (s, A), since a busy server works."""

    stay_a: tuple  # work, the level stays, the job completes: (s, w) -> (s, A)
    stay_b: tuple  # work, the level stays, no completion: (s, w) -> (s, B)
    up_a: tuple  # work, up a level, completion: (s, w) -> (s + 1, A); n_s - 1 entries
    up_b: tuple  # work, up a level, no completion: (s, w) -> (s + 1, B); n_s - 1 entries
    rest_stay: tuple  # rest, the level stays: (s, A) -> (s, A)
    rest_down: tuple  # rest, down a level: rest_down[s] is (s + 1, A) -> (s, A); n_s - 1 entries
    mu2: np.ndarray


def _chain_rates(spec: ServerSpec) -> _ChainRates:
    """The rates the level solve and its audit read, read once off
    model._kernel_matrices' P_W and P_R, which stay their one source.
    The spec is immutable, so the first call keeps them on it; the
    tuples cannot change and mu2 is read-only."""
    cached = getattr(spec, "_chain_rates", None)
    if cached is not None:
        return cached
    n = spec.n_s
    pw, pr = _kernel_matrices(spec)
    lv, lo = np.arange(n), np.arange(n - 1)
    mu2 = np.concatenate([spec.mu, spec.mu])
    mu2.setflags(write=False)
    levels = (pw[lv, lv], pw[lv, n + lv], pw[lo, lo + 1], pw[lo, n + lo + 1], pr[lv, lv], pr[lo + 1, lo])
    rates = _ChainRates(*(tuple(a.tolist()) for a in levels), mu2)
    object.__setattr__(spec, "_chain_rates", rates)
    return rates


def _balance_residual(rates: _ChainRates, work: list, rest: list) -> float:
    """||out-flow - in-flow||_inf over all 2 n_s states of a state-action
    measure on the reduced chain: work[i] is the work mass at state i in
    the fixed order, rest[i] the rest mass at (i + 1, A). (s, A) sends
    out work + rest and (s, B) work. P_W's rows are the same at (s, A)
    and (s, B), so (s, A) gains the work mass of level s and s - 1 and,
    by a rest, the rest mass at (s, A) and (s + 1, A); (s, B) the same
    work mass alone. A NaN anywhere makes the residual NaN."""
    stay_a, stay_b, up_a, up_b, rest_stay, rest_down, _ = rates
    n = len(rest)
    worst = 0.0
    for i in range(n):
        wa, wb, r = work[i], work[n + i], rest[i]
        to_a = (wa + wb) * stay_a[i] + r * rest_stay[i]
        to_b = (wa + wb) * stay_b[i]
        if i:
            below = work[i - 1] + work[n + i - 1]
            to_a += below * up_a[i - 1]
            to_b += below * up_b[i - 1]
        if i < n - 1:
            to_a += rest[i + 1] * rest_down[i]
        for gap in (abs(to_a - (wa + r)), abs(to_b - wb)):
            if gap > worst or math.isnan(gap):
                worst = gap
    return worst


def stationary_pmf_y(spec: ServerSpec, phi: PolicyY) -> np.ndarray:
    """Unique stationary PMF of the reduced chain under phi, zeros off
    its recurrent class.

    In activity-level order the reduced chain is block tridiagonal with
    2 x 2 blocks over (A, B): the level moves by at most one per step,
    and only a rest at (s, A) moves it down, to (s - 1, A). GTH
    elimination (Grassmann, Taksar & Heyman 1985) censors out the levels
    from n_s down to the lowest recurrent level b without fill, then
    recovers the levels upward; every pivot is a sum or product of
    out-flows and no step subtracts. The flows are the spec's cached
    per-level rates of P_W and P_R (_chain_rates) times phi's work
    probabilities, on Python floats; no 2 n_s x 2 n_s matrix is built.
    The answer is audited for normalization and for balance over all
    2 n_s states, from the at most five in-flows of each, in O(n_s).

    The recurrent class comes from recurrent_sets: the levels from b
    up when phi(1) > 0, the law at (1, A) when phi(1) = 0 and phi works
    surely nowhere, and NonUniqueStationaryError carrying both classes
    when phi(1) = 0 and phi works surely at some level T >= 2. Raises
    ValueError when phi's size is not the spec's, and NumericalFailure
    when a pivot or the total mass is not a finite normal float, or the
    answer fails its normalization or balance audit.
    """
    if phi.n_s != spec.n_s:
        raise ValueError(f"policy must give {spec.n_s} work probabilities, got shape {phi.work_prob.shape}")
    rates = _chain_rates(spec)
    wp = phi.work_prob.tolist()
    classes = recurrent_sets(phi)
    if len(classes) > 1:
        raise NonUniqueStationaryError(classes)
    (members,) = classes
    if members == [0]:  # (1, A) alone
        pi = [0.0] * (2 * spec.n_s)
        pi[0] = 1.0
    else:
        pi = _level_solve(rates, wp, members[0])
    work = [p * w for p, w in zip(pi, wp)] + pi[spec.n_s :]
    rest = [p * (1.0 - w) for p, w in zip(pi, wp)]
    audit(
        "stationary PMF",
        ("normalization residual |total mass - 1|", abs(sum(pi) - 1.0), BALANCE_TOL),
        ("balance residual", _balance_residual(rates, work, rest), BALANCE_TOL),
    )
    return np.array(pi)


def _pivot(value: float, level: int) -> float:
    # a subnormal pivot has already lost digits to underflow
    if not _TINY <= value < math.inf:
        raise NumericalFailure(f"level solve pivot {value:.3e} at activity level {level} is not a finite normal float")
    return value


def _level_solve(rates: _ChainRates, wp: list, low: int) -> list:
    """GTH on the levels low..n-1 (0-based) of the reduced chain under
    the work probabilities wp, the levels below low carrying no mass;
    the censored chain at level low must have no down-flow. Returns
    the law over the 2 n states as a list."""
    stay_a, stay_b, up_a, up_b, _, rest_down, _ = rates
    n = len(wp)
    x = [w * r for w, r in zip(wp, stay_b)]  # x[i]: (i, A) -> (i, B)
    y = list(stay_a)  # y[i]: (i, B) -> (i, A), grown by the censoring below
    dets, k_bb = [0.0] * n, [0.0] * n
    for i in range(n - 1, low, -1):
        # censor level i out. The chain leaves it downward only by a rest
        # at (i, A), to (i - 1, A), so it next enters level i - 1 there:
        # level i - 1's up-flows from (i - 1, B) reroute to (i - 1, A),
        # and those from (i - 1, A) return to it and drop out
        down = (1.0 - wp[i]) * rest_down[i - 1]
        dets[i] = _pivot(y[i] * down, i + 1)  # det(I - L_i), L_i level i's censored block
        k_bb[i] = x[i] + down
        y[i - 1] += up_a[i - 1] + up_b[i - 1]
    # level low alone: a two-state chain with out-flows x and y
    _pivot(x[low] + y[low], low + 1)
    pa, pb = [0.0] * n, [0.0] * n
    pa[low], pb[low] = y[low], x[low]
    for i in range(low + 1, n):
        j = i - 1
        w = wp[j]
        ra = pa[j] * (w * up_a[j]) + pb[j] * up_a[j]
        rb = pa[j] * (w * up_b[j]) + pb[j] * up_b[j]
        # (ra, rb) times the adjugate [[y, x], [y, x + down]] of I - L_i
        pa[i] = (ra * y[i] + rb * y[i]) / dets[i]
        pb[i] = (ra * x[i] + rb * k_bb[i]) / dets[i]
    total = sum(pa) + sum(pb)
    if not _TINY <= total < math.inf:
        raise NumericalFailure(f"level solve total mass {total:.3e} is not a finite normal float")
    return [v / total for v in pa + pb]


def service_rate(spec: ServerSpec, phi: PolicyY, pi: np.ndarray | None = None) -> float:
    """Stationary expected completions per step of the reduced chain:
    sum over states of mu(s) * phi(y) * pi(y)."""
    if pi is None:
        pi = stationary_pmf_y(spec, phi)
    return float(np.dot(pi * phi.full, _chain_rates(spec).mu2))


def utilization_rate_y(spec: ServerSpec, phi: PolicyY, pi: np.ndarray | None = None) -> float:
    """Stationary probability of choosing to work."""
    if pi is None:
        pi = stationary_pmf_y(spec, phi)
    return float(np.dot(pi, phi.full))


def threshold_policy(n_s: int, tau: int) -> PolicyY:
    """Work when available iff s < tau; tau ranges over 1..n_s+1."""
    if not 1 <= tau <= n_s + 1:
        raise ValueError(f"tau must lie in 1..{n_s + 1}, got {tau}")
    return PolicyY(np.where(np.arange(1, n_s + 1) < tau, 1.0, 0.0))


def threshold_rates(spec: ServerSpec, tau: int):
    """(service rate, utilization rate) of the threshold policy."""
    phi = threshold_policy(spec.n_s, tau)
    pi = stationary_pmf_y(spec, phi)
    return service_rate(spec, phi, pi), utilization_rate_y(spec, phi, pi)


def max_service_rate(spec: ServerSpec):
    """Best service rate over threshold policies, with its threshold.

    tau = 1 never works when available, its chain sinks into (1, A),
    and it is scored zero. Ties go to the smaller tau.
    """
    best_nu, best_tau = 0.0, 1
    for tau in range(2, spec.n_s + 2):
        nu, _ = threshold_rates(spec, tau)
        if nu > best_nu:
            best_nu, best_tau = nu, tau
    return best_nu, best_tau


@dataclass(frozen=True)
class PotentialFunction:
    """Relative-value vector h >= 0 with min 0, the average reward, and
    residual, the largest violation over states m of
    g(m) - (E[h(next) | m] - h(m)) = r_avg,
    which potential_function has checked against IDENTITY_TOL.
    """

    h: np.ndarray
    r_avg: float
    residual: float


def potential_function(spec: ServerSpec, phi: PolicyY, reward) -> PotentialFunction:
    """Solve the average-reward identity for the reduced chain under a
    policy with one recurrent class.

    reward is a vector g over the 2 n_s reduced states, the reward
    earned on leaving each; anything else raises ValueError. P is
    ybar_matrix and the stationary PMF is stationary_pmf_y's, which
    raises NonUniqueStationaryError on two recurrent classes. The anchor
    state is the first state with stationary mass, which is recurrent
    because the stationary PMF vanishes off the recurrent class; the
    linear system for the remaining states is (I - P) restricted to
    them, which is weakly chained diagonally dominant and hence
    nonsingular.
    """
    P = ybar_matrix(spec, phi)
    n = P.shape[0]
    g = np.asarray(reward, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"reward must be a vector over the {n} reduced states, got shape {g.shape}")

    pi = stationary_pmf_y(spec, phi)
    r_avg = float(np.dot(pi, g))

    anchor = int(np.flatnonzero(pi)[0])
    keep = [i for i in range(n) if i != anchor]
    B = np.eye(n - 1) - P[np.ix_(keep, keep)]
    xi = r_avg - g[keep]
    try:
        f_keep = np.linalg.solve(B, xi)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"potential solve failed: {exc}") from exc
    f = np.zeros(n)
    f[keep] = f_keep
    h = f - f.min()
    resid = float(np.max(np.abs(g - (P @ h - h) - r_avg)))
    audit("potential", ("identity residual", resid, IDENTITY_TOL))
    return PotentialFunction(h=h, r_avg=r_avg, residual=resid)


def service_reward(spec: ServerSpec, phi: PolicyY) -> np.ndarray:
    """Expected completion probability per step as a state reward:
    g(y) = phi(y) * mu(s). Its average is the service rate."""
    return phi.full * _chain_rates(spec).mu2


@dataclass(frozen=True)
class MixingConstants:
    """Closed-form contraction and hitting constants.

    All are deliberately conservative products; for realistic instances
    beta is astronomically small and the bounds it enters hold
    vacuously. sigma_eps is kept alongside one_minus_sigma because for
    tiny alpha_tilde the difference from 1 underflows in sigma_eps
    itself.
    """

    beta_tilde: float
    alpha_tilde: float
    K_eps: float
    sigma_eps: float
    one_minus_sigma: float
    eta_eps: float
    beta: float
    s_star: int
    degenerate: bool


def mixing_constants(
    spec: ServerSpec,
    lam: float,
    eps: float,
    phi: PolicyY | None = None,
    s_star: int | None = None,
) -> MixingConstants:
    """Evaluate the printed product formulas.

    s_star resolution: explicit argument wins; otherwise, with a policy
    given, the argmax of the potential of its reduced chain over
    available states (ties to the smaller s); otherwise the worst case
    argmax of rho_down, which makes beta valid for every choice.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    n = spec.n_s
    two_n = 2 * n

    one_minus_mu_min = float(np.min(1.0 - spec.mu))
    mu_min = float(np.min(spec.mu))
    interior_prod = float(np.prod(spec.rho_down[1:]) * np.prod(spec.rho_up[:-1]))
    stay_min = float(np.min((1.0 - spec.rho_up) * (1.0 - spec.rho_down)))
    beta_tilde = (
        eps
        * lam
        * (1.0 - lam) ** two_n
        * one_minus_mu_min**two_n
        * mu_min
        * interior_prod
        * stay_min**two_n
    )
    alpha_tilde = eps * (1.0 - spec.mu[-1]) ** two_n * float(
        np.prod((1.0 - spec.mu[:-1]) * spec.rho_down[1:] * spec.rho_up[:-1])
    )

    K_eps = 1.0 / (1.0 - alpha_tilde)
    # 1 - sigma = 1 - (1-alpha)^(1/2n); expm1/log1p keep it nonzero for
    # alpha down to the denormal range.
    one_minus_sigma = -math.expm1(math.log1p(-alpha_tilde) / two_n)
    sigma_eps = 1.0 - one_minus_sigma
    if one_minus_sigma > 0.0:
        eta_eps = 4.0 * n + 2.0 * K_eps * sigma_eps ** (two_n + 1) / one_minus_sigma
    else:
        eta_eps = math.inf

    if s_star is None:
        if phi is not None:
            pot = potential_function(spec, phi, service_reward(spec, phi))
            s_star = int(np.argmax(pot.h[:n])) + 1
        else:
            s_star = int(np.argmax(spec.rho_down)) + 1
    if not 1 <= s_star <= n:
        raise ValueError(f"s_star must lie in 1..{n}")
    beta = lam * (1.0 - spec.rho_down[s_star - 1]) * beta_tilde

    return MixingConstants(
        beta_tilde=beta_tilde,
        alpha_tilde=alpha_tilde,
        K_eps=K_eps,
        sigma_eps=sigma_eps,
        one_minus_sigma=one_minus_sigma,
        eta_eps=eta_eps,
        beta=beta,
        s_star=s_star,
        degenerate=(eps == 0.0),
    )


class DaggerDecomposition(NamedTuple):
    """Reduction of an almost-deterministic policy to thresholds.

    The achievable (service, utilization) pairs are
    beta * ((1 - alpha) * rates(tau1) + alpha * rates(tau2)); beta is
    1.0 when the stationary PMF is unique and None when the chain has
    two recurrent classes, in which case every beta in [0, 1] is
    realized by some initial condition.
    """

    tau1: int
    tau2: int
    alpha: float
    beta: float | None


def _mix_alpha(spec: ServerSpec, tau1: int, tau2: int, gamma: float) -> float:
    """Mixture weight matching the randomization gamma at (tau2-1, A)."""
    i = y_index(spec.n_s, tau2 - 1, Availability.A)
    b = stationary_pmf_y(spec, threshold_policy(spec.n_s, tau1))[i]
    a = stationary_pmf_y(spec, threshold_policy(spec.n_s, tau2))[i]
    return gamma * b / (gamma * b + (1.0 - gamma) * a)


def decompose_dagger_policy(spec: ServerSpec, phi: PolicyY) -> DaggerDecomposition:
    """Express the long-run rates of a policy that is deterministic
    except at most one available state through threshold policies.

    One rule covers every case. T is the top level where phi works
    surely (0 if none), as recurrent_sets reads it; s is the randomized
    state, if any. Levels below max(T, 1) are transient, so a
    randomization there is invisible. If s > T and the chain leaves
    (1, A) (T >= 1 or phi(1, A) > 0), phi mixes thresholds T+1 and s+1
    with the weight that matches phi(s, A) at (s, A); when T = 0 this
    mixes always-rest with threshold 2. Otherwise the rates are those
    of threshold T+1 alone. beta is 1.0 when phi(1, A) > 0 and None
    (free in [0, 1]) when phi(1, A) = 0: (1, A) is then absorbing, and
    with T >= 2 the levels from T up are a second recurrent class; with
    T = 0 the rates are threshold 1's, (0, 0). Raises ValueError when
    phi's size is not the spec's or phi randomizes at two states.
    """
    if phi.n_s != spec.n_s:
        raise ValueError("policy size does not match spec")
    wp = phi.work_prob.tolist()
    frac = [s for s, p in enumerate(wp, 1) if 0.0 < p < 1.0]
    if len(frac) > 1:
        raise ValueError("policy randomizes at more than one available state")
    top = _top_sure_level(wp)
    beta = 1.0 if wp[0] > 0.0 else None
    if frac and frac[0] > top and (top >= 1 or wp[0] > 0.0):
        (s,) = frac
        return DaggerDecomposition(top + 1, s + 1, _mix_alpha(spec, top + 1, s + 1, wp[s - 1]), beta)
    return DaggerDecomposition(top + 1, top + 1, 0.0, beta)


def dagger_rates(spec: ServerSpec, dec: DaggerDecomposition):
    """The mixture's (service, utilization) rates, (1 - alpha) times
    threshold tau1's plus alpha times threshold tau2's: the rates at
    beta = 1, also when the decomposition leaves beta free."""
    nu1, u1 = threshold_rates(spec, dec.tau1)
    nu2, u2 = threshold_rates(spec, dec.tau2)
    nu = (1.0 - dec.alpha) * nu1 + dec.alpha * nu2
    u = (1.0 - dec.alpha) * u1 + dec.alpha * u2
    return nu, u
