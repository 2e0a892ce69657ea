"""Exact finite-chain analysis of the reduced process.

Stationary PMFs, communicating classes, service and utilization rates,
threshold policies and the best achievable service rate, the
potential-like (relative value) function, the mixing and contraction
constants, and the reduction of almost-deterministic policies to
mixtures of threshold policies.

The reduced chain's law (stationary_pmf_y) comes from GTH elimination
level by level in activity-state order, in time linear in n_s, with
its recurrent class read off the policy; stationary_pmf solves any
stochastic matrix densely on its one recurrent class.
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
    y_index,
    ybar_matrix,
)

BALANCE_TOL = 1e-10
NEGATIVE_TOL = 1e-12  # round-off below zero a solve may leave before clipping
IDENTITY_TOL = 1e-9
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class NonUniqueStationaryError(ValueError):
    """Raised when a chain has several recurrent classes and therefore
    no unique stationary PMF. Carries the full class partition."""

    def __init__(self, classes):
        self.classes = classes
        rec = sum(1 for _, r in classes if r)
        super().__init__(f"non-unique stationary PMF: {rec} recurrent classes")


def _closure(P: np.ndarray) -> np.ndarray:
    """Reachability of the support graph of P, whose edges are the
    entries > 0: Warshall's boolean closure, n vectorized passes, which
    at the few dozen states of a reduced chain is faster than a graph
    search in Python. Entry [i, j] is True iff j is reachable from i,
    each state reaching itself."""
    n = P.shape[0]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k, None] & reach[k]
    return reach


def _classes(reach: np.ndarray):
    # Row i of the mutual-reachability matrix is i's class; the class is
    # listed at its smallest member and is closed iff i reaches no more.
    reach_rows = reach.tolist()
    return [
        ([j for j, m in enumerate(row) if m], row == reach_rows[i])
        for i, row in enumerate((reach & reach.T).tolist())
        if not any(row[:i])
    ]


def communicating_classes(P: np.ndarray):
    """Communicating classes of the support graph of P, whose edges are
    the entries > 0.

    Returns a list of (states, recurrent) pairs, ordered by smallest
    member, where states is a sorted list of indices and recurrent is
    True iff the class has no outgoing edge.
    """
    return _classes(_closure(np.asarray(P)))


def _audit(pi: np.ndarray, P: np.ndarray) -> np.ndarray:
    # "not r <= tol" so that a NaN residual fails too
    if not abs(pi.sum() - 1.0) <= BALANCE_TOL:
        raise NumericalFailure("stationary PMF fails sign or normalization checks")
    if not np.max(np.abs(pi @ P - pi)) <= BALANCE_TOL:
        raise NumericalFailure("stationary PMF fails balance checks")
    return pi


def stationary_pmf(P: np.ndarray) -> np.ndarray:
    """Unique stationary PMF of P, zeros off the recurrent class.

    Solves the balance equations with the normalization row replacing
    one balance row. When every state reaches every other, which the
    reachability closure shows, the chain is irreducible and the system
    is that of P itself; otherwise the classes are listed from the same
    closure and the system is restricted to the recurrent class. Raises
    ValueError unless P is square with entries in [0, 1] and rows
    summing to 1 within BALANCE_TOL, NonUniqueStationaryError if more
    than one class is recurrent, and NumericalFailure when the answer
    fails its sign, normalization or balance audit.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
        raise ValueError(f"P must be a nonempty square matrix, got shape {P.shape}")
    if not np.all((P >= 0.0) & (P <= 1.0)):
        raise ValueError("P must have finite entries in [0, 1]")
    row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
    if not row_err <= BALANCE_TOL:
        raise ValueError(f"P rows must sum to 1: off by up to {row_err:.3e}, more than {BALANCE_TOL}")
    reach = _closure(P)
    members = None
    sub = P
    if not reach.all():
        classes = _classes(reach)
        recurrent = [c for c, r in classes if r]
        if len(recurrent) != 1:
            raise NonUniqueStationaryError(classes)
        members = recurrent[0]
        sub = P[np.ix_(members, members)]
    k = sub.shape[0]
    A = sub.T - np.eye(k)
    A[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"stationary solve failed: {exc}") from exc
    if members is not None:
        pi_sub, pi = pi, np.zeros(P.shape[0])
        pi[members] = pi_sub
    pi[np.abs(pi) < 1e-15] = 0.0
    if np.any(pi < -NEGATIVE_TOL) or not abs(pi.sum() - 1.0) <= BALANCE_TOL:
        raise NumericalFailure("stationary PMF fails sign or normalization checks")
    np.maximum(pi, 0.0, out=pi)
    pi /= pi.sum()
    return _audit(pi, P)


def stationary_pmf_y(spec: ServerSpec, phi: PolicyY) -> np.ndarray:
    """Unique stationary PMF of the reduced chain under phi, zeros off
    its recurrent class.

    In activity-level order the reduced chain is block tridiagonal with
    2 x 2 blocks over (A, B): the level moves by at most one per step,
    and only a rest at (s, A) moves it down. GTH elimination (Grassmann,
    Taksar & Heyman 1985) censors out the levels from n_s down to the
    lowest recurrent level b without fill, then recovers the levels
    upward; every pivot is a sum of out-flows and no step subtracts.
    The blocks are read off ybar_matrix, whose P also audits the answer.

    ServerSpec keeps mu and the interior rho in (0, 1), which fixes the
    recurrent class. With T the top level where phi works surely (0 if
    none): if phi(1) > 0 it is every state at levels max(T, 1)..n_s;
    if phi(1) = 0 and T = 0 it is (1, A) alone; if phi(1) = 0 and
    T >= 2, (1, A) and the levels from T up are two recurrent classes
    and NonUniqueStationaryError carries the partition. Raises
    NumericalFailure when a pivot or the total mass is not a finite
    normal float, or the answer fails its normalization or balance audit.
    """
    P = ybar_matrix(spec, phi)
    n = spec.n_s
    wp = phi.work_prob.tolist()
    top = max((s for s, f in enumerate(wp, 1) if f == 1.0), default=0)
    if wp[0] > 0.0:
        pi = _level_solve(P, n, max(top, 1) - 1)
    elif top == 0:
        pi = np.zeros(2 * n)
        pi[0] = 1.0
    else:
        raise NonUniqueStationaryError(communicating_classes(P))
    return _audit(pi, P)


def _pivot(value: float, level: int) -> float:
    # a subnormal pivot has already lost digits to underflow
    if not _TINY <= value < math.inf:
        raise NumericalFailure(f"level solve pivot {value:.3e} at activity level {level} is not a finite normal float")
    return value


def _level_solve(P: np.ndarray, n: int, low: int) -> np.ndarray:
    """GTH on the levels low..n-1 (0-based) of the reduced chain, the
    levels below low carrying no mass; the censored chain at level low
    must have no down-flow."""
    P4 = P.reshape(2, n, 2, n)
    (_, x), (y, _) = np.diagonal(P4, 0, 1, 3).tolist()  # x[i]: (i, A) -> (i, B); y[i]: back
    up = np.diagonal(P4, 1, 1, 3).tolist()  # up[w][v][i]: (i, w) -> (i + 1, v)
    down = np.diagonal(P4, -1, 1, 3).tolist()  # down[w][v][i]: (i + 1, w) -> (i, v)
    (uaa, uba), (uab, ubb) = (up[0][0], up[1][0]), (up[0][1], up[1][1])
    (daa, dba), (dab, dbb) = (down[0][0], down[1][0]), (down[0][1], down[1][1])
    inv = [None] * n  # adjugate and determinant of I - L_i, L_i the censored block of level i
    for i in range(n - 1, low, -1):
        # censor level i out: from (i, w) the chain next enters level i - 1
        # at (i - 1, v) w.p. m_wv, which reroutes level i - 1's up-flows
        j = i - 1
        xi, yi, d_aa, d_ab, d_ba, d_bb = x[i], y[i], daa[j], dab[j], dba[j], dbb[j]
        da, db = d_aa + d_ab, d_ba + d_bb
        det = _pivot(xi * db + yi * da + da * db, i + 1)
        inv[i] = k_aa, k_ab, k_ba, k_bb, _ = yi + db, xi, yi, xi + da, det
        m_aa = (k_aa * d_aa + k_ab * d_ba) / det
        m_ab = (k_aa * d_ab + k_ab * d_bb) / det
        m_ba = (k_ba * d_aa + k_bb * d_ba) / det
        m_bb = (k_ba * d_ab + k_bb * d_bb) / det
        x[j] += uaa[j] * m_ab + uab[j] * m_bb
        y[j] += uba[j] * m_aa + ubb[j] * m_ba
    # level low alone: a two-state chain with out-flows x and y
    _pivot(x[low] + y[low], low + 1)
    pa, pb = [0.0] * n, [0.0] * n
    pa[low], pb[low] = y[low], x[low]
    for i in range(low + 1, n):
        j = i - 1
        ra, rb = pa[j] * uaa[j] + pb[j] * uba[j], pa[j] * uab[j] + pb[j] * ubb[j]
        k_aa, k_ab, k_ba, k_bb, det = inv[i]
        pa[i] = (ra * k_aa + rb * k_ba) / det
        pb[i] = (ra * k_ab + rb * k_bb) / det
    total = sum(pa) + sum(pb)
    if not _TINY <= total < math.inf:
        raise NumericalFailure(f"level solve total mass {total:.3e} is not a finite normal float")
    return np.array(pa + pb) / total


def service_rate(spec: ServerSpec, phi: PolicyY, pi: np.ndarray | None = None) -> float:
    """Stationary expected completions per step of the reduced chain:
    sum over states of mu(s) * phi(y) * pi(y)."""
    if pi is None:
        pi = stationary_pmf_y(spec, phi)
    mu2 = np.concatenate([spec.mu, spec.mu])
    return float(np.dot(pi * phi.full, mu2))


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
    """Relative-value vector h >= 0 with min 0, and the average reward.

    Satisfies, at every state m:
    E[R(next, m)] - (E[h(next) | m] - h(m)) = r_avg.
    """

    h: np.ndarray
    r_avg: float


def potential_function(P: np.ndarray, reward) -> PotentialFunction:
    """Solve the average-reward identity for a chain with one recurrent
    class.

    reward is either a vector g over states (reward earned on leaving
    state m) or a matrix with reward[m, m'] earned on the transition
    m -> m'; only the conditional expectation g(m) enters. The anchor
    state is the first state with stationary mass, which is recurrent
    because the stationary PMF vanishes off the recurrent class; the
    linear system for the remaining states is (I - P) restricted to
    them, which is weakly chained diagonally dominant and hence
    nonsingular.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    reward = np.asarray(reward, dtype=float)
    if reward.ndim == 2:
        g = np.einsum("ij,ij->i", P, reward)
    elif reward.ndim == 1:
        g = reward
    else:
        raise ValueError("reward must be a vector over states or a matrix over state pairs")

    pi = stationary_pmf(P)  # raises on multiple recurrent classes
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
    resid = np.max(np.abs(g - (P @ h - h) - r_avg))
    if not np.isfinite(resid) or resid > IDENTITY_TOL:
        raise NumericalFailure(f"potential identity residual {resid:.3e} exceeds {IDENTITY_TOL}")
    return PotentialFunction(h=h, r_avg=r_avg)


def service_reward(spec: ServerSpec, phi: PolicyY) -> np.ndarray:
    """Expected completion probability per step as a state reward:
    g(y) = phi(y) * mu(s). Its average is the service rate."""
    mu2 = np.concatenate([spec.mu, spec.mu])
    return phi.full * mu2


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
            pot = potential_function(ybar_matrix(spec, phi), service_reward(spec, phi))
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


def _dagger_parts(phi: PolicyY):
    wp = phi.work_prob
    frac = np.flatnonzero((wp > 0.0) & (wp < 1.0))
    if frac.size > 1:
        raise ValueError("policy randomizes at more than one available state")
    ones = np.flatnonzero(wp == 1.0)
    t_cap = int(ones[-1]) + 1 if ones.size else 0
    s_rand = int(frac[0]) + 1 if frac.size else None
    gamma = float(wp[frac[0]]) if frac.size else None
    return t_cap, s_rand, gamma


def _mix_alpha(spec: ServerSpec, tau1: int, tau2: int, gamma: float) -> float:
    """Mixture weight matching the randomization gamma at (tau2-1, A)."""
    i = y_index(spec.n_s, tau2 - 1, Availability.A)
    b = stationary_pmf_y(spec, threshold_policy(spec.n_s, tau1))[i]
    a = stationary_pmf_y(spec, threshold_policy(spec.n_s, tau2))[i]
    return gamma * b / (gamma * b + (1.0 - gamma) * a)


def decompose_dagger_policy(spec: ServerSpec, phi: PolicyY) -> DaggerDecomposition:
    """Express the long-run rates of a policy that is deterministic
    except at most one available state through threshold policies.

    Case phi(1,A) = 1: the recurrent class is {s >= T} with
    T = max{s : phi(s,A) = 1}; randomization below T is transient and
    invisible, randomization at s' > T mixes the thresholds T+1 and
    s'+1. Case phi(1,A) in (0,1): with T > 0 the rates are those of
    threshold T+1; with T = 0 the policy mixes always-rest with
    threshold 2. Case phi(1,A) = 0: (1,A) is absorbing; with T = 0 the
    rates are (0,0), with T > 0 there are two recurrent classes and
    beta is reported as None (free in [0, 1]).
    """
    if phi.n_s != spec.n_s:
        raise ValueError("policy size does not match spec")
    t_cap, s_rand, gamma = _dagger_parts(phi)
    p1 = float(phi.work_prob[0])

    if p1 == 1.0:
        if s_rand is None or s_rand < t_cap:
            return DaggerDecomposition(t_cap + 1, t_cap + 1, 0.0, 1.0)
        tau1, tau2 = t_cap + 1, s_rand + 1
        return DaggerDecomposition(tau1, tau2, _mix_alpha(spec, tau1, tau2, gamma), 1.0)

    if p1 > 0.0:
        # the single randomized state is (1, A) itself
        if t_cap > 0:
            return DaggerDecomposition(t_cap + 1, t_cap + 1, 0.0, 1.0)
        # always-rest has all mass at (1, A), so its weight in the
        # gamma identity is exactly 1.
        i = y_index(spec.n_s, 1, Availability.A)
        a = stationary_pmf_y(spec, threshold_policy(spec.n_s, 2))[i]
        alpha = p1 / (p1 + (1.0 - p1) * a)
        return DaggerDecomposition(1, 2, alpha, 1.0)

    if t_cap == 0:
        return DaggerDecomposition(1, 1, 0.0, None)
    if s_rand is not None and s_rand > t_cap:
        tau1, tau2 = t_cap + 1, s_rand + 1
        return DaggerDecomposition(tau1, tau2, _mix_alpha(spec, tau1, tau2, gamma), None)
    return DaggerDecomposition(t_cap + 1, t_cap + 1, 0.0, None)


def dagger_rates(spec: ServerSpec, dec: DaggerDecomposition, beta: float = 1.0):
    """Evaluate the mixture (service, utilization) for a decomposition.

    beta is only consulted when the decomposition left it free.
    """
    scale = dec.beta if dec.beta is not None else beta
    nu1, u1 = threshold_rates(spec, dec.tau1)
    nu2, u2 = threshold_rates(spec, dec.tau2)
    nu = scale * ((1.0 - dec.alpha) * nu1 + dec.alpha * nu2)
    u = scale * ((1.0 - dec.alpha) * u1 + dec.alpha * u2)
    return nu, u
