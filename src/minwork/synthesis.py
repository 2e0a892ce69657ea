"""Policy lifting and projection between the reduced and full chains,
stability classification, and the gap-targeted synthesis procedure.

Synthesis turns a requested utilization gap delta into a concrete
stabilizing policy: it walks the frontier to a service-rate target,
tightens the LP floor parameter until the LP value is close enough to
the frontier, then backs the service rate toward the arrival rate
until the queue-aware utilization of the extracted policy is certified
by the exact QBD oracle on the uncapped queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import service_rate
from .frontier import (
    NotStabilizableError,
    frontier,
    policy_from_occupation,
    solve_lp,
)
from .model import NumericalFailure, PolicyX, PolicyY, ServerSpec, ServerState
from .sim import TruncatedPMF, qbd_stationary
from .sim import truncated_stationary_auto  # noqa: F401 - bench/tracing.py wraps it under this module

STABLE = "stable-irreducible-aperiodic"
NOT_GUARANTEED = "not-guaranteed"

EPS_GRID = tuple(10.0 ** (-k) for k in range(1, 9))
MAX_HALVINGS = 60  # service-rate halvings toward lam
TAIL_TOL = 1e-10  # stationary mass left above level q_max_used


class ProjectionUndefinedError(ValueError):
    """Projection denominator vanished at one or more reduced states."""

    def __init__(self, states):
        self.states = tuple(states)
        labels = ", ".join(f"(s={s}, {w})" for s, w in self.states)
        super().__init__(f"projection undefined at states with zero mass: {labels}")


class GapUnachievableError(ValueError):
    """The requested gap cannot be certified; reports the smallest one
    that can."""

    def __init__(self, message: str, smallest_gap: float):
        self.smallest_gap = float(smallest_gap)
        super().__init__(f"{message} (smallest certified gap: {self.smallest_gap:.6g})")


@dataclass(frozen=True)
class SynthesisResult:
    """A certified policy. verified_utilization, mean_queue and
    tail_decay (the spectral radius of R) come from the exact QBD
    oracle; q_max_used is the smallest queue level K whose stationary
    mass above K is below TAIL_TOL, and tail_mass is that mass."""

    eps_star: float
    nu_star_rate: float
    policy: PolicyX
    predicted_utilization: float
    bound_gap: float
    verified_utilization: float
    q_max_used: int
    tail_mass: float
    mean_queue: float
    tail_decay: float

    def __post_init__(self):
        if not 0.0 < self.eps_star <= 1.0:
            raise ValueError("eps_star must lie in (0, 1]")
        if self.bound_gap <= 0.0:
            raise ValueError("bound_gap must be positive")


def lift_policy(phi: PolicyY) -> PolicyX:
    """Queue-aware policy that rests on an empty queue and otherwise
    acts as phi: the two-row table [rest; phi], whose base is phi."""
    n = phi.n_s
    return PolicyX(np.stack([np.zeros((2, n)), np.stack([phi.work_prob, np.ones(n)])]))


def project_policy(theta: PolicyX, pi_x: TruncatedPMF) -> PolicyY:
    """Occupation-weighted average of theta over the queue, per reduced
    state. Sums run over the truncated support including q = 0."""
    n = pi_x.n_s
    work = theta.levels(pi_x.q_max)
    den = pi_x.y_totals()
    num = (work[1:] * pi_x.probs[n:].reshape(work[1:].shape)).sum(axis=0).reshape(-1)
    num[:n] += work[0, 0] * pi_x.probs[:n]

    dead = np.flatnonzero(den == 0.0)
    if dead.size:
        states = [ServerState(int(i % n) + 1, int(i // n)) for i in dead]
        raise ProjectionUndefinedError(states)
    ratio = num / den
    return PolicyY(work_prob=np.clip(ratio[:n], 0.0, 1.0))


def classify_stability(spec: ServerSpec, lam: float, theta: PolicyX) -> str:
    """Sufficient-condition label for the lifted chain: stable,
    irreducible and aperiodic when the base policy works with positive
    probability at the lowest available state and out-serves the
    arrival rate. The converse is not decided; a policy that is not a
    lifted PolicyX raises ValueError."""
    if not isinstance(theta, PolicyX):
        raise ValueError("classification requires a lifted policy")
    base = theta.base
    if base.in_phi_r_plus() and service_rate(spec, base) > lam:
        return STABLE
    return NOT_GUARANTEED


def synthesize(spec: ServerSpec, lam: float, delta: float) -> SynthesisResult:
    """Produce a stabilizing queue-aware policy whose utilization is
    within delta of the infimum at arrival rate lam.

    Steps: (1) service-rate target nu_dag whose frontier value is
    within delta/3 of the frontier at lam, found by halving toward lam;
    (2) smallest grid eps whose LP value at nu_dag is within delta/3 of
    the frontier there; (3) confirm the LP value is monotone in the
    service rate at that eps on the working grid, shrinking eps
    otherwise; (4) halve the service rate toward lam until the
    utilization of the extracted lifted policy, computed exactly by
    qbd_stationary, clears frontier(lam) + delta. A policy whose oracle
    audits fail raises NumericalFailure.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    front = frontier(spec)
    if not 0.0 < lam < front.nu_star:
        raise NotStabilizableError(
            f"arrival rate {lam} is not inside (0, {front.nu_star}); no stabilizing policy exists"
        )
    u_target = front(lam)

    nu_dag = None
    for j in range(1, 201):
        cand = lam + (front.nu_star - lam) * 2.0**-j
        if front(cand) <= u_target + delta / 3.0:
            nu_dag = cand
            break
    if nu_dag is None:
        raise NumericalFailure("service-rate target did not converge")

    lp_cache: dict[tuple[float, float], object] = {}

    def lp(eps, nu):
        key = (eps, nu)
        if key not in lp_cache:
            lp_cache[key] = solve_lp(spec, nu, eps)
        return lp_cache[key]

    eps_dag = None
    best_eps_gap = np.inf
    for eps in EPS_GRID:
        res = lp(eps, nu_dag)
        if not res.feasible:
            continue
        gap = res.value - front(nu_dag)
        best_eps_gap = min(best_eps_gap, gap)
        if gap <= delta / 3.0:
            eps_dag = eps
            break
    if eps_dag is None:
        raise GapUnachievableError(
            "no grid eps brings the LP within delta/3 of the frontier",
            smallest_gap=3.0 * best_eps_gap,
        )

    # monotonicity confirmation on the working service-rate grid
    working = [lam + (nu_dag - lam) * 2.0**-m for m in range(MAX_HALVINGS, 0, -1)]
    working.append(nu_dag)
    eps_star = None
    remaining = [e for e in EPS_GRID if e <= eps_dag]
    for eps in remaining:
        values = []
        ok = True
        for nu in (working[0], working[len(working) // 2], working[-1]):
            res = lp(eps, nu)
            if not res.feasible:
                ok = False
                break
            values.append(res.value)
        if ok and all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1)):
            eps_star = eps
            break
    if eps_star is None:
        raise NumericalFailure("LP value not monotone in the service rate on the working grid")

    def evaluate(nu):
        res = lp(eps_star, nu)
        if not res.feasible:
            raise NumericalFailure(f"LP infeasible at nu={nu}, eps={eps_star}")
        phi = policy_from_occupation(res.measure)
        theta = lift_policy(phi)
        return res, theta, qbd_stationary(spec, lam, theta)

    accepted = None
    best_util_gap = np.inf
    for m in range(1, MAX_HALVINGS + 1):
        nu_m = lam + (nu_dag - lam) * 2.0**-m
        if nu_m <= lam:
            break
        res, theta, pmf = evaluate(nu_m)
        best_util_gap = min(best_util_gap, max(pmf.utilization - u_target, 0.0))
        if pmf.utilization <= u_target + delta:
            accepted = (nu_m, res, theta, pmf)
            break
    if accepted is None:
        raise GapUnachievableError(
            "oracle utilization never cleared frontier(lam) + delta",
            smallest_gap=best_util_gap,
        )

    nu_sel, res, theta, pmf = accepted
    if res.value > u_target + delta + 1e-8:
        raise NumericalFailure("accepted LP value exceeds the certified gap")
    if pmf.utilization > u_target + delta + 1e-8:
        raise NumericalFailure("oracle utilization exceeds the certified gap")
    q_max_used, tail_mass = pmf.tail_level(TAIL_TOL)
    return SynthesisResult(
        eps_star=eps_star,
        nu_star_rate=nu_sel,
        policy=theta,
        predicted_utilization=res.value,
        bound_gap=delta,
        verified_utilization=pmf.utilization,
        q_max_used=q_max_used,
        tail_mass=tail_mass,
        mean_queue=pmf.mean_queue,
        tail_decay=pmf.tail_decay,
    )
