"""Built-in verification suite.

Eleven checks covering the rate table, the frontier, the LP, the
decomposition and potential identities, synthesis, distributional
convergence, and simulation agreement. Numeric targets are frozen
reproduction values for the bundled example model, so the first three
checks flag any perturbed config; the identity checks apply to any
valid model.

Each check returns (passed, detail, values); CHECKS names it and
run_all times it and wraps the outcome in a CheckResult.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chain import (
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
from .frontier import frontier, policy_from_occupation, solve_lp
from .model import PolicyY, ServerSpec, ybar_matrix
from .sim import SimConfig, qbd_stationary, simulate
from .synthesis import STABLE, classify_stability, lift_policy, synthesize

REFERENCE_NU = (0.0, 0.0347, 0.1993, 0.1947, 0.3000, 0.0500)
REFERENCE_U = (0.0, 0.2383, 0.4309, 0.6316, 0.8571, 1.0000)
REFERENCE_BREAKPOINTS = ((0.0, 0.0), (0.1993, 0.4309), (0.3000, 0.8571))
TABLE_TOL = 5e-4
DECOMPOSITION_POLICIES = 100  # random policies C7 decomposes
SYNTHESIS_DELTA = 0.05  # the gap C9 synthesizes for
CONVERGENCE_LAM = 0.15  # the arrival rate C10's service-rate targets and last-distance bound are set for


@dataclass(frozen=True)
class CheckResult:
    cid: str
    name: str
    passed: bool
    detail: str
    values: dict

    def line(self) -> str:
        """One console line; a timed check ends it with its wall seconds."""
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.cid} {self.name}: {self.detail}"
        if "seconds" in self.values:
            text += f" [{self.values['seconds']:.3f} s]"
        return text


def check_rate_table(spec: ServerSpec) -> tuple:
    """Threshold service and utilization rates match the reference
    table to its printed precision."""
    rows = [threshold_rates(spec, tau) for tau in range(1, spec.n_s + 2)]
    nus = [r[0] for r in rows]
    us = [r[1] for r in rows]
    if len(rows) != len(REFERENCE_NU):
        detail = f"config yields {len(rows)} thresholds, reference table has {len(REFERENCE_NU)}"
        return False, detail, {"nu": nus, "U": us}
    nu_err = max(abs(a - b) for a, b in zip(nus, REFERENCE_NU))
    u_err = max(abs(a - b) for a, b in zip(us, REFERENCE_U))
    ok = nu_err <= TABLE_TOL and u_err <= TABLE_TOL
    detail = f"max service-rate error {nu_err:.2e}, max utilization error {u_err:.2e} (tol {TABLE_TOL})"
    return ok, detail, {"nu": nus, "U": us, "nu_err": nu_err, "U_err": u_err}


def check_max_rate(spec: ServerSpec) -> tuple:
    nu_star, tau_star = max_service_rate(spec)
    ok = abs(nu_star - 0.3) <= TABLE_TOL and tau_star == 5
    detail = f"nu_star={nu_star:.6f} at tau={tau_star} (reference 0.3000 at tau=5)"
    return ok, detail, {"nu_star": nu_star, "tau_star": tau_star}


def check_frontier_shape(spec: ServerSpec) -> tuple:
    front = frontier(spec)
    bps = front.breakpoints
    values = {"breakpoints": [list(b) for b in bps]}
    if len(bps) != len(REFERENCE_BREAKPOINTS):
        return False, f"{len(bps)} breakpoints, reference has {len(REFERENCE_BREAKPOINTS)}", values
    bp_err = max(
        max(abs(x - rx), abs(y - ry))
        for (x, y), (rx, ry) in zip(bps, REFERENCE_BREAKPOINTS)
    )
    curve = front.sample(101)
    dy = np.diff(curve[:, 1])
    d2y = np.diff(dy)
    ok = bp_err <= TABLE_TOL and dy.min() >= -1e-12 and d2y.min() >= -1e-12
    detail = f"max breakpoint error {bp_err:.2e}, min slope {dy.min():.2e}, min curvature {d2y.min():.2e}"
    return ok, detail, {**values, "bp_err": bp_err}


def _nu_grid(nu_star: float, num: int = 21) -> np.ndarray:
    return np.linspace(0.01 * nu_star, 0.99 * nu_star, num)


def check_lp_hull(spec: ServerSpec) -> tuple:
    """LP at a zero floor equals the hull frontier on a service-rate
    grid; the two are computed by independent routes."""
    front = frontier(spec)
    worst = 0.0
    for nu in _nu_grid(front.nu_star):
        res = solve_lp(spec, float(nu), 0.0)
        if not res.feasible:
            return False, f"LP infeasible at nu_bar={nu:.6f}", {}
        worst = max(worst, abs(res.value - front(float(nu))))
    return worst <= 1e-6, f"max |LP - hull| = {worst:.2e} over 21 grid values (tol 1e-06)", {"max_gap": worst}


def _c5_nu(front) -> float:
    # frozen reference point when inside the achievable range
    return 0.25 if front.nu_star > 0.25 else 5.0 / 6.0 * front.nu_star


def check_eps_continuity(spec: ServerSpec) -> tuple:
    front = frontier(spec)
    nu_ref = _c5_nu(front)
    base = front(nu_ref)
    eps_list = [10.0 ** (-k) for k in range(1, 7)]
    values = []
    for eps in eps_list:
        res = solve_lp(spec, nu_ref, eps)
        if not res.feasible:
            return False, f"LP infeasible at eps={eps}", {}
        values.append(res.value)
    nonincreasing = all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))
    final_gap = values[-1] - base

    rising = []
    for nu in _nu_grid(front.nu_star):
        res = solve_lp(spec, float(nu), 1e-4)
        if not res.feasible:
            return False, f"LP infeasible at nu_bar={nu:.6f}, eps=1e-4", {}
        rising.append(res.value)
    nondecreasing = all(rising[i] <= rising[i + 1] + 1e-9 for i in range(len(rising) - 1))

    ok = nonincreasing and final_gap <= 1e-4 and nondecreasing
    detail = (
        f"values nonincreasing in eps: {nonincreasing}, final gap {final_gap:.2e} (tol 1e-04), "
        f"nondecreasing in nu_bar at eps=1e-4: {nondecreasing}"
    )
    return ok, detail, {"eps_values": values, "final_gap": final_gap, "grid_values": rising}


def check_extraction_roundtrip(spec: ServerSpec) -> tuple:
    """The policy extracted from the LP measure reproduces the measure's
    service and utilization rates through its own stationary PMF."""
    front = frontier(spec)
    nu_ref = _c5_nu(front)
    eps = 1e-3
    res = solve_lp(spec, nu_ref, eps)
    if not res.feasible:
        return False, f"LP infeasible at nu_bar={nu_ref}", {}
    phi = policy_from_occupation(res.measure)
    floor = float(phi.work_prob[0])
    pi = stationary_pmf_y(spec, phi)
    nu_phi = service_rate(spec, phi, pi)
    u_phi = utilization_rate_y(spec, phi, pi)
    nu_err = abs(nu_phi - nu_ref)
    u_err = abs(u_phi - res.value)
    ok = floor >= eps - 1e-12 and nu_err <= 1e-8 and u_err <= 1e-8
    detail = (
        f"phi(1,A)={floor:.4g} (floor {eps}), |nu - {nu_ref}| = {nu_err:.2e}, "
        f"|U - LP| = {u_err:.2e} (tol 1e-08)"
    )
    return ok, detail, {"floor": floor, "nu_err": nu_err, "u_err": u_err, "lp_value": res.value}


def _random_dagger_policy(rng, n_s: int) -> PolicyY:
    wp = np.zeros(n_s)
    wp[0] = 1.0
    if n_s > 1:
        wp[1:] = rng.integers(0, 2, size=n_s - 1).astype(float)
        if rng.random() < 0.5:
            j = int(rng.integers(1, n_s))
            wp[j] = float(rng.uniform(0.05, 0.95))
    return PolicyY(work_prob=wp)


def check_decomposition(spec: ServerSpec, seed: int) -> tuple:
    """Rates and stationary PMFs of almost-deterministic policies with
    a working lowest state match their threshold mixture."""
    rng = np.random.default_rng(seed)
    worst_rate = 0.0
    worst_pmf = 0.0
    for _ in range(DECOMPOSITION_POLICIES):
        phi = _random_dagger_policy(rng, spec.n_s)
        dec = decompose_dagger_policy(spec, phi)
        nu_mix, u_mix = dagger_rates(spec, dec)
        pi = stationary_pmf_y(spec, phi)
        nu_d = service_rate(spec, phi, pi)
        u_d = utilization_rate_y(spec, phi, pi)
        worst_rate = max(worst_rate, abs(nu_mix - nu_d), abs(u_mix - u_d))
        pi1 = stationary_pmf_y(spec, threshold_policy(spec.n_s, dec.tau1))
        pi2 = stationary_pmf_y(spec, threshold_policy(spec.n_s, dec.tau2))
        mix = (1.0 - dec.alpha) * pi1 + dec.alpha * pi2
        worst_pmf = max(worst_pmf, float(np.max(np.abs(pi - mix))))
    ok = worst_rate <= 1e-9 and worst_pmf <= 1e-9
    detail = (
        f"max rate error {worst_rate:.2e}, max PMF-split error {worst_pmf:.2e} "
        f"over {DECOMPOSITION_POLICIES} random policies (tol 1e-09)"
    )
    return ok, detail, {"rate_err": worst_rate, "pmf_err": worst_pmf}


def check_potential(spec: ServerSpec) -> tuple:
    """The bias identity holds at every reduced state for the service
    reward of each threshold policy, and its average reward is the
    service rate."""
    worst_res = 0.0
    worst_avg = 0.0
    for tau in range(2, spec.n_s + 2):
        phi = threshold_policy(spec.n_s, tau)
        P = ybar_matrix(spec, phi)
        g = service_reward(spec, phi)
        pf = potential_function(spec, phi, g)
        resid = float(np.max(np.abs(g - (P @ pf.h - pf.h) - pf.r_avg)))
        nu_tau, _ = threshold_rates(spec, tau)
        worst_res = max(worst_res, resid)
        worst_avg = max(worst_avg, abs(pf.r_avg - nu_tau))
    ok = worst_res <= 1e-9 and worst_avg <= 1e-10
    detail = (
        f"max identity residual {worst_res:.2e} (tol 1e-09), "
        f"max |r_avg - service rate| {worst_avg:.2e} (tol 1e-10)"
    )
    return ok, detail, {"residual": worst_res, "avg_err": worst_avg}


def check_synthesis(spec: ServerSpec, lam: float) -> tuple:
    result = synthesize(spec, lam, SYNTHESIS_DELTA)
    target = frontier(spec)(lam) + SYNTHESIS_DELTA
    label = classify_stability(spec, lam, result.policy)
    ok = (
        label == STABLE
        and result.verified_utilization <= target + 1e-12
        and result.tail_mass < 1e-10
    )
    detail = (
        f"classified {label}, oracle utilization {result.verified_utilization:.6f} "
        f"<= {target:.6f}, stationary mass {result.tail_mass:.2e} above queue level {result.q_max_used}"
    )
    return ok, detail, {
        "eps": result.eps_star,
        "nu_bar": result.nu_star_rate,
        "predicted": result.predicted_utilization,
        "verified": result.verified_utilization,
        "tail": result.tail_mass,
        "q_max": result.q_max_used,
    }


def check_convergence(spec: ServerSpec) -> tuple:
    """The reduced stationary PMF is approached by the busy-queue
    marginal as the service-rate target drops toward the arrival rate
    CONVERGENCE_LAM, and the quantitative tail and distance bounds
    hold."""
    lam, eps = CONVERGENCE_LAM, 1e-3
    nus = (0.25, 0.20, 0.17, 0.16, 0.155)
    dists = []
    bounds_ok = True
    for nu in nus:
        res = solve_lp(spec, nu, eps)
        if not res.feasible:
            return False, f"LP infeasible at nu_bar={nu}", {}
        phi = policy_from_occupation(res.measure)
        theta = lift_policy(phi)
        pmf = qbd_stationary(spec, lam, theta)
        dist = float(np.sum(np.abs(stationary_pmf_y(spec, phi) - pmf.y_marginal)))
        dists.append(dist)
        mc = mixing_constants(spec, lam, eps, phi=phi)
        gap = nu - lam
        dist_bound = (mc.beta + mc.eta_eps) / mc.beta * np.sqrt(gap) + 3.0 / mc.beta * gap
        empty_bound = gap / mc.beta
        if not (dist <= dist_bound and pmf.empty_mass() <= empty_bound):
            bounds_ok = False
    decreasing = all(dists[i + 1] < dists[i] + 1e-12 for i in range(len(dists) - 1))
    ok = decreasing and dists[-1] < 0.05 and bounds_ok
    detail = (
        f"L1 distances {[f'{d:.4f}' for d in dists]} decreasing: {decreasing}, "
        f"last < 0.05: {dists[-1] < 0.05}, bounds hold: {bounds_ok}"
    )
    return ok, detail, {"nu_bars": list(nus), "distances": dists}


def check_simulation(spec: ServerSpec, lam: float, seed: int) -> tuple:
    """Pooled simulation estimates agree with the exact QBD oracle and
    the arrival rate within four standard errors."""
    _, tau_star = max_service_rate(spec)
    theta = lift_policy(threshold_policy(spec.n_s, tau_star))
    u_oracle = qbd_stationary(spec, lam, theta).utilization
    cfg = SimConfig(horizon=10**6, replications=10, seed=seed)
    sim = simulate(spec, lam, theta, cfg)
    u_dev = abs(sim.empirical_utilization - u_oracle)
    s_dev = abs(sim.empirical_service_rate - lam)
    ok = u_dev <= 4.0 * sim.utilization_se and s_dev <= 4.0 * sim.service_rate_se
    detail = (
        f"utilization {sim.empirical_utilization:.6f} vs oracle {u_oracle:.6f} "
        f"({u_dev / sim.utilization_se:.2f} SE), service rate "
        f"{sim.empirical_service_rate:.6f} vs {lam} ({s_dev / sim.service_rate_se:.2f} SE)"
    )
    return ok, detail, {
        "utilization": sim.empirical_utilization,
        "oracle_utilization": u_oracle,
        "utilization_se": sim.utilization_se,
        "service_rate": sim.empirical_service_rate,
        "service_rate_se": sim.service_rate_se,
    }


# (id, name, check, the run_all arguments it takes after the spec)
CHECKS = (
    ("C1", "rate table", check_rate_table, ()),
    ("C2", "maximal service rate", check_max_rate, ()),
    ("C3", "frontier breakpoints and shape", check_frontier_shape, ()),
    ("C4", "LP equals hull at eps=0", check_lp_hull, ()),
    ("C5", "eps continuity and monotonicity", check_eps_continuity, ()),
    ("C6", "extraction round-trip", check_extraction_roundtrip, ()),
    ("C7", "decomposition identities", check_decomposition, ("seed",)),
    ("C8", "potential identity", check_potential, ()),
    ("C9", "synthesis end-to-end", check_synthesis, ("lam",)),
    ("C10", "distributional convergence", check_convergence, ()),  # at CONVERGENCE_LAM: lam sets C9 and C11
    ("C11", "simulation vs oracle", check_simulation, ("lam", "seed")),
)


def run_all(spec: ServerSpec, seed: int = 0, lam: float = 0.15, only=None) -> list[CheckResult]:
    """Run the verification checks, returning a CheckResult per
    criterion with its wall time in values["seconds"]. lam is the
    arrival rate of C9 and C11. A check that raises is reported as
    failed, not propagated. only restricts to a set of criterion ids."""
    known = {cid for cid, *_ in CHECKS}
    wanted = known if only is None else {c.upper() for c in only}
    unknown = sorted(wanted - known)
    if unknown:
        raise ValueError(f"unknown criterion ids: {', '.join(unknown)}")
    given = {"lam": lam, "seed": seed}
    out = []
    for cid, name, check, params in CHECKS:
        if cid not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail, values = check(spec, *(given[p] for p in params))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            passed, detail, values = False, f"error: {exc}", {}
        values = {**values, "seconds": time.perf_counter() - start}
        out.append(CheckResult(cid, name, bool(passed), detail, values))
    return out
