"""Occupation-measure LP, policy extraction, and the utilization
frontier.

The LP minimizes the stationary probability of working subject to a
service-rate equality, stationarity of the state-action measure, and a
floor on the work probability at the bottom-left state. The frontier is
the lower convex hull of the threshold-policy rate pairs together with
the origin; the two constructions are implemented independently and
cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolicyY, ServerSpec, _kernel_matrices
from .chain import stationary_pmf_y, threshold_rates
from .simplex import solve_simplex

MASS_TOL = 1e-9


class NotStabilizableError(ValueError):
    """Requested arrival rate meets or exceeds the best service rate, or
    the service rate of the policy asked for."""


@dataclass(frozen=True)
class OccupationMeasure:
    """Stationary state-action frequencies.

    Indexed pairs are (s,A,Work), (s,A,Rest), (s,B,Work); the busy
    states admit no Rest. Arrays are indexed by s-1.
    """

    work_a: np.ndarray
    rest_a: np.ndarray
    work_b: np.ndarray

    @property
    def n_s(self) -> int:
        return self.work_a.size

    @property
    def total_mass(self) -> float:
        return float(self.work_a.sum() + self.rest_a.sum() + self.work_b.sum())

    def utilization(self) -> float:
        return float(self.work_a.sum() + self.work_b.sum())

    def service_rate(self, spec: ServerSpec) -> float:
        return float(np.dot(spec.mu, self.work_a + self.work_b))

    def state_marginal(self) -> np.ndarray:
        """Mass per reduced state in the fixed order."""
        return np.concatenate([self.work_a + self.rest_a, self.work_b])

    def flow_residual(self, spec: ServerSpec) -> float:
        """Max-norm violation of stationarity: out-mass minus in-mass."""
        pw, pr = _kernel_matrices(spec)
        n = self.n_s
        inflow = np.concatenate([self.work_a, self.work_b]) @ pw + self.rest_a @ pr[:n]
        return float(np.max(np.abs(self.state_marginal() - inflow)))

    def as_dict(self) -> dict:
        out = {}
        for s in range(1, self.n_s + 1):
            out[f"s{s}.A.W"] = float(self.work_a[s - 1])
            out[f"s{s}.A.R"] = float(self.rest_a[s - 1])
            out[f"s{s}.B.W"] = float(self.work_b[s - 1])
        return out


@dataclass(frozen=True)
class LpResult:
    value: float
    measure: OccupationMeasure | None
    feasible: bool


def solve_lp(spec: ServerSpec, nu_bar: float, eps: float) -> LpResult:
    """Minimum stationary work probability at service rate nu_bar.

    Variables are laid out [work_a | rest_a | work_b], 3 n_s in total.
    Constraints: eps-floor at (1, A) as one inequality, the service-rate
    equality, total mass one, and per-state stationarity. Infeasibility
    is reported, not raised; the value is +inf in that case.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if nu_bar < 0.0:
        raise ValueError("nu_bar must be nonnegative")
    n = spec.n_s
    nv = 3 * n
    iw, ir, ib = np.arange(n), np.arange(n, 2 * n), np.arange(2 * n, 3 * n)

    c = np.zeros(nv)
    c[iw] = 1.0
    c[ib] = 1.0

    pw, pr = _kernel_matrices(spec)
    # Rows: the service rate, total mass one, then stationarity per reduced
    # state y: its mass (rest_a or work_b at column n + y, plus work_a at
    # column y when y is available) minus the kernel-weighted inflow.
    out_mass = np.eye(2 * n, nv, k=n)
    out_mass[:n, :n] = np.eye(n)
    a_eq = np.vstack([
        np.concatenate([spec.mu, np.zeros(n), spec.mu]),
        np.ones(nv),
        out_mass - np.hstack([pw[:n].T, pr[:n].T, pw[n:].T]),
    ])
    b_eq = np.zeros(2 * n + 2)
    b_eq[:2] = nu_bar, 1.0

    # The floor (1-eps) l_{(1,A),W} >= eps l_{(1,A),R} is enforced by exact
    # substitution l_W = z + k l_R with k = eps/(1-eps) and z >= 0.  Passing
    # the raw inequality row instead mixes entries of size eps and 1 into the
    # tableau and loses ~|log10 eps| digits during elimination.
    a_ub = None
    b_ub = None
    k = 0.0
    if eps >= 1.0:
        # l_{(1,A),R} <= 0 forces the rest mass to zero outright.
        a_ub = np.zeros((1, nv))
        a_ub[0, ir[0]] = 1.0
        b_ub = np.zeros(1)
    elif eps > 0.0:
        k = eps / (1.0 - eps)
        a_eq[:, ir[0]] += k * a_eq[:, iw[0]]
        c[ir[0]] += k * c[iw[0]]

    res = solve_simplex(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub)
    if res.status == "infeasible":
        return LpResult(value=float("inf"), measure=None, feasible=False)
    if res.status != "optimal":
        raise RuntimeError(f"occupation LP ended with status {res.status}")
    x = np.clip(res.x, 0.0, None)
    if k > 0.0:
        x[iw[0]] += k * x[ir[0]]
    measure = OccupationMeasure(work_a=x[iw].copy(), rest_a=x[ir].copy(), work_b=x[ib].copy())
    return LpResult(value=float(x[iw].sum() + x[ib].sum()), measure=measure, feasible=True)


def policy_from_occupation(l: OccupationMeasure) -> PolicyY:
    """phi(y) = work mass / total mass where rest carries mass, else 1."""
    wp = np.ones(l.n_s)
    for i in range(l.n_s):
        if l.rest_a[i] > 0.0:
            wp[i] = l.work_a[i] / (l.work_a[i] + l.rest_a[i])
    return PolicyY(wp)


def occupation_from_policy(spec: ServerSpec, phi: PolicyY) -> OccupationMeasure:
    """Occupation measure induced by a policy with a unique stationary
    PMF: l(y, W) = pi(y) phi(y), l(y, R) = pi(y) (1 - phi(y))."""
    pi = stationary_pmf_y(spec, phi)
    n = spec.n_s
    return OccupationMeasure(
        work_a=pi[:n] * phi.work_prob,
        rest_a=pi[:n] * (1.0 - phi.work_prob),
        work_b=pi[n:].copy(),
    )


def lower_convex_hull(points):
    """Lower boundary of the convex hull, by Andrew's monotone chain.

    Points sharing an x keep only the lowest y; collinear interior
    points are removed; output is ordered by x.
    """
    if not points:
        raise ValueError("need at least one point")
    best = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    pts = sorted(best.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


@dataclass(frozen=True)
class Frontier:
    """Piecewise-affine convex non-decreasing map from service rate to
    the least achievable utilization, stored as breakpoints."""

    breakpoints: tuple

    @property
    def nu_star(self) -> float:
        return self.breakpoints[-1][0]

    @property
    def u_star(self) -> float:
        return self.breakpoints[-1][1]

    def __call__(self, nu_bar: float) -> float:
        xs = [p[0] for p in self.breakpoints]
        ys = [p[1] for p in self.breakpoints]
        if nu_bar < xs[0] - 1e-12 or nu_bar > xs[-1] + 1e-12:
            raise ValueError(f"service rate {nu_bar} outside [{xs[0]}, {xs[-1]}]")
        return float(np.interp(nu_bar, xs, ys))

    def sample(self, num: int = 101) -> np.ndarray:
        """(num, 2) array sampling the curve uniformly in service rate."""
        xs = np.linspace(self.breakpoints[0][0], self.nu_star, num)
        return np.column_stack([xs, [self(x) for x in xs]])


def frontier(spec: ServerSpec) -> Frontier:
    """Hull of the threshold rate pairs and the origin, restricted to
    service rates up to the best achievable one."""
    pts = [(0.0, 0.0)]
    for tau in range(1, spec.n_s + 2):
        pts.append(threshold_rates(spec, tau))
    return Frontier(breakpoints=tuple(lower_convex_hull(pts)))


def infimum_utilization(spec: ServerSpec, lam: float) -> float:
    """Least stationary work probability over policies that serve at
    rate lam; errors if lam is not stabilizable."""
    f = frontier(spec)
    if lam >= f.nu_star:
        raise NotStabilizableError(
            f"arrival rate {lam} is not stabilizable: best service rate is {f.nu_star}"
        )
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return f(lam)
