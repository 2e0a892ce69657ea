"""Occupation-measure LP, policy extraction, and the utilization
frontier.

The LP minimizes the stationary probability of working subject to a
service-rate equality, stationarity of the state-action measure, and a
floor on the work probability at the bottom-left state. Busy states
admit only work, so their mass is an exact linear function of the work
mass at the available states. Rest lowers the activity state by one
level at most, so stationarity at the available states is a flux
identity at each level boundary, and the rest mass above the bottom
state is an exact, nonnegative linear function of the same work mass.
The LP therefore carries n_s + 1 variables, the work mass at the
available states and the rest mass at the bottom one, and two equality
rows, service rate and total mass, and rebuilds the rest of the measure
from them. With two rows, each column is a point (service rate, cost)
per unit mass and a feasible answer is a convex mix of those points at
the target rate, so the LP is solved exactly as the least chord through
the target rate over pairs of points (_lower_chord). The frontier is
the lower convex hull of the threshold-policy rate pairs together with
the origin; the two constructions are implemented independently and
cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolicyY, ServerSpec, _kernel_matrices, audit
from .chain import _balance_residual, _chain_rates, stationary_pmf_y, threshold_rates
from .simplex import solve_simplex  # noqa: F401 - bench/tracing.py wraps it under this module

MASS_TOL = 1e-9


class NotStabilizableError(ValueError):
    """Requested arrival rate meets or exceeds the best service rate, or
    the service rate of the policy asked for."""


@dataclass(frozen=True)
class OccupationMeasure:
    """Stationary state-action frequencies.

    Indexed pairs are (s,A,Work), (s,A,Rest), (s,B,Work); the busy
    states admit no Rest. Arrays are indexed by s-1. floor is the eps
    the LP held the work share at (1, A) to, 0 for no floor.
    """

    work_a: np.ndarray
    rest_a: np.ndarray
    work_b: np.ndarray
    floor: float = 0.0

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

    def flow_residual(self, spec: ServerSpec) -> float:
        """Max-norm violation of stationarity, out-mass minus in-mass at
        each reduced state (chain._balance_residual)."""
        work = np.concatenate([self.work_a, self.work_b]).tolist()
        return _balance_residual(_chain_rates(spec), work, self.rest_a.tolist())

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


def _lp_blocks(spec: ServerSpec):
    """The LP's rows and cost over [work_a | rest at s = 1], and the
    maps from work_a to the rest mass at s >= 2 and to the busy states'
    mass.

    With W = P_W[A->B], V = P_W[A->A] and N = (I - W)^-1, busy balance
    gives work_b = work_a W N, so the work mass per s is work_a N. I - W
    is upper bidiagonal with row sums mu in (0, 1), a nonsingular
    M-matrix, so N >= 0: N[s, s'] is the expected number of steps a job
    started at (s, A) works at activity state s'. Since (I - W) 1 = mu,
    N mu = 1, as each job completes once, so the service rate is
    work_a 1. (NV)[s, s'] is the chance that the job completes at s'.

    Rest lowers the activity state by one level at most, so stationarity
    at the available states telescopes into a flux identity at each
    level boundary: rho_down(s) rest_a[s] = work_a tail[:, s] with
    tail[:, s] the sum of the columns s' >= s of NV - I. Work never
    lowers the activity state, so tail[s', s] is the chance that a job
    started at s' < s completes at s or above, and 0 for s' >= s. The
    rest mass at s >= 2 is therefore work_a rest_map with rest_map =
    tail / rho_down (rho_down > 0 there), nonnegative for every
    work_a >= 0, so it needs no row of its own. The rows are the service
    rate and total mass one. The spec is immutable, so the first call
    builds the blocks and keeps them on it, read-only.
    """
    cached = getattr(spec, "_lp_blocks", None)
    if cached is not None:
        return cached
    n = spec.n_s
    pw, _ = _kernel_matrices(spec)
    eye = np.eye(n)
    visits = np.linalg.solve(eye - pw[:n, n:], eye)  # N
    ends = visits @ pw[:n, :n]  # NV
    # NV's row suffix sums less I's: on and below the diagonal both are 1,
    # so tail is exactly the strict upper triangle of NV's
    tail = np.triu(np.cumsum(ends[:, ::-1], axis=1)[:, ::-1], 1)
    rest_map = tail[:, 1:] / spec.rho_down[1:]
    work_mass = visits.sum(axis=1)
    rows = np.zeros((2, n + 1))
    rows[0, :n] = 1.0
    rows[1, :n] = work_mass + rest_map.sum(axis=1)
    rows[1, n] = 1.0
    cost = np.zeros(n + 1)
    cost[:n] = work_mass
    busy = pw[:n, n:] @ visits
    blocks = (rows, cost, rest_map, busy)
    for arr in blocks:
        arr.setflags(write=False)
    object.__setattr__(spec, "_lp_blocks", blocks)
    return blocks


def _lower_chord(a, b, c, nu_bar):
    """Least c x over x >= 0 with a x = nu_bar and b x = 1, or None if
    no such x exists; every b_j must be positive.

    Column j is the point (a_j / b_j, c_j / b_j), and x_j = w_j / b_j
    turns the rows into a convex mix w of the points at first coordinate
    nu_bar, so the least cost is the lowest chord through nu_bar between
    a point at or left of it and one at or right of it (a single point
    at nu_bar counts as a chord with itself).

    Range ends: nu_bar more than MASS_TOL outside [min, max] of
    a_j / b_j is infeasible; within that band it snaps to the end, so a
    target an ulp past the best column's rate is that column alone.
    Ties: the first least pair in (i, j) order wins, i at or left of
    nu_bar and j at or right of it.
    """
    rate, cost = a / b, c / b
    lo, hi = rate.min(), rate.max()
    if not lo - MASS_TOL <= nu_bar <= hi + MASS_TOL:
        return None
    below = min(max(nu_bar, lo), hi) - rate  # >= 0 at or left of the target
    span = below[:, None] - below  # rate_j - rate_i, >= 0 on the pairs
    share = np.divide(below[:, None], span, out=np.zeros_like(span), where=span > 0.0)
    value = cost[:, None] + share * (cost - cost[:, None])
    value[(below < 0.0)[:, None] | (below > 0.0)] = np.inf
    i, j = divmod(int(value.argmin()), rate.size)
    x = np.zeros_like(rate)
    x[j] = share[i, j] / b[j]
    x[i] += (1.0 - share[i, j]) / b[i]
    return x


def solve_lp(spec: ServerSpec, nu_bar: float, eps: float) -> LpResult:
    """Minimum stationary work probability at service rate nu_bar.

    Non-preemption forces work at the busy states, and the flux across
    each activity level boundary fixes the rest mass above s = 1, so
    both are linear functions of the work mass at the available states.
    The LP keeps the n_s + 1 variables [work_a | rest at s = 1] and two
    equality rows, the service rate and total mass one (_lp_blocks),
    with the eps-floor at (1, A). Two rows make it a lower chord, solved
    exactly by _lower_chord: nu_bar within MASS_TOL past the range of
    the columns' rates snaps to its end, and among equal chords the
    first pair in column order wins. The full measure, work_b included,
    is audited for flow balance at all 2 n_s states, service rate and
    mass before it is returned; a miss raises NumericalFailure.
    Infeasibility is reported, not raised; the value is +inf in that
    case.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if not 0.0 <= nu_bar < np.inf:
        raise ValueError("nu_bar must be nonnegative and finite")
    n = spec.n_s
    rows, c, rest_map, busy = _lp_blocks(spec)

    # The floor (1-eps) l_{(1,A),W} >= eps l_{(1,A),R} is enforced by exact
    # substitution l_W = z + k l_R with k = eps/(1-eps) and z >= 0, which
    # moves only the rest column's point. At eps = 1 no rest at (1, A) is
    # allowed, so its column is dropped.
    k = 0.0
    if eps >= 1.0:
        rows, c = rows[:, :n], c[:n]
    elif eps > 0.0:
        k = eps / (1.0 - eps)
        rows, c = rows.copy(), c.copy()
        rows[:, n] += k * rows[:, 0]
        c[n] += k * c[0]
    x = _lower_chord(rows[0], rows[1], c, nu_bar)
    if x is None:
        return LpResult(value=float("inf"), measure=None, feasible=False)
    if eps >= 1.0:
        x = np.append(x, 0.0)
    x[0] += k * x[n]
    work_a = x[:n]
    rest_a = np.concatenate((x[n:], work_a @ rest_map))
    measure = OccupationMeasure(work_a=work_a, rest_a=rest_a, work_b=work_a @ busy, floor=eps)
    audit(
        "occupation LP",
        ("flow residual", measure.flow_residual(spec), MASS_TOL),
        ("service-rate residual |service rate - nu_bar|", abs(measure.service_rate(spec) - nu_bar), MASS_TOL),
        ("mass residual |total mass - 1|", abs(measure.total_mass - 1.0), MASS_TOL),
    )
    return LpResult(value=measure.utilization(), measure=measure, feasible=True)


def policy_from_occupation(l: OccupationMeasure) -> PolicyY:
    """phi(y) = work mass / total mass where rest carries mass, else 1.

    The share at (1, A) is kept at or above the measure's floor: where
    the LP holds it at exactly eps, the division can round just below.
    """
    wp = np.divide(l.work_a, l.work_a + l.rest_a, out=np.ones(l.n_s), where=l.rest_a > 0.0)
    wp[0] = max(wp[0], l.floor)
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
        if not xs[0] - 1e-12 <= nu_bar <= xs[-1] + 1e-12:
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
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    f = frontier(spec)
    if lam >= f.nu_star:
        raise NotStabilizableError(
            f"arrival rate {lam} is not stabilizable: best service rate is {f.nu_star}"
        )
    return f(lam)
