"""Dense two-phase primal simplex with Bland's entering rule.

Kept deliberately small: the programs solved here have at most a few
dozen variables and constraints, so there is no tableau sparsity, no
revised form, no presolve. Equalities get artificial variables in
phase one; redundant equality rows surface as zero rows after phase one
and are dropped. Feasibility is declared when the artificial levels
left after phase one sum to at most `_FEAS_TOL`.

The solver exists so the occupation-measure program has an independent
code path from the convex-hull construction it is checked against; the
two are never allowed to share geometry code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NumericalFailure

# Reduced costs within _RC_TOL of zero count as zero; pivots smaller
# than _PIV_TOL are treated as structurally zero; rhs entries smaller
# than _RHS_TOL are rounding noise from degenerate pivots. Phase one
# is feasible when the artificials left sum to at most _FEAS_TOL. The
# returned point may dip below zero by at most _AUDIT_TOL and miss the
# original constraints by at most _AUDIT_TOL * (1 + largest |rhs|).
_RC_TOL = 1e-10
_PIV_TOL = 1e-11
_RHS_TOL = 1e-13
_FEAS_TOL = 1e-9
_AUDIT_TOL = 1e-8


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row, then subtract its multiple from every other
    row with a nonzero entry in the pivot column, as one rank-1 update;
    rows with a zero multiplier are left untouched."""
    T[row] /= T[row, col]
    f = T[:, col, None].copy()
    f[row] = 0.0
    np.subtract(T, f * T[row], out=T, where=f != 0.0)
    basis[row] = col


def _bland_min(T: np.ndarray, basis: np.ndarray, max_iter: int) -> str:
    """Minimize the cost row in place. Returns "optimal" or "unbounded".

    Entering column is the smallest-index column with negative reduced
    cost (Bland). The leaving row is the minimum-ratio row with ties
    broken toward the largest pivot element, then the smallest basic
    index; rounding noise in the rhs is clamped to zero so a
    tiny-negative-over-tiny ratio cannot walk the basis infeasible.
    The iteration cap turns any residual cycling into an error.

    The tableaus are a few dozen entries wide, so each iteration reads
    the cost row, the entering column and the rhs once as Python floats
    and applies the rules to those; only the pivot itself runs in numpy.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        rhs = T[:m, -1]
        np.copyto(rhs, 0.0, where=np.abs(rhs) < _RHS_TOL)
        enter = next((j for j, r in enumerate(T[-1, :-1].tolist()) if r < -_RC_TOL), -1)
        if enter < 0:
            return "optimal"
        ratios = [
            (i, a, max(r, 0.0) / a)
            for i, (a, r) in enumerate(zip(T[:m, enter].tolist(), rhs.tolist()))
            if a > _PIV_TOL
        ]
        best = min([math.inf] + [q for _, _, q in ratios])
        if best == math.inf:
            return "unbounded"
        leave, a_leave = -1, 0.0
        top = best + (1e-12 + 1e-9 * best)
        for i, a, q in ratios:
            if q <= top and (leave < 0 or a > a_leave or (a == a_leave and basis[i] < basis[leave])):
                leave, a_leave = i, a
        if T[leave, -1] < 0.0:
            T[leave, -1] = 0.0
        _pivot(T, basis, leave, enter)
    raise NumericalFailure("simplex iteration limit exceeded")


def solve_simplex(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> SimplexResult:
    """min c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0."""
    c = np.asarray(c, dtype=float)
    n = c.size
    n_slack = 0
    blocks = []
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_slack = A_ub.shape[0]
        blocks.append((A_ub, np.eye(n_slack), b_ub))
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        blocks.append((A_eq, np.zeros((A_eq.shape[0], n_slack)), b_eq))
    if not blocks:
        raise ValueError("no constraints given")
    for a, _, rhs in blocks:
        if a.shape[1] != n or rhs.shape != (a.shape[0],):
            raise ValueError(f"constraints of shape {a.shape} and rhs of shape {rhs.shape} do not fit {n} variables")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))):
            raise ValueError("constraints and rhs must be finite")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost vector must be finite")

    A = np.vstack([np.hstack([a, slack]) for a, slack, _ in blocks])
    b = np.concatenate([rhs for _, _, rhs in blocks])
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    m, n_tot = A.shape
    max_iter = 200 * (m + n_tot + 10)

    # Phase one: artificial basis, minimize the sum of artificials.
    T = np.zeros((m + 1, n_tot + m + 1))
    T[:m, :n_tot] = A
    T[:m, n_tot : n_tot + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n_tot] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(n_tot, n_tot + m)

    status = _bland_min(T, basis, max_iter)
    if status != "optimal" or not np.all(np.isfinite(T)):
        raise NumericalFailure(f"phase-one simplex ended with status {status}")
    # the objective row accumulates rounding drift, so judge feasibility
    # by the artificial levels actually left in the basis
    phase1 = sum(max(r, 0.0) for r, j in zip(T[:m, -1].tolist(), basis.tolist()) if j >= n_tot)
    if phase1 > _FEAS_TOL:
        return SimplexResult("infeasible", None, None)

    # Drive artificials out of the basis; a row with no real pivot
    # candidate is a redundant constraint and is dropped, from the tableau
    # and from A alike, so the rows of A stay aligned with the tableau's.
    drop = []
    for i in range(m):
        if basis[i] >= n_tot:
            cand = np.flatnonzero(np.abs(T[i, :n_tot]) > _PIV_TOL)
            if cand.size == 0:
                drop.append(i)
            else:
                _pivot(T, basis, i, int(cand[0]))
    if drop:
        keep = [i for i in range(m) if i not in set(drop)]
        T = T[keep + [m]]
        basis = basis[keep]
        A, b = A[keep], b[keep]
        m = len(keep)

    # Phase two on the original columns only.
    T2 = np.zeros((m + 1, n_tot + 1))
    T2[:m, :n_tot] = T[:m, :n_tot]
    T2[:m, -1] = T[:m, -1]
    cost = np.zeros(n_tot)
    cost[:n] = c
    T2[-1, :n_tot] = cost
    # reduce the cost row against the current basis
    for i, cb in enumerate(cost[basis].tolist()):
        if cb != 0.0:
            T2[-1] -= cb * T2[i]
    status = _bland_min(T2, basis, max_iter)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)

    x = np.zeros(n_tot)
    x[basis] = T2[:m, -1]

    # The tableau accumulates elimination error over many pivots while
    # the basis itself stays reliable, so re-solve the basic system from
    # the untouched constraint data and keep whichever levels satisfy
    # the kept rows better.
    xb = None
    if m > 0:
        try:
            xb = np.linalg.solve(A[:, basis], b)
        except np.linalg.LinAlgError:
            pass
    if xb is not None and np.all(np.isfinite(xb)):
        x_rep = np.zeros(n_tot)
        x_rep[basis] = xb
        res_tab = np.max(np.abs(A @ x - b))
        res_rep = np.max(np.abs(A @ x_rep - b))
        if res_rep <= res_tab and xb.min() > -1e-9:
            x = x_rep
    x = np.where(np.abs(x) < 1e-14, 0.0, x)
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("simplex produced non-finite solution")

    # audit against the original constraints; tableau arithmetic can
    # decay silently and a wrong "optimum" is worse than an error
    if x.min() < -_AUDIT_TOL:
        raise NumericalFailure(f"simplex solution has negative entry {x.min():.3e}")
    if A_eq is not None:
        resid = float(np.max(np.abs(A_eq @ x[:n] - b_eq)))
        if resid > _AUDIT_TOL * (1.0 + float(np.abs(b_eq).max())):
            raise NumericalFailure(f"simplex equality residual {resid:.3e}")
    if A_ub is not None:
        excess = float(np.max(A_ub @ x[:n] - b_ub))
        if excess > _AUDIT_TOL * (1.0 + float(np.abs(b_ub).max())):
            raise NumericalFailure(f"simplex inequality excess {excess:.3e}")
    value = float(c @ x[:n])
    return SimplexResult("optimal", x[:n], value)
