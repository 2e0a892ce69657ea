"""Dense two-phase primal simplex with Bland's entering rule.

Kept deliberately small: the programs solved here have at most a few
dozen variables and constraints, so there is no tableau sparsity, no
revised form, no presolve. Phase one starts each inequality row whose
rhs is nonnegative on its own slack; equalities and inequalities whose
sign had to be flipped get artificial variables, and redundant equality
rows surface as zero rows after phase one and are dropped. Feasibility
is declared when the artificial levels left after phase one sum to at
most `_FEAS_TOL`.

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
    and applies the rules to those, clamping the rhs on that list and
    writing back only the entries it clamps; only the pivot itself runs
    in numpy.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        rhs = T[:m, -1].tolist()
        for i, r in enumerate(rhs):
            if 0.0 < abs(r) < _RHS_TOL:
                T[i, -1] = rhs[i] = 0.0
        enter = next((j for j, r in enumerate(T[-1, :-1].tolist()) if r < -_RC_TOL), -1)
        if enter < 0:
            return "optimal"
        ratios = [
            (i, a, max(r, 0.0) / a)
            for i, (a, r) in enumerate(zip(T[:m, enter].tolist(), rhs))
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
        if rhs[leave] < 0.0:
            T[leave, -1] = 0.0
        _pivot(T, basis, leave, enter)
    raise NumericalFailure("simplex iteration limit exceeded")


def solve_simplex(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> SimplexResult:
    """min c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0."""
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks = []
    for a, rhs in ((A_ub, b_ub), (A_eq, b_eq)):
        if a is not None:
            a = np.atleast_2d(np.asarray(a, dtype=float))
            rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
            if a.shape[1] != n or rhs.shape != (a.shape[0],):
                raise ValueError(f"constraints of shape {a.shape} and rhs of shape {rhs.shape} do not fit {n} variables")
            if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
                raise ValueError("constraints and rhs must be finite")
        blocks.append((a, rhs))
    (A_ub, b_ub), (A_eq, b_eq) = blocks
    if A_ub is None and A_eq is None:
        raise ValueError("no constraints given")
    if not np.isfinite(c).all():
        raise ValueError("cost vector must be finite")

    # Rows are [A_ub | I] then [A_eq | 0] over the variables and one slack
    # per inequality, each made to have a nonnegative rhs.
    m_ub = 0 if A_ub is None else A_ub.shape[0]
    m = m_ub + (0 if A_eq is None else A_eq.shape[0])
    n_tot = n + m_ub
    A = np.zeros((m, n_tot))
    b = np.empty(m)
    if m_ub:
        A[:m_ub, :n] = A_ub
        A[np.arange(m_ub), np.arange(n, n_tot)] = 1.0
        b[:m_ub] = b_ub
    if m > m_ub:
        A[m_ub:, :n] = A_eq
        b[m_ub:] = b_eq
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0
    max_iter = 200 * (m + n_tot + 10)

    # Phase one minimizes the sum of the artificials. An inequality row
    # whose rhs was already nonnegative starts on its own slack; every
    # other row gets an artificial.
    art = np.flatnonzero(neg | (np.arange(m) >= m_ub))
    T = np.zeros((m + 1, n_tot + art.size + 1))
    T[:m, :n_tot] = A
    T[:m, -1] = b
    basis = np.arange(n, n + m)  # row i < m_ub on its slack, column n + i
    basis[art] = np.arange(n_tot, n_tot + art.size)
    T[art, basis[art]] = 1.0
    T[-1, :n_tot] = -A[art].sum(axis=0)
    T[-1, -1] = -b[art].sum()

    status = _bland_min(T, basis, max_iter)
    if status != "optimal" or not np.isfinite(T).all():
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
    if xb is not None and np.isfinite(xb).all():
        x_rep = np.zeros(n_tot)
        x_rep[basis] = xb
        res_tab = np.abs(A @ x - b).max()
        res_rep = np.abs(A @ x_rep - b).max()
        if res_rep <= res_tab and xb.min() > -1e-9:
            x = x_rep
    x[np.abs(x) < 1e-14] = 0.0
    if not np.isfinite(x).all():
        raise NumericalFailure("simplex produced non-finite solution")

    # audit against the original constraints; tableau arithmetic can
    # decay silently and a wrong "optimum" is worse than an error
    if x.min() < -_AUDIT_TOL:
        raise NumericalFailure(f"simplex solution has negative entry {x.min():.3e}")
    if A_eq is not None:
        resid = float(np.abs(A_eq @ x[:n] - b_eq).max())
        if resid > _AUDIT_TOL * (1.0 + float(np.abs(b_eq).max())):
            raise NumericalFailure(f"simplex equality residual {resid:.3e}")
    if A_ub is not None:
        excess = float((A_ub @ x[:n] - b_ub).max())
        if excess > _AUDIT_TOL * (1.0 + float(np.abs(b_ub).max())):
            raise NumericalFailure(f"simplex inequality excess {excess:.3e}")
    value = float(c @ x[:n])
    return SimplexResult("optimal", x[:n], value)
