"""Dense two-phase primal simplex with Bland's entering rule.

Kept deliberately small: the programs solved here have at most a few
dozen variables and constraints, so there is no tableau sparsity, no
revised form, no presolve. Phase one starts each inequality row whose
rhs is nonnegative on its own slack; equalities and inequalities whose
sign had to be flipped get artificial variables, and redundant equality
rows surface as zero rows after phase one and are dropped. Feasibility
is declared when the artificial levels left after phase one sum to at
most `_FEAS_TOL`.

A tableau is a few rows of a few dozen entries, so it is a list of
Python float rows: numpy's per-call overhead would cost more than the
arithmetic. Every pivot step is the same elementwise float operation
either way. numpy forms only the matrix products, whose summation order
it fixes: the re-solve of the final basis, the residual fits that pick
between its levels and the tableau's, the audit and the value.

The solver exists so the occupation-measure program has an independent
code path from the convex-hull construction it is checked against; the
two are never allowed to share geometry code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .model import NumericalFailure

# Reduced costs within _RC_TOL of zero count as zero; pivots smaller
# than _PIV_TOL are treated as structurally zero; a pivot may leave a
# row's rhs up to _STEP_TOL below zero; an rhs that a pivot takes below
# _RHS_TOL times its old size is rounding noise. Phase one
# is feasible when the artificials left sum to at most _FEAS_TOL. The
# returned point may dip below zero by at most _AUDIT_TOL and miss the
# original constraints by at most _AUDIT_TOL * (1 + largest |rhs|).
_RC_TOL = 1e-10
_PIV_TOL = 1e-11
_STEP_TOL = 1e-12
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


def _pivot(T: list[list[float]], basis: list[int], row: int, col: int) -> None:
    """Scale the pivot row by its pivot, then replace every other row
    with a nonzero multiplier f in the pivot column by a - f * b, entry
    by entry; rows with a zero multiplier are left untouched. A
    constraint row whose rhs the step cancels to below _RHS_TOL times its
    old size is left with rounding noise, which is set to zero. The pivot
    row, the cost row (the last) and untouched rows keep their rhs,
    however small: a small rhs in the data is not noise."""
    piv = T[row][col]
    b = T[row] = [a / piv for a in T[row]]
    last = len(T) - 1
    for i, r in enumerate(T):
        f = r[col]
        if f != 0.0 and i != row:
            old = r[-1]
            r = T[i] = [a - f * e for a, e in zip(r, b)]
            if i != last and 0.0 < abs(r[-1]) < _RHS_TOL * abs(old):
                r[-1] = 0.0
    basis[row] = col


def _bland_min(T: list[list[float]], basis: list[int], max_iter: int, bounded: bool = False) -> str:
    """Minimize the cost row (the last row) in place. Returns "optimal"
    or "unbounded".

    Entering column is the smallest-index column with negative reduced
    cost (Bland). The leaving row comes from Harris's two passes: the
    longest step that leaves no row more than _STEP_TOL below zero, then
    among the rows whose ratio fits in that step the largest pivot
    element, then the smallest basic index. Rounding noise in a tiny rhs
    over a tiny pivot cannot then outrank a clean row of the same true
    ratio, and a near-tie with a large rhs cannot pick a row whose true
    ratio is longer. A negative rhs counts as zero, so a
    tiny-negative-over-tiny ratio cannot walk the basis infeasible.
    The iteration cap turns any residual cycling into an error.

    With `bounded` the objective is known to be bounded below, as phase
    one's is, so an entering column without a pivot only has rounding
    noise for a reduced cost: that cost is set to zero and the search
    goes on.
    """
    m = len(T) - 1
    for _ in range(max_iter):
        cost = T[m]
        enter = next((j for j in range(len(cost) - 1) if cost[j] < -_RC_TOL), -1)
        if enter < 0:
            return "optimal"
        ratios = [(i, r[enter], max(r[-1], 0.0)) for i, r in enumerate(T[:m]) if r[enter] > _PIV_TOL]
        if not ratios:
            if bounded:
                cost[enter] = 0.0
                continue
            return "unbounded"
        top = min((r + _STEP_TOL) / a for _, a, r in ratios)
        leave, a_leave = -1, 0.0
        for i, a, r in ratios:
            if r / a <= top and (leave < 0 or a > a_leave or (a == a_leave and basis[i] < basis[leave])):
                leave, a_leave = i, a
        if T[leave][-1] < 0.0:
            T[leave][-1] = 0.0
        _pivot(T, basis, leave, enter)
    raise NumericalFailure("simplex iteration limit exceeded")


def _finite(*rows: list[float]) -> bool:
    return all(map(math.isfinite, chain.from_iterable(rows)))


class _Block(NamedTuple):
    """One constraint block: the arrays as given, which the final audit
    multiplies, and the same entries as Python floats for the tableau."""

    a: np.ndarray
    rhs: np.ndarray
    rows: list[list[float]]
    b: list[float]


def _block(name: str, a, rhs, n: int) -> _Block | None:
    """Validate one constraint block: one row (1-d) or a matrix (2-d)
    with n columns, and an rhs that is a scalar for one row or 1-d with
    one entry per row. A block that is absent or has no rows is None."""
    if a is None:
        return None
    if rhs is None:  # np.asarray(None, dtype=float) is NaN
        raise ValueError(f"{name} is given without its rhs b_{name[2:]}")
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim == 1:
        a = a[None]
    if rhs.ndim == 0 and a.shape[:1] == (1,):
        rhs = rhs[None]
    if a.ndim != 2 or a.shape[1] != n or rhs.shape != a.shape[:1]:
        raise ValueError(
            f"{name} of shape {a.shape} and its rhs of shape {rhs.shape} do not fit {n} variables"
            f" (want one row or a matrix of {n} columns, and one rhs entry per row)"
        )
    block = _Block(a, rhs, a.tolist(), rhs.tolist())
    if not _finite(*block.rows, block.b):
        raise ValueError("constraints and rhs must be finite")
    return block if block.b else None


def solve_simplex(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> SimplexResult:
    """min c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    c is 1-d and nonempty. Each constraint block is one row (1-d) or a
    matrix (2-d) with a column per variable, and its rhs a scalar (one
    row) or 1-d with an entry per row; a block with no rows is absent.
    Anything else, a block without its rhs, or a non-finite entry,
    raises ValueError before the solve.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"cost vector of shape {c.shape} must be 1-d and nonempty")
    n = c.size
    ub = _block("A_ub", A_ub, b_ub, n)
    eq = _block("A_eq", A_eq, b_eq, n)
    if ub is None and eq is None:
        raise ValueError("no constraints given")
    if not _finite(c.tolist()):
        raise ValueError("cost vector must be finite")

    # Rows are [A_ub | I] then [A_eq | 0] over the variables and one slack
    # per inequality, each made to have a nonnegative rhs. Phase one
    # minimizes the sum of the artificials: an inequality row whose rhs
    # was already nonnegative starts on its own slack, every other row
    # gets an artificial, and the cost row is minus the sum of the
    # artificial rows, added in row order.
    m_ub = 0 if ub is None else len(ub.b)
    n_tot = n + m_ub
    rows, rhs = [], []
    if ub is not None:
        rows += [row + [0.0] * i + [1.0] + [0.0] * (m_ub - 1 - i) for i, row in enumerate(ub.rows)]
        rhs += ub.b
    if eq is not None:
        rows += [row + [0.0] * m_ub for row in eq.rows]
        rhs += eq.b
    A, b, art = [], [], []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        if r < 0.0 or i >= m_ub:
            art.append(i)
        if r < 0.0:
            row, r = [-a for a in row], -r
        A.append(row)
        b.append(r)
    m = len(A)
    max_iter = 200 * (m + n_tot + 10)
    basis = list(range(n, n + m))  # row i < m_ub on its slack, column n + i
    T = [row + [0.0] * len(art) + [r] for row, r in zip(A, b)]
    total = [0.0] * (n_tot + 1)
    for k, i in enumerate(art):
        basis[i] = n_tot + k
        T[i][n_tot + k] = 1.0
        total = [s + a for s, a in zip(total, A[i] + [b[i]])]
    T.append([-s for s in total[:n_tot]] + [0.0] * len(art) + [-total[-1]])

    status = _bland_min(T, basis, max_iter, bounded=True)
    if status != "optimal" or not _finite(*T):
        raise NumericalFailure(f"phase-one simplex ended with status {status}")
    # the objective row accumulates rounding drift, so judge feasibility
    # by the artificial levels actually left in the basis
    phase1 = sum(max(r[-1], 0.0) for r, j in zip(T, basis) if j >= n_tot)
    if phase1 > _FEAS_TOL:
        return SimplexResult("infeasible", None, None)

    # Drive artificials out of the basis; a row with no real pivot
    # candidate is a redundant constraint and is dropped, from the tableau
    # and from A alike, so the rows of A stay aligned with the tableau's.
    # The level an artificial is left at is rounding noise, as feasibility
    # was just declared, so it is zeroed first: the pivot is then
    # degenerate, and a negative pivot entry cannot carry that noise into
    # a negative level of the entering column.
    drop = set()
    for i in range(m):
        if basis[i] >= n_tot:
            col = next((j for j, a in enumerate(T[i][:n_tot]) if abs(a) > _PIV_TOL), -1)
            if col < 0:
                drop.add(i)
            else:
                T[i][-1] = 0.0
                _pivot(T, basis, i, col)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        T = [T[i] for i in keep]
        basis = [basis[i] for i in keep]
        A, b = [A[i] for i in keep], [b[i] for i in keep]
        m = len(keep)

    # Phase two on the original columns only, with the cost row reduced
    # against the current basis.
    cost = c.tolist() + [0.0] * m_ub
    T2 = [r[:n_tot] + r[-1:] for r in T[:m]]
    T2.append(cost + [0.0])
    for i, j in enumerate(basis):
        cb = cost[j]
        if cb != 0.0:
            T2[-1] = [a - cb * e for a, e in zip(T2[-1], T2[i])]
    status = _bland_min(T2, basis, max_iter)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)
    levels = [0.0] * n_tot
    for j, r in zip(basis, T2):
        levels[j] = r[-1]

    # The tableau accumulates elimination error over many pivots while
    # the basis itself stays reliable, so re-solve the basic system from
    # the untouched constraint data and keep whichever levels satisfy
    # the kept rows better.
    if m > 0:
        A, b = np.array(A), np.array(b)
        try:
            xb = np.linalg.solve(A.take(basis, axis=1), b).tolist()
        except np.linalg.LinAlgError:
            xb = None
        if xb is not None and _finite(xb) and min(xb) > -1e-9:
            rep = [0.0] * n_tot
            for j, v in zip(basis, xb):
                rep[j] = v
            if np.abs(A @ np.array(rep) - b).max() <= np.abs(A @ np.array(levels) - b).max():
                levels = rep
    levels = [0.0 if abs(v) < 1e-14 else v for v in levels]
    if not _finite(levels):
        raise NumericalFailure("simplex produced non-finite solution")

    # audit against the original constraints; tableau arithmetic can
    # decay silently and a wrong "optimum" is worse than an error
    lowest = min(levels)
    if lowest < -_AUDIT_TOL:
        raise NumericalFailure(f"simplex solution has negative entry {lowest:.3e}")
    x = np.array(levels[:n])
    if eq is not None:
        resid = float(np.abs(eq.a @ x - eq.rhs).max())
        if resid > _AUDIT_TOL * (1.0 + max(map(abs, eq.b))):
            raise NumericalFailure(f"simplex equality residual {resid:.3e}")
    if ub is not None:
        excess = float((ub.a @ x - ub.rhs).max())
        if excess > _AUDIT_TOL * (1.0 + max(map(abs, ub.b))):
            raise NumericalFailure(f"simplex inequality excess {excess:.3e}")
    value = float(c @ x)
    return SimplexResult("optimal", x, value)
