"""The tests' references for the QBD oracle: logarithmic reduction on the
unshifted blocks, the route sim._log_reduction took before it shifted
G's eigenvalue 1 to 0, and the oracle's stationary law to 50 digits in
mpmath. The package solves G only on the shifted blocks, and the tests
check it against both.
"""

import mpmath
import numpy as np

from minwork.model import NumericalFailure
from minwork.sim import QBD_MAX_STEPS, QBD_T_TOL


def unshifted_log_reduction(up, local, down):
    """G, the minimal solution of G = down + local G + up G^2, by
    logarithmic reduction on the blocks as given (Latouche & Ramaswami
    1993). After step k, G holds the first passages that stay below 2^k
    levels up, and T is the weight of those that do not; its row sums
    bound what is left, so the step count grows like
    log2(1 / (1 - sp(R)))."""
    eye = np.eye(up.shape[0])
    b_up = np.linalg.solve(eye - local, up)
    b_down = np.linalg.solve(eye - local, down)
    G, T = b_down.copy(), b_up.copy()
    with np.errstate(all="ignore"):  # a diverging T raises below instead of warning
        for step in range(1, QBD_MAX_STEPS + 1):
            mix = eye - b_up @ b_down - b_down @ b_up
            b_up, b_down = np.linalg.solve(mix, b_up @ b_up), np.linalg.solve(mix, b_down @ b_down)
            G += T @ b_down
            T = T @ b_up
            t_norm = float(np.abs(T).sum(axis=1).max())
            if t_norm < QBD_T_TOL:
                return G
            if not np.isfinite(t_norm):
                raise NumericalFailure(f"||T|| = {t_norm} is not finite after {step} steps")
    raise NumericalFailure(f"||T|| = {t_norm:.3e} still not below {QBD_T_TOL:g} after {QBD_MAX_STEPS} steps")


def _mp_blocks(spec, lam, work_prob):
    """(up, local, down) at a level q >= 1 and (b00, b01) at level 0 in
    mpmath, each entry built from the float parameters: a state works
    with its probability (surely when busy), a completion lands on
    (s', A) one level down, work without one on (s', B), rest on
    (s', A), and an arrival lifts every move one level. Level 0 rests."""
    n = spec.n_s
    mu, r_up, r_down, wp = (
        [mpmath.mpf(v) for v in a.tolist()] for a in (spec.mu, spec.rho_up, spec.rho_down, work_prob)
    )
    lam = mpmath.mpf(lam)
    up, local, down = (mpmath.zeros(2 * n, 2 * n) for _ in range(3))
    b00, b01 = mpmath.zeros(n, n), mpmath.zeros(n, 2 * n)
    for s in range(n):
        rest_moves = [(t, m) for t, m in ((s, 1 - r_down[s]), (s - 1, r_down[s])) if t >= 0]
        for t, move in rest_moves:
            b00[s, t] += move * (1 - lam)
            b01[s, t] += move * lam
        for i, work in ((s, wp[s]), (n + s, mpmath.mpf(1))):
            for t, move in ((s, 1 - r_up[s]), (s + 1, r_up[s])):
                if t < n:
                    done, busy = work * move * mu[s], work * move * (1 - mu[s])
                    down[i, t] += done * (1 - lam)
                    local[i, t] += done * lam
                    local[i, n + t] += busy * (1 - lam)
                    up[i, n + t] += busy * lam
            for t, move in rest_moves:
                local[i, t] += (1 - work) * move * (1 - lam)
                up[i, t] += (1 - work) * move * lam
    return up, local, down, b00, b01


def mp_qbd(spec, lam, theta, dps=50):
    """(utilization, E[q]) of the lifted policy theta's stationary law to
    dps digits: G by unshifted logarithmic reduction until ||T|| is
    below 10^-(dps - 10), then qbd_stationary's closed forms, all in
    mpmath."""
    n = spec.n_s
    if np.any(theta.table[0] != 0.0):
        raise ValueError("the reference takes lifted policies, which rest at level 0")
    wp = theta.base.work_prob
    with mpmath.workdps(dps):
        up, local, down, b00, b01 = _mp_blocks(spec, lam, wp)
        eye = mpmath.eye(2 * n)
        inv = mpmath.inverse(eye - local)
        b_up, b_down = inv * up, inv * down
        G, T = b_down.copy(), b_up.copy()
        tol = mpmath.mpf(10) ** -(dps - 10)
        while mpmath.mnorm(T, "inf") >= tol:
            inv = mpmath.inverse(eye - b_up * b_down - b_down * b_up)
            b_up, b_down = inv * (b_up * b_up), inv * (b_down * b_down)
            G += T * b_down
            T = T * b_up
        U = local + up * G
        R = up * mpmath.inverse(eye - U)
        ones = mpmath.ones(2 * n, 1)
        at_or_above = mpmath.lu_solve(eye - R, ones)
        M = mpmath.zeros(3 * n, 3 * n)
        for i in range(n):
            for j in range(n):
                M[i, j] = b00[i, j]
            for j in range(2 * n):
                M[i, n + j] = b01[i, j]
        for i in range(2 * n):
            for j in range(n):
                M[n + i, j] = down[i, j]
            for j in range(2 * n):
                M[n + i, n + j] = U[i, j]
        M -= mpmath.eye(3 * n)
        for i in range(3 * n):
            M[i, 3 * n - 1] = 1 if i < n else at_or_above[i - n]
        rhs = mpmath.zeros(3 * n, 1)
        rhs[3 * n - 1] = 1
        x = mpmath.lu_solve(M.T, rhs)
        pi1 = mpmath.matrix([x[n + i] for i in range(2 * n)])
        y_marg = mpmath.lu_solve((eye - R).T, pi1)
        work = [mpmath.mpf(v) for v in wp.tolist()] + [mpmath.mpf(1)] * n
        utilization = sum(y_marg[i] * work[i] for i in range(2 * n))
        mean_queue = sum(y_marg[i] * at_or_above[i] for i in range(2 * n))
        return float(utilization), float(mean_queue)
