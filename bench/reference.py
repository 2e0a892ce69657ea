"""Reference computations made apart from the program.

Everything here is built from the model's raw parameters (mu, rho_up,
rho_down, lambda) with numpy and scipy alone; nothing imports minwork.
The workload checkers compare the program's outputs with these values.

- `reduced_matrix`, `stationary`, `policy_rates`: the 2*n_s-state server
  chain under a reduced policy, written state by state and solved by
  GTH elimination.
- `threshold_points`, `hull_value`: the rate pair of every threshold
  policy and the lower envelope of those pairs and the origin, taken as
  the least chord over all pairs of points (no hull algorithm).
- `LiftedChain`: the server-plus-queue chain of a lifted policy, capped
  at q_max with arrivals blocked there, solved with the state (1, A, 0)
  pinned. It gives exact stationary rates and, through the Poisson
  equation, the asymptotic variance of the simulator's time averages.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _params(spec):
    """n_s, mu, rho_up and rho_down, the last two of length n_s with the
    boundary entries rho_up[n_s-1] = rho_down[0] = 0."""
    mu = np.asarray(spec.mu, dtype=float)
    return mu.size, mu, np.asarray(spec.rho_up, dtype=float), np.asarray(spec.rho_down, dtype=float)


def reduced_matrix(spec, work_prob) -> np.ndarray:
    """One-step matrix over (s, A) = s-1 and (s, B) = n_s + s-1."""
    n, mu, up, dn = _params(spec)
    P = np.zeros((2 * n, 2 * n))
    for w in (0, 1):
        for s in range(n):
            row = w * n + s
            p = 1.0 if w == 1 else float(work_prob[s])
            for s_next, move in ((s, 1.0 - up[s]), (s + 1, up[s])):
                if move > 0.0:
                    P[row, s_next] += p * move * mu[s]
                    P[row, n + s_next] += p * move * (1.0 - mu[s])
            for s_next, move in ((s, 1.0 - dn[s]), (s - 1, dn[s])):
                if move > 0.0:
                    P[row, s_next] += (1.0 - p) * move
    return P


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary PMF by GTH elimination (no subtractions, so accurate on
    nearly decomposable chains). When some state cannot reach state 0 it
    falls back to least squares on [P^T - I; 1] pi = [0; 1]."""
    k = P.shape[0]
    a = np.array(P, dtype=float)
    for j in range(k - 1, 0, -1):
        out = a[j, :j].sum()
        if out <= 0.0:
            break
        a[:j, j] /= out
        a[:j, :j] += np.outer(a[:j, j], a[j, :j])
    else:
        pi = np.zeros(k)
        pi[0] = 1.0
        for j in range(1, k):
            pi[j] = pi[:j] @ a[:j, j]
        return pi / pi.sum()
    a = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    return np.where(np.abs(pi) < 1e-15, 0.0, pi)


def policy_rates(spec, work_prob):
    """(service rate, utilization) of the reduced chain under work_prob."""
    n, mu, _, _ = _params(spec)
    pi = stationary(reduced_matrix(spec, work_prob))
    work = np.concatenate([np.asarray(work_prob, dtype=float), np.ones(n)])
    return float(pi @ (work * np.concatenate([mu, mu]))), float(pi @ work)


def threshold_points(spec):
    """Rate pair (service, utilization) of each threshold tau = 1..n_s+1,
    where the policy works when available iff s < tau."""
    n = np.asarray(spec.mu).size
    return [policy_rates(spec, (np.arange(1, n + 1) < tau).astype(float)) for tau in range(1, n + 2)]


def hull_value(points, nu: float) -> float:
    """Lower envelope at nu of the origin and the given rate pairs: the
    least value at nu over every chord between two pairs whose service
    rates bracket nu (a single pair at exactly nu counts too)."""
    pts = [(0.0, 0.0)] + [tuple(p) for p in points]
    best = np.inf
    for (x0, y0), (x1, y1) in itertools.combinations_with_replacement(pts, 2):
        lo, hi = ((x0, y0), (x1, y1)) if x0 <= x1 else ((x1, y1), (x0, y0))
        if not lo[0] - 1e-15 <= nu <= hi[0] + 1e-15:
            continue
        if hi[0] - lo[0] < 1e-15:
            best = min(best, lo[1], hi[1])
        else:
            t = (nu - lo[0]) / (hi[0] - lo[0])
            best = min(best, lo[1] + t * (hi[1] - lo[1]))
    return float(best)


class LiftedChain:
    """Server-plus-queue chain under the lifted policy: rest on an empty
    queue, work with probability work_prob[s-1] when available and
    q >= 1, always work when busy. Arrivals are blocked at q = q_max.

    State (s, A, 0) has index s-1; (s, w, q) for q >= 1 has index
    n + (q-1) 2n + w n + s-1.
    """

    def __init__(self, spec, lam: float, work_prob, q_max: int):
        n, mu, up, dn = _params(spec)
        self.n, self.q_max, self.lam = n, q_max, lam
        size = n * (1 + 2 * q_max)
        idx = np.arange(size)
        q = np.where(idx < n, 0, (idx - n) // (2 * n) + 1)
        w = np.where(idx < n, 0, ((idx - n) // n) % 2)
        s = np.where(idx < n, idx, (idx - n) % n)
        wp = np.asarray(work_prob, dtype=float)
        p_work = np.where(q == 0, 0.0, np.where(w == 1, 1.0, wp[s]))
        lam_q = np.where(q < q_max, lam, 0.0)

        def dest(s2, w2, q2):
            return np.where(q2 == 0, s2, n + (q2 - 1) * 2 * n + w2 * n + s2)

        src, dst, prob, work, done = [], [], [], [], []
        for d, a, m in itertools.product((0, 1), repeat=3):
            pr = p_work * np.where(d, mu[s], 1.0 - mu[s]) * np.where(a, lam_q, 1.0 - lam_q)
            pr = pr * np.where(m, up[s], 1.0 - up[s])
            s2 = s + m
            keep = pr > 0.0
            src.append(idx[keep])
            dst.append(dest(s2, 1 - d, q - d + a)[keep])
            prob.append(pr[keep])
            work.append(np.ones(keep.sum()))
            done.append(np.full(keep.sum(), float(d)))
        for a, m in itertools.product((0, 1), repeat=2):
            pr = (1.0 - p_work) * np.where(a, lam_q, 1.0 - lam_q) * np.where(m, dn[s], 1.0 - dn[s])
            s2 = s - m
            keep = pr > 0.0
            src.append(idx[keep])
            dst.append(dest(s2, 0, q + a)[keep])
            prob.append(pr[keep])
            work.append(np.zeros(keep.sum()))
            done.append(np.zeros(keep.sum()))
        self.src, self.dst = np.concatenate(src), np.concatenate(dst)
        self.prob = np.concatenate(prob)
        self.work, self.done = np.concatenate(work), np.concatenate(done)
        self.p_work = p_work
        self.mu_s = mu[s]

        P = sp.csr_matrix((self.prob, (self.src, self.dst)), shape=(size, size))
        self.max_row_error = float(np.max(np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0)))
        core = (sp.identity(size, format="csr") - P)[1:, 1:].tocsc()
        self._lu = spla.splu(core)
        pi = np.empty(size)
        pi[0] = 1.0
        pi[1:] = self._lu.solve(np.asarray(P[0, 1:].todense()).ravel(), trans="T")
        self.pi = pi / pi.sum()
        self.tail_mass = float(self.pi[n + (q_max - 1) * 2 * n:].sum())

    @property
    def utilization(self) -> float:
        return float(self.pi @ self.p_work)

    @property
    def service_rate(self) -> float:
        return float(self.pi @ (self.p_work * self.mu_s))

    def asymptotic_variance(self, reward: np.ndarray, state_reward: np.ndarray) -> float:
        """Limit of N Var(mean of reward over N steps) for a per-step
        reward given on each transition path, whose conditional mean
        given the current state is state_reward. Martingale form:
        E_pi[(r + h(X') - h(X) - rbar)^2] with h - P h = state_reward - rbar.
        """
        rbar = float(self.pi @ state_reward)
        h = np.zeros(self.pi.size)
        h[1:] = self._lu.solve(state_reward[1:] - rbar)
        inc = reward + h[self.dst] - h[self.src] - rbar
        return float(np.sum(self.pi[self.src] * self.prob * inc * inc))

    def work_variance(self) -> float:
        return self.asymptotic_variance(self.work, self.p_work)

    def done_variance(self) -> float:
        return self.asymptotic_variance(self.done, self.p_work * self.mu_s)

    def visit_variance(self, state: int) -> float:
        """Asymptotic variance of the fraction of steps that end in state."""
        hit = (self.dst == state).astype(float)
        into = np.zeros(self.pi.size)
        np.add.at(into, self.src, self.prob * hit)
        return self.asymptotic_variance(hit, into)


TAIL_TOL = 1e-12


def lifted_chain(spec, lam: float, work_prob):
    """LiftedChain at the first doubling of q_max from 512 whose tail mass
    is below TAIL_TOL, or at q_max = 65536."""
    q = 512
    while True:
        chain = LiftedChain(spec, lam, work_prob, q)
        if chain.tail_mass < TAIL_TOL or q >= 1 << 16:
            return chain
        q *= 2
