"""Monte-Carlo simulation of the full chain and two exact stationary
oracles.

The QBD oracle is the answer for lifted policies, whose work
probabilities do not depend on q once q >= 1. Since q moves by at most
one per step, their uncapped chain is a level-independent
quasi-birth-death process and its stationary law is matrix-geometric,
pi_(q+1) = pi_q R (Neuts 1981), with G from logarithmic reduction
(Latouche & Ramaswami 1993). Every answer is audited for flow
conservation, balance, sign and normalization.

The truncated oracle caps the queue at q_max and blocks arrivals at
the cap, which keeps the kernel row-stochastic and biases utilization
downward predictably; callers read the mass at the cap, tail_mass, to
judge the cut. It takes any policy, so it solves queue-dependent
tables and cross-checks the QBD oracle in the tests.

The simulator draws four uniforms per step (action, completion,
arrival, activity move) in a fixed order so that runs are bit-exact
reproducible regardless of the path taken. It draws them in blocks of
SIM_BLOCK steps; the Philox stream does not depend on the block size,
so neither do the results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import NEGATIVE_TOL, communicating_classes, stationary_pmf
from .chain import stationary_pmf_y  # noqa: F401 - bench/tracing.py wraps it under this module
from .frontier import NotStabilizableError
from .model import (
    Availability,
    NumericalFailure,
    ServerSpec,
    SystemState,
    _kernel_matrices,
)

QBD_MAX_STEPS = 64  # each reduction step or squaring doubles the levels covered
QBD_T_TOL = 1e-15  # ||T||_inf bounds what further reduction steps add to G's rows
FLOW_TOL = 1e-9  # |service rate - lam|
QBD_BALANCE_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
SIM_BLOCK = 4096  # steps of uniforms drawn at once; the stream is the same for any block size


@dataclass(frozen=True)
class TabularPolicyX:
    """Queue-indexed work probabilities, mostly for tests.

    table[min(q, L), w, s-1] with L = table.shape[0] - 1. Row 0 must
    rest at available states (empty queue) and busy rows for q >= 1
    must work (non-preemption).
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 3 or t.shape[0] < 2 or t.shape[1] != 2:
            raise ValueError("table must have shape (q_levels+1, 2, n_s) with q_levels >= 1")
        if np.any((t < 0.0) | (t > 1.0)):
            raise ValueError("work probabilities must lie in [0, 1]")
        if np.any(t[0, 0] != 0.0):
            raise ValueError("empty-queue rows must rest")
        if np.any(t[1:, 1] != 1.0):
            raise ValueError("busy rows must work")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def work_prob(self, s: int, w: Availability, q: int) -> float:
        return float(self.table[min(q, self.table.shape[0] - 1), int(w), s - 1])

    def policy_table(self) -> np.ndarray:
        return self.table


@dataclass(frozen=True)
class TruncatedPMF:
    """Stationary PMF of the queue-capped chain.

    State order: (s, A, 0) for s = 1..n_s, then for each q = 1..q_max
    the (s, A, q) block followed by the (s, B, q) block.
    """

    n_s: int
    q_max: int
    probs: np.ndarray
    tail_mass: float
    balance_residual: float

    def index(self, s: int, w: Availability, q: int) -> int:
        n = self.n_s
        if q == 0:
            if w == Availability.B:
                raise ValueError("(B, 0) is not a state")
            return s - 1
        return n + (q - 1) * 2 * n + int(w) * n + (s - 1)

    def mass(self, s: int, w: Availability, q: int) -> float:
        return float(self.probs[self.index(s, w, q)])

    def empty_mass(self) -> float:
        return float(self.probs[: self.n_s].sum())

    def y_marginal(self) -> np.ndarray:
        """Mass per reduced state summed over q >= 1, in the fixed
        reduced order."""
        n = self.n_s
        body = self.probs[n:].reshape(self.q_max, 2 * n)
        return body.sum(axis=0)

    def y_totals(self) -> np.ndarray:
        """Mass per reduced state over the full queue support; empty
        queue counts toward the available states."""
        out = self.y_marginal().copy()
        out[: self.n_s] += self.probs[: self.n_s]
        return out

    def queue_marginal(self) -> np.ndarray:
        n = self.n_s
        out = np.empty(self.q_max + 1)
        out[0] = self.probs[:n].sum()
        out[1:] = self.probs[n:].reshape(self.q_max, 2 * n).sum(axis=1)
        return out


def _policy_levels(theta, n_s: int, q_max: int | None = None) -> np.ndarray:
    """Work probabilities of theta indexed [q, w, s-1].

    With q_max, one row per queue level q = 0..q_max; otherwise the
    policy's own rows, the last of which holds for every larger q.
    """
    table = np.asarray(theta.policy_table(), dtype=float)
    if table.ndim != 3 or table.shape[1:] != (2, n_s):
        raise ValueError("policy table does not match spec")
    if q_max is None:
        return table
    return table[np.minimum(np.arange(q_max + 1), table.shape[0] - 1)]


def _level_flows(spec: ServerSpec, work: np.ndarray):
    """The kernel of the full chain without arrivals, as (done, busy,
    idle, rest0).

    At a queue level q >= 1 a reduced state works with the policy's
    probability (surely when busy) and moves by the reduced kernels
    P_W, P_R. That splits into three flows, each of shape
    (levels, 2n_s, n_s) with rows indexed by the source state: done,
    completion to (s', A) one level down; busy, work without completion
    to (s', B); idle, rest to (s', A). work holds the policy's work
    probabilities [level, w, s-1] at those levels. An empty queue rests,
    so level 0 moves by rest0 = P_R restricted to available states.
    """
    n = spec.n_s
    pw, pr = _kernel_matrices(spec)
    p = np.array(work, dtype=float).reshape(-1, 2 * n, 1)
    p[:, n:] = 1.0
    return p * pw[:, :n], p * pw[:, n:], (1.0 - p) * pr[:, :n], pr[:n, :n]


def _capped_chain(spec: ServerSpec, lam: float, theta, q_max: int):
    """Transition matrix of the queue-capped chain as COO triplets
    (rows, cols, vals), zeros dropped, in the TruncatedPMF state order.

    The flows of _level_flows move each state within a level or, by a
    completion, one level down. An arrival, w.p. lam and never at
    q_max, lifts each flow one level.
    """
    n = spec.n_s
    done, busy, idle, rest0 = _level_flows(spec, _policy_levels(theta, n, q_max)[1:])
    arr = np.full((q_max, 1, 1), lam)
    arr[-1] = 0.0
    stay = 1.0 - arr

    q = np.arange(1, q_max + 1)[:, None, None]
    first = (2 * q - 1) * n  # index of (1, A, q)
    src = first + np.arange(2 * n)[:, None]
    col_a, col_y = np.arange(n), np.arange(2 * n)
    blocks = [  # (rows, cols, vals), broadcast against each other
        (col_a[:, None], col_a, (1.0 - lam) * rest0),  # level 0, no arrival
        (col_a[:, None], n + col_a, lam * rest0),  # level 0, arrival
        (src, np.maximum(first - 2 * n, 0) + col_a, done * stay),  # one level down
        (src, first + col_y, np.concatenate([done * arr + idle * stay, busy * stay], axis=2)),  # same level
        (src[:-1], first[:-1] + 2 * n + col_y, np.concatenate([idle * arr, busy * arr], axis=2)[:-1]),  # one up
    ]
    triplets = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, vals = (np.concatenate([t[i].ravel() for t in triplets]) for i in range(3))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def truncated_stationary(spec: ServerSpec, lam: float, theta, q_max: int) -> TruncatedPMF:
    """Exact stationary PMF of the queue-capped chain under theta.

    Arrivals are suppressed at q = q_max; tail_mass, the mass at
    q_max, tells the caller how much the cap cut. The policy is
    consulted through theta.policy_table(); admissibility at q = 0 and
    at busy states is enforced structurally.
    """
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    n = spec.n_s
    rows, cols, vals = _capped_chain(spec, lam, theta, q_max)
    size = n * (1 + 2 * q_max)
    P = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()

    # Solve balance with one row swapped for x_ref = 1, so x = pi / pi_ref
    # and a final normalization recovers pi.  A dense normalization row
    # would ruin sparsity and the solve blows up in memory once q_max
    # reaches the tens of thousands.  The reference state must carry
    # stationary mass; queue-dependent policies can make whole bands of
    # low-queue states transient, so a short damped power iteration
    # locates a safely recurrent state first.  It starts from the empty
    # queue: mass started at high levels drains slowly and can leave the
    # largest entry on a state of negligible stationary mass.
    v = np.zeros(size)
    v[:n] = 1.0 / n
    for _ in range(64):
        v = 0.5 * (v + v @ P)
    ref = int(np.argmax(v))

    off = cols != ref
    diag = np.delete(np.arange(size), ref)
    a_rows = np.concatenate([cols[off], diag, [ref]])
    a_cols = np.concatenate([rows[off], diag, [ref]])
    a_vals = np.concatenate([vals[off], -np.ones(size - 1), [1.0]])
    A = sp.coo_matrix((a_vals, (a_rows, a_cols)), shape=(size, size)).tocsc()
    rhs = np.zeros(size)
    rhs[ref] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            pi = spla.spsolve(A, rhs)
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise NumericalFailure(f"truncated stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise NumericalFailure("truncated stationary solve produced non-finite values")
    total = pi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalFailure("truncated stationary solve produced non-normalizable mass")
    pi = pi / total
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi < -NEGATIVE_TOL):
        raise NumericalFailure("truncated stationary solve produced negative mass")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ P - pi)))
    if residual > 1e-9 or abs(pi.sum() - 1.0) > NORMALIZATION_TOL:
        raise NumericalFailure(f"truncated balance residual {residual:.3e} too large")

    tail = float(pi[n + (q_max - 1) * 2 * n :].sum())
    return TruncatedPMF(n_s=n, q_max=q_max, probs=pi, tail_mass=tail, balance_residual=residual)


def truncated_stationary_auto(
    spec: ServerSpec,
    lam: float,
    theta,
    q_max: int = 512,
    tail_tol: float = 1e-10,
    q_cap: int = 1 << 17,
) -> TruncatedPMF:
    """Double q_max until the tail mass drops below tail_tol."""
    q = q_max
    while True:
        pmf = truncated_stationary(spec, lam, theta, q)
        if pmf.tail_mass < tail_tol:
            return pmf
        if q >= q_cap:
            raise NumericalFailure(
                f"truncation cap q_cap={q_cap} ran out: tail mass {pmf.tail_mass:.3e} "
                f"is still above tail_tol={tail_tol:g} at q_max={q}"
            )
        q *= 2


def truncated_utilization(pmf: TruncatedPMF, theta) -> float:
    """Stationary probability of working: sum over states of
    pi(x) theta(x)."""
    work = _policy_levels(theta, pmf.n_s, pmf.q_max)[1:]
    return float(np.sum(pmf.probs[pmf.n_s :].reshape(work.shape) * work))


def truncated_service_rate(spec: ServerSpec, pmf: TruncatedPMF, theta) -> float:
    """Stationary completions per step: sum of pi(x) theta(x) mu(s)."""
    work = _policy_levels(theta, pmf.n_s, pmf.q_max)[1:]
    return float(np.sum(pmf.probs[pmf.n_s :].reshape(work.shape) * work * spec.mu))


@dataclass(frozen=True)
class QBDPMF:
    """Exact stationary law of the lifted chain.

    pi0 is the mass at (s, A, 0) for s = 1..n_s; level q >= 1 carries
    pi1 R^(q-1) over the reduced states in the fixed reduced order.
    y_marginal sums the levels q >= 1; utilization and service_rate are
    the stationary probabilities of working and of a completion;
    mean_queue is E[q]; tail_decay is the spectral radius of R, the
    geometric rate at which level masses fall.
    """

    n_s: int
    pi0: np.ndarray
    pi1: np.ndarray
    R: np.ndarray
    y_marginal: np.ndarray
    utilization: float
    service_rate: float
    mean_queue: float
    tail_decay: float
    balance_residual: float

    def empty_mass(self) -> float:
        return float(self.pi0.sum())

    def tail_level(self, tol: float) -> tuple[int, float]:
        """Smallest level K >= 1 whose stationary mass above K,
        pi1 R^K (I - R)^-1 1, is below tol, and that mass.

        Squares R until the mass above 2^J is below tol, then descends
        through the binary digits of K, so the cost grows with log K.
        """
        size = self.R.shape[0]
        at_or_above = np.linalg.solve(np.eye(size) - self.R, np.ones(size))  # (I - R)^-1 1
        powers = [self.R]  # R^(2^j)
        while self.pi1 @ powers[-1] @ at_or_above >= tol:
            if len(powers) == QBD_MAX_STEPS:
                raise NumericalFailure(f"mass above level 2^{QBD_MAX_STEPS - 1} is still not below {tol:g}")
            powers.append(powers[-1] @ powers[-1])
        v, k = self.pi1, 0  # v = pi1 R^k; k is the largest level found whose mass above is >= tol
        for j in range(len(powers) - 2, -1, -1):
            step = v @ powers[j]
            if step @ at_or_above >= tol:
                v, k = step, k + (1 << j)
        return k + 1, float(v @ self.R @ at_or_above)


def _log_reduction(up: np.ndarray, local: np.ndarray, down: np.ndarray) -> np.ndarray:
    """G, the minimal solution of G = down + local G + up G^2: the
    phase in which the chain first enters the level below.

    Logarithmic reduction (Latouche & Ramaswami 1993). After step k, G
    holds the first passages that stay below 2^k levels up, and T is
    the weight of those that do not; its row sums bound what is left.
    """
    eye = np.eye(up.shape[0])
    b_up = np.linalg.solve(eye - local, up)
    b_down = np.linalg.solve(eye - local, down)
    G, T = b_down.copy(), b_up.copy()
    for _ in range(QBD_MAX_STEPS):
        mix = eye - b_up @ b_down - b_down @ b_up
        b_up, b_down = np.linalg.solve(mix, b_up @ b_up), np.linalg.solve(mix, b_down @ b_down)
        G += T @ b_down
        T = T @ b_up
        t_norm = float(np.abs(T).sum(axis=1).max())
        if t_norm < QBD_T_TOL:
            return G
    raise NumericalFailure(
        f"logarithmic reduction: ||T|| = {t_norm:.3e} still not below {QBD_T_TOL:g} "
        f"after {QBD_MAX_STEPS} steps; the policy may not stabilize the arrival rate"
    )


def qbd_stationary(spec: ServerSpec, lam: float, theta) -> QBDPMF:
    """Exact stationary law of the uncapped chain under a lifted policy.

    Level 0 has the n_s phases (s, A); each level q >= 1 the 2n_s
    reduced states. The blocks come from _level_flows: up = lam [idle |
    busy], local = [(1-lam) idle + lam done | (1-lam) busy] and down =
    (1-lam) [done | 0] between levels q >= 1, and the boundary blocks
    B00 = (1-lam) rest0, B01 = lam [rest0 | 0], B10 = (1-lam) done.
    With R = up (I - local - up G)^-1, (pi0, pi1) is the stationary law
    of the chain censored to levels 0 and 1, scaled so that
    pi0 1 + pi1 (I - R)^-1 1 = 1.

    At a nonempty queue the phases move by up + local + down, the
    reduced chain under the base policy, and the level drifts up by
    lam - (service rate in that chain). The chain is positive recurrent
    only if some recurrent class of the phases serves more than lam
    (mean-drift condition, Neuts 1981).

    Raises ValueError for a policy whose work probabilities change with
    q >= 1, NotStabilizableError naming the service rate and lam when
    no recurrent class of the phases serves more than lam, and
    NumericalFailure naming the quantity, its value and its bound when
    the service rate misses lam, the balance equations, the sign or the
    normalization fail their audit.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    n = spec.n_s
    table = _policy_levels(theta, n)
    if table.shape[0] != 2:
        raise ValueError("the QBD oracle needs a lifted policy: work probabilities may not change with q >= 1")
    (done,), (busy,), (idle,), rest0 = _level_flows(spec, table[1])
    up = lam * np.hstack([idle, busy])
    local = np.hstack([(1.0 - lam) * idle + lam * done, (1.0 - lam) * busy])
    down = (1.0 - lam) * np.hstack([done, np.zeros_like(done)])
    b00 = (1.0 - lam) * rest0
    b01 = lam * np.hstack([rest0, np.zeros_like(rest0)])
    b10 = (1.0 - lam) * done
    phases, served_at = up + local + down, done.sum(axis=1)
    rate = max(
        stationary_pmf(phases[np.ix_(c, c)]) @ served_at[c]
        for c, recurrent in communicating_classes(phases)
        if recurrent
    )
    if not rate > lam:
        raise NotStabilizableError(
            f"the policy serves {rate:.6g} per step at a nonempty queue, not more than "
            f"the arrival rate {lam:g}: the queue has no stationary law"
        )
    eye = np.eye(2 * n)
    try:
        G = _log_reduction(up, local, down)
        R = up @ np.linalg.inv(eye - local - up @ G)
        at_or_above = np.linalg.solve(eye - R, np.ones(2 * n))  # pi_k @ at_or_above: mass at levels >= k
        # censored to levels 0 and 1, excursions above return through G;
        # one balance equation is redundant, normalization replaces it
        M = np.block([[b00, b01], [b10, local + up @ G]]) - np.eye(3 * n)
        M[:, -1] = np.concatenate([np.ones(n), at_or_above])
        rhs = np.zeros(3 * n)
        rhs[-1] = 1.0
        x = np.linalg.solve(M.T, rhs)
        y_marg = np.linalg.solve((eye - R).T, x[n:])  # pi1 (I - R)^-1
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"QBD solve failed: {exc}") from exc
    pi0, pi1 = x[:n], x[n:]
    pi2 = pi1 @ R
    work = np.concatenate([table[1, 0], np.ones(n)])
    served = float(y_marg @ (work * np.concatenate([spec.mu, spec.mu])))
    residual = max(  # balance at levels 0, 1 and 2; level q > 2 is level 2 times R^(q-2)
        np.abs(pi0 @ b00 + pi1 @ b10 - pi0).max(),
        np.abs(pi0 @ b01 + pi1 @ local + pi2 @ down - pi1).max(),
        np.abs(pi1 @ up + pi2 @ local + pi2 @ R @ down - pi2).max(),
    )
    audits = (
        ("served-rate residual |service rate - lam|", abs(served - lam), FLOW_TOL),
        ("balance residual", residual, QBD_BALANCE_TOL),
        ("negative mass", -min(x.min(), y_marg.min(), 0.0), NEGATIVE_TOL),
        ("normalization residual", abs(pi0.sum() + y_marg.sum() - 1.0), NORMALIZATION_TOL),
    )
    for name, value, bound in audits:
        if not value <= bound:  # a NaN fails too
            raise NumericalFailure(f"QBD oracle audit: {name} {value:.3e} exceeds {bound:g}")
    pi0, pi1, y_marg = (np.clip(v, 0.0, None) for v in (pi0, pi1, y_marg))
    return QBDPMF(
        n_s=n,
        pi0=pi0,
        pi1=pi1,
        R=R,
        y_marginal=y_marg,
        utilization=float(y_marg @ work),
        service_rate=served,
        mean_queue=float(y_marg @ at_or_above),  # pi1 (I - R)^-2 1
        tail_decay=float(np.abs(np.linalg.eigvals(R)).max()),
        balance_residual=float(residual),
    )


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    burn_in: int | None = None
    replications: int = 1
    seed: int = 0
    initial_state: SystemState | None = None
    trace: bool = False

    def __post_init__(self):
        burn = self.horizon // 10 if self.burn_in is None else self.burn_in
        if not (self.horizon > burn >= 0):
            raise ValueError("need horizon > burn_in >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        object.__setattr__(self, "burn_in", burn)
        if self.initial_state is None:
            object.__setattr__(self, "initial_state", SystemState(1, Availability.A, 0))


@dataclass(frozen=True)
class SimResult:
    """Pooled and per-replication time averages.

    y_marginal is the empirical PMF over reduced states restricted to
    steps with a nonempty queue but normalized by all counted steps, so
    it sums to 1 minus the empty-queue fraction.
    """

    empirical_utilization: float
    empirical_service_rate: float
    empty_queue_fraction: float
    queue_mean: float
    queue_max: int
    y_marginal: np.ndarray
    utilization_se: float
    service_rate_se: float
    rep_utilization: np.ndarray
    rep_service_rate: np.ndarray
    rep_empty_fraction: np.ndarray
    rep_queue_mean: np.ndarray
    rep_queue_max: np.ndarray
    trace: np.ndarray | None = None


def _se(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _replicate(
    spec: ServerSpec,
    lam: float,
    table: np.ndarray,
    cfg: SimConfig,
    rep: int,
    start: SystemState,
    burn: int,
    target: SystemState | None = None,
    trace_rows: list | None = None,
):
    """Replication rep of cfg from start: the step loop of both
    simulators.

    Each block of up to SIM_BLOCK steps draws its uniforms at once. Per
    step the loop only moves the state, with s 0-based, and records
    3 s + outcome: 0 rest, 1 work, 2 work with a completion. After the
    block, numpy rebuilds each step's state from the codes and the
    arrival column: w is the previous step's outcome and q the carried q
    plus the arrivals minus the completions so far.

    Returns the tallies over steps k >= burn as (works, completions,
    empty-queue steps, queue sum, queue max, visits per reduced state at
    q >= 1), and the gaps between successive visits to target, one
    integer array per block with a visit. With trace_rows, appends one (steps, 7) array per
    block of rows (k, s, w, q, work, arrival, completion).
    """
    n = spec.n_s
    for state in (start, target):
        # a busy server holds the job in service, so q >= 1 when w = B
        if state is not None and not (1 <= state.s <= n and state.w in (0, 1) and state.q >= state.w):
            raise ValueError(
                f"(s, w, q) = ({state.s}, {state.w}, {state.q}) is not a state for n_s={n}: "
                "s must lie in 1..n_s, q >= 0, and q >= 1 when busy"
            )
    levels = table.shape[0] - 1
    tbl = table.tolist()
    mu = spec.mu.tolist()
    r_up = spec.rho_up.tolist()
    r_dn = spec.rho_down.tolist()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(rep,))))
    s, w, q = start.s - 1, int(start.w), start.q
    works = done_count = empty = q_sum = q_max_seen = 0
    y_counts = np.zeros(2 * n, dtype=np.int64)
    gaps = []
    last = 0
    for k0 in range(0, cfg.horizon, SIM_BLOCK):
        u = rng.random((min(SIM_BLOCK, cfg.horizon - k0), 4))
        w0, q0 = w, q
        u_act, u_done, _, u_move = u.T.tolist()
        arrival = u[:, 2] < lam
        codes = []
        record = codes.append
        for act, comp, arr, move in zip(u_act, u_done, arrival.tolist(), u_move):
            if act < tbl[q if q < levels else levels][w][s]:
                if comp < mu[s]:
                    record(3 * s + 2)
                    q -= 1
                    w = 0
                else:
                    record(3 * s + 1)
                    w = 1
                if move < r_up[s]:
                    s += 1
            else:
                record(3 * s)
                w = 0
                if move < r_dn[s]:
                    s -= 1
            if arr:
                q += 1

        code = np.array(codes, dtype=np.int64)
        outcome = code % 3
        done = outcome == 2
        q_next = q0 + np.cumsum(arrival.astype(np.int64) - done)
        w_next = outcome == 1
        s_now = code // 3
        w_now = np.concatenate(([w0], w_next[:-1]))
        q_now = np.concatenate(([q0], q_next[:-1]))
        i = max(burn - k0, 0)
        if i < code.size:
            qc = q_now[i:]
            busy = qc > 0
            works += int(np.count_nonzero(outcome[i:]))
            done_count += int(np.count_nonzero(done[i:]))
            empty += qc.size - int(np.count_nonzero(busy))
            q_sum += int(qc.sum())
            q_max_seen = max(q_max_seen, int(qc.max()))
            y_counts += np.bincount((w_now[i:] * n + s_now[i:])[busy], minlength=2 * n)
        if target is not None:
            s_next = np.append(s_now[1:], s)
            hit = (s_next == target.s - 1) & (w_next == int(target.w)) & (q_next == target.q)
            times = k0 + 1 + np.flatnonzero(hit)
            if times.size:
                gaps.append(np.diff(times, prepend=last))
                last = int(times[-1])
        if trace_rows is not None:
            k = np.arange(k0, k0 + code.size)
            rows = np.column_stack((k, s_now + 1, w_now, q_now, outcome > 0, arrival, done))
            trace_rows.append(rows.astype(np.int64))
    return (works, done_count, empty, q_sum, q_max_seen, y_counts), gaps


def simulate(spec: ServerSpec, lam: float, theta, cfg: SimConfig) -> SimResult:
    """Synchronous simulation of the full chain under theta.

    Per step, in order: action Bernoulli(theta(x)), completion
    Bernoulli(mu(s)) if working, arrival Bernoulli(lam), activity move.
    Uniforms are drawn for all four events regardless of the path.
    Replication r uses the stream SeedSequence(seed, spawn_key=(r,)).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    table = _policy_levels(theta, spec.n_s)
    counted = cfg.horizon - cfg.burn_in
    tallies = np.empty((cfg.replications, 5))
    y_counts_total = np.zeros(spec.n_y)
    trace_rows = [] if cfg.trace else None
    for rep in range(cfg.replications):
        (*totals, y_counts), _ = _replicate(
            spec, lam, table, cfg, rep, cfg.initial_state, cfg.burn_in, trace_rows=trace_rows
        )
        tallies[rep] = totals
        y_counts_total += y_counts / counted
    rep_util, rep_srv, rep_empty, rep_qmean = (tallies[:, :4] / counted).T
    rep_qmax = tallies[:, 4].astype(np.int64)

    return SimResult(
        empirical_utilization=float(rep_util.mean()),
        empirical_service_rate=float(rep_srv.mean()),
        empty_queue_fraction=float(rep_empty.mean()),
        queue_mean=float(rep_qmean.mean()),
        queue_max=int(rep_qmax.max()),
        y_marginal=y_counts_total / cfg.replications,
        utilization_se=_se(rep_util),
        service_rate_se=_se(rep_srv),
        rep_utilization=rep_util,
        rep_service_rate=rep_srv,
        rep_empty_fraction=rep_empty,
        rep_queue_mean=rep_qmean,
        rep_queue_max=rep_qmax,
        trace=np.concatenate(trace_rows) if trace_rows is not None else None,
    )


@dataclass(frozen=True)
class HittingStats:
    """Empirical return-time summary for a single target state."""

    mean: float
    count: int
    censored: bool
    min_time: int
    max_time: int


def hitting_time_stats(spec: ServerSpec, lam: float, theta, target: SystemState, cfg: SimConfig) -> HittingStats:
    """Mean empirical return time to the target state.

    Trajectories start at the target so successive visits are renewal
    cycles; burn-in is ignored. censored is set when some replication
    never returns within its horizon.
    """
    table = _policy_levels(theta, spec.n_s)
    gaps = []
    censored = False
    for rep in range(cfg.replications):
        # burn-in spans the whole run: return times need no tallies
        _, rep_gaps = _replicate(spec, lam, table, cfg, rep, target, cfg.horizon, target=target)
        gaps += rep_gaps
        censored = censored or not rep_gaps

    if not gaps:
        return HittingStats(mean=float("nan"), count=0, censored=True, min_time=0, max_time=0)
    arr = np.concatenate(gaps).astype(float)
    return HittingStats(
        mean=float(arr.mean()),
        count=arr.size,
        censored=censored,
        min_time=int(arr.min()),
        max_time=int(arr.max()),
    )
