"""Monte-Carlo simulation of the full chain and an exact truncated
stationary oracle.

The oracle caps the queue at q_max and blocks arrivals at the cap,
which keeps the kernel row-stochastic and biases utilization downward
predictably; tail mass at the cap is reported as the quality estimate.
The simulator draws four uniforms per step (action, completion,
arrival, activity move) in a fixed order so that runs are bit-exact
reproducible regardless of the path taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import stationary_pmf_y
from .model import (
    Availability,
    NumericalFailure,
    PolicyX,
    ServerSpec,
    SystemState,
    _kernel_matrices,
)

TAIL_WARN = 1e-6


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

    @property
    def tail_warning(self) -> bool:
        return self.tail_mass > TAIL_WARN

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


def _capped_chain(spec: ServerSpec, lam: float, theta, q_max: int):
    """Transition matrix of the queue-capped chain as COO triplets
    (rows, cols, vals), zeros dropped, in the TruncatedPMF state order.

    At each level q >= 1 a reduced state works with the policy's
    probability (surely when busy) and moves by the reduced kernels
    P_W, P_R. That splits into three flows: completion to (s', A) one
    level down, rest to (s', A) and work without completion to (s', B).
    An arrival, w.p. lam and never at q_max, lifts each flow one level.
    An empty queue rests, so level 0 has only its two rest blocks.
    """
    n = spec.n_s
    pw, pr = _kernel_matrices(spec)
    p = _policy_levels(theta, n, q_max)[1:].reshape(q_max, 2 * n, 1)
    p[:, n:] = 1.0
    done = p * pw[:, :n]
    busy = p * pw[:, n:]
    idle = (1.0 - p) * pr[:, :n]
    arr = np.full((q_max, 1, 1), lam)
    arr[-1] = 0.0
    stay = 1.0 - arr

    q = np.arange(1, q_max + 1)[:, None, None]
    first = (2 * q - 1) * n  # index of (1, A, q)
    src = first + np.arange(2 * n)[:, None]
    col_a, col_y = np.arange(n), np.arange(2 * n)
    blocks = [  # (rows, cols, vals), broadcast against each other
        (col_a[:, None], col_a, (1.0 - lam) * pr[:n, :n]),  # level 0, no arrival
        (col_a[:, None], n + col_a, lam * pr[:n, :n]),  # level 0, arrival
        (src, np.maximum(first - 2 * n, 0) + col_a, done * stay),  # one level down
        (src, first + col_y, np.concatenate([done * arr + idle * stay, busy * stay], axis=2)),  # same level
        (src[:-1], first[:-1] + 2 * n + col_y, np.concatenate([idle * arr, busy * arr], axis=2)[:-1]),  # one up
    ]
    triplets = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, vals = (np.concatenate([t[i].ravel() for t in triplets]) for i in range(3))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def truncated_stationary(
    spec: ServerSpec,
    lam: float,
    theta,
    q_max: int,
    warn: bool = True,
) -> TruncatedPMF:
    """Exact stationary PMF of the queue-capped chain under theta.

    Arrivals are suppressed at q = q_max. The policy is consulted
    through theta.policy_table(); admissibility at q = 0 and at busy
    states is enforced structurally.
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
    # locates a safely recurrent state first.
    v = np.full(size, 1.0 / size)
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
    if np.any(pi < -1e-12):
        raise NumericalFailure("truncated stationary solve produced negative mass")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ P - pi)))
    if residual > 1e-9 or abs(pi.sum() - 1.0) > 1e-10:
        raise NumericalFailure(f"truncated balance residual {residual:.3e} too large")

    tail = float(pi[n + (q_max - 1) * 2 * n :].sum())
    if warn and tail > TAIL_WARN:
        warnings.warn(
            f"tail mass {tail:.3e} at q_max={q_max} exceeds {TAIL_WARN}; increase q_max",
            stacklevel=2,
        )
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
        pmf = truncated_stationary(spec, lam, theta, q, warn=False)
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


def y_marginal_distance(
    spec: ServerSpec,
    lam: float,
    phi,
    q_max: int | None = None,
) -> float:
    """L1 distance between the reduced stationary PMF and the busy-queue
    marginal of the lifted chain's stationary PMF."""
    pi_y = stationary_pmf_y(spec, phi)
    theta = PolicyX(base=phi)
    if q_max is None:
        pmf = truncated_stationary_auto(spec, lam, theta)
    else:
        pmf = truncated_stationary(spec, lam, theta, q_max)
    return float(np.sum(np.abs(pi_y - pmf.y_marginal())))


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

    Returns the tallies over steps k >= burn as (works, completions,
    empty-queue steps, queue sum, queue max, visits per reduced state at
    q >= 1), and the gaps between successive visits to target.
    """
    n = spec.n_s
    levels = table.shape[0] - 1
    tbl = table.tolist()
    mu = spec.mu.tolist()
    r_up = spec.rho_up.tolist()
    r_dn = spec.rho_down.tolist()
    # q = -1 never occurs, so without a target no step matches
    t_s, t_w, t_q = (target.s, int(target.w), target.q) if target is not None else (0, 0, -1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(rep,))))
    s, w, q = start.s, int(start.w), start.q
    works = done_count = empty = q_sum = q_max_seen = 0
    y_counts = [0] * (2 * n)
    gaps = []
    last = 0
    k = 0
    while k < cfg.horizon:
        for u_act, u_done, u_arr, u_move in rng.random((min(1 << 16, cfg.horizon - k), 4)):
            counting = k >= burn
            if counting:
                if q == 0:
                    empty += 1
                else:
                    y_counts[w * n + s - 1] += 1
                q_sum += q
                if q > q_max_seen:
                    q_max_seen = q
            p = tbl[q if q < levels else levels][w][s - 1]
            work = u_act < p
            done = work and (u_done < mu[s - 1])
            arrival = u_arr < lam
            if counting:
                if work:
                    works += 1
                if done:
                    done_count += 1
            if trace_rows is not None:
                trace_rows.append((k, s, w, q, int(work), int(arrival), int(done)))
            q = q - (1 if done else 0) + (1 if arrival else 0)
            w = 1 if (work and not done) else 0
            if work:
                if u_move < r_up[s - 1]:
                    s += 1
            elif u_move < r_dn[s - 1]:
                s -= 1
            k += 1
            if q == t_q and s == t_s and w == t_w:
                gaps.append(k - last)
                last = k
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
        y_counts_total += np.asarray(y_counts, dtype=float) / counted
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
        trace=np.asarray(trace_rows, dtype=np.int64) if trace_rows is not None else None,
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
    arr = np.asarray(gaps, dtype=float)
    return HittingStats(
        mean=float(arr.mean()),
        count=len(gaps),
        censored=censored,
        min_time=int(arr.min()),
        max_time=int(arr.max()),
    )
