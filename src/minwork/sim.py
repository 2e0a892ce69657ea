"""Monte-Carlo simulation of the full chain and two exact stationary
oracles.

Both oracles and the simulator take a model.PolicyX, the work
probabilities table[min(q, L), w, s-1], and both oracles build the
chain from the same per-level transition blocks, _level_blocks.

The QBD oracle is the answer for lifted policies, whose work
probabilities do not depend on q once q >= 1. Since q moves by at most
one per step, their uncapped chain is a level-independent
quasi-birth-death process and its stationary law is matrix-geometric,
pi_(q+1) = pi_q R (Neuts 1981), with G from logarithmic reduction
(Latouche & Ramaswami 1993). Before it solves, its drift test reads
the reduced chain's law from chain.stationary_pmf_y, the one solver of
that chain. A policy that passes it has a stochastic G, so the
reduction runs on blocks shifted to move G's eigenvalue 1 to 0 (He,
Meini & Rhee 2001) and takes a few steps however close the queue is
to null recurrence. Every answer is audited for precision near null
recurrence, flow conservation, balance, sign and normalization.

The truncated oracle caps the queue at q_max and blocks arrivals at
the cap, which keeps the kernel row-stochastic and biases utilization
downward predictably; callers read the mass at the cap, tail_mass, to
judge the cut. It takes any table, so it solves queue-dependent
policies and cross-checks the QBD oracle in the tests.

The simulator draws four uniforms per step (action, completion,
arrival, activity move) in a fixed order so that runs are bit-exact
reproducible regardless of the path taken. It draws them in blocks of
SIM_BLOCK steps; the Philox stream does not depend on the block size,
so neither do the results. Each event happens when its uniform is below
a probability: a work probability, mu(s), rho_up(s) or rho_down(s), or
lam. numpy ranks each block's uniforms by counting the distinct
probabilities strictly inside (0, 1) at or below them, which makes
exactly those comparisons, and folds a step's ranks into one symbol.
Where that symbol fits in a byte, the step loop moves the state two
steps per table lookup, on the symbols of an even and an odd step, and
one vectorized lookup fills in the states between; otherwise it moves
one step per lookup, on the action rank and the rest of the symbol
(_step_tables). The block's tallies come from one histogram of the
states it visits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import NEGATIVE_TOL, _chain_rates, recurrent_sets, stationary_pmf_y
from .frontier import NotStabilizableError
from .model import (
    Availability,
    NumericalFailure,
    PolicyX,
    ServerSpec,
    SystemState,
    _kernel_matrices,
    audit,
    check_state,
    y_state,
)

QBD_MAX_STEPS = 64  # each reduction step or squaring doubles the levels covered
QBD_T_TOL = 1e-15  # bound on ||T|| ||b_down||, which bounds the reduction's next increment to G
FLOW_TOL = 1e-9  # |service rate - lam|
DRIFT_TOL = 1e-12  # a service rate within this of lam is lam: the drift test's round-off margin
QBD_BALANCE_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
SIM_BLOCK = 4096  # steps of uniforms drawn at once; the stream is the same for any block size
PAIR_SLOTS = 1 << 17  # most list slots of two-step rows; past it the step loop takes one step per lookup
CAP_TAIL_TOL = 1e-10  # mass at the cap that truncated_stationary_auto accepts
Q_CAP = 1 << 17  # largest cap truncated_stationary_auto tries


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
        check_state(n, s, w, q, self.q_max)
        if q == 0:
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


def _level_blocks(spec: ServerSpec, lam, work: np.ndarray):
    """Transition blocks of the full chain per queue level, as (up,
    local, down), each of shape (levels, 2n_s, 2n_s) with rows indexed
    by the source state and columns by the target state in the fixed
    reduced order.

    work holds the policy's work probabilities [level, w, s-1] at those
    levels; lam is the arrival probability, one value for every level or
    one per level. A state works with its probability (surely when
    busy) and moves by the reduced kernels P_W, P_R: a completion lands
    on (s', A) one level down, work without one on (s', B) and rest on
    (s', A), each at the same level. An arrival lifts every move one
    level. At level 0 the available states rest, so their rows of local
    and up are the boundary blocks; the busy rows of level 0 belong to
    no state.
    """
    n = spec.n_s
    p = np.array(work, dtype=float)
    if p.shape[1:] != (2, n):
        raise ValueError("policy table does not match spec")
    p = p.reshape(-1, 2 * n, 1)
    p[:, n:] = 1.0
    pw, pr = _kernel_matrices(spec)
    done, busy, idle = p * pw[:, :n], p * pw[:, n:], (1.0 - p) * pr[:, :n]
    arr = np.reshape(lam, (-1, 1, 1))
    stay = 1.0 - arr
    up = np.concatenate([idle * arr, busy * arr], axis=2)
    local = np.concatenate([done * arr + idle * stay, busy * stay], axis=2)
    down = np.concatenate([done * stay, np.zeros_like(done)], axis=2)
    return up, local, down


def _capped_chain(spec: ServerSpec, lam: float, theta: PolicyX, q_max: int):
    """Transition matrix of the queue-capped chain as COO triplets
    (rows, cols, vals), zeros dropped, in the TruncatedPMF state order:
    the blocks of _level_blocks at levels 0..q_max, with no arrivals at
    q_max.
    """
    n = spec.n_s
    arr = np.full(q_max + 1, lam)
    arr[-1] = 0.0
    up, local, down = _level_blocks(spec, arr, theta.levels(q_max))

    q = np.arange(1, q_max + 1)[:, None, None]
    first = (2 * q - 1) * n  # index of (1, A, q)
    src = first + np.arange(2 * n)[:, None]
    col_a, col_y = np.arange(n), np.arange(2 * n)
    blocks = [  # (rows, cols, vals), broadcast against each other
        (col_a[:, None], col_a, local[0, :n, :n]),  # level 0, no arrival
        (col_a[:, None], n + col_y, up[0, :n]),  # level 0, arrival
        (src, np.maximum(first - 2 * n, 0) + col_a, down[1:, :, :n]),  # one level down
        (src, first + col_y, local[1:]),  # same level
        (src[:-1], first[:-1] + 2 * n + col_y, up[1:-1]),  # one up
    ]
    triplets = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, vals = (np.concatenate([t[i].ravel() for t in triplets]) for i in range(3))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def truncated_stationary(spec: ServerSpec, lam: float, theta: PolicyX, q_max: int) -> TruncatedPMF:
    """Exact stationary PMF of the queue-capped chain under theta.

    Arrivals are suppressed at q = q_max; tail_mass, the mass at
    q_max, tells the caller how much the cap cut.
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
    # v @ P would transpose P on every step; transpose it once.
    Pt = P.T
    v = np.zeros(size)
    v[:n] = 1.0 / n
    for _ in range(64):
        v = 0.5 * (v + Pt @ v)
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
    total = pi.sum()  # NaN or inf if any entry is
    if not 0.0 < total < np.inf:
        raise NumericalFailure(f"truncated stationary solve total mass {total:.3e} is not finite and positive")
    pi = pi / total
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    audit("truncated oracle", ("negative mass", -pi.min(), NEGATIVE_TOL))
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ P - pi)))
    audit(
        "truncated oracle",
        ("normalization residual", abs(pi.sum() - 1.0), NORMALIZATION_TOL),
        ("balance residual", residual, 1e-9),
    )

    tail = float(pi[n + (q_max - 1) * 2 * n :].sum())
    return TruncatedPMF(n_s=n, q_max=q_max, probs=pi, tail_mass=tail, balance_residual=residual)


def truncated_stationary_auto(spec: ServerSpec, lam: float, theta: PolicyX, q_max: int = 512) -> TruncatedPMF:
    """Double q_max until the tail mass drops below CAP_TAIL_TOL, up to
    Q_CAP."""
    q = q_max
    while True:
        pmf = truncated_stationary(spec, lam, theta, q)
        if pmf.tail_mass < CAP_TAIL_TOL:
            return pmf
        if q >= Q_CAP:
            raise NumericalFailure(
                f"truncation cap q_cap={Q_CAP} ran out: tail mass {pmf.tail_mass:.3e} "
                f"is still above tail_tol={CAP_TAIL_TOL:g} at q_max={q}"
            )
        q *= 2


def truncated_utilization(pmf: TruncatedPMF, theta: PolicyX) -> float:
    """Stationary probability of working: sum over states of
    pi(x) theta(x)."""
    work = theta.levels(pmf.q_max)[1:]
    return float(np.sum(pmf.probs[pmf.n_s :].reshape(work.shape) * work))


def truncated_service_rate(spec: ServerSpec, pmf: TruncatedPMF, theta: PolicyX) -> float:
    """Stationary completions per step: sum of pi(x) theta(x) mu(s)."""
    work = theta.levels(pmf.q_max)[1:]
    return float(np.sum(pmf.probs[pmf.n_s :].reshape(work.shape) * work * spec.mu))


@dataclass(frozen=True)
class QBDPMF:
    """Exact stationary law of the lifted chain.

    pi0 is the mass at (s, A, 0) for s = 1..n_s; level q >= 1 carries
    pi1 R^(q-1) over the reduced states in the fixed reduced order.
    at_or_above is (I - R)^-1 1, the vector qbd_stationary solved for
    its normalization: pi_q at_or_above is the mass at levels >= q.
    y_marginal sums the levels q >= 1; utilization and service_rate are
    the stationary probabilities of working and of a completion;
    mean_queue is E[q]; tail_decay is the spectral radius of R, the
    geometric rate at which level masses fall.
    """

    n_s: int
    pi0: np.ndarray
    pi1: np.ndarray
    R: np.ndarray
    at_or_above: np.ndarray
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
        at_or_above = self.at_or_above
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

    Requires G 1 = 1, which holds once qbd_stationary's drift test has
    passed: the level then falls below any start surely. Every first
    passage lands on an available phase, so with v uniform over the n_s
    of them, H = G - 1 v solves the same equation with the shifted
    blocks up, local + up 1 v and down - down 1 v (He, Meini & Rhee
    2001), and G's eigenvalue 1 is 0 in H. Logarithmic reduction
    (Latouche & Ramaswami 1993) on those blocks then converges at rate
    |lambda_2(G)| sp(R), not sp(R), and G's busy columns stay zero.
    After step k, H holds the first passages that stay below 2^k levels
    up and T is the weight of those that do not; the stop test takes
    ||T|| ||b_down|| as the size of the next step's increment T b_down.
    """
    m = up.shape[0]
    n = m // 2
    v = np.zeros(m)
    v[:n] = 1.0 / n
    eye = np.eye(m)
    local = local + np.outer(up.sum(axis=1), v)
    down = down - np.outer(down.sum(axis=1), v)
    b_up, b_down = np.hsplit(np.linalg.solve(eye - local, np.hstack([up, down])), 2)
    H, T = b_down.copy(), b_up.copy()
    with np.errstate(all="ignore"):  # a diverging reduction raises below instead of warning
        for step in range(1, QBD_MAX_STEPS + 1):
            mix = eye - b_up @ b_down - b_down @ b_up
            b_up, b_down = np.hsplit(np.linalg.solve(mix, np.hstack([b_up @ b_up, b_down @ b_down])), 2)
            H += T @ b_down
            T = T @ b_up
            bound = float(np.abs(T).sum(axis=1).max() * np.abs(b_down).sum(axis=1).max())
            if bound < QBD_T_TOL:
                return H + v
            if not np.isfinite(bound):
                raise NumericalFailure(
                    f"logarithmic reduction: ||T|| ||b_down|| = {bound} is not finite after {step} steps; "
                    "the policy may not stabilize the arrival rate"
                )
    raise NumericalFailure(
        f"logarithmic reduction: ||T|| ||b_down|| = {bound:.3e} still not below {QBD_T_TOL:g} "
        f"after {QBD_MAX_STEPS} steps; the policy may not stabilize the arrival rate"
    )


def qbd_stationary(spec: ServerSpec, lam: float, theta: PolicyX) -> QBDPMF:
    """Exact stationary law of the uncapped chain under a lifted policy.

    Level 0 has the n_s phases (s, A); each level q >= 1 the 2n_s
    reduced states. _level_blocks at the policy's two table rows gives
    the blocks: up, local and down between levels q >= 1 are those of
    level 1, and the boundary blocks are B00 = local and B01 = up at
    level 0 and B10 = down at level 1, restricted to the (s, A) phases.
    With R = up (I - local - up G)^-1, (pi0, pi1) is the stationary law
    of the chain censored to levels 0 and 1, scaled so that
    pi0 1 + pi1 (I - R)^-1 1 = 1.

    At a nonempty queue the phases move by up + local + down, the
    reduced chain under the base policy, and the level drifts up by
    lam - (service rate in that chain). B01 feeds every phase (s, A),
    since a rest at level 0 keeps s with probability 1 - rho_down(s) >
    0, so each recurrent class of that chain traps the phases with
    positive probability, and the chain is positive recurrent only if
    every class serves more than lam (mean-drift condition, Neuts 1981).
    The classes are read off the base policy (chain.recurrent_sets):
    when it rests at (1, A), (1, A) is absorbing and serves nothing;
    otherwise the one class serves at the rate of stationary_pmf_y's
    law. A rate within DRIFT_TOL of lam counts as lam: round-off puts a
    null-recurrent policy's rate on either side of it.

    Raises ValueError for a policy whose work probabilities change with
    q >= 1, NotStabilizableError naming the service rate, lam and the
    class when a recurrent class of the phases serves no more than
    lam + DRIFT_TOL, and NumericalFailure naming
    the quantity, its value and its bound when the precision estimate
    eps / (1 - sp(R))^2 exceeds 1 (the queue is too close to null
    recurrence for double precision), the service rate misses lam, or
    the balance equations, the sign or the normalization fail their
    audit.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    n = spec.n_s
    base = theta.base  # raises ValueError unless theta is lifted
    work = base.full
    (b0_up, up), (b0_local, local), (_, down) = _level_blocks(spec, lam, theta.table)
    b00, b01 = b0_local[:n, :n], b0_up[:n]
    b10 = np.ascontiguousarray(down[:, :n])
    slowest = recurrent_sets(base)[0]
    mu2 = _chain_rates(spec).mu2
    # when base rests at (1, A), (1, A) is absorbing and serves nothing
    rate = float(np.dot(stationary_pmf_y(spec, base) * work, mu2)) if base.work_prob[0] > 0.0 else 0.0
    if not rate > lam + DRIFT_TOL:
        states = ", ".join(f"({y.s}, {y.w.name})" for y in (y_state(n, i) for i in slowest))
        raise NotStabilizableError(
            f"the policy serves {rate:.6g} per step at a nonempty queue, not more than "
            f"the arrival rate {lam:g} by {DRIFT_TOL:g}: the queue has no stationary law "
            f"(phase class {{{states}}})"
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
    served = float(y_marg @ (work * mu2))
    residual = max(  # balance at levels 0, 1 and 2; level q > 2 is level 2 times R^(q-2)
        np.abs(pi0 @ b00 + pi1 @ b10 - pi0).max(),
        np.abs(pi0 @ b01 + pi1 @ local + pi2 @ down - pi1).max(),
        np.abs(pi1 @ up + pi2 @ local + pi2 @ R @ down - pi2).max(),
    )
    tail_decay = float(np.abs(np.linalg.eigvals(R)).max())
    # near null recurrence E[q] is ill-conditioned: on example1 the exact
    # law of the blocks as rounded to double, whose rows miss 1 by about
    # eps, moved E[q] by 1e-5 to 1.2e-4 of this estimate, relative. It
    # reaches 1 at 1 - sp(R) = sqrt(eps)
    precision = np.finfo(float).eps / (1.0 - tail_decay) ** 2 if tail_decay < 1.0 else np.inf
    audit(
        "QBD oracle",
        ("precision estimate eps / (1 - sp(R))^2", precision, 1.0),
        ("served-rate residual |service rate - lam|", abs(served - lam), FLOW_TOL),
        ("balance residual", residual, QBD_BALANCE_TOL),
        ("negative mass", -min(x.min(), y_marg.min(), 0.0), NEGATIVE_TOL),
        ("normalization residual", abs(pi0.sum() + y_marg.sum() - 1.0), NORMALIZATION_TOL),
    )
    pi0, pi1, y_marg = (np.clip(v, 0.0, None) for v in (pi0, pi1, y_marg))
    return QBDPMF(
        n_s=n,
        pi0=pi0,
        pi1=pi1,
        R=R,
        at_or_above=at_or_above,
        y_marginal=y_marg,
        utilization=float(y_marg @ work),
        service_rate=served,
        mean_queue=float(y_marg @ at_or_above),  # pi1 (I - R)^-2 1
        tail_decay=tail_decay,
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
        fields = {"horizon": self.horizon, "replications": self.replications, "seed": self.seed}
        if self.burn_in is not None:
            fields["burn_in"] = self.burn_in
        for name, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        burn = self.horizon // 10 if self.burn_in is None else self.burn_in
        if not (self.horizon > burn >= 0):
            raise ValueError("need horizon > burn_in >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
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


def _check_states(spec: ServerSpec, lam: float, theta: PolicyX, *states: SystemState) -> None:
    """Raise ValueError unless lam lies in (0, 1), each state is a state
    of the chain and theta's table matches spec."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    for state in states:
        check_state(spec.n_s, *state)
    if theta.table.shape[2] != spec.n_s:
        raise ValueError("policy table does not match spec")


@dataclass(frozen=True)
class _StepTables:
    """The step loop's tables for one spec, policy and block size.

    The state is x = (q - base) 2 n_s + w n_s + s - 1 for a base level
    the loop picks per block. Each event happens when its uniform u in
    [0, 1) is below a probability; one of 0 never happens and one of 1
    always does, so only the distinct probabilities strictly inside
    (0, 1) are thresholds: act among the work probabilities, done among
    mu and move among rho_up and rho_down. The rank of u counts the
    thresholds t <= u, so u < t[j] exactly when the rank is <= j. Per
    step, the symbol a is the rank of the action uniform, and b folds
    the ranks of the completion and move uniforms with the arrival,
    b = 2 ((rank in done) (len(move) + 1) + rank in move) + arrival;
    c = a nb + b folds both, nb the number of b symbols.

    When c fits in a byte and the two-step rows hold at most PAIR_SLOTS
    list slots, rows[x][c1][c2] is the change of x over two steps with
    symbols c1 then c2, and step[min(level, L) 2 n_s + r, c] is the
    change over one. rows covers 2 block + L + 2 levels: levels 0..L
    their own, the rest the one list of rows of level L + 1, where both
    steps act as at level L. Otherwise step is None and rows[x][a] is
    the outcome family of one step, rest or work at (w, s), one of
    4 n_s, whose entry b is the change of x; rows covers 2 block + L + 1
    levels: levels 0..L-1 their own, the rest the one list of rows of
    level L, which holds for every q >= L.
    """

    n_s: int
    levels: int  # L: the table's last row holds for every q >= L
    block: int
    act: list
    done: list
    move: list
    a_dtype: np.dtype  # the narrowest unsigned dtypes that hold a and b
    b_dtype: np.dtype
    rows: list
    step: np.ndarray | None  # int64, ((L + 1) 2 n_s, na nb), with two-step rows


def _thresholds(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of p strictly inside (0, 1), and per
    entry the largest rank at which a uniform is below it: -1 for 0,
    the number of thresholds for 1."""
    values, index = np.unique(p, return_inverse=True)
    return values[(values > 0.0) & (values < 1.0)], index.reshape(p.shape) - int(values[0] == 0.0)


def _shared_lists(rows, lo: int, hi: int) -> list:
    """Each int array of rows, with entries in lo..hi, as a list that
    shares one int object per distinct value with the others: Python
    keeps no cached ints outside [-5, 256], and one per entry took 60 MB
    at n_s = 50 with all-distinct mu and rho."""
    shared = list(range(lo, hi + 1))
    return [list(map(shared.__getitem__, (row - lo).tolist())) for row in rows]


def _pair_rows(step: np.ndarray, n2: int, L: int) -> list | None:
    """The two-step rows of levels 0..L + 1 from the one-step table, or
    None when they would hold more than PAIR_SLOTS list slots.

    The pair (c1, c2) from x first moves x to x' = x + d, d =
    step[x, c1], then adds step[x', c2], so (d, row of x') fixes the
    inner list over c2; equal inner lists are one list. x' < 0 only
    from the busy rows of level 0, which are no state.
    """
    top = L * n2  # the first state of level L, whose row every higher level uses
    x = np.arange(top + 2 * n2)
    d = step[np.minimum(x, top + x % n2)]
    x = np.maximum(x[:, None] + d, 0)
    d_lo, width = int(d.min()), top + n2
    keys, inverse = np.unique((d - d_lo) * width + np.minimum(x, top + x % n2), return_inverse=True)
    if inverse.size + keys.size * step.shape[1] > PAIR_SLOTS:
        return None
    inner = keys[:, None] // width + d_lo + step[keys % width]
    inner = _shared_lists(inner, int(inner.min()), int(inner.max()))
    return [list(map(inner.__getitem__, row)) for row in inverse.reshape(x.shape[0], -1).tolist()]


def _step_tables(spec: ServerSpec, theta: PolicyX, block: int) -> _StepTables:
    n, L = spec.n_s, theta.table.shape[0] - 1
    n2 = 2 * n
    act, j_act = _thresholds(theta.table)
    done, j_done = _thresholds(spec.mu)
    move, (j_up, j_down) = _thresholds(np.stack([spec.rho_up, spec.rho_down]))
    # the change of x per family (o, w, s), o = 0 rest, 1 work, over
    # the axes (rank in done, rank in move, arrival) of b
    per_s = (n, 1, 1, 1)
    completes = np.arange(done.size + 1)[:, None, None] <= j_done.reshape(per_s)
    up, down = (np.arange(move.size + 1)[:, None] <= j.reshape(per_s) for j in (j_up, j_down))
    arrival = np.arange(2)
    w_axis = np.arange(2).reshape(2, 1, 1, 1, 1)
    rest = arrival * 2 * n - w_axis * n - down
    work = (arrival - completes) * 2 * n + (1 - completes - w_axis) * n + up
    shape = (2, n, done.size + 1, move.size + 1, 2)
    nb = 2 * (done.size + 1) * (move.size + 1)
    nc = (act.size + 1) * nb

    step = rows = None
    if nc <= 256 and (L + 2) * n2 * nc <= PAIR_SLOTS:
        changes = np.stack([np.broadcast_to(o, shape) for o in (rest, work)]).reshape(2 * n2, nb)
        # per level 0..L, w and s: the family o 2 n_s + w n_s + s per action rank
        family = np.where(np.arange(act.size + 1) <= j_act[..., None], n2, 0) + np.arange(n2).reshape(2, n, 1)
        step = changes[family].reshape(-1, nc)
        rows = _pair_rows(step, n2, L)
    if rows is None:
        step = None
        families = _shared_lists(
            (np.broadcast_to(o, shape)[w, s].ravel() for o in (rest, work) for w in range(2) for s in range(n)),
            int(min(rest.min(), work.min())), int(max(rest.max(), work.max())),
        )
        # per level 0..L, w and s: the family per action rank
        rows = [
            [families[(2 + w) * n + s]] * (j + 1) + [families[w * n + s]] * (act.size - j)
            for (_, w, s), j in np.ndenumerate(j_act)
        ]
    top = rows[L * n2 :] if step is None else rows[(L + 1) * n2 :]
    for _ in range(2 * block):  # one extension at a time keeps the peak low
        rows += top
    return _StepTables(
        n, L, block, act.tolist(), done.tolist(), move.tolist(),
        np.min_scalar_type(act.size), np.min_scalar_type(nb - 1), rows, step,
    )


def _symbols(sym: np.ndarray):
    """The ranks as Python ints: iterating bytes is the cheaper way
    when they fit in one."""
    return sym.tobytes() if sym.dtype == np.uint8 else sym.tolist()


def _replicate(
    tables: _StepTables,
    lam: float,
    cfg: SimConfig,
    rep: int,
    start: SystemState,
    burn: int,
    target: SystemState | None = None,
    trace: np.ndarray | None = None,
):
    """Replication rep of cfg from start: the step loop of both
    simulators.

    Each block of up to tables.block steps draws its uniforms at once
    and ranks each column by counting the thresholds at or below it, so
    the loop only sets x += rows[x][s1][s2] and records x. With two-step
    rows, (s1, s2) are the folded symbols of steps 2k and 2k + 1, and
    one lookup in tables.step then gives the states after the even
    steps; an odd block pads its last pair with a step that is thrown
    away. With one-step rows, (s1, s2) = (a, b) of each step. The
    block's base is its start level less block + L, or 0, so its rows
    cover every level the block can reach. The tallies come from one
    histogram of the block's counted states over (level, w, s); the
    completions are the arrivals less the change of q, and the works
    the counted steps whose next state is busy plus the completions.
    Only the trace rebuilds each step's (s, w, q).

    Returns the tallies over steps k >= burn as (works, completions,
    empty-queue steps, queue sum, queue max, visits per reduced state at
    q >= 1), and the gaps between successive visits to target, one
    integer array per block with a visit. With trace, an int64 array of
    shape (cfg.horizon, 7), writes row k as (k, s, w, q, work, arrival,
    completion).
    """
    n, L, block, rows, step = tables.n_s, tables.levels, tables.block, tables.rows, tables.step
    n2, move_ranks = 2 * n, len(tables.move) + 1
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(rep,))))
    q, r = start.q, int(start.w) * n + start.s - 1  # r = w n + s - 1, the reduced state
    works = done_count = empty = q_sum = q_max_seen = 0
    y_counts = np.zeros(n2, dtype=np.int64)
    gaps = []
    last = 0
    for k0 in range(0, cfg.horizon, block):
        # columns: action, completion, arrival, move
        u = np.ascontiguousarray(rng.random((min(block, cfg.horizon - k0), 4)).T)
        m = u.shape[1]
        sym_a = np.zeros(m, tables.a_dtype)
        for t in tables.act:
            sym_a += u[0] >= t
        # with two-step rows, sym_b folds a in too: c = a nb + b, one byte
        sym_b = np.zeros(m, tables.b_dtype) if step is None else sym_a * (len(tables.done) + 1)
        for t in tables.done:
            sym_b += u[1] >= t
        sym_b *= move_ranks
        for t in tables.move:
            sym_b += u[3] >= t
        sym_b *= 2
        arrival = u[2] < lam
        sym_b += arrival
        if step is None:
            pairs = zip(*map(_symbols, (sym_a, sym_b)))
        else:  # an odd block ends with a step whose outcome is thrown away
            c = sym_b.tobytes() + bytes(m % 2)
            pairs = zip(c[::2], c[1::2])
        base = max(q - block - L, 0)
        x = x0 = (q - base) * n2 + r
        xs = [x := x + rows[x][s1][s2] for s1, s2 in pairs]
        if step is None:
            path = np.concatenate(([x0], np.fromiter(xs, np.int64, m)))  # before each step, then after the last
        else:
            path = np.empty(m + 1, np.int64)
            path[0] = x0
            path[2::2] = np.fromiter(xs, np.int64, m // 2)
            # the states after the even steps, from the states before them
            before = path[:m:2]
            path[1::2] = before + step[np.minimum(before, L * n2 + before % n2), sym_b[::2]]
        q, r = divmod(int(path[-1]), n2)
        q += base
        i = max(burn - k0, 0)
        if i < m:
            counted = path[i:-1]
            lo, hi = int(counted.min()) // n2, int(counted.max()) // n2
            hist = np.bincount(counted - lo * n2, minlength=(hi - lo + 1) * n2).reshape(-1, n2)
            per_level = hist.sum(axis=1)
            q_sum += int(per_level @ np.arange(base + lo, base + hi + 1))
            q_max_seen = max(q_max_seen, base + hi)
            if base + lo == 0:
                empty += int(per_level[0])
                hist = hist[1:]
            y_counts += hist.sum(axis=0)
            x_i = int(path[i])
            completions = int(np.count_nonzero(arrival[i:])) - (q - base - x_i // n2)
            done_count += completions
            # the next states of the counted steps are the counted states but the first, then the last
            works += int(hist[:, n:].sum()) - (x_i % n2 >= n) + (r >= n) + completions
        if target is not None:
            hit = path[1:] == (target.q - base) * n2 + int(target.w) * n + target.s - 1
            times = k0 + 1 + np.flatnonzero(hit)
            if times.size:
                gaps.append(np.diff(times, prepend=last))
                last = int(times[-1])
        if trace is not None:
            steps = trace[k0 : k0 + m]
            q_now, r_now = np.divmod(path, n2)
            q_now += base
            steps[:, 0] = np.arange(k0, k0 + m)
            steps[:, 2], steps[:, 1] = np.divmod(r_now[:-1], n)
            steps[:, 1] += 1
            steps[:, 3] = q_now[:-1]
            steps[:, 5] = arrival
            steps[:, 6] = arrival - np.diff(q_now)  # 1 at a completion
            steps[:, 4] = (r_now[1:] >= n) | (steps[:, 6] > 0)  # busy next, or done
    return (works, done_count, empty, q_sum, q_max_seen, y_counts), gaps


def simulate(spec: ServerSpec, lam: float, theta: PolicyX, cfg: SimConfig) -> SimResult:
    """Synchronous simulation of the full chain under theta.

    Per step, in order: action Bernoulli(theta(x)), completion
    Bernoulli(mu(s)) if working, arrival Bernoulli(lam), activity move.
    Uniforms are drawn for all four events regardless of the path.
    Replication r uses the stream SeedSequence(seed, spawn_key=(r,)).
    """
    _check_states(spec, lam, theta, cfg.initial_state)
    tables = _step_tables(spec, theta, min(SIM_BLOCK, cfg.horizon))
    counted = cfg.horizon - cfg.burn_in
    tallies = np.empty((cfg.replications, 5))
    y_counts_total = np.zeros(spec.n_y)
    trace = np.empty((cfg.replications * cfg.horizon, 7), np.int64) if cfg.trace else None
    for rep in range(cfg.replications):
        (*totals, y_counts), _ = _replicate(
            tables, lam, cfg, rep, cfg.initial_state, cfg.burn_in,
            trace=None if trace is None else trace[rep * cfg.horizon : (rep + 1) * cfg.horizon],
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
        trace=trace,
    )


@dataclass(frozen=True)
class HittingStats:
    """Empirical return-time summary for a single target state."""

    mean: float
    count: int
    censored: bool
    min_time: int
    max_time: int


def hitting_time_stats(
    spec: ServerSpec, lam: float, theta: PolicyX, target: SystemState, cfg: SimConfig
) -> HittingStats:
    """Mean empirical return time to the target state.

    Trajectories start at the target so successive visits are renewal
    cycles; burn-in is ignored. censored is set when some replication
    never returns within its horizon.
    """
    _check_states(spec, lam, theta, target)
    tables = _step_tables(spec, theta, min(SIM_BLOCK, cfg.horizon))
    gaps = []
    censored = False
    for rep in range(cfg.replications):
        # burn-in spans the whole run: return times need no tallies
        _, rep_gaps = _replicate(tables, lam, cfg, rep, target, cfg.horizon, target=target)
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
