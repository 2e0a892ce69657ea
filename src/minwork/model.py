"""Problem instance and exact one-step kernels.

A single server drains a task queue. The server carries an activity
state s in {1..n_s} that tends to rise while it works and to fall while
it rests, and the per-step completion probability mu(s) depends on s.
Availability w is A (free to choose) or B (a task is in service and,
being non-preemptive, must be finished). The full chain X tracks
(s, w, q) with Bernoulli(lam) arrivals; the reduced chain Ybar tracks
(s, w) only and moves exactly like X's server component whenever the
queue is nonempty. A PolicyY gives work probabilities on the reduced
space; a PolicyX gives them on the full space as a table indexed by
queue level, and a lifted policy is its two-row case.

State order for all vectors/matrices over the reduced space: (s, A) for
s = 1..n_s, then (s, B) for s = 1..n_s. This order is part of the
module contract; every other module relies on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import yaml


class NumericalFailure(RuntimeError):
    """A linear solve or pivoting procedure broke down numerically.

    Distinct from model-level infeasibility or non-uniqueness errors:
    this one means the arithmetic cannot be trusted, not that the
    requested object fails to exist.
    """


class Availability(enum.IntEnum):
    A = 0  # available: may work or rest
    B = 1  # busy: a task is in service, work is forced

    def __str__(self) -> str:
        return self.name


class Action(enum.IntEnum):
    REST = 0
    WORK = 1

    def __str__(self) -> str:
        return self.name


class ServerState(NamedTuple):
    s: int
    w: Availability


class SystemState(NamedTuple):
    s: int
    w: Availability
    q: int

    @property
    def y(self) -> ServerState:
        return ServerState(self.s, self.w)


@dataclass(frozen=True)
class ServerSpec:
    """Immutable problem instance.

    mu[s-1] is the completion probability at activity state s, each in
    the open interval (0, 1). rho_up[s-1] = rho_{s,s+1} and
    rho_down[s-1] = rho_{s,s-1} are the activity move probabilities
    under work and rest. Boundary entries rho_{n_s,n_s+1} and rho_{1,0}
    are stored explicitly as zeros; they may be omitted on input and are
    filled in. Interior entries must lie in (0, 1). The spec keeps
    read-only copies of the arrays passed in, so nothing can change them
    after validation.
    """

    n_s: int
    mu: np.ndarray
    rho_up: np.ndarray
    rho_down: np.ndarray

    def __post_init__(self):
        n = self.n_s
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_s must be a positive integer, got {self.n_s!r}")
        object.__setattr__(self, "n_s", int(n))

        mu = np.array(self.mu, dtype=float)
        if mu.shape != (n,):
            raise ValueError(f"mu must have length n_s={n}, got shape {mu.shape}")
        if not np.all((mu > 0.0) & (mu < 1.0)):
            raise ValueError("mu entries must lie in the open interval (0, 1)")

        rho_up = np.array(self.rho_up, dtype=float)
        if rho_up.shape == (n - 1,):
            rho_up = np.append(rho_up, 0.0)  # rho_{n_s, n_s+1} = 0 forced
        if rho_up.shape != (n,):
            raise ValueError(f"rho_up must have length n_s={n} or n_s-1, got shape {rho_up.shape}")
        if rho_up[n - 1] != 0.0:
            raise ValueError("rho_up at the top activity state must be 0")
        if n > 1 and not np.all((rho_up[: n - 1] > 0.0) & (rho_up[: n - 1] < 1.0)):
            raise ValueError("interior rho_up entries must lie in (0, 1)")

        rho_down = np.array(self.rho_down, dtype=float)
        if rho_down.shape == (n - 1,):
            rho_down = np.insert(rho_down, 0, 0.0)  # rho_{1,0} = 0 forced
        if rho_down.shape != (n,):
            raise ValueError(f"rho_down must have length n_s={n} or n_s-1, got shape {rho_down.shape}")
        if rho_down[0] != 0.0:
            raise ValueError("rho_down at the bottom activity state must be 0")
        if n > 1 and not np.all((rho_down[1:] > 0.0) & (rho_down[1:] < 1.0)):
            raise ValueError("interior rho_down entries must lie in (0, 1)")

        for name, arr in (("mu", mu), ("rho_up", rho_up), ("rho_down", rho_down)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # copies and unpickled specs go through validation again, so their
        # arrays are read-only too and carry no kernels of another spec
        return (ServerSpec, (self.n_s, self.mu, self.rho_up, self.rho_down))

    # Specs compare and hash by value; the cached kernels take no part.
    # Hashing Python floats makes a stored -0.0 hash like the 0.0 it equals.
    def __eq__(self, other):
        if not isinstance(other, ServerSpec):
            return NotImplemented
        return self.n_s == other.n_s and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("mu", "rho_up", "rho_down")
        )

    def __hash__(self):
        return hash((self.n_s, *(tuple(a.tolist()) for a in (self.mu, self.rho_up, self.rho_down))))

    @property
    def n_y(self) -> int:
        return 2 * self.n_s


@dataclass(frozen=True)
class PolicyY:
    """Stationary randomized policy on the reduced space.

    work_prob[s-1] = phi(s, A) in [0, 1]. Busy states have phi(s, B) = 1
    forced by non-preemption and are not stored.
    """

    work_prob: np.ndarray

    def __post_init__(self):
        wp = np.asarray(self.work_prob, dtype=float)
        if wp.ndim != 1 or wp.size < 1:
            raise ValueError("work_prob must be a nonempty 1-d array")
        if not np.all((wp >= 0.0) & (wp <= 1.0)):
            raise ValueError("work probabilities must lie in [0, 1]")
        wp.setflags(write=False)
        object.__setattr__(self, "work_prob", wp)

    # Policies compare and hash by value, as ServerSpec does.
    def __eq__(self, other):
        if not isinstance(other, PolicyY):
            return NotImplemented
        return np.array_equal(self.work_prob, other.work_prob)

    def __hash__(self):
        return hash(tuple(self.work_prob.tolist()))

    @property
    def n_s(self) -> int:
        return self.work_prob.size

    @property
    def full(self) -> np.ndarray:
        """Work probability over all 2*n_s reduced states, busy rows = 1."""
        return np.concatenate([self.work_prob, np.ones(self.n_s)])

    def in_phi_r_plus(self) -> bool:
        return self.work_prob[0] > 0.0

    def in_phi_r_eps(self, eps: float) -> bool:
        return self.work_prob[0] >= eps

    def __call__(self, s: int, w: Availability) -> float:
        check_y(self.n_s, s, w)
        if w == Availability.B:
            return 1.0
        return float(self.work_prob[s - 1])


@dataclass(frozen=True)
class PolicyX:
    """Queue-aware policy on the full space.

    table[min(q, L), w, s-1] is the work probability at (s, w, q), with
    L = table.shape[0] - 1, so the last row holds for every q >= L. Row
    0 must rest at the available states (an empty queue has nothing to
    serve) and the busy rows for q >= 1 must work (non-preemption). The
    table is a read-only copy. A lifted policy (synthesis.lift_policy)
    has two rows: rest on an empty queue, otherwise act as its base.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 3 or t.shape[0] < 2 or t.shape[1] != 2 or t.shape[2] < 1:
            raise ValueError("table must have shape (L+1, 2, n_s) with L >= 1 and n_s >= 1")
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("work probabilities must lie in [0, 1]")
        if np.any(t[0, 0] != 0.0):
            raise ValueError("empty-queue rows must rest")
        if np.any(t[1:, 1] != 1.0):
            raise ValueError("busy rows must work")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __eq__(self, other):
        if not isinstance(other, PolicyX):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.table.shape, tuple(self.table.ravel().tolist())))

    @property
    def base(self) -> PolicyY:
        """The reduced policy a lifted policy acts as at q >= 1; raises
        ValueError when the work probabilities change with q >= 1."""
        if self.table.shape[0] != 2:
            raise ValueError(
                f"not a lifted policy: its {self.table.shape[0]} table rows make the work "
                "probabilities change with q >= 1"
            )
        return PolicyY(self.table[1, 0])

    def levels(self, q_max: int) -> np.ndarray:
        """The table expanded to one row per queue level q = 0..q_max."""
        return self.table[np.minimum(np.arange(q_max + 1), self.table.shape[0] - 1)]

    def work_prob(self, s: int, w: Availability, q: int) -> float:
        check_state(self.table.shape[2], s, w, q)
        return float(self.table[min(q, self.table.shape[0] - 1), int(w), s - 1])


def check_y(n_s: int, s: int, w: Availability) -> None:
    """Raise ValueError unless (s, w) is a reduced state for n_s."""
    if not (1 <= s <= n_s and w in (0, 1)):
        raise ValueError(f"(s, w) = ({s}, {w}) is not a reduced state for n_s={n_s}: s must lie in 1..n_s, w in (A, B)")


def check_state(n_s: int, s: int, w: Availability, q: int, q_max: int | None = None) -> None:
    """Raise ValueError unless (s, w, q) is a state of the full chain
    for n_s, with q at most q_max when that is given."""
    # a busy server holds the job in service, so q >= 1 when w = B
    if not (1 <= s <= n_s and w in (0, 1) and q >= w and (q_max is None or q <= q_max)):
        size, cap = (f"n_s={n_s}", "q >= 0") if q_max is None else (f"n_s={n_s} and q_max={q_max}", "q in 0..q_max")
        raise ValueError(
            f"(s, w, q) = ({s}, {w}, {q}) is not a state for {size}: s must lie in 1..n_s, {cap}, and q >= 1 when busy"
        )


def y_index(n_s: int, s: int, w: Availability) -> int:
    """Position of (s, w) in the fixed reduced-state order."""
    check_y(n_s, s, w)
    return int(w) * n_s + (s - 1)


def y_state(n_s: int, i: int) -> ServerState:
    return ServerState(i % n_s + 1, Availability(i // n_s))


def admissible_actions_x(x: SystemState) -> frozenset:
    if x.q == 0:
        return frozenset({Action.REST})
    if x.w == Availability.B:
        return frozenset({Action.WORK})
    return frozenset({Action.WORK, Action.REST})


def admissible_actions_y(w: Availability) -> frozenset:
    if w == Availability.B:
        return frozenset({Action.WORK})
    return frozenset({Action.WORK, Action.REST})


def activity_transition(spec: ServerSpec, s: int, a: Action) -> np.ndarray:
    """PMF of the next activity state, as a vector indexed by s'-1.

    Working moves up one state w.p. rho_up[s-1], resting moves down one
    state w.p. rho_down[s-1]; otherwise the activity state is retained.
    """
    if not 1 <= s <= spec.n_s:
        raise ValueError(f"activity state {s} out of range 1..{spec.n_s}")
    pmf = np.zeros(spec.n_s)
    if a == Action.WORK:
        p = spec.rho_up[s - 1]
        pmf[s - 1] = 1.0 - p
        if s < spec.n_s:
            pmf[s] = p
    else:
        p = spec.rho_down[s - 1]
        pmf[s - 1] = 1.0 - p
        if s > 1:
            pmf[s - 2] = p
    return pmf


def x_transition(spec: ServerSpec, lam: float, x: SystemState, a: Action) -> dict:
    """One-step PMF of the full chain, as {SystemState: probability}.

    The activity move is independent of the (w, q) move given the
    action. Completion uses the current activity state. Support has at
    most 8 states.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if a not in admissible_actions_x(x):
        raise ValueError(f"action {a!s} not admissible at {x}")
    act = activity_transition(spec, x.s, a)
    if a == Action.WORK:
        m = spec.mu[x.s - 1]
        # (w', dq) masses: completion frees the server, an arrival adds a task.
        wq = [
            (Availability.A, x.q - 1 + 1, m * lam),
            (Availability.A, x.q - 1, m * (1.0 - lam)),
            (Availability.B, x.q + 1, (1.0 - m) * lam),
            (Availability.B, x.q, (1.0 - m) * (1.0 - lam)),
        ]
    else:
        wq = [
            (Availability.A, x.q + 1, lam),
            (Availability.A, x.q, 1.0 - lam),
        ]
    out = {}
    for sp in np.flatnonzero(act):
        for w, q, p in wq:
            if p > 0.0:
                out[SystemState(int(sp) + 1, w, q)] = act[sp] * p
    return out


def ybar_kernel(spec: ServerSpec, y: ServerState, a: Action) -> np.ndarray:
    """One-step PMF of the reduced chain, over the fixed state order.

    Under Work the server is available next step w.p. mu(s) (task done)
    and busy otherwise; under Rest it is available surely. Marginalizing
    x_transition over q' with q >= 1 reproduces these masses.
    """
    if a not in admissible_actions_y(y.w):
        raise ValueError(f"action {a!s} not admissible at {y}")
    act = activity_transition(spec, y.s, a)
    n = spec.n_s
    pmf = np.zeros(2 * n)
    if a == Action.WORK:
        m = spec.mu[y.s - 1]
        pmf[:n] = act * m
        pmf[n:] = act * (1.0 - m)
    else:
        pmf[:n] = act
    return pmf


def _kernel_matrices(spec: ServerSpec):
    """Per-action reduced kernels P_W, P_R as (2n_s, 2n_s) matrices.

    P_R rows at busy states carry the rest kernel for completeness; they
    always receive zero weight because non-preemption forces work.
    The spec is immutable, so the first call for a spec builds them and
    keeps them on it, read-only; every later call returns the same pair.
    """
    cached = getattr(spec, "_kernels", None)
    if cached is not None:
        return cached
    n = spec.n_s
    up = np.zeros((n, n))
    down = np.zeros((n, n))
    idx = np.arange(n)
    up[idx, idx] = 1.0 - spec.rho_up
    up[idx[:-1], idx[:-1] + 1] = spec.rho_up[:-1]
    down[idx, idx] = 1.0 - spec.rho_down
    down[idx[1:], idx[1:] - 1] = spec.rho_down[1:]

    pw = np.zeros((2 * n, 2 * n))
    pr = np.zeros((2 * n, 2 * n))
    mu = spec.mu[:, None]
    for w in (0, 1):
        rows = slice(w * n, w * n + n)
        pw[rows, :n] = up * mu
        pw[rows, n:] = up * (1.0 - mu)
        pr[rows, :n] = down
    pw.setflags(write=False)
    pr.setflags(write=False)
    object.__setattr__(spec, "_kernels", (pw, pr))
    return pw, pr


def ybar_matrix(spec: ServerSpec, phi) -> np.ndarray:
    """Row-stochastic one-step matrix of the reduced chain under phi.

    phi may be a PolicyY or a plain length-n_s vector of work
    probabilities at the available states.
    """
    wp = np.asarray(getattr(phi, "work_prob", phi), dtype=float)
    if wp.shape != (spec.n_s,):
        raise ValueError(f"policy must give {spec.n_s} work probabilities, got shape {wp.shape}")
    pw, pr = _kernel_matrices(spec)
    full = np.concatenate([wp, np.ones(spec.n_s)])[:, None]
    return full * pw + (1.0 - full) * pr


def load_spec(path) -> ServerSpec:
    """Read a ServerSpec from a YAML config with keys n_s, mu, rho_up,
    rho_down. Forced-zero boundary entries may be omitted.
    """
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config {path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: expected a mapping at top level")
    missing = [k for k in ("n_s", "mu", "rho_up", "rho_down") if k not in raw]
    if missing:
        raise ValueError(f"config {path}: missing keys {missing}")
    try:
        return ServerSpec(
            n_s=raw["n_s"],
            mu=np.asarray(raw["mu"], dtype=float),
            rho_up=np.asarray(raw["rho_up"], dtype=float),
            rho_down=np.asarray(raw["rho_down"], dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from exc
