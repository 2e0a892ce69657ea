"""The tests' dense reference for stationary laws of any stochastic
matrix: classes found by breadth-first search and a LAPACK solve on the
one recurrent class. The program solves only the reduced chain, by
levels (chain.stationary_pmf_y), and the tests check it against this.
"""

import collections

import numpy as np

from minwork.chain import BALANCE_TOL, NEGATIVE_TOL, NonUniqueStationaryError
from minwork.model import NumericalFailure


def reach_by_search(P):
    """For each state, the set of states reachable from it along the
    entries > 0 of P, itself included."""
    n = len(P)
    succ = [[u for u in range(n) if P[v][u] > 0] for v in range(n)]
    reach = []
    for i in range(n):
        seen, queue = {i}, collections.deque([i])
        while queue:
            for u in succ[queue.popleft()]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        reach.append(seen)
    return reach


def classes_by_search(P):
    """The classes by definition: mutually reachable sets, recurrence
    as closure, as (members, recurrent) pairs listed by smallest member."""
    reach = reach_by_search(P)
    classes = []
    for i in range(len(P)):
        members = [j for j in range(len(P)) if j in reach[i] and i in reach[j]]
        if members[0] == i:
            classes.append((members, reach[i] == set(members)))
    return classes


def stationary_by_class(P):
    """The stationary PMF solved on the recurrent class alone, with the
    classes found by search: the balance equations with normalization in
    place of one of them, masses below 1e-15 cut to zero, then sign,
    normalization and balance checks. Raises NonUniqueStationaryError
    carrying the recurrent classes when there are several."""
    classes = classes_by_search(P.tolist())
    recurrent = [c for c, r in classes if r]
    if len(recurrent) != 1:
        raise NonUniqueStationaryError(recurrent)
    members = recurrent[0]
    k = len(members)
    A = P[np.ix_(members, members)].T - np.eye(k)
    A[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    pi = np.zeros(P.shape[0])
    pi[members] = np.linalg.solve(A, rhs)
    pi[np.abs(pi) < 1e-15] = 0.0
    if np.any(pi < -NEGATIVE_TOL) or abs(pi.sum() - 1.0) > BALANCE_TOL:
        raise NumericalFailure("stationary PMF fails sign or normalization checks")
    np.maximum(pi, 0.0, out=pi)
    pi /= pi.sum()
    if np.max(np.abs(pi @ P - pi)) > BALANCE_TOL:
        raise NumericalFailure("stationary PMF fails balance checks")
    return pi
